"""Benchmark child process: one fresh interpreter per job.

    python3 perfbench/worker.py setup <spec.json> <out.json>
    python3 perfbench/worker.py ops <spec.json> <out.json>

``setup`` imports graphsig and turns the workload's generated inputs into
program objects (``build_graph`` on the in-memory edge array, or
``io.load_dataset`` on the workload's files), then writes the
CLOCK_MONOTONIC time it finished.  ``ops`` runs whole ops until
``seconds`` have passed and ``min_ops`` ops have run, and writes each op's wall time
and outputs; CLI verbs run in this interpreter through
``graphsig.cli.main``.  With ``trace`` set, spans are recorded around the
calls into every module and reduced to per-op layer figures.
"""

import contextlib
import json
import os
import shutil
import sys
import time


def _load_arrays(spec):
    import numpy as np

    return tuple(np.load(spec["paths"][k]) for k in ("edges", "X", "y"))


def setup(spec):
    import graphsig

    if spec["in_process"]:
        edges, X, y = _load_arrays(spec)
        graphsig.build_graph(X.shape[0], edges)
    else:
        graphsig.io.load_dataset(*spec["paths"]["cli"], quiet=True)
    return {"done": time.monotonic()}


def ops(spec):
    from workloads import WORKLOADS, cli_steps, observe_cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    import graphsig.cli
    from graphsig import scaffold

    workload = WORKLOADS[spec["workload"]]
    if workload.in_process:
        edges, X, y = _load_arrays(spec)
        g = graphsig.graph.build_graph(X.shape[0], edges)
    else:
        import numpy as np

        y = np.load(spec["paths"]["y"])

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext({})

    def op(op_dir):
        if workload.in_process:
            grids = scaffold.SearchGrids()
            (o,) = scaffold.evaluate_repeats(g, X, y, scaffold.SplitSpec(seed=0), n_repeats=1, grids=grids)
            return {
                "configs": [o.config.to_dict()],
                "test_acc": [o.test_accuracy],
                "sha256": {},
                "configs_covered": grids.size(),
                "eval_nodes": int(o.test.size),
            }
        for argv in cli_steps(workload, spec["paths"]["cli"], op_dir):
            with span(f"cli.{argv[0]}") as rec:
                try:
                    rc = graphsig.cli.main(argv)
                except SystemExit as e:  # argparse rejects a bad argv this way
                    rc = e.code
                rec["counters"] = {"failed": int(rc != 0)}
            if rc != 0:
                raise RuntimeError(f"graphsig {argv[0]} exited with {rc}")
        return None

    walls, observations, problems = [], [], []
    start = time.perf_counter()
    while len(walls) < spec["min_ops"] or time.perf_counter() - start < spec["seconds"]:
        op_dir = os.path.join(spec["work"], f"op-{'traced' if tracer else 'plain'}")
        shutil.rmtree(op_dir, ignore_errors=True)
        if tracer:
            tracer.run = len(walls)
        t0 = time.perf_counter()
        try:
            obs = op(op_dir)
            err = []
        except Exception as e:  # one failed op is counted, the loop goes on
            obs, err = None, [f"{type(e).__name__}: {e}"]
        walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.run = None
        if obs is None and not err:
            obs, err = observe_cli(workload, op_dir, y)
        observations.append(obs)
        problems.append(err)
        shutil.rmtree(op_dir, ignore_errors=True)

    out = {
        "walls": walls,
        "observations": observations,
        "problems": problems,
    }
    if tracer:
        from spans import layer_metrics
        import statistics

        out["layer"] = layer_metrics(tracer.spans, len(walls), statistics.median(walls))
    return out


def main():
    mode, spec_path, out_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup": setup, "ops": ops}[mode](spec)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
