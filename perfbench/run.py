"""graphsig benchmark: three workloads, end-to-end metrics, traced run.

Run from the repository root (graphsig is imported from ``src/``):

    python3 perfbench/run.py --workload grid-search --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0           # every workload
    python3 perfbench/run.py --workload all --size smoke --seconds 1

The inputs are generated from ``--seed`` (see gen.py) and written with
graphsig's own writers before anything is timed.  A run then

1. (``--trace 0``) starts a fresh interpreter several times, each
   importing graphsig and turning the inputs into program objects
   (``setup_s`` is the median), and then runs whole ops back to back, one
   at a time (a closed loop with one client), until ``--seconds`` have
   passed and at least MIN_OPS ops have run.  grid-search runs its ops in
   one child interpreter; the CLI workloads start ``python3 -m
   graphsig.cli`` once per verb.
2. (``--trace 1``) runs ops in a child interpreter for half of
   ``--seconds`` untraced, then in a fresh one for the other half with
   spans around the calls into every module (spans.py), CLI verbs called
   through ``graphsig.cli.main``; it reports the per-layer figures per
   op and the tracing overhead, the traced minus the untraced median op
   wall time of those two in-process phases.

Every op's outputs are checked: the selected HyperConfig and the test
accuracy of every repeat, and the sha256 of the result files named in
workloads.py, must equal reference.json (recorded from the seed code by
record.py) when it holds the seed, and the first op of the run
otherwise; run-large's fingerprint pass must also reproduce the atlas
rows and fingerprint of the run it reads back.  An op that raises, exits
non-zero or fails a check counts as failed.

The human-readable lines name every metric with its unit; the last line
is the JSON object ``{"correct", "attempted", "failed", "metrics"}``.
BLAS threads are pinned to one in every child: the work is mostly small
SVDs and gathers, where a second thread on a two-core machine measured
slower (10.5 s vs 9.4 s per grid-search op, 2-vCPU Xeon, OpenBLAS 0.3.31).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
# the median of three ops is not moved by one slow op, as the mean of two is
MIN_OPS = 3
BLAS_THREADS = "1"
RUN_BUDGET_S = 170.0  # a single-workload run must end within 180 s
CLI_VERBS = ("run", "fingerprint", "prototype", "ablate")

sys.path.insert(0, HERE)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GRAPHSIG_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def environment():
    """Machine and library facts recorded with every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = None
    for index in range(8):  # the kernel's cache description, level 3 entry
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(f"{base}/level") as fh:
                if fh.read().strip() == "3":
                    with open(f"{base}/size") as fh:
                        l3 = fh.read().strip()
        except OSError:
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "l3_size": l3,
    }


def run_child(argv, log_path, timeout):
    """Run one child to completion; returns (exit code, its peak RSS in MiB).

    The child is killed when ``timeout`` runs out, which shows as a
    non-zero exit code.
    """
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(timeout, 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Run:
    """One workload at one size and seed: inputs, children, checks."""

    def __init__(self, workload, size, seed, seconds, reference):
        self.workload = workload
        self.shape = workload.shapes[size]
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.deadline = time.monotonic() + RUN_BUDGET_S
        # per process, so that two runs of one seed cannot share files
        self.work = os.path.join(WORK, f"{workload.name}-{size}-seed{seed}-pid{os.getpid()}")
        self.log = os.path.join(self.work, "children.log")
        self.first_obs = None
        self.failures = []

    def remaining(self):
        return self.deadline - time.monotonic()

    def prepare(self):
        """Generate the inputs and write them; nothing here is timed."""
        import numpy as np

        from gen import planted_partition, write_dataset

        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        arrays = dict(zip(("edges", "X", "y"), planted_partition(self.shape, self.seed)))
        self.paths = {k: os.path.join(self.work, f"{k}.npy") for k in arrays}
        for k, a in arrays.items():
            np.save(self.paths[k], a)
        if not self.workload.in_process:
            self.paths["cli"] = write_dataset(self.work, *arrays.values(), self.workload.features)

    def worker(self, mode, **extra):
        spec = dict(
            workload=self.workload.name,
            in_process=self.workload.in_process,
            paths=self.paths,
            work=self.work,
            **extra,
        )
        tag = f"{mode}-{time.monotonic_ns()}"
        spec_path = os.path.join(self.work, f"{tag}.spec.json")
        out_path = os.path.join(self.work, f"{tag}.out.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, spec_path, out_path]
        t0 = time.monotonic()
        rc, rss = run_child(argv, self.log, self.remaining())
        if rc != 0:
            raise RuntimeError(f"worker {mode} exited with {rc}; see {self.log}")
        with open(out_path, encoding="utf-8") as fh:
            return t0, json.load(fh), rss

    def setup_seconds(self):
        times = []
        for _ in range(SETUP_PROBES):
            t0, out, _ = self.worker("setup")
            times.append(out["done"] - t0)
        return times

    def judge(self, obs, problems):
        """Record the op as failed if it has problems or differs from the reference."""
        errors = list(problems)
        if obs is not None:
            from workloads import check

            expected = self.reference or self.first_obs or obs
            errors += check(obs, expected)
            if self.first_obs is None:
                self.first_obs = obs
        elif not errors:
            errors = ["no output"]
        if errors:
            self.failures.append(errors)

    def cli_ops(self):
        """Timed CLI ops, one child per verb; returns (walls, observations, peak MiB)."""
        from workloads import cli_steps, observe_cli

        import numpy as np

        y = np.load(self.paths["y"])
        walls, observations, peak = [], [], 0.0
        start = time.monotonic()
        while len(walls) < MIN_OPS or time.monotonic() - start < self.seconds:
            op_dir = os.path.join(self.work, "op")
            shutil.rmtree(op_dir, ignore_errors=True)
            problems = []
            t0 = time.perf_counter()
            for argv in cli_steps(self.workload, self.paths["cli"], op_dir):
                rc, rss = run_child(
                    [sys.executable, "-m", "graphsig.cli", *argv], self.log, self.remaining()
                )
                peak = max(peak, rss)
                if rc != 0:
                    problems.append(f"graphsig {argv[0]} exited with {rc}")
                    break
            walls.append(time.perf_counter() - t0)
            obs = None
            if not problems:
                try:
                    obs, problems = observe_cli(self.workload, op_dir, y)
                except (OSError, ValueError, KeyError) as e:
                    problems = [f"unreadable output: {type(e).__name__}: {e}"]
            self.judge(obs, problems)
            observations.append(obs)
            shutil.rmtree(op_dir, ignore_errors=True)
            if self.remaining() < 0:
                break
        return walls, observations, peak

    def worker_ops(self, seconds, trace, min_ops):
        t0 = time.monotonic()
        try:
            _, out, rss = self.worker("ops", seconds=seconds, trace=trace, min_ops=min_ops)
        except RuntimeError as e:  # the whole child failed: one failed op
            self.failures.append([str(e)])
            return {"walls": [time.monotonic() - t0], "observations": [None],
                    "problems": [[str(e)]], "peak_rss_mb": 0.0, "layer": {}}
        for obs, problems in zip(out["observations"], out["problems"]):
            self.judge(obs, problems)
        out["peak_rss_mb"] = rss
        return out

    def timed(self):
        setup = self.setup_seconds()
        if self.workload.in_process:
            out = self.worker_ops(self.seconds, False, MIN_OPS)
            walls, observations, peak = out["walls"], out["observations"], out["peak_rss_mb"]
        else:
            walls, observations, peak = self.cli_ops()
        done = [o for o in observations if o is not None]
        wall = statistics.median(walls)
        accs = [a for o in done for a in o["test_acc"]]
        per_op = done[0] if done else {"configs_covered": 0, "eval_nodes": 0}
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "peak_rss_mb": peak,
            "test_acc_mean": statistics.fmean(accs) if accs else 0.0,
            "configs_per_s": per_op["configs_covered"] / wall,
            "nodes_per_s": per_op["eval_nodes"] / wall,
        }
        samples = {"setup_s": setup, "wall_s": walls}
        return metrics, samples

    def traced(self):
        base = self.worker_ops(self.seconds / 2.0, False, 1)
        traced = self.worker_ops(self.seconds / 2.0, True, 1)
        plain = statistics.median(base["walls"])
        with_spans = statistics.median(traced["walls"])
        metrics = dict(traced["layer"])
        metrics["trace.op_wall_s"] = with_spans
        metrics["trace.overhead_s"] = with_spans - plain
        metrics["trace.overhead_frac"] = (with_spans - plain) / plain
        samples = {"untraced_wall_s": base["walls"], "traced_wall_s": traced["walls"]}
        return metrics, samples

    def execute(self, trace):
        self.prepare()
        try:
            metrics, samples = self.traced() if trace else self.timed()
        finally:
            # keep only the children's log, and that only when something failed
            for name in os.listdir(self.work):
                if name != "children.log" or not self.failures:
                    path = os.path.join(self.work, name)
                    if os.path.isdir(path):
                        shutil.rmtree(path, ignore_errors=True)
                    else:
                        os.remove(path)
            if not self.failures:
                os.rmdir(self.work)
        attempted = len(samples.get("wall_s") or samples["untraced_wall_s"] + samples["traced_wall_s"])
        return metrics, samples, attempted


def select_metrics(bench, computed, trace):
    """The BENCHMARK.json metrics of this mode, in its order, with units.

    A per-layer figure of a function the workload never called is 0;
    a name that nothing computes is an error.
    """
    from spans import TARGETS

    traced = {f"{m}.{f}" for m, f, _ in TARGETS} | {f"cli.{v}" for v in CLI_VERBS}
    out = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name = spec["name"]
        if name in computed:
            value = computed[name]
        elif trace and name.rsplit(".", 1)[0] in traced:
            value = 0.0
        else:
            raise KeyError(f"metric {name} is not computed by the benchmark")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def load_reference(workload, size, seed):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(size, {}).get(str(seed))


def run_workload(name, size, seed, seconds, trace, reference=None, quiet=False):
    """Run one workload; returns the result dict printed as the last line."""
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if reference is None:
        reference = load_reference(name, size, seed)
    run = Run(WORKLOADS[name], size, seed, seconds, reference)
    metrics, samples, attempted = run.execute(trace)
    failed = len(run.failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select_metrics(bench, metrics, trace),
    }
    record = dict(
        workload=name, size=size, seed=seed, seconds=seconds, trace=trace,
        environment=environment(), samples=samples, failures=run.failures,
        reference="recorded" if reference else "first op of this run", **result,
    )
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{name}-{size}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if not quiet:
        report(record)
    return result


def report(record):
    name = record["workload"]
    print(f"# {name} size={record['size']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={int(record['trace'])}")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"# outputs checked against: {record['reference']}")
    for key, values in record["samples"].items():
        n = len(values)
        # highest percentile with at least ten samples beyond it
        tail = "no tail percentile (needs 11+ samples)"
        if n >= 11:
            tail = f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} s"
        print(f"{name} {key}: n={n} median {statistics.median(values):.4f} s, {tail}")
    for metric, m in record["metrics"].items():
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"{name} fail_frac = {frac:.6g} ratio ({record['failed']} failed of "
          f"{record['attempted']} attempted)")
    for errors in record["failures"][:5]:
        print(f"{name} FAILED: {'; '.join(errors)[:500]}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="grid-search | run-large | ablate-proto | all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    args = p.parse_args(argv)
    # on SIGTERM unwind normally, so that running children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "graphsig", "__init__.py")):
        print(f"perfbench: no graphsig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        p.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    results = {n: run_workload(n, args.size, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
