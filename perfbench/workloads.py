"""The three benchmark workloads: shapes, the steps of one operation, and
what each operation's outputs must look like.

One operation ("op") is the unit the benchmark times and checks:

* ``grid-search``: one in-process ``evaluate_repeats`` call, one repeat,
  default ``SearchGrids`` (1,008 configs), default per-class split, on a
  Cora-shaped homophilic graph.  The dictionary is 9 * 1433 = 12,897
  columns wide, wider than every default K, so no K level clamps and the
  cost sits in the grid search (restrict gathers, class SVDs, residuals).
  No atlas, no file io: atlas and loader changes should not move it.
* ``run-large``: ``graphsig run`` (one-point grid, 2 repeats) then
  ``graphsig fingerprint`` on repeat 0's snapshot, binary GSF1 features.
  The search is trivial; time goes to edge parsing, graph build, the
  dictionary, scoring thousands of test rows, the per-node atlas, CSV
  and snapshot writing and the snapshot read.  Search changes should not
  move it; atlas, memory and io changes should.
* ``ablate-proto``: ``prototype --method knn``, ``prototype --method
  rewire`` and ``ablate`` over all seven variants, CSV features, on a
  heterophilic graph.  The dictionaries are at most 9 * 40 = 360 wide, so
  every default K clamps (K de-duplication shows here and not on
  grid-search); it also covers the n x n kNN, the rewire loop, pinned-w
  variants, paired statistics and three CSV parses.

Every op of a run does the same work on the same inputs, so every op must
give the same outputs; inputs change with the seed.
"""

import hashlib
import json
import os
from dataclasses import dataclass

from gen import Shape

# one-point grid for run-large: the search is not what that workload measures
ONE_POINT_GRID = [
    "--grid-k", "4000", "--grid-rmax", "32", "--grid-eta", "0.95",
    "--grid-alphas", "0.1,1.0,10.0", "--grid-w", "0.5",
]
REPEATS = 2  # CLI workloads; paired statistics need at least two pairs


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: dict  # size name ('full' | 'smoke') -> Shape
    features: str  # 'arrays' (in-process) | 'binary' | 'csv'

    @property
    def in_process(self) -> bool:
        return self.features == "arrays"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid-search",
            {
                "full": Shape(n=2708, d=1433, classes=7, p_in=0.008, p_out=0.00032, shift=3.0),
                "smoke": Shape(n=210, d=100, classes=3, p_in=0.05, p_out=0.005, shift=2.5),
            },
            "arrays",
        ),
        Workload(
            "run-large",
            {
                "full": Shape(n=3000, d=128, classes=8, p_in=0.02, p_out=0.000838, shift=1.0),
                "smoke": Shape(n=400, d=16, classes=4, p_in=0.05, p_out=0.005, shift=1.0),
            },
            "binary",
        ),
        Workload(
            "ablate-proto",
            {
                "full": Shape(n=1200, d=40, classes=5, p_in=0.0033, p_out=0.01, shift=2.5),
                "smoke": Shape(n=200, d=16, classes=3, p_in=0.02, p_out=0.06, shift=2.5),
            },
            "csv",
        ),
    )
}


def cli_steps(workload: Workload, paths, op_dir):
    """The CLI argv lists (without the program) of one op, in order."""
    edges, features, labels = paths
    data = ["--edges", edges, "--features", features]
    if workload.name == "run-large":
        run_dir = os.path.join(op_dir, "run")
        return [
            ["run", *data, "--labels", labels, "--name", "run-large",
             "--repeats", str(REPEATS), *ONE_POINT_GRID, "--out", run_dir],
            ["fingerprint", *data, "--labels", labels, "--name", "run-large",
             "--snapshot", os.path.join(run_dir, "repeat_00", "snapshot.json"),
             "--out", os.path.join(op_dir, "fingerprint")],
        ]
    if workload.name == "ablate-proto":
        return [
            ["prototype", *data, "--method", "knn", "--k", "10",
             "--out", os.path.join(op_dir, "knn")],
            ["prototype", *data, "--method", "rewire", "--fraction", "0.2",
             "--out", os.path.join(op_dir, "rewire")],
            ["ablate", *data, "--labels", labels, "--name", "ablate-proto",
             "--repeats", str(REPEATS), "--out", os.path.join(op_dir, "ablate")],
        ]
    raise ValueError(f"{workload.name} has no CLI steps")


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _data_rows(path):
    """CSV lines after the leading '#' meta line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[1:] if lines and lines[0].startswith("#") else lines


def _without_meta(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("meta", None)
    return payload


def _test_size(y):
    """Test rows of the default per-class split; every class of the
    generated inputs holds more than train + val members."""
    import numpy as np
    from graphsig.scaffold import SplitSpec

    spec = SplitSpec()
    return int(np.sum(np.bincount(y) - spec.train_per_class - spec.val_per_class))


def observe_cli(workload: Workload, op_dir, y):
    """Read one CLI op's output files.

    Returns (observation, problems): the observation holds the values the
    reference pins (selected configs, test accuracies, sha256 of result
    files) and the op's work counts; problems lists failed consistency
    checks that need no reference.
    """
    problems = []
    if workload.name == "run-large":
        run_dir = os.path.join(op_dir, "run")
        fp_dir = os.path.join(op_dir, "fingerprint")
        results_path = os.path.join(run_dir, "results.json")
        with open(results_path, encoding="utf-8") as fh:
            results = json.load(fh)
        reps = results["repeats"]
        rep0 = os.path.join(run_dir, "repeat_00")
        if _data_rows(os.path.join(fp_dir, "atlas.csv")) != _data_rows(
            os.path.join(rep0, "atlas.csv")
        ):
            problems.append("fingerprint atlas.csv rows differ from run repeat_00")
        fp_payload = _without_meta(os.path.join(fp_dir, "fingerprint.json"))
        if fp_payload != _without_meta(os.path.join(rep0, "fingerprint.json")):
            problems.append("fingerprint.json (without meta) differs from run repeat_00")
        rows = "\n".join(_data_rows(os.path.join(rep0, "atlas.csv"))).encode()
        fp_blob = json.dumps(fp_payload, sort_keys=True).encode()
        obs = {
            "configs": [r["selected_config"] for r in reps],
            "test_acc": [r["test_accuracy"] for r in reps],
            "sha256": {
                "results.json": _sha256(results_path),
                "repeat_00/atlas.csv rows": hashlib.sha256(rows).hexdigest(),
                "repeat_00/fingerprint.json without meta": hashlib.sha256(fp_blob).hexdigest(),
            },
            "configs_covered": len(reps),  # one grid point per repeat
            "eval_nodes": sum(r["sizes"]["test"] for r in reps) + fp_payload["n_eval"],
        }
        return obs, problems

    if workload.name == "ablate-proto":
        from graphsig.lab import VARIANTS
        from graphsig.scaffold import SearchGrids

        with open(os.path.join(op_dir, "ablate", "ablation_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        accs = [[row["variant"], row["accuracies"]] for row in report["variants"]]
        if [name for name, _ in accs] != [v.name for v in VARIANTS]:
            problems.append("ablation report does not list the seven variants in order")
        blob = json.dumps(accs, sort_keys=True, separators=(",", ":")).encode()
        default = SearchGrids()
        per_repeat = sum(
            default.size() // len(default.ws) * (len(v.ws) if v.ws else len(default.ws))
            for v in VARIANTS
        )
        obs = {
            "configs": [],
            "test_acc": [a for _, row in accs for a in row],
            "sha256": {
                "ablation_accuracies": hashlib.sha256(blob).hexdigest(),
                "knn/processed_edges.csv": _sha256(
                    os.path.join(op_dir, "knn", "processed_edges.csv")
                ),
                "rewire/processed_edges.csv": _sha256(
                    os.path.join(op_dir, "rewire", "processed_edges.csv")
                ),
            },
            "configs_covered": per_repeat * REPEATS,
            "eval_nodes": _test_size(y) * REPEATS * len(VARIANTS),
        }
        return obs, problems
    raise ValueError(f"{workload.name} is not a CLI workload")


PINNED = ("configs", "test_acc", "sha256")


def check(obs, expected):
    """Mismatches between an observation and the pinned values it must equal."""
    return [
        f"{key}: got {obs[key]!r}, expected {expected[key]!r}"
        for key in PINNED
        if obs[key] != expected[key]
    ]
