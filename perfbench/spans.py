"""Spans around the calls into graphsig's modules, recorded from outside.

``install`` replaces each listed public function with a wrapper at every
place in the ``graphsig`` package that binds the name (the defining
module, the package root, and every module that imported it, such as
``graphsig.cli.evaluate_repeats`` or ``graphsig.lab.evaluate_repeats``),
so calls between modules are seen without any change inside ``src/``.
A wrapper records a span (name, start, end, parent span, run id) plus a
few counters taken from the call's arguments and result.  Spans stay in
memory; ``layer_metrics`` turns them into per-op figures at the end.

Byte figures are computed from array shapes and file sizes, not
measured traffic, and are labelled so.
"""

import inspect
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

MIB = 2.0**20


def _sample_key(a):
    """Cheap identity of an array's contents: shape plus a strided sample."""
    a = np.asarray(a)
    flat = a.reshape(-1)
    step = max(1, flat.size // 256)
    return (a.shape, flat[::step].tobytes())


def _file_size(path):
    return os.path.getsize(path) if path and os.path.isfile(path) else 0


def _dir_state(path):
    if not os.path.isdir(path):
        return {}
    out = {}
    for entry in os.scandir(path):
        if entry.is_file():
            st = entry.stat()
            out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


# counters: (bound arguments, result) -> dict of numbers or hashable keys
def _build_graph(a, r):
    return {"edges_in": len(a["edge_list"]), "edges_kept": r.n_edges}


def _select_top_k(a, r):
    return {"k_eff": r.k_eff}


def _restrict(a, r):
    return {"gathered_mb": r[0].nbytes / MIB}


def _fit_class_subspaces(a, r):
    return {"input_key": (_sample_key(a["F_tr"]), _sample_key(a["y_tr"]))}


def _rows(arg):
    return lambda a, r: {"rows": a[arg].shape[0]}


def _fit_ridge(a, r):
    key = _sample_key(a["F_tr"])
    return {"alpha_keys": [(key, float(x)) for x in a["alphas"]]}


def _grid_search(a, r):
    from graphsig.scaffold import SearchGrids

    return {"configs": a.get("grids", SearchGrids()).size()}


def _node_atlas(a, r):
    return {"nodes": len(a["eval_idx"])}


def _knn(a, r):
    return {"edges_added": r[1]}


def _rewire(a, r):
    return {"swaps": r[1]["swaps"], "attempts": r[1]["attempts"]}


def _load_dataset(a, r):
    return {
        "bytes_read": sum(
            _file_size(a.get(k)) for k in ("edges_path", "features_path", "labels_path")
        )
    }


def _load_snapshot(a, r):
    return {"bytes_read": _file_size(a["path"])}


def _save_snapshot(a, r):
    return {"bytes": _file_size(a["path"])}


# (module, function, counter); span names are '<module>.<function>'
TARGETS = (
    ("graph", "load_edge_list", None),
    ("graph", "build_graph", _build_graph),
    ("graph", "propagate", None),
    ("dictionary", "build_dictionary", lambda a, r: {"F0_mb": r.F0.nbytes / MIB}),
    ("fisher", "fisher_scores", None),
    ("fisher", "select_top_k", _select_top_k),
    ("fisher", "restrict", _restrict),
    ("subspace", "fit_class_subspaces", _fit_class_subspaces),
    ("subspace", "pca_residuals", _rows("F")),
    ("ridge", "fit_ridge", _fit_ridge),
    ("ridge", "ridge_scores", _rows("F")),
    ("scaffold", "evaluate_repeats", None),
    ("scaffold", "grid_search", _grid_search),
    ("scaffold", "fit", None),
    ("scaffold", "predict", _rows("F_rows")),
    ("scaffold", "make_split", None),
    ("atlas", "node_atlas", _node_atlas),
    ("atlas", "dataset_fingerprint", None),
    ("atlas", "emit_figure_data", None),  # bytes come from the out_dir listing
    ("lab", "mutual_knn_densify", _knn),
    ("lab", "degree_preserving_rewire", _rewire),
    ("lab", "run_variant", None),
    ("lab", "compare_runs", None),
    ("io", "load_dataset", _load_dataset),
    ("io", "load_features", None),
    ("io", "load_labels", None),
    ("io", "save_snapshot", _save_snapshot),
    ("io", "load_snapshot", _load_snapshot),
    ("io", "write_json", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # dicts: id, parent, name, start, end, run, counters
        self._stack = []
        self.run = None

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "run": self.run,
            "counters": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, counter):
        sig = inspect.signature(fn)
        emits_files = name == "atlas.emit_figure_data"

        def wrapper(*args, **kwargs):
            if emits_files:
                out_dir = sig.bind(*args, **kwargs).arguments["out_dir"]
                before = _dir_state(out_dir)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["counters"] = counter(bound.arguments, result)
            if emits_files:
                after = _dir_state(out_dir)
                rec["counters"] = {
                    "bytes": sum(s for k, (s, m) in after.items() if before.get(k) != (s, m))
                }
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer: Tracer):
    """Wrap every TARGETS function wherever the graphsig package binds it."""
    import importlib

    importlib.import_module("graphsig.cli")  # pulls in every module that binds names
    modules = [m for n, m in sys.modules.items() if n == "graphsig" or n.startswith("graphsig.")]
    for mod_name, fn_name, counter in TARGETS:
        original = getattr(importlib.import_module(f"graphsig.{mod_name}"), fn_name)
        wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


# ------------------------------------------------------------------ metrics


def _self_times(spans):
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    # children of a single-threaded span run one after another inside it,
    # so the part of the span they cover is the sum of their durations
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


def _ancestor(spans_by_id, span, names):
    p = span["parent"]
    while p is not None:
        if spans_by_id[p]["name"] in names:
            return p
        p = spans_by_id[p]["parent"]
    return None


def layer_metrics(spans, n_ops, op_wall):
    """Per-op layer figures from the spans recorded inside ``n_ops`` ops.

    ``op_wall`` is the median traced op wall time.  Every figure is a
    total over the traced ops divided by ``n_ops``, except the ratios
    and ``dictionary.F0_mb`` (the widest dictionary built).
    """
    spans = [s for s in spans if s["run"] is not None]
    by_id = {s["id"]: s for s in spans}
    self_t = _self_times(spans)
    calls, busy, own, sums = {}, {}, {}, {}
    for s in spans:
        n = s["name"]
        calls[n] = calls.get(n, 0) + 1
        busy[n] = busy.get(n, 0.0) + s["end"] - s["start"]
        own[n] = own.get(n, 0.0) + self_t[s["id"]]
        for k, v in s["counters"].items():
            if isinstance(v, (int, float)):
                sums[f"{n}.{k}"] = sums.get(f"{n}.{k}", 0) + v

    def named(name):
        return [s for s in spans if s["name"] == name]

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    for n in busy:
        m[f"{n}.calls"] = calls[n] / n_ops
        m[f"{n}.s"] = busy[n] / n_ops
        m[f"{n}.self_s"] = own[n] / n_ops
    for key, total in sums.items():
        m[key] = total / n_ops

    m["graph.build_graph.kept_frac"] = frac(
        sums.get("graph.build_graph.edges_kept", 0), sums.get("graph.build_graph.edges_in", 0)
    )
    m["dictionary.F0_mb"] = max(
        (s["counters"]["F0_mb"] for s in named("dictionary.build_dictionary")), default=0.0
    )
    # distinct work is counted within one op, and K levels within one search
    # (the refit at the winning point repeats one of its selections)
    topk = named("fisher.select_top_k")
    m["fisher.k_eff_distinct_frac"] = frac(
        len({
            (s["run"], _ancestor(by_id, s, {"scaffold.grid_search"}), s["counters"]["k_eff"])
            for s in topk
        }),
        len(topk),
    )
    fits = named("subspace.fit_class_subspaces")
    m["subspace.fit_class_subspaces.distinct_input_frac"] = frac(
        len({(s["run"], s["counters"]["input_key"]) for s in fits}), len(fits)
    )
    solves = [(s["run"], k) for s in named("ridge.fit_ridge") for k in s["counters"]["alpha_keys"]]
    m["ridge.alpha_solves"] = len(solves) / n_ops
    m["ridge.alpha_solves_distinct_frac"] = frac(len(set(solves)), len(solves))
    m["scaffold.configs_scored"] = sums.get("scaffold.grid_search.configs", 0) / n_ops
    m["lab.rewire.swaps_per_attempt"] = frac(
        sums.get("lab.degree_preserving_rewire.swaps", 0),
        sums.get("lab.degree_preserving_rewire.attempts", 0),
    )
    m["io.bytes_read"] = (
        sums.get("io.load_dataset.bytes_read", 0) + sums.get("io.load_snapshot.bytes_read", 0)
    ) / n_ops
    top_atlas = [
        s for s in spans
        if s["name"].startswith("atlas.") and _ancestor(by_id, s, {
            "atlas.node_atlas", "atlas.dataset_fingerprint", "atlas.emit_figure_data"}) is None
    ]
    m["atlas.wall_share"] = frac(sum(s["end"] - s["start"] for s in top_atlas) / n_ops, op_wall)
    m["scaffold.grid_search.wall_share"] = frac(m.get("scaffold.grid_search.s", 0.0), op_wall)
    return m
