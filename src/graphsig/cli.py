"""Command-line pipeline: run | ablate | prototype | fingerprint | paired.

Every verb reads plain files, writes only under --out, and is
deterministic for identical inputs.  A verb is a generator that yields
the name of each stage before running it.  ``main`` creates --out and
times each stage; once the verb returns, it writes the seconds to
``timing.json``, apart from the byte-reproducible results.  A failure
writes no timing but one ``graphsig <verb>: stage <stage>: <message>``
line on stderr, with exit status 2.  The thread count honored by the
BLAS backends comes from GRAPHSIG_NUM_THREADS, applied at package
import before numpy starts.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
import warnings
from types import SimpleNamespace

import numpy as np

from .atlas import dataset_fingerprint, emit_figure_data, node_atlas
from .conventions import PACKAGE_VERSION
from .dictionary import block_by_name
from .io import (
    RunConfig,
    config_hash,
    load_dataset,
    load_snapshot,
    report_meta,
    save_snapshot,
    write_csv,
    write_json,
)
from .graph import node_ids, save_edge_list
from .lab import (
    VARIANTS,
    ablation_table,
    compare_runs,
    degree_preserving_rewire,
    mutual_knn_densify,
    paired_stats,
    run_variants,
    variant_by_name,
)
from .scaffold import SearchGrids, SplitSpec, evaluate_repeats, summarize_repeats


def _ints(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _floats(text):
    return tuple(float(t) for t in text.split(",") if t.strip())


def _alpha_sets(text):
    return tuple(_floats(part) for part in text.split(";") if part.strip())


def _add_dataset_args(p, labels_required=True):
    p.add_argument("--edges", required=True, help="edge list file (src,dst per line)")
    p.add_argument("--features", required=True, help="feature CSV or packed binary")
    p.add_argument("--labels", required=labels_required, help="label file, one per node")
    p.add_argument("--name", default=None, help="dataset name used in reports")


# every flag default is the field default of SplitSpec or RunConfig
_SPLIT = SplitSpec()
_RUN = RunConfig()


def _add_split_args(p):
    p.add_argument("--split-mode", choices=("per-class", "fraction"), default=_SPLIT.mode)
    p.add_argument("--train-per-class", type=int, default=_SPLIT.train_per_class)
    p.add_argument("--val-per-class", type=int, default=_SPLIT.val_per_class)
    p.add_argument(
        "--fractions",
        type=_floats,
        default=(_SPLIT.train_frac, _SPLIT.val_frac, _SPLIT.test_frac),
        metavar="TR,VA,TE",
        help="train,val,test fractions for --split-mode fraction",
    )
    p.add_argument("--repeats", type=int, default=_RUN.repeats)
    p.add_argument("--seed", type=int, default=_SPLIT.seed, help="base seed; repeat i uses seed+i")


def _add_model_args(p):
    p.add_argument(
        "--blocks",
        default=",".join(_RUN.active_blocks),
        help="comma-separated active dictionary blocks",
    )
    # the grid flags keep their text; _grids parses it at stage configure
    p.add_argument("--grid-k", default=None, metavar="K1,K2,...")
    p.add_argument("--grid-rmax", default=None, metavar="R1,R2,...")
    p.add_argument("--grid-eta", default=None, metavar="E1,E2,...")
    p.add_argument(
        "--grid-alphas",
        default=None,
        metavar="A1,A2,A3;B1,B2,B3",
        help="semicolon-separated alpha sets",
    )
    p.add_argument("--grid-w", default=None, metavar="W1,W2,...")
    p.add_argument("--fisher-mode", choices=("train", "train+val"), default=_RUN.fisher_mode)


def _split_spec(args) -> SplitSpec:
    fr = args.fractions
    if len(fr) != 3:
        raise ValueError("--fractions needs exactly three values")
    return SplitSpec(
        mode=args.split_mode,
        train_per_class=args.train_per_class,
        val_per_class=args.val_per_class,
        train_frac=fr[0],
        val_frac=fr[1],
        test_frac=fr[2],
        seed=args.seed,
    )


def _grids(args) -> SearchGrids:
    """The grids the flags name; an omitted flag keeps the default axis,
    an empty one stays empty, for the search to reject, and a value that
    does not parse fails here, naming its flag."""
    flags = (
        ("ks", "--grid-k", args.grid_k, _ints),
        ("r_maxs", "--grid-rmax", args.grid_rmax, _ints),
        ("etas", "--grid-eta", args.grid_eta, _floats),
        ("alpha_sets", "--grid-alphas", args.grid_alphas, _alpha_sets),
        ("ws", "--grid-w", args.grid_w, _floats),
    )
    given = {}
    for axis, flag, text, parse in flags:
        if text is not None:
            try:
                given[axis] = parse(text)
            except ValueError as e:
                raise ValueError(f"{flag} {text!r}: {e}") from None
    return SearchGrids(**given)


def _resolve(text, lookup, kind):
    """The comma list ``text`` resolved name by name through ``lookup``,
    in the order given; an unknown name fails with the lookup's message,
    a name given twice fails, naming it, and a list that names nothing
    fails, naming its flag ``--<kind>s``."""
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise ValueError(f"--{kind}s {text!r} names no {kind}")
    resolved = []
    for i, name in enumerate(names):
        try:
            resolved.append(lookup(name))
        except KeyError as e:
            raise ValueError(e.args[0]) from None  # str(KeyError) would quote it
        if name in names[:i]:
            raise ValueError(f"{kind} {name!r} given twice")
    return resolved


def _run_config(args, name) -> RunConfig:
    return RunConfig(
        name=name,
        split=_split_spec(args),
        repeats=args.repeats,
        grids=_grids(args),
        active_blocks=tuple(b.name for b in _resolve(args.blocks, block_by_name, "block")),
        fisher_mode=args.fisher_mode,
        snapshots=getattr(args, "snapshots", _RUN.snapshots),
    )


def _write_atlas(bundle, scaffold, eval_idx, out_dir, meta, scores=None):
    """The atlas, the fingerprint and the figure files of one eval set;
    returns the fingerprint.  ``scores`` are the eval rows' scores when
    the caller already has them (see ``node_atlas``)."""
    atlas = node_atlas(scaffold, eval_idx, bundle.y, bundle.graph.degree, scores)
    fp = dataset_fingerprint(atlas, scaffold.subspaces)
    emit_figure_data(
        atlas,
        fp,
        out_dir,
        subspaces=scaffold.subspaces,
        dataset_name=bundle.name,
        split_mode=meta["split_mode"],
        meta=meta,
    )
    return fp


def cmd_run(args):
    out = args.out
    yield "load-dataset"
    bundle = load_dataset(args.edges, args.features, args.labels, name=args.name)
    yield "configure"
    config = _run_config(args, bundle.name)
    c_hash = config_hash(config)

    yield "evaluate"
    outcomes = evaluate_repeats(
        bundle.graph,
        bundle.X,
        bundle.y,
        config.split,
        n_repeats=config.repeats,
        grids=config.grids,
        active_blocks=config.active_blocks,
        fisher_mode=config.fisher_mode,
    )
    summary = summarize_repeats(outcomes)

    yield "atlas"
    meta = report_meta(c_hash, config.split.mode)
    for o in outcomes:
        rep_dir = os.path.join(out, f"repeat_{o.repeat:02d}")
        _write_atlas(
            bundle, o.scaffold, o.test, rep_dir, dict(meta, repeat=o.repeat), o.test_scores
        )
        want_snap = config.snapshots == "all" or (
            config.snapshots == "first" and o.repeat == 0
        )
        if want_snap:
            save_snapshot(
                os.path.join(rep_dir, "snapshot.json"),
                o.scaffold,
                extra={
                    "dataset": bundle.name,
                    "config_hash": c_hash,
                    "split_mode": config.split.mode,
                    "seed": o.seed,
                    "repeat": o.repeat,
                    "val_idx": o.val.tolist(),
                    "test_idx": o.test.tolist(),
                },
            )

    yield "report"
    results = {
        "dataset": {
            "name": bundle.name,
            "n": bundle.graph.n,
            "d": int(bundle.X.shape[1]),
            "edges": bundle.graph.n_edges,
            "n_classes": len(bundle.label_map),
            "labeled": int(np.sum(bundle.y >= 0)),
            "label_map": bundle.label_map,
        },
        "config": config.to_dict(),
        "config_hash": c_hash,
        "code_version": PACKAGE_VERSION,
        "accuracy_mean": summary["mean"],
        "accuracy_std": summary["std"],
        "repeats": [
            {
                "repeat": o.repeat,
                "seed": o.seed,
                "val_accuracy": o.val_accuracy,
                "test_accuracy": o.test_accuracy,
                "selected_config": o.config.to_dict(),
                "sizes": {
                    "train": int(o.train.size),
                    "val": int(o.val.size),
                    "test": int(o.test.size),
                },
            }
            for o in outcomes
        ],
    }
    write_json(os.path.join(out, "results.json"), results)
    print(
        f"run complete: mean accuracy {summary['mean']:.4f}"
        + (f" +- {summary['std']:.4f}" if summary["std"] is not None else "")
        + f" over {len(outcomes)} repeats -> {out}"
    )


def cmd_ablate(args):
    out = args.out
    yield "load-dataset"
    bundle = load_dataset(args.edges, args.features, args.labels, name=args.name)
    yield "configure"
    config = _run_config(args, bundle.name)
    wanted = VARIANTS
    if args.variants is not None:
        wanted = _resolve(args.variants, variant_by_name, "variant")
    names = {v.name for v in wanted}
    paired = "full" in names and len(names) > 1
    if paired and config.repeats < 2:
        raise ValueError(
            f"--repeats {config.repeats}: the paired comparison with 'full' "
            "needs at least 2 repeats"
        )

    yield "evaluate-variants"
    results = run_variants(
        bundle.graph,
        bundle.X,
        bundle.y,
        config.split,
        variants=wanted,
        n_repeats=config.repeats,
        grids=config.grids,
        fisher_mode=config.fisher_mode,
        keep_scaffolds=False,
    )
    table = ablation_table(results)

    yield "report"
    meta = report_meta(config_hash(config), config.split.mode)
    write_csv(
        os.path.join(out, "ablation_report.csv"),
        ["variant", *(f"acc_{i}" for i in range(config.repeats)), "mean", "std", "rank"],
        [[r["variant"], *r["accuracies"], r["mean"], r["std"], r["rank"]] for r in table],
        meta,
    )

    payload = {"meta": meta, "variants": table}
    if paired:
        payload["paired_vs_full"] = {
            name: dataclasses.asdict(compare_runs(res, results["full"]))
            for name, res in results.items()
            if name != "full"
        }
    write_json(os.path.join(out, "ablation_report.json"), payload)
    best = min(table, key=lambda r: r["rank"])
    print(
        f"ablation complete: {len(table)} variants, best {best['variant']} "
        f"(mean {best['mean']:.4f}) -> {out}"
    )


def cmd_prototype(args):
    yield "load-dataset"
    bundle = load_dataset(args.edges, args.features, args.labels, name=args.name)
    g = bundle.graph
    yield f"prototype-{args.method}"
    if args.method == "knn":
        g2, added = mutual_knn_densify(g, bundle.X, args.k)
        info = {
            "method": "mutual-cosine-knn",
            "parameters": {"k": args.k},
            "edges_before": g.n_edges,
            "edges_after": g2.n_edges,
            "edges_added": added,
        }
    else:
        g2, swap_info = degree_preserving_rewire(
            g, args.fraction, seed=args.proto_seed, fallback_dropout=args.fallback_dropout
        )
        info = {
            "method": swap_info["method"],
            "parameters": {
                "fraction": args.fraction,
                "fallback_dropout": args.fallback_dropout,
            },
            "seed": args.proto_seed,
            "edges_before": g.n_edges,
            "edges_after": g2.n_edges,
            "swaps": swap_info["swaps"],
            "target_swaps": swap_info["target"],
            "attempts": swap_info["attempts"],
        }
    yield "write"
    edge_path = os.path.join(args.out, "processed_edges.csv")
    save_edge_list(edge_path, g2.edges)
    write_json(
        os.path.join(args.out, "processed_edges.json"),
        dict(info, dataset=bundle.name, code_version=PACKAGE_VERSION),
    )
    print(
        f"prototype complete: {info['method']} "
        f"{info['edges_before']} -> {info['edges_after']} edges -> {edge_path}"
    )


def cmd_fingerprint(args):
    yield "load-dataset"
    bundle = load_dataset(args.edges, args.features, args.labels, name=args.name)
    yield "load-snapshot"
    scaffold, extra = load_snapshot(args.snapshot, bundle.graph, bundle.X)

    yield "select-eval-nodes"
    if args.eval_nodes:
        with warnings.catch_warnings():
            # an empty file is rejected below, in the one error line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                # ndmin=1 would read a one-line file of two ids as two ids
                rows = np.loadtxt(args.eval_nodes, dtype=np.int64, ndmin=2)
            except ValueError as e:
                raise ValueError(f"{args.eval_nodes}: {e}") from None
        # one id per line; any other shape is left for node_ids to reject
        eval_idx = rows[:, 0] if rows.shape[1] == 1 else rows
    else:
        key = {"train": None, "val": "val_idx", "test": "test_idx"}[args.eval]
        if key is None:
            eval_idx = scaffold.train_idx
        elif key in extra:
            eval_idx = np.asarray(extra[key])
        else:
            raise ValueError(f"snapshot lacks {key}; pass --eval-nodes with explicit ids")
    if eval_idx.size == 0:
        where = args.eval_nodes or f"the snapshot's {args.eval} split"
        raise ValueError(f"empty eval set: {where} holds no node ids")
    eval_idx = node_ids(eval_idx, bundle.graph.n, "eval", bundle.y)
    ids, counts = np.unique(eval_idx, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"eval node {ids[counts > 1][0]} listed more than once")

    yield "atlas"
    # the run that wrote the snapshot stamped its provenance into extra
    meta = report_meta(
        extra.get("config_hash", "unspecified"), extra.get("split_mode", "unspecified")
    )
    fp = _write_atlas(bundle, scaffold, eval_idx, args.out, meta)
    print(
        f"atlas complete: {fp.n_eval} nodes, accuracy {fp.accuracy:.4f}, "
        f"shares raw/low/high = {100 * fp.raw_share:.2f}/"
        f"{100 * fp.low_share:.2f}/{100 * fp.high_share:.2f} -> {args.out}"
    )


def _load_results(path):
    """A results.json and its repeats' test accuracies; every ValueError names ``path``."""
    try:
        with open(path) as fh:
            res = json.load(fh)
        if not isinstance(res, dict):
            raise ValueError("not a results object")
        if "repeats" not in res:
            raise ValueError("results lack 'repeats'")
        if type(res["repeats"]) is not list:
            raise ValueError(f"repeats must be a list, got {json.dumps(res['repeats'])}")
        run = []
        for i, r in enumerate(res["repeats"]):
            if not isinstance(r, dict) or "test_accuracy" not in r:
                raise ValueError(f"repeat {i} lacks 'test_accuracy'")
            acc = r["test_accuracy"]
            if type(acc) not in (int, float):  # a bool's type is bool, not int
                raise ValueError(
                    f"repeat {i} test_accuracy must be a number, got {json.dumps(acc)}"
                )
            run.append(SimpleNamespace(test_accuracy=acc))
    except ValueError as err:  # a malformed JSON text raises a ValueError too
        raise ValueError(f"{path}: {err}") from None
    return res, run


def cmd_paired(args):
    yield "load-results"
    if args.deltas is not None:
        result = paired_stats(args.deltas)
        inputs = {"deltas": list(args.deltas)}
    else:
        if not (args.a and args.b):
            raise ValueError("need --a and --b result files (or --deltas)")
        (ra, run_a), (rb, run_b) = _load_results(args.a), _load_results(args.b)
        yield "paired-stats"
        result = compare_runs(run_a, run_b)
        inputs = {
            "a": {"path": str(args.a), "config_hash": ra.get("config_hash")},
            "b": {"path": str(args.b), "config_hash": rb.get("config_hash")},
        }
    yield "report"
    write_json(
        os.path.join(args.out, "paired_report.json"),
        {
            "inputs": inputs,
            "code_version": PACKAGE_VERSION,
            "result": dataclasses.asdict(result),
        },
    )
    print(
        f"paired comparison: n={result.n} mean={result.mean:+.3f} pp, "
        f"t p={result.t_p:.4f}, Wilcoxon p={result.wilcoxon_p:.4f}, "
        f"sign p={result.sign_p:.4f} -> {args.out}"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphsig",
        description="White-box graph node classification from explicit signal dictionaries",
    )
    p.add_argument("--version", action="version", version=PACKAGE_VERSION)
    sub = p.add_subparsers(dest="verb", required=True)

    pr = sub.add_parser("run", help="grid search + repeated evaluation + atlas")
    _add_dataset_args(pr)
    _add_split_args(pr)
    _add_model_args(pr)
    pr.add_argument("--snapshots", choices=("none", "first", "all"), default=_RUN.snapshots)
    pr.add_argument("--out", required=True)
    pr.set_defaults(fn=cmd_run)

    pa = sub.add_parser("ablate", help="run the intervention variant suite")
    _add_dataset_args(pa)
    _add_split_args(pa)
    _add_model_args(pa)
    pa.add_argument("--variants", default=None, help="comma-separated variant names")
    pa.add_argument("--out", required=True)
    pa.set_defaults(fn=cmd_ablate)

    pp = sub.add_parser("prototype", help="emit a processed prototype edge list")
    _add_dataset_args(pp, labels_required=False)
    pp.add_argument("--method", choices=("knn", "rewire"), required=True)
    pp.add_argument("--k", type=int, default=10)
    pp.add_argument("--fraction", type=float, default=0.20)
    pp.add_argument("--fallback-dropout", type=float, default=0.15)
    pp.add_argument("--proto-seed", type=int, default=0)
    pp.add_argument("--out", required=True)
    pp.set_defaults(fn=cmd_prototype)

    pf = sub.add_parser("fingerprint", help="recompute atlas + fingerprint from a snapshot")
    _add_dataset_args(pf)
    pf.add_argument("--snapshot", required=True)
    pf.add_argument("--eval", choices=("train", "val", "test"), default="test")
    pf.add_argument("--eval-nodes", default=None, help="file of node ids, one per line")
    pf.add_argument("--out", required=True)
    pf.set_defaults(fn=cmd_fingerprint)

    pd = sub.add_parser("paired", help="paired statistics between two runs")
    pd.add_argument("--a", default=None, help="results.json of run A")
    pd.add_argument("--b", default=None, help="results.json of run B")
    pd.add_argument(
        "--deltas", type=_floats, default=None, help="explicit deltas (pp), as --deltas -1.5,0.5"
    )
    pd.add_argument("--out", required=True)
    pd.set_defaults(fn=cmd_paired)
    return p


def _glue_deltas(argv) -> list:
    """argv with '--deltas -1.5,0.5' joined into '--deltas=-1.5,0.5':
    argparse reads a value that starts with '-' as an option."""
    out = []
    for token in argv:
        if out and out[-1] == "--deltas" and token.startswith("-"):
            try:
                _floats(token)
            except ValueError:
                pass  # an option after all; argparse reports it
            else:
                out[-1] = f"--deltas={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_deltas(sys.argv[1:] if argv is None else argv))
    os.makedirs(args.out, exist_ok=True)
    stage = None
    marks = {}  # stage -> the clock when the verb yielded it
    start = time.perf_counter()
    try:
        for stage in args.fn(args):
            marks[stage] = time.perf_counter()
    except Exception as e:
        print(f"graphsig {args.verb}: stage {stage}: {e}", file=sys.stderr)
        return 2
    times = [*marks.values(), time.perf_counter()]
    seconds = {s: times[i + 1] - times[i] for i, s in enumerate(marks)}
    seconds["total"] = times[-1] - start
    # written outside write_json, whose sorted keys would lose the stage order
    with open(os.path.join(args.out, "timing.json"), "w", encoding="utf-8") as fh:
        json.dump({"verb": args.verb, "seconds": seconds}, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
