"""The node-id contract, entry point by entry point.

Every public function that reads rows or labels by node id checks the
ids through ``graph.node_ids``: they must be one-dimensional, integers
(a boolean mask is not a list of ids), each in [0, n), and where a label
is read, labeled, from a label vector with one entry per node.  Each bad
input fails with a ValueError that names the offending id, shape, dtype
or length.
"""

import functools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsig.atlas import node_atlas
from graphsig.cli import main
from graphsig.fisher import restrict
from graphsig.graph import node_ids, save_edge_list
from graphsig.io import load_snapshot, save_features_csv, save_labels, save_snapshot
from graphsig.scaffold import HyperConfig, SearchGrids, SplitSpec, fit, grid_search, make_split
from graphsig.scaffold import predict
from graphsig.synth import make_sbm_dataset

N = 60
UNLABELED = N - 1


@functools.lru_cache(maxsize=None)
def _fitted():
    g, X, y = make_sbm_dataset(
        n_per_class=20, n_classes=3, p_within=0.2, p_between=0.02, d=5, shift=2.0, seed=0,
    )
    y = y.copy()
    y[UNLABELED] = -1
    train, val, _ = make_split(y, SplitSpec(train_per_class=5, val_per_class=5))
    sc = fit(g, X, y, train, HyperConfig(k=10, r_max=2, eta=0.9, alphas=(1.0,), w=0.5))
    return g, X, y, train, val, sc


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    g, X, y, _, _, sc = _fitted()
    root = tmp_path_factory.mktemp("contract")
    paths = {k: str(root / name) for k, name in (
        ("edges", "edges.csv"), ("features", "features.csv"), ("labels", "labels.csv"),
        ("snapshot", "snapshot.json"), ("edited", "edited.json"), ("ids", "ids.txt"),
        ("out", "out"),
    )}
    save_edge_list(paths["edges"], g.edges)
    save_features_csv(paths["features"], X)
    save_labels(paths["labels"], y)
    save_snapshot(paths["snapshot"], sc)
    return paths


# entry point: (the prefix of its messages, the prefix of its label-length
# message or None where it reads no label vector, whether it reads labels,
# whether ids of any dtype reach it: the CLI parses its id file as integers)
ENTRY_POINTS = {
    "restrict": ("", None, False, True),
    "scaffold.rows": ("", None, False, True),
    "node_atlas": ("", "", True, True),
    "node_atlas with scores": ("", "", True, True),
    "grid_search train": ("train ", "train: ", True, True),
    "grid_search val": ("val ", "train: ", True, True),
    "grid_search Fisher": ("Fisher ", "train: ", True, True),
    "load_snapshot": ("{edited}: train_idx ", "{edited}: train_idx: ", True, True),
    "fingerprint --eval-nodes": ("eval ", None, True, False),
}


def _cases():
    for entry, (_, short, reads_labels, any_dtype) in ENTRY_POINTS.items():
        kinds = ["minus-one", "n", "two-dimensional"]
        kinds += ["bool-mask", "float-ids"] if any_dtype else []
        kinds += ["unlabeled"] if reads_labels else []
        kinds += ["short-labels"] if short is not None else []
        for kind in kinds:
            yield pytest.param(entry, kind, id=f"{entry}-{kind}")


def _entry_point(entry, files, capsys):
    """(the valid ids the entry point is given, a call on ids and labels)."""
    g, X, _, train, val, sc = _fitted()
    D = sc.dictionary
    point = SearchGrids((10,), (2,), (0.9,), ((1.0,),), (0.5,))

    def snapshot(ids, y):
        with open(files["snapshot"]) as fh:
            payload = json.load(fh)
        payload.update(train_idx=ids.tolist(), labels=y.tolist())
        with open(files["edited"], "w") as fh:
            json.dump(payload, fh)
        load_snapshot(files["edited"], g, X)

    def fingerprint(ids, y):
        np.savetxt(files["ids"], ids, fmt="%d")  # a 2-D array as rows of columns
        code = main([
            "fingerprint", "--edges", files["edges"], "--features", files["features"],
            "--labels", files["labels"], "--snapshot", files["snapshot"],
            "--eval-nodes", files["ids"], "--out", files["out"],
        ])
        err = capsys.readouterr().err
        assert code == 2
        stage = "graphsig fingerprint: stage select-eval-nodes: "
        assert err.startswith(stage) and err.endswith("\n")
        raise ValueError(err[len(stage):-1])

    scores = predict(sc, sc.rows(val))
    return {
        "restrict": (val, lambda ids, y: restrict(D, [0, 1], ids)),
        "scaffold.rows": (val, lambda ids, y: sc.rows(ids)),
        "node_atlas": (val, lambda ids, y: node_atlas(sc, ids, y, g.degree)),
        "node_atlas with scores": (val, lambda ids, y: node_atlas(sc, ids, y, g.degree, scores)),
        "grid_search train": (train, lambda ids, y: grid_search(D, y, ids, val, point)),
        "grid_search val": (val, lambda ids, y: grid_search(D, y, train, ids, point)),
        "grid_search Fisher": (
            np.sort(np.concatenate([train, val])),
            lambda ids, y: grid_search(D, y, train, val, point, ids),
        ),
        "load_snapshot": (train, snapshot),
        "fingerprint --eval-nodes": (val, fingerprint),
    }[entry]


@pytest.mark.parametrize("entry, kind", _cases())
def test_bad_node_ids_fail_naming_the_id_dtype_or_length(entry, kind, files, capsys):
    _, _, y, _, _, _ = _fitted()
    ids, call = _entry_point(entry, files, capsys)
    prefix, short, _, _ = ENTRY_POINTS[entry]
    prefix = re.escape(prefix.format(**files))
    bad, labels, message = {
        "bool-mask": (np.isin(np.arange(N), ids), y, "node ids must be integers, got dtype bool"),
        "float-ids": (ids.astype(np.float64), y, "node ids must be integers, got dtype float64"),
        "minus-one": (np.append(ids, -1), y, rf"node id -1 outside \[0, {N}\)"),
        "n": (np.append(ids, N), y, rf"node id {N} outside \[0, {N}\)"),
        "two-dimensional": (
            np.stack([ids, ids], axis=1), y,
            rf"node ids must be one-dimensional, got shape \({ids.size}, 2\)",
        ),
        "unlabeled": (np.append(ids, UNLABELED), y, f"node {UNLABELED} has no label"),
        "short-labels": (ids, y[:-1], None),
    }[kind]
    if kind == "short-labels":
        pattern = re.escape(short.format(**files)) + f"{N - 1} labels for a graph of {N} nodes"
    else:
        pattern = prefix + message
    with pytest.raises(ValueError, match=f"^{pattern}$"):
        call(bad, labels)


def test_an_empty_id_list_reads_no_rows():
    sc = _fitted()[-1]
    assert sc.rows([]).shape == (0, sc.selection.k_eff)
    assert node_ids([], N).dtype == np.int64


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.integers(0, N - 1), max_size=12),
    cols=st.lists(st.integers(0, 44), max_size=6),
    kind=st.sampled_from(["list", "int32", "int64", "uint64"]),
)
def test_valid_ids_of_any_integer_type_read_the_same_nodes(rows, cols, kind):
    D = _fitted()[-1].dictionary
    ids = rows if kind == "list" else np.array(rows, dtype=kind)
    got = node_ids(ids, N)
    assert got.dtype == np.int64
    assert got.tolist() == rows
    want = D.F0[np.ix_(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))]
    assert np.array_equal(restrict(D, cols, ids)[0], want)
