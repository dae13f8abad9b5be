import collections
import csv
import dataclasses
import filecmp
import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsig
from graphsig import lab, scaffold
from graphsig.cli import _run_config, build_parser, main
from graphsig.dictionary import BLOCK_NAMES, build_dictionary
from graphsig.graph import load_edge_list, save_edge_list
from graphsig.io import (
    RunConfig,
    config_hash,
    jsonable,
    load_dataset,
    load_features,
    load_labels,
    load_snapshot,
    save_features_binary,
    save_features_csv,
    save_labels,
    save_snapshot,
    write_csv,
)
from graphsig.scaffold import (
    HyperConfig,
    SearchGrids,
    SplitSpec,
    fit,
    grid_search,
    make_split,
    predict,
)
from graphsig.synth import make_sbm_dataset


# ------------------------------------------------------------------- features


def test_feature_csv_round_trip(tmp_path):
    X = np.random.default_rng(0).standard_normal((7, 4))
    path = str(tmp_path / "x.csv")
    save_features_csv(path, X)
    back = load_features(path)
    assert back.shape == X.shape
    assert np.allclose(back, X, rtol=1e-9)


def test_feature_binary_round_trip(tmp_path):
    X = np.random.default_rng(1).standard_normal((5, 3))
    path = str(tmp_path / "x.bin")
    save_features_binary(path, X)
    back = load_features(path)
    assert np.array_equal(back, X.astype(np.float32).astype(np.float64))


def test_feature_binary_errors(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"GSF1" + b"\x00" * 16 + b"junk")
    with pytest.raises(ValueError, match="payload"):
        save = str(tmp_path / "ok.bin")
        save_features_binary(save, np.ones((2, 2)))
        data = (tmp_path / "ok.bin").read_bytes()
        (tmp_path / "trunc.bin").write_bytes(data[:-4])
        load_features(str(tmp_path / "trunc.bin"))
    wrong = tmp_path / "wrong.bin"
    wrong.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(ValueError):  # sniffed as CSV, fails to parse
        load_features(str(wrong))


def test_feature_binary_is_read_through_one_open(tmp_path, monkeypatch):
    path = str(tmp_path / "x.bin")
    save_features_binary(path, np.arange(6.0).reshape(3, 2))
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(graphsig.io, "open", counting_open, raising=False)
    assert np.array_equal(load_features(path), np.arange(6.0).reshape(3, 2))
    assert opened == [path]


def test_feature_binary_writer_rejects_a_matrix_that_is_not_2d(tmp_path):
    path = tmp_path / "x.bin"
    with pytest.raises(ValueError, match="^feature matrix must be 2-D$"):
        save_features_binary(str(path), np.ones(3))
    assert not path.exists()


def test_feature_csv_skips_blank_lines_between_rows(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("f0,f1\n1,2\n\n3,4\n  \n5,6\n\n")
    assert np.array_equal(load_features(str(p)), [[1, 2], [3, 4], [5, 6]])
    # line numbers count the skipped lines
    p.write_text("1,2\n\n3,x\n")
    with pytest.raises(ValueError, match=r"x\.csv:3: non-numeric"):
        load_features(str(p))


def test_feature_csv_line_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("f0,f1\n1,2\n3\n")
    with pytest.raises(ValueError, match=r"x\.csv:3: expected 2 columns"):
        load_features(str(p))
    p.write_text("f0,f1\n1,2\n3,abc\n")
    with pytest.raises(ValueError, match=r"x\.csv:3: non-numeric"):
        load_features(str(p))
    p.write_text("")
    with pytest.raises(ValueError, match="header"):
        load_features(str(p))


def test_features_must_be_finite(tmp_path):
    p = tmp_path / "x.csv"
    for bad in ("nan", "inf", "-Infinity"):
        p.write_text(f"f0,f1\n1,2\n3,{bad}\n")
        with pytest.raises(ValueError, match=r"x\.csv:3: non-finite feature value"):
            load_features(str(p))
    p.write_text("nan,1\n2,3\n")  # a first line of numbers is a row, not a header
    with pytest.raises(ValueError, match=r"x\.csv:1: non-finite"):
        load_features(str(p))
    X = np.ones((3, 4))
    X[2, 1] = -np.inf
    path = str(tmp_path / "x.bin")
    save_features_binary(path, X)
    with pytest.raises(ValueError, match=r"x\.bin: non-finite feature value at row 2, column 1"):
        load_features(path)


def test_feature_csv_without_header_keeps_first_row(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n3,4\n5,6\n")
    assert np.array_equal(load_features(str(p)), [[1, 2], [3, 4], [5, 6]])
    # a first line with any number in it is a row, so a typo there is an
    # error, not a header that drops node 0
    p.write_text("1.0,abc\n2.0,3.0\n4.0,5.0\n")
    with pytest.raises(ValueError) as err:
        load_features(str(p))
    assert str(err.value) == f"{p}:1: non-numeric feature value in '1.0,abc'"


# --------------------------------------------------------------------- labels


def test_labels_numeric_remap(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("5\n7\n5\n")
    y, label_map = load_labels(str(p), 3)
    assert np.array_equal(y, [0, 1, 0])
    assert label_map == {"5": 0, "7": 1}
    # numeric sort, not lexicographic: 10 comes after 9
    p.write_text("10\n9\n10\n")
    y2, m2 = load_labels(str(p), 3)
    assert m2 == {"9": 0, "10": 1}
    assert np.array_equal(y2, [1, 0, 1])


def test_labels_strings_and_unlabeled(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("label\nb\na\n-\n\nb\n")
    y, label_map = load_labels(str(p), 5)
    assert label_map == {"a": 0, "b": 1}
    assert np.array_equal(y, [1, 0, -1, -1, 1])
    with pytest.raises(ValueError, match="label rows 5 != feature rows 4"):
        load_labels(str(p), 4)


def test_labels_save_round_trip(tmp_path):
    p = str(tmp_path / "y.csv")
    y = np.array([0, 1, -1, 2])
    save_labels(p, y)
    with open(p, "rb") as fh:
        assert fh.read() == b"label\n0\n1\n-\n2\n"
    back, label_map = load_labels(p, 4)
    assert np.array_equal(back, y)
    assert label_map == {"0": 0, "1": 1, "2": 2}


# ---------------------------------------------------------------- round trips

FINITE = st.floats(-1e30, 1e30, allow_nan=False)  # float32 holds them finite
NOT_A_NUMBER = st.text("abcxyz_", min_size=1)  # no digit, "nan" or "inf"
FEATURE_MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(
        st.lists(FINITE, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0],
    ).map(np.array)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    edges=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=20),
    X=FEATURE_MATRICES,
    y=st.lists(st.integers(-1, 12), min_size=1, max_size=20).map(np.array),
)
def test_input_files_round_trip(edges, X, y):
    with tempfile.TemporaryDirectory() as tmp:
        path = functools.partial(os.path.join, tmp)
        save_edge_list(path("e.csv"), edges)
        assert load_edge_list(path("e.csv")) == edges
        save_features_binary(path("x.bin"), X)
        want = X.astype(np.float32).astype(np.float64)  # the loader widens float32 rows
        assert load_features(path("x.bin")).tobytes() == want.tobytes()
        # the CSV keeps %.10g of each value, with its header or without it
        rounded = np.array([[float(f"{v:.10g}") for v in row] for row in X.tolist()])
        save_features_csv(path("x.csv"), X)
        with open(path("x.csv")) as fh:
            header, *rows = fh.readlines()
        assert header == ",".join(f"f{j}" for j in range(X.shape[1])) + "\n"
        with open(path("bare.csv"), "w") as fh:
            fh.writelines(rows)
        assert load_features(path("x.csv")).tobytes() == rounded.tobytes()
        assert load_features(path("bare.csv")).tobytes() == rounded.tobytes()
        save_labels(path("y.csv"), y)
        back, label_map = load_labels(path("y.csv"), y.size)
        classes = np.unique(y[y >= 0])
        assert np.array_equal(back, np.where(y >= 0, np.searchsorted(classes, y), -1))
        assert label_map == {str(c): i for i, c in enumerate(classes.tolist())}


# a first line holding at least one number and at least one other field
MIXED_LINES = st.tuples(
    st.lists(FINITE.map("{:.10g}".format), min_size=1, max_size=3),
    st.lists(NOT_A_NUMBER, min_size=1, max_size=3),
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(MIXED_LINES)
def test_feature_csv_first_line_mixing_numbers_and_text_fails_at_line_1(first):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        with open(path, "w") as fh:
            fh.write(",".join(first) + "\n" + ",".join(["0"] * len(first)) + "\n")
        with pytest.raises(ValueError) as err:
            load_features(path)
        assert str(err.value).startswith(f"{path}:1: non-numeric feature value in ")


# -------------------------------------------------------------------- dataset


def write_dataset(dirpath, g, X, y):
    e = os.path.join(dirpath, "edges.csv")
    f = os.path.join(dirpath, "features.csv")
    l = os.path.join(dirpath, "labels.csv")
    save_edge_list(e, g.edges)
    save_features_csv(f, X)
    save_labels(l, y)
    return e, f, l


@pytest.fixture(scope="module")
def disk_dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("data"))
    g, X, y = make_sbm_dataset(
        n_per_class=25, n_classes=2, p_within=0.3, p_between=0.02,
        d=5, shift=4.0, seed=0,
    )
    e, f, l = write_dataset(root, g, X, y)
    return {"edges": e, "features": f, "labels": l, "g": g, "X": X, "y": y}


def test_load_dataset_bundle(disk_dataset, capsys):
    d = disk_dataset
    bundle = load_dataset(d["edges"], d["features"], d["labels"])
    out = capsys.readouterr().out
    assert "features: n=50 d=5" in out
    assert bundle.graph.n == 50
    assert np.array_equal(bundle.y, d["y"])
    assert np.allclose(bundle.X, d["X"], rtol=1e-9)
    assert np.array_equal(bundle.graph.edges, d["g"].edges)
    assert bundle.name == "features"  # default from the file stem
    no_labels = load_dataset(d["edges"], d["features"], None, name="anon", quiet=True)
    assert np.all(no_labels.y == -1)
    assert no_labels.name == "anon"


def test_load_dataset_edge_range_error(tmp_path, disk_dataset):
    bad = tmp_path / "edges.csv"
    bad.write_text("src,dst\n0,1\n0,99\n")
    with pytest.raises(ValueError, match=r"edges\.csv:3: node id outside"):
        load_dataset(str(bad), disk_dataset["features"], disk_dataset["labels"], quiet=True)


# --------------------------------------------------------------------- config


def test_config_hash_stability():
    a = RunConfig(name="x", split=SplitSpec(seed=1))
    b = RunConfig(name="x", split=SplitSpec(seed=1))
    c = RunConfig(name="x", split=SplitSpec(seed=2))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16


def listed_run_config(c):
    """``RunConfig.to_dict`` as first written, field by field."""
    return {
        "name": c.name,
        "split": dataclasses.asdict(c.split),
        "repeats": c.repeats,
        "grids": dataclasses.asdict(c.grids),
        "active_blocks": list(c.active_blocks),
        "fisher_mode": c.fisher_mode,
        "snapshots": c.snapshots,
        "conventions": {"std_mode": "population", "epsilon": 1e-12},
    }


def changed(value):
    if isinstance(value, str):
        return value + "-changed"
    if isinstance(value, tuple):
        return value[:-1] if len(value) > 1 else value * 2
    return value / 2 if isinstance(value, float) else value + 1


def one_field_changes(config):
    """``config`` with one field changed, for every field and every field
    of a nested config."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            for inner in one_field_changes(value):
                yield dataclasses.replace(config, **{f.name: inner})
        else:
            yield dataclasses.replace(config, **{f.name: changed(value)})


NON_DEFAULT_RUN = RunConfig(
    name="cora",
    split=SplitSpec("fraction", 5, 7, 0.5, 0.25, 0.25, seed=3, repeat=2),
    repeats=3,
    grids=SearchGrids((10, 20), (2,), (0.5,), ((0.1,), (1.0, 2.0)), (0.25,)),
    active_blocks=("X", "PsymX"),
    fisher_mode="train+val",
    snapshots="all",
)


@pytest.mark.parametrize("config", [RunConfig(), NON_DEFAULT_RUN], ids=["default", "non-default"])
def test_run_config_dict_and_hash_are_the_hand_listed_ones(config):
    want = json.dumps(listed_run_config(config), sort_keys=True, separators=(",", ":"))
    assert json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")) == want
    assert config_hash(config) == hashlib.sha256(want.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("base", [RunConfig(), NON_DEFAULT_RUN], ids=["default", "non-default"])
def test_config_hash_covers_every_run_config_field(base):
    variants = list(one_field_changes(base))
    # 5 plain fields, 8 split fields and 5 grid axes
    assert len(variants) == 18
    assert len({config_hash(c) for c in [base, *variants]}) == 1 + len(variants)
    # a field added to RunConfig reaches the hash with no second edit
    wider = dataclasses.make_dataclass(
        "WiderRunConfig", [("extra", int, 0)], bases=(RunConfig,), frozen=True
    )
    assert wider().to_dict()["extra"] == 0
    assert config_hash(wider(extra=1)) != config_hash(wider())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.builds(
        HyperConfig,
        k=st.integers(1, 10**5),
        r_max=st.integers(0, 500),
        eta=st.floats(0, 1),
        alphas=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=4).map(tuple),
        w=st.floats(0, 1),
        active_blocks=st.lists(st.sampled_from(BLOCK_NAMES), min_size=1, unique=True).map(tuple),
    )
)
def test_hyper_config_round_trips_through_its_dict(config):
    d = config.to_dict()
    assert HyperConfig.from_dict(d) == config
    # the snapshot's config object, as first written field by field
    assert d == {
        "k": config.k,
        "r_max": config.r_max,
        "eta": config.eta,
        "alphas": list(config.alphas),
        "w": config.w,
        "active_blocks": list(config.active_blocks),
    }
    assert list(d) == ["k", "r_max", "eta", "alphas", "w", "active_blocks"]


def test_jsonable_handles_special_values():
    out = jsonable(
        {
            "nan": float("nan"),
            "inf": float("inf"),
            "ninf": float("-inf"),
            "np_int": np.int64(3),
            "np_arr": np.array([1.5, 2.5]),
            "np_f32": np.float32(1.5),
            "np_f32_nan": np.float32("nan"),
            "np_f32_ninf": np.float32("-inf"),
        }
    )
    assert out["nan"] == "nan"
    assert out["inf"] == "inf"
    assert out["ninf"] == "-inf"
    assert out["np_int"] == 3
    assert out["np_arr"] == [1.5, 2.5]
    assert out["np_f32"] == 1.5 and type(out["np_f32"]) is float
    assert out["np_f32_nan"] == "nan"
    assert out["np_f32_ninf"] == "-inf"
    json.dumps(out)  # strictly serializable


def cell_by_cell_csv(path, header, rows, meta=None):
    """write_csv as it was: each cell through its own formatting call."""

    def cell(v):
        if isinstance(v, float):
            return f"{v:.10g}" if math.isfinite(v) else ""
        return v

    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([cell(v) for v in row] for row in rows)


SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 123456789012.5)
CSV_CELLS = {
    "float": st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
    "np.float64": st.floats().map(np.float64),
    "int": st.integers(-(10**12), 10**12),
    "none": st.none(),
    "bool": st.booleans(),
    "text": st.text(",\"ab 1", max_size=4),
}
COLUMN_KINDS = [("float",), ("np.float64",), ("float", "none"), ("float", "np.float64", "none"),
                ("int",), ("int", "none"), ("float", "int"), ("text",), tuple(CSV_CELLS)]


@st.composite
def csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 12))
    columns = [
        draw(st.lists(st.one_of(*(CSV_CELLS[k] for k in kind)), min_size=n_rows, max_size=n_rows))
        for kind in kinds
    ]
    return [f"c{j}" for j in range(len(kinds))], [list(row) for row in zip(*columns)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(csv_tables(), st.booleans())
def test_write_csv_equals_the_cell_by_cell_writer(table, with_meta):
    header, rows = table
    meta = {"b": "x", "a": 1} if with_meta else None
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write_csv(got, header, iter(rows), meta)
        cell_by_cell_csv(want, header, rows, meta)
        assert filecmp.cmp(got, want, shallow=False)


def test_write_csv_special_values(tmp_path):
    path = tmp_path / "special.csv"
    rows = [[-0.0, 7, None, 0.1], [math.nan, -3, None, None], [math.inf, 10**12, "x", -math.inf]]
    write_csv(path, ["f", "i", "m", "g"], rows)
    assert path.read_text() == "f,i,m,g\n-0,7,,0.1\n,-3,,\n,1000000000000,x,\n"
    with pytest.raises(ValueError, match=r"row 1 has 3 fields, the header 4"):
        write_csv(path, ["f", "i", "m", "g"], [rows[0], rows[1][:3]])


# ------------------------------------------------------------------ snapshots


def test_snapshot_round_trip(tmp_path, disk_dataset):
    g, X, y = disk_dataset["g"], disk_dataset["X"], disk_dataset["y"]
    train, val, test = make_split(y, SplitSpec(train_per_class=8, val_per_class=5))
    sc = fit(g, X, y, train, HyperConfig(k=25, r_max=3, eta=0.95, alphas=(0.1, 1.0), w=0.6))
    path = str(tmp_path / "snap.json")
    save_snapshot(path, sc, extra={"val_idx": val.tolist(), "test_idx": test.tolist()})
    loaded = load_snapshot(path, g, X)[0]
    assert loaded.config == sc.config
    assert np.array_equal(loaded.selection.selected, sc.selection.selected)
    assert np.array_equal(loaded.classes, sc.classes)
    assert np.array_equal(loaded.train_idx, sc.train_idx)
    yhat_a, S_a, _, _ = predict(sc, sc.rows(np.arange(g.n)))
    yhat_b, S_b, _, _ = predict(loaded, loaded.rows(np.arange(g.n)))
    assert np.array_equal(yhat_a, yhat_b)
    # the refit is bit for bit (test_snapshot_refit_is_the_saved_scaffold)
    assert np.allclose(S_a, S_b, rtol=1e-12, atol=1e-12)


def test_snapshot_extra_comes_back_on_the_scaffold(tmp_path, disk_dataset):
    g, X, y = disk_dataset["g"], disk_dataset["X"], disk_dataset["y"]
    train, _, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=5))
    sc = fit(g, X, y, train, HyperConfig(k=10, r_max=2, eta=0.9, alphas=(1.0,), w=0.5))
    extra = {"config_hash": "abc", "val_idx": [1, 2]}
    save_snapshot(str(tmp_path / "a.json"), sc, extra=extra)
    save_snapshot(str(tmp_path / "b.json"), sc)
    assert load_snapshot(str(tmp_path / "a.json"), g, X)[1] == extra
    assert load_snapshot(str(tmp_path / "b.json"), g, X)[1] == {}


def test_snapshot_zero_rank_class(tmp_path):
    # a constant-feature class on an edgeless graph (nothing to propagate)
    # comes back r=0
    from graphsig.graph import build_graph

    g = build_graph(20, np.zeros((0, 2), dtype=np.int64))
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 3)) + 2.0
    y = np.repeat([0, 1], 10)
    X[y == 1] = [1.0, 2.0, 3.0]
    train = np.arange(20)
    sc = fit(g, X, y, train, HyperConfig(
        k=3, r_max=3, eta=0.95, alphas=(1.0,), w=0.5, active_blocks=("X",),
    ))
    assert sc.subspaces[1].r == 0
    path = str(tmp_path / "snap.json")
    save_snapshot(path, sc)
    loaded = load_snapshot(path, g, X)[0]
    assert loaded.subspaces[1].r == 0
    assert loaded.subspaces[1].basis.shape == (sc.selection.k_eff, 0)
    a = predict(sc, sc.rows(np.arange(g.n)))[1]
    b = predict(loaded, loaded.rows(np.arange(g.n)))[1]
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_snapshot_rejects_bad_files(tmp_path, disk_dataset):
    p = tmp_path / "notsnap.json"
    p.write_text(json.dumps({"kind": "other"}))
    with pytest.raises(ValueError, match="not a scaffold snapshot"):
        load_snapshot(str(p), disk_dataset["g"], disk_dataset["X"])
    p.write_text(json.dumps({"kind": "fitted-scaffold", "format_version": 999}))
    with pytest.raises(ValueError, match="newer"):
        load_snapshot(str(p), disk_dataset["g"], disk_dataset["X"])


def assert_same_fields(a, b):
    """Equal field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_fields(x, y)
    elif sp.issparse(a):  # a CSR operator: its shape and its three arrays
        assert a.shape == b.shape
        assert_same_fields((a.indptr, a.indices, a.data), (b.indptr, b.indices, b.data))
    else:
        assert a == b


def searched_scaffold(fisher_mode):
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=3, p_within=0.12, p_between=0.05,
        d=5, shift=0.8, seed=7,
    )
    train, val, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=10, seed=7))
    fisher_idx = train if fisher_mode == "train" else np.sort(np.concatenate([train, val]))
    grids = SearchGrids(
        ks=(10, 30), r_maxs=(2, 5), etas=(0.9, 0.99),
        alpha_sets=((0.1,), (1.0, 10.0)), ws=(0.3, 0.5, 0.7),
    )
    config, sc, _ = grid_search(
        build_dictionary(g, X), y, train, val, grids=grids, fisher_idx=fisher_idx
    )
    points = list(itertools.product(*dataclasses.astuple(grids)))
    at = points.index((config.k, config.r_max, config.eta, config.alphas, config.w))
    assert 0 < at < len(points) - 1  # neither the first nor the last point
    return g, X, sc


def zero_rank_scaffold():
    # a constant-feature class on an edgeless graph (nothing to propagate)
    from graphsig.graph import build_graph

    g = build_graph(20, np.zeros((0, 2), dtype=np.int64))
    X = np.random.default_rng(3).standard_normal((20, 3)) + 2.0
    y = np.repeat([0, 1], 10)
    X[y == 1] = [1.0, 2.0, 3.0]
    sc = fit(g, X, y, np.arange(20), HyperConfig(
        k=3, r_max=3, eta=0.95, alphas=(1.0,), w=0.5, active_blocks=("X",),
    ))
    assert sc.subspaces[1].r == 0
    return g, X, sc


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: searched_scaffold("train"), id="search-fisher-train"),
        pytest.param(lambda: searched_scaffold("train+val"), id="search-fisher-train+val"),
        pytest.param(zero_rank_scaffold, id="zero-rank-class"),
    ],
)
def test_snapshot_refit_is_the_saved_scaffold(make, tmp_path):
    g, X, sc = make()
    path = str(tmp_path / "snap.json")
    save_snapshot(path, sc)
    loaded = load_snapshot(path, g, X)[0]
    assert_same_fields(loaded, sc)
    for a, b in zip(
        predict(loaded, loaded.rows(np.arange(g.n))),
        predict(sc, sc.rows(np.arange(g.n))),
        strict=True,
    ):
        assert np.array_equal(a, b)


def test_snapshot_stores_no_unread_label(tmp_path):
    g, X, sc = searched_scaffold("train")
    path = str(tmp_path / "snap.json")
    save_snapshot(path, sc)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["format_version"] == 2
    labels = np.asarray(payload["labels"])
    assert np.flatnonzero(labels >= 0).tolist() == sorted(payload["train_idx"])
    assert not {"subspaces", "ridge", "selected", "sigma_pca"} & payload.keys()


@functools.cache
def block_order_dataset():
    g, X, y = make_sbm_dataset(
        n_per_class=20, n_classes=2, p_within=0.15, p_between=0.03,
        d=4, shift=1.0, seed=11,
    )
    return (g, X, y, *make_split(y, SplitSpec(train_per_class=8, val_per_class=6, seed=11)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(BLOCK_NAMES), min_size=1, max_size=12))
def test_config_names_the_dictionary_it_was_fit_on(blocks):
    # any order, duplicates included: the config names the fitted blocks in
    # canonical order, so a snapshot refits on the dictionary that was used
    g, X, y, train, val, test = block_order_dataset()
    sc = fit(g, X, y, train, HyperConfig(
        k=12, r_max=3, eta=0.95, alphas=(0.1, 1.0), w=0.5, active_blocks=tuple(blocks),
    ))
    assert sc.config.active_blocks == tuple(b.name for b in sc.dictionary.active)
    dictionary = build_dictionary(g, X, blocks)
    grids = SearchGrids(ks=(6, 12), r_maxs=(2,), etas=(0.95,), alpha_sets=((1.0,),), ws=(0.3, 0.7))
    config, searched, _ = grid_search(dictionary, y, train, val, grids=grids)
    assert config.active_blocks == tuple(b.name for b in dictionary.active)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snap.json")
        save_snapshot(path, searched)
        loaded = load_snapshot(path, g, X)[0]
    for a, b in zip(
        predict(searched, searched.rows(test)), predict(loaded, loaded.rows(test)), strict=True
    ):
        assert np.array_equal(a, b)


# ------------------------------------------------------------------------ CLI


FAST_MODEL = [
    "--grid-k", "20", "--grid-rmax", "3", "--grid-eta", "0.95",
    "--grid-alphas", "1.0", "--grid-w", "0.5",
]


def run_cli(disk, out, extra=()):
    argv = [
        "run",
        "--edges", disk["edges"], "--features", disk["features"],
        "--labels", disk["labels"], "--out", out,
        "--repeats", "2", "--train-per-class", "8", "--val-per-class", "5",
        "--seed", "0",
    ] + FAST_MODEL + list(extra)
    return main(argv)


@pytest.fixture(scope="module")
def run_out(disk_dataset, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("run"))
    assert run_cli(disk_dataset, out) == 0
    return out


def test_cli_run_outputs(run_out, disk_dataset):
    with open(os.path.join(run_out, "results.json")) as fh:
        results = json.load(fh)
    assert results["dataset"]["n"] == 50
    assert results["config_hash"]
    assert len(results["repeats"]) == 2
    accs = [r["test_accuracy"] for r in results["repeats"]]
    assert results["accuracy_mean"] == pytest.approx(np.mean(accs))
    assert results["accuracy_std"] == pytest.approx(np.std(accs, ddof=1))
    assert results["accuracy_mean"] >= 0.9  # well-separated toy dataset
    for rep in ("repeat_00", "repeat_01"):
        for name in ("atlas.csv", "fingerprint.json", "simplex.csv"):
            assert os.path.exists(os.path.join(run_out, rep, name))
    # default snapshot policy keeps only the first repeat
    assert os.path.exists(os.path.join(run_out, "repeat_00", "snapshot.json"))
    assert not os.path.exists(os.path.join(run_out, "repeat_01", "snapshot.json"))
    assert os.path.exists(os.path.join(run_out, "timing.json"))
    with open(os.path.join(run_out, "repeat_00", "fingerprint.json")) as fh:
        fp = json.load(fh)
    assert fp["meta"]["config_hash"] == results["config_hash"]
    assert fp["n_eval"] == results["repeats"][0]["sizes"]["test"]


def test_cli_run_byte_deterministic(run_out, disk_dataset, tmp_path):
    out2 = str(tmp_path / "again")
    assert run_cli(disk_dataset, out2) == 0
    for rel in (
        "results.json",
        os.path.join("repeat_00", "atlas.csv"),
        os.path.join("repeat_00", "fingerprint.json"),
        os.path.join("repeat_00", "snapshot.json"),
    ):
        assert filecmp.cmp(
            os.path.join(run_out, rel), os.path.join(out2, rel), shallow=False
        ), rel


def test_cli_fingerprint_matches_run(run_out, disk_dataset, tmp_path):
    out = str(tmp_path / "fp")
    code = main([
        "fingerprint",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"],
        "--snapshot", os.path.join(run_out, "repeat_00", "snapshot.json"),
        "--eval", "test", "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "fingerprint.json")) as fh:
        got = json.load(fh)
    with open(os.path.join(run_out, "repeat_00", "fingerprint.json")) as fh:
        want = json.load(fh)
    for key in ("R_D", "L_D", "H_D", "C_D", "Q_ridge", "Q_hard", "delta_H",
                "quadrants", "n_eval", "accuracy", "per_block_means"):
        assert got[key] == want[key], key


@pytest.mark.parametrize("fisher_mode", ["train", "train+val"])
def test_cli_fraction_split_snapshot_refits_the_run(fisher_mode, tmp_path):
    # 600 nodes with d = 16: a 144-wide dictionary under 360 train rows;
    # train+val is the one mode whose Fisher rows are not the train rows
    g, X, y = make_sbm_dataset(n_per_class=200, n_classes=3, d=16, seed=0)
    data = write_dataset(str(tmp_path), g, X, y)
    dataset = ["--edges", data[0], "--features", data[1], "--labels", data[2]]
    run, refit = str(tmp_path / "run"), str(tmp_path / "refit")
    assert main([
        "run", *dataset, "--split-mode", "fraction", "--fractions", "0.6,0.2,0.2",
        "--repeats", "2", "--fisher-mode", fisher_mode, "--out", run, *FAST_MODEL,
    ]) == 0
    assert os.path.getsize(os.path.join(run, "results.json")) > 0
    snap = os.path.join(run, "repeat_00", "snapshot.json")
    assert main(["fingerprint", *dataset, "--snapshot", snap, "--out", refit]) == 0

    def rows(out):
        with open(os.path.join(out, "atlas.csv")) as fh:
            meta, *rest = fh.read().splitlines()
        assert meta.startswith("#"), meta
        return rest

    def fingerprint(out):
        with open(os.path.join(out, "fingerprint.json")) as fh:
            fp = json.load(fh)
        del fp["meta"]
        return fp

    rep = os.path.join(run, "repeat_00")
    assert rows(refit) == rows(rep)
    assert fingerprint(refit) == fingerprint(rep)


def test_cli_atlas_eval_nodes_override(run_out, disk_dataset, tmp_path):
    nodes = tmp_path / "nodes.txt"
    nodes.write_text("0\n1\n2\n")
    out = str(tmp_path / "atlas")
    code = main([
        "fingerprint",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"],
        "--snapshot", os.path.join(run_out, "repeat_00", "snapshot.json"),
        "--eval-nodes", str(nodes), "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "fingerprint.json")) as fh:
        assert json.load(fh)["n_eval"] == 3


def test_cli_eval_train_reads_the_snapshot_train_rows(run_out, disk_dataset, tmp_path):
    snap = os.path.join(run_out, "repeat_00", "snapshot.json")
    with open(snap) as fh:
        train_idx = json.load(fh)["train_idx"]
    ids = tmp_path / "train.txt"
    ids.write_text("".join(f"{i}\n" for i in train_idx))
    outs = []
    for flag, value in (("--eval", "train"), ("--eval-nodes", str(ids))):
        out = str(tmp_path / flag.strip("-"))
        assert main([
            "fingerprint",
            "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
            "--labels", disk_dataset["labels"],
            "--snapshot", snap, flag, value, "--out", out,
        ]) == 0
        outs.append(out)
    with open(os.path.join(outs[0], "fingerprint.json")) as fh:
        assert json.load(fh)["n_eval"] == len(train_idx)
    for name in ("atlas.csv", "fingerprint.json"):
        assert filecmp.cmp(
            os.path.join(outs[0], name), os.path.join(outs[1], name), shallow=False
        ), name


def test_cli_atlas_missing_split_info(disk_dataset, tmp_path, capsys):
    g, X, y = disk_dataset["g"], disk_dataset["X"], disk_dataset["y"]
    train, _, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=5))
    sc = fit(g, X, y, train, HyperConfig(k=10, r_max=2, eta=0.9, alphas=(1.0,), w=0.5))
    snap = str(tmp_path / "bare.json")
    save_snapshot(snap, sc)  # no extra: no recorded val/test indices
    code = main([
        "fingerprint",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"],
        "--snapshot", snap, "--eval", "val", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "snapshot lacks val_idx" in err


def test_cli_ablate(disk_dataset, tmp_path):
    out = str(tmp_path / "ablate")
    code = main([
        "ablate",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"], "--out", out,
        "--repeats", "2", "--train-per-class", "8", "--val-per-class", "5",
        "--variants", "full,raw_only,ridge_only",
    ] + FAST_MODEL)
    assert code == 0
    with open(os.path.join(out, "ablation_report.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0].startswith("# ")
    assert lines[1] == "variant,acc_0,acc_1,mean,std,rank"
    assert len(lines) == 5  # comment + header + three variants
    names = [ln.split(",")[0] for ln in lines[2:]]
    assert names == ["full", "raw_only", "ridge_only"]
    with open(os.path.join(out, "ablation_report.json")) as fh:
        payload = json.load(fh)
    assert set(payload["paired_vs_full"]) == {"raw_only", "ridge_only"}
    assert payload["paired_vs_full"]["raw_only"]["result" if False else "n"] == 2


def test_cli_ablate_draws_once_builds_once_and_searches_once_per_block_subset(
    disk_dataset, tmp_path, monkeypatch
):
    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (lab, "build_dictionary"),
        (scaffold, "build_dictionary"),
        (scaffold, "make_split"),
        (lab, "grid_searches"),
        (scaffold, "grid_search"),
        (scaffold, "fisher_scores"),  # once per search
    ):
        count(module, name)
    code = main([
        "ablate",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"], "--out", str(tmp_path / "ablate"),
        "--repeats", "3", "--train-per-class", "8", "--val-per-class", "5",
    ] + FAST_MODEL)
    assert code == 0
    # seven variants on five block subsets: full, pca_only and ridge_only share one
    assert calls == {"build_dictionary": 1, "make_split": 3, "grid_searches": 15, "fisher_scores": 15}


def _csv_columns(path):
    with open(path, newline="") as fh:
        fh.readline()  # the meta line
        header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows)))


def test_cli_report_csvs_are_lf_and_phase_columns_match_atlas(run_out, disk_dataset, tmp_path):
    ablate_out = str(tmp_path / "ablate")
    code = main([
        "ablate",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"], "--out", ablate_out,
        "--repeats", "2", "--train-per-class", "8", "--val-per-class", "5",
        "--variants", "full,raw_only",
    ] + FAST_MODEL)
    assert code == 0
    paths = [
        os.path.join(d, f)
        for top in (run_out, ablate_out)
        for d, _, files in os.walk(top)
        for f in files
        if f.endswith(".csv")
    ]
    assert len(paths) == 2 * 7 + 1  # seven per repeat, one ablation report
    for path in paths:
        with open(path, "rb") as fh:
            assert b"\r" not in fh.read(), path
    for rep in ("repeat_00", "repeat_01"):
        atlas = _csv_columns(os.path.join(run_out, rep, "atlas.csv"))
        for name in ("signal_phase.csv", "decision_phase.csv"):
            phase = _csv_columns(os.path.join(run_out, rep, name))
            assert len(phase) == 4
            for header, column in phase.items():
                assert column == atlas[header], (rep, name, header)


def test_cli_prototype_knn(disk_dataset, tmp_path):
    out = str(tmp_path / "proto")
    code = main([
        "prototype",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--method", "knn", "--k", "3", "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "processed_edges.json")) as fh:
        info = json.load(fh)
    assert info["method"] == "mutual-cosine-knn"
    assert info["edges_after"] >= info["edges_before"]
    assert info["edges_added"] == info["edges_after"] - info["edges_before"]
    # the produced edge list loads back against the same features
    bundle = load_dataset(
        os.path.join(out, "processed_edges.csv"), disk_dataset["features"],
        quiet=True,
    )
    assert bundle.graph.n_edges == info["edges_after"]


def test_cli_prototype_rewire(disk_dataset, tmp_path):
    out = str(tmp_path / "rw")
    code = main([
        "prototype",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--method", "rewire", "--fraction", "0.2", "--proto-seed", "7", "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "processed_edges.json")) as fh:
        info = json.load(fh)
    assert info["method"] in ("rewire", "dropout")
    if info["method"] == "rewire":
        assert info["edges_after"] == info["edges_before"]
        assert info["swaps"] == info["target_swaps"]


def test_cli_paired(run_out, disk_dataset, tmp_path):
    out_b = str(tmp_path / "runb")
    assert run_cli(disk_dataset, out_b, extra=["--seed", "5"]) == 0
    out = str(tmp_path / "paired")
    code = main([
        "paired",
        "--a", os.path.join(run_out, "results.json"),
        "--b", os.path.join(out_b, "results.json"),
        "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "paired_report.json")) as fh:
        payload = json.load(fh)
    assert payload["result"]["n"] == 2
    assert payload["inputs"]["a"]["config_hash"]
    out2 = str(tmp_path / "paired2")
    code = main(["paired", "--deltas", "1.0,2.0,3.0", "--out", out2])
    assert code == 0
    with open(os.path.join(out2, "paired_report.json")) as fh:
        assert json.load(fh)["result"]["mean"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param([{"test_accuracy": 0.5}], "not a results object", id="json-list"),
        pytest.param({"config_hash": "abc"}, "results lack 'repeats'", id="no-repeats"),
        pytest.param(
            {"repeats": [{"seed": 0}]}, "repeat 0 lacks 'test_accuracy'", id="no-test-accuracy"
        ),
        pytest.param(
            {"repeats": [{"test_accuracy": True}, {"test_accuracy": 0.5}]},
            "repeat 0 test_accuracy must be a number, got true",
            id="boolean-test-accuracy",
        ),
        pytest.param(
            {"repeats": [{"test_accuracy": 0.8}, {"test_accuracy": "0.5"}]},
            'repeat 1 test_accuracy must be a number, got "0.5"',
            id="string-test-accuracy",
        ),
        pytest.param(
            {"repeats": [{"test_accuracy": None}, {"test_accuracy": 0.5}]},
            "repeat 0 test_accuracy must be a number, got null",
            id="null-test-accuracy",
        ),
    ],
)
def test_cli_paired_names_a_malformed_results_file(payload, message, run_out, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    good = os.path.join(run_out, "results.json")
    code = main(["paired", "--a", good, "--b", str(bad), "--out", str(tmp_path / "paired")])
    assert code == 2
    assert capsys.readouterr().err == f"graphsig paired: stage load-results: {bad}: {message}\n"


def test_cli_paired_negative_first_delta(tmp_path):
    out = str(tmp_path / "paired")
    assert main(["paired", "--deltas=-1.5,0.5,2.0", "--out", out]) == 0
    with open(os.path.join(out, "paired_report.json")) as fh:
        payload = json.load(fh)
    assert payload["inputs"]["deltas"] == [-1.5, 0.5, 2.0]
    assert payload["result"]["mean"] == pytest.approx(1.0 / 3.0)


def test_cli_paired_negative_first_delta_as_its_own_token(tmp_path):
    # argparse alone reads '-1.5,0.5,2.0' as an option and exits
    glued, spaced = str(tmp_path / "glued"), str(tmp_path / "spaced")
    assert main(["paired", "--deltas=-1.5,0.5,2.0", "--out", glued]) == 0
    assert main(["paired", "--deltas", "-1.5,0.5,2.0", "--out", spaced]) == 0
    assert filecmp.cmp(
        os.path.join(glued, "paired_report.json"),
        os.path.join(spaced, "paired_report.json"),
        shallow=False,
    )
    with pytest.raises(SystemExit):  # an option after --deltas stays an option
        main(["paired", "--deltas", "--out", spaced])


def test_cli_error_paths(disk_dataset, tmp_path, capsys):
    out = str(tmp_path / "e")
    code = main([
        "run", "--edges", "/nonexistent/edges.csv",
        "--features", disk_dataset["features"], "--labels", disk_dataset["labels"],
        "--out", out, "--repeats", "1",
    ])
    assert code == 2
    assert "stage load-dataset" in capsys.readouterr().err
    code = main([
        "run", "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"], "--out", out,
        "--blocks", "X,Bogus",
    ])
    assert code == 2
    assert "unknown block" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bare_snapshot(disk_dataset, tmp_path_factory):
    g, X, y = disk_dataset["g"], disk_dataset["X"], disk_dataset["y"]
    train, _, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=5))
    sc = fit(g, X, y, train, HyperConfig(k=10, r_max=2, eta=0.9, alphas=(1.0,), w=0.5))
    path = str(tmp_path_factory.mktemp("snap") / "bare.json")
    save_snapshot(path, sc)  # no extra: no recorded val/test indices
    return path


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda s: dict(s, format_version=1), "older than supported 2: re-run `graphsig run`"),
        (lambda s: dict(s, labels=s["labels"][:-1]), "49 labels for a graph of 50 nodes"),
        (
            lambda s: dict(s, labels=[-1 if i in s["train_idx"] else v
                                      for i, v in enumerate(s["labels"])]),
            "train_idx node .* has no label",
        ),
        (lambda s: dict(s, fisher_idx=[-1]), r"fisher_idx node id -1 outside \[0, 50\)"),
        (lambda s: dict(s, n_coordinates=7), "dictionary has 45 coordinates"),
        (lambda s: [s], r"bad\.json: not a scaffold snapshot$"),
        (lambda s: {k: v for k, v in s.items() if k != "config"},
         r"bad\.json: snapshot lacks 'config'$"),
        (lambda s: {k: v for k, v in s.items() if k != "fisher_idx"},
         r"bad\.json: snapshot lacks 'fisher_idx'$"),
        (lambda s: dict(s, config={k: v for k, v in s["config"].items() if k != "alphas"}),
         r"bad\.json: snapshot lacks 'alphas'$"),
        (lambda s: dict(s, labels=[v + 0.7 for v in s["labels"]]),
         r"bad\.json: labels must be integers, got dtype float64$"),
        (lambda s: dict(s, config=[1, 2]), r"bad\.json: config must be an object, got list$"),
        (lambda s: dict(s, config=dict(s["config"], active_blocks=["X", "Bogus"])),
         r"bad\.json: unknown block 'Bogus'; known: X, ProwX, "),
        (lambda s: dict(s, config=dict(s["config"], r_max=True)),
         r"bad\.json: config r_max must be an integer, got true$"),
        (lambda s: dict(s, config=dict(s["config"], k=10.7)),
         r"bad\.json: config k must be an integer, got 10\.7$"),
        (lambda s: dict(s, config=dict(s["config"], eta=False)),
         r"bad\.json: config eta must be a number, got false$"),
        (lambda s: dict(s, config=dict(s["config"], w="0.5")),
         r'bad\.json: config w must be a number, got "0\.5"$'),
        (lambda s: dict(s, config=dict(s["config"], alphas="abc")),
         r'bad\.json: config alphas must be a list of numbers, got "abc"$'),
        (lambda s: dict(s, config=dict(s["config"], alphas=[1.0, True])),
         r"bad\.json: config alphas must be a list of numbers, got \[1\.0, true\]$"),
        (lambda s: dict(s, config=dict(s["config"], active_blocks="ProwX")),
         r'bad\.json: config active_blocks must be a list of strings, got "ProwX"$'),
        # an edit that returns text is written as it is
        (lambda s: json.dumps(s)[:20], r"bad\.json: Unterminated string starting at"),
        (lambda s: dict(s, format_version=None),
         r"bad\.json: format_version must be an integer, got null$"),
        (lambda s: dict(s, format_version=True),
         r"bad\.json: format_version must be an integer, got true$"),
        (lambda s: dict(s, labels=[[v] for v in s["labels"]]),
         r"bad\.json: labels must be a flat list, one class id per node$"),
        (lambda s: dict(s, labels=[[v] * (i % 2 + 1) for i, v in enumerate(s["labels"])]),
         r"bad\.json: labels must be a flat list, one class id per node$"),
        (lambda s: dict(s, n_coordinates="abc"),
         r'bad\.json: n_coordinates must be an integer, got "abc"$'),
        (lambda s: dict(s, extra=5), r"bad\.json: extra must be an object, got int$"),
        (lambda s: dict(s, extra=[1, 2]), r"bad\.json: extra must be an object, got list$"),
        (lambda s: dict(s, fisher_idx=[[i] for i in s["fisher_idx"]]),
         r"bad\.json: fisher_idx node ids must be one-dimensional, got shape \(16, 1\)$"),
    ],
    ids=["v1", "labels-length", "unlabeled-train-row", "negative-fisher-row", "width",
         "not-an-object", "no-config", "no-fisher-rows", "no-config-alphas",
         "non-integer-labels", "config-not-an-object", "unknown-block", "boolean-r-max",
         "fractional-k", "boolean-eta", "string-w", "string-alphas", "boolean-alpha",
         "string-active-blocks", "truncated-json", "null-format-version",
         "boolean-format-version", "nested-labels", "ragged-labels", "string-width",
         "number-extra", "list-extra", "two-dimensional-fisher-rows"],
)
def test_snapshot_rejects_inputs_that_do_not_fit(edit, match, bare_snapshot, disk_dataset, tmp_path):
    with open(bare_snapshot) as fh:
        payload = edit(json.load(fh))
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    with pytest.raises(ValueError, match=match):
        load_snapshot(str(path), disk_dataset["g"], disk_dataset["X"])


def test_snapshot_width_is_checked_before_the_refit(
    bare_snapshot, disk_dataset, tmp_path, monkeypatch
):
    def no_fit(*args, **kwargs):
        raise AssertionError("refit ran before the width check")

    monkeypatch.setattr(graphsig.io, "fit", no_fit)
    with open(bare_snapshot) as fh:
        payload = dict(json.load(fh), n_coordinates=7)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"bad\.json: dictionary has 45 coordinates, snapshot "
                                         r"was built over 7$"):
        load_snapshot(str(path), disk_dataset["g"], disk_dataset["X"])


DATA = ["--edges", "{edges}", "--features", "{features}", "--labels", "{labels}"]


@pytest.mark.parametrize(
    "argv, stage",
    [
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{missing}", "--labels", "{labels}"],
            "load-dataset",
            id="missing-features",
        ),
        pytest.param(["run", *DATA, "--blocks", "X,Bogus"], "configure", id="unknown-block"),
        pytest.param(["run", *DATA, "--blocks", "X,X,ProwX"], "configure", id="block-given-twice"),
        pytest.param(
            ["run", *DATA, "--split-mode", "fraction", "--fractions", "0.5,0.5"],
            "configure",
            id="two-fractions",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{bare}", "--eval", "val"],
            "select-eval-nodes",
            id="snapshot-without-val",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{bare}", "--eval-nodes", "{bad_ids}"],
            "select-eval-nodes",
            id="eval-node-outside-graph",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{bare}", "--eval-nodes", "{empty_ids}"],
            "select-eval-nodes",
            id="empty-eval-nodes-file",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{empty_val}", "--eval", "val"],
            "select-eval-nodes",
            id="snapshot-with-empty-val",
        ),
        pytest.param(
            ["fingerprint", "--edges", "{edges}", "--features", "{features}",
             "--labels", "{holey_labels}", "--snapshot", "{bare}", "--eval-nodes", "{eval_ids}"],
            "select-eval-nodes",
            id="unlabeled-eval-node",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{v1}"], "load-snapshot", id="snapshot-v1"
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{short_labels}"],
            "load-snapshot",
            id="snapshot-labels-length",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{unlabeled_train}"],
            "load-snapshot",
            id="snapshot-unlabeled-train-row",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{outside_train}"],
            "load-snapshot",
            id="snapshot-train-row-outside-graph",
        ),
        pytest.param(
            ["prototype", "--edges", "{edges}", "--features", "{nan_csv}", "--method", "knn"],
            "load-dataset",
            id="nan-feature-csv",
        ),
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{inf_bin}", "--labels", "{labels}"],
            "load-dataset",
            id="inf-feature-gsf1",
        ),
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{typo_csv}", "--labels", "{labels}"],
            "load-dataset",
            id="headerless-feature-csv-with-a-typo-in-node-0",
        ),
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{no_column_bin}", "--labels", "{labels}"],
            "load-dataset",
            id="zero-column-gsf1",
        ),
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{short_bin}", "--labels", "{labels}"],
            "load-dataset",
            id="short-gsf1-header",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{bare}", "--eval-nodes", "{repeated_ids}"],
            "select-eval-nodes",
            id="eval-node-listed-twice",
        ),
        pytest.param(["paired"], "load-results", id="paired-without-inputs"),
        pytest.param(["run", *DATA, "--repeats", "0"], "evaluate", id="zero-repeats"),
        pytest.param(
            ["run", *DATA, "--train-per-class", "8", "--val-per-class", "5", "--repeats", "1",
             "--grid-w", "1.5,-2"],
            "evaluate",
            id="fusion-weight-outside-unit-interval",
        ),
        pytest.param(
            ["run", *DATA, "--train-per-class", "8", "--val-per-class", "5", "--repeats", "1",
             "--grid-k", ""],
            "evaluate",
            id="empty-grid-axis",
        ),
        pytest.param(
            ["run", *DATA, "--train-per-class", "8", "--val-per-class", "5", "--repeats", "1",
             "--grid-alphas", ""],
            "evaluate",
            id="empty-alpha-grid",
        ),
        pytest.param(["run", *DATA, "--grid-k", "4000,x"], "configure", id="malformed-grid-k"),
        pytest.param(["run", *DATA, "--grid-eta", "abc"], "configure", id="malformed-grid-eta"),
        pytest.param(
            ["run", *DATA, "--split-mode", "fraction", "--fractions", "0.6,0.2,0.1"],
            "configure",
            id="run-fractions-sum-below-one",
        ),
        pytest.param(
            ["ablate", *DATA, "--split-mode", "fraction", "--fractions", "0.6,0.2,0.1"],
            "configure",
            id="ablate-fractions-sum-below-one",
        ),
        # the default 20 train / 30 val request leaves 25-member classes no test node
        pytest.param(["run", *DATA, "--repeats", "1"], "evaluate", id="split-without-test"),
        pytest.param(
            ["ablate", *DATA, "--repeats", "1", "--variants", "full,raw_only"],
            "configure",
            id="ablate-one-repeat-paired",
        ),
        pytest.param(
            ["ablate", *DATA, "--variants", "full,nosuch"], "configure", id="unknown-variant"
        ),
        pytest.param(
            ["ablate", *DATA, "--variants", "full,full,raw_only"],
            "configure",
            id="variant-given-twice",
        ),
    ],
)
def test_cli_error_line(argv, stage, disk_dataset, bare_snapshot, tmp_path, capsys):
    bad_ids = tmp_path / "bad_ids.txt"
    bad_ids.write_text("-1\n3\n")  # -1 would wrap around to the last node
    (tmp_path / "empty_ids.txt").write_text("")
    with open(bare_snapshot) as fh:
        snapshot = json.load(fh)
    (tmp_path / "empty_val.json").write_text(json.dumps(dict(snapshot, extra={"val_idx": []})))
    labels, train = snapshot["labels"], snapshot["train_idx"]
    unlabeled = [-1 if i == train[0] else v for i, v in enumerate(labels)]
    broken = dict(
        v1=dict(snapshot, format_version=1),
        short_labels=dict(snapshot, labels=labels[:-1]),
        unlabeled_train=dict(snapshot, labels=unlabeled),
        outside_train=dict(snapshot, train_idx=train + [len(labels)]),
    )
    for key, payload in broken.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(payload))
    with open(disk_dataset["features"]) as fh:
        lines = fh.read().splitlines()
    lines[4] = "nan," + lines[4].split(",", 1)[1]  # float("nan") parses
    (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
    # no header, and node 0's last value mistyped: line 1 is a row, not a header
    typo = [lines[1].rsplit(",", 1)[0] + ",0.5x", *lines[2:]]
    (tmp_path / "typo.csv").write_text("\n".join(typo) + "\n")
    # the labels file leaves one eval node, never a train row, unlabeled
    outside = [i for i in range(len(labels)) if i not in train]
    holey = [("-" if i == outside[1] else str(v)) for i, v in enumerate(disk_dataset["y"])]
    (tmp_path / "holey_labels.csv").write_text("label\n" + "\n".join(holey) + "\n")
    (tmp_path / "eval_ids.txt").write_text(f"{outside[0]}\n{outside[1]}\n")
    X = disk_dataset["X"].copy()
    X[3, 1] = np.inf
    save_features_binary(str(tmp_path / "inf.bin"), X)
    save_features_binary(str(tmp_path / "no_column.bin"), np.zeros((X.shape[0], 0)))
    (tmp_path / "repeated_ids.txt").write_text("0\n0\n0\n5\n")
    (tmp_path / "short.bin").write_bytes(b"GSF1\x01\x00")  # 6 of the header's 20 bytes
    paths = dict(
        disk_dataset, missing=str(tmp_path / "missing.csv"), bare=bare_snapshot,
        bad_ids=str(bad_ids), empty_ids=str(tmp_path / "empty_ids.txt"),
        empty_val=str(tmp_path / "empty_val.json"), nan_csv=str(tmp_path / "nan.csv"),
        typo_csv=str(tmp_path / "typo.csv"),
        inf_bin=str(tmp_path / "inf.bin"), holey_labels=str(tmp_path / "holey_labels.csv"),
        eval_ids=str(tmp_path / "eval_ids.txt"), no_column_bin=str(tmp_path / "no_column.bin"),
        repeated_ids=str(tmp_path / "repeated_ids.txt"), short_bin=str(tmp_path / "short.bin"),
        **{key: str(tmp_path / f"{key}.json") for key in broken},
    )
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([a.format(**paths) for a in argv] + ["--out", str(out)])
    assert [str(w.message) for w in caught] == []  # the error line says it all
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"graphsig {argv[0]}: stage {stage}: ")
    assert os.listdir(out) == []  # failed before writing any report


KNOWN_BLOCKS = "known: X, ProwX, Prow2X, Prow3X, X-ProwX, ProwX-Prow2X, PsymX, Psym2X, X-PsymX"
KNOWN_VARIANTS = "known: full, raw_only, no_high_pass, no_p3x, no_sym, pca_only, ridge_only"


@pytest.mark.parametrize(
    "argv, line",
    [
        pytest.param(
            ["run", *DATA, "--blocks", "X,Bogus"],
            f"graphsig run: stage configure: unknown block 'Bogus'; {KNOWN_BLOCKS}",
            id="unknown-block",
        ),
        pytest.param(
            ["ablate", *DATA, "--variants", "full,nosuch"],
            f"graphsig ablate: stage configure: unknown variant 'nosuch'; {KNOWN_VARIANTS}",
            id="unknown-variant",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{snapshot}"],
            "graphsig fingerprint: stage load-snapshot: {snapshot}: unknown block 'Bogus'; "
            + KNOWN_BLOCKS,
            id="snapshot-unknown-block",
        ),
        pytest.param(
            ["run", *DATA, "--blocks", "X,X,ProwX"],
            "graphsig run: stage configure: block 'X' given twice",
            id="block-given-twice",
        ),
        pytest.param(
            ["ablate", *DATA, "--variants", "full,full,raw_only"],
            "graphsig ablate: stage configure: variant 'full' given twice",
            id="variant-given-twice",
        ),
        pytest.param(
            ["run", *DATA, "--blocks", ","],
            "graphsig run: stage configure: --blocks ',' names no block",
            id="blocks-name-nothing",
        ),
        pytest.param(
            ["ablate", *DATA, "--variants", " , "],
            "graphsig ablate: stage configure: --variants ' , ' names no variant",
            id="variants-name-nothing",
        ),
        pytest.param(
            ["ablate", *DATA, "--variants", ""],
            "graphsig ablate: stage configure: --variants '' names no variant",
            id="variants-empty",
        ),
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{short_bin}", "--labels", "{labels}"],
            "graphsig run: stage load-dataset: {short_bin}: GSF1 header holds 6 of its 20 bytes",
            id="short-gsf1-header",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{bare}", "--eval-nodes", "{comma_ids}"],
            "graphsig fingerprint: stage select-eval-nodes: {comma_ids}: could not convert "
            "string '60,61' to int64 at row 0, column 1.",
            id="comma-separated-eval-nodes",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{bare}", "--eval-nodes", "{pair_ids}"],
            "graphsig fingerprint: stage select-eval-nodes: eval node ids must be "
            "one-dimensional, got shape (1, 2)",
            id="one-line-of-two-eval-nodes",
        ),
        pytest.param(
            ["run", "--edges", "{edges}", "--features", "{features}", "--labels", "{short_labels}"],
            "graphsig run: stage load-dataset: {short_labels}: label rows 49 != feature rows 50",
            id="label-file-one-row-short",
        ),
        pytest.param(
            ["paired", "--a", "{not_json}", "--b", "{results}"],
            "graphsig paired: stage load-results: {not_json}: Expecting value: line 1 column 1 "
            "(char 0)",
            id="paired-a-not-json",
        ),
        pytest.param(
            ["paired", "--a", "{results}", "--b", "{int_repeats}"],
            "graphsig paired: stage load-results: {int_repeats}: repeats must be a list, got 5",
            id="paired-b-repeats-not-a-list",
        ),
    ],
)
def test_cli_name_error_line(argv, line, disk_dataset, bare_snapshot, tmp_path, capsys):
    with open(bare_snapshot) as fh:
        snapshot = json.load(fh)
    snapshot["config"]["active_blocks"] = ["X", "Bogus"]
    (tmp_path / "bogus.json").write_text(json.dumps(snapshot))
    (tmp_path / "short.bin").write_bytes(b"GSF1\x01\x00")
    (tmp_path / "comma_ids.txt").write_text("60,61\n")  # one id per line, not a comma list
    (tmp_path / "pair_ids.txt").write_text("3 5\n")  # not the ids 3 and 5
    with open(disk_dataset["labels"]) as fh:
        (tmp_path / "short_labels.csv").write_text("".join(fh.readlines()[:-1]))
    (tmp_path / "not_json.json").write_text("repeats: 5\n")
    (tmp_path / "int_repeats.json").write_text(json.dumps({"repeats": 5}))
    (tmp_path / "results.json").write_text(
        json.dumps({"repeats": [{"test_accuracy": 0.5}, {"test_accuracy": 0.7}]})
    )
    paths = dict(
        disk_dataset, snapshot=str(tmp_path / "bogus.json"), bare=bare_snapshot,
        short_bin=str(tmp_path / "short.bin"), comma_ids=str(tmp_path / "comma_ids.txt"),
        pair_ids=str(tmp_path / "pair_ids.txt"), short_labels=str(tmp_path / "short_labels.csv"),
        not_json=str(tmp_path / "not_json.json"), int_repeats=str(tmp_path / "int_repeats.json"),
        results=str(tmp_path / "results.json"),
    )
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == line.format(**paths) + "\n"
    assert os.listdir(out) == []


FIT = ["--repeats", "2", "--train-per-class", "8", "--val-per-class", "5", *FAST_MODEL]
PROTOTYPE = ["prototype", "--edges", "{edges}", "--features", "{features}", "--method"]


@pytest.mark.parametrize(
    "argv, stages",
    [
        pytest.param(
            ["run", *DATA, *FIT], ("load-dataset", "configure", "evaluate", "atlas", "report"),
            id="run",
        ),
        pytest.param(
            ["ablate", *DATA, *FIT, "--variants", "full,raw_only"],
            ("load-dataset", "configure", "evaluate-variants", "report"),
            id="ablate",
        ),
        pytest.param(
            [*PROTOTYPE, "knn", "--k", "3"], ("load-dataset", "prototype-knn", "write"),
            id="prototype-knn",
        ),
        pytest.param(
            [*PROTOTYPE, "rewire"], ("load-dataset", "prototype-rewire", "write"),
            id="prototype-rewire",
        ),
        pytest.param(
            ["fingerprint", *DATA, "--snapshot", "{snapshot}"],
            ("load-dataset", "load-snapshot", "select-eval-nodes", "atlas"),
            id="fingerprint",
        ),
        pytest.param(
            ["paired", "--a", "{results}", "--b", "{results}"],
            ("load-results", "paired-stats", "report"),
            id="paired-runs",
        ),
        pytest.param(
            ["paired", "--deltas", "1,2,-0.5"], ("load-results", "report"), id="paired-deltas"
        ),
    ],
)
def test_cli_timing_json(argv, stages, run_out, disk_dataset, tmp_path):
    paths = dict(
        disk_dataset,
        snapshot=os.path.join(run_out, "repeat_00", "snapshot.json"),
        results=os.path.join(run_out, "results.json"),
    )
    out = str(tmp_path / "out")
    assert main([a.format(**paths) for a in argv] + ["--out", out]) == 0
    with open(os.path.join(out, "timing.json")) as fh:
        timing = json.load(fh)
    assert timing["verb"] == argv[0]
    seconds = timing["seconds"]
    assert list(seconds) == [*stages, "total"]  # the stages in the order they ran
    assert all(s >= 0 for s in seconds.values())
    assert seconds["total"] >= sum(seconds[s] for s in stages)


@pytest.mark.parametrize(
    "flag, text",
    [("--grid-k", "4000,x"), ("--grid-rmax", "3.5"), ("--grid-eta", "abc"),
     ("--grid-alphas", "0.1,1;y"), ("--grid-w", "0.5,,z")],
)
def test_cli_malformed_grid_flag_names_the_flag(flag, text, disk_dataset, tmp_path, capsys):
    argv = [a.format(**disk_dataset) for a in ["run", *DATA, flag, text]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"graphsig run: stage configure: {flag} {text!r}: ")
    assert len(err.splitlines()) == 1


def test_cli_defaults_are_the_run_config_defaults():
    argv = ["run", "--edges", "e", "--features", "f", "--labels", "l", "--out", "o"]
    args = build_parser().parse_args(argv)
    assert _run_config(args, "demo") == RunConfig(name="demo")


def test_cli_unlabeled_eval_node_names_the_node(disk_dataset, bare_snapshot, tmp_path, capsys):
    with open(bare_snapshot) as fh:
        train = set(json.load(fh)["train_idx"])
    first, second = [i for i in range(disk_dataset["g"].n) if i not in train][:2]
    labels = [str(v) for v in disk_dataset["y"]]
    labels[second] = "-"
    (tmp_path / "labels.csv").write_text("label\n" + "\n".join(labels) + "\n")
    (tmp_path / "ids.txt").write_text(f"{first}\n{second}\n")
    code = main([
        "fingerprint", "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", str(tmp_path / "labels.csv"), "--snapshot", bare_snapshot,
        "--eval-nodes", str(tmp_path / "ids.txt"), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"graphsig fingerprint: stage select-eval-nodes: eval node {second} has no label\n"
    )


def test_cli_snapshot_verbs_stamp_the_run_config_hash(run_out, disk_dataset, tmp_path):
    with open(os.path.join(run_out, "results.json")) as fh:
        want = json.load(fh)["config_hash"]
    out = str(tmp_path / "fp")
    code = main([
        "fingerprint",
        "--edges", disk_dataset["edges"], "--features", disk_dataset["features"],
        "--labels", disk_dataset["labels"],
        "--snapshot", os.path.join(run_out, "repeat_00", "snapshot.json"),
        "--out", out,
    ])
    assert code == 0
    with open(os.path.join(out, "fingerprint.json")) as fh:
        assert json.load(fh)["meta"]["config_hash"] == want
    with open(os.path.join(out, "atlas.csv")) as fh:
        assert f"config_hash={want}" in fh.readline().split()


def test_cli_import_loads_no_heavy_scipy_subpackage():
    # every verb pays for what graphsig.cli imports; scipy.special, not
    # scipy.stats, carries the t and normal distribution functions
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphsig.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import sys, graphsig.cli; print('\\n'.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "graphsig.cli" in loaded
    heavy = ("scipy.stats", "scipy.optimize", "scipy.spatial", "scipy.interpolate", "scipy.ndimage")
    assert [m for m in loaded if ".".join(m.split(".")[:2]) in heavy] == []


NO_SCIPY_SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {}
import graphsig
seen["import graphsig"] = scipy_modules()
import graphsig.cli
seen["import graphsig.cli"] = scipy_modules()
edges, features, out = sys.argv[1:]
for method in ("knn", "rewire"):
    argv = ["prototype", "--edges", edges, "--features", features, "--method", method, "--out", out + method]
    seen["prototype " + method] = scipy_modules() if graphsig.cli.main(argv) == 0 else "failed"
# the p-values come from scipy.special, whose import stays out of scipy.stats
rc = graphsig.cli.main(["paired", "--deltas", "1,2,-0.5", "--out", out + "paired"])
seen["paired, scipy.stats"] = [m for m in scipy_modules() if m.startswith("scipy.stats")] if rc == 0 else "failed"
print(json.dumps(seen))
"""


def test_start_up_and_the_prototype_verbs_load_no_scipy(disk_dataset, tmp_path):
    # scipy is imported only by the functions that propagate, solve or
    # compute a p-value; a fresh interpreter, since this one has run them
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphsig.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    argv = [disk_dataset["edges"], disk_dataset["features"], str(tmp_path / "proto-")]
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, *argv], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out.splitlines()[-1]) == {
        "import graphsig": [],
        "import graphsig.cli": [],
        "prototype knn": [],
        "prototype rewire": [],
        "paired, scipy.stats": [],
    }
