import csv
import dataclasses
import filecmp
import json
import math
import os
import tracemalloc
from collections import Counter
from itertools import combinations
from operator import attrgetter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsig.atlas import (
    PHASE_FILES,
    QUADRANTS,
    NodeAtlas,
    NodeAtlasRecord,
    _family_shares,
    _margins,
    _shares,
    dataset_fingerprint,
    emit_figure_data,
    fingerprint_payload,
    node_atlas,
    subspace_overlap,
)
from graphsig.dictionary import BLOCK_NAMES, BLOCKS, FAMILIES
from graphsig.fisher import restrict
from graphsig.graph import build_graph
from graphsig.io import write_csv
from graphsig.scaffold import HyperConfig, SplitSpec, branch_scores, fit, make_split, predict
from graphsig.synth import make_sbm_dataset


# one-row dict forms of the atlas's share rules, for the hand examples
def block_shares(energy: dict) -> dict:
    """Normalize block evidence to shares; all-zero evidence stays zero."""
    shares = _shares(np.array([list(energy.values())], dtype=np.float64))
    return dict(zip(energy, shares[0].tolist()))


def family_shares(energy: dict, active_names) -> dict:
    """One row of ``_family_shares``: block name -> evidence in, family
    name -> share out; blocks outside ``active_names`` are ignored."""
    row = np.array([[energy.get(n, 0.0) for n in BLOCK_NAMES]], dtype=np.float64)
    active = [b for b in BLOCKS if b.name in active_names]
    return dict(zip(FAMILIES, _family_shares(row, active)[0].tolist()))


def selected_blocks(sc):
    return restrict(sc.dictionary, sc.selection.selected, [])[1]


def small_dataset(seed=0, n_classes=2):
    return make_sbm_dataset(
        n_per_class=30, n_classes=n_classes, p_within=0.15, p_between=0.02,
        d=6, shift=3.0, seed=seed,
    )


def fitted(seed=0, n_classes=2, **config_kw):
    g, X, y = small_dataset(seed, n_classes)
    train, val, test = make_split(y, SplitSpec(train_per_class=10, val_per_class=5, seed=seed))
    kw = dict(k=40, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.5)
    kw.update(config_kw)
    sc = fit(g, X, y, train, HyperConfig(**kw))
    return g, X, y, sc, test


def test_block_shares_hand_example():
    energy = {"a": 3.0, "b": 1.0, "c": 0.0}
    shares = block_shares(energy)
    assert shares == {"a": 0.75, "b": 0.25, "c": 0.0}
    assert block_shares({"a": 0.0, "b": 0.0}) == {"a": 0.0, "b": 0.0}


def test_family_shares_hand_example():
    # one block per family active: means (3, 1, 2) -> shares (1/2, 1/6, 1/3)
    energy = {n: 0.0 for n in BLOCK_NAMES}
    energy["X"] = 3.0
    energy["ProwX"] = 1.0
    energy["X-ProwX"] = 2.0
    shares = family_shares(energy, {"X", "ProwX", "X-ProwX"})
    assert shares["raw"] == pytest.approx(0.5)
    assert shares["low"] == pytest.approx(1 / 6)
    assert shares["high"] == pytest.approx(1 / 3)
    # averaging: two active low blocks with evidence 1 and 3 average to 2
    energy2 = dict(energy, **{"Prow2X": 3.0})
    shares2 = family_shares(energy2, {"X", "ProwX", "Prow2X", "X-ProwX"})
    assert shares2["low"] == pytest.approx(2.0 / (3.0 + 2.0 + 2.0))
    # no active high block: its share is zero, others renormalize
    shares3 = family_shares(energy, {"X", "ProwX"})
    assert shares3["high"] == 0.0
    assert shares3["raw"] + shares3["low"] == pytest.approx(1.0)
    assert family_shares({n: 0.0 for n in BLOCK_NAMES}, set(BLOCK_NAMES)) == {
        "raw": 0.0, "low": 0.0, "high": 0.0,
    }


def test_record_share_normalization_and_quadrants():
    g, X, y, sc, test = fitted()
    records = node_atlas(sc, test, y, degree=g.degree)
    assert len(records) == test.size
    for r in records:
        if not r.zero_evidence:
            assert sum(r.block_share.values()) == pytest.approx(1.0, abs=1e-9)
            assert sum(r.family_share.values()) == pytest.approx(1.0, abs=1e-9)
        ok_p = r.pred_pca == r.label
        ok_r = r.pred_ridge == r.label
        want = {
            (True, True): "both-correct",
            (True, False): "pca-only",
            (False, True): "ridge-only",
            (False, False): "both-wrong",
        }[(ok_p, ok_r)]
        assert r.quadrant == want
        assert r.correct == (r.pred == r.label)
        assert r.degree == g.degree[r.node]


def test_record_energy_matches_hand_computation():
    g, X, y, sc, test = fitted()
    records = node_atlas(sc, test, y)
    q_sel = sc.selection.scores[sc.selection.selected]
    r0 = records[0]
    row = np.abs(sc.rows([r0.node])[0]) * q_sel
    for name in BLOCK_NAMES:
        cols = [j for j, b in enumerate(selected_blocks(sc)) if b.name == name]
        want = float(np.mean(row[cols])) if cols else 0.0
        assert r0.block_energy[name] == pytest.approx(want, abs=1e-12)


def test_node_ids_outside_the_graph_fail():
    g, X, y, sc, test = fitted()
    for bad in (-1, g.n):
        with pytest.raises(ValueError, match=rf"^node id {bad} outside \[0, {g.n}\)$"):
            sc.rows([bad])
    # -1 would otherwise report node n - 1's evidence under id -1
    with pytest.raises(ValueError, match=r"^node id -1 outside"):
        node_atlas(sc, [-1], y, g.degree)
    scores = predict(sc, sc.rows([g.n - 1]))
    with pytest.raises(ValueError, match=r"^node id -1 outside"):
        node_atlas(sc, [-1], y, g.degree, scores)


def test_node_atlas_with_scores_holds_no_copy_of_the_eval_rows():
    # every dictionary column is selected, so the eval rows are
    # len(test) x 9d; the atlas reads one block's columns at a time
    g, X, y = make_sbm_dataset(
        n_per_class=150, n_classes=3, p_within=0.05, p_between=0.01, d=64, shift=2.0, seed=4,
    )
    train, _, test = make_split(y, SplitSpec(train_per_class=20, val_per_class=10, seed=4))
    sc = fit(g, X, y, train, HyperConfig(k=1000, r_max=4, eta=0.95, alphas=(1.0,), w=0.5))
    assert sc.selection.k_eff == sc.dictionary.p
    scores = predict(sc, sc.rows(test))
    tracemalloc.start()
    try:
        node_atlas(sc, test, y, g.degree, scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < test.size * sc.selection.k_eff * 8


def test_margins_match_branch_scores():
    g, X, y, sc, test = fitted()
    records = node_atlas(sc, test, y)
    Rp, Rr = branch_scores(sc, sc.rows(test))
    pos = {int(c): k for k, c in enumerate(sc.classes)}
    for i, r in enumerate(records):
        p = pos[r.label]
        other = [k for k in range(len(sc.classes)) if k != p]
        assert r.margin_pca == pytest.approx(np.min(Rp[i, other]) - Rp[i, p])
        assert r.margin_ridge == pytest.approx(np.min(Rr[i, other]) - Rr[i, p])
        assert (r.margin_pca > 0) == (r.pred_pca == r.label)


def _margins_by_row(R, y_pos):
    out = np.full(R.shape[0], np.nan)
    if R.shape[1] < 2:
        return out
    for i, p in enumerate(y_pos):
        if p >= 0:
            out[i] = np.min(np.delete(R[i], p)) - R[i, p]
    return out


@st.composite
def scores_and_positions(draw):
    n = draw(st.integers(0, 8))
    n_classes = draw(st.integers(1, 4))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    R = draw(arrays(np.float64, (n, n_classes), elements=values))
    y_pos = draw(arrays(np.int64, n, elements=st.integers(-1, n_classes - 1)))
    return R, y_pos


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scores_and_positions())
def test_margins_equal_the_per_row_loop(data):
    R, y_pos = data
    R_before = R.copy()
    np.testing.assert_array_equal(_margins(R, y_pos), _margins_by_row(R, y_pos))
    assert np.array_equal(R, R_before)  # the scores are not modified


energies = st.fixed_dictionaries(
    {n: st.one_of(st.just(0.0), st.floats(1e-6, 1e6)) for n in BLOCK_NAMES}
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(energies, st.sets(st.sampled_from(BLOCK_NAMES), min_size=1))
def test_shares_sum_to_one_or_are_all_zero(energy, active):
    active_names = [n for n in BLOCK_NAMES if n in active]
    energy = {n: (e if n in active else 0.0) for n, e in energy.items()}
    for shares in (block_shares(energy), family_shares(energy, active_names)):
        values = list(shares.values())
        assert all(v >= 0 for v in values)
        if any(values):
            assert sum(values) == pytest.approx(1.0, abs=1e-12)
        else:
            assert sum(energy.values()) == 0.0


def test_margin_nan_for_class_missing_from_training():
    g, X, y = small_dataset(seed=1, n_classes=3)
    train = np.flatnonzero(y < 2)[:20]  # train never sees class 2
    sc = fit(g, X, y, train, HyperConfig(k=30, r_max=3, eta=0.95, alphas=(1.0,), w=0.5))
    eval_idx = np.flatnonzero(y == 2)[:4]
    records = node_atlas(sc, eval_idx, y)
    for r in records:
        assert np.isnan(r.margin_pca)
        assert np.isnan(r.margin_ridge)
        assert not r.correct
        assert r.quadrant == "both-wrong"


def test_margin_nan_for_single_training_class():
    g, X, y = small_dataset(seed=2)
    train = np.flatnonzero(y == 0)[:12]
    sc = fit(g, X, y, train, HyperConfig(k=20, r_max=3, eta=0.95, alphas=(1.0,), w=0.5))
    records = node_atlas(sc, np.arange(6), y)
    assert all(np.isnan(r.margin_pca) for r in records)


def test_duplicate_block_family_invariance():
    # two cliques with constant rows make every low-pass block equal X,
    # so adding Prow2X must not move the family shares
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    g = build_graph(8, np.array(edges))
    X = np.zeros((8, 3))
    X[:4] = [1.0, 0.2, 0.0]
    X[4:] = [0.0, 0.2, 1.0]
    y = np.repeat([0, 1], 4)
    train = np.arange(8)

    def shares(active):
        cfg = HyperConfig(
            k=len(active) * 3, r_max=2, eta=0.99, alphas=(1.0,), w=0.5,
            active_blocks=active,
        )
        sc = fit(g, X, y, train, cfg)
        return node_atlas(sc, train, y)

    rec_a = shares(("X", "ProwX"))
    rec_b = shares(("X", "ProwX", "Prow2X"))
    for ra, rb in zip(rec_a, rec_b):
        assert ra.block_energy["ProwX"] == pytest.approx(
            rb.block_energy["Prow2X"], abs=1e-12
        )
        for fam in ("raw", "low", "high"):
            assert ra.family_share[fam] == pytest.approx(rb.family_share[fam], abs=1e-12)
        # block shares are NOT invariant: the duplicate dilutes them
        assert rb.block_share["ProwX"] < ra.block_share["ProwX"]


def test_zero_evidence_flag():
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [6, 0]])
    g = build_graph(8, edges)
    X = np.ones((8, 3))
    X[:4, 0] = 5.0
    X[7] = 0.0  # no features, no edges: no evidence anywhere
    y = np.array([0, 0, 0, 0, 1, 1, 1, 0])
    sc = fit(g, X, y, np.arange(7), HyperConfig(
        k=3, r_max=2, eta=0.99, alphas=(1.0,), w=0.5, active_blocks=("X",),
    ))
    rec = node_atlas(sc, np.array([7]), y)[0]
    assert rec.zero_evidence
    assert all(v == 0.0 for v in rec.block_share.values())
    assert all(v == 0.0 for v in rec.family_share.values())


def as_table(records):
    """The NodeAtlas whose rows are the given records."""
    columns = {}
    for f in dataclasses.fields(NodeAtlas):
        values = [getattr(r, f.name) for r in records]
        keys = f.metadata.get("keys")
        if keys is not None:
            values = np.array([[v[k] for k in keys] for v in values]).reshape(-1, len(keys))
        columns[f.name] = np.array(values)
    return NodeAtlas(**columns)


def make_record(node, correct, quadrant, high, label=0, pred=0):
    fam = {"raw": (1.0 - high) / 2, "low": (1.0 - high) / 2, "high": high}
    share = {n: 1.0 / 9 for n in BLOCK_NAMES}
    return NodeAtlasRecord(
        node=node, label=label, degree=0, pred=pred, pred_pca=pred, pred_ridge=pred,
        correct=correct, quadrant=quadrant, zero_evidence=False,
        block_energy=dict(share), block_share=share, family_share=fam,
        margin_pca=0.1, margin_ridge=0.1,
    )


def test_fingerprint_error_shift_hand_example():
    records = [
        make_record(0, True, "both-correct", high=0.2),
        make_record(1, False, "both-wrong", high=0.6),
    ]
    subs = [SimpleNamespace(r=2), SimpleNamespace(r=4)]
    fp = dataset_fingerprint(as_table(records), subs)
    assert fp.n_eval == 2
    assert fp.accuracy == pytest.approx(0.5)
    assert fp.high_share_correct == pytest.approx(0.2)
    assert fp.high_share_wrong == pytest.approx(0.6)
    assert fp.high_share_shift == pytest.approx(0.4)
    assert fp.mean_subspace_dim == pytest.approx(3.0)
    assert fp.both_wrong_frac == pytest.approx(0.5)
    assert sum(fp.quadrant_fractions.values()) == pytest.approx(1.0)
    assert fp.per_block_means["X"] == pytest.approx(1.0 / 9)


def test_fingerprint_none_when_no_errors():
    records = [make_record(i, True, "both-correct", high=0.3) for i in range(4)]
    fp = dataset_fingerprint(as_table(records), [SimpleNamespace(r=1)])
    assert fp.high_share_wrong is None
    assert fp.high_share_shift is None
    assert fp.high_share_correct == pytest.approx(0.3)
    payload = fingerprint_payload(fp, "toy", "per-class")
    assert payload["delta_H"] is None
    assert payload["H_correct"] == pytest.approx(30.0)
    with pytest.raises(ValueError, match="at least one"):
        dataset_fingerprint(as_table([]), [])


def test_subspace_overlap_bounds():
    B = np.eye(4)[:, :2]
    a = SimpleNamespace(r=2, basis=B)
    assert subspace_overlap(a, a) == pytest.approx(1.0)
    b = SimpleNamespace(r=2, basis=np.eye(4)[:, 2:])
    assert subspace_overlap(a, b) == pytest.approx(0.0)
    z = SimpleNamespace(r=0, basis=np.zeros((4, 0)))
    assert subspace_overlap(a, z) == 0.0


def emit_all(tmp_path, name):
    g, X, y, sc, test = fitted()
    records = node_atlas(sc, test, y, degree=g.degree)
    fp = dataset_fingerprint(records, sc.subspaces)
    out = os.path.join(tmp_path, name)
    emit_figure_data(
        records, fp, out, subspaces=sc.subspaces,
        dataset_name="toy", split_mode="per-class", meta={"config_hash": "abc", "seed": 0},
    )
    return records, fp, out


def test_emit_figure_data_files(tmp_path):
    records, fp, out = emit_all(str(tmp_path), "run")
    names = [
        "atlas.csv", "fingerprint.json", "simplex.csv", "signal_phase.csv",
        "decision_phase.csv", "class_complexity.csv", "error_shift.csv",
        "subspace_confusion.csv",
    ]
    for n in names:
        assert os.path.exists(os.path.join(out, n)), n

    with open(os.path.join(out, "fingerprint.json")) as fh:
        payload = json.load(fh)
    for key in ("R_D", "L_D", "H_D", "C_D", "Q_ridge", "Q_hard", "delta_H",
                "quadrants", "n_eval", "per_block_means", "conventions"):
        assert key in payload, key
    assert payload["R_D"] + payload["L_D"] + payload["H_D"] == pytest.approx(100.0, abs=1e-9)
    assert sum(payload["quadrants"].values()) == pytest.approx(100.0, abs=1e-9)
    assert payload["conventions"]["std_mode"] == "population"
    assert payload["meta"]["config_hash"] == "abc"
    assert payload["n_eval"] == len(records)

    with open(os.path.join(out, "atlas.csv")) as fh:
        first = fh.readline()
        assert first.startswith("# ")
        assert "config_hash=abc" in first and "seed=0" in first
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    assert set(QUADRANTS) >= {r["quadrant"] for r in rows}
    for n in BLOCK_NAMES:
        assert f"energy[{n}]" in rows[0]
        assert f"share_pct[{n}]" in rows[0]

    with open(os.path.join(out, "simplex.csv")) as fh:
        fh.readline()
        srows = list(csv.DictReader(fh))
    assert len(srows) == 1
    assert float(srows[0]["raw_share_pct"]) == pytest.approx(payload["R_D"], abs=1e-6)

    with open(os.path.join(out, "decision_phase.csv")) as fh:
        fh.readline()
        drows = list(csv.DictReader(fh))
    assert len(drows) == len(records)

    with open(os.path.join(out, "error_shift.csv")) as fh:
        fh.readline()
        erow = list(csv.DictReader(fh))[0]
    if fp.high_share_shift is None:
        assert erow["delta_H_pct"] == ""
    else:
        assert float(erow["delta_H_pct"]) == pytest.approx(100 * fp.high_share_shift, abs=1e-6)

    with open(os.path.join(out, "subspace_confusion.csv")) as fh:
        fh.readline()
        crows = list(csv.DictReader(fh))
    assert len(crows) == 1  # one pair for two classes
    assert 0.0 <= float(crows[0]["overlap"]) <= 1.0


def test_emit_figure_data_deterministic(tmp_path):
    _, _, out_a = emit_all(str(tmp_path), "a")
    _, _, out_b = emit_all(str(tmp_path), "b")
    for n in os.listdir(out_a):
        assert filecmp.cmp(
            os.path.join(out_a, n), os.path.join(out_b, n), shallow=False
        ), n


# ------------------------------------------------- the per-node loop oracle


def _left_sum(values):
    # Python's sum of floats before 3.12, which compensates
    total = 0
    for v in values:
        total += v
    return total


def _loop_block_shares(energy):
    total = float(_left_sum(energy.values()))
    if total > 0:
        return {name: e / total for name, e in energy.items()}
    return {name: 0.0 for name in energy}


def _loop_family_shares(energy, active_names):
    fam_mean = {}
    for fam in FAMILIES:
        present = [energy[b.name] for b in BLOCKS if b.family == fam and b.name in active_names]
        fam_mean[fam] = float(np.mean(present)) if present else 0.0
    fam_total = float(_left_sum(fam_mean.values()))
    if fam_total > 0:
        return {f: v / fam_total for f, v in fam_mean.items()}
    return {f: 0.0 for f in fam_mean}


def loop_node_atlas(scaffold, eval_idx, y, degree=None):
    """The atlas as one record per node, built field by field."""
    eval_idx = np.asarray(eval_idx, dtype=np.int64)
    labels = np.asarray(y)[eval_idx]
    sel = scaffold.selection
    q_sel = sel.scores[sel.selected]
    block_index = np.array([b.index for b in selected_blocks(scaffold)])
    active = sorted(set(selected_blocks(scaffold)), key=lambda b: b.index)
    active_names = [b.name for b in active]
    block_cols = [(b.name, np.flatnonzero(block_index == b.index)) for b in active]

    F_rows = scaffold.rows(eval_idx)
    yhat, _, Rp, Rr = predict(scaffold, F_rows)
    pred_pca = scaffold.classes[np.argmin(Rp, axis=1)]
    pred_ridge = scaffold.classes[np.argmin(Rr, axis=1)]
    quadrant = 2 * (pred_pca != labels) + (pred_ridge != labels)

    class_pos = {int(c): k for k, c in enumerate(scaffold.classes)}
    y_pos = np.array([class_pos.get(int(c), -1) for c in labels], dtype=np.int64)
    m_pca = _margins_by_row(Rp, y_pos)
    m_ridge = _margins_by_row(Rr, y_pos)

    contrib = np.abs(F_rows) * q_sel[None, :]
    records = []
    for r, node in enumerate(eval_idx):
        energy = dict.fromkeys(BLOCK_NAMES, 0.0)
        for name, cols in block_cols:
            energy[name] = float(np.mean(contrib[r, cols]))
        records.append(
            NodeAtlasRecord(
                node=int(node),
                label=int(labels[r]),
                degree=int(degree[node]) if degree is not None else 0,
                pred=int(yhat[r]),
                pred_pca=int(pred_pca[r]),
                pred_ridge=int(pred_ridge[r]),
                correct=int(yhat[r]) == int(labels[r]),
                quadrant=QUADRANTS[quadrant[r]],
                zero_evidence=_left_sum(energy.values()) == 0.0,
                block_energy=energy,
                block_share=_loop_block_shares(energy),
                family_share=_loop_family_shares(energy, active_names),
                margin_pca=float(m_pca[r]),
                margin_ridge=float(m_ridge[r]),
            )
        )
    return records


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        for key in ("margin_pca", "margin_ridge"):
            x, w = da.pop(key), db.pop(key)
            assert x == w or (math.isnan(x) and math.isnan(w)), key
        assert da == db
        for key, value in da.items():  # ints stay ints, bools stay bools
            assert type(value) is type(db[key]), key


def atlas_cases():
    """(scaffold, eval_idx, y, degree) fixtures that reach every branch."""
    # blocks of more than 8 selected columns: numpy sums those pairwise,
    # so the summation order of a row mean shows in its last bits
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=3, p_within=0.15, p_between=0.02, d=24, shift=3.0, seed=2,
    )
    train, _, test = make_split(y, SplitSpec(train_per_class=10, val_per_class=5, seed=2))
    sc = fit(g, X, y, train, HyperConfig(k=150, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.5))
    rng = np.random.default_rng(5)
    shuffled = rng.choice(test, size=test.size + 7)  # unsorted, with repeats
    yield "all-blocks", sc, shuffled, y, g.degree

    g, X, y, sc, test = fitted(active_blocks=("X", "ProwX", "PsymX", "Prow3X"), k=20)
    yield "no-high-family", sc, test[::-1], y, g.degree

    g, X, y, sc, test = fitted(active_blocks=("X",), k=6)
    yield "raw-only", sc, test, y, None

    # a node without features or edges has no evidence in any block
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0], [6, 0]])
    g = build_graph(8, edges)
    X = np.ones((8, 3))
    X[:4, 0] = 5.0
    X[7] = 0.0
    y = np.array([0, 0, 0, 0, 1, 1, 1, 0])
    for active in (("X",), ("X", "ProwX", "X-PsymX")):
        sc = fit(g, X, y, np.arange(7), HyperConfig(
            k=9, r_max=2, eta=0.99, alphas=(1.0,), w=0.5, active_blocks=active,
        ))
        yield f"zero-evidence-{len(active)}", sc, np.array([7, 0, 7, 3]), y, g.degree

    g, X, y = small_dataset(seed=1, n_classes=3)
    # class 2 is absent from training
    train = np.concatenate([np.flatnonzero(y == 0)[:10], np.flatnonzero(y == 1)[:10]])
    sc = fit(g, X, y, train, HyperConfig(k=30, r_max=3, eta=0.95, alphas=(1.0,), w=0.5))
    yield "unseen-class", sc, np.concatenate([np.flatnonzero(y == 2)[:4], train[:3]]), y, g.degree


@pytest.mark.parametrize("case", list(atlas_cases()), ids=lambda c: c[0])
def test_node_atlas_equals_the_per_node_loop(case, tmp_path):
    name, sc, eval_idx, y, degree = case
    want = loop_node_atlas(sc, eval_idx, y, degree)
    got = node_atlas(sc, eval_idx, y, degree)
    assert_same_records(got, want)
    # the scores a caller already has give the same records
    scored = node_atlas(sc, eval_idx, y, degree, predict(sc, sc.rows(eval_idx)))
    assert_same_records(scored, want)
    if name == "zero-evidence-1":
        assert got[0].zero_evidence and not got[1].zero_evidence
    if name == "unseen-class":
        assert math.isnan(got[0].margin_pca) and not math.isnan(got[-1].margin_pca)

    out = {}
    for tag, atlas in (("loop", as_table(want)), ("array", got)):
        out[tag] = str(tmp_path / tag)
        emit_figure_data(
            atlas, dataset_fingerprint(atlas, sc.subspaces), out[tag],
            subspaces=sc.subspaces, dataset_name="toy", split_mode="per-class",
            meta={"config_hash": "abc"},
        )
    names = sorted(os.listdir(out["loop"]))
    assert names == sorted(os.listdir(out["array"]))
    for n in names:
        assert filecmp.cmp(
            os.path.join(out["loop"], n), os.path.join(out["array"], n), shallow=False
        ), n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(energies, st.sets(st.sampled_from(BLOCK_NAMES), min_size=1))
def test_one_row_shares_equal_the_dict_rules(energy, active):
    energy = {n: (e if n in active else 0.0) for n, e in energy.items()}
    assert block_shares(energy) == _loop_block_shares(energy)
    assert family_shares(energy, active) == _loop_family_shares(energy, active)


# --------------------------------------- the per-record fingerprint and files


def loop_fingerprint(records, subspaces):
    """The fingerprint as list means over the records."""
    fam = {f: float(np.mean([r.family_share[f] for r in records])) for f in FAMILIES}
    quad = {
        qd: float(np.mean([r.quadrant == qd for r in records])) for qd in QUADRANTS
    }
    correct_high = [r.family_share["high"] for r in records if r.correct]
    wrong_high = [r.family_share["high"] for r in records if not r.correct]
    h_c = float(np.mean(correct_high)) if correct_high else None
    h_w = float(np.mean(wrong_high)) if wrong_high else None
    return dict(
        n_eval=len(records),
        accuracy=float(np.mean([r.correct for r in records])),
        raw_share=fam["raw"],
        low_share=fam["low"],
        high_share=fam["high"],
        mean_subspace_dim=float(np.mean([s.r for s in subspaces])),
        ridge_only_frac=quad["ridge-only"],
        both_wrong_frac=quad["both-wrong"],
        quadrant_fractions=quad,
        high_share_correct=h_c,
        high_share_wrong=h_w,
        high_share_shift=h_w - h_c if (h_c is not None and h_w is not None) else None,
        per_block_means={
            name: float(np.mean([r.block_share[name] for r in records]))
            for name in BLOCK_NAMES
        },
    )


# (header, its value for one record)
LOOP_COLUMNS = (
    *((n, attrgetter(n)) for n in ("node", "label", "degree", "pred", "pred_pca", "pred_ridge")),
    ("correct", lambda r: int(r.correct)),
    ("quadrant", lambda r: r.quadrant),
    ("zero_evidence", lambda r: int(r.zero_evidence)),
    *((f"{f}_share_pct", lambda r, f=f: 100.0 * r.family_share[f]) for f in FAMILIES),
    ("margin_pca", lambda r: r.margin_pca),
    ("margin_ridge", lambda r: r.margin_ridge),
    *((f"energy[{n}]", lambda r, n=n: r.block_energy[n]) for n in BLOCK_NAMES),
    *((f"share_pct[{n}]", lambda r, n=n: 100.0 * r.block_share[n]) for n in BLOCK_NAMES),
)


def loop_node_files(records, subspaces, out_dir, meta):
    """atlas.csv, the phase files and subspace_confusion.csv, row by row."""
    os.makedirs(out_dir)
    header = [h for h, _ in LOOP_COLUMNS]
    rows = [[value(r) for _, value in LOOP_COLUMNS] for r in records]
    write_csv(os.path.join(out_dir, "atlas.csv"), header, rows, meta)
    for name, picked in PHASE_FILES:
        idx = [header.index(h) for h in picked]
        write_csv(os.path.join(out_dir, name), picked, [[row[i] for i in idx] for row in rows], meta)
    confusion = Counter((r.label, r.pred) for r in records if not r.correct)
    write_csv(
        os.path.join(out_dir, "subspace_confusion.csv"),
        ["class_a", "class_b", "overlap", "confused_a_as_b", "confused_b_as_a"],
        [
            [a.label, b.label, subspace_overlap(a, b),
             confusion[a.label, b.label], confusion[b.label, a.label]]
            for a, b in combinations(subspaces, 2)
        ],
        meta,
    )
    return sorted(os.listdir(out_dir))


def hand_built_atlas(n, seed=0):
    """A table of random rows; ``correct`` is drawn on its own, not from
    pred == label, and some rows carry no evidence or no margin."""
    rng = np.random.default_rng(seed)
    energy = rng.random((n, len(BLOCK_NAMES))) * (rng.random((n, 1)) < 0.95)
    family = rng.random((n, len(FAMILIES))) * (energy[:, :1] > 0)
    total = energy.sum(axis=1, keepdims=True)
    family_total = family.sum(axis=1, keepdims=True)
    margins = rng.standard_normal((2, n))
    margins[:, rng.random(n) < 0.05] = np.nan
    return NodeAtlas(
        node=rng.integers(0, 10 * n, n),
        label=rng.integers(0, 3, n),
        degree=rng.integers(0, 50, n),
        pred=rng.integers(0, 3, n),
        pred_pca=rng.integers(0, 3, n),
        pred_ridge=rng.integers(0, 3, n),
        correct=rng.random(n) < 0.7,
        quadrant=np.asarray(QUADRANTS)[rng.integers(0, 4, n)],
        zero_evidence=total[:, 0] == 0,
        block_energy=energy,
        block_share=np.divide(energy, total, out=np.zeros_like(energy), where=total > 0),
        family_share=np.divide(family, family_total, out=np.zeros_like(family),
                               where=family_total > 0),
        margin_pca=margins[0],
        margin_ridge=margins[1],
    )


def table_cases():
    for name, sc, eval_idx, y, degree in atlas_cases():
        yield name, node_atlas(sc, eval_idx, y, degree), sc.subspaces
    # more rows than numpy's 8,192-element reduction buffer
    basis = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 6)))[0]
    subspaces = [
        SimpleNamespace(label=c, r=2, basis=basis[:, c : c + 2], n_members=10, energy_fraction=0.9)
        for c in range(3)
    ]
    yield "hand-built-9000", hand_built_atlas(9000), subspaces


@pytest.mark.parametrize("case", list(table_cases()), ids=lambda c: c[0])
def test_fingerprint_and_node_files_equal_the_record_loop(case, tmp_path):
    name, atlas, subspaces = case
    records = list(atlas)
    assert dataclasses.asdict(dataset_fingerprint(atlas, subspaces)) == loop_fingerprint(
        records, subspaces
    )
    meta = {"config_hash": "abc"}
    emit_figure_data(
        atlas, dataset_fingerprint(atlas, subspaces), str(tmp_path / "table"),
        subspaces=subspaces, meta=meta,
    )
    for n in loop_node_files(records, subspaces, str(tmp_path / "loop"), meta):
        assert filecmp.cmp(
            os.path.join(tmp_path, "loop", n), os.path.join(tmp_path, "table", n), shallow=False
        ), n


def test_table_rows_round_trip_through_records():
    atlas = hand_built_atlas(50)
    back = as_table(list(atlas))
    for f in dataclasses.fields(NodeAtlas):
        np.testing.assert_array_equal(getattr(back, f.name), getattr(atlas, f.name))
    assert atlas[-1].node == atlas.node[-1]
    with pytest.raises(IndexError):
        atlas[len(atlas)]
