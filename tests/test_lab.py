import dataclasses
import itertools
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from graphsig import lab
from graphsig.dictionary import BLOCK_NAMES
from graphsig.graph import build_graph
from graphsig.lab import (
    VARIANTS,
    PairedResult,
    _signed_ranks,
    ablation_table,
    compare_runs,
    degree_preserving_rewire,
    mutual_knn_densify,
    paired_stats,
    run_variant,
    run_variants,
    sign_test_p,
    variant_by_name,
    wilcoxon_signed_rank,
)
from graphsig.scaffold import SearchGrids, SplitSpec, evaluate_repeats
from graphsig.synth import make_sbm_dataset

REFERENCE_DELTAS = (1.87, 0.39, 0.92, 2.97, 1.99, 0.98)


def tiny_grids():
    return SearchGrids(ks=(15,), r_maxs=(3,), etas=(0.95,), alpha_sets=((1.0,),), ws=(0.5,))


def tiny_dataset(seed=0):
    return make_sbm_dataset(
        n_per_class=25, n_classes=2, p_within=0.2, p_between=0.03,
        d=5, shift=2.5, seed=seed,
    )


def test_variant_table():
    names = [v.name for v in VARIANTS]
    assert names == [
        "full", "raw_only", "no_high_pass", "no_p3x", "no_sym",
        "pca_only", "ridge_only",
    ]
    by = {v.name: v for v in VARIANTS}
    assert by["full"].active_blocks == BLOCK_NAMES
    assert by["raw_only"].active_blocks == ("X",)
    assert set(by["no_high_pass"].active_blocks) == set(BLOCK_NAMES) - {
        "X-ProwX", "ProwX-Prow2X", "X-PsymX",
    }
    assert set(by["no_p3x"].active_blocks) == set(BLOCK_NAMES) - {"Prow3X"}
    assert set(by["no_sym"].active_blocks) == set(BLOCK_NAMES) - {
        "PsymX", "Psym2X", "X-PsymX",
    }
    assert by["pca_only"].ws == (1.0,)
    assert by["ridge_only"].ws == (0.0,)
    assert by["full"].ws is None
    with pytest.raises(KeyError, match="unknown variant"):
        variant_by_name("nope")


def test_run_variant_propagates_blocks_and_pairing():
    g, X, y = tiny_dataset()
    spec = SplitSpec(train_per_class=8, val_per_class=5, seed=11)
    out_full = run_variant(g, X, y, spec, variant_by_name("full"), n_repeats=2, grids=tiny_grids())
    out_raw = run_variant(g, X, y, spec, variant_by_name("raw_only"), n_repeats=2, grids=tiny_grids())
    assert out_raw[0].config.active_blocks == ("X",)
    assert out_full[0].config.active_blocks == BLOCK_NAMES
    for a, b in zip(out_full, out_raw):
        assert np.array_equal(a.test, b.test)  # same splits pair the repeats
        assert np.array_equal(a.train, b.train)


def test_pca_only_variant_equals_pinned_weight():
    g, X, y = tiny_dataset(seed=3)
    spec = SplitSpec(train_per_class=8, val_per_class=5, seed=4)
    got = run_variant(g, X, y, spec, variant_by_name("pca_only"), n_repeats=2, grids=tiny_grids())
    grids = SearchGrids(ks=(15,), r_maxs=(3,), etas=(0.95,), alpha_sets=((1.0,),), ws=(1.0,))
    want = evaluate_repeats(g, X, y, spec, n_repeats=2, grids=grids)
    assert [o.test_accuracy for o in got] == [o.test_accuracy for o in want]
    assert all(o.config.w == 1.0 for o in got)


W_POOL = (0.0, 0.25, 0.5, 0.75, 1.0)
# two spellings of one subset, so that variants share a search in either order
BLOCK_POOL = (("X",), ("X", "ProwX"), ("ProwX", "X"), ("Psym2X", "X-PsymX"), BLOCK_NAMES)


def w_grids():
    return st.lists(st.sampled_from(W_POOL), min_size=1, max_size=3).map(tuple)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(BLOCK_POOL), st.none() | w_grids()), min_size=1, max_size=4
    ),
    ks=st.lists(st.sampled_from((4, 15, 40)), min_size=1, max_size=2, unique=True),
    alpha_sets=st.lists(st.sampled_from(((1.0,), (0.1, 1.0))), min_size=1, max_size=2),
    ws=w_grids(),
    fisher_mode=st.sampled_from(("train", "train+val")),
    seed=st.integers(0, 3),
)
def test_run_variants_equals_one_evaluation_per_variant(specs, ks, alpha_sets, ws, fisher_mode, seed):
    g, X, y = make_sbm_dataset(
        n_per_class=15, n_classes=3, p_within=0.2, p_between=0.08, d=4, shift=1.0, seed=seed
    )
    spec = SplitSpec(train_per_class=5, val_per_class=5, seed=seed)
    grids = SearchGrids(ks=tuple(ks), r_maxs=(1, 3), etas=(0.9,), alpha_sets=tuple(alpha_sets), ws=ws)
    variants = [lab.VariantSpec(f"v{i}", blocks, w) for i, (blocks, w) in enumerate(specs)]
    got = run_variants(
        g, X, y, spec, variants=variants, n_repeats=2, grids=grids, fisher_mode=fisher_mode
    )
    assert list(got) == [v.name for v in variants]
    for v in variants:
        own = dataclasses.replace(grids, ws=ws if v.ws is None else v.ws)
        want = evaluate_repeats(
            g, X, y, spec, n_repeats=2, grids=own,
            active_blocks=v.active_blocks, fisher_mode=fisher_mode,
        )
        for a, b in zip(got[v.name], want, strict=True):
            for part in ("train", "val", "test"):
                assert np.array_equal(getattr(a, part), getattr(b, part))
            assert a.config == b.config
            assert a.val_accuracy == b.val_accuracy
            assert a.test_accuracy == b.test_accuracy
            assert a.test_scores[1].tobytes() == b.test_scores[1].tobytes()


def test_ablation_table_ranks():
    def fake(accs):
        return [SimpleNamespace(test_accuracy=a) for a in accs]

    results = {
        "full": fake([0.9, 0.92]),
        "worse": fake([0.5, 0.52]),
        "tied": fake([0.91, 0.91]),
    }
    table = ablation_table(results)
    assert [r["variant"] for r in table] == list(results)  # rows stay in input order
    rows = {r["variant"]: r for r in table}
    assert rows["full"]["rank"] == 1  # mean 0.91, tie goes to insertion order
    assert rows["tied"]["rank"] == 2
    assert rows["worse"]["rank"] == 3
    assert rows["full"]["mean"] == pytest.approx(0.91)
    assert rows["full"]["std"] == pytest.approx(np.std([0.9, 0.92], ddof=1))


def test_mutual_knn_hand_example():
    # cosine top-1: 0<->1 and 2<->3 are mutual, 4 points at 1 unreciprocated
    X = np.array([
        [1.0, 0.0],
        [0.9, 0.1],
        [0.0, 1.0],
        [0.1, 0.9],
        [1.0, 1.0],
    ])
    base = build_graph(5, np.array([[0, 2]]))
    g1, added = mutual_knn_densify(base, X, k=1)
    assert added == 2
    assert {tuple(e) for e in g1.edges.tolist()} == {(0, 1), (0, 2), (2, 3)}
    g2, added2 = mutual_knn_densify(base, X, k=2)
    assert {tuple(e) for e in g2.edges.tolist()} == {
        (0, 1), (0, 2), (1, 4), (2, 3), (3, 4),
    }
    assert added2 == 4


def test_mutual_knn_zero_rows_take_no_part():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    base = build_graph(3, np.zeros((0, 2), dtype=np.int64))
    g, added = mutual_knn_densify(base, X, k=1)
    assert added == 1
    assert {tuple(e) for e in g.edges.tolist()} == {(0, 1)}


def test_mutual_knn_errors():
    X = np.eye(3)
    g = build_graph(3, np.array([[0, 1]]))
    with pytest.raises(ValueError, match="k=3 must be smaller"):
        mutual_knn_densify(g, X, k=3)
    with pytest.raises(ValueError, match=">= 1"):
        mutual_knn_densify(g, X, k=0)
    with pytest.raises(ValueError, match="feature rows"):
        mutual_knn_densify(g, np.eye(4), k=1)


def reference_mutual_knn(g, X, k):
    """Row-at-a-time form of mutual_knn_densify: a lexsort per row with an
    explicit index key, a set of top peers per node, and a set union."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    norms = np.linalg.norm(X, axis=1)
    nonzero = norms > 0
    Xn = np.zeros_like(X)
    Xn[nonzero] = X[nonzero] / norms[nonzero, None]
    sims = Xn @ Xn.T
    sims[:, ~nonzero] = -np.inf
    np.fill_diagonal(sims, -np.inf)
    top = [set() for _ in range(n)]
    idx = np.arange(n)
    for i in range(n):
        if not nonzero[i]:
            continue
        order = np.lexsort((idx, -sims[i]))
        live = order[np.isfinite(sims[i, order])]
        top[i] = set(int(j) for j in live[:k])
    base = {(int(u), int(v)) for u, v in g.edges}
    added = set()
    for i in range(n):
        for j in top[i]:
            if i < j and i in top[j] and (i, j) not in base:
                added.add((i, j))
    return build_graph(n, sorted(base | added)), len(added)


@st.composite
def knn_inputs(draw):
    n = draw(st.integers(2, 14))
    d = draw(st.integers(1, 4))
    # few distinct small-integer rows, repeated: ties, duplicates, zero rows
    distinct = draw(st.integers(1, n))
    pool = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=d, max_size=d),
        min_size=distinct, max_size=distinct,
    ))
    pick = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    X = np.array(pool, dtype=np.float64)[pick]
    # raw base edges may hold duplicates, both orientations and self-loops
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    k = draw(st.integers(1, n - 1))
    return build_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2)), X, k


@settings(max_examples=300, deadline=None)
@given(knn_inputs(), st.integers(1, 200))
def test_mutual_knn_equals_the_row_at_a_time_reference(inputs, cells):
    g, X, k = inputs
    with mock.patch.object(lab, "_KNN_SORT_CELLS", cells):  # any row-block split
        got, added = mutual_knn_densify(g, X, k)
    want, want_added = reference_mutual_knn(g, X, k)
    assert np.array_equal(got.edges, want.edges)
    assert added == want_added


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, np.array(edges))


def test_rewire_preserves_degrees():
    for seed in range(10):
        g = random_graph(30, 0.15, seed)
        g2, info = degree_preserving_rewire(g, fraction=0.2, seed=seed)
        assert info["method"] == "rewire"
        assert info["swaps"] == info["target"]
        assert np.array_equal(g2.degree, g.degree)
        assert g2.n_edges == g.n_edges


def test_rewire_deterministic():
    g = random_graph(25, 0.2, 7)
    a, _ = degree_preserving_rewire(g, fraction=0.3, seed=42)
    b, _ = degree_preserving_rewire(g, fraction=0.3, seed=42)
    assert np.array_equal(a.edges, b.edges)


def test_rewire_triangle_falls_back_to_dropout():
    g = build_graph(3, np.array([[0, 1], [0, 2], [1, 2]]))
    g2, info = degree_preserving_rewire(g, fraction=0.5, seed=0, fallback_dropout=0.15)
    assert info["method"] == "dropout"
    assert info["kept_edges"] == 2  # floor(0.85 * 3)
    assert g2.n_edges == 2
    assert info["attempts"] == 300  # budget 100 * |E|


def test_rewire_exits_keep_their_edge_lists():
    # the exact edge lists of both exits, so a change to how they build the graph shows
    g = random_graph(10, 0.3, 4)
    assert g.edges.tolist() == [[0, 4], [0, 8], [2, 4], [2, 9], [3, 9], [4, 9], [6, 7], [7, 8]]
    swapped, info = degree_preserving_rewire(g, fraction=0.5, seed=3)
    assert info == {"method": "rewire", "swaps": 4, "target": 4, "attempts": 13}
    assert swapped.edges.tolist() == [
        [0, 4], [0, 9], [2, 4], [2, 9], [3, 7], [4, 8], [6, 7], [8, 9],
    ]
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    dropped, info = degree_preserving_rewire(k5, fraction=0.3, seed=2, fallback_dropout=0.25)
    assert info == {
        "method": "dropout", "swaps": 0, "target": 3, "attempts": 1000, "kept_edges": 7,
    }
    assert dropped.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [2, 3], [2, 4], [3, 4]]


def test_rewire_errors():
    g = build_graph(3, np.array([[0, 1]]))
    with pytest.raises(ValueError, match="fraction"):
        degree_preserving_rewire(g, fraction=0.0)
    with pytest.raises(ValueError, match="fallback_dropout"):
        degree_preserving_rewire(g, fraction=0.5, fallback_dropout=1.0)
    empty = build_graph(3, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        degree_preserving_rewire(empty, fraction=0.5)


def test_sign_test_exact_values():
    assert sign_test_p(REFERENCE_DELTAS) == pytest.approx(0.03125)
    assert sign_test_p([1.0, -1.0]) == pytest.approx(1.0)
    assert sign_test_p([0.0, 0.0, 1.0]) == pytest.approx(1.0)
    assert sign_test_p([0.0, 0.0]) == 1.0
    assert sign_test_p([1, 1, 1, 1, 1]) == pytest.approx(2 / 32)


def brute_force_wilcoxon(deltas):
    d = np.asarray([x for x in deltas if x != 0], dtype=np.float64)
    n = len(d)
    if n == 0:
        return 0.0, 1.0
    ranks = _signed_ranks(d)
    w = float(np.sum(ranks[d > 0]))
    sums = [
        sum(ranks[i] for i in range(n) if signs[i])
        for signs in itertools.product([False, True], repeat=n)
    ]
    sums = np.asarray(sums)
    lo = float(np.mean(sums <= w + 1e-9))
    hi = float(np.mean(sums >= w - 1e-9))
    return w, min(1.0, 2.0 * min(lo, hi))


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        d = rng.integers(-3, 4, size=n).astype(float)  # ties and zeros likely
        w_got, p_got, method = wilcoxon_signed_rank(d)
        assert method == "exact"
        w_want, p_want = brute_force_wilcoxon(d)
        assert w_got == pytest.approx(w_want, abs=1e-12)
        assert p_got == pytest.approx(p_want, abs=1e-12)


def reference_signed_ranks(d):
    """Midranks of |d| by walking each tie group of the sorted order."""
    a = np.abs(np.asarray(d, dtype=np.float64))
    order = np.argsort(a, kind="stable")
    ranks = np.empty_like(a)
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


tie_heavy_deltas = st.lists(
    st.integers(-6, 6).filter(bool).map(lambda v: v / 2.0), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_deltas)
def test_signed_ranks_equal_the_tie_walk(d):
    assert np.array_equal(_signed_ranks(d), reference_signed_ranks(d))
    got = wilcoxon_signed_rank(d)
    with mock.patch.object(lab, "_signed_ranks", reference_signed_ranks):
        assert got == wilcoxon_signed_rank(d)


def test_wilcoxon_reference_deltas():
    w, p, method = wilcoxon_signed_rank(REFERENCE_DELTAS)
    assert method == "exact"
    assert w == pytest.approx(21.0)  # all six positive
    assert p == pytest.approx(0.03125)


def test_wilcoxon_normal_path():
    rng = np.random.default_rng(1)
    d = rng.standard_normal(25) + 0.4
    w_n, p_n, method = wilcoxon_signed_rank(d)
    assert method == "normal"
    w_e, p_e, method_e = wilcoxon_signed_rank(d, exact_limit=30)
    assert method_e == "exact"
    assert w_n == w_e
    assert 0.0 <= p_n <= 1.0
    assert p_n == pytest.approx(p_e, abs=0.02)  # approximation quality


def test_paired_stats_reference_deltas():
    r = paired_stats(REFERENCE_DELTAS)
    assert r.n == 6
    assert r.wins == 6
    assert r.mean == pytest.approx(1.52, abs=0.005)
    assert r.median == pytest.approx((0.98 + 1.87) / 2)
    assert r.delta_min == pytest.approx(0.39)
    assert r.delta_max == pytest.approx(2.97)
    assert r.t_p == pytest.approx(0.0105, abs=5e-4)
    assert r.sign_p == pytest.approx(0.03125)
    assert r.wilcoxon_p == pytest.approx(0.03125)
    assert r.effect_size == pytest.approx(1.6251, abs=5e-3)
    assert r.ci_low == pytest.approx(0.538, abs=0.02)
    assert r.ci_high == pytest.approx(2.502, abs=0.02)
    assert not r.degenerate


@pytest.mark.parametrize("shift", [0.0, -1.0, -1.5])
def test_p_values_equal_the_scipy_stats_distributions(shift, monkeypatch):
    normal_args = []
    ndtr = scipy.special.ndtr

    def recording_ndtr(x):
        normal_args.append(x)
        return ndtr(x)

    for n in range(2, 61):
        d = np.resize(REFERENCE_DELTAS, n) + shift
        r = paired_stats(d)
        assert r.t_p == float(2.0 * sps.t.sf(abs(r.t_stat), n - 1))
        half = float(sps.t.ppf(0.975, n - 1)) * (r.std / math.sqrt(n))
        assert (r.ci_low, r.ci_high) == (r.mean - half, r.mean + half)
        with monkeypatch.context() as m:
            m.setattr(scipy.special, "ndtr", recording_ndtr)
            _, p, method = wilcoxon_signed_rank(d, exact_limit=0)
        assert method == "normal"
        assert p == min(1.0, 2.0 * float(sps.norm.sf(-normal_args[-1])))


def test_paired_stats_degenerate_cases():
    r = paired_stats([2.0, 2.0, 2.0])
    assert r.degenerate
    assert r.t_stat == np.inf
    assert r.t_p == 0.0
    assert r.effect_size == np.inf
    assert r.sign_p == pytest.approx(0.25)
    z = paired_stats([0.0, 0.0, 0.0])
    assert z.degenerate
    assert z.t_stat == 0.0
    assert z.t_p == 1.0
    assert z.wilcoxon_p == 1.0
    neg = paired_stats([-1.0, -1.0])
    assert neg.t_stat == -np.inf
    with pytest.raises(ValueError, match="at least 2"):
        paired_stats([1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_paired_stats_rejects_non_finite_deltas(bad):
    with pytest.raises(ValueError, match="is not finite"):
        paired_stats([1.0, bad, 2.0])


def test_compare_runs():
    a = [SimpleNamespace(test_accuracy=x) for x in (0.90, 0.85, 0.88)]
    b = [SimpleNamespace(test_accuracy=x) for x in (0.88, 0.84, 0.89)]
    r = compare_runs(a, b)
    assert r.deltas == pytest.approx((2.0, 1.0, -1.0))
    assert r.wins == 2
    with pytest.raises(ValueError, match="same number"):
        compare_runs(a, b[:2])


# accuracies on a coarse grid give tied and zero deltas; n spans both
# sides of the exact Wilcoxon test's 20 nonzero pairs
ACCURACY = st.integers(0, 20).map(lambda k: k / 20) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(ACCURACY, ACCURACY), min_size=2, max_size=30))
def test_compare_runs_is_antisymmetric(pairs):
    a, b = ([SimpleNamespace(test_accuracy=x) for x in run] for run in zip(*pairs))
    ab, ba = compare_runs(a, b), compare_runs(b, a)
    assert ba.deltas == tuple(-x for x in ab.deltas)
    for name in ("mean", "median", "t_stat", "effect_size"):
        assert getattr(ba, name) == -getattr(ab, name), name
    assert (ba.delta_min, ba.delta_max) == (-ab.delta_max, -ab.delta_min)
    assert (ba.ci_low, ba.ci_high) == (-ab.ci_high, -ab.ci_low)
    assert ba.wins == sum(x < 0 for x in ab.deltas)
    for name in ("n", "std", "t_p", "sign_p", "wilcoxon_p", "wilcoxon_method", "degenerate"):
        assert getattr(ba, name) == getattr(ab, name), name
    nonzero = sum(x != 0 for x in ab.deltas)  # W+ of one order is W- of the other
    assert ba.wilcoxon_stat + ab.wilcoxon_stat == nonzero * (nonzero + 1) / 2


def test_run_variants_returns_all_requested():
    g, X, y = tiny_dataset(seed=9)
    spec = SplitSpec(train_per_class=8, val_per_class=5, seed=1)
    chosen = (variant_by_name("full"), variant_by_name("ridge_only"))
    results = run_variants(g, X, y, spec, variants=chosen, n_repeats=1, grids=tiny_grids())
    assert set(results) == {"full", "ridge_only"}
    assert results["ridge_only"][0].config.w == 0.0
