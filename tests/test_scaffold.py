import collections
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsig import ridge as ridge_module
from graphsig import scaffold as scaffold_module
from graphsig.conventions import EPSILON
from graphsig.dictionary import build_dictionary
from graphsig.fisher import fisher_scores, restrict, select_top_k
from graphsig.graph import build_graph
from graphsig.ridge import averaged_scores, fit_ridge, ridge_scores, scores_from_cross
from graphsig.scaffold import (
    HyperConfig,
    SearchGrids,
    SplitSpec,
    accuracy,
    branch_scores,
    evaluate_repeats,
    fit,
    fuse,
    grid_search,
    make_split,
    predict,
    summarize_repeats,
)
from graphsig.subspace import class_svds, pca_residuals, truncate_subspaces
from graphsig.synth import make_sbm_dataset


def small_dataset(seed=0):
    return make_sbm_dataset(
        n_per_class=30, n_classes=2, p_within=0.15, p_between=0.02,
        d=6, shift=3.0, seed=seed,
    )


def selected_blocks(sc):
    return restrict(sc.dictionary, sc.selection.selected, [])[1]


def check_partition(y, train, val, test):
    labeled = np.flatnonzero(np.asarray(y) >= 0)
    merged = np.concatenate([train, val, test])
    assert len(set(merged.tolist())) == merged.size  # disjoint
    assert set(merged.tolist()) == set(labeled.tolist())
    for part in (train, val, test):
        assert np.array_equal(part, np.sort(part))


def test_per_class_split_exact_counts():
    y = np.repeat([0, 1, 2], 60)
    spec = SplitSpec(mode="per-class", train_per_class=20, val_per_class=30, seed=3)
    train, val, test = make_split(y, spec)
    check_partition(y, train, val, test)
    for c in range(3):
        assert np.sum(y[train] == c) == 20
        assert np.sum(y[val] == c) == 30
        assert np.sum(y[test] == c) == 10


def test_per_class_split_small_class_proportional():
    # 10 members cannot give 20/30: scaled allocation 4 train, 6 val
    y = np.concatenate([np.zeros(60, dtype=int), np.ones(10, dtype=int)])
    train, val, test = make_split(y, SplitSpec(train_per_class=20, val_per_class=30))
    assert np.sum(y[train] == 1) == 4
    assert np.sum(y[val] == 1) == 6
    assert np.sum(y[test] == 1) == 0
    # singleton class still lands one train node
    y2 = np.concatenate([np.zeros(60, dtype=int), [1]])
    train2, val2, test2 = make_split(y2, SplitSpec(train_per_class=20, val_per_class=30))
    assert np.sum(y2[train2] == 1) == 1
    # two members: one train, one val by scaled floor
    y3 = np.concatenate([np.zeros(60, dtype=int), [1, 1]])
    train3, val3, _ = make_split(y3, SplitSpec(train_per_class=20, val_per_class=30))
    assert np.sum(y3[train3] == 1) == 1
    assert np.sum(y3[val3] == 1) == 1


def test_fraction_split_counts():
    y = np.repeat([0, 1], 10)
    spec = SplitSpec(mode="fraction", train_frac=0.6, val_frac=0.2, test_frac=0.2)
    train, val, test = make_split(y, spec)
    check_partition(y, train, val, test)
    for c in range(2):
        assert np.sum(y[train] == c) == 6
        assert np.sum(y[val] == c) == 2
        assert np.sum(y[test] == c) == 2


def test_split_determinism_and_seed_variation():
    y = np.repeat([0, 1], 50)
    a = make_split(y, SplitSpec(seed=7))
    b = make_split(y, SplitSpec(seed=7))
    c = make_split(y, SplitSpec(seed=8))
    for xa, xb in zip(a, b):
        assert np.array_equal(xa, xb)
    assert any(not np.array_equal(xa, xc) for xa, xc in zip(a, c))


def test_split_excludes_unlabeled():
    y = np.repeat([0, 1], 40)
    y[::5] = -1
    train, val, test = make_split(y, SplitSpec(train_per_class=5, val_per_class=5))
    check_partition(y, train, val, test)
    assert np.all(y[np.concatenate([train, val, test])] >= 0)


def test_split_errors():
    with pytest.raises(ValueError, match="no labeled"):
        make_split(-np.ones(5, dtype=int), SplitSpec())
    with pytest.raises(ValueError, match="unknown split mode"):
        make_split(np.zeros(5, dtype=int), SplitSpec(mode="random"))
    with pytest.raises(ValueError, match="fractions"):
        make_split(
            np.zeros(5, dtype=int),
            SplitSpec(mode="fraction", train_frac=0.9, val_frac=0.3, test_frac=0.2),
        )


@pytest.mark.parametrize("test_frac", [-5.0, 1.5, float("nan")])
def test_fraction_split_rejects_a_test_fraction_outside_the_unit_interval(test_frac):
    spec = SplitSpec(mode="fraction", train_frac=0.6, val_frac=0.2, test_frac=test_frac)
    with pytest.raises(ValueError, match=rf"^fractions \(0\.6, 0\.2, {test_frac}\) must lie in"):
        make_split(np.repeat([0, 1], 10), spec)


def test_split_rejects_bad_per_class_counts():
    y = np.repeat([0, 1], 40)
    for t, v in ((-5, 30), (0, 30), (20, -1)):
        with pytest.raises(ValueError, match="per-class counts"):
            make_split(y, SplitSpec(train_per_class=t, val_per_class=v))
    # fraction mode does not read the per-class counts
    make_split(y, SplitSpec(mode="fraction", train_per_class=0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    y=st.lists(st.integers(-1, 3), min_size=1, max_size=40).filter(
        lambda ys: max(ys) >= 0
    ),
    train_per_class=st.integers(1, 6),
    val_per_class=st.integers(0, 6),
    fraction=st.booleans(),
    seed=st.integers(0, 3),
)
def test_split_partitions_labeled_nodes(y, train_per_class, val_per_class, fraction, seed):
    spec = SplitSpec(
        mode="fraction" if fraction else "per-class",
        train_per_class=train_per_class,
        val_per_class=val_per_class,
        seed=seed,
    )
    y = np.array(y)
    train, val, test = make_split(y, spec)
    check_partition(y, train, val, test)
    for c in np.unique(y[y >= 0]):
        assert np.any(y[train] == c), c


def test_fit_shapes_and_standardization():
    g, X, y = small_dataset()
    train, val, test = make_split(y, SplitSpec(train_per_class=10, val_per_class=5))
    config = HyperConfig(k=30, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.5)
    sc = fit(g, X, y, train, config)
    p = 9 * X.shape[1]
    assert sc.selection.k_eff == min(30, p)
    assert sc.rows(np.arange(g.n)).shape == (g.n, sc.selection.k_eff)
    assert len(selected_blocks(sc)) == sc.selection.k_eff
    assert np.array_equal(sc.classes, [0, 1])
    F_tr = sc.rows(train)
    assert sc.sigma_pca == pytest.approx(np.std(pca_residuals(F_tr, sc.subspaces)))
    assert sc.sigma_ridge == pytest.approx(np.std(ridge_scores(sc.ridge, F_tr)))
    Rp, Rr = branch_scores(sc, F_tr)
    assert np.allclose(Rp * (sc.sigma_pca + EPSILON), pca_residuals(F_tr, sc.subspaces))
    assert np.allclose(Rr * (sc.sigma_ridge + EPSILON), ridge_scores(sc.ridge, F_tr))


def test_predict_uses_original_class_ids():
    g, X, y = small_dataset()
    y = np.where(y == 0, 3, 7)  # nonconsecutive ids survive the round trip
    train, val, test = make_split(y, SplitSpec(train_per_class=10, val_per_class=5))
    sc = fit(g, X, y, train, HyperConfig(k=20, r_max=3, eta=0.95, alphas=(1.0,), w=0.5))
    yhat, S, Rp, Rr = predict(sc, sc.rows(test))
    assert np.array_equal(sc.classes, [3, 7])
    assert set(np.unique(yhat)).issubset({3, 7})
    assert S.shape == (test.size, 2)


def test_fusion_endpoints():
    g, X, y = small_dataset()
    train, _, test = make_split(y, SplitSpec(train_per_class=10, val_per_class=5))
    base = dict(k=25, r_max=3, eta=0.95, alphas=(0.5,))
    sc_p = fit(g, X, y, train, HyperConfig(w=1.0, **base))
    yhat_p, _, Rp, _ = predict(sc_p, sc_p.rows(test))
    assert np.array_equal(yhat_p, sc_p.classes[np.argmin(Rp, axis=1)])
    sc_r = fit(g, X, y, train, HyperConfig(w=0.0, **base))
    yhat_r, _, _, Rr = predict(sc_r, sc_r.rows(test))
    assert np.array_equal(yhat_r, sc_r.classes[np.argmin(Rr, axis=1)])


def naive_grid_search(g, X, y, train, val, grids):
    best = None
    for k in grids.ks:
        for r_max in grids.r_maxs:
            for eta in grids.etas:
                for alphas in grids.alpha_sets:
                    for w in grids.ws:
                        cfg = HyperConfig(
                            k=k, r_max=r_max, eta=eta, alphas=tuple(alphas), w=w
                        )
                        sc = fit(g, X, y, train, cfg)
                        yhat, _, _, _ = predict(sc, sc.rows(val))
                        acc = accuracy(yhat, y[val])
                        if best is None or acc > best[0]:
                            best = (acc, cfg)
    return best


@pytest.mark.parametrize(
    "ks, r_maxs",
    [
        ((10, 30), (2, 5)),
        # the dictionary is 9 * 5 = 45 wide, so both K levels clamp to the
        # same K_eff, and with 10 train nodes per class (rank <= 9) no r_max
        # binds: both skip rules of the search run
        ((50, 80), (12, 20)),
    ],
    ids=["distinct-levels", "repeated-levels"],
)
def test_grid_search_matches_naive_enumeration(ks, r_maxs):
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=2, p_within=0.12, p_between=0.05,
        d=5, shift=0.8, seed=5,
    )
    train, val, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=10, seed=5))
    grids = SearchGrids(
        ks=ks,
        r_maxs=r_maxs,
        etas=(0.9, 0.99),
        alpha_sets=((0.1,), (1.0, 10.0)),
        ws=(0.3, 0.5, 0.7),
    )
    config, scaffold, best_acc = grid_search(build_dictionary(g, X), y, train, val, grids=grids)
    want_acc, want_cfg = naive_grid_search(g, X, y, train, val, grids)
    assert config == want_cfg
    assert best_acc == pytest.approx(want_acc, abs=1e-12)
    sc_naive = fit(g, X, y, train, want_cfg)
    yhat_a, _, _, _ = predict(scaffold, scaffold.rows(np.arange(g.n)))
    yhat_b, _, _, _ = predict(sc_naive, sc_naive.rows(np.arange(g.n)))
    assert np.array_equal(yhat_a, yhat_b)


def loop_grid_search(dictionary, y, train, val, grids, fused):
    """The search point by point: per alpha set one fit_ridge and two
    ridge_scores, per (r_max, eta) point two pca_residuals.  Appends the
    (R~_pca, R~_ridge, w) of every fuse to ``fused``."""
    q = fisher_scores(restrict(dictionary, np.arange(dictionary.p), train)[0], y[train])
    y_tr, y_val = y[train], y[val]
    classes = np.unique(y_tr)
    Y = scaffold_module._onehot(y_tr, classes)
    alpha_sets = tuple(dict.fromkeys(tuple(a) for a in grids.alpha_sets))
    active = tuple(b.name for b in dictionary.active)
    best = None
    seen_k_eff = set()
    for k in grids.ks:
        selection = select_top_k(q, k)
        if selection.k_eff in seen_k_eff:
            continue
        seen_k_eff.add(selection.k_eff)
        F_tr = restrict(dictionary, selection.selected, train)[0]
        F_val = restrict(dictionary, selection.selected, val)[0]
        svds = class_svds(F_tr, y_tr)
        ridges = []
        for key in alpha_sets:
            model = fit_ridge(F_tr, Y, key)
            sigma_ridge = float(np.std(ridge_scores(model, F_tr)))
            Rr_val = ridge_scores(model, F_val) / (sigma_ridge + EPSILON)
            ridges.append((key, model, sigma_ridge, Rr_val))
        seen_ranks = set()
        for r_max in grids.r_maxs:
            for eta in grids.etas:
                subspaces = truncate_subspaces(svds, r_max, eta)
                ranks = tuple(s.r for s in subspaces)
                if ranks in seen_ranks:
                    continue
                seen_ranks.add(ranks)
                sigma_pca = float(np.std(pca_residuals(F_tr, subspaces)))
                Rp_val = pca_residuals(F_val, subspaces) / (sigma_pca + EPSILON)
                for key, model, sigma_ridge, Rr_val in ridges:
                    for w in grids.ws:
                        fused.append((Rp_val, Rr_val, w))
                        acc = accuracy(fuse(Rp_val, Rr_val, w, classes)[1], y_val)
                        if best is None or acc > best[0]:
                            config = HyperConfig(k, r_max, eta, key, w, active)
                            best = (acc, config, subspaces, model, sigma_pca, sigma_ridge)
    return best


@pytest.mark.parametrize("seed", [5, 7])
def test_grid_search_equals_the_point_by_point_loop(seed, monkeypatch):
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=3, p_within=0.12, p_between=0.05,
        d=5, shift=0.8, seed=seed,
    )
    train, val, test = make_split(y, SplitSpec(train_per_class=10, val_per_class=10, seed=seed))
    # a one-member class: its subspace has rank 0 at every point
    y = y.copy()
    y[test[0]] = 3
    train = np.sort(np.append(train, test[0]))
    grids = SearchGrids(
        # the dictionary is 45 wide: the last two levels clamp to one K_eff
        ks=(12, 30, 10**4, 10**5),
        r_maxs=(1, 2, 50),
        etas=(0.5, 0.9, 0.99),
        alpha_sets=((0.1, 1.0), (1.0, 10.0), (0.1, 1.0)),
        ws=(0.3, 0.5, 0.7),
    )
    dictionary = build_dictionary(g, X)
    want_fused = []
    want_acc, want_config, want_subs, want_model, want_sp, want_sr = loop_grid_search(
        dictionary, y, train, val, grids, want_fused
    )
    got_fused = []

    def recorded(Rp, Rr, w, classes):
        got_fused.append((Rp, Rr, w))
        return fuse(Rp, Rr, w, classes)

    monkeypatch.setattr(scaffold_module, "fuse", recorded)
    config, sc, acc = grid_search(dictionary, y, train, val, grids)
    # both skip rules ran: fewer points were scored than the grid holds
    assert len(want_fused) < grids.size()
    assert len(got_fused) == len(want_fused)
    for (a_p, a_r, a_w), (b_p, b_r, b_w) in zip(got_fused, want_fused):
        assert a_w == b_w
        assert np.array_equal(a_p, b_p)
        assert np.array_equal(a_r, b_r)
    assert config == want_config
    assert acc == want_acc
    assert sc.sigma_pca == want_sp
    assert sc.sigma_ridge == want_sr
    assert sc.subspaces[-1].r == 0
    for a, b in zip(sc.subspaces, want_subs, strict=True):
        assert (a.label, a.r, a.energy_fraction) == (b.label, b.r, b.energy_fraction)
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.basis, b.basis)
    assert sc.ridge.alphas == want_model.alphas
    assert sc.ridge.sigmas == want_model.sigmas
    for a, b in zip(sc.ridge.betas, want_model.betas, strict=True):
        assert np.array_equal(a, b)


def test_fraction_split_search_with_more_train_rows_than_coordinates():
    # 600 nodes and d = 16: the dictionary is 9 * 16 = 144 wide, below the
    # 360 train rows, so every K level's Gram is singular before the shift;
    # weak signal, so the winner is neither the first K level nor alpha set
    g, X, y = make_sbm_dataset(
        n_per_class=200, n_classes=3, p_within=0.03, p_between=0.025,
        d=16, shift=0.4, seed=3,
    )
    train, val, test = make_split(y, SplitSpec(mode="fraction", seed=3))
    dictionary = build_dictionary(g, X)
    assert dictionary.p == 144 < train.size == 360
    grids = SearchGrids(ks=(40, 144, 4000), r_maxs=(4, 16), etas=(0.9, 0.99))
    want_acc, want_config, want_subs, want_model, want_sp, want_sr = loop_grid_search(
        dictionary, y, train, val, grids, []
    )
    config, sc, acc = grid_search(dictionary, y, train, val, grids)
    assert config == want_config
    assert (config.k, config.alphas) == (144, grids.alpha_sets[-1])
    assert acc == want_acc
    assert sc.sigma_ridge == want_sr
    F_test = sc.rows(test)
    yhat, S, _, _ = predict(sc, F_test)
    Rp = pca_residuals(F_test, want_subs) / (want_sp + EPSILON)
    Rr = ridge_scores(want_model, F_test) / (want_sr + EPSILON)
    want_S, want_yhat = fuse(Rp, Rr, want_config.w, sc.classes)
    assert S.tobytes() == want_S.tobytes()
    assert np.array_equal(yhat, want_yhat)


def test_grid_search_does_each_k_levels_shared_work_once(monkeypatch):
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=3, p_within=0.12, p_between=0.05,
        d=5, shift=0.8, seed=7,
    )
    train, val, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=10, seed=7))
    calls = collections.Counter()
    solved = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def spd_solve(G, alpha, Y, solve=ridge_module._spd_solve):
        solved[alpha] += 1
        return solve(G, alpha, Y)

    monkeypatch.setattr(scaffold_module, "pca_residuals", counted("pca_residuals", pca_residuals))
    monkeypatch.setattr(scaffold_module, "fit_ridge", counted("fit_ridge", fit_ridge))
    monkeypatch.setattr(ridge_module, "_spd_solve", spd_solve)
    grids = SearchGrids(
        ks=(10, 30), r_maxs=(1, 2, 5), etas=(0.99,),
        alpha_sets=((0.1, 1.0), (1.0, 10.0)), ws=(0.5,),
    )
    grid_search(build_dictionary(g, X), y, train, val, grids)
    # per K level: one residual call per row set (train, val), one ridge
    # fit, and one solve per distinct alpha
    assert calls == {"pca_residuals": 2 * 2, "fit_ridge": 2}
    assert solved == {0.1: 2, 1.0: 2, 10.0: 2}


@pytest.mark.parametrize("fisher_mode", ["train", "train+val"])
def test_grid_search_scaffold_equals_fit_at_its_config(fisher_mode):
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
    config, got, _ = grid_search(
        build_dictionary(g, X), y, train, val, grids=grids, fisher_idx=fisher_idx
    )
    want = fit(g, X, y, train, config, fisher_idx=fisher_idx)
    assert got.config == want.config == config
    assert np.array_equal(got.selection.selected, want.selection.selected)
    assert np.array_equal(got.selection.scores, want.selection.scores)
    assert selected_blocks(got) == selected_blocks(want)
    assert np.array_equal(got.rows(np.arange(g.n)), want.rows(np.arange(g.n)))
    assert np.array_equal(got.classes, want.classes)
    assert np.array_equal(got.train_idx, want.train_idx)
    assert len(got.subspaces) == len(want.subspaces)
    for a, b in zip(got.subspaces, want.subspaces):
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.basis, b.basis)
        assert (a.r, a.energy_fraction) == (b.r, b.energy_fraction)
    assert got.ridge.alphas == want.ridge.alphas
    assert got.ridge.sigmas == want.ridge.sigmas
    for a, b in zip(got.ridge.betas, want.ridge.betas, strict=True):
        assert np.array_equal(a, b)
    assert got.sigma_pca == want.sigma_pca
    assert got.sigma_ridge == want.sigma_ridge


@pytest.mark.parametrize("fisher_mode", ["train", "train+val"])
def test_grid_search_val_accuracy_is_the_scaffolds(fisher_mode):
    # the search scores the val rows it gathered; the scaffold it returns
    # must score the same rows, gathered from its own F, to the same accuracy
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=3, p_within=0.12, p_between=0.05,
        d=5, shift=0.8, seed=7,
    )
    train, val, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=10, seed=7))
    fisher_idx = train if fisher_mode == "train" else np.sort(np.concatenate([train, val]))
    grids = SearchGrids(
        ks=(10, 30), r_maxs=(2, 5), etas=(0.9, 0.99),
        alpha_sets=((0.1,), (1.0, 10.0), (0.1,)), ws=(0.3, 0.5, 0.7),
    )
    _, sc, best_acc = grid_search(
        build_dictionary(g, X), y, train, val, grids=grids, fisher_idx=fisher_idx
    )
    assert best_acc == accuracy(predict(sc, sc.rows(val))[0], y[val])


@functools.cache
def three_class_scaffold():
    g, X, y = make_sbm_dataset(
        n_per_class=20, n_classes=3, p_within=0.12, p_between=0.05,
        d=5, shift=0.8, seed=3,
    )
    train, _, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=4, seed=3))
    return fit(g, X, y, train, HyperConfig(k=30, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.4))


@st.composite
def score_rows(draw):
    K = three_class_scaffold().rows([0]).shape[1]
    n = draw(st.integers(1, 12))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (n, K), elements=values))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(score_rows())
def test_branch_scores_do_not_depend_on_memory_order(rows):
    sc = three_class_scaffold()
    c_order = branch_scores(sc, np.ascontiguousarray(rows))
    f_order = branch_scores(sc, np.asfortranarray(rows))
    for a, b in zip(c_order, f_order, strict=True):
        assert np.array_equal(a, b)


def test_grid_search_requires_validation_nodes():
    g, X, y = small_dataset()
    train, _, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=5))
    with pytest.raises(ValueError, match="validation"):
        grid_search(build_dictionary(g, X), y, train, np.array([], dtype=np.int64))


def test_grid_search_with_two_points_requires_validation_nodes():
    g, X, y = small_dataset()
    train, _, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=5))
    grids = SearchGrids(ks=(10,), r_maxs=(2,), etas=(0.9,), alpha_sets=((1.0,),), ws=(0.0, 1.0))
    with pytest.raises(ValueError, match="validation set must be nonempty"):
        grid_search(
            build_dictionary(g, X), y, train, np.array([], dtype=np.int64), grids=grids
        )


def test_fit_scores_each_training_row_once_per_branch(monkeypatch):
    g, X, y = small_dataset()
    train, _, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=5))
    rows = {"pca_residuals": 0, "ridge_scores": 0}

    def counted(name, fn, rows_of):
        def wrapper(*args):
            rows[name] += rows_of(*args).shape[0]
            return fn(*args)
        return wrapper

    # pca_residuals(F, subspaces); the ridge branch scores the train rows
    # through averaged_scores(model, model.train_scores) and any other rows
    # through scores_from_cross(model, F F_tr^T)
    monkeypatch.setattr(
        scaffold_module, "pca_residuals", counted("pca_residuals", pca_residuals, lambda F, s: F)
    )
    monkeypatch.setattr(
        scaffold_module, "averaged_scores",
        counted("ridge_scores", averaged_scores, lambda model, raw: raw[0]),
    )
    monkeypatch.setattr(
        scaffold_module, "scores_from_cross",
        counted("ridge_scores", scores_from_cross, lambda model, cross: cross),
    )
    fit(g, X, y, train, HyperConfig(k=10, r_max=2, eta=0.9, alphas=(1.0,), w=0.5))
    assert rows == {"pca_residuals": len(train), "ridge_scores": len(train)}


def test_evaluate_repeats_seeds_and_summary():
    g, X, y = small_dataset()
    grids = SearchGrids(ks=(20,), r_maxs=(3,), etas=(0.95,), alpha_sets=((1.0,),), ws=(0.5,))
    spec = SplitSpec(train_per_class=8, val_per_class=6, seed=100)
    outcomes = evaluate_repeats(g, X, y, spec, n_repeats=3, grids=grids)
    assert [o.seed for o in outcomes] == [100, 101, 102]
    assert [o.repeat for o in outcomes] == [0, 1, 2]
    for o in outcomes:
        want = make_split(y, dataclasses.replace(spec, seed=o.seed, repeat=o.repeat))
        assert np.array_equal(o.train, want[0])
        assert np.array_equal(o.test, want[2])
        assert 0.0 <= o.test_accuracy <= 1.0
    summary = summarize_repeats(outcomes)
    accs = [o.test_accuracy for o in outcomes]
    assert summary["mean"] == pytest.approx(np.mean(accs))
    assert summary["std"] == pytest.approx(np.std(accs, ddof=1))
    single = summarize_repeats(outcomes[:1])
    assert single["std"] is None


def test_evaluate_repeats_keeps_the_test_scores_with_the_scaffold():
    g, X, y = small_dataset()
    grids = SearchGrids(ks=(20,), r_maxs=(3,), etas=(0.95,), alpha_sets=((1.0,),), ws=(0.5,))
    spec = SplitSpec(train_per_class=8, val_per_class=6, seed=4)
    for o in evaluate_repeats(g, X, y, spec, n_repeats=2, grids=grids):
        want = predict(o.scaffold, o.scaffold.rows(o.test))
        assert len(o.test_scores) == len(want)
        for got, ref in zip(o.test_scores, want):
            assert np.array_equal(got, ref)
        assert o.test_accuracy == accuracy(want[0], y[o.test])
    bare = evaluate_repeats(g, X, y, spec, n_repeats=1, grids=grids, keep_scaffolds=False)
    assert bare[0].scaffold is None and bare[0].test_scores is None


def test_repeats_share_one_dictionary_and_keep_no_selected_matrix():
    g, X, y = small_dataset()
    grids = SearchGrids(ks=(20,), r_maxs=(3,), etas=(0.95,), alpha_sets=((1.0,),), ws=(0.5,))
    spec = SplitSpec(train_per_class=8, val_per_class=6, seed=4)
    outcomes = evaluate_repeats(g, X, y, spec, n_repeats=3, grids=grids)
    first = outcomes[0].scaffold.dictionary
    assert all(o.scaffold.dictionary is first for o in outcomes)
    for o in outcomes:
        sc = o.scaffold
        for f in dataclasses.fields(sc):
            value = getattr(sc, f.name)
            wide = isinstance(value, np.ndarray) and value.ndim == 2
            assert not (wide and value.shape[1] == sc.selection.k_eff), f.name
        assert np.array_equal(sc.rows(o.test), first.F0[:, sc.selection.selected][o.test])


@pytest.mark.parametrize("w", [1.5, -2.0, float("nan")])
def test_fusion_weight_outside_unit_interval_fails(w):
    g, X, y = small_dataset()
    train, val, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=6))
    grids = SearchGrids(ks=(20,), r_maxs=(3,), etas=(0.95,), alpha_sets=((1.0,),), ws=(0.5, w))
    with pytest.raises(ValueError, match=rf"^w must be in \[0, 1\], got {w}$"):
        grid_search(build_dictionary(g, X), y, train, val, grids=grids)
    with pytest.raises(ValueError, match=r"^w must be in \[0, 1\]"):
        fit(g, X, y, train, HyperConfig(k=20, r_max=3, eta=0.95, alphas=(1.0,), w=w))


@pytest.mark.parametrize("axis", ["ks", "r_maxs", "etas", "alpha_sets", "ws"])
def test_grid_search_rejects_an_empty_axis(axis):
    g, X, y = small_dataset()
    train, val, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=6))
    grids = dataclasses.replace(SearchGrids(ks=(20,), r_maxs=(3,)), **{axis: ()})
    with pytest.raises(ValueError, match=rf"^grid axis {axis} is empty$"):
        grid_search(build_dictionary(g, X), y, train, val, grids=grids)
    grids = SearchGrids(ks=(20,), r_maxs=(3,), alpha_sets=((1.0,), ()))
    with pytest.raises(ValueError, match=r"^grid axis alpha_sets holds an empty alpha set$"):
        grid_search(build_dictionary(g, X), y, train, val, grids=grids)


def test_fit_rejects_unlabeled_rows():
    g, X, y = small_dataset()
    train, val, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=6))
    D = build_dictionary(g, X)
    config = HyperConfig(k=20, r_max=3, eta=0.95, alphas=(1.0,), w=0.5)
    point = SearchGrids((20,), (3,), (0.95,), ((1.0,),), (0.5,))
    wide = np.sort(np.concatenate([train, val]))
    for node, role, args in (
        (train[0], "train", (train, val, point)),
        (val[0], "val", (train, val, point)),
        (val[0], "Fisher", (train, val[1:], point, wide)),
    ):
        y_hole = y.copy()
        y_hole[node] = -1
        with pytest.raises(ValueError, match=rf"^{role} node {node} has no label$"):
            grid_search(D, y_hole, *args)
    y_hole = y.copy()
    y_hole[train[0]] = -1  # fit would otherwise learn a class -1
    with pytest.raises(ValueError, match=rf"^train node {train[0]} has no label$"):
        fit(g, X, y_hole, train, config)
    with pytest.raises(ValueError, match=rf"^Fisher node {val[0]} has no label$"):
        fit(g, X, np.where(np.arange(g.n) == val[0], -1, y), train, config, fisher_idx=wide)


@pytest.mark.parametrize("bad", [-1, 60])
def test_grid_search_rejects_rows_outside_the_graph(bad):
    g, X, y = small_dataset()
    train, val, _ = make_split(y, SplitSpec(train_per_class=8, val_per_class=6))
    D = build_dictionary(g, X)
    point = SearchGrids((20,), (3,), (0.95,), ((1.0,),), (0.5,))
    with_bad = np.append(train, bad)
    # -1 would otherwise read node n - 1's Fisher statistics
    for role, args in (
        ("train", (with_bad, val, point)),
        ("val", (train, np.append(val, bad), point)),
        ("Fisher", (train, val, point, with_bad)),
    ):
        with pytest.raises(ValueError, match=rf"^{role} node id {bad} outside \[0, 60\)$"):
            grid_search(D, y, *args)


def test_fit_is_equivariant_under_node_relabelling():
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=3, p_within=0.12, p_between=0.02,
        d=6, shift=2.0, seed=11,
    )
    train, _, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=5, seed=11))
    perm = np.random.default_rng(3).permutation(g.n)  # node i becomes perm[i]
    g_p = build_graph(g.n, perm[g.edges])
    X_p = np.empty_like(X)
    X_p[perm] = X
    y_p = np.empty_like(y)
    y_p[perm] = y
    train_p = np.sort(perm[train])
    config = HyperConfig(k=40, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.5)
    sc = fit(g, X, y, train, config)
    sc_p = fit(g_p, X_p, y_p, train_p, config)
    assert np.array_equal(sc_p.selection.selected, sc.selection.selected)
    assert np.allclose(sc_p.selection.scores, sc.selection.scores, rtol=1e-9, atol=0)
    assert selected_blocks(sc_p) == selected_blocks(sc)
    # sparse products sum neighbours in another order: equal up to rounding
    assert np.allclose(sc_p.rows(perm), sc.rows(np.arange(g.n)), rtol=1e-12, atol=1e-15)
    yhat = predict(sc, sc.rows(np.arange(g.n)))[0]
    yhat_p = predict(sc_p, sc_p.rows(np.arange(g.n)))[0]
    assert np.array_equal(yhat_p[perm], yhat)


@settings(max_examples=36, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 11),
    n_classes=st.integers(2, 4),
    perm=st.permutations(range(4)),
    fisher_mode=st.sampled_from(("train", "train+val")),
)
def test_search_is_equivariant_under_class_renaming(seed, n_classes, perm, fisher_mode):
    g, X, y = make_sbm_dataset(
        n_per_class=20, n_classes=n_classes, p_within=0.15, p_between=0.05,
        d=5, shift=1.0, seed=seed,
    )
    # the rows stay fixed: make_split draws per class in class order
    train, val, test = make_split(y, SplitSpec(train_per_class=6, val_per_class=6, seed=seed))
    fisher_idx = train if fisher_mode == "train" else np.sort(np.concatenate([train, val]))
    rename = np.array([c for c in perm if c < n_classes])
    grids = SearchGrids(
        ks=(10, 30), r_maxs=(2, 4), etas=(0.9,), alpha_sets=((0.1, 1.0),),
        ws=(0.0, 0.3, 0.5, 0.7, 1.0),
    )
    dictionary = build_dictionary(g, X)
    config, sc, acc = grid_search(dictionary, y, train, val, grids, fisher_idx)
    config_r, sc_r, acc_r = grid_search(dictionary, rename[y], train, val, grids, fisher_idx)
    assert config_r == config
    assert acc_r == acc
    yhat = predict(sc, sc.rows(test))[0]
    assert np.array_equal(predict(sc_r, sc_r.rows(test))[0], rename[yhat])


def test_evaluate_repeats_fisher_mode():
    g, X, y = small_dataset()
    grids = SearchGrids(ks=(15,), r_maxs=(2,), etas=(0.9,), alpha_sets=((1.0,),), ws=(0.4,))
    spec = SplitSpec(train_per_class=8, val_per_class=6, seed=2)
    out = evaluate_repeats(g, X, y, spec, n_repeats=1, grids=grids, fisher_mode="train+val")
    assert len(out) == 1
    with pytest.raises(ValueError, match="fisher_mode"):
        evaluate_repeats(g, X, y, spec, n_repeats=1, grids=grids, fisher_mode="test")


def test_evaluate_repeats_rejects_unreportable_runs(monkeypatch):
    g, X, y = small_dataset()
    grids = SearchGrids(ks=(15,), r_maxs=(2,), etas=(0.9,), alpha_sets=((1.0,),), ws=(0.4,))

    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluation started")

    monkeypatch.setattr("graphsig.scaffold.build_dictionary", no_evaluation)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n_repeats must be >= 1"):
            evaluate_repeats(g, X, y, SplitSpec(), n_repeats=n, grids=grids)
    # 30-member classes under the default 20/30 request keep no test node
    with pytest.raises(ValueError, match="repeat 0 .* no test nodes"):
        evaluate_repeats(g, X, y, SplitSpec(), n_repeats=2, grids=grids)


def test_accuracy_helper():
    assert accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
    assert np.isnan(accuracy([], []))
