"""Acceptance suite: one test per criterion, one pass/fail line each.

Each test prints a single [PASS]/[FAIL] line naming the criterion (shown
with -s, and on failure), and the -v test names mirror the criterion
list, so either view gives the per-criterion verdict.  Tolerances and
runtime budgets are asserted inside the tests.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from graphsig.atlas import dataset_fingerprint, node_atlas
from graphsig.dictionary import BLOCK_NAMES, build_dictionary
from graphsig.fisher import fisher_scores, restrict, select_top_k
from graphsig.graph import build_graph, propagate, row_operator, sym_operator
from graphsig.lab import (
    degree_preserving_rewire,
    mutual_knn_densify,
    paired_stats,
    variant_by_name,
)
from graphsig.ridge import fit_ridge, ridge_scores
from graphsig.scaffold import (
    HyperConfig,
    SearchGrids,
    SplitSpec,
    accuracy,
    evaluate_repeats,
    fit,
    grid_search,
    make_split,
    predict,
)
from graphsig.subspace import fit_class_subspaces, pca_residuals
from graphsig.synth import gaussian_features, make_sbm_dataset, sbm_graph


def report(cid, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {cid}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_graph(rng, n_max=50):
    n = int(rng.integers(2, n_max + 1))
    p = float(rng.uniform(0.05, 0.4))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, np.array(edges) if edges else np.zeros((0, 2), dtype=np.int64))


def test_A01_operator_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_row = worst_sym = worst_prop = 0.0
    for _ in range(50):
        g = random_graph(rng)
        P = row_operator(g)
        S = sym_operator(g)
        dense_P = P.matrix.toarray()
        dense_S = S.matrix.toarray()
        sums = dense_P.sum(axis=1)
        active = g.degree > 0
        if active.any():
            worst_row = max(worst_row, float(np.max(np.abs(sums[active] - 1.0))))
        if (~active).any():
            worst_row = max(worst_row, float(np.max(np.abs(sums[~active]))))
        worst_sym = max(worst_sym, float(np.max(np.abs(dense_S - dense_S.T))))
        X = rng.standard_normal((g.n, 3))
        worst_prop = max(
            worst_prop,
            float(np.max(np.abs(propagate(P, X) - dense_P @ X))),
            float(np.max(np.abs(propagate(S, X) - dense_S @ X))),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_row <= 1e-9 and worst_sym <= 1e-12 and worst_prop <= 1e-10 and elapsed < 5.0
    report(
        "A1",
        "operator suite: row-stochastic, symmetric, sparse==dense on 50 graphs",
        ok,
        f"row {worst_row:.1e}, sym {worst_sym:.1e}, prop {worst_prop:.1e}, {elapsed:.2f}s",
    )


def naive_fisher(F, train_idx, y, epsilon=1e-12):
    F_tr = np.asarray(F)[train_idx]
    y_tr = np.asarray(y)[train_idx]
    out = np.zeros(F_tr.shape[1])
    for j in range(F_tr.shape[1]):
        col = F_tr[:, j]
        mu = col.mean()
        num = den = 0.0
        for c in np.unique(y_tr):
            vals = col[y_tr == c]
            num += vals.size * (vals.mean() - mu) ** 2
            den += ((vals - vals.mean()) ** 2).sum()
        out[j] = num / (den + epsilon)
    return out


def test_A02_fisher_matches_naive():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 31))
        p = int(rng.integers(1, 21))
        F = rng.standard_normal((n, p))
        y = rng.integers(0, 3, size=n)
        train = np.sort(rng.choice(n, size=int(rng.integers(4, n + 1)), replace=False))
        y[train[:2]] = [0, 1]  # at least two classes among training nodes
        got = fisher_scores(F, train, y)
        worst = max(worst, float(np.max(np.abs(got - naive_fisher(F, train, y)))))
    ok = worst <= 1e-10
    report("A2", "Fisher scores match naive per-coordinate evaluation x100", ok,
           f"worst {worst:.1e}")


def test_A03_pca_projector_oracle_and_monotonicity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(60):
        K = int(rng.integers(2, 6))
        rows, labels = [], []
        for c in range(int(rng.integers(1, 4))):
            n_c = int(rng.integers(1, 9))
            rows.append(rng.standard_normal((n_c, K)) + c)
            labels += [c] * n_c
        F_tr = np.vstack(rows)
        y_tr = np.array(labels)
        subs = fit_class_subspaces(F_tr, y_tr, r_max=4, eta=0.9)
        F = rng.standard_normal((6, K))
        R = pca_residuals(F, subs)
        for k, sub in enumerate(subs):
            P = sub.basis @ sub.basis.T
            for i in range(F.shape[0]):
                v = F[i] - sub.center
                brute = float(np.sum((v - P @ v) ** 2))
                worst = max(worst, abs(R[i, k] - brute))
    mono_ok = True
    for _ in range(50):
        K = int(rng.integers(2, 7))
        F_tr = rng.standard_normal((int(rng.integers(4, 12)), K))
        y_tr = np.zeros(F_tr.shape[0], dtype=int)
        F = rng.standard_normal((5, K))
        prev = None
        for r_max in (1, 2, 4, 8):
            R = pca_residuals(F, fit_class_subspaces(F_tr, y_tr, r_max, eta=1.0))
            if prev is not None and not np.all(R <= prev + 1e-9):
                mono_ok = False
            prev = R
    ok = worst <= 1e-8 and mono_ok
    report("A3", "PCA residuals match brute-force projector; monotone in rank", ok,
           f"worst {worst:.1e}, monotone {mono_ok}")


def test_A04_ridge_dual_primal_and_hand_example():
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    for _ in range(100):
        n_tr = int(rng.integers(3, 41))
        K = int(rng.integers(2, 61))
        C = int(rng.integers(2, 5))
        F_tr = rng.standard_normal((n_tr, K))
        Y = np.eye(C)[rng.integers(0, C, size=n_tr)]
        alphas = tuple(rng.uniform(0.05, 5.0, size=int(rng.integers(1, 4))))
        model = fit_ridge(F_tr, Y, alphas)
        F = rng.standard_normal((8, K))
        got = ridge_scores(model, F)
        want = np.zeros_like(got)
        for alpha in alphas:
            W = np.linalg.solve(F_tr.T @ F_tr + alpha * np.eye(K), F_tr.T @ Y)
            sigma = np.std(F_tr @ W)
            want -= (F @ W) / (sigma + model.epsilon)
        want /= len(alphas)
        scale = np.maximum(np.abs(want), 1e-12)
        worst_rel = max(worst_rel, float(np.max(np.abs(got - want) / scale)))
    model = fit_ridge(np.array([[1.0], [-1.0]]), np.eye(2), alphas=(1.0,), epsilon=0.0)
    hand = ridge_scores(model, np.array([[1.0]]))
    hand_err = float(np.max(np.abs(hand - np.array([[-1.0, 1.0]]))))
    ok = worst_rel <= 1e-6 and hand_err <= 1e-12
    report("A4", "ridge dual equals primal x100; two-node hand example [-1,+1]", ok,
           f"worst rel {worst_rel:.1e}, hand {hand_err:.1e}")


def test_A05_fusion_endpoints_exact():
    ok = True
    for seed in range(5):
        g, X, y = make_sbm_dataset(
            n_per_class=20, n_classes=2, p_within=0.15, p_between=0.05,
            d=5, shift=1.0, seed=seed,
        )
        train, _, test = make_split(y, SplitSpec(train_per_class=8, val_per_class=4, seed=seed))
        base = dict(k=20, r_max=3, eta=0.95, alphas=(0.5, 2.0))
        sc1 = fit(g, X, y, train, HyperConfig(w=1.0, **base))
        yh1, _, Rp, _ = predict(sc1, sc1.rows(test))
        sc0 = fit(g, X, y, train, HyperConfig(w=0.0, **base))
        yh0, _, _, Rr = predict(sc0, sc0.rows(test))
        if not np.array_equal(yh1, sc1.classes[np.argmin(Rp, axis=1)]):
            ok = False
        if not np.array_equal(yh0, sc0.classes[np.argmin(Rr, axis=1)]):
            ok = False
    report("A5", "fusion endpoints w=1 / w=0 reproduce the branch argmins exactly", ok)


def test_A06_cached_grid_search_equals_naive():
    t0 = time.perf_counter()
    g, X, y = make_sbm_dataset(
        n_per_class=30, n_classes=2, p_within=0.12, p_between=0.05,
        d=6, shift=0.8, seed=6,
    )
    train, val, _ = make_split(y, SplitSpec(train_per_class=10, val_per_class=10, seed=6))
    grids = SearchGrids(
        ks=(12, 40),
        r_maxs=(2, 5),
        etas=(0.9, 0.99),
        alpha_sets=((0.1,), (1.0, 10.0)),
        ws=(0.3, 0.5, 0.7),
    )
    config, scaffold, best_acc = grid_search(g, X, y, train, val, grids=grids)

    dictionary = build_dictionary(g, X, BLOCK_NAMES)
    best = None
    for k in grids.ks:
        for r_max in grids.r_maxs:
            for eta in grids.etas:
                for alphas in grids.alpha_sets:
                    for w in grids.ws:
                        cfg = HyperConfig(k=k, r_max=r_max, eta=eta, alphas=tuple(alphas), w=w)
                        sc = fit(g, X, y, train, cfg, dictionary=dictionary)
                        acc = accuracy(predict(sc, sc.rows(val))[0], y[val])
                        if best is None or acc > best[0]:
                            best = (acc, cfg)
    naive_acc, naive_cfg = best
    sc_naive = fit(g, X, y, train, naive_cfg, dictionary=dictionary)
    pred_cached = predict(scaffold, scaffold.rows(np.arange(g.n)))[0]
    pred_naive = predict(sc_naive, sc_naive.rows(np.arange(g.n)))[0]
    elapsed = time.perf_counter() - t0
    ok = (
        config == naive_cfg
        and best_acc == naive_acc
        and np.array_equal(pred_cached, pred_naive)
        and elapsed < 60.0
    )
    report("A6", "cached grid search equals naive refit-per-config search", ok,
           f"config match {config == naive_cfg}, {elapsed:.2f}s")


def test_A07_atlas_normalizations_and_error_shift():
    # weak signal on a near-random graph guarantees mixed correctness
    g, y = sbm_graph((60, 60), 0.06, 0.04, seed=7)
    X = gaussian_features(y, 12, shift=0.35, seed=8)
    train, val, test = make_split(y, SplitSpec(seed=7))
    sc = fit(g, X, y, train, HyperConfig(k=60, r_max=8, eta=0.95, alphas=(0.1, 1.0), w=0.5))
    records = node_atlas(sc, test, y, degree=g.degree)
    share_ok = all(
        abs(sum(r.block_share.values()) - 1.0) <= 1e-9
        and abs(sum(r.family_share.values()) - 1.0) <= 1e-9
        for r in records
        if not r.zero_evidence
    )
    fp = dataset_fingerprint(records, sc.subspaces)
    quad_ok = abs(sum(fp.quadrant_fractions.values()) - 1.0) <= 1e-12
    counts = sum(
        sum(1 for r in records if r.quadrant == qd) for qd in fp.quadrant_fractions
    )
    quad_ok = quad_ok and counts == len(records)
    mixed = fp.high_share_correct is not None and fp.high_share_wrong is not None
    shift_ok = mixed and fp.high_share_shift == fp.high_share_wrong - fp.high_share_correct
    ok = share_ok and quad_ok and shift_ok
    report("A7", "atlas shares sum to one; quadrants partition; error shift exact", ok,
           f"shares {share_ok}, quadrants {quad_ok}, shift {shift_ok}")


def test_A08_paired_stats_reference_values():
    t0 = time.perf_counter()
    r = paired_stats((1.87, 0.39, 0.92, 2.97, 1.99, 0.98))
    elapsed = time.perf_counter() - t0
    checks = {
        "mean": abs(r.mean - 1.52) <= 0.005,
        "sign": abs(r.sign_p - 0.03125) <= 1e-12,
        "wilcoxon": abs(r.wilcoxon_p - 0.03125) <= 1e-12,
        "t": abs(r.t_p - 0.0105) <= 5e-4,
        "ci": abs(r.ci_low - 0.54) <= 0.02 and abs(r.ci_high - 2.50) <= 0.02,
        "d_z": abs(r.effect_size - 1.62) <= 0.01,
        "time": elapsed < 1.0,
    }
    ok = all(checks.values())
    report("A8", "paired statistics reproduce the six reference gains", ok,
           ", ".join(f"{k}={v}" for k, v in checks.items()))


def _fingerprints(g, X, y, n_repeats=10):
    outcomes = evaluate_repeats(g, X, y, SplitSpec(seed=0), n_repeats=n_repeats)
    fps = []
    for o in outcomes:
        records = node_atlas(o.scaffold, o.test, y)
        fps.append(dataset_fingerprint(records, o.scaffold.subspaces))
    return outcomes, fps


def test_A09_sbm_directional_fingerprints():
    t0 = time.perf_counter()
    g_hom, y = sbm_graph((100, 100), 0.10, 0.01, seed=1)
    X = gaussian_features(y, 20, shift=0.6, seed=2)
    hom_out, hom_fp = _fingerprints(g_hom, X, y)
    mean_acc = float(np.mean([o.test_accuracy for o in hom_out]))
    low_wins = sum(
        1 for fp in hom_fp if fp.low_share > fp.raw_share and fp.low_share > fp.high_share
    )
    g_het, y2 = sbm_graph((100, 100), 0.01, 0.10, seed=1)
    assert np.array_equal(y, y2)
    _, het_fp = _fingerprints(g_het, X, y)
    high_wins = sum(1 for a, b in zip(het_fp, hom_fp) if a.high_share > b.high_share)
    elapsed = time.perf_counter() - t0
    ok = mean_acc >= 0.90 and low_wins >= 9 and high_wins >= 9 and elapsed < 120.0
    report(
        "A9",
        "homophilic SBM: accurate + low-pass-dominant; edge swap raises high-pass",
        ok,
        f"acc {mean_acc:.3f}, low wins {low_wins}/10, high wins {high_wins}/10, {elapsed:.1f}s",
    )


def _row_normalize(X):
    norms = np.linalg.norm(X, axis=1)
    out = np.zeros_like(np.asarray(X, dtype=np.float64))
    nz = norms > 0
    out[nz] = X[nz] / norms[nz, None]
    return out


def test_A10_intervention_variants():
    g, X, y = make_sbm_dataset(
        n_per_class=40, n_classes=2, p_within=0.1, p_between=0.03,
        d=12, shift=1.0, seed=10,
    )
    train, val, test = make_split(y, SplitSpec(train_per_class=15, val_per_class=10, seed=10))
    base = dict(k=10, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.6)

    raw_cfg = HyperConfig(active_blocks=variant_by_name("raw_only").active_blocks, **base)
    sc_raw = fit(g, X, y, train, raw_cfg)
    pred_raw = predict(sc_raw, sc_raw.rows(np.arange(g.n)))[0]

    # independent classifier straight from row-normalized features
    Xn = _row_normalize(X)
    q = fisher_scores(Xn, train, y)
    sel = select_top_k(q, base["k"])
    Fn = Xn[:, sel.selected]
    y_tr = y[train]
    classes = np.unique(y_tr)
    subs = fit_class_subspaces(Fn[train], y_tr, base["r_max"], base["eta"])
    Y = np.zeros((train.size, classes.size))
    for kk, c in enumerate(classes):
        Y[y_tr == c, kk] = 1.0
    model = fit_ridge(Fn[train], Y, base["alphas"])
    eps = sc_raw.epsilon
    s_p = float(np.std(pca_residuals(Fn[train], subs)))
    s_r = float(np.std(ridge_scores(model, Fn[train])))
    S = base["w"] * (pca_residuals(Fn, subs) / (s_p + eps)) + (1 - base["w"]) * (
        ridge_scores(model, Fn) / (s_r + eps)
    )
    pred_ind = classes[np.argmin(S, axis=1)]
    raw_ok = np.array_equal(pred_raw, pred_ind)

    nhp_cfg = HyperConfig(
        active_blocks=variant_by_name("no_high_pass").active_blocks,
        k=40, r_max=4, eta=0.95, alphas=(0.1, 1.0), w=0.6,
    )
    sc_nhp = fit(g, X, y, train, nhp_cfg)
    records = node_atlas(sc_nhp, test, y)
    fp = dataset_fingerprint(records, sc_nhp.subspaces)
    nhp_ok = all(r.family_share["high"] == 0.0 for r in records) and fp.high_share == 0.0
    ok = raw_ok and nhp_ok
    report(
        "A10",
        "raw-only equals independent normalized-feature classifier; "
        "no-high-pass shows zero high share",
        ok,
        f"raw exact {raw_ok}, high zero {nhp_ok}",
    )


def test_A11_prototype_constructors():
    rng = np.random.default_rng(11)
    degree_ok = True
    for seed in range(100):
        n = int(rng.integers(20, 41))
        p = float(rng.uniform(0.12, 0.25))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = build_graph(n, np.array(edges))
        g2, info = degree_preserving_rewire(g, fraction=0.2, seed=seed)
        if info["method"] != "rewire" or not np.array_equal(g2.degree, g.degree):
            degree_ok = False
            break

    X = np.array([
        [1.0, 0.0],
        [0.9, 0.1],
        [0.0, 1.0],
        [0.1, 0.9],
        [1.0, 1.0],
    ])
    empty = build_graph(5, np.zeros((0, 2), dtype=np.int64))
    g1, _ = mutual_knn_densify(empty, X, k=1)
    knn_ok = {tuple(e) for e in g1.edges.tolist()} == {(0, 1), (2, 3)}
    g2k, _ = mutual_knn_densify(empty, X, k=2)
    knn_ok = knn_ok and {tuple(e) for e in g2k.edges.tolist()} == {
        (0, 1), (1, 4), (2, 3), (3, 4),
    }
    for gk in (g1, g2k):
        knn_ok = knn_ok and np.all(gk.edges[:, 0] < gk.edges[:, 1])  # canonical, no loops
        sym_diff = (gk.adj - gk.adj.T)
        knn_ok = knn_ok and (abs(sym_diff).sum() == 0)
    ok = degree_ok and knn_ok
    report("A11", "rewire preserves degrees across 100 seeds; mutual kNN exact on hand tables",
           ok, f"degrees {degree_ok}, knn {knn_ok}")


def test_A12_external_datasets_optional():
    root = os.environ.get("GRAPHSIG_EXTERNAL_DATA")
    if not root:
        print("[PASS] A12: optional external-data checks skipped (GRAPHSIG_EXTERNAL_DATA unset)")
        pytest.skip("external datasets not supplied")
    from graphsig.io import load_dataset

    failures = []
    for name in sorted(os.listdir(root)):
        ddir = os.path.join(root, name)
        expect_path = os.path.join(ddir, "expected.json")
        if not os.path.isdir(ddir) or not os.path.exists(expect_path):
            continue
        with open(expect_path) as fh:
            expected = json.load(fh)
        bundle = load_dataset(
            os.path.join(ddir, "edges.csv"),
            os.path.join(ddir, "features.csv"),
            os.path.join(ddir, "labels.csv"),
            name=name,
            quiet=True,
        )
        if "edge_count" in expected:
            want = expected["edge_count"]
            if abs(bundle.graph.n_edges - want) > 0.005 * want:
                failures.append(f"{name}: edges {bundle.graph.n_edges} vs {want}")
        mode = expected.get("split_mode", "per-class")
        outcomes = evaluate_repeats(
            bundle.graph, bundle.X, bundle.y, SplitSpec(mode=mode, seed=0), n_repeats=10
        )
        acc = 100.0 * float(np.mean([o.test_accuracy for o in outcomes]))
        if "accuracy_pct" in expected:
            tol = expected.get("accuracy_tolerance_pct", 2.0)
            if abs(acc - expected["accuracy_pct"]) > tol:
                failures.append(f"{name}: accuracy {acc:.2f} vs {expected['accuracy_pct']}")
        if "family_shares_pct" in expected:
            fps = []
            for o in outcomes:
                records = node_atlas(o.scaffold, o.test, bundle.y)
                fps.append(dataset_fingerprint(records, o.scaffold.subspaces))
            got = {
                "raw": 100 * np.mean([f.raw_share for f in fps]),
                "low": 100 * np.mean([f.low_share for f in fps]),
                "high": 100 * np.mean([f.high_share for f in fps]),
            }
            for fam, want in expected["family_shares_pct"].items():
                if abs(got[fam] - want) > 3.0:
                    failures.append(f"{name}: {fam} share {got[fam]:.2f} vs {want}")
    ok = not failures
    report("A12", "external dataset reproduction", ok, "; ".join(failures) or "all matched")
