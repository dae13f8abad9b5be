"""Ablation variants, prototype graph edits, and paired comparisons.

Variants rerun the full pipeline with a restricted block set or a pinned
fusion weight, on the same split sequence as the reference run so that
per-repeat accuracies pair up.  Graph edits produce controlled inputs:
mutual cosine-kNN densification and degree-preserving rewiring.  Paired
statistics operate on per-pair accuracy differences in percentage
points: exact sign test, exact Wilcoxon signed-rank (normal
approximation past n=20), one-sample t-test, effect size, and a
t-based 95% confidence interval.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .dictionary import BLOCK_NAMES
from .graph import build_graph
from .scaffold import SearchGrids, evaluate_repeats, summarize_repeats

_ALL = BLOCK_NAMES


@dataclass(frozen=True)
class VariantSpec:
    name: str
    active_blocks: tuple
    ws: tuple = None  # None keeps the default fusion-weight grid


VARIANTS = (
    VariantSpec("full", _ALL),
    VariantSpec("raw_only", ("X",)),
    VariantSpec(
        "no_high_pass",
        tuple(n for n in _ALL if n not in ("X-ProwX", "ProwX-Prow2X", "X-PsymX")),
    ),
    VariantSpec("no_p3x", tuple(n for n in _ALL if n != "Prow3X")),
    VariantSpec(
        "no_sym", tuple(n for n in _ALL if n not in ("PsymX", "Psym2X", "X-PsymX"))
    ),
    VariantSpec("pca_only", _ALL, ws=(1.0,)),
    VariantSpec("ridge_only", _ALL, ws=(0.0,)),
)


def variant_by_name(name: str) -> VariantSpec:
    for v in VARIANTS:
        if v.name == name:
            return v
    raise KeyError(f"unknown variant {name!r}; known: {[v.name for v in VARIANTS]}")


def run_variant(
    g, X, y, split_template, variant: VariantSpec, n_repeats=10, grids=None, **kw
):
    """Repeated evaluation of one variant; splits depend only on seeds,
    so every variant run from the same template is pair-aligned."""
    grids = grids if grids is not None else SearchGrids()
    if variant.ws is not None:
        grids = SearchGrids(
            ks=grids.ks,
            r_maxs=grids.r_maxs,
            etas=grids.etas,
            alpha_sets=grids.alpha_sets,
            ws=variant.ws,
        )
    return evaluate_repeats(
        g,
        X,
        y,
        split_template,
        n_repeats=n_repeats,
        grids=grids,
        active_blocks=variant.active_blocks,
        **kw,
    )


def run_variants(g, X, y, split_template, variants=VARIANTS, n_repeats=10, grids=None, **kw):
    return {
        v.name: run_variant(g, X, y, split_template, v, n_repeats=n_repeats, grids=grids, **kw)
        for v in variants
    }


def ablation_table(results: dict):
    """Rows of (name, per-repeat accs, mean, std, rank), rank 1 = best mean."""
    rows = [
        dict(variant=name, **summarize_repeats(outcomes))
        for name, outcomes in results.items()
    ]
    order = sorted(rows, key=lambda r: -r["mean"])
    ranks = {id(r): i + 1 for i, r in enumerate(order)}
    for r in rows:
        r["rank"] = ranks[id(r)]
    return rows


# ---------------------------------------------------------------- graph edits


def mutual_knn_densify(g, X, k: int):
    """Union the base edges with mutual cosine-kNN pairs.

    A pair (i, j) is added when each node is among the other's k most
    cosine-similar peers (ties broken by ascending index).  Rows with
    zero norm have no direction and take no part on either side.
    Returns (graph, n_added).
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n != g.n:
        raise ValueError(f"feature rows {n} != graph nodes {g.n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
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
            if i < j and i in top[j]:
                e = (i, j)
                if e not in base:
                    added.add(e)
    union = sorted(base | added)
    return build_graph(n, union), len(added)


def degree_preserving_rewire(g, fraction: float = 0.20, seed: int = 0, fallback_dropout: float = 0.15):
    """Randomize a target share of edges by double-edge swaps.

    A swap picks edges (a, b) and (c, d) and proposes (a, d), (c, b),
    rejected when it would create a self-loop or duplicate edge; the
    degree sequence is untouched by construction.  The attempt budget is
    100 * |E|; if the swap target is not reached within it, the edit
    falls back to plain uniform retention of
    floor((1 - fallback_dropout) * |E|) edges.  Returns (graph, info)
    where info records the method actually applied, swap and attempt
    counts, and the target.
    """
    if not (0 < fraction < 1):
        raise ValueError("fraction must lie in (0, 1)")
    if not (0 <= fallback_dropout < 1):
        raise ValueError("fallback_dropout must lie in [0, 1)")
    m = g.n_edges
    if m == 0:
        raise ValueError("cannot rewire an empty edge set")
    rng = np.random.default_rng(seed)
    edges = [(int(u), int(v)) for u, v in g.edges]
    present = set(edges)
    target = math.ceil(fraction * m)
    budget = 100 * m
    swaps = attempts = 0
    while swaps < target and attempts < budget:
        attempts += 1
        i, j = rng.integers(0, m, size=2)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if rng.integers(0, 2):
            c, d = d, c
        e1 = (min(a, d), max(a, d))
        e2 = (min(c, b), max(c, b))
        if a == d or c == b or e1 == e2 or e1 in present or e2 in present:
            continue
        present.discard(edges[i])
        present.discard(edges[j])
        edges[i], edges[j] = e1, e2
        present.add(e1)
        present.add(e2)
        swaps += 1

    if swaps >= target:
        info = {"method": "rewire", "swaps": swaps, "target": target, "attempts": attempts}
        return build_graph(g.n, sorted(edges)), info

    keep = int(math.floor((1.0 - fallback_dropout) * m))
    chosen = rng.choice(m, size=keep, replace=False)
    kept = sorted((int(g.edges[i, 0]), int(g.edges[i, 1])) for i in np.sort(chosen))
    info = {
        "method": "dropout",
        "swaps": swaps,
        "target": target,
        "attempts": attempts,
        "kept_edges": keep,
    }
    return build_graph(g.n, kept), info


# ------------------------------------------------------------- paired stats


@dataclass(frozen=True)
class PairedResult:
    n: int
    deltas: tuple  # percentage points, aligned by repeat/dataset
    wins: int  # count of strictly positive deltas
    mean: float
    median: float
    delta_min: float
    delta_max: float
    std: float  # sample std, n-1 denominator
    t_stat: float
    t_p: float
    effect_size: float  # mean / std; signed inf sentinel at zero variance
    ci_low: float  # 95% t-interval on the mean
    ci_high: float
    sign_p: float
    wilcoxon_stat: float
    wilcoxon_p: float
    wilcoxon_method: str  # 'exact' below 21 nonzero pairs, else 'normal'
    degenerate: bool  # zero-variance deltas; p-values are conventions


def sign_test_p(deltas) -> float:
    """Exact two-sided sign test on the nonzero deltas."""
    d = [x for x in deltas if x != 0]
    n = len(d)
    if n == 0:
        return 1.0
    k = sum(1 for x in d if x > 0)
    lo = sum(math.comb(n, i) for i in range(0, k + 1)) / 2.0**n
    hi = sum(math.comb(n, i) for i in range(k, n + 1)) / 2.0**n
    return min(1.0, 2.0 * min(lo, hi))


def _signed_ranks(d):
    """Midranks of |d| (zeros already dropped)."""
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


def wilcoxon_signed_rank(deltas, exact_limit: int = 20):
    """Two-sided Wilcoxon signed-rank test, zeros dropped.

    Up to ``exact_limit`` nonzero pairs the full sign-flip null
    distribution of W+ is enumerated (midranks doubled to stay on an
    integer lattice), so ties are handled exactly.  Beyond that a
    tie-corrected normal approximation with continuity correction is
    used.  Returns (W+, p, method).
    """
    d = np.asarray([x for x in deltas if x != 0], dtype=np.float64)
    n = len(d)
    if n == 0:
        return 0.0, 1.0, "exact"
    ranks = _signed_ranks(d)
    w_plus = float(np.sum(ranks[d > 0]))

    if n <= exact_limit:
        doubled = np.rint(2 * ranks).astype(np.int64)
        total = int(doubled.sum())
        # counts[s] = number of sign assignments with doubled W+ == s
        counts = np.zeros(total + 1, dtype=np.float64)
        counts[0] = 1.0
        for r in doubled:
            nxt = counts.copy()
            nxt[r:] += counts[: total + 1 - r]
            counts = nxt
        counts /= 2.0**n
        w2 = int(round(2 * w_plus))
        lo = float(counts[: w2 + 1].sum())
        hi = float(counts[w2:].sum())
        return w_plus, min(1.0, 2.0 * min(lo, hi)), "exact"

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= np.sum(tie_counts**3 - tie_counts) / 48.0
    num = w_plus - mean
    if num > 0:
        num -= 0.5
    elif num < 0:
        num += 0.5
    z = num / math.sqrt(var) if var > 0 else 0.0
    return w_plus, min(1.0, 2.0 * float(sps.norm.sf(abs(z)))), "normal"


def paired_stats(deltas) -> PairedResult:
    """Full paired comparison summary of a vector of differences."""
    d = np.asarray(deltas, dtype=np.float64)
    n = len(d)
    if n < 2:
        raise ValueError("paired stats need at least 2 pairs")
    mean = float(np.mean(d))
    std = float(np.std(d, ddof=1))
    se = std / math.sqrt(n)
    if se > 0:
        t_stat = mean / se
        t_p = float(2.0 * sps.t.sf(abs(t_stat), n - 1))
        effect = mean / std
    else:
        # zero spread: report degenerate sentinels rather than NaN noise
        t_stat = math.copysign(math.inf, mean) if mean != 0 else 0.0
        t_p = 0.0 if mean != 0 else 1.0
        effect = math.copysign(math.inf, mean) if mean != 0 else 0.0
    half = float(sps.t.ppf(0.975, n - 1)) * se
    w_stat, w_p, w_method = wilcoxon_signed_rank(d)
    return PairedResult(
        n=n,
        deltas=tuple(float(x) for x in d),
        wins=int(np.sum(d > 0)),
        mean=mean,
        median=float(np.median(d)),
        delta_min=float(np.min(d)),
        delta_max=float(np.max(d)),
        std=std,
        t_stat=t_stat,
        t_p=t_p,
        effect_size=effect,
        ci_low=mean - half,
        ci_high=mean + half,
        sign_p=sign_test_p(d),
        wilcoxon_stat=w_stat,
        wilcoxon_p=w_p,
        wilcoxon_method=w_method,
        degenerate=std == 0.0,
    )


def compare_runs(outcomes_a, outcomes_b) -> PairedResult:
    """Pairwise accuracy differences in percentage points, a minus b."""
    if len(outcomes_a) != len(outcomes_b):
        raise ValueError("runs must have the same number of repeats")
    deltas = [
        100.0 * (a.test_accuracy - b.test_accuracy)
        for a, b in zip(outcomes_a, outcomes_b)
    ]
    return paired_stats(deltas)
