"""Ablation variants, prototype graph edits, and paired comparisons.

Variants restrict the block set or pin the fusion weight of one
evaluation, sharing its split sequence, so that per-repeat accuracies
pair up, its dictionary and, per block set, its search.  Graph edits
produce controlled inputs: mutual cosine-kNN densification and
degree-preserving rewiring.  Paired statistics operate on per-pair
accuracy differences in percentage points: exact sign test, exact
Wilcoxon signed-rank (normal approximation past n=20), one-sample
t-test, effect size, and a t-based 95% confidence interval.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import BLOCK_NAMES, BLOCKS, build_dictionary, canonical_blocks
from .graph import build_graph
from .scaffold import SearchGrids, draw_splits, grid_searches, repeat_outcome, summarize_repeats

_ALL = BLOCK_NAMES
_KNN_SORT_CELLS = 1 << 16  # similarities per kNN sort block, about 1 MiB of scratch


@dataclass(frozen=True)
class VariantSpec:
    name: str
    active_blocks: tuple
    ws: tuple = None  # None keeps the default fusion-weight grid


VARIANTS = (
    VariantSpec("full", _ALL),
    VariantSpec("raw_only", ("X",)),
    VariantSpec("no_high_pass", tuple(b.name for b in BLOCKS if b.family != "high")),
    VariantSpec("no_p3x", tuple(n for n in _ALL if n != "Prow3X")),
    VariantSpec("no_sym", tuple(b.name for b in BLOCKS if b.operator != "sym")),
    VariantSpec("pca_only", _ALL, ws=(1.0,)),
    VariantSpec("ridge_only", _ALL, ws=(0.0,)),
)


def variant_by_name(name: str) -> VariantSpec:
    for v in VARIANTS:
        if v.name == name:
            return v
    raise KeyError(f"unknown variant {name!r}; known: {', '.join(v.name for v in VARIANTS)}")


def run_variant(
    g, X, y, split_template, variant: VariantSpec, n_repeats=10, grids=None, **kw
):
    """``run_variants`` of the one variant."""
    return run_variants(g, X, y, split_template, [variant], n_repeats, grids, **kw)[variant.name]


def run_variants(
    g, X, y, split_template, variants=VARIANTS, n_repeats=10, grids=None,
    fisher_mode="train", keep_scaffolds=True,
):
    """Each variant's ``evaluate_repeats`` outcomes, from one evaluation:
    one split draw, so the repeats pair up; one dictionary, read through
    ``subset`` views; and one search per block subset and split, each
    variant choosing among its own weights (``grids.ws`` where None)."""
    grids = grids if grids is not None else SearchGrids()
    variants = {v.name: v for v in variants}.values()  # a repeated name keeps the last
    y = np.asarray(y)
    splits = draw_splits(y, split_template, n_repeats, fisher_mode)
    full = build_dictionary(g, X, [b for v in variants for b in v.active_blocks])
    by_blocks = {}  # canonical block subset -> the variants on it
    for v in variants:
        by_blocks.setdefault(canonical_blocks(v.active_blocks), []).append(v)
    results = {v.name: [] for v in variants}
    for blocks, group in by_blocks.items():
        view = full.subset(blocks)
        w_grids = [grids.ws if v.ws is None else v.ws for v in group]
        for split in splits:
            _, _, train, val, _, fisher_idx = split
            found = grid_searches(view, y, train, val, grids, fisher_idx, w_grids)
            for v, f in zip(group, found):
                results[v.name].append(repeat_outcome(split, y, f, keep_scaffolds))
    return results


def ablation_table(results: dict):
    """Rows of (name, per-repeat accs, mean, std, rank), rank 1 = best mean."""
    rows = [
        dict(variant=name, **summarize_repeats(outcomes))
        for name, outcomes in results.items()
    ]
    # a stable sort: tied means rank in input order
    for rank, r in enumerate(sorted(rows, key=lambda r: -r["mean"]), start=1):
        r["rank"] = rank
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

    # a stable sort of -sims orders each row by descending similarity,
    # ties by ascending index; blocks of rows bound the sort's scratch
    top = np.empty((n, k), dtype=np.int64)
    step = max(1, _KNN_SORT_CELLS // n)
    for start in range(0, n, step):
        block = -sims[start : start + step]
        top[start : start + step] = np.argsort(block, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = top.ravel()
    live = nonzero[rows] & np.isfinite(sims[rows, cols])
    rows, cols = rows[live], cols[live]
    # (i, j) is mutual when (j, i) is live too
    mutual = (rows < cols) & np.isin(rows * n + cols, cols * n + rows)
    pairs = np.stack([rows[mutual], cols[mutual]], axis=1)
    g2 = build_graph(n, np.concatenate([g.edges, pairs]))
    return g2, g2.n_edges - g.n_edges


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
        return build_graph(g.n, edges), info

    keep = int(math.floor((1.0 - fallback_dropout) * m))
    chosen = rng.choice(m, size=keep, replace=False)
    info = {
        "method": "dropout",
        "swaps": swaps,
        "target": target,
        "attempts": attempts,
        "kept_edges": keep,
    }
    return build_graph(g.n, g.edges[chosen]), info


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
    _, group, counts = np.unique(
        np.abs(np.asarray(d, dtype=np.float64)), return_inverse=True, return_counts=True
    )
    # a group of c ties ending at 1-based rank e spans e - c + 1 .. e
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[group]


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
    from scipy.special import ndtr

    return w_plus, min(1.0, 2.0 * float(ndtr(-abs(z)))), "normal"


def paired_stats(deltas) -> PairedResult:
    """Full paired comparison summary of a vector of differences."""
    # scipy.special (not scipy.stats) gives the t distribution; imported
    # here so that only the verbs that compare runs load it
    from scipy.special import stdtr, stdtrit

    d = np.asarray(deltas, dtype=np.float64)
    n = len(d)
    if n < 2:
        raise ValueError("paired stats need at least 2 pairs")
    bad = d[~np.isfinite(d)]
    if bad.size:
        raise ValueError(f"delta {bad[0]} is not finite")
    mean = float(np.mean(d))
    std = float(np.std(d, ddof=1))
    se = std / math.sqrt(n)
    if se > 0:
        t_stat = mean / se
        t_p = float(2.0 * stdtr(n - 1, -abs(t_stat)))
        effect = mean / std
    else:
        # zero spread: report degenerate sentinels rather than NaN noise
        t_stat = math.copysign(math.inf, mean) if mean != 0 else 0.0
        t_p = 0.0 if mean != 0 else 1.0
        effect = math.copysign(math.inf, mean) if mean != 0 else 0.0
    half = float(stdtrit(n - 1, 0.975)) * se
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
