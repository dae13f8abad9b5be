"""End-to-end fit, prediction, grid search, and repeated evaluation.

The fitted scaffold chains dictionary -> Fisher selection -> class
subspaces -> multi-alpha ridge, all statistics computed on training
nodes only.  Both branch score matrices are standardized by their
training-split population standard deviation and fused as

    S = w * R~_pca + (1 - w) * R~_ridge,   yhat = argmin_c S,

with argmin ties broken by ascending class id.  Hyperparameters are
selected by validation accuracy over the default grids (K, r_max, eta,
alpha set, w), enumerated in deterministic lexicographic order; work
shared by a grid level runs once at that level, and points that
provably repeat an earlier point's validation scores are skipped.  The
search is the one fit path: it assembles the scaffold at its winning
point, and ``fit`` is the search over a one-point grid.
"""

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .conventions import EPSILON
from .dictionary import BLOCK_NAMES, SignalDictionary, block_by_name, build_dictionary
from .fisher import fisher_scores, restrict, select_top_k
from .graph import node_ids
from .ridge import fit_ridge, ridge_scores, scores_from_cross
from .subspace import class_svds, pca_residuals, truncate_subspaces

DEFAULT_K_GRID = (4000, 5000, 6000, 8000)
DEFAULT_RMAX_GRID = (32, 48, 64, 96)
DEFAULT_ETA_GRID = (0.90, 0.95, 0.99)
DEFAULT_ALPHA_SETS = ((0.01, 0.1, 1.0), (0.05, 0.5, 5.0), (0.1, 1.0, 10.0))
DEFAULT_W_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class SearchGrids:
    ks: tuple = DEFAULT_K_GRID
    r_maxs: tuple = DEFAULT_RMAX_GRID
    etas: tuple = DEFAULT_ETA_GRID
    alpha_sets: tuple = DEFAULT_ALPHA_SETS
    ws: tuple = DEFAULT_W_GRID

    def size(self) -> int:
        return (
            len(self.ks)
            * len(self.r_maxs)
            * len(self.etas)
            * len(self.alpha_sets)
            * len(self.ws)
        )


@dataclass(frozen=True)
class HyperConfig:
    k: int
    r_max: int
    eta: float
    alphas: tuple
    w: float
    active_blocks: tuple = BLOCK_NAMES

    def to_dict(self) -> dict:
        fields = dataclasses.asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}

    @classmethod
    def from_dict(cls, d) -> "HyperConfig":
        """The config whose ``to_dict`` is ``d``: a missing field raises a
        KeyError; a non-object, a field of another JSON kind or an unknown
        block (with the lookup's message) a ValueError."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {type(d).__name__}")
        for name, kind, fits, _ in _CONFIG_FIELDS:
            if not fits(value := d[name]):
                raise ValueError(f"config {name} must be {kind}, got {json.dumps(value)}")
        try:
            return cls(**{name: cast(d[name]) for name, _, _, cast in _CONFIG_FIELDS})
        except KeyError as err:  # an unknown block
            raise ValueError(err.args[0]) from None


# each HyperConfig field once: its JSON kind, the test of its JSON value
# (a bool's type is bool, not int) and its cast
_INT, _NUMBER = (lambda v: type(v) is int), (lambda v: type(v) in (int, float))
_CONFIG_FIELDS = (
    ("k", "an integer", _INT, int),
    ("r_max", "an integer", _INT, int),
    ("eta", "a number", _NUMBER, float),
    ("alphas", "a list of numbers", lambda v: type(v) is list and all(map(_NUMBER, v)),
     lambda v: tuple(map(float, v))),
    ("w", "a number", _NUMBER, float),
    ("active_blocks", "a list of strings",
     lambda v: type(v) is list and all(type(b) is str for b in v),
     lambda v: tuple(block_by_name(b).name for b in v)),
)


@dataclass(frozen=True)
class SplitSpec:
    """Class-balanced split request.

    mode 'per-class': take train_per_class then val_per_class members of
    each class, remainder to test; classes too small for the exact counts
    are allocated proportionally (floored) with at least one train member.
    mode 'fraction': per-class floor(n_c * frac) for train and val,
    remainder to test.  Indices are drawn with numpy's PCG64 generator
    seeded by ``seed``, so splits reproduce across platforms.
    """

    mode: str = "per-class"
    train_per_class: int = 20
    val_per_class: int = 30
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    seed: int = 0
    repeat: int = 0


def make_split(y, spec: SplitSpec):
    """Deterministic class-balanced (train, val, test) index arrays."""
    y = np.asarray(y)
    labeled = np.flatnonzero(y >= 0)
    if labeled.size == 0:
        raise ValueError("no labeled nodes to split")
    if spec.mode not in ("per-class", "fraction"):
        raise ValueError(f"unknown split mode {spec.mode!r}")
    if spec.mode == "per-class" and (spec.train_per_class < 1 or spec.val_per_class < 0):
        raise ValueError(
            f"per-class counts need train >= 1 and val >= 0, got "
            f"{spec.train_per_class} and {spec.val_per_class}"
        )
    if spec.mode == "fraction":
        fracs = (spec.train_frac, spec.val_frac, spec.test_frac)
        total = sum(fracs)
        if not (0 < fracs[0] < 1 and 0 <= fracs[1] < 1 and 0 <= fracs[2] <= 1):
            raise ValueError(f"fractions {fracs} must lie in (0,1), [0,1) and [0,1]")
        if abs(total - 1) > 1e-9:
            raise ValueError(f"fractions {fracs} sum to {total:.10g}, not 1")

    rng = np.random.default_rng(spec.seed)
    train, val, test = [], [], []
    for c in np.unique(y[labeled]):
        members = labeled[y[labeled] == c]
        n_c = members.shape[0]
        perm = members[rng.permutation(n_c)]
        if spec.mode == "per-class":
            t_req, v_req = spec.train_per_class, spec.val_per_class
            if n_c >= t_req + v_req:
                t_c, v_c = t_req, v_req
            else:
                scale = n_c / (t_req + v_req)
                t_c = max(1, int(t_req * scale))
                v_c = int(v_req * scale)
                v_c = min(v_c, n_c - t_c)
        else:
            t_c = max(1, int(n_c * spec.train_frac))
            v_c = min(int(n_c * spec.val_frac), n_c - t_c)
        train.extend(perm[:t_c])
        val.extend(perm[t_c : t_c + v_c])
        test.extend(perm[t_c + v_c :])
    return (
        np.sort(np.array(train, dtype=np.int64)),
        np.sort(np.array(val, dtype=np.int64)),
        np.sort(np.array(test, dtype=np.int64)),
    )


@dataclass(frozen=True)
class FittedScaffold:
    """One fit: what it read and what it fitted, nothing else (a snapshot
    file's ``extra`` comes back beside it from ``io.load_snapshot``)."""

    config: HyperConfig
    selection: object  # FisherSelection
    subspaces: list
    ridge: object  # RidgeModel; its ``sigma`` standardizes the ridge branch
    sigma_pca: float
    train_idx: np.ndarray
    fisher_idx: np.ndarray  # the rows the Fisher scores read
    labels: np.ndarray  # class id per node, -1 where the fit read no label
    dictionary: SignalDictionary  # the matrix the selection indexes; rows() reads it

    @property
    def classes(self) -> np.ndarray:  # training-present class ids, ascending, one per subspace
        return np.array([s.label for s in self.subspaces], dtype=np.int64)

    def rows(self, idx) -> np.ndarray:
        """The selected coordinates of nodes ``idx``, read from the dictionary."""
        return restrict(self.dictionary, self.selection.selected, idx)[0]


def _onehot(y_tr, classes) -> np.ndarray:
    Y = np.zeros((y_tr.shape[0], classes.shape[0]))
    for k, c in enumerate(classes):
        Y[y_tr == c, k] = 1.0
    return Y


def fit(g, X, y, train, config: HyperConfig, fisher_idx=None) -> FittedScaffold:
    """Fit the full scaffold on the training nodes at one configuration.

    This is ``grid_search`` over the one-point grid at ``config``, on the
    dictionary of ``config.active_blocks``.  ``fisher_idx`` optionally
    widens the node set used for Fisher statistics (default: the
    training set).
    """
    point = SearchGrids(
        (config.k,), (config.r_max,), (config.eta,), (config.alphas,), (config.w,)
    )
    dictionary = build_dictionary(g, X, config.active_blocks)
    # a one-point grid leaves nothing to choose, so it reads no validation rows
    _, scaffold, _ = grid_search(dictionary, y, train, (), point, fisher_idx)
    return scaffold


def fuse(Rp, Rr, w: float, classes):
    """Fused scores S = w * R~_pca + (1 - w) * R~_ridge and their argmin class ids."""
    S = w * Rp + (1.0 - w) * Rr
    return S, classes[np.argmin(S, axis=1)]


def predict(scaffold: FittedScaffold, F_rows: np.ndarray):
    """Fused prediction for the given selected-coordinate rows.

    Returns (yhat, S, R~_pca, R~_ridge); yhat entries are class ids.
    """
    Rp = pca_residuals(F_rows, scaffold.subspaces) / (scaffold.sigma_pca + EPSILON)
    Rr = ridge_scores(scaffold.ridge, F_rows) / (scaffold.ridge.sigma + EPSILON)
    S, yhat = fuse(Rp, Rr, scaffold.config.w, scaffold.classes)
    return yhat, S, Rp, Rr


def accuracy(yhat, y_true) -> float:
    yhat = np.asarray(yhat)
    y_true = np.asarray(y_true)
    return float(np.mean(yhat == y_true)) if yhat.size else float("nan")


def grid_search(
    dictionary: SignalDictionary,
    y,
    train,
    val,
    grids: SearchGrids = SearchGrids(),
    fisher_idx=None,
):
    """Validation-accuracy search over the full grid cross-product.

    The search builds nothing: it fits on ``dictionary`` alone, and the
    config it returns names that dictionary's active blocks, in
    canonical block order.

    Enumeration is lexicographic in (K, r_max, eta, alpha_set, w); the
    first configuration attaining the maximum validation accuracy wins.
    Shared work runs once per grid level: the Fisher scores once; per
    K the gather of the selected columns' train and val rows, one SVD
    per class, one ``pca_residuals`` call per row set over the
    subspaces of every (r_max, eta) point (one centering per class, one
    projection per point and class), one ``fit_ridge`` over the
    distinct alphas of all alpha sets, whose Gram gives every alpha
    set's train scores, and one cross product of the val rows with the
    train rows, which every alpha set's val scores read; the truncation
    per (K, r_max, eta); and the w sweep only re-fuses precomputed
    branch scores.  Each point's scores are bitwise those of scoring it
    alone.

    Three kinds of points are skipped because an earlier point already
    scored exactly the same validation predictions, so under first-wins
    they can never replace the best: a K level whose K_eff (K clamped
    to the dictionary width) repeats an earlier level's; within one K,
    an (r_max, eta) point whose per-class subspace ranks repeat an
    earlier point's (the basis and residuals depend on the ranks alone);
    and an alpha set that repeats an earlier one.

    The winning point's selection, subspaces and ridge model are kept
    as they were scored; the returned scaffold is assembled from them
    and the dictionary, which ``rows`` reads.  It also records what the
    fit read: ``fisher_idx``, and ``labels`` holding the train and
    Fisher rows' labels and -1 elsewhere, so that
    ``fit(g, X, scaffold.labels, scaffold.train_idx, config,
    fisher_idx=scaffold.fisher_idx)`` rebuilds it.

    A one-point grid may take an empty ``val``: there is nothing to
    choose, and the val accuracy is then NaN.  An empty grid axis or
    alpha set fails, as do train, val or Fisher rows that fail
    ``graph.node_ids`` with labels ``y`` (one class id per node, -1 where
    unknown): a boolean mask is not read as nodes 0 and 1.

    Returns (best HyperConfig, FittedScaffold at it, val accuracy).
    """
    return grid_searches(dictionary, y, train, val, grids, fisher_idx, [grids.ws])[0]


def grid_searches(dictionary: SignalDictionary, y, train, val, grids, fisher_idx, w_grids):
    """``grid_search`` with each of ``w_grids`` in place of ``grids.ws``,
    as one search: each point is fused once per distinct weight, and each
    grid keeps its own first-wins winner, bitwise its own search's."""
    y = np.asarray(y)
    for axis in ("ks", "r_maxs", "etas", "alpha_sets"):
        if not getattr(grids, axis):
            raise ValueError(f"grid axis {axis} is empty")
    if not all(w_grids):
        raise ValueError("grid axis ws is empty")
    if not all(grids.alpha_sets):
        raise ValueError("grid axis alpha_sets holds an empty alpha set")
    train = node_ids(train, dictionary.n, "train", y)
    val = node_ids(val, dictionary.n, "val", y)
    fisher_idx = train if fisher_idx is None else node_ids(fisher_idx, dictionary.n, "Fisher", y)
    if val.size == 0 and any(dataclasses.replace(grids, ws=ws).size() > 1 for ws in w_grids):
        raise ValueError("validation set must be nonempty")
    sweep = tuple(dict.fromkeys(w for ws in w_grids for w in ws))
    for w in sweep:
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"w must be in [0, 1], got {w}")
    # the Fisher rows over every coordinate, ids checked above
    q = fisher_scores(restrict(dictionary, np.arange(dictionary.p), fisher_idx)[0], y[fisher_idx])
    y_tr = y[train]
    y_val = y[val]
    classes = np.unique(y_tr)
    Y = _onehot(y_tr, classes)
    # a repeated alpha set scores what its first occurrence scored
    alpha_sets = tuple(dict.fromkeys(tuple(a) for a in grids.alpha_sets))
    blocks = tuple(b.name for b in dictionary.active)
    # what every returned scaffold records besides its point
    labels = np.full(y.shape[0], -1, dtype=np.int64)
    labels[train], labels[fisher_idx] = y[train], y[fisher_idx]
    recorded = dict(train_idx=train, fisher_idx=fisher_idx, labels=labels)

    best = [None] * len(w_grids)  # per w grid: (HyperConfig, FittedScaffold, val accuracy)
    seen_k_eff = set()
    for k in grids.ks:
        selection = select_top_k(q, k)
        if selection.k_eff in seen_k_eff:
            continue
        seen_k_eff.add(selection.k_eff)
        # the search reads train and val rows only
        F_tr = restrict(dictionary, selection.selected, train)[0]
        F_val = restrict(dictionary, selection.selected, val)[0]
        svds = class_svds(F_tr, y_tr)
        points = []  # (r_max, eta, subspaces) whose ranks no earlier point had
        seen_ranks = set()
        for r_max in grids.r_maxs:
            for eta in grids.etas:
                subspaces = truncate_subspaces(svds, r_max, eta)
                ranks = tuple(s.r for s in subspaces)
                if ranks not in seen_ranks:
                    seen_ranks.add(ranks)
                    points.append((r_max, eta, subspaces))
        # every point's residuals from one call per row set: the calls
        # share each class's centering
        stacked = [s for _, _, subspaces in points for s in subspaces]
        R_tr = pca_residuals(F_tr, stacked)
        R_val = pca_residuals(F_val, stacked)
        # one solve per distinct alpha serves every alpha set; the train
        # scores come from the solve's Gram, the val scores from one cross
        # product with the train rows
        distinct = tuple(dict.fromkeys(float(a) for key in alpha_sets for a in key))
        union = fit_ridge(F_tr, Y, distinct)
        solved = dict(zip(union.alphas, zip(union.betas, union.train_scores)))
        cross_val = F_val.dot(union.F_tr.T)
        ridges = []
        for key in alpha_sets:
            alphas = tuple(float(a) for a in key)
            betas, scores = zip(*(solved[a] for a in alphas))
            model = dataclasses.replace(union, alphas=alphas, betas=betas, train_scores=scores)
            Rr_val = scores_from_cross(model, cross_val) / (model.sigma + EPSILON)
            ridges.append((key, model, Rr_val))
        C = len(svds)
        for p, (r_max, eta, subspaces) in enumerate(points):
            cols = slice(p * C, (p + 1) * C)
            # the std reads a C-ordered copy, as it read a one-point matrix
            sigma_pca = float(np.std(np.ascontiguousarray(R_tr[:, cols])))
            Rp_val = R_val[:, cols] / (sigma_pca + EPSILON)
            for key, model, Rr_val in ridges:
                accs = {w: accuracy(fuse(Rp_val, Rr_val, w, classes)[1], y_val) for w in sweep}
                for i, ws in enumerate(w_grids):
                    for w in ws:
                        if best[i] is None or accs[w] > best[i][2]:
                            config = HyperConfig(
                                k=k, r_max=r_max, eta=eta, alphas=key, w=w, active_blocks=blocks
                            )
                            scaffold = FittedScaffold(
                                config=config, selection=selection, subspaces=subspaces,
                                ridge=model, sigma_pca=sigma_pca, dictionary=dictionary, **recorded,
                            )
                            best[i] = (config, scaffold, accs[w])
    return best


@dataclass
class RepeatOutcome:
    repeat: int
    seed: int
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    config: HyperConfig
    val_accuracy: float
    test_accuracy: float
    scaffold: FittedScaffold = field(repr=False, default=None)
    # predict(scaffold, scaffold.rows(test)), kept with the scaffold so the
    # atlas of the test rows does not score them again
    test_scores: tuple = field(repr=False, default=None)


def draw_splits(y, split_template: SplitSpec, n_repeats: int, fisher_mode: str) -> list:
    """Every repeat's (repeat, seed, train, val, test, Fisher rows): repeat
    i uses seed = template seed + i.  All are drawn, and checked to hold
    test nodes, before the caller evaluates any."""
    if fisher_mode not in ("train", "train+val"):
        raise ValueError(f"unknown fisher_mode {fisher_mode!r}")
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    splits = []
    for rep in range(n_repeats):
        seed = split_template.seed + rep
        train, val, test = make_split(y, dataclasses.replace(split_template, seed=seed))
        if test.size == 0:
            raise ValueError(
                f"repeat {rep} (seed {seed}) has no test nodes: the split "
                "gives every labeled node to train or val"
            )
        fisher_idx = train if fisher_mode == "train" else np.sort(np.concatenate([train, val]))
        splits.append((rep, seed, train, val, test, fisher_idx))
    return splits


def repeat_outcome(split, y, found, keep_scaffolds: bool) -> RepeatOutcome:
    """The search result ``found`` on ``split``, a ``draw_splits`` entry:
    its scaffold scores the test rows, which nothing read before."""
    rep, seed, train, val, test, _ = split
    config, scaffold, val_acc = found
    scores = predict(scaffold, scaffold.rows(test))
    kept = (scaffold, scores) if keep_scaffolds else (None, None)
    return RepeatOutcome(
        rep, seed, train, val, test, config, val_acc, accuracy(scores[0], y[test]), *kept
    )


def evaluate_repeats(
    g,
    X,
    y,
    split_template: SplitSpec,
    n_repeats: int = 10,
    grids: SearchGrids = SearchGrids(),
    active_blocks=BLOCK_NAMES,
    fisher_mode: str = "train",
    keep_scaffolds: bool = True,
):
    """Grid-search and test-evaluate over repeated class-balanced splits.

    The splits come from ``draw_splits``.  Test labels are touched only
    by the final accuracy computation; selection sees train and val only.
    """
    y = np.asarray(y)
    splits = draw_splits(y, split_template, n_repeats, fisher_mode)
    dictionary = build_dictionary(g, X, active_blocks)
    outcomes = []
    for split in splits:
        _, _, train, val, _, fisher_idx = split
        found = grid_search(dictionary, y, train, val, grids, fisher_idx)
        outcomes.append(repeat_outcome(split, y, found, keep_scaffolds))
    return outcomes


def summarize_repeats(outcomes) -> dict:
    """Mean and sample (n-1) std of per-repeat test accuracies."""
    accs = [o.test_accuracy for o in outcomes]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else None
    return {"accuracies": accs, "mean": mean, "std": std}
