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
from dataclasses import dataclass, field

import numpy as np

from .conventions import EPSILON
from .dictionary import BLOCK_NAMES, SignalDictionary, build_dictionary
from .fisher import fisher_scores, restrict, select_top_k
from .ridge import fit_ridge, ridge_scores
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
        return {
            "k": self.k,
            "r_max": self.r_max,
            "eta": self.eta,
            "alphas": list(self.alphas),
            "w": self.w,
            "active_blocks": list(self.active_blocks),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HyperConfig":
        return cls(
            k=int(d["k"]),
            r_max=int(d["r_max"]),
            eta=float(d["eta"]),
            alphas=tuple(float(a) for a in d["alphas"]),
            w=float(d["w"]),
            active_blocks=tuple(d["active_blocks"]),
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
        total = spec.train_frac + spec.val_frac + spec.test_frac
        if not (0 < spec.train_frac < 1 and 0 <= spec.val_frac < 1):
            raise ValueError("fractions must lie in (0,1)")
        if total > 1 + 1e-9:
            raise ValueError(f"fractions sum to {total:.4f} > 1")

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
    config: HyperConfig
    selection: object  # FisherSelection
    selected_blocks: tuple  # BlockId per selected coordinate
    subspaces: list
    ridge: object  # RidgeModel
    sigma_pca: float
    sigma_ridge: float
    classes: np.ndarray  # training-present class ids, ascending
    train_idx: np.ndarray
    fisher_idx: np.ndarray  # the rows the Fisher scores read
    labels: np.ndarray  # class id per node, -1 where the fit read no label
    dictionary: SignalDictionary  # the matrix the selection indexes; rows() reads it
    epsilon: float = EPSILON
    extra: dict = field(default_factory=dict)  # a loaded snapshot's "extra"

    @property
    def n_coordinates(self) -> int:
        """Width of the dictionary the selection was made from."""
        return int(self.selection.scores.shape[0])

    def rows(self, idx) -> np.ndarray:
        """The selected coordinates of nodes ``idx``, read from the dictionary."""
        return restrict(self.dictionary, self.selection.selected, idx)[0]


def _onehot(y_tr, classes) -> np.ndarray:
    Y = np.zeros((y_tr.shape[0], classes.shape[0]))
    for k, c in enumerate(classes):
        Y[y_tr == c, k] = 1.0
    return Y


def fit(g, X, y, train, config: HyperConfig, fisher_idx=None, dictionary=None) -> FittedScaffold:
    """Fit the full scaffold on the training nodes at one configuration.

    This is ``grid_search`` over the one-point grid at ``config``.
    ``fisher_idx`` optionally widens the node set used for Fisher
    statistics (default: the training set).  A prebuilt dictionary for
    the same (g, X, active_blocks) may be passed to skip rebuilding.
    """
    point = SearchGrids(
        (config.k,), (config.r_max,), (config.eta,), (config.alphas,), (config.w,)
    )
    # a one-point grid leaves nothing to choose, so it reads no validation rows
    _, scaffold, _ = grid_search(
        g, X, y, train, (), point, config.active_blocks, fisher_idx, dictionary
    )
    return scaffold


def branch_scores(scaffold: FittedScaffold, F_rows: np.ndarray):
    """Standardized per-branch score matrices (R~_pca, R~_ridge)."""
    eps = scaffold.epsilon
    Rp = pca_residuals(F_rows, scaffold.subspaces) / (scaffold.sigma_pca + eps)
    Rr = ridge_scores(scaffold.ridge, F_rows) / (scaffold.sigma_ridge + eps)
    return Rp, Rr


def fuse(Rp, Rr, w: float, classes):
    """Fused scores S = w * R~_pca + (1 - w) * R~_ridge and their argmin class ids."""
    S = w * Rp + (1.0 - w) * Rr
    return S, classes[np.argmin(S, axis=1)]


def predict(scaffold: FittedScaffold, F_rows: np.ndarray):
    """Fused prediction for the given selected-coordinate rows.

    Returns (yhat, S, R~_pca, R~_ridge); yhat entries are class ids.
    """
    Rp, Rr = branch_scores(scaffold, F_rows)
    S, yhat = fuse(Rp, Rr, scaffold.config.w, scaffold.classes)
    return yhat, S, Rp, Rr


def accuracy(yhat, y_true) -> float:
    yhat = np.asarray(yhat)
    y_true = np.asarray(y_true)
    return float(np.mean(yhat == y_true)) if yhat.size else float("nan")


def grid_search(
    g,
    X,
    y,
    train,
    val,
    grids: SearchGrids = SearchGrids(),
    active_blocks=BLOCK_NAMES,
    fisher_idx=None,
    dictionary=None,
):
    """Validation-accuracy search over the full grid cross-product.

    Enumeration is lexicographic in (K, r_max, eta, alpha_set, w); the
    first configuration attaining the maximum validation accuracy wins.
    Shared work runs once per grid level: the dictionary and Fisher
    scores once, the gather of the selected columns' train and val rows
    and one SVD per class once per K, the truncation per (K, r_max,
    eta), ridge solves once per (K, alpha_set), and the w sweep only
    re-fuses precomputed branch scores.

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
    choose, and the val accuracy is then NaN.

    Returns (best HyperConfig, FittedScaffold at it, val accuracy).
    """
    y = np.asarray(y)
    train = np.asarray(train, dtype=np.int64)
    val = np.asarray(val, dtype=np.int64)
    if val.size == 0 and grids.size() > 1:
        raise ValueError("validation set must be nonempty")
    for w in grids.ws:
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"w must be in [0, 1], got {w}")
    if dictionary is None:
        dictionary = build_dictionary(g, X, active_blocks)
    fisher_idx = train if fisher_idx is None else np.asarray(fisher_idx, dtype=np.int64)
    q = fisher_scores(dictionary, fisher_idx, y)
    y_tr = y[train]
    y_val = y[val]
    classes = np.unique(y_tr)
    Y = _onehot(y_tr, classes)
    eps = EPSILON
    # a repeated alpha set scores what its first occurrence scored
    alpha_sets = tuple(dict.fromkeys(tuple(a) for a in grids.alpha_sets))

    best = None  # (val accuracy, config, pieces fitted at it)
    seen_k_eff = set()
    for k in grids.ks:
        selection = select_top_k(q, k)
        if selection.k_eff in seen_k_eff:
            continue
        seen_k_eff.add(selection.k_eff)
        # the search reads train and val rows only
        F_tr, blocks = restrict(dictionary, selection.selected, train)
        F_val = restrict(dictionary, selection.selected, val)[0]
        svds = class_svds(F_tr, y_tr)
        ridges = []
        for key in alpha_sets:
            model = fit_ridge(F_tr, Y, key)
            sigma_ridge = float(np.std(ridge_scores(model, F_tr)))
            Rr_val = ridge_scores(model, F_val) / (sigma_ridge + eps)
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
                Rp_val = pca_residuals(F_val, subspaces) / (sigma_pca + eps)
                for key, model, sigma_ridge, Rr_val in ridges:
                    for w in grids.ws:
                        _, yhat = fuse(Rp_val, Rr_val, w, classes)
                        acc = accuracy(yhat, y_val)
                        if best is None or acc > best[0]:
                            config = HyperConfig(
                                k=k,
                                r_max=r_max,
                                eta=eta,
                                alphas=key,
                                w=w,
                                active_blocks=tuple(active_blocks),
                            )
                            pieces = (selection, blocks, subspaces, model, sigma_pca, sigma_ridge)
                            best = (acc, config, pieces)
    best_acc, best_config, (selection, blocks, subspaces, model, sigma_pca, sigma_ridge) = best
    read = np.concatenate([train, fisher_idx])
    labels = np.full(y.shape[0], -1, dtype=np.int64)
    labels[read] = y[read]
    scaffold = FittedScaffold(
        config=best_config,
        selection=selection,
        selected_blocks=blocks,
        subspaces=subspaces,
        ridge=model,
        sigma_pca=sigma_pca,
        sigma_ridge=sigma_ridge,
        classes=classes,
        train_idx=train,
        fisher_idx=fisher_idx,
        labels=labels,
        dictionary=dictionary,
    )
    return best_config, scaffold, best_acc


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

    Repeat i uses seed = template seed + i.  Test labels are touched only
    by the final accuracy computation; selection sees train and val only.
    Every split is drawn, and checked to hold test nodes, before any
    evaluation starts.
    """
    if fisher_mode not in ("train", "train+val"):
        raise ValueError(f"unknown fisher_mode {fisher_mode!r}")
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    y = np.asarray(y)
    splits = []
    for rep in range(n_repeats):
        seed = split_template.seed + rep
        spec = dataclasses.replace(split_template, seed=seed, repeat=rep)
        train, val, test = make_split(y, spec)
        if test.size == 0:
            raise ValueError(
                f"repeat {rep} (seed {seed}) has no test nodes: the split "
                "gives every labeled node to train or val"
            )
        splits.append((rep, seed, train, val, test))
    dictionary = build_dictionary(g, X, active_blocks)
    outcomes = []
    for rep, seed, train, val, test in splits:
        fisher_idx = (
            train if fisher_mode == "train" else np.sort(np.concatenate([train, val]))
        )
        config, scaffold, val_acc = grid_search(
            g,
            X,
            y,
            train,
            val,
            grids=grids,
            active_blocks=active_blocks,
            fisher_idx=fisher_idx,
            dictionary=dictionary,
        )
        scores = predict(scaffold, scaffold.rows(test))
        outcomes.append(
            RepeatOutcome(
                repeat=rep,
                seed=seed,
                train=train,
                val=val,
                test=test,
                config=config,
                val_accuracy=val_acc,
                test_accuracy=accuracy(scores[0], y[test]),
                scaffold=scaffold if keep_scaffolds else None,
                test_scores=scores if keep_scaffolds else None,
            )
        )
    return outcomes


def summarize_repeats(outcomes) -> dict:
    """Mean and sample (n-1) std of per-repeat test accuracies."""
    accs = [o.test_accuracy for o in outcomes]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else None
    return {"accuracies": accs, "mean": mean, "std": std}
