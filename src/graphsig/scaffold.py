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
provably repeat an earlier point's validation scores are skipped.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .conventions import EPSILON
from .dictionary import BLOCK_NAMES, build_dictionary
from .fisher import fisher_scores, restrict, select_top_k
from .ridge import fit_ridge, ridge_scores
from .subspace import class_svds, fit_class_subspaces, pca_residuals, truncate_subspaces

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
    F: np.ndarray  # full n x K_eff selected matrix
    epsilon: float = EPSILON


def _onehot(y_tr, classes) -> np.ndarray:
    Y = np.zeros((y_tr.shape[0], classes.shape[0]))
    for k, c in enumerate(classes):
        Y[y_tr == c, k] = 1.0
    return Y


def fit(g, X, y, train, config: HyperConfig, fisher_idx=None, dictionary=None) -> FittedScaffold:
    """Fit the full scaffold on the training nodes.

    ``fisher_idx`` optionally widens the node set used for Fisher
    statistics (default: the training set).  A prebuilt dictionary for
    the same (g, X, active_blocks) may be passed to skip rebuilding.
    """
    y = np.asarray(y)
    train = np.asarray(train, dtype=np.int64)
    if dictionary is None:
        dictionary = build_dictionary(g, X, config.active_blocks)
    if fisher_idx is None:
        fisher_idx = train
    q = fisher_scores(dictionary, fisher_idx, y)
    selection = select_top_k(q, config.k)
    F, blocks = restrict(dictionary, selection.selected)
    F_tr = F[train]
    y_tr = y[train]
    classes = np.unique(y_tr)

    subspaces = fit_class_subspaces(F_tr, y_tr, config.r_max, config.eta)
    model = fit_ridge(F_tr, _onehot(y_tr, classes), config.alphas)

    sigma_pca = float(np.std(pca_residuals(F_tr, subspaces)))
    sigma_ridge = float(np.std(ridge_scores(model, F_tr)))

    return FittedScaffold(
        config=config,
        selection=selection,
        selected_blocks=blocks,
        subspaces=subspaces,
        ridge=model,
        sigma_pca=sigma_pca,
        sigma_ridge=sigma_ridge,
        classes=classes,
        train_idx=train,
        F=F,
    )


def branch_scores(scaffold: FittedScaffold, F_rows: np.ndarray):
    """Standardized per-branch score matrices (R~_pca, R~_ridge)."""
    eps = scaffold.epsilon
    Rp = pca_residuals(F_rows, scaffold.subspaces) / (scaffold.sigma_pca + eps)
    Rr = ridge_scores(scaffold.ridge, F_rows) / (scaffold.sigma_ridge + eps)
    return Rp, Rr


def predict(scaffold: FittedScaffold, F_rows: np.ndarray):
    """Fused prediction for the given selected-coordinate rows.

    Returns (yhat, S, R~_pca, R~_ridge); yhat entries are class ids.
    """
    Rp, Rr = branch_scores(scaffold, F_rows)
    w = scaffold.config.w
    S = w * Rp + (1.0 - w) * Rr
    yhat = scaffold.classes[np.argmin(S, axis=1)]
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
    scores once, the train and val rows of the dictionary once, the
    column gather and one SVD per class once per K, the truncation per
    (K, r_max, eta), ridge solves once per (K, alpha_set), and the w
    sweep only re-fuses precomputed branch scores.

    Two kinds of points are skipped because an earlier point already
    scored exactly the same validation predictions, so under first-wins
    they can never replace the best: a K level whose K_eff (K clamped
    to the dictionary width) repeats an earlier level's, and, within one
    K, an (r_max, eta) point whose per-class subspace ranks repeat an
    earlier point's (the basis and residuals depend on the ranks alone).

    Returns (best HyperConfig, FittedScaffold refit at it, val accuracy).
    """
    y = np.asarray(y)
    train = np.asarray(train, dtype=np.int64)
    val = np.asarray(val, dtype=np.int64)
    if val.size == 0:
        raise ValueError("validation set must be nonempty")
    if dictionary is None:
        dictionary = build_dictionary(g, X, active_blocks)
    if fisher_idx is None:
        fisher_idx = train
    q = fisher_scores(dictionary, fisher_idx, y)
    y_tr = y[train]
    y_val = y[val]
    classes = np.unique(y_tr)
    Y = _onehot(y_tr, classes)
    eps = EPSILON
    # the search reads train and val rows only
    F0_tr = dictionary.F0[train]
    F0_val = dictionary.F0[val]

    best = None  # (acc, config)
    seen_k_eff = set()
    for k in grids.ks:
        selection = select_top_k(q, k)
        if selection.k_eff in seen_k_eff:
            continue
        seen_k_eff.add(selection.k_eff)
        F_tr = F0_tr[:, selection.selected]
        F_val = F0_val[:, selection.selected]
        svds = class_svds(F_tr, y_tr)
        seen_ranks = set()
        ridge_cache = {}
        for r_max in grids.r_maxs:
            for eta in grids.etas:
                subspaces = truncate_subspaces(svds, r_max, eta)
                ranks = tuple(s.r for s in subspaces)
                if ranks in seen_ranks:
                    continue
                seen_ranks.add(ranks)
                sigma_pca = float(np.std(pca_residuals(F_tr, subspaces)))
                Rp_val = pca_residuals(F_val, subspaces) / (sigma_pca + eps)
                for alpha_set in grids.alpha_sets:
                    key = tuple(alpha_set)
                    if key not in ridge_cache:
                        model = fit_ridge(F_tr, Y, alpha_set)
                        sigma_ridge = float(np.std(ridge_scores(model, F_tr)))
                        ridge_cache[key] = (
                            ridge_scores(model, F_val) / (sigma_ridge + eps)
                        )
                    Rr_val = ridge_cache[key]
                    for w in grids.ws:
                        S = w * Rp_val + (1.0 - w) * Rr_val
                        acc = accuracy(classes[np.argmin(S, axis=1)], y_val)
                        if best is None or acc > best[0]:
                            best = (
                                acc,
                                HyperConfig(
                                    k=k,
                                    r_max=r_max,
                                    eta=eta,
                                    alphas=tuple(alpha_set),
                                    w=w,
                                    active_blocks=tuple(active_blocks),
                                ),
                            )
    best_acc, best_config = best
    # free the search's row gathers before the refit gathers all n rows
    del F0_tr, F0_val, F_tr, F_val
    scaffold = fit(g, X, y, train, best_config, fisher_idx=fisher_idx, dictionary=dictionary)
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
        yhat, _, _, _ = predict(scaffold, scaffold.F[test])
        outcomes.append(
            RepeatOutcome(
                repeat=rep,
                seed=seed,
                train=train,
                val=val,
                test=test,
                config=config,
                val_accuracy=val_acc,
                test_accuracy=accuracy(yhat, y[test]),
                scaffold=scaffold if keep_scaffolds else None,
            )
        )
    return outcomes


def summarize_repeats(outcomes) -> dict:
    """Mean and sample (n-1) std of per-repeat test accuracies."""
    accs = [o.test_accuracy for o in outcomes]
    mean = float(np.mean(accs))
    std = float(np.std(accs, ddof=1)) if len(accs) > 1 else None
    return {"accuracies": accs, "mean": mean, "std": std}
