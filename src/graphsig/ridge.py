"""Closed-form multi-alpha ridge scores in kernel (dual) form.

For each regularizer alpha the dual weights solve

    (F_tr F_tr^T + alpha I) beta = Y,

with Y one-hot over the training-present classes; scores for arbitrary
rows are Z = F F_tr^T beta.  Each alpha's score matrix is standardized
by the population standard deviation of its training-node scores, and
the final ridge score is the negated average of the standardized scores
over the alpha set, so that smaller is better like the PCA residual.
"""

from dataclasses import dataclass

import numpy as np

from .conventions import EPSILON


@dataclass(frozen=True)
class RidgeModel:
    alphas: tuple
    betas: tuple  # one (n_tr, C) array per alpha
    train_scores: tuple  # G beta per alpha: the training rows' unstandardized scores
    F_tr: np.ndarray
    epsilon: float

    @property
    def sigmas(self) -> tuple:  # training-score std per alpha, over n_tr * C scores
        return tuple(float(np.std(Z_tr)) for Z_tr in self.train_scores)

    @property
    def sigma(self) -> float:  # the branch standardizer: std of the averaged training scores
        return float(np.std(averaged_scores(self, self.train_scores)))


def _spd_solve(G: np.ndarray, alpha: float, Y: np.ndarray) -> np.ndarray:
    """Solve (G + alpha I) beta = Y on one shifted copy of G, raised by a
    jitter when it is not positive definite in floating point."""
    import scipy.linalg  # here, not at the top: importing graphsig stays numpy-only

    A = G.copy()
    diagonal = np.einsum("ii->i", A)  # a writable view of A's diagonal
    diagonal += alpha
    try:
        cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        diagonal += 1e-10 * np.trace(A) / A.shape[0]
        cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    return scipy.linalg.cho_solve(cho, Y, check_finite=False)


def fit_ridge(F_tr: np.ndarray, Y: np.ndarray, alphas, epsilon: float = EPSILON) -> RidgeModel:
    """Solve the dual system per alpha from one shared Gram matrix."""
    F_tr = np.asarray(F_tr, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    if any(a <= 0 for a in alphas):
        raise ValueError(f"alphas must all be positive, got {alphas}")
    if Y.shape[0] != F_tr.shape[0]:
        raise ValueError(
            f"label matrix rows {Y.shape[0]} do not match training rows {F_tr.shape[0]}"
        )
    G = F_tr.dot(F_tr.T)
    betas = tuple(_spd_solve(G, alpha, Y) for alpha in alphas)
    return RidgeModel(
        alphas=alphas,
        betas=betas,
        train_scores=tuple(G.dot(beta) for beta in betas),
        F_tr=F_tr,
        epsilon=float(epsilon),
    )


def ridge_scores(model: RidgeModel, F: np.ndarray) -> np.ndarray:
    """Averaged, standardized, negated ridge score matrix for the given rows.

    The rows are read C-ordered, as in ``pca_residuals``.
    """
    F = np.ascontiguousarray(F, dtype=np.float64)
    if F.shape[1] != model.F_tr.shape[1]:
        raise ValueError(
            f"feature dimension {F.shape[1]} does not match training "
            f"dimension {model.F_tr.shape[1]}"
        )
    return scores_from_cross(model, F.dot(model.F_tr.T))


def scores_from_cross(model: RidgeModel, cross: np.ndarray) -> np.ndarray:
    """The ridge score matrix of rows whose cross product with the
    training rows, ``F F_tr^T``, is ``cross``; callers that score several
    alpha sets of one training matrix compute it once."""
    return averaged_scores(model, [cross.dot(beta) for beta in model.betas])


def averaged_scores(model: RidgeModel, raw) -> np.ndarray:
    """The negated mean over the model's alphas of ``raw[a] / (sigma_a +
    epsilon)``, where ``raw[a]`` is some rows' F F_tr^T beta_a; the
    training rows' score matrix is ``averaged_scores(model,
    model.train_scores)``."""
    out = np.zeros(raw[0].shape)
    for Z, sigma in zip(raw, model.sigmas, strict=True):
        out -= Z / (sigma + model.epsilon)
    out /= len(model.alphas)
    return out
