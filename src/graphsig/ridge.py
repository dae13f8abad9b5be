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
    sigmas: tuple  # training-score std per alpha
    F_tr: np.ndarray
    epsilon: float


def _spd_solve(G: np.ndarray, alpha: float, Y: np.ndarray) -> np.ndarray:
    import scipy.linalg  # here, not at the top: importing graphsig stays numpy-only

    A = G + alpha * np.eye(G.shape[0])
    try:
        cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(cho, Y, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * np.trace(A) / A.shape[0]
    cho = scipy.linalg.cho_factor(
        A + jitter * np.eye(A.shape[0]), lower=True, check_finite=False
    )
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
    betas = []
    sigmas = []
    for alpha in alphas:
        beta = _spd_solve(G, alpha, Y)
        Z_tr = G.dot(beta)
        sigmas.append(float(np.std(Z_tr)))  # population std over n_tr * C scores
        betas.append(beta)
    return RidgeModel(
        alphas=alphas,
        betas=tuple(betas),
        sigmas=tuple(sigmas),
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
    out = np.zeros((cross.shape[0], model.betas[0].shape[1]))
    for beta, sigma in zip(model.betas, model.sigmas):
        out -= cross.dot(beta) / (sigma + model.epsilon)
    out /= len(model.alphas)
    return out
