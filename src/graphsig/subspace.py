"""Class-wise PCA subspaces and residual scores.

Each training-present class gets an affine subspace: its center plus the
top right-singular directions of the centered class matrix.  The
dimension is the smallest one whose cumulative squared-singular-value
energy reaches the threshold, then capped by the dimension budget, the
class size minus one, and the ambient dimension.  The residual of a node
against a class is the squared distance to that affine subspace,

    R_ic = ||(I - B_c B_c^T)(f_i - mu_c)||^2 = ||v||^2 - ||B_c^T v||^2.
"""

from dataclasses import dataclass

import numpy as np

# singular values below this times sigma_max are treated as numerical zero
RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class ClassSubspace:
    label: int
    center: np.ndarray  # (K,)
    basis: np.ndarray  # (K, r) orthonormal columns
    r: int
    energy_fraction: float
    n_members: int


def _fix_signs(V: np.ndarray) -> np.ndarray:
    # make the largest-magnitude entry of each column positive
    if V.shape[1] == 0:
        return V
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


@dataclass(frozen=True)
class ClassSVD:
    """Centered-class SVD that every (r_max, eta) truncation shares."""

    label: int
    center: np.ndarray  # (K,)
    svals: np.ndarray  # singular values above RANK_CUTOFF, descending
    basis: np.ndarray  # (K, len(svals)) sign-fixed right-singular directions
    n_members: int


def class_svds(F_tr: np.ndarray, y_tr) -> list:
    """One ClassSVD per training-present class, ascending label order."""
    F_tr = np.asarray(F_tr, dtype=np.float64)
    y_tr = np.asarray(y_tr)
    K = F_tr.shape[1]

    svds = []
    for c in np.unique(y_tr):
        rows = F_tr[y_tr == c]
        center = rows.mean(axis=0)
        # bitwise-identical rows must not pick up rank from the 1-ulp
        # rounding the mean introduces, so test identity before centering
        if np.all(rows == rows[0]):
            svals = np.zeros(0)
            Vt = np.zeros((0, K))
        else:
            _, svals, Vt = np.linalg.svd(rows - center, full_matrices=False)
            # a spread whose energy underflows is zero variance too: the
            # energy fractions would be 0/0
            if svals.size and svals[0] ** 2 >= np.finfo(np.float64).tiny:
                svals = svals[svals > RANK_CUTOFF * svals[0]]
            else:
                svals = svals[:0]
            Vt = Vt[: svals.size]
        svds.append(
            ClassSVD(
                label=int(c),
                center=center,
                svals=svals,
                # signs are fixed column by column, so every truncation is a
                # leading slice of this one basis
                basis=_fix_signs(Vt.T),
                n_members=rows.shape[0],
            )
        )
    return svds


def truncate_subspaces(svds, r_max: int, eta: float) -> list:
    """ClassSubspaces at one (r_max, eta) from precomputed class SVDs."""
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    subspaces = []
    for sv in svds:
        K = sv.center.shape[0]
        if sv.svals.size == 0:
            # all class rows identical (or a single member): zero variance
            r, achieved = 0, 1.0
        else:
            energy = np.cumsum(sv.svals**2) / np.sum(sv.svals**2)
            r = int(np.searchsorted(energy, eta - 1e-15) + 1)
            r = min(r, r_max, sv.n_members - 1, K)
            achieved = float(energy[r - 1]) if r > 0 else 0.0
        subspaces.append(
            ClassSubspace(
                label=sv.label,
                center=sv.center,
                basis=sv.basis[:, :r],
                r=r,
                energy_fraction=achieved,
                n_members=sv.n_members,
            )
        )
    return subspaces


def fit_class_subspaces(F_tr: np.ndarray, y_tr, r_max: int, eta: float) -> list:
    """Fit one ClassSubspace per training-present class, ascending label order."""
    return truncate_subspaces(class_svds(F_tr, y_tr), r_max, eta)


def pca_residuals(F: np.ndarray, subspaces) -> np.ndarray:
    """Residual matrix, nodes x subspaces, via the norm-difference identity.

    The rows are read C-ordered: the products round differently for
    another memory order, and a score must depend on the rows' values
    only.  The rows are centered, and their squared norms taken, once
    per distinct ``center`` object; each subspace gets its own projection
    (a column slice of a wider rank's would round differently).
    """
    F = np.ascontiguousarray(F, dtype=np.float64)
    by_center = {}  # id(center) -> column indices, in first-seen order
    for k, sub in enumerate(subspaces):
        if F.shape[1] != sub.center.shape[0]:
            raise ValueError(
                f"feature dimension {F.shape[1]} does not match subspace "
                f"dimension {sub.center.shape[0]}"
            )
        by_center.setdefault(id(sub.center), []).append(k)
    R = np.empty((F.shape[0], len(subspaces)))
    V = np.empty_like(F)  # one centered buffer, reused by every center
    for cols in by_center.values():
        np.subtract(F, subspaces[cols[0]].center, out=V)
        total = np.einsum("ij,ij->i", V, V)
        for k in cols:
            # a rank-0 basis is K x 0: its projection sums nothing
            proj = V.dot(subspaces[k].basis)
            R[:, k] = total - np.einsum("ij,ij->i", proj, proj)
    # the identity can go a hair negative in floating point
    np.clip(R, 0.0, None, out=R)
    return R
