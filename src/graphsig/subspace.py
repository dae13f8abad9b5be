"""Class-wise PCA subspaces and residual scores.

Each training-present class gets an affine subspace: its center plus the
top right-singular directions of the centered class matrix.  The
dimension is the smallest one whose cumulative squared-singular-value
energy reaches the threshold, then capped by the dimension budget, the
class size minus one, and the ambient dimension.  The residual of a node
against a class is the squared distance to that affine subspace,

    R_ic = ||(I - B_c B_c^T)(f_i - mu_c)||^2 = ||v||^2 - ||B_c^T v||^2.
"""

from dataclasses import dataclass, replace

import numpy as np

# singular values below this times sigma_max are treated as numerical zero
RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class ClassSubspace:
    """A class's affine subspace: every (r_max, eta) truncation of one
    class shares its ``center`` and ``directions``, and differs in ``r``."""

    label: int
    center: np.ndarray  # (K,)
    directions: np.ndarray  # (K, m) sign-fixed right-singular directions
    energy: np.ndarray  # (m,) cumulative energy fraction of each direction
    n_members: int
    r: int

    @property
    def basis(self) -> np.ndarray:
        """The (K, r) leading orthonormal columns."""
        return self.directions[:, : self.r]

    @property
    def energy_fraction(self) -> float:
        """The cumulative energy of the basis (1.0 for a rank-0 class)."""
        return float(self.energy[self.r - 1]) if self.r else 1.0


def _fix_signs(V: np.ndarray) -> np.ndarray:
    # make the largest-magnitude entry of each column positive
    if V.shape[1] == 0:
        return V
    idx = np.argmax(np.abs(V), axis=0)
    signs = np.sign(V[idx, np.arange(V.shape[1])])
    signs[signs == 0] = 1.0
    return V * signs


def class_svds(F_tr: np.ndarray, y_tr) -> list:
    """One full-rank ClassSubspace per training-present class, ascending
    label order: ``r`` counts every singular value above RANK_CUTOFF."""
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
            ClassSubspace(
                label=int(c),
                center=center,
                # signs are fixed column by column, so every truncation is a
                # leading slice of these directions
                directions=_fix_signs(Vt.T),
                energy=np.cumsum(svals**2) / np.sum(svals**2),
                n_members=rows.shape[0],
                r=svals.size,
            )
        )
    return svds


def truncate_subspaces(svds, r_max: int, eta: float) -> list:
    """The ``class_svds`` records truncated at one (r_max, eta)."""
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    subspaces = []
    for sv in svds:
        r = 0  # all class rows identical (or a single member): zero variance
        if sv.energy.size:
            r = int(np.searchsorted(sv.energy, eta - 1e-15) + 1)
            r = min(r, r_max, sv.n_members - 1, sv.center.shape[0])
        subspaces.append(replace(sv, r=r))
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
