import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsig.subspace import (
    class_svds,
    fit_class_subspaces,
    pca_residuals,
    truncate_subspaces,
)


def brute_force_residuals(F, subspaces):
    # explicit projector per class: || (I - B B^T)(v - mu) ||^2
    R = np.zeros((F.shape[0], len(subspaces)))
    for k, sub in enumerate(subspaces):
        P = sub.basis @ sub.basis.T
        for i in range(F.shape[0]):
            v = F[i] - sub.center
            R[i, k] = np.sum((v - P @ v) ** 2)
    return R


def random_instance(rng, n_classes=3):
    K = int(rng.integers(2, 6))
    rows = []
    labels = []
    for c in range(n_classes):
        n_c = int(rng.integers(2, 9))
        rows.append(rng.standard_normal((n_c, K)) + 2 * c)
        labels.extend([c] * n_c)
    return np.vstack(rows), np.array(labels), K


def test_two_point_hand_example():
    F_tr = np.array([[0.0, 1.0], [0.0, -1.0]])
    y_tr = np.array([0, 0])
    subs = fit_class_subspaces(F_tr, y_tr, r_max=5, eta=0.95)
    sub = subs[0]
    assert np.allclose(sub.center, [0.0, 0.0])
    assert sub.r == 1
    assert np.allclose(sub.basis[:, 0], [0.0, 1.0])  # sign fixed positive
    R = pca_residuals(np.array([[2.0, 0.0], [0.0, 2.0]]), subs)
    assert R[0, 0] == pytest.approx(4.0, abs=1e-12)  # orthogonal to the axis
    assert R[1, 0] == pytest.approx(0.0, abs=1e-12)  # on the axis


def test_residuals_match_brute_force_projector():
    rng = np.random.default_rng(0)
    for _ in range(30):
        F_tr, y_tr, K = random_instance(rng)
        subs = fit_class_subspaces(F_tr, y_tr, r_max=4, eta=0.9)
        F = rng.standard_normal((7, K))
        assert np.allclose(
            pca_residuals(F, subs), brute_force_residuals(F, subs), atol=1e-8
        )


def test_residuals_monotone_in_r_max():
    rng = np.random.default_rng(1)
    for _ in range(20):
        F_tr, y_tr, K = random_instance(rng)
        F = rng.standard_normal((6, K))
        prev = None
        for r_max in (1, 2, 3, 5):
            R = pca_residuals(F, fit_class_subspaces(F_tr, y_tr, r_max, eta=1.0))
            if prev is not None:
                assert np.all(R <= prev + 1e-9)
            prev = R


def test_rank_caps():
    rng = np.random.default_rng(2)
    F_tr = rng.standard_normal((4, 10))
    y_tr = np.array([0, 0, 0, 0])
    subs = fit_class_subspaces(F_tr, y_tr, r_max=8, eta=1.0)
    assert subs[0].r <= 3  # n_c - 1
    subs = fit_class_subspaces(F_tr, y_tr, r_max=2, eta=1.0)
    assert subs[0].r <= 2
    F_small = rng.standard_normal((6, 2))
    subs = fit_class_subspaces(F_small, np.zeros(6, dtype=int), r_max=8, eta=1.0)
    assert subs[0].r <= 2  # ambient dimension


def test_energy_rule_matches_manual_cumsum():
    rng = np.random.default_rng(3)
    for eta in (0.5, 0.9, 0.99):
        F_tr = rng.standard_normal((12, 6))
        y_tr = np.zeros(12, dtype=int)
        sub = fit_class_subspaces(F_tr, y_tr, r_max=6, eta=eta)[0]
        s = np.linalg.svd(F_tr - F_tr.mean(axis=0), compute_uv=False)
        energy = np.cumsum(s**2) / np.sum(s**2)
        want = int(np.searchsorted(energy, eta - 1e-15) + 1)
        assert sub.r == min(want, 6, 11)
        assert sub.energy_fraction == pytest.approx(energy[sub.r - 1])


def test_zero_variance_class():
    F_tr = np.tile([1.0, 2.0, 3.0], (4, 1))
    subs = fit_class_subspaces(F_tr, np.zeros(4, dtype=int), r_max=3, eta=0.9)
    sub = subs[0]
    assert sub.r == 0
    assert sub.energy_fraction == 1.0
    assert sub.basis.shape == (3, 0)
    R = pca_residuals(np.array([[1.0, 2.0, 4.0]]), subs)
    assert R[0, 0] == pytest.approx(1.0)  # plain distance to the center


@pytest.mark.filterwarnings("error")
def test_underflowing_class_spread_is_zero_variance():
    # distinct rows whose squared singular values underflow to 0 must not
    # reach the energy rule's 0/0
    F_tr = np.array([[0.0, 0.0], [1e-304, 0.0], [0.0, 2e-304]])
    subs = fit_class_subspaces(F_tr, np.zeros(3, dtype=int), r_max=3, eta=0.9)
    assert subs[0].r == 0
    assert np.isfinite(subs[0].energy_fraction)
    assert np.all(np.isfinite(pca_residuals(np.vstack([F_tr, [[1.0, 1.0]]]), subs)))


def test_single_member_class():
    F_tr = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    y_tr = np.array([0, 0, 1])
    subs = fit_class_subspaces(F_tr, y_tr, r_max=3, eta=0.99)
    assert subs[1].r == 0
    assert subs[1].n_members == 1


def test_labels_ascending_and_sign_deterministic():
    rng = np.random.default_rng(4)
    F_tr, y_tr, K = random_instance(rng)
    a = fit_class_subspaces(F_tr, y_tr, r_max=3, eta=0.9)
    b = fit_class_subspaces(F_tr, y_tr, r_max=3, eta=0.9)
    assert [s.label for s in a] == sorted({int(c) for c in y_tr})
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.basis, sb.basis)
        for col in range(sa.r):
            j = np.argmax(np.abs(sa.basis[:, col]))
            assert sa.basis[j, col] > 0


def test_residuals_never_negative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        F_tr, y_tr, K = random_instance(rng)
        subs = fit_class_subspaces(F_tr, y_tr, r_max=5, eta=1.0)
        R = pca_residuals(F_tr, subs)
        assert np.all(R >= 0.0)


def test_parameter_validation():
    F = np.zeros((3, 2))
    y = np.zeros(3, dtype=int)
    with pytest.raises(ValueError, match="r_max"):
        fit_class_subspaces(F, y, r_max=0, eta=0.9)
    with pytest.raises(ValueError, match="eta"):
        fit_class_subspaces(F, y, r_max=1, eta=0.0)
    with pytest.raises(ValueError, match="eta"):
        fit_class_subspaces(F, y, r_max=1, eta=1.5)
    subs = fit_class_subspaces(np.eye(3), y, r_max=1, eta=0.9)
    with pytest.raises(ValueError, match="dimension"):
        pca_residuals(np.zeros((2, 5)), subs)


@st.composite
def class_matrices(draw):
    K = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    F_tr = draw(arrays(np.float64, (n, K), elements=values))
    y_tr = draw(arrays(np.int64, n, elements=st.integers(0, 2)))
    F = draw(arrays(np.float64, (3, K), elements=values))
    return F_tr, y_tr, F


@settings(max_examples=50, deadline=None, derandomize=True)
@given(class_matrices(), st.sampled_from((0.5, 0.9, 0.99, 1.0)))
def test_truncation_properties(data, eta):
    F_tr, y_tr, F = data
    svds = class_svds(F_tr, y_tr)
    scale = 1.0 + np.max(np.abs(np.vstack([F_tr, F]))) ** 2
    prev = None
    for r_max in (1, 2, 3, 5, 8):
        subs = truncate_subspaces(svds, r_max, eta)
        direct = fit_class_subspaces(F_tr, y_tr, r_max, eta)
        for a, b in zip(subs, direct, strict=True):
            assert (a.label, a.r, a.n_members) == (b.label, b.r, b.n_members)
            assert np.array_equal(a.energy_fraction, b.energy_fraction, equal_nan=True)
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.basis, b.basis)
        R = pca_residuals(F, subs)
        assert np.all(R >= 0.0)
        if prev is not None:
            # nested bases: a larger rank cap never increases a residual
            assert np.all(R <= prev + 1e-9 * scale)
        prev = R
