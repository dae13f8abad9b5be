import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsig.subspace import (
    RANK_CUTOFF,
    ClassSubspace,
    _fix_signs,
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


def centered_copy_residuals(F, subspaces):
    # the residuals with a fresh centered copy of F per class: the oracle
    # for pca_residuals, which reuses one centered buffer
    F = np.ascontiguousarray(F, dtype=np.float64)
    R = np.empty((F.shape[0], len(subspaces)))
    for k, sub in enumerate(subspaces):
        V = F - sub.center
        total = np.einsum("ij,ij->i", V, V)
        if sub.r > 0:
            proj = V.dot(sub.basis)
            total = total - np.einsum("ij,ij->i", proj, proj)
        R[:, k] = total
    np.clip(R, 0.0, None, out=R)
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


@settings(max_examples=50, deadline=None, derandomize=True)
@given(class_matrices(), st.integers(1, 6), st.sampled_from((0.5, 0.9, 1.0)))
def test_residuals_equal_the_centered_copy_form(data, r_max, eta):
    F_tr, y_tr, F = data
    subs = fit_class_subspaces(F_tr, y_tr, r_max, eta)
    for rows in (F, F_tr, np.asfortranarray(F_tr)):
        assert np.array_equal(pca_residuals(rows, subs), centered_copy_residuals(rows, subs))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    class_matrices(),
    st.lists(
        st.tuples(st.integers(1, 6), st.sampled_from((0.5, 0.9, 0.99, 1.0))),
        min_size=1,
        max_size=5,
    ),
)
def test_one_call_over_many_truncations_equals_one_call_each(data, points):
    F_tr, y_tr, F = data
    svds = class_svds(F_tr, y_tr)
    truncations = [truncate_subspaces(svds, r_max, eta) for r_max, eta in points]
    for subs in truncations:
        for sub in subs:
            # the basis is the leading slice of one sign-fixed basis: the
            # sign fix of a fresh SVD truncated to r first
            members = F_tr[y_tr == sub.label]
            Vt = np.linalg.svd(members - sub.center, full_matrices=False)[2]
            if sub.r:
                assert np.array_equal(sub.basis, _fix_signs(Vt[: sub.r].T))
    concat = [sub for subs in truncations for sub in subs]
    for rows in (F, F_tr):
        want = np.hstack([pca_residuals(rows, subs) for subs in truncations])
        assert np.array_equal(pca_residuals(rows, concat), want)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_subspaces_sharing_a_center_are_scored_by_their_own_bases(K, seed):
    # one center object, one label and one rank: only the basis memory
    # tells the subspaces apart, and it includes the strides (Q[:, :2] and
    # Q[:, ::2] share a data pointer and a shape)
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(K)
    Q = np.linalg.qr(rng.standard_normal((K, K)))[0]
    bases = [Q[:, :1], Q[:, 1:2], Q[:, :1].copy(), Q[:, :1]]
    if K >= 4:
        bases += [Q[:, :2], Q[:, ::2][:, :2], Q[:, 2:4]]
    subs = [
        ClassSubspace(
            label=0,
            center=center,
            directions=b,
            energy=np.ones(b.shape[1]),
            n_members=K,
            r=b.shape[1],
        )
        for b in bases
    ]
    F = rng.standard_normal((5, K)) + 3.0 * center
    R = pca_residuals(F, subs)
    assert np.array_equal(R, centered_copy_residuals(F, subs))
    assert not np.array_equal(R[:, 0], R[:, 1])
    if K >= 4:
        assert not np.array_equal(R[:, 4], R[:, 5])
        assert not np.array_equal(R[:, 4], R[:, 6])


def stored_truncation(F_tr, y_tr, r_max, eta):
    # the rule of the records that stored their singular values and their
    # truncated basis and energy fraction: (label, r, energy_fraction,
    # basis) per class, the oracle for the records that store neither
    out = []
    for c in np.unique(y_tr):
        rows = F_tr[y_tr == c]
        center = rows.mean(axis=0)
        if np.all(rows == rows[0]):
            svals, Vt = np.zeros(0), np.zeros((0, F_tr.shape[1]))
        else:
            _, svals, Vt = np.linalg.svd(rows - center, full_matrices=False)
            if svals.size and svals[0] ** 2 >= np.finfo(np.float64).tiny:
                svals = svals[svals > RANK_CUTOFF * svals[0]]
            else:
                svals = svals[:0]
            Vt = Vt[: svals.size]
        basis = _fix_signs(Vt.T)
        if svals.size == 0:
            r, achieved = 0, 1.0
        else:
            energy = np.cumsum(svals**2) / np.sum(svals**2)
            r = int(np.searchsorted(energy, eta - 1e-15) + 1)
            r = min(r, r_max, rows.shape[0] - 1, F_tr.shape[1])
            achieved = float(energy[r - 1]) if r > 0 else 0.0
        out.append((int(c), r, achieved, basis[:, :r]))
    return out


@st.composite
def class_kinds(draw):
    # each class is a spread, identical rows, a single member, or a spread
    # whose squared singular values underflow
    K = draw(st.integers(1, 6))
    kinds = st.sampled_from(("spread", "identical", "single", "underflow"))
    values = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    blocks, labels = [], []
    for c, kind in enumerate(draw(st.lists(kinds, min_size=1, max_size=4))):
        n_c = 1 if kind == "single" else draw(st.integers(2, 9))
        if kind == "identical":
            block = np.tile(draw(arrays(np.float64, K, elements=values)), (n_c, 1))
        else:
            block = draw(arrays(np.float64, (n_c, K), elements=values))
        blocks.append(block * 1e-170 if kind == "underflow" else block)
        labels += [c] * n_c
    return np.vstack(blocks), np.array(labels)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    class_kinds(),
    st.one_of(st.sampled_from((0.5, 0.9, 0.99, 1.0)), st.floats(1e-6, 1.0)),
)
def test_truncations_equal_the_stored_record_rule_bitwise(data, eta):
    F_tr, y_tr = data
    svds = class_svds(F_tr, y_tr)
    # r_max runs from below every class's rank to above the ambient dimension
    for r_max in range(1, 9):
        subs = truncate_subspaces(svds, r_max, eta)
        want = stored_truncation(F_tr, y_tr, r_max, eta)
        for sub, (label, r, achieved, basis) in zip(subs, want, strict=True):
            assert (sub.label, sub.r) == (label, r)
            assert np.float64(sub.energy_fraction).tobytes() == np.float64(achieved).tobytes()
            assert sub.basis.shape == basis.shape
            assert sub.basis.tobytes() == basis.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    class_kinds(),
    st.lists(
        st.tuples(st.integers(1, 8), st.sampled_from((0.5, 0.9, 0.99, 1.0))),
        min_size=1,
        max_size=5,
    ),
)
def test_truncations_of_a_class_share_its_center_and_directions(data, points):
    F_tr, y_tr = data
    svds = class_svds(F_tr, y_tr)
    for r_max, eta in points:
        for sub, full in zip(truncate_subspaces(svds, r_max, eta), svds, strict=True):
            assert sub.center is full.center
            assert sub.directions is full.directions
            if sub.r:
                assert np.shares_memory(sub.basis, full.directions)


@pytest.mark.parametrize("K", [300, 3000])
def test_residuals_peak_memory_is_one_centered_buffer(K):
    # one n x K centered buffer serves every class; a fresh copy per class
    # keeps two alive at once, a peak of 2x F
    rng = np.random.default_rng(K)
    y_tr = np.repeat(np.arange(7), 4)
    subs = fit_class_subspaces(rng.standard_normal((y_tr.size, K)), y_tr, r_max=3, eta=0.9)
    F = rng.standard_normal((200, K))
    tracemalloc.start()
    try:
        pca_residuals(F, subs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * F.nbytes
