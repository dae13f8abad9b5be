import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphsig.ridge import (
    RidgeModel,
    _spd_solve,
    averaged_scores,
    fit_ridge,
    ridge_scores,
    scores_from_cross,
)


def primal_scores(F_tr, Y, alphas, F, epsilon):
    # (F^T F + alpha I_K)^-1 F^T Y agrees with the dual weights on every row
    K = F_tr.shape[1]
    out = np.zeros((F.shape[0], Y.shape[1]))
    for alpha in alphas:
        W = np.linalg.solve(F_tr.T @ F_tr + alpha * np.eye(K), F_tr.T @ Y)
        sigma = np.std(F_tr @ W)
        out -= (F @ W) / (sigma + epsilon)
    return out / len(alphas)


def test_two_point_hand_example():
    F_tr = np.array([[1.0], [-1.0]])
    Y = np.eye(2)
    model = fit_ridge(F_tr, Y, alphas=(1.0,), epsilon=0.0)
    assert np.allclose(model.betas[0], np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0)
    assert model.sigmas[0] == pytest.approx(1.0 / 3.0)
    R = ridge_scores(model, np.array([[1.0]]))
    assert np.allclose(R, [[-1.0, 1.0]])
    model_eps = fit_ridge(F_tr, Y, alphas=(1.0,))
    R_eps = ridge_scores(model_eps, np.array([[1.0]]))
    assert np.allclose(R_eps, [[-1.0, 1.0]], atol=1e-9)


def test_dual_matches_primal_solution():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n_tr = int(rng.integers(3, 41))
        K = int(rng.integers(2, 61))
        C = int(rng.integers(2, 5))
        F_tr = rng.standard_normal((n_tr, K))
        Y = np.eye(C)[rng.integers(0, C, size=n_tr)]
        alphas = tuple(rng.uniform(0.05, 5.0, size=3))
        model = fit_ridge(F_tr, Y, alphas)
        F = rng.standard_normal((9, K))
        want = primal_scores(F_tr, Y, alphas, F, model.epsilon)
        got = ridge_scores(model, F)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-8)


def test_multi_alpha_is_mean_of_single_alpha_scores():
    rng = np.random.default_rng(1)
    F_tr = rng.standard_normal((12, 5))
    Y = np.eye(3)[rng.integers(0, 3, size=12)]
    F = rng.standard_normal((6, 5))
    alphas = (0.1, 1.0, 10.0)
    combined = ridge_scores(fit_ridge(F_tr, Y, alphas), F)
    singles = [ridge_scores(fit_ridge(F_tr, Y, (a,)), F) for a in alphas]
    assert np.allclose(combined, np.mean(singles, axis=0), atol=1e-12)


def test_sigma_is_population_std_of_training_scores():
    rng = np.random.default_rng(2)
    F_tr = rng.standard_normal((10, 4))
    Y = np.eye(2)[rng.integers(0, 2, size=10)]
    model = fit_ridge(F_tr, Y, alphas=(0.5,))
    G = F_tr @ F_tr.T
    Z_tr = G @ model.betas[0]
    assert model.sigmas[0] == pytest.approx(np.std(Z_tr), rel=1e-12)


def test_spd_solve_jitter_retry():
    # slightly indefinite matrix defeats the first factorization attempt
    G = np.diag([1.0, -1e-14])
    beta = _spd_solve(G, 1e-15, np.eye(2))
    assert np.all(np.isfinite(beta))
    A = G + 1e-15 * np.eye(2)
    jitter = 1e-10 * np.trace(A) / 2
    want = np.linalg.solve(A + jitter * np.eye(2), np.eye(2))
    assert np.allclose(beta, want, rtol=1e-6)


def parent_spd_solve(G, alpha, Y):
    """The solve as first written: G + alpha I and, on a failed
    factorization, that sum plus a jitter times I, each a new matrix."""
    A = G + alpha * np.eye(G.shape[0])
    try:
        cho = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(cho, Y, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * np.trace(A) / A.shape[0]
    cho = scipy.linalg.cho_factor(A + jitter * np.eye(A.shape[0]), lower=True, check_finite=False)
    return scipy.linalg.cho_solve(cho, Y, check_finite=False)


@st.composite
def gram_problems(draw):
    """A Gram matrix F F^T, its diagonal optionally lowered by 1e-14 so
    that a small alpha leaves it indefinite (the jitter retry), and
    optionally some symmetric off-diagonal pairs set to -0.0."""
    n = draw(st.integers(1, 8))
    K = draw(st.integers(1, 6))
    G = draw(arrays(np.float64, (n, K), elements=st.floats(-8, 8, width=32)))
    G = G.dot(G.T)
    np.einsum("ii->i", G)[...] -= draw(st.sampled_from((0.0, 1e-14)))
    upper = np.triu(draw(arrays(np.bool_, (n, n))), 1)
    G[upper | upper.T] = -0.0
    C = draw(st.integers(1, 3))
    Y = np.eye(C)[draw(arrays(np.int64, n, elements=st.integers(0, C - 1)))]
    alpha = draw(st.sampled_from((1e-15, 1e-6, 0.01, 0.1, 1.0, 10.0)))
    return G, alpha, Y


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gram_problems())
def test_spd_solve_is_bitwise_the_parent_form(problem):
    G, alpha, Y = problem
    try:
        want = parent_spd_solve(G, alpha, Y)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _spd_solve(G, alpha, Y)
        return
    assert _spd_solve(G, alpha, Y).tobytes() == want.tobytes()


def test_spd_solve_shifts_a_copy_and_retries_on_it():
    G = np.diag([1.0, -1e-14])  # indefinite after the shift: takes the jitter retry
    kept = G.copy()
    beta = _spd_solve(G, 1e-15, np.eye(2))
    assert beta.tobytes() == parent_spd_solve(G, 1e-15, np.eye(2)).tobytes()
    assert G.tobytes() == kept.tobytes()


def test_spd_solve_reads_a_negative_zero_off_the_diagonal():
    # the parent form adds alpha * 0.0 off the diagonal, which turns -0.0
    # into +0.0; the shifted copy keeps -0.0 there, and so does the lower
    # factor. One-hot labels still give bitwise the parent's betas. A label
    # matrix that itself holds -0.0 can give zeros of the other sign, equal
    # in value.
    G = np.array([[2.0, -0.0, 1.0], [-0.0, 3.0, -0.0], [1.0, -0.0, 2.0]])
    for alpha in (1e-15, 0.1, 10.0):
        for Y in (np.eye(3), np.eye(2)[[0, 1, 1]]):
            assert _spd_solve(G, alpha, Y).tobytes() == parent_spd_solve(G, alpha, Y).tobytes()
        assert np.array_equal(_spd_solve(G, alpha, -np.eye(3)), parent_spd_solve(G, alpha, -np.eye(3)))


def test_fit_ridge_builds_no_identity_matrix(monkeypatch):
    rng = np.random.default_rng(4)
    F_tr = rng.standard_normal((9, 4))
    Y = np.eye(3)[rng.integers(0, 3, size=9)]
    want = fit_ridge(F_tr, Y, (0.1, 1.0))

    def eye(*args, **kwargs):
        raise AssertionError("np.eye called")

    monkeypatch.setattr(np, "eye", eye)
    got = fit_ridge(F_tr, Y, (0.1, 1.0))
    for a, b in zip(got.betas, want.betas, strict=True):
        assert a.tobytes() == b.tobytes()


def test_train_scores_are_the_gram_scores():
    rng = np.random.default_rng(5)
    F_tr = rng.standard_normal((11, 30))
    Y = np.eye(3)[rng.integers(0, 3, size=11)]
    model = fit_ridge(F_tr, Y, (0.01, 0.5, 4.0))
    G = F_tr.dot(F_tr.T)
    for Z, beta, sigma in zip(model.train_scores, model.betas, model.sigmas, strict=True):
        assert Z.tobytes() == G.dot(beta).tobytes()
        assert sigma == float(np.std(Z))
    want = scores_from_cross(model, G)
    assert averaged_scores(model, model.train_scores).tobytes() == want.tobytes()
    assert want.tobytes() == ridge_scores(model, F_tr).tobytes()


def test_transductive_scores_lower_for_true_class():
    rng = np.random.default_rng(3)
    F_tr = np.vstack([rng.standard_normal((20, 3)) + [4, 0, 0],
                      rng.standard_normal((20, 3)) - [4, 0, 0]])
    y = np.repeat([0, 1], 20)
    Y = np.eye(2)[y]
    model = fit_ridge(F_tr, Y, alphas=(0.1, 1.0))
    R = ridge_scores(model, F_tr)
    assert np.mean(np.argmin(R, axis=1) == y) > 0.95


def test_empty_alpha_set_fails():
    with pytest.raises(ValueError, match="^alphas must be nonempty$"):
        fit_ridge(np.zeros((4, 2)), np.eye(2)[[0, 1, 0, 1]], alphas=())


def test_validation_errors():
    F_tr = np.zeros((4, 2))
    Y = np.eye(2)[[0, 1, 0, 1]]
    with pytest.raises(ValueError, match="positive"):
        fit_ridge(F_tr, Y, alphas=(1.0, 0.0))
    with pytest.raises(ValueError, match="rows"):
        fit_ridge(F_tr, Y[:3], alphas=(1.0,))
    model = fit_ridge(np.eye(4)[:, :2] + 1.0, Y, alphas=(1.0,))
    with pytest.raises(ValueError, match="dimension"):
        ridge_scores(model, np.zeros((2, 3)))
