"""Solver tests against two independent oracles plus KKT certificates."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from conftest import (enum_simplex_ls, kkt_residual, pg_simplex_ls,
                      random_instance, solve_equality_ls)
from decals import qp
from decals.errors import (DimensionMismatch, MaxIterations, NonFinite,
                           SingularDesign)


def test_noiseless_vertex_and_interior():
    rng = np.random.default_rng(0)
    W = rng.normal(0, 1, (20, 4))
    # y equals one pure column: solution is that vertex
    x = qp.solve_simplex_ls(W, W[:, 2])
    assert_allclose(x, [0, 0, 1, 0], atol=1e-10)
    # interior planted truth is recovered exactly
    pi = np.array([0.4, 0.3, 0.2, 0.1])
    x = qp.solve_simplex_ls(W, W @ pi)
    assert_allclose(x, pi, atol=1e-10)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(120):
        W, y = random_instance(rng)
        x = qp.solve_simplex_ls(W, y)
        ref = enum_simplex_ls(W, y)
        G, a = W.T @ W, W.T @ y
        # compare objectives: ties between supports can move coordinates
        f = lambda v: v @ G @ v - 2 * a @ v
        assert f(x) <= f(ref) + 1e-9
        assert_allclose(x, ref, atol=1e-6)


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(2)
    for _ in range(40):
        W, y = random_instance(rng)
        x = qp.solve_simplex_ls(W, y)
        ref = pg_simplex_ls(W, y)
        assert_allclose(x, ref, atol=1e-6)


def test_feasibility_always():
    rng = np.random.default_rng(3)
    for _ in range(200):
        W, y = random_instance(rng, spread=3.0)
        x = qp.solve_simplex_ls(W, y)
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) < 1e-12


def test_kkt_certificate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        W, y = random_instance(rng)
        x = qp.solve_simplex_ls(W, y)
        assert kkt_residual(W, y, x) <= 1e-8


def test_interior_matches_equality_solver():
    rng = np.random.default_rng(5)
    hits = 0
    for _ in range(50):
        W, _ = random_instance(rng, K=3, p=30)
        pi = rng.dirichlet([8.0, 8.0, 8.0])       # well inside the simplex
        y = W @ pi + 0.01 * rng.normal(0, 1, 30)
        x = qp.solve_simplex_ls(W, y)
        if x.min() > 1e-4:
            assert_allclose(x, solve_equality_ls(W, y), atol=1e-8)
            hits += 1
    assert hits > 30                              # most optima are interior


def test_permutation_equivariance():
    rng = np.random.default_rng(6)
    W, y = random_instance(rng, K=5, p=25)
    perm = rng.permutation(5)
    x = qp.solve_simplex_ls(W, y)
    xp = qp.solve_simplex_ls(W[:, perm], y)
    assert_allclose(xp, x[perm], atol=1e-9)


def test_objective_beats_random_feasible_points():
    rng = np.random.default_rng(7)
    W, y = random_instance(rng, K=4, p=30)
    G, a = W.T @ W, W.T @ y
    x = qp.solve_simplex_ls(W, y)
    fx = x @ G @ x - 2 * a @ x
    cands = rng.dirichlet(np.ones(4), 500)
    objs = np.einsum('ij,jk,ik->i', cands, G, cands) - 2 * cands @ a
    assert fx <= objs.min() + 1e-10


def test_solve_simplex_normal_matches_full():
    rng = np.random.default_rng(8)
    W, y = random_instance(rng, K=4, p=30)
    x1 = qp.solve_simplex_ls(W, y)
    x2 = qp.solve_simplex_normal(W.T @ W, W.T @ y)
    assert_allclose(x1, x2, atol=1e-12)


def test_input_validation():
    rng = np.random.default_rng(9)
    W = rng.normal(0, 1, (10, 3))
    with pytest.raises(DimensionMismatch):
        qp.solve_simplex_ls(W, np.ones(9))
    with pytest.raises(DimensionMismatch):
        qp.solve_simplex_ls(np.ones((10, 1)), np.ones(10))
    with pytest.raises(NonFinite):
        qp.solve_simplex_ls(W, np.array([np.nan] + [0.0] * 9))
    with pytest.raises(SingularDesign):
        Wc = np.column_stack([W[:, 0], W[:, 0], W[:, 1]])  # collinear
        qp.solve_simplex_ls(Wc, rng.normal(0, 1, 10))


def test_nearest_psd_properties():
    rng = np.random.default_rng(10)
    # already PSD: unchanged
    B = rng.normal(0, 1, (4, 4))
    P = B @ B.T
    assert_allclose(qp.nearest_psd(P), P, atol=1e-12)
    # known 2x2: eigenvalues (3, -1) -> negative one clipped
    A = np.array([[1.0, 2.0], [2.0, 1.0]])
    N = qp.nearest_psd(A)
    w, Q = np.linalg.eigh(A)
    ref = Q @ np.diag(np.maximum(w, 0)) @ Q.T
    assert_allclose(N, ref, atol=1e-12)
    # idempotent, symmetric, PSD on random symmetric input
    S = rng.normal(0, 1, (6, 6))
    S = S + S.T
    N = qp.nearest_psd(S)
    assert_allclose(N, N.T, atol=1e-13)
    assert np.linalg.eigvalsh(N)[0] >= -1e-12
    assert_allclose(qp.nearest_psd(N), N, atol=1e-12)


def test_nearest_psd_optimality_probe():
    # the projection must be Frobenius-closest among many PSD candidates
    rng = np.random.default_rng(11)
    S = rng.normal(0, 1, (5, 5))
    S = S + S.T
    N = qp.nearest_psd(S)
    d0 = np.linalg.norm(S - N)
    for _ in range(1000):
        B = rng.normal(0, 0.5, (5, 5))
        Q = N + B @ B.T                          # PSD perturbations of N
        assert np.linalg.norm(S - Q) >= d0 - 1e-10
        t = rng.random()
        C = t * N + (1 - t) * (B @ B.T)          # convex PSD combinations
        assert np.linalg.norm(S - C) >= d0 - 1e-10


def _full_eigh_psd(S):
    """Reference projection: one full eigendecomposition, negative
    eigenvalues clipped at zero."""
    S = 0.5 * (S + S.T)
    w, Q = np.linalg.eigh(S)
    if w[0] >= 0.0:
        return S
    out = (Q * np.maximum(w, 0.0)) @ Q.T
    return 0.5 * (out + out.T)


def _lapack_psd(S):
    """Reference projection through LAPACK alone: a full eigendecomposition
    below _PARTIAL_EIG_MIN_P rows, else the Cholesky gate and the
    nonpositive eigenpairs."""
    S = 0.5 * (S + S.T)
    if len(S) < qp._PARTIAL_EIG_MIN_P:
        return _full_eigh_psd(S)
    if qp._is_pd(S):
        return S
    w, Q = scipy.linalg.eigh(S, subset_by_value=(-np.inf, 0.0), driver="evr",
                             check_finite=False)
    if w.size == 0:
        return S
    out = S - (Q * w) @ Q.T
    return 0.5 * (out + out.T)


def _with_spectrum(w, seed=0):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(0, 1, (len(w),) * 2))
    S = (Q * w) @ Q.T
    return 0.5 * (S + S.T)


def _assert_matches_full_eigh(S):
    # rounding of two p x p eigensolvers, relative to the spectral scale
    tol = 10 * np.finfo(float).eps * len(S) * max(np.abs(S).max(), 1e-300)
    got = qp.nearest_psd(S)
    assert_allclose(got, _full_eigh_psd(S), rtol=0, atol=tol)
    assert_allclose(qp.nearest_psd(got), got, rtol=0, atol=tol)   # idempotent
    return got


@pytest.mark.parametrize("p", [1, 2, 150, 600])
@pytest.mark.parametrize("share", [0.0, "one", 0.05, 0.4])
def test_nearest_psd_matches_full_eigh(p, share):
    rng = np.random.default_rng(p)
    w = rng.uniform(0.1, 2.0, p)
    neg = 1 if share == "one" else int(share * p)
    w[:neg] = -rng.uniform(0.01, 1.0, neg)
    got = _assert_matches_full_eigh(_with_spectrum(w, p))
    assert np.linalg.eigvalsh(got)[0] >= -1e-12


@pytest.mark.parametrize("p", [1, 2, 150, 600])
@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_nearest_psd_keeps_pd_matrices_near_the_cholesky_shift(p, factor):
    # smallest eigenvalue just above (2x) or below (0.5x) the shift
    # 1e-10 * max-abs-row-sum that the Cholesky test subtracts: either way
    # the matrix is PD and comes back unchanged
    w = np.linspace(1.0, 2.0, p)
    S = _with_spectrum(w, p)
    tau = 1e-10 * np.abs(S).sum(axis=1).max()
    w[0] = factor * tau
    S = _with_spectrum(w, p)
    assert np.array_equal(qp.nearest_psd(S), S)
    if p >= qp._PARTIAL_EIG_MIN_P:
        assert qp._is_pd(S) == (factor > 1.0)


@pytest.mark.parametrize("p", [1, 2, 150, 600])
def test_nearest_psd_zero_matrix_and_exact_zero_eigenvalues(p):
    Z = np.zeros((p, p))
    assert np.array_equal(qp.nearest_psd(Z), Z)
    # diagonal: eigenvalues exact, so the projection is exact too
    d = np.resize([2.0, 0.0, -1.0, 0.0, 0.5], p)
    assert np.array_equal(qp.nearest_psd(np.diag(d)), np.diag(np.maximum(d, 0.0)))
    # rotated: a PSD matrix with exact zero eigenvalues, and one with zeros
    # next to negatives
    w = np.resize([1.0, 0.0, 0.3], p)
    _assert_matches_full_eigh(_with_spectrum(w, p))
    _assert_matches_full_eigh(_with_spectrum(np.resize([1.0, 0.0, -0.3], p), p))


@pytest.mark.parametrize("p", [1, 2, 150, 600])
@pytest.mark.parametrize("case", ["positive", "floored", "negative", "zero"])
def test_nearest_psd_clips_a_diagonal_without_lapack(p, case, monkeypatch):
    # "floored": entries at run_decals' variance floor 1e-10, which at
    # p >= _PARTIAL_EIG_MIN_P fail the Cholesky gate (tau = 1e-10 max d)
    rng = np.random.default_rng(p)
    d = rng.uniform(0.5, 12.0, p)
    if case == "floored":
        d[::7] = 1e-10
    elif case == "negative":
        d[::3] = -rng.uniform(0.1, 1.0, len(d[::3]))
    elif case == "zero":
        d[::4] = 0.0
    S = np.diag(d)
    want = _lapack_psd(S)
    if case == "floored" and p >= qp._PARTIAL_EIG_MIN_P:
        assert not qp._is_pd(S)

    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a diagonal matrix")

    monkeypatch.setattr(qp, "eigh", lapack)
    monkeypatch.setattr(qp, "dpotrf", lapack)
    monkeypatch.setattr(np.linalg, "eigh", lapack)
    got = qp.nearest_psd(S)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == np.diag(np.maximum(d, 0.0)).tobytes()


def test_nearest_psd_partial_branch_downdates_in_place():
    # p=600 with 300 negative eigenvalues: the downdate is subtracted from
    # the symmetrized copy in place and symmetrized into its own buffer, to
    # the bytes of the copy-per-step formula; the traced peak stays below 4
    # p x p above the input (3.50 measured; 4.02 with a copy per step)
    p = 600
    rng = np.random.default_rng(p)
    w = rng.uniform(0.1, 2.0, p)
    w[:300] = -rng.uniform(0.01, 1.0, 300)
    S = _with_spectrum(w, p)
    assert p >= qp._PARTIAL_EIG_MIN_P and not qp._is_pd(S)
    want = _lapack_psd(S)
    tracemalloc.start()
    try:
        got = qp.nearest_psd(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert peak < 3.75 * p * p * 8, peak / (p * p * 8)


@pytest.mark.parametrize("shape", [(0, 0), (0,), (3,), (2, 3), (2, 2, 2)])
def test_nearest_psd_checks_the_shape_first(shape):
    # NaN entries too: the shape is reported, not the non-finite values
    with pytest.raises(DimensionMismatch, match=re.escape(f"shape {shape}")):
        qp.nearest_psd(np.full(shape, np.nan))
    with pytest.raises(NonFinite):
        qp.nearest_psd(np.full((2, 2), np.nan))


@pytest.mark.parametrize("exc", [SingularDesign, NonFinite])
def test_check_pd_raises_the_callers_exception(exc):
    qp.check_pd(np.diag([1.0, 1e-9]), 1e-10, exc, "fine")
    # an eigenvalue ratio exactly at the floor counts as singular
    with pytest.raises(exc, match=r"^at floor \(eig range \[1\.000e-10, "):
        qp.check_pd(np.diag([1.0, 1e-10]), 1e-10, exc, "at floor")
    with pytest.raises(exc, match="not positive"):
        qp.check_pd(-np.eye(2), 1e-10, exc, "not positive")


def test_check_pd_on_a_stack_names_the_first_failing_matrix():
    M = np.stack([np.eye(2), np.diag([1.0, 1e-9]), np.diag([1.0, 1e-12]),
                  -np.eye(2)])
    qp.check_pd(M[:2], 1e-10, SingularDesign, "fine")
    with pytest.raises(SingularDesign,
                       match=r"^matrix 2: bad \(eig range \[1\.000e-12, "):
        qp.check_pd(M, 1e-10, SingularDesign, "bad")


def test_matrix_response_equals_column_solves_bytewise():
    rng = np.random.default_rng(10)
    for K in (2, 3, 6):
        W = rng.normal(0, 1, (40, K))
        P = rng.dirichlet(np.ones(K), 30)
        P[:10] = 0.0
        P[:10, 0] = 1.0                      # vertices
        Y = W @ P.T + rng.normal(0, 1.5, (40, 30))
        Y[:, 20:] = rng.normal(0, 3, (40, 10))   # mostly boundary optima
        X = qp.solve_simplex_ls(W, Y)
        assert X.shape == (30, K)
        for i in range(30):
            assert np.array_equal(X[i], qp.solve_simplex_ls(W, Y[:, i]))
    assert qp.solve_simplex_ls(W, Y[:, :0]).shape == (0, 6)


def test_matrix_response_errors_name_the_column(monkeypatch):
    rng = np.random.default_rng(11)
    W = rng.normal(0, 1, (10, 3))
    Y = rng.normal(0, 1, (10, 4))
    Y[3, 2] = np.inf
    Y[0, 3] = np.nan
    with pytest.raises(NonFinite, match="^column 2: design or response"):
        qp.solve_simplex_ls(W, Y)
    with pytest.raises(NonFinite, match="^sample c: "):
        qp.solve_simplex_ls(W, Y, names=["a", "b", "sample c", "d"])
    with pytest.raises(SingularDesign, match="^W'W numerically singular"):
        qp.solve_simplex_ls(np.column_stack([W[:, 0], W]), Y[:, :2])
    with pytest.raises(DimensionMismatch):
        qp.solve_simplex_ls(W, Y[:9])
    with pytest.raises(DimensionMismatch):
        solve_equality_ls(W, Y)           # one response only
    # column 0 is interior; column 1's optimum on the sum-to-one plane lies
    # off the simplex, so it goes on to the active-set loop, whose scalar
    # step test is made to fail there
    real = qp._step_ok
    monkeypatch.setattr(qp, "_step_ok",
                        lambda d, v: real(d, v) & (np.ndim(d) != 0))
    Yb = W @ np.array([[0.5, 0.3, 0.2], [2.0, -1.0, 0.0]]).T
    with pytest.raises(MaxIterations, match="^column 1: no feasible step"):
        qp.solve_simplex_ls(W, Yb)
    # the same prefix when column 1's first-phase step is the one that fails
    monkeypatch.setattr(qp, "_step_ok",
                        lambda d, v: real(d, v) & (np.arange(np.size(d)) != 1))
    with pytest.raises(MaxIterations, match="^column 1: no feasible step"):
        qp.solve_simplex_ls(W, Yb)


def test_stacked_normal_equations_equal_one_matrix_solves_bytewise():
    rng = np.random.default_rng(12)
    for K in (2, 3, 6):
        n = 30
        W = rng.normal(0, 1, (n, 40, K))
        P = rng.dirichlet(np.ones(K), n)
        P[:10] = 0.0
        P[:10, 0] = 1.0                      # vertices
        P[10:20] = rng.dirichlet(np.full(K, 5.0), 10)
        noise = np.repeat([1.5, 0.1, 1.5], 10)[:, None]   # interior optima
        Y = np.einsum('npk,nk->np', W, P) + noise * rng.normal(0, 1, (n, 40))
        Y[20:] = rng.normal(0, 3, (10, 40))  # mostly boundary optima
        G = W.transpose(0, 2, 1) @ W
        a = np.einsum('npk,np->nk', W, Y)
        X = qp.solve_simplex_normal(G, a)
        assert X.shape == (n, K)
        # rows whose sum-to-one step leaves the simplex go on to the loop
        looped = sum(solve_equality_ls(W[i], Y[i]).min() < -1e-9
                     for i in range(n))
        assert 0 < looped < n                # both phases used
        for i in range(n):
            assert np.array_equal(X[i], qp.solve_simplex_normal(G[i], a[i]))
            assert_allclose(X[i], qp.solve_simplex_ls(W[i], Y[i]), atol=1e-12)
    assert qp.solve_simplex_normal(G[:0], a[:0]).shape == (0, 6)


def test_stacked_normal_equations_errors_name_the_matrix():
    rng = np.random.default_rng(13)
    B = rng.normal(0, 1, (4, 10, 3))
    G = B.transpose(0, 2, 1) @ B
    a = rng.normal(0, 1, (4, 3))
    Gs = G.copy()
    Gs[2] = np.outer(B[2, 0], B[2, 0])       # rank one
    with pytest.raises(SingularDesign,
                       match="^matrix 2: moment matrix numerically singular"):
        qp.solve_simplex_normal(Gs, a)
    with pytest.raises(SingularDesign, match="^moment matrix numerically"):
        qp.solve_simplex_normal(Gs[2], a[2])
    an = a.copy()
    an[3, 1] = np.nan
    with pytest.raises(NonFinite, match="^matrix 3: normal equations"):
        qp.solve_simplex_normal(G, an)
    with pytest.raises(DimensionMismatch):
        qp.solve_simplex_normal(G, a[:3])
    with pytest.raises(DimensionMismatch):
        qp.solve_simplex_normal(G[0], a)


def test_ill_conditioned_vertex_does_not_cycle():
    # A whitened GLS moment matrix (condition 4e9) whose optimum is the
    # vertex e_3. Rounding in the step directions used to push an entry
    # already pinned at zero below the exit test; the loop took it in again
    # and cycled until the change cap.
    G = np.array([[5.7706706550569124e+09, 3.3099320836089258e+09,
                   -1.0969762408333862e+10],
                  [3.3099320836089258e+09, 1.8985055886766157e+09,
                   -6.2920188667261629e+09],
                  [-1.0969762408333862e+10, -6.2920188667261629e+09,
                   2.0852981350324257e+10]])
    a = np.array([-1.167748705421541e+10, -6.697954437184135e+09,
                  2.219833125013343e+10])
    assert np.array_equal(qp.solve_simplex_normal(G, a), [0.0, 0.0, 1.0])
