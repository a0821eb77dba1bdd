"""Generalized-least-squares arm: whitening, covariance, iteration."""

import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
from numpy.testing import assert_allclose, assert_array_equal

from conftest import enum_simplex_ls, one_sandwich, subject_covariance
from decals import gls, qp, simgen
from decals.covest import cts_covariance_raw_all
from decals.deconv import estimate_proportions
from decals.errors import (DecalsError, DimensionMismatch, NonFinite,
                           SingularDesign, SingularSigma)
from decals.gls import gls_covariance, run_gls_iterative, solve_gls
from decals.simgen import SimConfig, replicate_dataset, replicate_rng


def _design(rng, p=30, K=3):
    W = rng.normal(0, 1, (p, K))
    pi = rng.dirichlet([3, 2, 1])
    return W, pi


def _rand_cov(rng, p, scale=1.0):
    A = rng.normal(0, scale, (p, p))
    return A @ A.T + 0.1 * np.eye(p)


def _known(Sigma, n=1):
    """One known Sigma (p, p) for n samples, in the (S, H) form."""
    return np.asarray(Sigma)[None], np.ones((n, 1))


def _stack(S):
    """A stack of subject covariances (n, p, p), in the (S, H) form."""
    return S, np.eye(len(S))


def _fit1(W, y, Sigma):
    """The GLS fit of one response y (p,) whitened by Sigma (p, p)."""
    return solve_gls(W, np.asarray(y)[:, None], *_known(Sigma))[0]


def _cov1(W, Sigma):
    """The GLS covariance of one sample whitened by Sigma (p, p)."""
    return gls_covariance(W, *_known(Sigma))[0]


def test_identity_sigma_equals_plain_ls():
    rng = np.random.default_rng(0)
    W, pi = _design(rng)
    y = W @ pi + rng.normal(0, 1, 30)
    assert_allclose(_fit1(W, y, np.eye(30)),
                    qp.solve_simplex_ls(W, y), atol=1e-10)
    # scaling Sigma by a constant cannot change the estimate
    assert_allclose(_fit1(W, y, 7.3 * np.eye(30)),
                    qp.solve_simplex_ls(W, y), atol=1e-10)


def test_whitened_objective_matches_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(20):
        W, pi = _design(rng, p=20)
        y = W @ pi + rng.normal(0, 2, 20)
        S = _rand_cov(rng, 20)
        Si = np.linalg.inv(S)
        G = W.T @ Si @ W
        a = W.T @ Si @ y
        L = np.linalg.cholesky(G)   # exact oracle through the normal form
        ref = enum_simplex_ls(L.T, np.linalg.solve(L, a))
        assert_allclose(_fit1(W, y, S), ref, atol=1e-8)


def test_gls_covariance_iid_matches_sandwich():
    # under Sigma = s2*I the GLS covariance and the sandwich agree exactly
    rng = np.random.default_rng(2)
    W, _ = _design(rng, p=40)
    s2 = 2.3
    assert_allclose(_cov1(W, s2 * np.eye(40)),
                    one_sandwich(W, s2 * np.eye(40)), atol=1e-8)


def test_gls_covariance_structure_and_efficiency():
    rng = np.random.default_rng(3)
    W, _ = _design(rng, p=35)
    S = _rand_cov(rng, 35)
    Vg = _cov1(W, S)
    Vo = one_sandwich(W, S)
    assert_allclose(Vg, Vg.T, atol=1e-10)
    assert_allclose(Vg @ np.ones(3), 0.0, atol=1e-8)
    # Gauss-Markov: GLS at most the sandwich on the constraint plane
    for _ in range(100):
        v = rng.normal(0, 1, 3)
        v -= v.mean()                        # orthogonal to the null vector
        assert v @ Vg @ v <= v @ Vo @ v + 1e-8


def test_singular_sigma_raises():
    rng = np.random.default_rng(4)
    W, _ = _design(rng)
    with pytest.raises(SingularSigma, match="^matrix 0: subject covariance "
                       "is not positive definite$"):
        _fit1(W, np.ones(30), np.zeros((30, 30)))


def test_downweights_corrupted_high_variance_gene():
    rng = np.random.default_rng(6)
    W, pi = _design(rng, p=30)
    y = W @ pi
    y[0] += 50.0                             # gross error on gene 0
    S = np.eye(30)
    S[0, 0] = 1e4                            # which GLS knows is unreliable
    x_gls = _fit1(W, y, S)
    x_ols = qp.solve_simplex_ls(W, y)
    assert np.abs(x_gls - pi).max() < 1e-2
    assert np.abs(x_ols - pi).max() > 10 * np.abs(x_gls - pi).max()


def _sim(rng, p=36, K=3, n=25, noise=0.5):
    W = rng.normal(0, 1, (p, K))
    P = rng.dirichlet([3, 2, 1], n)
    Y = W @ P.T + noise * rng.standard_normal((p, n))
    return W, P, Y


def test_one_pass_equals_constrained_ls():
    # the first fit is the plain constrained fit: one fit alone is no
    # feasible GLS, and the second fit's plug-in comes from its residuals
    rng = np.random.default_rng(7)
    W, P, Y = _sim(rng)
    with pytest.raises(ValueError,
                       match="^max_iter must be at least 2, got 1$"):
        run_gls_iterative(W, Y, max_iter=1)
    res = run_gls_iterative(W, Y, max_iter=2)
    ref = estimate_proportions(W, Y)
    want = [_plug_in(S) for S in cts_covariance_raw_all(ref ** 2,
                                                        Y - W @ ref.T)]
    assert_allclose(res.cts_covariances, want, rtol=1e-10, atol=1e-15)
    assert res.iterations == 2
    assert not res.converged
    assert res.lambdas is None


def test_iteration_determinism():
    rng = np.random.default_rng(9)
    W, P, Y = _sim(rng)
    r1 = run_gls_iterative(W, Y, max_iter=2)
    r2 = run_gls_iterative(W, Y, max_iter=2)
    assert_allclose(r1.proportions[3], r2.proportions[3], atol=0)
    assert_allclose(r1.covariances[3], r2.covariances[3], atol=0)


def test_oracle_weighting_recovers_truth_better_than_identity():
    # with the true Sigma_i, GLS shrinks the error relative to plain LS on
    # average (Monte Carlo over a fixed design; seeded)
    rng = np.random.default_rng(10)
    p, K = 40, 3
    W = rng.normal(0, 1, (p, K))
    S = _rand_cov(rng, p, scale=0.4)
    L = np.linalg.cholesky(S)
    pi = np.array([0.5, 0.3, 0.2])
    err_gls, err_ols = 0.0, 0.0
    for _ in range(200):
        y = W @ pi + L @ rng.standard_normal(p)
        err_gls += np.abs(_fit1(W, y, S) - pi).sum()
        err_ols += np.abs(qp.solve_simplex_ls(W, y) - pi).sum()
    assert err_gls < err_ols


def _old_eig(S):
    # oracle: whitening by the eigendecomposition, one sample at a time
    return np.linalg.eigh(0.5 * (S + S.T))


def _old_solve_gls(W, y, S):
    w, Q = _old_eig(S)
    rw = 1.0 / np.sqrt(w)
    return qp.solve_simplex_ls(rw[:, None] * (Q.T @ W), rw * (Q.T @ y))


def _old_gram(W, S):
    w, Q = _old_eig(S)
    QtW = Q.T @ W
    return QtW.T @ (QtW / w[:, None])


def _old_gls_covariance(W, S):
    Ai = np.linalg.inv(_old_gram(W, S))
    s = Ai.sum(axis=1)
    V = W.shape[0] * (Ai - np.outer(s, s) / s.sum())
    return 0.5 * (V + V.T)


def _oracle_tol(S):
    # the eigendecomposition oracle's rounding, which an ill-conditioned
    # Sigma amplifies by its condition number
    return max(1e-12, 1e-15 * np.linalg.cond(S))


def _spectrum_cov(rng, eigenvalues):
    # a symmetric matrix with the given eigenvalues, random eigenvectors
    p = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.normal(0, 1, (p, p)))
    return (Q * eigenvalues) @ Q.T


def _pd_stack(rng, p):
    """Subject covariances that pass the gate: random, condition 1e8,
    diagonal, and scaled by 1e-8, in that order."""
    return np.stack([_rand_cov(rng, p),
                     _spectrum_cov(rng, np.logspace(0, -8, p)),
                     np.diag(rng.uniform(0.5, 2.0, p)),
                     1e-8 * _rand_cov(rng, p)])


def _not_pd_stack(rng, p):
    """Rank-one, indefinite (positive top) and condition-1e12 matrices, none
    of which the gate lets through."""
    v = rng.normal(0, 1, p)
    return np.stack([np.outer(v, v),
                     _spectrum_cov(rng, np.linspace(-0.5, 1.0, p)),
                     _spectrum_cov(rng, np.logspace(0, -12, p))])


def test_whitening_matches_the_eigendecomposition():
    # the Cholesky whitening gives the eigenvector whitening's fit and
    # covariance, on a well-conditioned Sigma and on one of condition 1e8
    rng = np.random.default_rng(11)
    p = 24
    W, pi = _design(rng, p=p)
    y = W @ pi + rng.normal(0, 1, p)
    for S in _pd_stack(rng, p)[:2]:
        tol = _oracle_tol(S)
        assert_allclose(_fit1(W, y, S), _old_solve_gls(W, y, S),
                        rtol=tol, atol=1e-14)
        assert_allclose(_cov1(W, S), _old_gls_covariance(W, S),
                        rtol=tol, atol=1e-14)


@pytest.mark.parametrize("at", [0, 3, 6])
def test_whitening_refuses_a_matrix_the_gate_refuses(at, monkeypatch):
    # a rank-one, indefinite or condition-1e12 Sigma_i anywhere in the stack,
    # in any chunk, raises SingularSigma naming it by its absolute index
    rng = np.random.default_rng(14)
    p = 20
    W, _ = _design(rng, p=p)
    Y = W @ rng.dirichlet([3, 2, 1], 7).T
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 2 * p * p * 8)
    for bad in _not_pd_stack(rng, p):
        S = np.concatenate([_pd_stack(rng, p), _pd_stack(rng, p)[:3]])
        S[at] = bad
        msg = f"^matrix {at}: subject covariance is not positive definite$"
        with pytest.raises(SingularSigma, match=msg):
            solve_gls(W, Y, *_stack(S))
        with pytest.raises(SingularSigma, match=msg):
            gls_covariance(W, *_stack(S))
        with pytest.raises(SingularSigma, match="^matrix 0: "):
            _cov1(W, bad)


def test_a_factor_that_fails_after_the_gate_raises(monkeypatch):
    # rounding could let Sigma - tau I factor (the gate, qp._is_pd) and
    # Sigma not; the whitening's dpotrf, which gls imports from
    # scipy.linalg.lapack at each call, sees only that unshifted factor, and
    # its failure is refused like the gate's. The certificate's shifted
    # factor (no keywords) is failed as well, so the matrix takes the gate,
    # whose own factor runs as is.
    rng = np.random.default_rng(25)
    p = 12
    W, pi = _design(rng, p=p)
    y = W @ pi + rng.normal(0, 1, p)
    S = _rand_cov(rng, p)
    real, calls, gate = scipy.linalg.lapack.dpotrf, [], qp._is_pd.__code__

    def unshifted_fails(a, **kwargs):
        c, info = real(a, **kwargs)
        if sys._getframe(1).f_code is gate:
            return c, info
        if kwargs:
            calls.append(info)
        return c, 1

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", unshifted_fails)
    gates = _count_gates(monkeypatch)
    with pytest.raises(SingularSigma, match="^matrix 0: subject covariance "
                       "is not positive definite$"):
        _fit1(W, y, S)
    assert calls == [0] and gates == [True]


def test_whitening_asks_the_qp_gate_once_per_matrix(monkeypatch):
    # gls and nearest_psd share one gate: whitening asks qp._is_pd once per
    # subject covariance the certificate does not prove (here each has its
    # smallest eigenvalue at twice the gate's shift), never for one it
    # proves (the last two), and stops at the first one it refuses
    rng = np.random.default_rng(16)
    p = 20
    W, _ = _design(rng, p=p)
    S = np.concatenate([_gated_types(rng, p, [2.0] * 4),
                        np.stack([_rand_cov(rng, p) for _ in range(2)])])
    assert_array_equal(gls._proven(*_stack(S)), [False] * 4 + [True] * 2)
    verdicts = _count_gates(monkeypatch)
    gls_covariance(W, *_stack(S))
    assert verdicts == [True] * 4
    Y = W @ rng.dirichlet([3, 2, 1], len(S)).T
    solve_gls(W, Y, *_stack(S))
    assert verdicts == [True] * 8
    verdicts.clear()
    S[2] = _not_pd_stack(rng, p)[1]
    with pytest.raises(SingularSigma, match="^matrix 2: "):
        gls_covariance(W, *_stack(S))
    assert verdicts == [True, True, False]


@pytest.mark.parametrize("chunk", ["one", "two", "all"])
def test_stacked_calls_equal_one_sample_calls(chunk, monkeypatch):
    # no matrix's whitening depends on its chunk, so a stacked call gives
    # each sample the bytes of its one-sample call
    rng = np.random.default_rng(12)
    p = 20
    W, _ = _design(rng, p=p)
    S = np.concatenate([_pd_stack(rng, p), _pd_stack(rng, p)[::-1],
                        np.stack([_rand_cov(rng, p) for _ in range(3)])])
    n = len(S)
    P = rng.dirichlet([3, 2, 1], n)
    Y = W @ P.T + rng.normal(0, 1, (p, n))
    per = {"one": 1, "two": 2, "all": n}[chunk]
    monkeypatch.setattr(gls, "_WHITEN_BYTES", per * p * p * 8)
    H = np.eye(n)
    est = solve_gls(W, Y, S, H)
    V = gls_covariance(W, S, H)
    assert est.shape == (n, 3) and V.shape == (n, 3, 3)
    for i in range(n):
        assert_array_equal(est[i],
                           solve_gls(W, Y[:, i:i + 1], S, H[i:i + 1])[0])
        assert_array_equal(V[i], gls_covariance(W, S, H[i:i + 1])[0])
        # and the eigendecomposition oracle, up to its rounding
        tol = _oracle_tol(S[i])
        assert_allclose(est[i], _old_solve_gls(W, Y[:, i], S[i]), rtol=tol,
                        atol=tol)
        assert_allclose(V[i], _old_gls_covariance(W, S[i]), rtol=tol,
                        atol=1e-14 * np.abs(V[i]).max())


def test_stacked_shapes_are_checked():
    rng = np.random.default_rng(13)
    W, _ = _design(rng, p=10)
    S = np.stack([np.eye(10)] * 3)
    H = np.eye(3)
    with pytest.raises(DimensionMismatch):
        solve_gls(W, np.ones((10, 2)), S, H)  # 2 responses, 3 samples
    with pytest.raises(DimensionMismatch):
        solve_gls(W, np.ones(10), S, H)
    with pytest.raises(DimensionMismatch):
        gls_covariance(W, *_known(np.eye(9)))
    with pytest.raises(DimensionMismatch):
        gls_covariance(W, S, np.ones((3, 2)))  # 2 weights, 3 covariances
    with pytest.raises(DimensionMismatch):
        gls_covariance(W, S, np.ones(3))
    with pytest.raises(NonFinite,
                       match="^covariance 1 of S contains NaN/Inf$"):
        S[1, 2, 3] = np.nan
        gls_covariance(W, S, H)
    with pytest.raises(SingularSigma, match="^matrix 1: subject covariance is "
                       "not positive definite$"):
        solve_gls(W, np.ones((10, 3)), *_stack(np.stack([
            np.eye(10), -np.eye(10), np.eye(10)])))
    with pytest.raises(NonFinite, match="^matrix 2: normal equations"):
        solve_gls(W, np.vstack([np.ones((9, 3)), [1.0, 1.0, np.nan]]),
                  *_known(np.eye(10), 3))
    with pytest.raises(SingularDesign, match="^matrix 0: moment matrix"):
        solve_gls(np.column_stack([W[:, 0], W]), np.ones((10, 3)),
                  *_known(np.eye(10), 3))


def test_whitening_calls_scipy_on_single_matrices(monkeypatch):
    # scipy batches its linalg routines over stacks only from 1.15 on; the
    # whitening imports its two from scipy.linalg.lapack at each call
    seen = []
    for name in ("dpotrf", "dtrtrs"):
        fn = getattr(scipy.linalg.lapack, name)

        def wrapped(*args, _fn=fn, _name=name, **kw):
            arrays = [x for x in (*args, *kw.values())
                      if isinstance(x, np.ndarray)]
            assert all(x.ndim <= 2 for x in arrays), _name
            seen.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(scipy.linalg.lapack, name, wrapped)
    rng = np.random.default_rng(15)
    p = 16
    W, _ = _design(rng, p=p)
    S = np.concatenate([np.stack([_rand_cov(rng, p) for _ in range(4)]),
                        _pd_stack(rng, p)])
    Y = W @ rng.dirichlet([3, 2, 1], len(S)).T + rng.normal(0, 1, (p, len(S)))
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 4 * p * p * 8)
    solve_gls(W, Y, *_stack(S))
    gls_covariance(W, *_stack(S))
    assert {"dpotrf", "dtrtrs"} <= set(seen)


def test_whitening_does_not_depend_on_the_memory_layout():
    # Fortran-ordered and axis-moved stacks whiten like C-ordered ones, on
    # the Cholesky path, with several matrices per chunk and with one
    rng = np.random.default_rng(18)
    p = 12
    W, _ = _design(rng, p=p)
    S = np.stack([_rand_cov(rng, p) for _ in range(5)])
    Y = W @ rng.dirichlet([3, 2, 1], len(S)).T + rng.normal(0, 1, (p, len(S)))
    est, V = solve_gls(W, Y, *_stack(S)), gls_covariance(W, *_stack(S))
    last = np.ascontiguousarray(np.moveaxis(S, 0, -1))     # (p, p, n)
    for T in (np.asfortranarray(S), np.moveaxis(last, -1, 0)):
        assert not T.flags.c_contiguous
        assert_allclose(solve_gls(W, Y, *_stack(T)), est, rtol=0, atol=1e-15)
        assert_allclose(gls_covariance(W, *_stack(T)), V, rtol=1e-14)
    one = np.asfortranarray(S[2])
    assert_allclose(_fit1(W, Y[:, 2], one), est[2], rtol=0, atol=1e-15)
    assert_allclose(_cov1(W, one), V[2], rtol=1e-14)


def _plug_in(S):
    """The projected, ridged plug-in of gls, from a full eigendecomposition:
    eigenvalues clipped at zero, then 1e-6 times the mean diagonal added."""
    w, Q = np.linalg.eigh(S)
    S = (Q * np.maximum(w, 0.0)) @ Q.T
    return S + 1e-6 * np.trace(S) / len(S) * np.eye(len(S))


def _old_run_gls_iterative(W, Y, max_iter):
    """The feasible GLS as it was written before the fit reused the
    covariance step's W' Sigma^{-1} W, whitening by eigendecompositions:
    (proportions, V / p, Sk) of the last fit, whose whitening by the plug-in
    Sk also gives V, and the proportions Sk was estimated from."""
    n = Y.shape[1]
    p = W.shape[0]
    est = estimate_proportions(W, Y)
    for t in range(max_iter - 1):
        prev = est
        Sk = np.stack([_plug_in(S) for S in
                       cts_covariance_raw_all(prev ** 2, Y - W @ prev.T)])
        w, Q = np.linalg.eigh(subject_covariance(prev, Sk))
        rw = 1.0 / np.sqrt(w)
        Ww = rw[:, :, None] * (Q.transpose(0, 2, 1) @ W)
        yw = rw * np.einsum('mqp,qm->mp', Q, Y)
        G = Ww.transpose(0, 2, 1) @ Ww
        a = np.einsum('mpk,mp->mk', Ww, yw)
        est = np.stack([qp.solve_simplex_normal(G[i], a[i])
                        for i in range(n)])
    return est, gls._gls_cov(G, p) / p, Sk, prev


def _sim_by_type(rng, p, n, K=3):
    # noise from per-type diagonal covariances: sample i's covariance is
    # sum_k pi_ik^2 S_k, the model the raw estimates fit
    W = rng.normal(0, 1, (p, K))
    P = rng.dirichlet([3, 2, 1], n)
    Ls = [np.sqrt(rng.uniform(0.5, 2.0, p))[:, None] for _ in range(K)]
    E = sum(P[:, k] * (Ls[k] * rng.standard_normal((p, n))) for k in range(K))
    return W, W @ P.T + E


@pytest.mark.parametrize("passes", [2, 3])
def test_iteration_matches_the_inline_loop_where_the_floor_is_inactive(passes):
    # Many samples per gene and noise from the model: every raw per-type
    # estimate is positive definite, so the projection's eigenvalue floor at
    # zero does not act, the whitened problems are well conditioned, and the
    # reused products must give the old loop's numbers at a flat rtol.
    rng = np.random.default_rng(20)
    W, Y = _sim_by_type(rng, p=6, n=400)
    res = run_gls_iterative(W, Y, max_iter=passes)
    *want, prev = _old_run_gls_iterative(W, Y, passes)
    raw = cts_covariance_raw_all(prev ** 2, Y - W @ prev.T)
    assert (np.linalg.eigvalsh(raw)[:, 0] > 0.0).all()
    w = np.linalg.eigvalsh(subject_covariance(prev, want[2]))
    assert (w[:, 0] > 1e-3 * w[:, -1]).all()
    got = (res.proportions, res.covariances, res.cts_covariances)
    for g, x in zip(got, want):
        assert_allclose(g, x, rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("passes", [2, 3])
def test_iteration_matches_the_inline_loop(passes):
    # Fewer samples per gene and iid noise: raw estimates are indefinite, and
    # the plug-in Sigma_i reach condition numbers near 5e5. The projected,
    # ridged weights still keep every whitened problem well posed, and the
    # reused products give the old loop's numbers to 1e-10 of each array's
    # largest entry (8e-13 measured).
    rng = np.random.default_rng(16)
    W, P, Y = _sim(rng, n=40)
    res = run_gls_iterative(W, Y, max_iter=passes)
    assert res.iterations == passes
    *want, prev = _old_run_gls_iterative(W, Y, passes)
    raw = cts_covariance_raw_all(prev ** 2, Y - W @ prev.T)
    assert (np.linalg.eigvalsh(raw)[:, 0] < 0.0).all()
    got = (res.proportions, res.covariances, res.cts_covariances)
    for g, x in zip(got, want):
        assert_allclose(g, x, rtol=0, atol=1e-10 * np.abs(x).max())


@pytest.mark.parametrize("r", range(4))
def test_two_step_estimate_and_covariance_share_one_plug_in(r):
    # desk replicates: the returned estimate is the GLS fit whitened by the
    # plug-in it returns, built on the plain constrained fit, and the
    # returned covariance is that same fit's, byte for byte
    _, Wobs, P, Y, Sig = replicate_dataset(SimConfig(), replicate_rng(0, r))
    res = run_gls_iterative(Wobs, Y, max_iter=2)
    S, H = res.cts_covariances, estimate_proportions(Wobs, Y) ** 2
    assert res.proportions.tobytes() == solve_gls(Wobs, Y, S, H).tobytes()
    assert (res.covariances.tobytes()
            == (gls_covariance(Wobs, S, H) / Wobs.shape[0]).tobytes())


@pytest.mark.parametrize("p, n", [(24, 200), (12, 500), (16, 400)])
def test_iteration_runs_through_on_iid_noise(p, n):
    # plain iid noise, where raw per-type moments floored at 1e-10 of their
    # top eigenvalue made W' Sigma_i^{-1} W numerically singular (eigenvalue
    # ratios near 1e-10) and a later pass abort with SingularDesign
    rng = np.random.default_rng(16)
    W, P, Y = _sim(rng, p=p, n=n)
    res = run_gls_iterative(W, Y, max_iter=5)
    assert res.iterations == 5
    assert res.proportions.min() >= 0
    assert np.abs(res.proportions.sum(axis=1) - 1).max() < 1e-12
    assert np.isfinite(res.covariances).all()


def test_iteration_whitens_a_chunk_at_a_time():
    # the iteration never holds an (n, p, p) stack: its traced peak stays
    # below a quarter of one (p=60, n=400: 11.5 MB)
    rng = np.random.default_rng(22)
    W, Y = _sim_by_type(rng, p=60, n=400)
    stack = Y.shape[1] * 60 * 60 * 8
    assert gls._WHITEN_BYTES < stack / 8
    tracemalloc.start()
    try:
        res = run_gls_iterative(W, Y, max_iter=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 2
    assert peak < stack / 4, peak


def test_iteration_names_the_sample_without_a_positive_eigenvalue(
        monkeypatch):
    # sample 5, in the third chunk of two, is fitted as all type 0, whose
    # per-type covariance is negative definite and projects to zero; no
    # other sample holds type 0
    rng = np.random.default_rng(23)
    p = 8
    W = rng.normal(0, 1, (p, 3))
    P = np.zeros((7, 3))
    P[:, 1] = rng.uniform(0.2, 0.8, 7)
    P[:, 2] = 1.0 - P[:, 1]
    P[5] = [1.2, -0.1, -0.1]                 # beyond the vertex [1, 0, 0]
    Y = W @ P.T
    assert_array_equal(estimate_proportions(W, Y)[5], [1.0, 0.0, 0.0])
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 2 * p * p * 8)
    monkeypatch.setattr(gls, "cts_covariance_raw_all",
                        lambda H, Z: np.stack([-np.eye(p), np.eye(p),
                                               np.eye(p)]))
    with pytest.raises(SingularSigma, match="^matrix 5: subject covariance "
                       "is not positive definite$"):
        run_gls_iterative(W, Y, max_iter=2)


def _count_gates(monkeypatch):
    """The verdicts of the qp._is_pd calls made from here on."""
    real, verdicts = qp._is_pd, []

    def counting(M):
        verdicts.append(real(M))
        return verdicts[-1]

    monkeypatch.setattr(qp, "_is_pd", counting)
    return verdicts


@pytest.mark.parametrize("r", range(4))
def test_per_type_stack_gives_the_materialised_results_bytewise(
        r, monkeypatch):
    # desk replicates of the gls_oracle arm: the per-type form proves every
    # matrix, so no gate is asked, and the bytes are those of the dense
    # stack taken through the gate, matrix by matrix; rows of the per-type
    # form give the same rows
    _, Wobs, P, Y, Sig = replicate_dataset(SimConfig(), replicate_rng(0, r))
    H = P ** 2
    full = subject_covariance(P, Sig)
    gates = _count_gates(monkeypatch)
    est, V = solve_gls(Wobs, Y, Sig, H), gls_covariance(Wobs, Sig, H)
    assert gates == []
    assert (solve_gls(Wobs, Y[:, 5:9], Sig, H[5:9]).tobytes()
            == est[5:9].tobytes())
    assert gls_covariance(Wobs, Sig, H[7:8]).tobytes() == V[7].tobytes()
    monkeypatch.setattr(gls, "_proven", lambda S, H: np.zeros(len(H), bool))
    assert (est.tobytes(), V.tobytes()) == (
        solve_gls(Wobs, Y, *_stack(full)).tobytes(),
        gls_covariance(Wobs, *_stack(full)).tobytes())
    assert gates == [True] * (2 * len(full))


def _error(fn, *args):
    with pytest.raises(DecalsError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_per_type_stack_errors_match_the_materialised_ones(monkeypatch):
    rng = np.random.default_rng(24)
    p, n = 10, 7
    W, _ = _design(rng, p=p)
    Sig = np.stack([_rand_cov(rng, p) for _ in range(3)])
    P = rng.dirichlet([3, 2, 1], n)
    Y = W @ P.T
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 2 * p * p * 8)
    # a non-finite proportion in the third chunk is named by its absolute
    # index: as a weight of the per-type form, and as the dense stack's
    # covariance that it makes non-finite
    P[5, 1] = np.nan
    for fn, args in ((solve_gls, (W, Y)), (gls_covariance, (W,))):
        assert _error(fn, *args, *_stack(subject_covariance(P, Sig))) == (
            NonFinite, "covariance 5 of S contains NaN/Inf")
        with pytest.raises(ValueError, match=r"^sample 5: weights must be "
                           r"finite and >= 0, got \[.*nan"):
            fn(*args, Sig, P ** 2)
    P[5, 1] = 0.2
    # K mismatch between the weights and the covariances
    for fn, args in ((solve_gls, (W, Y)), (gls_covariance, (W,))):
        assert _error(fn, *args, Sig, P[:, :2] ** 2) == (
            DimensionMismatch, "covariances S (3, 10, 10) and weights H "
            "(7, 2) do not match p=10; need (m, 10, 10) and (n, m)")
    # p mismatch against W
    for fn, args in ((solve_gls, (W[1:], Y[1:])), (gls_covariance, (W[1:],))):
        assert _error(fn, *args, *_stack(subject_covariance(P, Sig))) == (
            DimensionMismatch, "covariances S (7, 10, 10) and weights H "
            "(7, 7) do not match p=9; need (m, 9, 9) and (n, m)")
        assert _error(fn, *args, Sig, P ** 2) == (
            DimensionMismatch, "covariances S (3, 10, 10) and weights H "
            "(7, 3) do not match p=9; need (m, 9, 9) and (n, m)")


@pytest.mark.parametrize("weight", [-1e-300, -0.5, np.nan, np.inf, -np.inf])
def test_a_negative_or_non_finite_weight_is_refused(weight, monkeypatch):
    # the certificate's Weyl bound needs every weight >= 0, which squared
    # proportions always were: a bad weight is refused, naming its sample,
    # before any matrix is formed or factored
    rng = np.random.default_rng(28)
    p, n = 10, 6
    W, _ = _design(rng, p=p)
    Sig = np.stack([_rand_cov(rng, p) for _ in range(3)])
    P = rng.dirichlet([3, 2, 1], n)
    H = P ** 2
    H[4, 2] = weight
    factors = []
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf",
                        lambda *a, **k: factors.append(a))
    for fn, args in ((solve_gls, (W, W @ P.T)), (gls_covariance, (W,))):
        with pytest.raises(ValueError) as err:
            fn(*args, Sig, H)
        assert str(err.value) == ("sample 4: weights must be finite and >= "
                                  f"0, got {H[4].tolist()}")
    assert factors == []


def _gated_types(rng, p, cs):
    """Exactly symmetric per-type covariances, the k-th with its smallest
    eigenvalue at cs[k] times the gate's shift _PD_GATE ||C_k||_inf, at
    scales 2^-10 to 2^9."""
    out = []
    for c in cs:
        C = _spectrum_cov(rng, np.linspace(0.0, 1.0, p))
        C = 0.5 * (C + C.T)
        g = c * qp._PD_GATE
        # C's diagonal is positive, so ||C + t I||_inf = ||C||_inf + t
        C.flat[::p + 1] += g * np.abs(C).sum(axis=1).max() / (1.0 - g)
        out.append(2.0 ** rng.integers(-10, 10) * C)
    return np.stack(out)


@pytest.mark.parametrize("p", [10, 150])
def test_the_certificate_admits_only_what_the_gate_passes(p):
    # per-type smallest eigenvalues at 0 to 1e3 times the gate's shift; no
    # type (a zero Sigma_i), flat Dirichlet weights over all six types and
    # over the last three, spiky ones over the last two, each type alone
    rng = np.random.default_rng(26)
    C = _gated_types(rng, p, [0.0, 0.5, 1.0, 2.0, 10.0, 1e3])
    P = np.zeros((37, 6))
    P[1:11] = rng.dirichlet(np.ones(6), 10)
    P[11:21, 3:] = rng.dirichlet(np.ones(3), 10)
    P[21:31, 4:] = rng.dirichlet(np.full(2, 0.2), 10)
    P[31:] = np.eye(6)
    S, H = gls._subject(np.empty((p, 6)), C, P ** 2)
    assert S.tobytes() == C.tobytes()        # C is exactly symmetric
    full = subject_covariance(P, C)
    proven = gls._proven(S, H)
    for i in np.flatnonzero(proven):
        assert qp._is_pd(full[i]), i
        assert_array_equal(full[i], full[i].T)
    assert proven.any() and not proven.all()
    # a type is proven only well above twice the shift, and a mixture only
    # when all its types are
    want = np.zeros(37, dtype=bool)
    want[21:31] = want[35:] = True
    assert_array_equal(proven, want)


def test_per_type_stack_falls_back_to_the_gate(monkeypatch):
    # matrices the per-type form does not prove take the gate, once each,
    # and give the materialised array's bytes and errors
    rng = np.random.default_rng(27)
    p, n = 10, 9
    W, _ = _design(rng, p=p)
    P = np.zeros((n, 3))
    P[:, 1:] = rng.dirichlet([2, 1], n)
    Y = W @ P.T + rng.normal(0, 1, (p, n))
    Sig = np.stack([_rand_cov(rng, p) for _ in range(3)])
    assert all(np.array_equal(C, C.T) for C in Sig)
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 2 * p * p * 8)
    gates = _count_gates(monkeypatch)

    def bytewise(P, C, uncertified):
        # the dense stack is formed from the types symmetrized, as the
        # per-type form symmetrizes them
        H, sym = P ** 2, 0.5 * (C + C.swapaxes(1, 2))
        assert_array_equal(np.flatnonzero(~gls._proven(sym, H)), uncertified)
        full = subject_covariance(P, sym)
        gates.clear()
        got = (solve_gls(W, Y, C, H).tobytes(),
               gls_covariance(W, C, H).tobytes())
        assert gates == [True] * (2 * len(uncertified))
        assert got == (solve_gls(W, Y, *_stack(full)).tobytes(),
                       gls_covariance(W, *_stack(full)).tobytes())

    bytewise(P, Sig, [])
    # one entry of one C_k a unit in the last place off symmetry: the type
    # is symmetrized once, and then every matrix is proven
    odd = Sig.copy()
    odd[1, 2, 5] = np.nextafter(odd[1, 2, 5], np.inf)
    bytewise(P, odd, [])
    # a type at twice the gate's shift, alone in samples 1 and 6 and mixed
    # in sample 3
    P2 = P.copy()
    P2[[1, 6]] = [1.0, 0.0, 0.0]
    P2[3] = [0.5, 0.3, 0.2]
    bytewise(P2, np.concatenate([_gated_types(rng, p, [2.0]), Sig[1:]]),
             [1, 3, 6])
    # a singular C_k, mixed in sample 2, which the gate passes, and alone in
    # sample 4, which it refuses
    sing = Sig.copy()
    A = rng.normal(0, 1, (p, p - 2))
    sing[0] = 0.5 * (A @ A.T + (A @ A.T).T)
    P[2] = [0.5, 0.3, 0.2]
    P[4] = [1.0, 0.0, 0.0]
    for fn, args in ((solve_gls, (W, Y)), (gls_covariance, (W,))):
        want = _error(fn, *args, *_stack(subject_covariance(P, sing)))
        assert want == (SingularSigma, "matrix 4: subject covariance is not "
                        "positive definite")
        gates.clear()
        assert _error(fn, *args, sing, P ** 2) == want
        assert gates == [True, False]


def test_oracle_arm_whitens_a_chunk_at_a_time():
    # neither the fit nor the covariance of the gls_oracle arm holds an
    # (n, p, p) stack, which np.asarray would form quietly from the
    # per-type stack: the traced peak stays below a quarter of one
    # (p=60, n=400: 11.5 MB)
    _, Wobs, P, Y, Sig = replicate_dataset(SimConfig(p=60, n=400),
                                           replicate_rng(0, 0))
    stack = 400 * 60 * 60 * 8
    assert gls._WHITEN_BYTES < stack / 8
    tracemalloc.start()
    try:
        est, V = simgen._fit_estimates("gls_oracle", Wobs, Y, P, Sig, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.shape == (400, 3) and V.shape == (400, 3, 3)
    assert peak < stack / 4, peak
