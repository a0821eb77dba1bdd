"""Generalized-least-squares arm: whitening, covariance, iteration."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import enum_simplex_ls, one_sandwich
from decals import gls, qp, simgen
from decals.covest import (SubjectCovariances, cts_covariance_raw_all,
                           subject_covariance)
from decals.deconv import estimate_proportions
from decals.errors import (DecalsError, DimensionMismatch,
                           NonConvergenceWarning, NonFinite, SingularDesign,
                           SingularSigma)
from decals.gls import gls_covariance, run_gls_iterative, solve_gls
from decals.simgen import SimConfig, replicate_dataset, replicate_rng


def _design(rng, p=30, K=3):
    W = rng.normal(0, 1, (p, K))
    pi = rng.dirichlet([3, 2, 1])
    return W, pi


def _rand_cov(rng, p, scale=1.0):
    A = rng.normal(0, scale, (p, p))
    return A @ A.T + 0.1 * np.eye(p)


def test_identity_sigma_equals_plain_ls():
    rng = np.random.default_rng(0)
    W, pi = _design(rng)
    y = W @ pi + rng.normal(0, 1, 30)
    assert_allclose(solve_gls(W, y, np.eye(30)),
                    qp.solve_simplex_ls(W, y), atol=1e-10)
    # scaling Sigma by a constant cannot change the estimate
    assert_allclose(solve_gls(W, y, 7.3 * np.eye(30)),
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
        assert_allclose(solve_gls(W, y, S), ref, atol=1e-8)


def test_gls_covariance_iid_matches_sandwich():
    # under Sigma = s2*I the GLS covariance and the sandwich agree exactly
    rng = np.random.default_rng(2)
    W, _ = _design(rng, p=40)
    s2 = 2.3
    assert_allclose(gls_covariance(W, s2 * np.eye(40)),
                    one_sandwich(W, s2 * np.eye(40)), atol=1e-8)


def test_gls_covariance_structure_and_efficiency():
    rng = np.random.default_rng(3)
    W, _ = _design(rng, p=35)
    S = _rand_cov(rng, 35)
    Vg = gls_covariance(W, S)
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
    with pytest.raises(SingularSigma):
        solve_gls(W, np.ones(30), np.zeros((30, 30)))


def test_near_singular_sigma_is_floored():
    rng = np.random.default_rng(5)
    W, pi = _design(rng, p=20)
    y = W @ pi
    S = np.zeros((20, 20))
    S[0, 0] = 1.0                            # rank one: floor handles the rest
    x = solve_gls(W, y, S)
    assert x.min() >= 0 and abs(x.sum() - 1) < 1e-12


def test_downweights_corrupted_high_variance_gene():
    rng = np.random.default_rng(6)
    W, pi = _design(rng, p=30)
    y = W @ pi
    y[0] += 50.0                             # gross error on gene 0
    S = np.eye(30)
    S[0, 0] = 1e4                            # which GLS knows is unreliable
    x_gls = solve_gls(W, y, S)
    x_ols = qp.solve_simplex_ls(W, y)
    assert np.abs(x_gls - pi).max() < 1e-2
    assert np.abs(x_ols - pi).max() > 10 * np.abs(x_gls - pi).max()


def _sim(rng, p=36, K=3, n=25, noise=0.5):
    W = rng.normal(0, 1, (p, K))
    P = rng.dirichlet([3, 2, 1], n)
    Y = W @ P.T + noise * rng.standard_normal((p, n))
    return W, P, Y


def test_one_pass_equals_constrained_ls():
    # the first pass fits with the identity weighting
    rng = np.random.default_rng(7)
    W, P, Y = _sim(rng)
    res = run_gls_iterative(W, Y, max_iter=1)
    ref = estimate_proportions(W, Y)
    assert_allclose(res.proportions, ref, atol=1e-10)
    assert res.iterations == 1
    assert res.lambdas is None


def test_iteration_warns_without_convergence():
    rng = np.random.default_rng(8)
    W, P, Y = _sim(rng)
    with pytest.warns(NonConvergenceWarning):
        res = run_gls_iterative(W, Y, max_iter=2, tol=1e-12)
    assert res.iterations == 2
    assert not res.converged
    assert res.proportions.min() >= 0
    assert np.abs(res.proportions.sum(axis=1) - 1).max() < 1e-10
    assert np.isfinite(res.covariances).all()


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-4])
def test_iteration_rejects_tol_that_never_converges(tol):
    rng = np.random.default_rng(8)
    W, P, Y = _sim(rng)
    with pytest.raises(ValueError, match=f"tol must be > 0, got {tol}"):
        run_gls_iterative(W, Y, tol=tol)


def test_iteration_determinism():
    rng = np.random.default_rng(9)
    W, P, Y = _sim(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = run_gls_iterative(W, Y, max_iter=2, tol=1e-12)
        r2 = run_gls_iterative(W, Y, max_iter=2, tol=1e-12)
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
        err_gls += np.abs(solve_gls(W, y, S) - pi).sum()
        err_ols += np.abs(qp.solve_simplex_ls(W, y) - pi).sum()
    assert err_gls < err_ols


def _old_floored_eig(S):
    # oracle: whitening by the floored eigendecomposition, one sample at a time
    w, Q = np.linalg.eigh(0.5 * (S + S.T))
    return np.maximum(w, 1e-10 * w[-1]), Q


def _old_solve_gls(W, y, S):
    w, Q = _old_floored_eig(S)
    rw = 1.0 / np.sqrt(w)
    return qp.solve_simplex_ls(rw[:, None] * (Q.T @ W), rw * (Q.T @ y))


def _old_gram(W, S):
    w, Q = _old_floored_eig(S)
    QtW = Q.T @ W
    return QtW.T @ (QtW / w[:, None])


def _old_gls_covariance(W, S):
    Ai = np.linalg.inv(_old_gram(W, S))
    s = Ai.sum(axis=1)
    V = W.shape[0] * (Ai - np.outer(s, s) / s.sum())
    return 0.5 * (V + V.T)


def _spectrum_cov(rng, eigenvalues):
    # a symmetric matrix with the given eigenvalues, random eigenvectors
    p = len(eigenvalues)
    Q, _ = np.linalg.qr(rng.normal(0, 1, (p, p)))
    return (Q * eigenvalues) @ Q.T


def _mixed_stack(rng, p):
    """PD, rank-one, indefinite (positive top) and PD-with-condition-1e12
    subject covariances, in that order."""
    v = rng.normal(0, 1, p)
    return np.stack([_rand_cov(rng, p), np.outer(v, v),
                     _spectrum_cov(rng, np.linspace(-0.5, 1.0, p)),
                     _spectrum_cov(rng, np.logspace(0, -12, p))])


def _fails_gate(S):
    """Whether the symmetric S fails the Cholesky gate (module docstring of
    gls), from its spectrum; the fixtures keep far from the boundary."""
    return np.linalg.eigvalsh(S)[0] <= 1e-10 * np.abs(S).sum(axis=1).max()


@pytest.fixture
def floored_calls(monkeypatch):
    """The indices of the matrices that take the floored eigendecomposition,
    one entry per call."""
    calls = []
    real = gls._floor_whiten

    def counting(Sc, Xi, i):
        calls.append(i)
        return real(Sc, Xi, i)

    monkeypatch.setattr(gls, "_floor_whiten", counting)
    return calls


def test_whitening_path_follows_the_floor(floored_calls):
    rng = np.random.default_rng(11)
    p = 24
    W, pi = _design(rng, p=p)
    y = W @ pi + rng.normal(0, 1, p)
    S_ok = _rand_cov(rng, p)
    assert np.linalg.eigvalsh(S_ok)[0] > 1e-3 * np.linalg.eigvalsh(S_ok)[-1]
    assert_allclose(solve_gls(W, y, S_ok), _old_solve_gls(W, y, S_ok),
                    rtol=1e-12, atol=1e-14)
    assert_allclose(gls_covariance(W, S_ok), _old_gls_covariance(W, S_ok),
                    rtol=1e-12, atol=1e-14)
    assert floored_calls == []               # Cholesky path both times
    # positive definite, but the floor acts: the second Cholesky must refuse
    S_ill = _spectrum_cov(rng, np.logspace(0, -12, p))
    np.linalg.cholesky(S_ill)
    assert_allclose(solve_gls(W, y, S_ill), _old_solve_gls(W, y, S_ill),
                    rtol=1e-12, atol=1e-14)
    assert_allclose(gls_covariance(W, S_ill), _old_gls_covariance(W, S_ill),
                    rtol=1e-9)
    assert floored_calls == [0, 0]


def test_a_factor_that_fails_after_the_gate_takes_the_floor(monkeypatch,
                                                          floored_calls):
    # rounding could let Sigma - tau I factor (the gate, qp._is_pd) and
    # Sigma not; gls.dpotrf sees only that unshifted factor, whose failure
    # has written over the symmetrized copy, which the floor must then form
    # again
    rng = np.random.default_rng(25)
    p = 12
    W, pi = _design(rng, p=p)
    y = W @ pi + rng.normal(0, 1, p)
    S = _rand_cov(rng, p)
    real, calls = gls.dpotrf, []

    def unshifted_fails(a, **kwargs):
        c, info = real(a, **kwargs)
        calls.append(info)
        return c, 1

    monkeypatch.setattr(gls, "dpotrf", unshifted_fails)
    assert_allclose(solve_gls(W, y, S), _old_solve_gls(W, y, S), rtol=1e-12,
                    atol=1e-14)
    assert calls == [0] and floored_calls == [0]


def test_whitening_asks_the_qp_gate_once_per_matrix(monkeypatch,
                                                    floored_calls):
    # gls and nearest_psd share one gate: whitening asks qp._is_pd once per
    # subject covariance, and only the matrices it refuses reach the floor
    rng = np.random.default_rng(16)
    p = 20
    W, _ = _design(rng, p=p)
    S = np.concatenate([_mixed_stack(rng, p),
                        np.stack([_rand_cov(rng, p) for _ in range(2)])])
    real, verdicts = qp._is_pd, []

    def counting(M):
        verdicts.append(real(M))
        return verdicts[-1]

    monkeypatch.setattr(qp, "_is_pd", counting)
    gls_covariance(W, S)
    assert verdicts == [not _fails_gate(Si) for Si in S]
    assert verdicts == [True, False, False, False, True, True]
    assert floored_calls == [1, 2, 3]
    Y = W @ rng.dirichlet([3, 2, 1], len(S)).T
    solve_gls(W, Y, S)
    assert len(verdicts) == 2 * len(S) and floored_calls == [1, 2, 3] * 2


@pytest.mark.parametrize("chunk", ["one", "two", "all"])
def test_stacked_calls_equal_one_sample_calls(chunk, monkeypatch,
                                              floored_calls):
    # each matrix takes the path its own gate picks, whatever its chunk
    # holds, so the floor runs once per gate-failing matrix and a stacked
    # call gives each sample the bytes of its one-sample call
    rng = np.random.default_rng(12)
    p = 20
    W, _ = _design(rng, p=p)
    S = np.concatenate([_mixed_stack(rng, p), _mixed_stack(rng, p)[::-1],
                        np.stack([_rand_cov(rng, p) for _ in range(3)])])
    n = len(S)
    P = rng.dirichlet([3, 2, 1], n)
    Y = W @ P.T + rng.normal(0, 1, (p, n))
    per = {"one": 1, "two": 2, "all": n}[chunk]
    monkeypatch.setattr(gls, "_WHITEN_BYTES", per * p * p * 8)
    est = solve_gls(W, Y, S)
    V = gls_covariance(W, S)
    failing = [i for i in range(n) if _fails_gate(S[i])]
    assert failing == [1, 2, 3, 4, 5, 6]
    assert floored_calls == failing * 2
    assert est.shape == (n, 3) and V.shape == (n, 3, 3)
    for i in range(n):
        assert_array_equal(est[i], solve_gls(W, Y[:, i], S[i]))
        assert_array_equal(V[i], gls_covariance(W, S[i]))
        # and the old eigendecomposition-only kernel, up to rounding, which
        # a floored indefinite Sigma amplifies by cond(W' Sigma^{-1} W) ~ 1e9
        tol = max(1e-12, 1e-15 * np.linalg.cond(_old_gram(W, S[i])))
        assert_allclose(est[i], _old_solve_gls(W, Y[:, i], S[i]), rtol=tol,
                        atol=tol)
        assert_allclose(V[i], _old_gls_covariance(W, S[i]), rtol=tol,
                        atol=1e-14)


def test_stacked_shapes_are_checked():
    rng = np.random.default_rng(13)
    W, _ = _design(rng, p=10)
    S = np.stack([np.eye(10)] * 3)
    with pytest.raises(DimensionMismatch):
        solve_gls(W, np.ones((10, 2)), S)     # 2 responses, 3 covariances
    with pytest.raises(DimensionMismatch):
        solve_gls(W, np.ones(10), S)
    with pytest.raises(DimensionMismatch):
        gls_covariance(W, np.eye(9))
    with pytest.raises(NonFinite,
                       match="^matrix 1: subject covariance contains NaN/Inf"):
        S[1, 2, 3] = np.nan
        gls_covariance(W, S)
    with pytest.raises(SingularSigma, match="^matrix 1: subject covariance has "
                       "no positive eigenvalue"):
        solve_gls(W, np.ones((10, 3)), np.stack([np.eye(10), -np.eye(10),
                                                 np.eye(10)]))
    with pytest.raises(NonFinite, match="^matrix 2: normal equations"):
        solve_gls(W, np.vstack([np.ones((9, 3)), [1.0, 1.0, np.nan]]),
                  np.stack([np.eye(10)] * 3))
    with pytest.raises(SingularDesign, match="^matrix 0: moment matrix"):
        solve_gls(np.column_stack([W[:, 0], W]), np.ones((10, 3)),
                  np.stack([np.eye(10)] * 3))


def test_only_gate_failing_matrices_reach_the_floor(floored_calls):
    # one chunk holding PD and indefinite covariances floors only the
    # matrices that fail the gate; each sample, on either path, matches the
    # eigendecomposition-only kernel
    rng = np.random.default_rng(14)
    p = 20
    W, _ = _design(rng, p=p)
    S = np.concatenate([np.stack([_rand_cov(rng, p) for _ in range(3)]),
                        _mixed_stack(rng, p)])
    n = len(S)
    assert n * p * p * 8 <= gls._WHITEN_BYTES          # a single chunk
    Y = W @ rng.dirichlet([3, 2, 1], n).T + rng.normal(0, 1, (p, n))
    est = solve_gls(W, Y, S)
    V = gls_covariance(W, S)
    failing = [i for i in range(n) if _fails_gate(S[i])]
    assert failing == [4, 5, 6]
    assert floored_calls == failing * 2
    for i in range(n):
        tol = max(1e-12, 1e-15 * np.linalg.cond(_old_gram(W, S[i])))
        assert_allclose(est[i], _old_solve_gls(W, Y[:, i], S[i]), rtol=tol,
                        atol=tol)
        assert_allclose(V[i], _old_gls_covariance(W, S[i]), rtol=tol,
                        atol=1e-14)


def test_whitening_calls_scipy_on_single_matrices(monkeypatch):
    # scipy batches its linalg routines over stacks only from 1.15 on
    import scipy.linalg.lapack
    fortran = type(scipy.linalg.lapack.dpotrf)
    seen = []
    for name, fn in list(vars(gls).items()):
        if not (isinstance(fn, fortran) or (getattr(fn, "__module__", None)
                                            or "").startswith("scipy.linalg")):
            continue

        def wrapped(*args, _fn=fn, _name=name, **kw):
            arrays = [x for x in (*args, *kw.values())
                      if isinstance(x, np.ndarray)]
            assert all(x.ndim <= 2 for x in arrays), _name
            seen.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(gls, name, wrapped)
    rng = np.random.default_rng(15)
    p = 16
    W, _ = _design(rng, p=p)
    S = np.concatenate([np.stack([_rand_cov(rng, p) for _ in range(4)]),
                        _mixed_stack(rng, p)])
    Y = W @ rng.dirichlet([3, 2, 1], len(S)).T + rng.normal(0, 1, (p, len(S)))
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 4 * p * p * 8)
    solve_gls(W, Y, S)
    gls_covariance(W, S)
    assert {"dpotrf", "dtrtrs", "dsytrd", "dstevd", "dormqr"} <= set(seen)


@pytest.mark.parametrize("p", [1, 2, 5, 20])
def test_floor_kernel_matches_the_eigendecomposition(p, monkeypatch):
    # whitening from the tridiagonal form gives the floored eigenvector
    # whitening's Gram matrices (the eigenvectors' signs differ) on PD,
    # rank-one, indefinite and condition-1e12 inputs
    rng = np.random.default_rng(21)
    S = _mixed_stack(rng, p) if p > 1 else np.array([[[2.3]], [[1e-12]]])
    X = rng.normal(0, 1, (len(S), p, 4))

    def whiten():
        out = np.array(X.transpose(0, 2, 1), order="C").transpose(0, 2, 1)
        assert all(Xi.flags.f_contiguous for Xi in out)
        for i, (Si, Xi) in enumerate(zip(S, out)):
            gls._floor_whiten(0.5 * np.add(Si, Si.T, order="C"), Xi, i)
        return out

    got = whiten()
    for Si, Xi, Gi in zip(S, X, got):
        w, Q = _old_floored_eig(Si)
        QtX = Q.T @ Xi
        want = QtX.T @ (QtX / w[:, None])
        assert_allclose(Gi.T @ Gi, want, rtol=0,
                        atol=1e-12 * np.abs(want).max())
    # scipy releases without dstevd take dsbevd on the band, to the same bytes
    monkeypatch.setattr(gls, "dstevd", gls._dstevd_band)
    assert np.array_equal(whiten(), got)


def test_whitening_does_not_depend_on_the_memory_layout(floored_calls):
    # Fortran-ordered and axis-moved stacks whiten like C-ordered ones, on
    # the Cholesky path, with several matrices per chunk and with one
    rng = np.random.default_rng(18)
    p = 12
    W, _ = _design(rng, p=p)
    S = np.stack([_rand_cov(rng, p) for _ in range(5)])
    Y = W @ rng.dirichlet([3, 2, 1], len(S)).T + rng.normal(0, 1, (p, len(S)))
    est, V = solve_gls(W, Y, S), gls_covariance(W, S)
    last = np.ascontiguousarray(np.moveaxis(S, 0, -1))     # (p, p, n)
    for T in (np.asfortranarray(S), np.moveaxis(last, -1, 0)):
        assert not T.flags.c_contiguous
        assert_allclose(solve_gls(W, Y, T), est, rtol=0, atol=1e-15)
        assert_allclose(gls_covariance(W, T), V, rtol=1e-14)
    one = np.asfortranarray(S[2])
    assert_allclose(solve_gls(W, Y[:, 2], one), est[2], rtol=0, atol=1e-15)
    assert_allclose(gls_covariance(W, one), V[2], rtol=1e-14)
    assert floored_calls == []


def _old_run_gls_iterative(W, Y, max_iter):
    """The iteration as it was written before the fit reused the covariance
    step's W' Sigma^{-1} W: per pass, (proportions, V / p, Sk)."""
    n = Y.shape[1]
    p = W.shape[0]
    eig = None
    for t in range(max_iter):
        if eig is None:
            est = estimate_proportions(W, Y)
        else:
            w, Q = eig
            rw = 1.0 / np.sqrt(w)
            QtW = Q.transpose(0, 2, 1) @ W
            Ww = rw[:, :, None] * QtW
            yw = rw * np.einsum('mqp,qm->mp', Q, Y)
            G = Ww.transpose(0, 2, 1) @ Ww
            a = np.einsum('mpk,mp->mk', Ww, yw)
            est = np.stack([qp.solve_simplex_normal(G[i], a[i])
                            for i in range(n)])
        Sk = cts_covariance_raw_all(est ** 2, Y - W @ est.T)
        w, Q = np.linalg.eigh(subject_covariance(est, Sk))
        w = np.maximum(w, 1e-10 * w[:, -1:])
        eig = (w, Q)
        QtW = Q.transpose(0, 2, 1) @ W
        V = gls._gls_cov(QtW.transpose(0, 2, 1) @ (QtW / w[:, :, None]), p)
    return est, V / p, Sk


def _sim_by_type(rng, p, n, K=3):
    # noise from per-type diagonal covariances: sample i's covariance is
    # sum_k pi_ik^2 S_k, the model the raw estimates fit
    W = rng.normal(0, 1, (p, K))
    P = rng.dirichlet([3, 2, 1], n)
    Ls = [np.sqrt(rng.uniform(0.5, 2.0, p))[:, None] for _ in range(K)]
    E = sum(P[:, k] * (Ls[k] * rng.standard_normal((p, n))) for k in range(K))
    return W, W @ P.T + E


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_iteration_matches_the_inline_loop_where_the_floor_is_inactive(passes):
    # Many samples per gene and noise from the model: every plug-in subject
    # covariance is positive definite far above the floor, the whitened
    # problems are well conditioned, and the reused products must give the
    # old loop's numbers at a flat rtol.
    rng = np.random.default_rng(20)
    W, Y = _sim_by_type(rng, p=6, n=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_gls_iterative(W, Y, max_iter=passes, tol=1e-300)
    want = _old_run_gls_iterative(W, Y, passes)
    w = np.linalg.eigvalsh(subject_covariance(want[0], want[2]))
    assert (w[:, 0] > 1e-3 * w[:, -1]).all()
    got = (res.proportions, res.covariances, res.cts_covariances)
    for g, x in zip(got, want):
        assert_allclose(g, x, rtol=1e-10, atol=1e-15)


def _within(got, want, jig):
    """Per leading index: |got - want| <= max(1e-10 |want|, 10 |jig - want|),
    maxima taken over the other axes."""
    ax = tuple(range(1, want.ndim))
    tol = np.maximum(1e-10 * np.abs(want).max(axis=ax),
                     10 * np.abs(jig - want).max(axis=ax))
    return bool((np.abs(got - want).max(axis=ax) <= tol).all())


@pytest.mark.parametrize("passes", [1, 2, 3])
def test_iteration_matches_the_inline_loop(passes):
    rng = np.random.default_rng(16)
    W, P, Y = _sim(rng, n=40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_gls_iterative(W, Y, max_iter=passes, tol=1e-300)
    assert res.iterations == passes
    want = _old_run_gls_iterative(W, Y, passes)
    # The floored plug-in weights make W' Sigma^{-1} W ill-conditioned, so
    # the old loop itself moves by more than 1e-10 when Y moves by one ulp
    # (here 2.9e-10 on the third pass's proportions, 4.1e-9 of the largest
    # entry on the first pass's covariances); ten times that spread widens
    # the bound where it exceeds 1e-10.
    ulp = 2.0 ** -52 * np.random.default_rng(17).choice([-1.0, 1.0], Y.shape)
    jig = _old_run_gls_iterative(W, Y * (1.0 + ulp), passes)
    got = (res.proportions, res.covariances, res.cts_covariances)
    for name, g, w, j in zip(("proportions", "covariances", "Sk"), got, want,
                             jig):
        assert _within(g, w, j), name


def test_iteration_whitens_a_chunk_at_a_time():
    # the iteration never holds an (n, p, p) stack: its traced peak stays
    # below a quarter of one (p=60, n=400: 11.5 MB)
    rng = np.random.default_rng(22)
    W, Y = _sim_by_type(rng, p=60, n=400)
    stack = Y.shape[1] * 60 * 60 * 8
    assert gls._WHITEN_BYTES < stack / 8
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_gls_iterative(W, Y, max_iter=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 2
    assert peak < stack / 4, peak


def test_iteration_names_the_sample_without_a_positive_eigenvalue(
        monkeypatch):
    # sample 5, in the third chunk of two, is all type 0, whose per-type
    # covariance is negative definite; no other sample holds type 0
    rng = np.random.default_rng(23)
    p = 8
    W = rng.normal(0, 1, (p, 3))
    P = np.zeros((7, 3))
    P[:, 1] = rng.uniform(0.2, 0.8, 7)
    P[:, 2] = 1.0 - P[:, 1]
    P[5] = [1.0, 0.0, 0.0]
    monkeypatch.setattr(gls, "_WHITEN_BYTES", 2 * p * p * 8)
    monkeypatch.setattr(gls, "cts_covariance_raw_all",
                        lambda H, Z: np.stack([-np.eye(p), np.eye(p),
                                               np.eye(p)]))
    with pytest.raises(SingularSigma, match="^matrix 5: subject covariance "
                       "has no positive eigenvalue"):
        run_gls_iterative(W, W @ P.T, max_iter=1)


@pytest.mark.parametrize("r", range(4))
def test_per_type_stack_gives_the_materialised_results_bytewise(r):
    # desk replicates of the gls_oracle arm
    _, Wobs, P, Y, Sig = replicate_dataset(SimConfig(), replicate_rng(0, r))
    S = SubjectCovariances(P, Sig)
    full = subject_covariance(P, Sig)
    assert S.shape == full.shape and len(S) == len(full)
    assert S[5:9].tobytes() == full[5:9].tobytes()
    assert S[7].tobytes() == full[7].tobytes()
    assert (solve_gls(Wobs, Y, S).tobytes()
            == solve_gls(Wobs, Y, full).tobytes())
    assert (gls_covariance(Wobs, S).tobytes()
            == gls_covariance(Wobs, full).tobytes())


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
    # a non-finite entry in the third chunk is named by its absolute index
    P[5, 1] = np.nan
    for fn, args in ((solve_gls, (W, Y)), (gls_covariance, (W,))):
        want = _error(fn, *args, subject_covariance(P, Sig))
        assert want == (NonFinite, "matrix 5: subject covariance contains "
                        "NaN/Inf")
        assert _error(fn, *args, SubjectCovariances(P, Sig)) == want
    P[5, 1] = 0.2
    # K mismatch, raised where the stack is made
    want = _error(subject_covariance, P[:, :2], Sig)
    assert want == (DimensionMismatch,
                    "2 proportions vs 3 covariance matrices")
    assert _error(SubjectCovariances, P[:, :2], Sig) == want
    # p mismatch against W
    for fn, args in ((solve_gls, (W[1:], Y[1:])), (gls_covariance, (W[1:],))):
        want = _error(fn, *args, subject_covariance(P, Sig))
        assert want == (DimensionMismatch,
                        "subject covariance (7, 10, 10) does not match p=9")
        assert _error(fn, *args, SubjectCovariances(P, Sig)) == want


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
