"""Estimation and sandwich-covariance tests, ending in an MC check of the
normal approximation itself."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import one_sandwich, subject_covariance
from decals import deconv, gls
from decals.deconv import (BulkMatrix, SignatureMatrix, align_genes,
                           estimate_proportions, sandwich, wald_intervals)
from decals.errors import GeneMismatch, NonFinite


def _sig(rng, p, K):
    return rng.normal(0, 1, (p, K))


def test_noiseless_recovery():
    rng = np.random.default_rng(0)
    W = _sig(rng, 40, 3)
    P = rng.dirichlet([2, 2, 2], 8)
    ests = estimate_proportions(W, W @ P.T)
    assert_allclose(np.stack(ests), P, atol=1e-9)


def test_two_type_grid_oracle():
    # 1-D brute force over x = (t, 1-t) at 1e-6 resolution
    rng = np.random.default_rng(1)
    W = _sig(rng, 10, 2)
    y = rng.normal(0, 2, 10)
    t = np.linspace(0.0, 1.0, 1_000_001)
    X = np.column_stack([t, 1.0 - t])
    obj = ((y[None, :] - X @ W.T) ** 2).sum(axis=1)
    t_best = t[np.argmin(obj)]
    x = estimate_proportions(W, y[:, None])[0]
    assert abs(x[0] - t_best) <= 1e-4


def test_covariance_structure():
    rng = np.random.default_rng(2)
    W = _sig(rng, 30, 4)
    B = rng.normal(0, 1, (30, 30))
    V = one_sandwich(W, B @ B.T)
    assert_allclose(V, V.T, atol=1e-12)
    assert_allclose(V @ np.ones(4), 0.0, atol=1e-10)     # sum-to-one null
    w = np.linalg.eigvalsh(V)
    assert w[0] >= -1e-10 * w[-1]                        # PSD
    assert (w > 1e-10 * w[-1]).sum() <= 3                # rank <= K-1


def test_orthonormal_design_closed_form():
    # W'W = p*I and Sigma = s2*I give V = s2 * (I - 11'/K) exactly
    rng = np.random.default_rng(3)
    p, K, s2 = 64, 4, 2.5
    Q, _ = np.linalg.qr(rng.normal(0, 1, (p, K)))
    W = np.sqrt(p) * Q
    V = one_sandwich(W, s2 * np.eye(p))
    assert_allclose(V, s2 * (np.eye(K) - np.ones((K, K)) / K), atol=1e-10)


def test_joint_scale_invariance():
    # scaling W by c and Sigma by c^2 leaves V unchanged
    rng = np.random.default_rng(4)
    W = _sig(rng, 25, 3)
    B = rng.normal(0, 1, (25, 25))
    S = B @ B.T
    V1 = one_sandwich(W, S)
    V2 = one_sandwich(3.7 * W, 3.7 ** 2 * S)
    assert_allclose(V1, V2, rtol=1e-10)


def test_gene_permutation_invariance():
    rng = np.random.default_rng(5)
    W = _sig(rng, 25, 3)
    y = rng.normal(0, 1, 25)
    B = rng.normal(0, 1, (25, 25))
    S = B @ B.T
    perm = rng.permutation(25)
    x1 = estimate_proportions(W, y[:, None])[0]
    x2 = estimate_proportions(W[perm], y[perm][:, None])[0]
    assert_allclose(x1, x2, atol=1e-10)
    assert_allclose(one_sandwich(W, S),
                    one_sandwich(W[perm], S[np.ix_(perm, perm)]),
                    rtol=1e-9)


def test_sandwich_matches_empirical_covariance():
    # 600 noise draws around a fixed interior truth; the empirical covariance
    # of the estimates and the empirical coverage must match the asymptotics.
    rng = np.random.default_rng(6)
    p, K, n_mc = 100, 3, 600
    W = _sig(rng, p, K)
    pi = np.array([0.5, 0.3, 0.2])
    # noise small enough that the simplex boundary is essentially never hit
    A = rng.normal(0, 0.05, (p, p))
    Sigma = A @ A.T + 0.25 * np.eye(p)
    V = one_sandwich(W, Sigma) / p
    L = np.linalg.cholesky(Sigma)
    ests = np.empty((n_mc, K))
    for m in range(n_mc):
        y = W @ pi + L @ rng.standard_normal(p)
        ests[m] = estimate_proportions(W, y[:, None])[0]
    emp = np.cov(ests.T)
    # MC error on covariance entries is O(1/sqrt(600)) ~ 4%; allow 25%
    assert np.abs(emp - V).max() <= 0.25 * np.abs(V).max()
    z = 1.959963984540054
    half = z * np.sqrt(np.diag(V))
    hits = (np.abs(ests - pi) <= half).mean(axis=0)
    # binomial SE at n=600 is 0.0089; 3 SE band around 0.95
    assert ((hits >= 0.92) & (hits <= 0.978)).all()


def test_confidence_interval_values():
    P, var = np.array([0.5, 0.5]), np.array([0.01, 1e4])
    ci = np.column_stack(wald_intervals(P, var, 0.95))
    assert_allclose(ci[0], [0.304, 0.696], atol=5e-4)
    assert_allclose(ci[1], [0.0, 1.0], atol=0)       # truncated to [0, 1]
    with pytest.raises(ValueError):
        wald_intervals(P, var, 1.5)


def test_ndtri_port_gives_scipys_bits():
    # Cephes ndtri: the central branch for y in (exp(-2), 1 - exp(-2)), the
    # two tail branches either side of exp(-32), and their mirrors above 0.5
    from scipy.special import ndtri
    rng = np.random.default_rng(41)
    e2, e32 = np.exp(-2.0), np.exp(-32.0)
    y = np.concatenate([
        rng.uniform(0.0, 1.0, 40_000),
        10.0 ** -rng.uniform(0.0, 320.0, 30_000),             # lower tails
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 30_000),        # upper tails
        np.nextafter([e2, e2, 1 - e2, 1 - e2, e32, e32], [0, 1, 0, 1, 0, 1]),
        [0.0, 1.0, 0.5, e2, 1 - e2, e32, 5e-324, np.nextafter(1.0, 0.0)]])
    got = np.array([deconv._ndtri(float(v)) for v in y])
    assert got.tobytes() == ndtri(y).tobytes()
    assert (y < e32).sum() > 10_000 and (y > 1 - e2).sum() > 10_000
    assert [deconv._ndtri(v) for v in (0.0, 1.0)] == [-np.inf, np.inf]
    assert all(np.isnan(deconv._ndtri(v)) for v in (-0.1, 1.1, np.nan))


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 1 - 1e-15])
def test_wald_intervals_give_the_scipy_forms_bytes(level):
    from scipy.special import ndtri
    rng = np.random.default_rng(42)
    P = rng.dirichlet([3, 2, 1], 50)
    var = rng.uniform(-1e-4, 1e-2, P.shape)
    half = ndtri(0.5 * (1.0 + level)) * np.sqrt(np.clip(var, 0.0, None))
    lo, hi = wald_intervals(P, var, level)
    assert lo.tobytes() == np.clip(P - half, 0.0, 1.0).tobytes()
    assert hi.tobytes() == np.clip(P + half, 0.0, 1.0).tobytes()


def test_align_genes_reorders_and_drops():
    rng = np.random.default_rng(7)
    Wv = _sig(rng, 6, 3)
    sig = SignatureMatrix(Wv, [f"g{i}" for i in range(6)], ["a", "b", "c"])
    P = rng.dirichlet([1, 1, 1], 2)
    Yv = Wv @ P.T
    # shuffle bulk rows and add an extra unmatched gene
    order = [3, 0, 5, 1, 4, 2]
    bulk = BulkMatrix(np.vstack([Yv[order], [[9.9, 9.9]]]),
                      [f"g{i}" for i in order] + ["extra"], ["s0", "s1"])
    with pytest.warns(UserWarning, match="dropped 1"):
        Wa, Ya = align_genes(sig, bulk)
    assert Wa.gene_ids == sig.gene_ids
    ests = estimate_proportions(Wa, Ya)
    assert_allclose(np.stack(ests), P, atol=1e-9)


def test_align_genes_disjoint_ids():
    rng = np.random.default_rng(8)
    sig = SignatureMatrix(_sig(rng, 3, 2), ["g0", "g1", "g2"], ["a", "b"])
    bulk = BulkMatrix(np.ones((3, 1)), ["h0", "h1", "h2"], ["s"])
    with pytest.raises(GeneMismatch, match="h0"):
        align_genes(sig, bulk)


def _batched_and_single(kernel, rng):
    """(batched result, per-sample one-sample results) of one kernel on a
    small random problem with n samples."""
    p, K, n = 24, 3, 5
    W = _sig(rng, p, K)
    B = rng.normal(0, 1, (K, p, p))
    S = np.einsum('kab,kcb->kac', B, B) / p + np.eye(p)
    P = rng.dirichlet([3, 2, 1], n)
    if kernel == "sandwich":
        return sandwich(W, S, P ** 2), [
            one_sandwich(W, np.einsum('k,kab->ab', P[i] ** 2, S))
            for i in range(n)]
    if kernel == "wald_intervals":
        V = np.abs(rng.normal(0, 0.05, (n, K)))
        V[0, 0] = -1e-3                      # negative variance reads as 0
        lo, hi = wald_intervals(P, V, 0.9)
        return np.stack([lo, hi], axis=-1), [
            np.column_stack(wald_intervals(P[i], V[i], 0.9)) for i in range(n)]
    if kernel == "subject_covariance":
        return subject_covariance(P, S), [subject_covariance(P[i], S)
                                          for i in range(n)]
    # GLS in the per-type form against each dense Sigma_i alone
    return gls.gls_covariance(W, S, P ** 2), [
        gls.gls_covariance(W, Si[None], [[1.0]])[0]
        for Si in subject_covariance(P, S)]


@pytest.mark.parametrize("kernel", ["sandwich", "wald_intervals",
                                    "subject_covariance", "gls_covariance"])
def test_batched_kernel_matches_one_sample_form(kernel):
    batched, single = _batched_and_single(kernel, np.random.default_rng(9))
    assert batched.shape == (len(single),) + single[0].shape
    for got, ref in zip(batched, single):
        assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


def test_error_tagging_names_sample():
    rng = np.random.default_rng(10)
    W = _sig(rng, 10, 2)
    Y = rng.normal(0, 1, (10, 3))
    Y[0, 1] = np.nan
    with pytest.raises(NonFinite, match="sample 1"):
        estimate_proportions(W, Y)


def test_boundary_tolerance_constant():
    assert 0 < deconv.BOUNDARY_TOL < 1e-3
