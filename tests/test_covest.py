"""Moment-regression, bias-correction, SCAD, and pipeline tests.

The bias-term oracle values below were derived by hand for a single sample
with V = I: with pi = (0.6, 0.4), p = 10,
  B1 = (outer(h,u)+outer(u,h))/p + 4*(pi pi')*V/p + (2V*V+outer(u,u))/p^2
     = [[0.246, 0.062], [0.062, 0.126]],  B2 = [[0.1, 0.1]].
"""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import cts_covariance_corrected
from decals import covest, qp
from decals.covest import (_bias_arrays, cross_validate_lambda,
                           cts_covariance_raw_all, residuals, run_decals,
                           scad_threshold, subject_covariance)
from decals.deconv import constraint_projector, estimate_proportions, sandwich
from decals.errors import (DimensionMismatch, InsufficientSamples,
                           NonConvergenceWarning, SingularCorrectedMoment,
                           SingularMomentMatrix)
from decals.simgen import SimConfig, replicate_dataset, replicate_rng

DEFAULT_GRID = np.logspace(np.log10(0.01), 0.0, 20)


def _old_scad_threshold(R, lam, a=covest._SCAD_A):
    """Reference: scad_threshold's formula over the whole matrix at once."""
    A = np.abs(R)
    S = np.sign(R)
    soft = S * np.maximum(A - lam, 0.0)
    mid = S * (lam + (a - 1.0) / (a - 2.0) * (A - 2.0 * lam))
    out = np.where(A <= 2.0 * lam, soft, np.where(A <= a * lam, mid, R))
    d = np.diag_indices(min(R.shape))
    out[d] = R[d]
    return out


def _old_to_correlation(S):
    d = np.clip(np.einsum('kk->k', S), covest._DIAG_FLOOR, None)
    rd = np.sqrt(d)
    R = np.clip(S / np.outer(rd, rd), -1.0, 1.0)
    np.fill_diagonal(R, 1.0)
    return R, rd


def _old_sparsify(S, lam):
    """Reference: correlation, threshold and projection, each on a copy."""
    R, rd = _old_to_correlation(S)
    return qp.nearest_psd(_old_scad_threshold(R, lam) * np.outer(rd, rd))


def _brute_grid_loss(R, scale, S_ho, grid):
    """Reference: threshold the full matrix once per level."""
    return np.array([((scad_threshold(R, lam) * scale - S_ho) ** 2).sum()
                     for lam in grid])


def _brute_cv_losses(Z, H, folds, grid, seed):
    """Reference (K, G) cross-validation losses: the per-level grid loop."""
    n, K = H.shape
    rng = np.random.Generator(np.random.Philox(key=seed))
    fold_ids = np.array_split(rng.permutation(n), folds)
    losses = np.zeros((K, len(grid)))
    for hold in fold_ids:
        mask = np.ones(n, dtype=bool)
        mask[hold] = False
        S_tr = cts_covariance_raw_all(H[mask], Z[:, mask])
        S_ho = cts_covariance_raw_all(H[~mask], Z[:, ~mask])
        for k in range(K):
            R, rd = _old_to_correlation(S_tr[k])
            losses[k] += _brute_grid_loss(R, np.outer(rd, rd), S_ho[k], grid)
    return losses


def _assert_matches_oracle(got, ref):
    assert_allclose(got, ref, rtol=1e-12, atol=0)
    assert (np.argmin(got, axis=-1) == np.argmin(ref, axis=-1)).all()


def test_residuals_loop_oracle():
    rng = np.random.default_rng(0)
    p, K, n = 12, 3, 5
    W = rng.normal(0, 1, (p, K))
    Y = rng.normal(0, 1, (p, n))
    P = rng.dirichlet([1, 1, 1], n)
    Z = residuals(W, Y, P)
    for i in range(n):
        assert_allclose(Z[:, i], Y[:, i] - W @ P[i], atol=1e-14)


def test_raw_estimator_lstsq_oracle():
    # per-(j, j') weighted regression done the slow way
    rng = np.random.default_rng(1)
    p, K, n = 6, 2, 30
    H = rng.dirichlet([2, 1], n) ** 2
    Z = rng.normal(0, 1, (p, n))
    S = cts_covariance_raw_all(H, Z)
    M = np.linalg.inv(H.T @ H) @ H.T
    for j in range(p):
        for jp in range(p):
            b = M @ (Z[j] * Z[jp])
            for k in range(K):
                ref = 0.5 * (b[k] + (M @ (Z[jp] * Z[j]))[k])
                assert_allclose(S[k, j, jp], ref, atol=1e-12)


def test_raw_estimator_recovers_truth_in_mean():
    # E[z_j z_j'] = sum_k h_k Sigma^k_jj' exactly; with many samples and
    # draws the regression recovers the planted per-type covariances
    rng = np.random.default_rng(2)
    p, K, n, mc = 4, 2, 40, 4000
    S_true = np.stack([np.diag([1.0, 2.0, 0.5, 1.5]),
                       0.3 * np.ones((p, p)) + 0.7 * np.eye(p)])
    H = rng.dirichlet([3, 2], n) ** 2
    acc = np.zeros((K, p, p))
    roots = np.stack([np.linalg.cholesky(
        np.einsum('k,kab->ab', H[i], S_true)) for i in range(n)])
    for _ in range(mc):
        Z = np.stack([roots[i] @ rng.standard_normal(p)
                      for i in range(n)]).T
        acc += cts_covariance_raw_all(H, Z)
    # MC error ~ 1/sqrt(4000); tolerance 5 sigma-ish
    assert np.abs(acc / mc - S_true).max() < 0.25


def test_bias_terms_hand_oracle():
    # covariance V = I at the sqrt(p) scale, I/10 for the estimate at p = 10
    B1, B2 = _bias_arrays(np.array([[0.6, 0.4]]), np.eye(2)[None], p=10)
    assert_allclose(B1, [[0.246, 0.062], [0.062, 0.126]], atol=1e-12)
    assert_allclose(B2, [[0.1, 0.1]], atol=1e-14)


def test_corrected_equals_raw_at_zero_bias():
    rng = np.random.default_rng(3)
    p, K, n = 8, 3, 25
    H = rng.dirichlet([1, 1, 1], n) ** 2
    Z = rng.normal(0, 1, (p, n))
    assert_allclose(cts_covariance_corrected(H, Z, np.zeros((K, K)),
                                             np.zeros((n, K))),
                    cts_covariance_raw_all(H, Z), atol=1e-13)


def test_corrected_moment_singular_raises():
    rng = np.random.default_rng(4)
    p, K, n = 6, 2, 20
    H = rng.dirichlet([2, 1], n) ** 2
    Z = rng.normal(0, 1, (p, n))
    with pytest.raises(SingularCorrectedMoment):   # B1 = H'H kills the moment
        cts_covariance_corrected(H, Z, H.T @ H, np.zeros((n, K)))


def test_moment_matrix_singular_raises():
    Z = np.ones((4, 6))
    H = np.tile([0.25, 0.25], (6, 1))            # identical rows: rank 1
    with pytest.raises(SingularMomentMatrix):
        cts_covariance_raw_all(H, Z)


def test_scad_branch_values():
    lam = 0.1
    R = np.array([[1.0, 0.05, 0.15, 0.3, 0.5],
                  [0.05, 1.0, 0.0, 0.0, 0.0],
                  [0.15, 0.0, 1.0, 0.0, 0.0],
                  [0.3, 0.0, 0.0, 1.0, 0.0],
                  [0.5, 0.0, 0.0, 0.0, 1.0]])
    T = scad_threshold(R, lam)
    assert T[0, 1] == 0.0                               # below lambda: killed
    assert_allclose(T[0, 2], 0.05, atol=1e-12)          # soft region
    assert_allclose(T[0, 3], 0.2588235294117647, atol=1e-6)  # middle branch
    assert T[0, 4] == 0.5                               # above a*lam: kept
    assert_allclose(np.diag(T), 1.0, atol=0)            # diagonal untouched
    assert_allclose(T, T.T, atol=1e-14)
    # odd symmetry in the entry sign
    Rn = R.copy()
    Rn[0, 3] = Rn[3, 0] = -0.3
    assert_allclose(scad_threshold(Rn, lam)[0, 3], -0.2588235294117647,
                    atol=1e-6)


def test_scad_identity_and_shrinkage():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (6, 6))
    R = 0.5 * (A + A.T)
    np.fill_diagonal(R, 1.0)
    assert_allclose(scad_threshold(R, 0.0), R, atol=0)   # lam=0: identity
    for lam in (0.05, 0.2, 0.6):
        T = scad_threshold(R, lam)
        assert (np.abs(T) <= np.abs(R) + 1e-14).all()    # never grows
    with pytest.raises(ValueError):
        scad_threshold(2.0 * np.ones((2, 2)), 0.1)       # not a correlation
    with pytest.raises(ValueError):
        scad_threshold(R, 0.1, a=2.0)                    # needs a > 2


@pytest.mark.parametrize("block", [1, 7, None])
def test_scad_threshold_matches_the_whole_matrix_formula_bytewise(
        monkeypatch, block):
    # row blocks of one entry (one row), of 7 entries and the default; the
    # planted entries sit on and next to every breakpoint, and include +-0
    if block is not None:
        monkeypatch.setattr(covest, "_SCAD_BLOCK", block)
    rng = np.random.default_rng(30)
    for lam in (0.0, 0.01, 0.1, 0.2636650898730358, 1.0):
        planted = [lam, -lam, 2 * lam, -2 * lam, 3.7 * lam, -3.7 * lam,
                   np.nextafter(2 * lam, 1.0), np.nextafter(3.7 * lam, 0.0),
                   -np.nextafter(3.7 * lam, 9.0), 0.0, -0.0, 1.0, -1.0]
        for shape in ((40, 40), (7, 9), (9, 7), (1, 1)):
            R = rng.uniform(-1.0, 1.0, shape)
            m = min(R.size, len(planted))
            R.flat[:m] = np.clip(planted[:m], -1.0, 1.0)
            got = scad_threshold(R, lam)
            assert got.tobytes() == _old_scad_threshold(R, lam).tobytes()
    with pytest.raises(ValueError, match="exceed 1"):
        scad_threshold(np.pad(np.eye(30), ((0, 0), (0, 1)),
                              constant_values=1.5), 0.1)


def test_sparsify_matches_the_old_composition_bytewise(monkeypatch):
    # the fit_genes shape (K=6, p=600, n=1000): the in-place _sparsify and
    # the copy-per-step composition give the same levels and covariances
    rng = np.random.default_rng(31)
    W = rng.normal(0, 1, (600, 6))
    P = rng.dirichlet(np.ones(6), 1000)
    Y = W @ P.T + rng.standard_normal((600, 1000))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run_decals(W, Y, max_iter=2)
        monkeypatch.setattr(covest, "_sparsify", lambda S, lam: S.__setitem__(
            Ellipsis, _old_sparsify(S, lam)))
        want = run_decals(W, Y, max_iter=2)
    assert got.lambdas.tobytes() == want.lambdas.tobytes()
    assert got.cts_covariances.tobytes() == want.cts_covariances.tobytes()
    assert got.covariances.tobytes() == want.covariances.tobytes()


def test_cv_lambda_contracts():
    rng = np.random.default_rng(6)
    p, K, n = 10, 2, 40
    H = rng.dirichlet([2, 1], n) ** 2
    Z = rng.normal(0, 1, (p, n))
    lam1 = cross_validate_lambda(Z, H, seed=7)
    lam2 = cross_validate_lambda(Z, H, seed=7)
    assert_allclose(lam1, lam2, atol=0)                  # deterministic
    assert lam1.shape == (K,)
    single = cross_validate_lambda(Z, H, grid=[0.33])
    assert_allclose(single, [0.33, 0.33], atol=0)
    with pytest.raises(InsufficientSamples):
        cross_validate_lambda(Z[:, :8], H[:8])


@pytest.mark.parametrize("grid", [[], [[0.1, 0.2]], 0.3, [0.1, -0.2],
                                  [0.1, np.nan], [np.inf]])
def test_cv_rejects_bad_grid(grid):
    rng = np.random.default_rng(6)
    H = rng.dirichlet([2, 1], 40) ** 2
    Z = rng.normal(0, 1, (10, 40))
    with pytest.raises(ValueError, match="grid"):
        cross_validate_lambda(Z, H, grid=grid)


@pytest.mark.parametrize("folds, seed, name", [
    (1, 0, "folds"), (0, 0, "folds"), (-2, 0, "folds"), (5, -1, "seed")])
def test_cv_rejects_bad_folds_and_seed(folds, seed, name):
    rng = np.random.default_rng(6)
    H = rng.dirichlet([2, 1], 40) ** 2
    Z = rng.normal(0, 1, (10, 40))
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        cross_validate_lambda(Z, H, folds=folds, seed=seed)
    # checked before any work: even an unusable grid is not looked at
    with pytest.raises(ValueError, match=f"{name} must be >= "):
        cross_validate_lambda(Z, H, folds=folds, seed=seed, grid=[])


@pytest.mark.parametrize("grid", [
    DEFAULT_GRID, [0.0], [0.0, 0.1, 0.5], [0.5, 1.0, 2.0, 5.0],
    [0.2, 0.2, 0.05], 0.3 + 1e-6 * np.arange(40)])
def test_grid_bins_match_searchsorted(grid):
    # entries at each breakpoint in [0, 1] and one ulp either side, 0 and 1,
    # and random values; the last grid packs several breakpoints per cell
    grid = np.asarray(grid, dtype=float)
    bins = covest._GridBins(grid)
    breaks = np.sort(np.concatenate([grid, 2.0 * grid, covest._SCAD_A * grid]))
    at = breaks[breaks <= 1.0]
    A = np.concatenate([at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
                        [0.0, 1.0, np.nextafter(1.0, 0.0)],
                        np.random.default_rng(5).uniform(0.0, 1.0, 5000)])
    A = np.clip(A, 0.0, 1.0)
    assert np.array_equal(bins.bin(A), np.searchsorted(breaks, A, side="left"))
    if grid.size == 40:
        assert bins.sweeps > 1


@pytest.mark.parametrize("grid", [
    [0.1], [0.0, 0.1, 0.5], [0.5, 0.01, 0.2, 0.0, 1.0], [0.2, 0.2, 0.05],
    [0.95, 0.99]])
def test_grid_loss_edge_cases_match_oracle(grid):
    # entries exactly at each breakpoint lam, 2*lam, a*lam up to 0.9 (both
    # signs), zeros, and the rest random below 0.9. A repeated level and
    # [0.95, 0.99], which kills every entry, give exactly tied losses.
    grid = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(13)
    at = np.concatenate([grid, 2.0 * grid, covest._SCAD_A * grid])
    at = at[at <= 0.9]
    vals = np.concatenate([at, -at, [0.0, 0.0],
                           rng.uniform(-0.9, 0.9, 40)])
    p = 16
    iu = np.triu_indices(p, 1)
    R = np.eye(p)
    R[iu] = np.resize(vals, iu[0].size)
    R = np.triu(R) + np.triu(R, 1).T
    rd = rng.uniform(0.5, 2.0, p)
    scale = np.outer(rd, rd)
    A = rng.normal(0, 1, (p, p))
    S_ho = 0.5 * (A + A.T)
    ref = _brute_grid_loss(R, scale, S_ho, grid)
    diag = ((rd * rd - np.diag(S_ho)) ** 2).sum()
    bins = covest._GridBins(grid)
    sums = covest._grid_sums(R[iu][None], scale[iu][None], S_ho[iu][None],
                             bins)
    _assert_matches_oracle(diag + 2.0 * covest._grid_loss(sums, bins)[0], ref)


@pytest.mark.parametrize("grid", [
    DEFAULT_GRID, [0.3], [0.0, 0.1, 0.5], [0.5, 0.01, 0.2, 0.0, 1.0]])
def test_cv_losses_match_oracle(grid):
    rng = np.random.default_rng(6)
    p, K, n = 12, 3, 60
    H = rng.dirichlet([3, 2, 1], n) ** 2
    Z = rng.normal(0, 1, (p, n)) * np.sqrt(H.sum(axis=1))
    grid = np.asarray(grid, dtype=float)
    _assert_matches_oracle(covest._cv_losses(Z, H, 5, grid, 3),
                           _brute_cv_losses(Z, H, 5, grid, 3))


@pytest.mark.parametrize("grid", [DEFAULT_GRID, [0.5, 0.01, 0.2, 0.0, 1.0]])
def test_cv_losses_stream_row_blocks(monkeypatch, grid):
    # a few entries per block: the first rows are one block each, later
    # blocks take several rows, and the losses still match the oracle
    monkeypatch.setattr(covest, "_CV_BLOCK", 7)
    rng = np.random.default_rng(6)
    p, K, n = 12, 3, 60
    H = rng.dirichlet([3, 2, 1], n) ** 2
    Z = rng.normal(0, 1, (p, n)) * np.sqrt(H.sum(axis=1))
    blocks = list(covest._row_blocks(p))
    assert blocks[0] == (0, 1) and any(r1 - r0 > 1 for r0, r1 in blocks)
    grid = np.asarray(grid, dtype=float)
    _assert_matches_oracle(covest._cv_losses(Z, H, 5, grid, 3),
                           _brute_cv_losses(Z, H, 5, grid, 3))
    assert (cross_validate_lambda(Z, H, grid=grid, seed=3).tolist()
            == cross_validate_lambda(Z, H, grid=grid, seed=3,
                                     basis=covest._moments(Z, H)).tolist())


@pytest.mark.parametrize("scale", ["desk", "paper"])
def test_cv_matches_oracle_on_simulated_replicates(scale):
    p, n = {"desk": (150, 200), "paper": (300, 500)}[scale]
    config = SimConfig(p=p, n=n)
    for r in range(10):
        _, Wobs, _, Y, _ = replicate_dataset(config, replicate_rng(0, r))
        P = np.stack(estimate_proportions(Wobs, Y))
        Z, H = residuals(Wobs, Y, P), P ** 2
        ref = _brute_cv_losses(Z, H, 5, DEFAULT_GRID, 0)
        _assert_matches_oracle(covest._cv_losses(Z, H, 5, DEFAULT_GRID, 0),
                               ref)
        assert_allclose(cross_validate_lambda(Z, H),
                        DEFAULT_GRID[np.argmin(ref, axis=1)], atol=0)


def test_cv_prefers_heavy_thresholding_for_diagonal_truth():
    # truth is diagonal, so large thresholds win the held-out loss
    rng = np.random.default_rng(7)
    p, K, n = 8, 2, 60
    H = rng.dirichlet([2, 1], n) ** 2
    scale = np.sqrt(H.sum(axis=1))
    Z = rng.standard_normal((p, n)) * scale[None, :]     # Sigma^k = I
    lam = cross_validate_lambda(Z, H, grid=[0.01, 1.0], seed=0)
    assert (lam == 1.0).all()


def test_subject_covariance_combination():
    S = np.stack([np.eye(3), 2.0 * np.eye(3)])
    got = subject_covariance([0.5, 0.5], S)
    assert_allclose(got, 0.25 * np.eye(3) + 0.5 * np.eye(3), atol=1e-14)
    w = np.linalg.eigvalsh(got)
    assert w[0] > 0


def _sim(rng, p=40, K=3, n=30, noise=0.5):
    W = rng.normal(0, 1, (p, K))
    P = rng.dirichlet([3, 2, 1], n)
    Y = W @ P.T + noise * rng.standard_normal((p, n))
    return W, P, Y


def test_run_decals_contracts():
    rng = np.random.default_rng(8)
    W, P, Y = _sim(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_decals(W, Y, tol=np.inf)
    assert res.iterations == 1 and res.converged
    assert res.proportions.shape == (30, 3)
    assert res.covariances.shape == (30, 3, 3)
    assert res.cts_covariances.shape == (3, 40, 40)
    assert res.lambdas.shape == (3,)
    for pi, V in zip(res.proportions, res.covariances):
        assert pi.min() >= 0
        assert abs(pi.sum() - 1) < 1e-12
        w = np.linalg.eigvalsh(V)
        assert w[0] >= -1e-10 * max(w[-1], 1e-30)
        assert np.isfinite(V).all()
    # determinism
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res2 = run_decals(W, Y, tol=np.inf)
    assert_allclose(res.covariances[0], res2.covariances[0], atol=0)
    with pytest.raises(ValueError):
        run_decals(W, Y, max_iter=0)
    for tol in (np.nan, 0.0, -1e-4):
        with pytest.raises(ValueError, match=f"tol must be > 0, got {tol}"):
            run_decals(W, Y, tol=tol)
    with pytest.raises(InsufficientSamples):
        run_decals(W, Y[:, :2])


def test_result_flags_samples_on_the_boundary():
    P = np.array([[0.5, 0.5], [1.0, 0.0], [1 - 1e-7, 1e-7], [0.99, 0.01]])
    res = covest.DecalsResult(P, np.zeros((4, 2, 2)), np.zeros((2, 3, 3)),
                              1, True)
    assert res.on_boundary.tolist() == [False, True, True, False]


def test_run_decals_small_n_needs_fixed_lambdas():
    rng = np.random.default_rng(9)
    W, P, Y = _sim(rng, n=12)
    with pytest.raises(InsufficientSamples, match="fixed"):
        run_decals(W, Y)
    with pytest.raises(DimensionMismatch, match="lambdas"):
        run_decals(W, Y, lambdas=[0.5, 0.5])
    with pytest.raises(ValueError, match="lambdas"):
        run_decals(W, Y, lambdas=[0.5, np.nan, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_decals(W, Y, lambdas=[0.5, 0.5, 0.5])
    assert res.lambdas.tolist() == [0.5, 0.5, 0.5]


def test_run_decals_nonconvergence_warns():
    rng = np.random.default_rng(10)
    W, P, Y = _sim(rng)
    with pytest.warns(NonConvergenceWarning):
        res = run_decals(W, Y, max_iter=1, tol=1e-12)
    assert not res.converged
    assert any("convergence" in w for w in res.warnings)


def test_run_decals_sticky_fallback_records_warning():
    # small p / moderate n reliably makes the corrected moment indefinite
    rng = np.random.default_rng(11)
    tripped = 0
    for trial in range(5):
        W, P, Y = _sim(rng, p=40, n=60, noise=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_decals(W, Y)
        if any("bias correction disabled" in w for w in res.warnings):
            tripped += 1
            assert np.isfinite(res.covariances).all()
    assert tripped >= 1


def test_run_decals_uncorrected_and_dense_paths():
    # interior-only estimates: residuals satisfy W'z = c*1 exactly, so the
    # unthresholded raw plug-in makes W' Sigma^k W proportional to the
    # all-ones matrix, which the constraint projector annihilates; V
    # collapses to zero. Thresholding breaks that proportionality, which is
    # why run_decals always thresholds.
    from decals.deconv import constraint_projector, estimate_proportions

    rng = np.random.default_rng(12)
    p, n = 40, 30
    W = rng.normal(0, 1, (p, 3))
    P = rng.dirichlet([10, 10, 10], n)
    Y = W @ P.T + 0.1 * rng.standard_normal((p, n))
    ests = np.stack(estimate_proportions(W, Y))
    assert ests.min() > 0.01                 # interior-only fixture
    Z = residuals(W, Y, ests)
    Sk = cts_covariance_raw_all(ests ** 2, Z)
    U, Omi = constraint_projector(W)
    for k in range(3):
        A = W.T @ Sk[k] @ W
        assert np.ptp(A) < 1e-8 * abs(A.mean())
        V = U @ Omi @ (A / p) @ Omi @ U.T
        assert np.abs(V).max() < 1e-12


def _oracle_loop(W, Y, max_iter, correct, lambdas):
    """run_decals' fixed-point loop rebuilt from the public estimators:
    bias terms -> corrected (or raw) moment regression over the residuals
    -> diagonal floor -> SCAD + PSD -> sandwich. Returns V (estimate scale),
    the per-type covariances and the paths taken."""
    P = estimate_proportions(W, Y)
    H = P ** 2
    Z = residuals(W, Y, P)
    U, Omi = constraint_projector(W)
    p, K = W.shape
    V = ((Z * Z).sum(axis=0) / (p - 1))[:, None, None] * (U @ Omi @ U.T)
    paths = []
    for _ in range(max_iter):
        Sk = None
        if correct and "raw" not in paths:
            B1, B2 = _bias_arrays(P, V, p)
            try:
                Sk = cts_covariance_corrected(H, Z, B1, B2)
            except SingularCorrectedMoment:
                pass
        paths.append("raw" if Sk is None else "corrected")
        if Sk is None:
            Sk = cts_covariance_raw_all(H, Z)
        for k in range(K):
            np.fill_diagonal(Sk[k], np.maximum(np.diagonal(Sk[k]),
                                               covest._DIAG_FLOOR))
            Sk[k] = _old_sparsify(Sk[k], lambdas[k])
        V = sandwich(W, Sk, H)
    return V / p, Sk, paths


def _assert_matrices_close(got, ref, rtol=1e-10):
    """Each matrix of a stack within rtol of the reference in sup norm
    relative to the reference's largest entry: entries far below it carry
    cancellation error of that entry's size, not of their own."""
    scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
    assert (np.abs(got - ref) <= rtol * scale).all()


# (data seed, options, paths of three iterations)
LOOP_CASES = {
    "corrected": (0, {}, ["corrected"] * 3),
    "fallback": (4, {}, ["corrected", "raw", "raw"]),
    "uncorrected": (0, {"correct": False}, ["raw"] * 3),
}


@pytest.mark.parametrize("case", sorted(LOOP_CASES))
def test_run_decals_loop_matches_public_oracles(case):
    seed, options, paths = LOOP_CASES[case]
    W, _, Y = _sim(np.random.default_rng(seed), p=60, n=60, noise=1.0)
    correct = options.get("correct", True)
    for m in (1, 2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_decals(W, Y, max_iter=m, tol=1e-300, **options)
        V, Sk, got_paths = _oracle_loop(W, Y, m, correct, res.lambdas)
        assert got_paths == paths[:m]
        # the raw map does not depend on V, so the first raw pass reaches its
        # fixed point and ends the loop, converged
        raw = "raw" in paths[:m]
        assert res.iterations == (paths.index("raw") + 1 if raw else m)
        assert res.converged == raw
        assert [e["path"] for e in res.trace] == paths[:res.iterations]
        _assert_matrices_close(res.covariances, V)
        _assert_matrices_close(res.cts_covariances, Sk)


@pytest.mark.parametrize("data", ["fallback", "desk"])
def test_tripped_fit_gives_the_uncorrected_bytes(data):
    # after a trip, the raw pass recombines the basis moments that an
    # uncorrected fit forms, with the same raw weights, and ends the loop:
    # every estimate is the uncorrected fit's, byte for byte
    if data == "fallback":
        W, _, Y = _sim(np.random.default_rng(LOOP_CASES["fallback"][0]),
                       p=60, n=60, noise=1.0)
    else:
        _, W, _, Y, _ = replicate_dataset(SimConfig(), replicate_rng(11, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run_decals(W, Y)
        want = run_decals(W, Y, correct=False)
    assert any("bias correction disabled" in w for w in got.warnings)
    assert got.trace[0]["path"] == "corrected"
    assert got.trace[-1]["path"] == "raw" and got.converged
    assert [e["path"] for e in want.trace] == ["raw"] and want.converged
    for name in ("proportions", "covariances", "cts_covariances", "lambdas"):
        assert (getattr(got, name).tobytes()
                == getattr(want, name).tobytes()), name


def test_cv_shared_basis_gives_identical_levels():
    W, _, Y = _sim(np.random.default_rng(0), p=60, n=60, noise=1.0)
    P = estimate_proportions(W, Y)
    H = P ** 2
    Z = residuals(W, Y, P)
    own = cross_validate_lambda(Z, H, seed=3)
    shared = cross_validate_lambda(Z, H, seed=3, basis=covest._moments(Z, H))
    assert own.tolist() == shared.tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_decals(W, Y, max_iter=1, seed=3)
    assert res.lambdas.tolist() == own.tolist()
    with pytest.raises(DimensionMismatch, match="basis"):
        cross_validate_lambda(Z, H, basis=covest._moments(Z, H[:, :2]))


@pytest.mark.parametrize("correct, cv, expected", [
    (True, False, 4), (False, False, 3), (True, True, 4)])
def test_fit_forms_each_moment_once(monkeypatch, correct, cv, expected):
    # K + 1 basis moments (K uncorrected) for any number of iterations; the
    # CV forms no p x p moment, and each fold's held-out row blocks cover
    # every upper-triangle row once, so every entry once
    W, _, Y = _sim(np.random.default_rng(0), p=60, n=60, noise=1.0)
    calls, blocks = [], {}
    sym, block = covest._sym_moment, covest._block_moments
    monkeypatch.setattr(covest, "_sym_moment",
                        lambda Z, c: calls.append(Z.shape) or sym(Z, c))
    monkeypatch.setattr(covest, "_block_moments", lambda Z, H, r0, r1: (
        blocks.setdefault(id(Z), []).append((r0, r1)) or block(Z, H, r0, r1)))
    monkeypatch.setattr(covest, "_CV_BLOCK", 100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_decals(W, Y, max_iter=3, tol=1e-300, correct=correct,
                         lambdas=None if cv else [0.1, 0.1, 0.1])
    assert res.iterations == (3 if correct else 1)
    assert len(calls) == expected
    assert len(blocks) == (5 if cv else 0)
    for ranges in blocks.values():
        assert len(ranges) > 1
        rows = [r for r0, r1 in ranges for r in range(r0, r1)]
        assert rows == list(range(59))


def test_trace_records_each_iteration_and_the_fallback():
    W, _, Y = _sim(np.random.default_rng(4), p=60, n=60, noise=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_decals(W, Y, max_iter=5, tol=1e-300)
    assert len(res.trace) == res.iterations
    for entry in res.trace:
        assert sorted(entry) == ["delta", "path"]
        assert entry["path"] in ("corrected", "raw")
        assert type(entry["delta"]) is float
    fallback = [w for w in res.warnings if "bias correction disabled" in w]
    assert len(fallback) == 1
    first_raw = [e["path"] for e in res.trace].index("raw")
    assert fallback[0].startswith(f"iteration {first_raw}: ")
    assert all(e["path"] == "raw" for e in res.trace[first_raw:])
