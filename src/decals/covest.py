"""Cell-type covariance estimation and the iterative covariance/proportion fit.

Residual products z_ij z_ij' regress on squared proportions to recover the
per-type covariance entries Sigma^(k)_jj'. Because estimated proportions enter
the regressors, the moment matrix H'H and the regressor matrix H are biased;
`_bias_arrays` computes the correction (B1, B2) implied by a Gaussian model for
the estimation error. Correlation-scale SCAD thresholding with a cross-validated
level sparsifies each Sigma^(k); a PSD projection restores validity. The
cross-validation loss is exact for every grid level and computed for the
whole grid in one pass: the entries are binned against the grid's sorted
breakpoints through a lookup table built once per call. Every fold's
training and held-out moments are linear combinations of K basis moments
over all samples and K over the fold's held-out samples. The loss sums
over entries, so the strict upper triangle is streamed in row blocks, the
folds inside each block, and only per-bin sums are kept between blocks.

run_decals alternates: covariance estimates -> subject covariances -> sandwich
covariances V_i -> new bias terms, until V stabilizes. The residuals Z and
squared proportions H stay fixed inside that loop, and every estimate it
makes is a combination of one basis of moments T_l = Z diag(w_l) Z' over
the weight columns [H, s2], s2 the per-sample residual variance of the
starting V. The basis is formed once per fit, its K H-columns are shared
with the cross-validation, and each iteration recombines it with a
K x (K+1) matrix instead of passing over the data again: the raw weights
(H'H)^{-1} H' are (H'H)^{-1} [I | 0] on the basis, and the corrected
weights M^{-1} (H - B2)', M = H'H - B1, are exact on it too, because B2 is
s2 diag(base)'/p for the starting V and, once V comes from the sandwich,
H D/p with D[k] the diagonal of type k's sandwich term. When the corrected
moment matrix H'H - B1 loses positive definiteness (correction larger than
the signal, typical at small p), the loop falls back to the raw estimator
and records a warning. The raw weights do not depend on V, so V after one
raw pass is already the raw map's fixed point: that pass ends the loop,
which reports it converged. DecalsResult.trace keeps, per iteration, which
estimator ran and the change in V.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import qp
from .deconv import (BOUNDARY_TOL, constraint_projector,
                     estimate_proportions, sandwich, _values)
from .errors import (DimensionMismatch, InsufficientSamples,
                     NonConvergenceWarning, SingularCorrectedMoment,
                     SingularMomentMatrix)

# Variance floor for corrected diagonal entries (over-correction guard).
_DIAG_FLOOR = 1e-10
# Relative eigenvalue threshold at which H'H - B1 counts as not invertible.
_CORRECTED_EIG_FLOOR = 1e-8
# SCAD shape parameter (Fan & Li 2001).
_SCAD_A = 3.7
# Cells of the lookup table that bins |r| against the SCAD breakpoints.
_BIN_CELLS = 2 ** 16
# Upper-triangle entries per row block of the threshold cross-validation.
_CV_BLOCK = 2 ** 13
# Entries per row block of scad_threshold, whose temporaries then stay in
# cache: one call took 120 ms at p=3000 (240-260 ms on the whole matrix)
# and 2.8 ms at p=600 (3.8-4.4 ms), on one core.
_SCAD_BLOCK = 2 ** 14


@dataclass
class DecalsResult:
    """One fit; row i of each per-sample array is bulk matrix column i."""
    proportions: np.ndarray                  # (n, K), rows on the simplex
    covariances: np.ndarray                  # (n, K, K), of the estimate (/p)
    cts_covariances: np.ndarray              # (K, p, p), one per cell type
    iterations: int
    converged: bool
    lambdas: np.ndarray | None = None        # per-type SCAD levels; None from GLS
    warnings: list[str] = field(default_factory=list)
    # run_decals: per iteration {"path": "corrected" | "raw", "delta": float}
    trace: list[dict] = field(default_factory=list)

    @property
    def on_boundary(self) -> np.ndarray:
        """(n,) mask of the samples with a proportion below BOUNDARY_TOL."""
        return self.proportions.min(axis=1) < BOUNDARY_TOL


def residuals(W, Y, proportions) -> np.ndarray:
    """Residual matrix Z with Z[j, i] = y_ij - sum_k pi_ik w_kj."""
    Wv, Yv = _values(W), _values(Y)
    P = np.asarray(proportions, dtype=float)
    if P.ndim != 2 or P.shape != (Yv.shape[1], Wv.shape[1]):
        raise DimensionMismatch(
            f"proportions {P.shape} do not match n={Yv.shape[1]}, K={Wv.shape[1]}")
    if Wv.shape[0] != Yv.shape[0]:
        raise DimensionMismatch("signature and bulk gene dimensions differ")
    return Yv - Wv @ P.T


def _moment_matrix(H):
    M = H.T @ H
    qp.check_pd(M, 1e-12, SingularMomentMatrix, "H'H numerically singular")
    return M


def _sym_moment(Z, c) -> np.ndarray:
    """Symmetrized weighted residual moment 0.5*(S + S') of S = (Z*c) Z'."""
    S = (Z * c) @ Z.T
    return 0.5 * (S + S.T)


def _moments(Z, weights) -> np.ndarray:
    """(L, p, p) symmetrized moments Z diag(w) Z', one per column w of the
    (n, L) weights."""
    p = Z.shape[0]
    out = np.empty((weights.shape[1], p, p))
    for l, w in enumerate(weights.T):
        out[l] = _sym_moment(Z, w)
    return out


def cts_covariance_raw_all(H_hat, Z) -> np.ndarray:
    """All gene pairs at once: (K, p, p) array reusing one factorization.

    The moments come from scipy's BLAS, like the GLS whitening they feed:
    numpy and scipy each bundle an OpenBLAS with its own thread pool, and
    one pool's spinning threads slowed the other's threaded products."""
    from scipy.linalg.blas import dgemm
    H = np.asarray(H_hat, dtype=float)
    Z = np.asarray(Z, dtype=float)
    C = np.linalg.solve(_moment_matrix(H), H.T)          # (K, n)
    out = np.empty((len(C), len(Z), len(Z)))
    for l, c in enumerate(C):
        S = dgemm(1.0, (Z * c).T, Z.T, trans_a=1)         # (Z * c) Z'
        out[l] = 0.5 * (S + S.T)
    return out


def _bias_arrays(P, V, p):
    """Bias terms B1 = E[H'H] - H'H (K x K) and B2 = E[H] - H (n x K) under
    Gaussian estimation error, from proportions P (n,K) and covariances V
    (n,K,K) at the sqrt(p)-scale (covariance of sqrt(p) * estimation error)."""
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=float)
    n, K = P.shape
    H2 = P ** 2                              # squared proportions
    u = np.einsum('nkk->nk', V)              # per-sample diag(V_i)
    t1 = H2.T @ u                            # sum_i pi2_i u_i'
    t2 = 4.0 * np.einsum('nk,nl,nkl->kl', P, P, V)
    T = 2.0 * V ** 2 + u[:, :, None] * u[:, None, :]
    B1 = (t1 + t1.T + t2) / p + T.sum(axis=0) / p ** 2
    B2 = u / p
    return 0.5 * (B1 + B1.T), B2


def _corrected_moment(H, B1):
    M = H.T @ H - B1
    qp.check_pd(0.5 * (M + M.T), _CORRECTED_EIG_FLOOR, SingularCorrectedMoment,
                "corrected moment matrix not positive definite")
    return M


def scad_threshold(R, lam: float, a: float = _SCAD_A) -> np.ndarray:
    """Elementwise three-branch SCAD shrinkage of off-diagonal entries.

    |r| <= 2*lam: soft threshold sign(r)*max(|r|-lam, 0); 2*lam < |r| <= a*lam:
    sign(r)*(lam + (a-1)/(a-2)*(|r| - 2*lam)); beyond a*lam: unchanged.
    The diagonal is preserved. R is taken in row blocks of about
    _SCAD_BLOCK entries, so the output is the only array of R's size."""
    R = np.asarray(R, dtype=float)
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if a <= 2.0:
        raise ValueError(f"shape parameter must exceed 2, got {a}")
    out = np.empty_like(R)
    rows = max(1, _SCAD_BLOCK // max(1, R.shape[1]))
    for r0 in range(0, len(R), rows):
        Rb = R[r0:r0 + rows]
        A = np.abs(Rb)
        if (A > 1.0 + 1e-8).any():
            raise ValueError(
                "entries exceed 1 in magnitude; not a correlation matrix")
        S = np.sign(Rb)
        soft = S * np.maximum(A - lam, 0.0)
        mid = S * (lam + (a - 1.0) / (a - 2.0) * (A - 2.0 * lam))
        out[r0:r0 + rows] = np.where(A <= 2.0 * lam, soft,
                                     np.where(A <= a * lam, mid, Rb))
    d = np.diag_indices(min(R.shape))
    out[d] = R[d]
    return out


def _sparsify(S, lam) -> None:
    """Threshold the covariance S on the correlation scale, then re-project,
    in place. The correlations overwrite S and the scale np.outer(rd, rd) is
    formed once, so the scale and the thresholded matrix are the only
    arrays of S's size made before the projection."""
    rd = np.sqrt(np.clip(np.einsum('kk->k', S), _DIAG_FLOOR, None))
    scale = np.outer(rd, rd)
    S /= scale
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, 1.0)
    T = scad_threshold(S, lam)
    T *= scale
    del scale                     # freed before the projection's copies
    S[...] = qp.nearest_psd(T)


class _GridBins:
    """A SCAD grid's 3G breakpoints {lam, 2*lam, a*lam}, sorted, and a
    lookup table that bins |r| in [0, 1] against them exactly as
    np.searchsorted(sorted, |r|, side="left") does.

    Cell c of the table covers [c/N, (c+1)/N), N = _BIN_CELLS (the last one
    just 1.0), and holds the count of breakpoints below c/N, a lower bound on
    the bin of every entry in the cell. `sweeps` rounds of the exact fix-up
    b += |r| > sorted[b] close the gap; the gap is at most the number of
    breakpoints inside the cell. Both scalings are by a power of two, so
    cells and their edges are exact."""

    def __init__(self, grid):
        G = grid.size
        self.grid = grid
        breaks = np.concatenate([grid, 2.0 * grid, _SCAD_A * grid])
        # stable: a level's three breakpoints keep their order even when equal
        order = np.argsort(breaks, kind="stable")
        self.rank = np.empty(3 * G, dtype=np.intp)
        self.rank[order] = np.arange(3 * G)
        sb = breaks[order]
        # an infinite sentinel lets an entry above every breakpoint stop at 3G
        self.sorted = np.append(sb, np.inf)
        self.table = np.searchsorted(
            sb, np.arange(_BIN_CELLS + 1) / _BIN_CELLS, side="left")
        inside = (sb[sb < 1.0] * _BIN_CELLS).astype(np.intp)
        self.sweeps = int(np.bincount(inside).max()) if inside.size else 0

    def bin(self, A) -> np.ndarray:
        """Per entry of A, the number of sorted breakpoints below it."""
        b = self.table[(A * _BIN_CELLS).astype(np.intp)]
        for _ in range(self.sweeps):
            b += A > self.sorted[b]
        return b


def _grid_sums(r, s, h, bins: _GridBins) -> np.ndarray:
    """Per-bin sums (rows, 6, 3G+1) of the six coefficients of the SCAD loss
    sum((scad(r, lam) * s - h)**2) along each row of the (rows, entries)
    arrays r, s and h; the entries of r are correlations, in [-1, 1].

    For one entry with A = |r|, v = sign(r)*s and u = r*s the fit is
    piecewise linear in lam: 0 for A <= lam, u - v*lam up to 2*lam,
    c*u + (1-2c)*v*lam up to a*lam (a = _SCAD_A, c = (a-1)/(a-2)), and u
    beyond, so its squared error is a quadratic in lam on each piece. An
    entry goes to bin b when it exceeds exactly b of the sorted 3G
    breakpoints, which are the floats scad_threshold compares against. The
    sums add over disjoint sets of entries, so blocks of entries can be
    summed one at a time; _grid_loss turns them into every level's loss."""
    rows, nb = len(r), bins.sorted.size
    c = (_SCAD_A - 1.0) / (_SCAD_A - 2.0)
    # one bincount per coefficient covers every row: row i owns bins i*nb...
    b = bins.bin(np.abs(r))
    b += np.arange(0, rows * nb, nb)[:, None]
    b = b.ravel()
    u = r * s
    v = np.copysign(s, r)        # sign(r)*s but at r = 0: bin 0 reads only h*h
    e = u - h                    # error of the kept entry
    m = u                        # c*u - h
    m *= c
    m -= h
    sums = np.empty((6, rows * nb))
    w = np.empty_like(u)
    for out, (x, y) in zip(sums, ((h, h), (e, e), (e, v), (v, v), (m, m),
                                  (m, v))):
        out[:] = np.bincount(b, np.multiply(x, y, out=w).ravel(),
                             minlength=rows * nb)
    return sums.reshape(6, rows, nb).swapaxes(0, 1)


def _grid_loss(sums, bins: _GridBins) -> np.ndarray:
    """(..., G) loss of every level of bins.grid from _grid_sums' (..., 6,
    3G+1) per-bin sums: prefix sums give each level's sums over A <= lam,
    lam < A <= 2*lam, 2*lam < A <= a*lam and A > a*lam."""
    grid, rank = bins.grid, bins.rank
    G = grid.size
    cum = np.moveaxis(np.cumsum(sums, axis=-1), -2, 0)
    c0, c1, c2 = (cum[..., rank[:G]], cum[..., rank[G:2 * G]],
                  cum[..., rank[2 * G:]])
    soft, mid = c1 - c0, c2 - c1
    q = 1.0 - 2.0 * (_SCAD_A - 1.0) / (_SCAD_A - 2.0)
    return (c0[0]
            + soft[1] - 2.0 * grid * soft[2] + grid ** 2 * soft[3]
            + mid[4] + 2.0 * q * grid * mid[5] + (q * grid) ** 2 * mid[3]
            + (cum[1, ..., -1:] - c2[1]))


def _row_blocks(p):
    """Row ranges r0:r1 of the strict upper triangle of a p x p matrix, each
    holding at most _CV_BLOCK entries (or one row)."""
    ends = np.cumsum(np.arange(p - 1, 0, -1))        # entries in rows 0..r
    r0 = 0
    while r0 < p - 1:
        start = ends[r0 - 1] if r0 else 0
        r1 = int(np.searchsorted(ends, start + _CV_BLOCK, side="right"))
        r1 = max(r1, r0 + 1)
        yield r0, r1
        r0 = r1


def _block_moments(Z, H, r0, r1) -> np.ndarray:
    """Rows r0:r1 against columns r0+1: of the K moments Z diag(H[:, l]) Z',
    each rectangle flattened row-major: (K, (r1-r0)*(p-r0-1)), from one
    product over the stacked weighted rows."""
    A = H.T[:, None, :] * Z[None, r0:r1]
    return (A.reshape(-1, Z.shape[1]) @ Z[r0 + 1:].T).reshape(len(A), -1)


def _cv_losses(Z, H, folds: int, grid, seed: int, basis=None) -> np.ndarray:
    """(K, G) held-out Frobenius loss of each type's thresholded training
    estimate, summed over the folds.

    A fold's moment weights are C = M^{-1} H' over its samples, M = H'H, so
    type k's training moment is sum_l M_tr^{-1}[k, l] (T_l - G_l) and its
    held-out moment sum_l M_ho^{-1}[k, l] G_l. T_l = Z diag(h_l) Z' runs over
    all samples; `basis` (K, p, p) holds it when the caller formed it
    already. G_l is the same moment over the fold's held-out samples. The
    loss is symmetric: the diagonal enters through a term that does not
    depend on lam, and the strict upper triangle is streamed in row blocks
    (_row_blocks), folds inside, each block adding its per-bin sums to one
    (folds, K, 6, 3G+1) accumulator; no array of the triangle's size is
    formed."""
    n, K = H.shape
    p = Z.shape[0]
    rng = np.random.Generator(np.random.Philox(key=seed))
    fold_ids = np.array_split(rng.permutation(n), folds)
    bins = _GridBins(grid)
    if basis is None:
        basis = _moments(Z, H)
    T_d = np.diagonal(basis, axis1=1, axis2=2)
    Zs, Hs, Mi_tr, Mi_ho, rd, diag = [], [], [], [], [], []
    for hold in fold_ids:
        ho = np.zeros(n, dtype=bool)
        ho[hold] = True
        Mi_tr.append(np.linalg.inv(_moment_matrix(H[~ho])))
        Mi_ho.append(np.linalg.inv(_moment_matrix(H[ho])))
        Zs.append(Z[:, ho])
        Hs.append(H[ho])
        G_d = ((Zs[-1] * Zs[-1]) @ Hs[-1]).T
        rd.append(np.sqrt(np.clip(Mi_tr[-1] @ (T_d - G_d), _DIAG_FLOOR, None)))
        diag.append(((rd[-1] * rd[-1] - Mi_ho[-1] @ G_d) ** 2).sum(axis=1))
    sums = np.zeros((folds, K, 6, bins.sorted.size))
    for r0, r1 in _row_blocks(p):
        # the block's entries in its rows r0:r1 x columns r0+1: rectangle
        at = np.flatnonzero(np.triu(np.ones((r1 - r0, p - r0 - 1), bool)))
        T = basis[:, r0:r1, r0 + 1:].reshape(K, -1)[:, at]
        for f in range(folds):
            G = _block_moments(Zs[f], Hs[f], r0, r1)[:, at]
            s = rd[f][:, r0:r1, None] * rd[f][:, None, r0 + 1:]
            s = s.reshape(K, -1)[:, at]
            r = Mi_tr[f] @ (T - G)
            r /= s
            sums[f] += _grid_sums(np.clip(r, -1.0, 1.0, out=r), s,
                                  Mi_ho[f] @ G, bins)
    losses = np.array(diag)[:, :, None] + 2.0 * _grid_loss(sums, bins)
    return losses.sum(axis=0)


def cross_validate_lambda(Z, H_hat, folds: int = 5, grid=None, seed: int = 0,
                          basis=None) -> np.ndarray:
    """Per-type SCAD level minimizing held-out Frobenius loss.

    Samples are split into `folds` groups by a seeded permutation. For each
    fold, the thresholded training estimate is compared to the raw held-out
    estimate; the per-type grid value with the smallest summed loss wins.
    The loss is exact for every grid level and is computed for the whole
    grid in one streamed pass over the moments. `basis`, when given, holds
    the (K, p, p) full-sample moments Z diag(H[:, l]) Z' (as run_decals
    forms them), which are then not formed again."""
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    Z = np.asarray(Z, dtype=float)
    H = np.asarray(H_hat, dtype=float)
    if grid is None:
        grid = np.logspace(np.log10(0.01), 0.0, 20)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"grid must be a non-empty 1-D sequence of levels, "
                         f"got shape {grid.shape}")
    if not (np.isfinite(grid) & (grid >= 0.0)).all():
        raise ValueError(f"grid levels must be finite and >= 0, "
                         f"got {grid.tolist()}")
    n, K = H.shape
    # every holdout fold must support its own rank-K moment regression
    need = folds * max(2, K)
    if n < need:
        raise InsufficientSamples(
            f"need n >= {need} for {folds}-fold cross-validation with "
            f"K={K}, got {n}")
    if basis is not None and np.shape(basis) != (K, Z.shape[0], Z.shape[0]):
        raise DimensionMismatch(
            f"basis has shape {np.shape(basis)}; need "
            f"({K}, {Z.shape[0]}, {Z.shape[0]})")
    losses = _cv_losses(Z, H, folds, grid, seed, basis)
    return grid[np.argmin(losses, axis=1)]


def _check_decals_options(K: int, max_iter: int, tol: float, lambdas,
                          seed: int):
    """run_decals' checks of the options that need no data, only the cell
    type count K; returns lambdas as an array (None stays None)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0.0:                        # NaN or <= 0 never converges
        raise ValueError(f"tol must be > 0, got {tol}")
    if lambdas is not None:
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != (K,):
            raise DimensionMismatch(
                f"lambdas has shape {lambdas.shape}; need one SCAD level per "
                f"cell type, shape ({K},)")
        if not (np.isfinite(lambdas) & (lambdas >= 0.0)).all():
            raise ValueError(f"lambdas must be finite and >= 0, "
                             f"got {lambdas.tolist()}")
    return lambdas


def run_decals(W, Y, *, correct: bool = True, max_iter: int = 50,
               tol: float = 1e-4, lambdas=None, seed: int = 0) -> DecalsResult:
    """Full pipeline: proportions, then the covariance fixed-point loop.

    Each iteration SCAD-thresholds every Sigma^(k) on the correlation scale
    and projects it to PSD. The level comes from cross-validation (folds
    split by `seed`) unless `lambdas` gives one per type. Unthresholded,
    the plug-in V collapses along the constraint direction: the raw moments
    carry nothing of W' Sigma^(k) W at an interior fit.
    correct:  apply the moment bias correction; automatically falls back
              to the raw estimator if the corrected moment matrix stops
              being positive definite (warning recorded).
    tol:      relative sup-norm change of all V_i that counts as converged.
              A raw pass counts as converged too: it reaches the raw map's
              fixed point at once.
    """
    Wv, Yv = _values(W), _values(Y)
    p, K = Wv.shape
    n = Yv.shape[1]
    if n < K:
        raise InsufficientSamples(f"need n >= K for the moment regression, got n={n}")
    lambdas = _check_decals_options(K, max_iter, tol, lambdas, seed)
    run_warnings: list[str] = []
    trace: list[dict] = []

    P = estimate_proportions(W, Y)
    H = P ** 2
    Z = residuals(Wv, Yv, P)
    U, Omi = constraint_projector(Wv)

    # starting covariances: pooled residual variance, iid-error sandwich
    s2 = (Z * Z).sum(axis=0) / (p - 1)
    base = U @ Omi @ U.T
    V = s2[:, None, None] * base[None, :, :]           # (n, K, K)

    # the basis T over [H, s2] (over H alone without correction); every
    # estimate below is R @ T for a K x (K+1) (K x K) matrix R
    T = _moments(Z, np.column_stack([H, s2]) if correct else H)
    if lambdas is None:
        try:
            lambdas = cross_validate_lambda(Z, H, seed=seed, basis=T[:K])
        except InsufficientSamples as err:
            raise InsufficientSamples(
                f"{err}; too few samples to cross-validate the threshold "
                f"level, pass fixed `lambdas` instead") from None

    # (H - B2)' = E [H, s2]'; the starting V_i = s2_i base gives
    # B2 = s2 diag(base)'/p
    E = np.column_stack([np.eye(K), -np.diagonal(base) / p])
    converged = False
    iterations = 0
    di = np.arange(p)
    # unit weights after H give the per-type sandwich terms U A_k U'
    weights = np.vstack([H, np.eye(K)])
    for t in range(max_iter):
        iterations = t + 1
        path = "raw"
        if correct:
            B1, _ = _bias_arrays(P, V, p)
            try:
                R = np.linalg.solve(_corrected_moment(H, B1), E)
                path = "corrected"
            except SingularCorrectedMoment as err:
                msg = (f"iteration {t}: {err}; bias correction disabled, "
                       f"raw estimator used for the rest of the run")
                run_warnings.append(msg)
                warnings.warn(msg)
        if path == "raw":
            R = np.linalg.inv(_moment_matrix(H))
        Sk = np.tensordot(R, T[:R.shape[1]], axes=1)
        # variance floor, then sparsification
        for k in range(K):
            Sk[k, di, di] = np.maximum(Sk[k, di, di], _DIAG_FLOOR)
            _sparsify(Sk[k], lambdas[k])
        Vw = sandwich(Wv, Sk, weights)
        Vn = Vw[:n]
        # V_i = sum_k H_ik Vt_k, so B2 = H D/p with D[k] = diag(Vt_k)
        D = np.einsum('kjj->kj', Vw[n:])
        E = np.column_stack([(np.eye(K) - D / p).T, np.zeros(K)])
        delta = (np.abs(Vn - V).max(axis=(1, 2))
                 / (1.0 + np.abs(V).max(axis=(1, 2)))).max()
        trace.append({"path": path, "delta": float(delta)})
        V = Vn
        # the raw map R @ T does not depend on V: one pass is its fixed point
        if delta < tol or path == "raw":
            converged = True
            break
    if not converged:
        msg = f"no convergence after {iterations} iterations (last delta {delta:.3e})"
        run_warnings.append(msg)
        warnings.warn(msg, NonConvergenceWarning)

    return DecalsResult(P, V / p, Sk, iterations, converged, lambdas,
                        run_warnings, trace)
