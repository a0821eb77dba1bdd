"""Seeded synthetic-data generators and the Monte-Carlo coverage harness.

Data model: proportions drawn from a Dirichlet, per-type Gaussian expression
profiles drawn around signature means with block-structured covariances,
bulk samples assembled as proportion-weighted sums. Every replicate owns a
counter-based RNG substream keyed by (seed, replicate), so results do not
depend on execution order and parallel runs reproduce serial ones bit for
bit.

The coverage harness runs one estimation method per experiment and reports
per-cell-type empirical CI coverage, width, and error, both pooled and per
replicate. Oracle method variants receive the true subject covariances; the
"ols" method is the constrained fit with the iid-error covariance. A
replicate that fails numerically is recorded in the report and skipped.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, asdict

import numpy as np

from .covest import run_decals, _check_decals_options
from .deconv import (estimate_proportions, sandwich, wald_intervals,
                     _check_level)
from .errors import (DecalsError, DimensionMismatch, DivisibilityError,
                     NonPsd)
from .gls import (gls_covariance, run_gls_iterative, solve_gls,
                  _check_gls_options)

METHODS = ("ols", "decals", "decals_uncorrected", "gls_oracle",
           "gls_estimated", "decals_oracle")

# correlation parameters of the two block types
_CS_RHO = 0.3
_DECAY_BASE = 0.7
_DECAY_RATE = 0.9


@dataclass
class SimConfig:
    """Configuration of one simulated design.

    scale multiplies the correlation blocks into covariances; signature_sd is
    the sd of the signature entries; noise_a0 perturbs the signature handed to
    the estimator (the data are generated from the unperturbed one)."""
    K: int = 3
    p: int = 150
    n: int = 200
    dirichlet_alpha: tuple = (3.0, 2.0, 1.0)
    noise_a0: float = 0.0
    replicates: int = 50
    seed: int = 0
    scale: float = 10.0
    signature_sd: float = 1.0

    def __post_init__(self):
        if self.K < 2 or len(self.dirichlet_alpha) != self.K:
            raise DimensionMismatch(
                f"dirichlet_alpha length {len(self.dirichlet_alpha)} != K={self.K}")
        if self.p % self.K:
            raise DivisibilityError(
                f"block design needs p divisible by K, got p={self.p}, K={self.K}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.noise_a0 < 0:
            raise ValueError("noise_a0 must be >= 0")
        if not 0 <= self.seed < 2 ** 64:     # replicate_rng keys take 64 bits
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("dirichlet_alpha", "scale", "signature_sd"):
            v = np.asarray(getattr(self, name), dtype=float)
            if not (np.isfinite(v) & (v > 0)).all():
                raise ValueError(f"{name} must be finite and > 0, "
                                 f"got {v.tolist()}")


@dataclass
class CoverageReport:
    """Empirical CI coverage of one method on one simulated design."""
    method: str
    config: SimConfig
    level: float
    coverage: np.ndarray                     # (K,) pooled over samples+reps
    overall_coverage: float                  # pooled over cell types as well
    mean_width: np.ndarray                   # (K,)
    mean_abs_error: np.ndarray               # (K,)
    per_replicate: np.ndarray                # (replicates, K), NaN on failure
    per_replicate_width: np.ndarray          # (replicates, K), NaN on failure
    replicate_seeds: list                    # [(seed, replicate), ...]
    failures: list

    def replicate_quantiles(self, qs=(0.025, 0.25, 0.5, 0.75, 0.975)):
        """Quantiles of the per-replicate coverage distribution, per type."""
        ok = self.per_replicate[~np.isnan(self.per_replicate).any(axis=1)]
        if not len(ok):
            return {q: [float("nan")] * len(self.coverage) for q in qs}
        return {q: np.quantile(ok, q, axis=0).tolist() for q in qs}

    def to_dict(self):
        d = {
            "method": self.method,
            "config": asdict(self.config),
            "level": self.level,
            "coverage": self.coverage.tolist(),
            "overall_coverage": self.overall_coverage,
            "mean_width": self.mean_width.tolist(),
            "mean_abs_error": self.mean_abs_error.tolist(),
            "per_replicate": [[None if np.isnan(v) else v for v in row]
                              for row in self.per_replicate],
            "per_replicate_width": [[None if np.isnan(v) else v for v in row]
                                    for row in self.per_replicate_width],
            "replicate_seeds": [list(s) for s in self.replicate_seeds],
            "replicate_quantiles": {str(k): v for k, v in
                                    self.replicate_quantiles().items()},
            "failures": list(self.failures),
        }
        return d


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Counter-based substream for one replicate; independent of run order."""
    key = np.array([np.uint64(seed & (2 ** 64 - 1)),
                    np.uint64(replicate)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_dirichlet(alpha, n: int, rng) -> np.ndarray:
    """n iid Dirichlet(alpha) rows."""
    return rng.dirichlet(np.asarray(alpha, dtype=float), size=n)


def block_correlations(p: int, K: int = 3):
    """K block-diagonal correlation matrices of size p.

    Each matrix stacks K blocks of size p/K: one compound-symmetry block
    (off-diagonal 0.3) whose position rotates with the cell type, the others
    with geometrically decaying correlation 0.7 * 0.9^(d-1) at distance d."""
    if p % K:
        raise DivisibilityError(f"p={p} not divisible by K={K}")
    m = p // K
    i = np.arange(m)
    D = np.abs(i[:, None] - i[None, :])
    cs = np.full((m, m), _CS_RHO)
    np.fill_diagonal(cs, 1.0)
    decay = _DECAY_BASE * _DECAY_RATE ** (D - 1.0)
    np.fill_diagonal(decay, 1.0)
    out = np.zeros((K, p, p))
    for k in range(K):
        for b in range(K):
            blk = cs if b == k else decay
            out[k, b * m:(b + 1) * m, b * m:(b + 1) * m] = blk
    return out


def _psd_root(Sigma):
    Sigma = np.asarray(Sigma, dtype=float)
    try:
        return np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        w, Q = np.linalg.eigh(0.5 * (Sigma + Sigma.T))
        if w[0] < -1e-8 * max(w[-1], 1.0):
            raise NonPsd(f"covariance has eigenvalue {w[0]:.3e}") from None
        return Q * np.sqrt(np.maximum(w, 0.0))


def sample_gaussian_profiles(w_k, Sigma_k, n: int, rng) -> np.ndarray:
    """n Gaussian vectors with mean w_k and covariance Sigma_k, shape (n, p)."""
    w_k = np.asarray(w_k, dtype=float)
    L = _psd_root(Sigma_k)
    return w_k[None, :] + rng.standard_normal((n, L.shape[1])) @ L.T


def perturb_signature(W, a0: float, rng):
    """Add iid N(0, a0^2) noise to every signature entry; a0=0 is identity."""
    if a0 < 0:
        raise ValueError("a0 must be >= 0")
    Wv = np.asarray(getattr(W, "values", W), dtype=float)
    if a0 == 0:
        return W
    noisy = Wv + rng.normal(0.0, a0, Wv.shape)
    if hasattr(W, "values"):
        return type(W)(noisy, list(W.gene_ids), list(W.cell_types))
    return noisy


def synthesize_bulk(proportions, profiles_per_type) -> np.ndarray:
    """Bulk matrix (p, n): column i is sum_k pi_ik x_i^(k)."""
    P = np.asarray(proportions, dtype=float)
    X = np.asarray(profiles_per_type, dtype=float)    # (K, n, p)
    if X.ndim != 3 or P.ndim != 2 or X.shape[0] != P.shape[1] \
            or X.shape[1] != P.shape[0]:
        raise DimensionMismatch(
            f"proportions {P.shape} vs profiles {X.shape}")
    return np.einsum('nk,knp->pn', P, X)


def replicate_dataset(config: SimConfig, rng):
    """One synthetic dataset: true signature, observed (possibly perturbed)
    signature, true proportions, bulk matrix, true per-type covariances."""
    K, p, n = config.K, config.p, config.n
    R = block_correlations(p, K)
    Sig = config.scale * R
    W = rng.normal(0.0, config.signature_sd, (p, K))
    X = np.stack([sample_gaussian_profiles(W[:, k], Sig[k], n, rng)
                  for k in range(K)])
    P = sample_dirichlet(config.dirichlet_alpha, n, rng)
    Y = synthesize_bulk(P, X)
    Wobs = perturb_signature(W, config.noise_a0, rng)
    return W, Wobs, P, Y, Sig


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _check_options(method: str, options, K: int) -> None:
    """Refuse, before any data exist, the options `method`'s fit would
    refuse: one the fit does not take (binding raises the TypeError a call
    would), a value the fit's own checks refuse, and any option at all for
    the methods that take none."""
    fit = {"decals": run_decals, "decals_uncorrected": run_decals,
           "gls_estimated": run_gls_iterative}.get(method)
    if fit is None:
        if options:
            raise TypeError(f"method {method!r} takes no options, "
                            f"got {sorted(options)}")
        return
    bound = inspect.signature(fit).bind(None, None, **(options or {}))
    bound.apply_defaults()
    a = bound.arguments
    if fit is run_gls_iterative:
        _check_gls_options(a["max_iter"])
    else:
        _check_decals_options(K, a["max_iter"], a["tol"], a["lambdas"],
                              a["seed"])


def _fit_estimates(method: str, Wobs, Y, P, Sig, options):
    """Run one method; return its point estimates (n, K) and sampling
    covariances (n, K, K) at the estimate's scale."""
    _check_method(method)
    p, K = Wobs.shape
    if method == "ols":
        # the iid-error covariance s2_i (W'W)^{-1}, s2_i = RSS_i / (p - K),
        # which ignores gene-gene correlation
        est = estimate_proportions(Wobs, Y)
        Z = Y - Wobs @ est.T
        s2 = (Z * Z).sum(axis=0) / (p - K)
        V = s2[:, None, None] * np.linalg.inv(Wobs.T @ Wobs)[None, :, :]
    elif method == "decals_oracle":
        est = estimate_proportions(Wobs, Y)
        V = sandwich(Wobs, Sig, est ** 2) / p
    elif method == "gls_oracle":
        est = solve_gls(Wobs, Y, Sig, P ** 2)
        V = gls_covariance(Wobs, Sig, P ** 2) / p
    else:                        # decals, decals_uncorrected, gls_estimated
        opts = dict(options or {})
        if method == "gls_estimated":
            res = run_gls_iterative(Wobs, Y, **opts)
        else:
            opts.setdefault("correct", method == "decals")
            res = run_decals(Wobs, Y, **opts)
        est, V = res.proportions, res.covariances
    return est, V


def _replicate_coverage(config: SimConfig, method: str, r: int, level: float,
                        options):
    rng = replicate_rng(config.seed, r)
    W, Wobs, P, Y, Sig = replicate_dataset(config, rng)
    est, V = _fit_estimates(method, Wobs, Y, P, Sig, options)
    lo, hi = wald_intervals(est, np.einsum('nkk->nk', V), level)
    hits = (lo <= P) & (P <= hi)
    return (hits.mean(axis=0), (hi - lo).mean(axis=0),
            np.abs(est - P).mean(axis=0))


def _replicate_worker(args):
    config, method, r, level, options = args
    try:
        return r, _replicate_coverage(config, method, r, level, options), None
    except (DecalsError, np.linalg.LinAlgError) as err:
        return r, None, f"replicate {r}: {type(err).__name__}: {err}"


def _map_jobs(fn, jobs, workers: int) -> list:
    """[fn(j) for j in jobs], in `workers` spawned processes when above 1.

    Every replicate seeds its own substream, so the results do not depend
    on the worker count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            return list(pool.map(fn, jobs))
    return [fn(j) for j in jobs]


def coverage_experiment(config: SimConfig, method: str, *, level: float = 0.95,
                        workers: int = 1,
                        method_options: dict | None = None) -> CoverageReport:
    """Empirical CI coverage of `method` over seeded replicates.

    Per replicate: generate a dataset, fit, build level-q intervals, and
    record the per-cell-type fraction of intervals containing the truth.
    Oracle variants receive the true subject covariances. Failing replicates
    are recorded and skipped, not fatal. Replicate r draws from substream
    (config.seed, r), so fewer replicates repeat a longer run's first ones.
    `method_options` go to the decals and gls_estimated fits, and are
    checked before any replicate runs."""
    _check_method(method)
    _check_level(level)
    _check_options(method, method_options, config.K)
    reps = range(config.replicates)
    jobs = [(config, method, r, level, method_options) for r in reps]
    results = _map_jobs(_replicate_worker, jobs, workers)

    K = config.K
    per_rep = np.full((len(reps), K), np.nan)
    widths = np.full((len(reps), K), np.nan)
    abserr = np.full((len(reps), K), np.nan)
    failures = []
    for row, (r, payload, err) in enumerate(results):
        if err is not None:
            failures.append(err)
            continue
        per_rep[row], widths[row], abserr[row] = payload
    ok = ~np.isnan(per_rep).any(axis=1)
    if ok.any():
        coverage = per_rep[ok].mean(axis=0)
        mean_width = widths[ok].mean(axis=0)
        mean_abs = abserr[ok].mean(axis=0)
        overall = float(per_rep[ok].mean())
    else:
        coverage = np.full(K, np.nan)
        mean_width = np.full(K, np.nan)
        mean_abs = np.full(K, np.nan)
        overall = float("nan")
    return CoverageReport(method, config, level, coverage, overall, mean_width,
                          mean_abs, per_rep, widths,
                          [(config.seed, r) for r in reps], failures)


@dataclass
class VErrorRow:
    p: int
    signature_sd: float
    method: str
    means: np.ndarray                        # (len(entries),)
    ses: np.ndarray


@dataclass
class VErrorTable:
    """Per-entry RMS error of estimated sampling covariances vs the truth."""
    entries: list                            # [(l, l'), ...] upper triangle
    rows: list = field(default_factory=list)

    def to_dict(self):
        return {
            "entries": [list(e) for e in self.entries],
            "rows": [{"p": r.p, "signature_sd": r.signature_sd,
                      "method": r.method, "means": r.means.tolist(),
                      "ses": r.ses.tolist()} for r in self.rows],
        }


def _replicate_v_errors(args):
    config, methods, r, entries = args
    rng = replicate_rng(config.seed, r)
    W, Wobs, P, Y, Sig = replicate_dataset(config, rng)
    truth = sandwich(W, Sig, P ** 2) / Y.shape[0]   # at the /p scale
    out = {}
    for method in methods:
        Vh = _fit_estimates(method, Wobs, Y, P, Sig, None)[1]
        out[method] = np.array(
            [np.sqrt(np.mean((Vh[:, l, m] - truth[:, l, m]) ** 2))
             for l, m in entries])
    return out


def v_error_study(p_values=(150, 300), signature_sds=(1.0, 2.0), *,
                  methods=("decals", "ols"), n: int = 200,
                  replicates: int = 10, seed: int = 0,
                  workers: int = 1) -> VErrorTable:
    """RMS estimation error of the per-sample covariance, per matrix entry,
    across a grid of gene counts and signature sds. Errors shrink as either
    grows, and the pipeline estimate beats the iid-error baseline throughout.
    `methods` are METHODS names, each run with default options. The
    replicates of every grid cell run in `workers` processes (see
    _map_jobs); the table does not depend on their number.
    """
    for method in methods:
        _check_method(method)
    K = 3
    entries = [(l, m) for l in range(K) for m in range(l, K)]
    table = VErrorTable(entries)
    cells = [SimConfig(K=K, p=p, n=n, replicates=replicates, seed=seed,
                       signature_sd=a)
             for p in p_values for a in signature_sds]
    jobs = [(config, methods, r, entries)
            for config in cells for r in range(replicates)]
    results = _map_jobs(_replicate_v_errors, jobs, workers)
    for c, config in enumerate(cells):
        per_rep = results[c * replicates:(c + 1) * replicates]
        for m in methods:
            arr = np.stack([res[m] for res in per_rep])
            if len(arr) > 1:
                ses = arr.std(axis=0, ddof=1) / np.sqrt(len(arr))
            else:
                ses = np.full(arr.shape[1], np.nan)
            table.rows.append(VErrorRow(config.p, config.signature_sd, m,
                                        arr.mean(axis=0), ses))
    return table
