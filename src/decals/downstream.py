"""Propagating proportion uncertainty into downstream analyses.

Two pieces: draw simplex-valued proportion sets from each sample's Gaussian
approximation, and aggregate per-draw test decisions into final calls with a
cutoff that accounts for the extra variability injected by the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite

DRAW_CLIP_FLOOR = 0.0


@dataclass
class ProportionDrawSet:
    """M resampled proportion matrices for n samples: draws is (M, n, K)."""
    draws: np.ndarray
    sample_ids: list
    cell_types: list
    seed: int

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        if d.ndim != 3:
            raise DimensionMismatch(f"draws must be (M, n, K), got {d.shape}")
        self.draws = d


@dataclass
class CallDecision:
    """Aggregated decision for one (unit, cell type) hypothesis."""
    unit_id: str
    cell_type: str
    hits: int
    total_draws: int
    cutoff: int
    called: bool


def _raw_draws(P, V, M: int, rng) -> np.ndarray:
    """Draws (M, n, K) from N(P[i], V[i]) before the simplex projection.

    Each covariance's root is its symmetric part's eigenvectors scaled by
    the square roots of the eigenvalues, negative ones clipped to zero."""
    w, Q = np.linalg.eigh(0.5 * (V + V.transpose(0, 2, 1)))
    roots = Q * np.sqrt(np.maximum(w, 0.0))[:, None, :]
    z = rng.standard_normal((len(P), M, roots.shape[-1]))
    return (P[:, None, :] + z @ roots.transpose(0, 2, 1)).transpose(1, 0, 2)


def project_draws(raw: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and renormalize each draw to sum one.

    A draw that clips to all zeros falls back to the uniform vector."""
    clipped = np.clip(raw, DRAW_CLIP_FLOOR, None)
    tot = clipped.sum(axis=-1, keepdims=True)
    K = raw.shape[-1]
    uniform = np.full(K, 1.0 / K)
    out = np.where(tot > 0, clipped / np.where(tot > 0, tot, 1.0),
                   uniform[None, None, :])
    return out


def sample_proportion_sets(P, V, M: int, seed: int = 0, sample_ids=None,
                           cell_types=None) -> ProportionDrawSet:
    """M proportion-set draws from N(P[i], V[i]) for each sample i of P (n, K)
    and V (n, K, K), projected back to the simplex (clip at zero, renormalize).

    V is the sampling covariance a fit stores (the /p scale); drawing from it
    is what lets downstream aggregation see the estimation uncertainty. Ids
    default to "0".."n-1", cell types to "0".."K-1". A sample whose P or V
    holds NaN/Inf raises NonFinite, naming the first such sample by id."""
    if M < 1:
        raise ValueError("M must be >= 1")
    P = np.asarray(P, dtype=float)
    V = np.asarray(V, dtype=float)
    if P.ndim != 2 or not len(P) or V.shape != P.shape + P.shape[1:]:
        raise DimensionMismatch(
            f"need proportions (n, K) with n >= 1 and covariances (n, K, K), "
            f"got {P.shape} and {V.shape}")
    if sample_ids is None:
        sample_ids = [str(i) for i in range(len(P))]
    bad = ~(np.isfinite(P).all(axis=1) & np.isfinite(V).all(axis=(1, 2)))
    if bad.any():
        raise NonFinite(f"sample {list(sample_ids)[int(np.argmax(bad))]}: "
                        "proportions or covariance contain NaN/Inf")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    raw = _raw_draws(P, V, M, rng)
    if cell_types is None:
        cell_types = [str(k) for k in range(P.shape[1])]
    return ProportionDrawSet(project_draws(raw), list(sample_ids),
                             list(cell_types), seed)


def call_cutoff(M: int, alpha: float) -> int:
    """Hit-count threshold: mean plus two binomial sds, rounded up.

    A hypothesis null in every draw exceeds this only with small probability,
    so calls surviving the cutoff are robust to the injected noise."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return math.ceil(M * alpha + 2.0 * math.sqrt(M * alpha * (1.0 - alpha)))


def aggregate_calls(pvalues, alpha: float = 0.05):
    """Aggregate per-draw p-values into final calls.

    pvalues maps (unit_id, cell_type) -> array of M per-draw p-values. A
    hypothesis is called when its number of draws with p < alpha strictly
    exceeds call_cutoff(M, alpha). Returns a list of CallDecision sorted by
    (unit_id, cell_type). The p-values are checked and counted in one pass
    over all hypotheses stacked; an error names the first bad hypothesis in
    that order."""
    keys = sorted(pvalues)
    arrays = [np.asarray(pvalues[key], dtype=float) for key in keys]
    # hypotheses before the first one that is not a nonempty vector
    n_ok = next((h for h, ps in enumerate(arrays)
                 if ps.ndim != 1 or not len(ps)), len(arrays))
    lens = np.array([len(ps) for ps in arrays[:n_ok]], dtype=np.int64)
    starts = np.cumsum(lens) - lens
    flat = np.concatenate(arrays[:n_ok] or [np.zeros(0)])
    outside = np.add.reduceat(~((flat >= 0) & (flat <= 1)), starts,
                              dtype=np.int64)
    if outside.any():
        unit, ct = keys[int(np.argmax(outside > 0))]
        raise ValueError(f"p-values for ({unit}, {ct}) outside [0, 1]")
    if n_ok < len(keys):
        unit, ct = keys[n_ok]
        raise DimensionMismatch(
            f"p-values for ({unit}, {ct}) must be a nonempty vector")
    hits = np.add.reduceat(flat < alpha, starts, dtype=np.int64)
    decisions = []
    for (unit, ct), M, h in zip(keys, lens.tolist(), hits.tolist()):
        cut = call_cutoff(M, alpha)
        decisions.append(CallDecision(str(unit), str(ct), h, M, cut, h > cut))
    return decisions
