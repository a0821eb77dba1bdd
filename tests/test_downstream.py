"""Tests for proportion resampling and call aggregation.

Oracles: with a zero covariance all draws equal the point estimate; with a
sum-zero covariance the Gaussian noise lives on the simplex hyperplane, so
for interior estimates the projection is a no-op and the empirical draw
covariance can be checked against the input covariance directly. Cutoff
values are checked against hand-computed ceil(M a + 2 sqrt(M a (1-a))) and
the null false-call rate against the exact binomial tail.
"""

import numpy as np
import pytest
from scipy import stats

from decals.downstream import (
    CallDecision,
    ProportionDrawSet,
    aggregate_calls,
    call_cutoff,
    project_draws,
    sample_proportion_sets,
)
from decals.errors import DimensionMismatch, NonFinite


def _sum_zero_cov(K, scale, rng):
    # PSD with null vector 1, like the constrained estimator's covariance.
    A = rng.standard_normal((K, K)) * scale
    V = A @ A.T
    P = np.eye(K) - np.full((K, K), 1.0 / K)
    return P @ V @ P


def test_zero_covariance_draws_equal_estimate():
    P = np.array([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    ds = sample_proportion_sets(P, np.zeros((2, 3, 3)), M=7, seed=3,
                                sample_ids=["a", "b"])
    assert ds.draws.shape == (7, 2, 3)
    for m in range(7):
        np.testing.assert_allclose(ds.draws[m, 0], [0.5, 0.3, 0.2], atol=0)
        np.testing.assert_allclose(ds.draws[m, 1], [0.1, 0.1, 0.8], atol=0)
    assert ds.sample_ids == ["a", "b"]


def test_draw_moments_match_covariance():
    # Interior estimate + sum-zero covariance: noise sums to zero exactly, so
    # draws stay on the hyperplane and clipping never triggers. The projected
    # draws are then exactly N(pi, V) and we can check first/second moments.
    rng = np.random.default_rng(11)
    K = 3
    V = _sum_zero_cov(K, 0.02, rng)
    pi = np.array([0.45, 0.35, 0.20])
    M = 40000
    ds = sample_proportion_sets(pi[None], V[None], M=M, seed=5)
    X = ds.draws[:, 0, :]
    np.testing.assert_allclose(X.sum(axis=1), 1.0, atol=1e-12)
    assert X.min() > 0  # projection inactive on this fixture
    np.testing.assert_allclose(X.mean(axis=0), pi, atol=4 * np.sqrt(
        V.max() / M) + 1e-4)
    emp = np.cov(X.T)
    # entrywise MC tolerance ~ few/sqrt(M) of the scale
    assert np.abs(emp - V).max() < 0.05 * np.abs(V).max() + 1e-5


def test_draws_respect_simplex():
    # Large covariance without the sum-zero structure: projection must kick in
    # and every draw must still be a valid probability vector.
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3))
    ds = sample_proportion_sets([[0.2, 0.5, 0.3]], [0.5 * A @ A.T], M=2000,
                                seed=1)
    assert (ds.draws >= 0).all()
    np.testing.assert_allclose(ds.draws.sum(axis=2), 1.0, atol=1e-12)


def test_project_draws_cases():
    raw = np.array([[[0.5, -0.1, 0.8],
                     [0.25, 0.25, 0.5],
                     [0.0, 0.0, 0.0],
                     [-1.0, -2.0, -3.0]]])
    out = project_draws(raw)
    np.testing.assert_allclose(out[0, 0], [0.5 / 1.3, 0.0, 0.8 / 1.3],
                               atol=1e-15)
    # already on the simplex: unchanged
    np.testing.assert_allclose(out[0, 1], [0.25, 0.25, 0.5], atol=0)
    # all-zero (and all-negative) rows fall back to uniform
    np.testing.assert_allclose(out[0, 2], [1 / 3] * 3, atol=1e-15)
    np.testing.assert_allclose(out[0, 3], [1 / 3] * 3, atol=1e-15)


def test_sampling_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(2)
    est = ([[0.4, 0.6]], [_sum_zero_cov(2, 0.05, rng)])
    a = sample_proportion_sets(*est, M=50, seed=9)
    b = sample_proportion_sets(*est, M=50, seed=9)
    c = sample_proportion_sets(*est, M=50, seed=10)
    np.testing.assert_array_equal(a.draws, b.draws)
    assert np.abs(a.draws - c.draws).max() > 1e-4


def test_cell_type_labels():
    est = ([[0.4, 0.6]], np.zeros((1, 2, 2)))
    ds = sample_proportion_sets(*est, M=2, seed=0)
    assert ds.cell_types == ["0", "1"]
    assert ds.sample_ids == ["0"]
    ds2 = sample_proportion_sets(*est, M=2, seed=0,
                                 cell_types=["neuron", "glia"])
    assert ds2.cell_types == ["neuron", "glia"]


def test_sampling_input_validation():
    est = ([[0.4, 0.6]], np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="M"):
        sample_proportion_sets(*est, M=0)
    with pytest.raises(DimensionMismatch):
        sample_proportion_sets(np.zeros((0, 2)), np.zeros((0, 2, 2)), M=5)
    with pytest.raises(DimensionMismatch):
        sample_proportion_sets(est[0], np.zeros((1, 3, 3)), M=5)
    with pytest.raises(DimensionMismatch):
        ProportionDrawSet(np.zeros((3, 2)), ["a"], ["0", "1"], 0)


@pytest.mark.parametrize("where", ["P", "V"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_sampling_rejects_nonfinite_estimates(where, value):
    # clipping a NaN row leaves no mass, and the uniform fallback would hide
    # it in every draw: the first bad sample is named by id instead
    P = np.tile([0.2, 0.3, 0.5], (4, 1))
    V = np.zeros((4, 3, 3))
    if where == "P":
        P[2, 1] = value
    else:
        V[2, 0, 1] = value
    P[3, 0] = np.nan
    with pytest.raises(NonFinite, match="^sample c: proportions or "
                       "covariance contain NaN/Inf$"):
        sample_proportion_sets(P, V, M=3, sample_ids=["a", "b", "c", "d"])
    with pytest.raises(NonFinite, match="^sample 2: "):
        sample_proportion_sets(P, V, M=3)


def test_call_cutoff_values():
    # ceil(M a + 2 sqrt(M a (1 - a))) by hand:
    # M=100, a=0.05: 5 + 2 sqrt(4.75) = 9.359 -> 10
    assert call_cutoff(100, 0.05) == 10
    # M=1000, a=0.05: 50 + 2 sqrt(47.5) = 63.784 -> 64
    assert call_cutoff(1000, 0.05) == 64
    # M=1, a=0.05: 0.05 + 2 sqrt(0.0475) = 0.486 -> 1 (never callable)
    assert call_cutoff(1, 0.05) == 1
    assert call_cutoff(400, 0.10) == 52  # 40 + 2 sqrt(36) = 52


def test_call_cutoff_validation():
    with pytest.raises(ValueError):
        call_cutoff(0, 0.05)
    with pytest.raises(ValueError):
        call_cutoff(100, 0.0)
    with pytest.raises(ValueError):
        call_cutoff(100, 1.0)


def _pvec(hits, M, alpha=0.05):
    """M p-values with exactly `hits` below alpha."""
    return np.concatenate([np.full(hits, alpha / 2),
                           np.full(M - hits, 0.5)])


def test_aggregate_boundary_is_strict():
    # cutoff 10 at M=100, alpha=0.05: 11 hits is called, 10 is not
    pv = {("u1", "t0"): _pvec(11, 100), ("u2", "t0"): _pvec(10, 100)}
    dec = aggregate_calls(pv, alpha=0.05)
    by_unit = {d.unit_id: d for d in dec}
    assert by_unit["u1"].called and by_unit["u1"].hits == 11
    assert not by_unit["u2"].called and by_unit["u2"].hits == 10
    assert all(d.cutoff == 10 and d.total_draws == 100 for d in dec)


def test_aggregate_sorted_and_typed():
    pv = {("b", "1"): _pvec(0, 20), ("a", "1"): _pvec(3, 20),
          ("a", "0"): _pvec(20, 20)}
    dec = aggregate_calls(pv)
    assert [(d.unit_id, d.cell_type) for d in dec] == [
        ("a", "0"), ("a", "1"), ("b", "1")]
    assert all(isinstance(d, CallDecision) for d in dec)
    assert dec[0].called  # 20/20 hits clears cutoff 3 within M=20


def test_aggregate_rejects_bad_pvalues():
    with pytest.raises(ValueError, match="outside"):
        aggregate_calls({("u", "t"): [0.2, -0.1]})
    with pytest.raises(ValueError, match="outside"):
        aggregate_calls({("u", "t"): [0.2, 1.5]})
    with pytest.raises(ValueError, match="outside"):
        aggregate_calls({("u", "t"): [0.2, np.nan]})
    with pytest.raises(DimensionMismatch):
        aggregate_calls({("u", "t"): []})


def _aggregate_loop(pvalues, alpha=0.05):
    """The per-hypothesis loop aggregate_calls replaced: the oracle."""
    decisions = []
    for (unit, ct), ps in sorted(pvalues.items()):
        ps = np.asarray(ps, dtype=float)
        if ps.ndim != 1 or not len(ps):
            raise DimensionMismatch(
                f"p-values for ({unit}, {ct}) must be a nonempty vector")
        if (ps < 0).any() or (ps > 1).any() or not np.isfinite(ps).all():
            raise ValueError(f"p-values for ({unit}, {ct}) outside [0, 1]")
        M = len(ps)
        cut = call_cutoff(M, alpha)
        hits = int((ps < alpha).sum())
        decisions.append(CallDecision(str(unit), str(ct), hits, M, cut,
                                      hits > cut))
    return decisions


def _outcome(fn, pvalues, alpha):
    try:
        return fn(pvalues, alpha)
    except (ValueError, DimensionMismatch) as err:
        return type(err), str(err)


def test_aggregate_matches_the_per_hypothesis_loop():
    rng = np.random.default_rng(23)
    bad_values = [-0.1, 1.5, np.nan, np.inf, -np.inf]
    for trial in range(60):
        n = int(rng.integers(0, 12))
        pv = {}
        for h in range(n):
            M = int(rng.integers(1, 40))
            ps = rng.choice([0.0, 0.01, 0.05, 0.3, 1.0], M) \
                if trial % 2 else rng.uniform(size=M)
            pv[(f"u{rng.integers(0, 5)}", f"t{h}")] = ps
        keys = list(pv)
        for _ in range(int(rng.integers(0, 3)) if keys else 0):
            key = keys[int(rng.integers(len(keys)))]
            if rng.random() < 0.5:
                pv[key] = np.array(pv[key])
                pv[key][int(rng.integers(len(pv[key])))] = \
                    bad_values[int(rng.integers(len(bad_values)))]
            else:
                pv[key] = [] if rng.random() < 0.5 else np.ones((2, 2))
        for alpha in (0.05, 0.3):
            assert _outcome(aggregate_calls, pv, alpha) == \
                _outcome(_aggregate_loop, pv, alpha), (trial, alpha)


def test_null_false_call_rate_matches_binomial_tail():
    # Under the null each draw's p-value is U(0,1), so the hit count is
    # Binomial(M, alpha) and the false-call probability is the exact tail
    # P(X > cutoff). Check the observed rate over many null units against it.
    M, alpha, n_units = 100, 0.05, 4000
    rng = np.random.default_rng(17)
    cut = call_cutoff(M, alpha)
    pv = {(f"u{i:04d}", "t"): rng.uniform(size=M) for i in range(n_units)}
    dec = aggregate_calls(pv, alpha=alpha)
    rate = np.mean([d.called for d in dec])
    p_tail = stats.binom.sf(cut, M, alpha)
    se = np.sqrt(p_tail * (1 - p_tail) / n_units)
    # 3 MC standard errors around the exact tail probability
    assert abs(rate - p_tail) <= 3 * se + 1e-12
