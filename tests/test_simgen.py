"""Generators and the coverage harness: exact structure, seeded MC moments."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import one_sandwich
from decals import simgen
from decals.deconv import SignatureMatrix, sandwich, wald_intervals
from decals.errors import DimensionMismatch, DivisibilityError
from decals.simgen import (METHODS, SimConfig, block_correlations,
                           coverage_experiment, perturb_signature,
                           replicate_dataset, replicate_rng, sample_dirichlet,
                           sample_gaussian_profiles, synthesize_bulk,
                           v_error_study)


def test_block_correlations_exact_entries():
    R = block_correlations(6, 3)
    assert R.shape == (3, 6, 6)
    cs = np.array([[1.0, 0.3], [0.3, 1.0]])
    decay = np.array([[1.0, 0.7], [0.7, 1.0]])
    # type k has the compound-symmetry block in position k
    for k in range(3):
        for b in range(3):
            blk = R[k, 2 * b:2 * b + 2, 2 * b:2 * b + 2]
            assert_allclose(blk, cs if b == k else decay, atol=0)
    # off-block entries vanish
    assert_allclose(R[0, 0:2, 2:6], 0.0, atol=0)


def test_block_correlations_decay_profile():
    R = block_correlations(9, 3)
    # decay block: 0.7 * 0.9^(d-1) at distance d
    blk = R[0, 3:6, 3:6]
    assert_allclose(blk[0, 1], 0.7, atol=1e-15)
    assert_allclose(blk[0, 2], 0.7 * 0.9, atol=1e-15)
    w = np.linalg.eigvalsh(R.reshape(-1, 9, 9))
    assert w.min() > 0                       # all blocks are proper correlations


def test_block_divisibility_error():
    with pytest.raises(DivisibilityError):
        block_correlations(7, 3)
    with pytest.raises(DivisibilityError):
        SimConfig(p=100, K=3)


def test_dirichlet_mean():
    rng = np.random.default_rng(0)
    P = sample_dirichlet([3, 2, 1], 20000, rng)
    assert P.shape == (20000, 3)
    assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    # component SD < 0.25, so the mean is within ~0.006 at 3 sigma
    assert_allclose(P.mean(axis=0), [0.5, 1 / 3, 1 / 6], atol=0.01)


def test_gaussian_profiles_moments():
    rng = np.random.default_rng(1)
    S = 2.0 * block_correlations(6, 3)[0]
    w = np.array([5.0, -1.0, 2.0, 0.0, 3.0, 1.0])
    X = sample_gaussian_profiles(w, S, 40000, rng)
    # SE of means is sqrt(2)/200 ~ 0.007; covariance entries ~ 0.02
    assert_allclose(X.mean(axis=0), w, atol=0.05)
    assert_allclose(np.cov(X.T), S, atol=0.1)


def test_gaussian_profiles_rank_deficient_ok():
    rng = np.random.default_rng(2)
    S = np.ones((3, 3))                      # PSD, rank one
    X = sample_gaussian_profiles(np.zeros(3), S, 2000, rng)
    d = X - X[:, [0]]
    # eigen-root keeps sqrt(eps)-size noise in the null directions
    assert np.abs(d).max() < 1e-6            # all coordinates move together


def test_perturb_signature():
    rng = np.random.default_rng(5)
    W = rng.normal(0, 1, (2000, 3))
    Wn = perturb_signature(W, 0.5, rng)
    d = (Wn - W).ravel()
    assert abs(d.std() - 0.5) < 0.02         # 3 SE at 6000 draws is ~0.014
    assert abs(d.mean()) < 0.03
    assert perturb_signature(W, 0.0, rng) is W
    sig = SignatureMatrix(W[:5], [f"g{i}" for i in range(5)], ["a", "b", "c"])
    out = perturb_signature(sig, 0.1, rng)
    assert isinstance(out, SignatureMatrix)
    assert out.gene_ids == sig.gene_ids


def test_synthesize_bulk_loop_oracle():
    rng = np.random.default_rng(6)
    K, n, p = 3, 4, 5
    P = rng.dirichlet([1, 1, 1], n)
    X = rng.normal(0, 1, (K, n, p))
    Y = synthesize_bulk(P, X)
    for i in range(n):
        ref = sum(P[i, k] * X[k, i] for k in range(K))
        assert_allclose(Y[:, i], ref, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        synthesize_bulk(P, X[:, :2])


def test_replicate_rng_substreams():
    a = replicate_rng(3, 7).standard_normal(5)
    b = replicate_rng(3, 7).standard_normal(5)
    c = replicate_rng(3, 8).standard_normal(5)
    d = replicate_rng(4, 7).standard_normal(5)
    assert_allclose(a, b, atol=0)
    assert not np.allclose(a, c)
    assert not np.allclose(a, d)


def test_replicate_dataset_deterministic_and_shaped():
    cfg = SimConfig(p=30, n=12, replicates=1, seed=5, noise_a0=0.3)
    W1, Wo1, P1, Y1, S1 = replicate_dataset(cfg, replicate_rng(5, 0))
    W2, Wo2, P2, Y2, S2 = replicate_dataset(cfg, replicate_rng(5, 0))
    for x, y in ((W1, W2), (Wo1, Wo2), (P1, P2), (Y1, Y2), (S1, S2)):
        assert_allclose(np.asarray(x), np.asarray(y), atol=0)
    assert W1.shape == (30, 3) and Y1.shape == (30, 12)
    assert not np.allclose(W1, Wo1)          # observed signature is noisy
    assert S1.shape == (3, 30, 30)
    # scale multiplies the correlation blocks
    assert_allclose(np.diag(S1[0]), 10.0, atol=0)


def test_sandwich_matches_single_on_replicate():
    cfg = SimConfig(p=30, n=6, replicates=1, seed=1)
    W, Wo, P, Y, Sig = replicate_dataset(cfg, replicate_rng(1, 0))
    Vs = sandwich(W, Sig, P ** 2) / 30
    for i in range(6):
        Si = np.einsum('k,kab->ab', P[i] ** 2, Sig)
        assert_allclose(Vs[i], one_sandwich(W, Si) / 30, atol=1e-12)


def test_coverage_experiment_determinism_and_subset():
    cfg = SimConfig(p=45, n=40, replicates=3, seed=9)
    r1 = coverage_experiment(cfg, "ols")
    r2 = coverage_experiment(cfg, "ols")
    assert_allclose(r1.per_replicate, r2.per_replicate, atol=0)
    assert_allclose(simgen._replicate_coverage(cfg, "ols", 1, 0.95, None)[0],
                    r1.per_replicate[1], atol=0)
    par = coverage_experiment(cfg, "ols", workers=2)
    assert_allclose(par.per_replicate, r1.per_replicate, atol=0)
    assert 0.0 <= r1.overall_coverage <= 1.0
    q = r1.replicate_quantiles()
    assert len(q[0.5]) == 3
    d = r1.to_dict()
    assert d["config"]["p"] == 45 and len(d["per_replicate"]) == 3


def _count_datasets(monkeypatch):
    """Record every replicate_dataset call the harness makes."""
    calls = []
    make = simgen.replicate_dataset
    monkeypatch.setattr(simgen, "replicate_dataset", lambda config, rng: (
        calls.append(config) or make(config, rng)))
    return calls


@pytest.mark.parametrize("workers", [0, -3],
                         ids=["direct-zero", "direct-negative"])
def test_worker_counts_below_one_are_rejected(monkeypatch, workers):
    # refused before any job runs, not by a fallback to a serial run
    calls = _count_datasets(monkeypatch)
    message = f"workers must be >= 1, got {workers}"
    with pytest.raises(ValueError) as err:
        coverage_experiment(SimConfig(p=30, n=20, replicates=1), "ols",
                            workers=workers)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        v_error_study(p_values=(30,), signature_sds=(1.0,), n=20,
                      replicates=1, workers=workers)
    assert str(err.value) == message
    assert calls == []


@pytest.mark.parametrize("method, options, error, message", [
    ("gls_estimated", {"max_iter": 1}, ValueError,
     "max_iter must be at least 2, got 1"),
    ("gls_estimated", {"tol": 1e-4}, TypeError, "'tol'"),
    ("decals", {"max_iter": 0}, ValueError,
     "max_iter must be at least 1, got 0"),
    ("decals", {"sparse_typo": True}, TypeError, "'sparse_typo'"),
    ("decals_uncorrected", {"tol": float("nan")}, ValueError,
     "tol must be > 0, got nan"),
    ("decals", {"lambdas": [0.1, 0.1]}, DimensionMismatch,
     "lambdas has shape (2,)"),
    ("ols", {"max_iter": 2}, TypeError, "method 'ols' takes no options"),
    ("decals_oracle", {"correct": False}, TypeError,
     "method 'decals_oracle' takes no options"),
    ("gls_oracle", {"max_iter": 2}, TypeError,
     "method 'gls_oracle' takes no options"),
])
def test_method_options_are_refused_before_any_replicate(
        monkeypatch, method, options, error, message):
    # the fit's own checks, run once up front: no dataset is generated and
    # no job is handed to the worker pool
    calls = _count_datasets(monkeypatch)
    jobs = []
    monkeypatch.setattr(simgen, "_map_jobs", lambda *args: jobs.append(args))
    with pytest.raises(error) as err:
        coverage_experiment(SimConfig(p=30, n=20, replicates=3), method,
                            workers=2, method_options=options)
    assert message in str(err.value)
    assert calls == [] and jobs == []


@pytest.mark.parametrize("method", METHODS)
def test_every_method_runs_the_benchmark_warm_up(method):
    # the warm-up call the simulate benchmark makes for each method
    rep = coverage_experiment(
        SimConfig(p=30, n=40, replicates=1), method, workers=1,
        method_options={"max_iter": 2} if method == "gls_estimated" else None)
    assert rep.method == method and rep.per_replicate.shape == (1, 3)


def test_coverage_experiment_records_failures():
    # n too small for cross-validation: every replicate fails, none fatal
    cfg = SimConfig(p=45, n=12, replicates=2, seed=0)
    rep = coverage_experiment(cfg, "decals")
    assert len(rep.failures) == 2
    assert np.isnan(rep.coverage).all()
    assert "InsufficientSamples" in rep.failures[0]


def test_coverage_experiment_records_linalg_failures(monkeypatch):
    # a stray LinAlgError in one replicate is recorded, not fatal
    cfg = SimConfig(p=30, n=20, replicates=2, seed=0)
    first_y = replicate_dataset(cfg, replicate_rng(0, 0))[3][0, 0]
    fit = simgen._fit_estimates

    def flaky(method, Wobs, Y, P, Sig, options):
        if Y[0, 0] == first_y:               # replicate 0 only
            raise np.linalg.LinAlgError("Singular matrix")
        return fit(method, Wobs, Y, P, Sig, options)

    monkeypatch.setattr(simgen, "_fit_estimates", flaky)
    rep = coverage_experiment(cfg, "ols")
    assert rep.failures == ["replicate 0: LinAlgError: Singular matrix"]
    assert np.isnan(rep.per_replicate[0]).all()
    assert not np.isnan(rep.per_replicate[1]).any()


def test_coverage_experiment_rejects_unknown_method():
    with pytest.raises(ValueError):
        coverage_experiment(SimConfig(p=30, n=20, replicates=1), "magic")


def test_v_error_study_rejects_an_unknown_method_before_any_fit(
        monkeypatch):
    # checked up front, with coverage_experiment's message, not once the
    # first replicate's other fits have run
    calls = []
    monkeypatch.setattr(simgen, "_fit_estimates",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError) as want:
        coverage_experiment(SimConfig(p=30, n=20, replicates=1), "magic")
    with pytest.raises(ValueError) as got:
        v_error_study(methods=("decals", "magic"), p_values=(30,),
                      signature_sds=(1.0,), n=20, replicates=1)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("unknown method 'magic'; expected one ")
    assert calls == []


@pytest.mark.parametrize("level", [1.5, 0.0, float("nan")])
def test_coverage_experiment_rejects_a_bad_level_before_any_fit(
        monkeypatch, level):
    # checked up front, with wald_intervals' message, not once the first
    # replicate has been fitted
    calls = []
    monkeypatch.setattr(simgen, "_fit_estimates",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError) as want:
        wald_intervals(np.zeros(1), np.zeros(1), level)
    with pytest.raises(ValueError) as got:
        coverage_experiment(SimConfig(p=30, n=20, replicates=1), "decals",
                            level=level)
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"level must be in (0,1), got {level}"
    assert calls == []


def test_v_error_study_structure():
    table = v_error_study(p_values=(30,), signature_sds=(1.0,),
                          n=40, replicates=2, seed=3)
    assert table.entries == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(table.rows) == 2              # decals and ols
    row = next(r for r in table.rows if r.method == "decals")
    assert (row.p, row.signature_sd) == (30, 1.0)
    assert row.means.shape == (6,)
    assert (row.means > 0).all() and np.isfinite(row.ses).all()
    d = table.to_dict()
    assert len(d["rows"]) == 2
