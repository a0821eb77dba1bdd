"""Self-tests of the benchmark in its tiny mode.

    python3 -m pytest -q bench/test_bench.py

They check that every declared metric is emitted with its unit, that the
traced run's self times are consistent, that corrupted outputs are counted
as failed operations, and that the benchmark refuses to run without the
package sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from child import Round  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("fit_genes", "pipeline_samples", "simulate_desk")
COMMAND_METRICS = {"fit_genes": ["deconvolve_s"],
                   "pipeline_samples": ["deconvolve_s", "sample_s", "aggregate_s"],
                   "simulate_desk": ["simulate_s", "replicate_s.decals",
                                     "replicate_s.gls_oracle",
                                     "replicate_s.gls_estimated"]}
# spans every workload must reach, beyond the deconvolve/decals path
REACHED = {"fit_genes": ["covest.cross_validate_lambda.calls", "qp.nearest_psd.calls",
                         "io.read_bulk_tsv.bytes"],
           "pipeline_samples": ["downstream.sample_proportion_sets.calls",
                                "downstream.aggregate_calls.calls",
                                "io.write_draws.bytes", "io.read_pvalues_csv.bytes",
                                "io.load_estimates.calls"],
           "simulate_desk": ["gls.solve_gls.calls", "gls.gls_covariance.calls",
                             "gls.run_gls_iterative.calls", "qp.solve_simplex_normal.calls",
                             "simgen.replicate_dataset.calls"]
                            + [f"simgen.arm.{a}.s" for a in
                               ("ols", "decals", "decals_uncorrected", "gls_oracle",
                                "gls_estimated", "decals_oracle")]}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    printed = {line.split()[0]: line.split()[-1] for line in proc.stdout.splitlines()
               if line and not line.startswith(("==", "{"))}
    for name in COMMAND_METRICS[workload] + ["coverage_gap", "failed_frac"]:
        assert name in printed, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = last_json(proc)
    declared = spec()["per_layer"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    values = {k: v["value"] for k, v in out["metrics"].items()}
    for name, value in values.items():
        if name.endswith(".self_s"):
            assert value <= values[name[:-len("self_s")] + "s"] + 1e-9, name
    for name in ["covest.run_decals.calls", "covest.run_decals.self_s",
                 "qp.solve_simplex_ls.calls", "cli.cmd_" + ("simulate" if workload ==
                                                             "simulate_desk" else
                                                             "deconvolve") + ".s",
                 "trace.spans"] + REACHED[workload]:
        assert values[name] > 0, name
    assert 0.0 <= values["covest.corrected_ratio"] <= 1.0


def test_tracer_self_time_subtracts_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    inner = tracer.wrap("m.leaf", leaf)

    def outer():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("m.outer", outer)()
    tot = tracer.totals()
    calls, s, self_s = tot["m.outer"]
    assert calls == 1 and tot["m.leaf"][0] == 2
    assert s == pytest.approx(self_s + tot["m.leaf"][1])
    assert 0.0 < self_s < s
    assert [rec[4] for rec in tracer.spans] == [-1, 0, 0]


def test_reference_seconds_scale_wall_time_by_the_bracketing_probes(monkeypatch):
    import child
    probes = iter([0.02, 0.04])
    monkeypatch.setattr(child, "probe", lambda: next(probes))
    monkeypatch.setattr(child, "run_cli", lambda argv: (3.0, 0))
    rnd = Round()
    assert rnd.command("deconvolve_s", ["deconvolve"])
    assert rnd.times["deconvolve_s"] == 3.0
    assert rnd.ref_s == pytest.approx(3.0 * child.PROBE_REF_S / 0.03)


def test_generator_is_seeded(tmp_path):
    a = gen.make_inputs(tmp_path / "a", 7, K=3, p=30, n=20, units=4, draws=5)
    b = gen.make_inputs(tmp_path / "b", 7, K=3, p=30, n=20, units=4, draws=5)
    c = gen.make_inputs(tmp_path / "c", 8, K=3, p=30, n=20, units=4, draws=5)
    assert a["sha256"] == b["sha256"]
    assert all(a["sha256"][k] != c["sha256"][k] for k in a["sha256"])


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory):
    """A tiny deconvolve + sample + aggregate run and its generated inputs."""
    from decals import cli
    base = tmp_path_factory.mktemp("pipeline")
    inputs = gen.make_inputs(base / "in", 5, K=3, p=30, n=40, units=6, draws=20)
    files = inputs["files"]
    res, draws, calls = base / "res", base / "draws", base / "calls.csv"
    assert cli.main(["deconvolve", "--signature", files["signature"],
                     "--bulk", files["bulk"], "--out", str(res)]) == 0
    assert cli.main(["sample", "--results", str(res), "--draws", "20",
                     "--out", str(draws)]) == 0
    assert cli.main(["aggregate", "--pvalues", files["pvalues"], "--draws", "20",
                     "--out", str(calls)]) == 0
    truth = dict(np.load(base / "in" / "truth.npz"))
    return base, res, draws, calls, truth


def tally(triples):
    rnd = Round()
    rnd.checks(triples)
    return len(rnd.failures) / rnd.attempted


def run_all_checks(res, draws, calls, truth):
    triples, _ = checks.check_deconvolve(res, truth)
    triples += checks.check_draws(draws, res, 20)
    triples += checks.check_calls(calls, truth["pvalues"],
                                  [f"u{u:05d}" for u in range(6)],
                                  [f"ct{k}" for k in range(3)], 0.05)
    return triples


def edit_file(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def test_clean_outputs_pass(pipeline_outputs):
    base, res, draws, calls, truth = pipeline_outputs
    assert tally(run_all_checks(res, draws, calls, truth)) == 0.0


def off_simplex(lines):
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    return [lines[0], ",".join(cells)] + lines[2:]


def test_proportions_off_the_simplex_count_as_failed(pipeline_outputs, tmp_path):
    base, res, draws, calls, truth = pipeline_outputs
    shutil.copytree(res, tmp_path / "res")
    edit_file(tmp_path / "res" / "proportions.csv", off_simplex)
    triples = run_all_checks(tmp_path / "res", draws, calls, truth)
    assert not dict((n, ok) for n, ok, _ in triples)["proportions.simplex"]
    assert tally(triples) > 0.0


def test_draw_edited_after_manifest_counts_as_failed(pipeline_outputs, tmp_path):
    base, res, draws, calls, truth = pipeline_outputs
    shutil.copytree(draws, tmp_path / "draws")
    edit_file(tmp_path / "draws" / "draw_0003.csv", off_simplex)
    triples = run_all_checks(res, tmp_path / "draws", calls, truth)
    failed = {n for n, ok, _ in triples if not ok}
    assert failed == {"draw_0003.csv.sha256", "draw_0003.csv.simplex"}
    assert tally(triples) > 0.0


def test_flipped_call_counts_as_failed(pipeline_outputs, tmp_path):
    base, res, draws, calls, truth = pipeline_outputs
    flipped = tmp_path / "calls.csv"
    shutil.copy(calls, flipped)
    edit_file(flipped, lambda lines: lines[:1] + [
        lines[1][:-5] + "true" if lines[1].endswith("false")
        else lines[1][:-4] + "false"] + lines[2:])
    triples = run_all_checks(res, draws, flipped, truth)
    assert not dict((n, ok) for n, ok, _ in triples)["calls.recomputed"]


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fit_genes", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
