"""End-to-end CLI tests driving main(argv) in process.

A noiseless signature/bulk fixture gives an exact recovery oracle for the
deconvolve round trip; sample/aggregate are checked against hand-built
draw and p-value files; simulate is exercised at tiny replicate counts and
checked for byte-level determinism.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from decals import cli
from decals.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main


def _fmt(v):
    return format(float(v), ".17g")


def _write_tsv(path, header, ids, values):
    lines = ["\t".join(header)]
    for gid, row in zip(ids, values):
        lines.append("\t".join([gid] + [_fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def noiseless_data(tmp_path_factory):
    """Signature + bulk TSVs with Y = W P^T exactly, plus the true P."""
    root = tmp_path_factory.mktemp("noiseless")
    rng = np.random.default_rng(123)
    p, K, n = 30, 3, 20
    W = rng.uniform(1.0, 5.0, size=(p, K))
    P = rng.dirichlet([4.0, 3.0, 2.0], size=n)
    Y = W @ P.T
    genes = [f"g{j:03d}" for j in range(p)]
    samples = [f"s{i:02d}" for i in range(n)]
    _write_tsv(root / "sig.tsv", ["gene", "A", "B", "C"], genes, W)
    _write_tsv(root / "bulk.tsv", ["gene"] + samples, genes, Y)
    return root, P, samples


def _deconvolve(root, out, extra=()):
    return main(["deconvolve", "--signature", str(root / "sig.tsv"),
                 "--bulk", str(root / "bulk.tsv"), "--out", str(out),
                 *extra])


def test_deconvolve_recovers_noiseless(noiseless_data, tmp_path, capsys):
    root, P, samples = noiseless_data
    out = tmp_path / "res"
    assert _deconvolve(root, out) == EXIT_OK
    for name in ["proportions.csv", "covariances.json", "intervals.csv",
                 "run_meta.json"]:
        assert (out / name).exists()
    lines = (out / "proportions.csv").read_text().splitlines()
    assert lines[0] == "sample_id,A,B,C"
    got = np.array([[float(v) for v in ln.split(",")[1:]]
                    for ln in lines[1:]])
    np.testing.assert_allclose(got, P, atol=1e-8)
    assert [ln.split(",")[0] for ln in lines[1:]] == samples
    # noiseless up to TSV round-off: uncertainty collapses to ~0
    covs = json.loads((out / "covariances.json").read_text())
    assert np.abs(np.array(covs["covariances"])).max() < 1e-10
    msg = capsys.readouterr().out
    assert "20 samples over 30 genes" in msg
    assert "A" in msg and "converged" in msg


def test_deconvolve_is_deterministic(noiseless_data, tmp_path):
    root, _, _ = noiseless_data
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _deconvolve(root, out1) == EXIT_OK
    assert _deconvolve(root, out2) == EXIT_OK
    for name in ["proportions.csv", "covariances.json", "intervals.csv"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "run_meta.json").read_text())
    m2 = json.loads((out2 / "run_meta.json").read_text())
    m1.pop("timestamp"), m2.pop("timestamp")
    assert m1 == m2


def test_deconvolve_interval_levels(noiseless_data, tmp_path):
    root, _, _ = noiseless_data
    out = tmp_path / "lvl"
    assert _deconvolve(root, out, ["--level", "0.8"]) == EXIT_OK
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["options"]["level"] == 0.8
    assert len(meta["trace"]) == meta["iterations"]
    for entry in meta["trace"]:
        assert sorted(entry) == ["delta", "path"]
        assert entry["path"] in ("corrected", "raw")
        assert entry["delta"] >= 0.0
    lines = (out / "intervals.csv").read_text().splitlines()
    assert lines[0] == "sample_id,cell_type,estimate,lower,upper"
    assert len(lines) == 1 + 20 * 3


def test_deconvolve_records_each_warning_once(tmp_path, capsys):
    rng = np.random.default_rng(124)
    p, n = 30, 20
    W = rng.uniform(1.0, 5.0, size=(p, 3))
    Y = W @ rng.dirichlet([4.0, 3.0, 2.0], size=n).T \
        + rng.normal(0, 0.5, (p, n))
    genes = [f"g{j:03d}" for j in range(p)]
    _write_tsv(tmp_path / "sig.tsv", ["gene", "A", "B", "C"], genes, W)
    _write_tsv(tmp_path / "bulk.tsv",
               ["gene"] + [f"s{i:02d}" for i in range(n)], genes, Y)
    out = tmp_path / "res"
    assert _deconvolve(tmp_path, out, ["--max-iter", "1"]) == EXIT_OK
    err = capsys.readouterr().err
    recorded = json.loads((out / "run_meta.json").read_text())["warnings"]
    assert any(m.startswith("no convergence after 1 iterations")
               for m in recorded)
    assert len(set(recorded)) == len(recorded)
    assert err.splitlines() == [f"warning: {m}" for m in recorded]


@pytest.mark.parametrize("extra, cause", [
    (["--scad-lambda", "0.1", "0.2"], "lambdas has shape (2,)"),
    (["--scad-lambda", "0.1", "0.2", "0.3", "0.4"], "lambdas has shape (4,)"),
    (["--scad-lambda", "0.1", "-0.2", "0.3"], "lambdas must be"),
    (["--level", "1.5"], "--level must be in (0, 1)"),
    (["--seed", "-1"], "--seed must be >= 0"),
    (["--tol", "nan"], "--tol must be > 0, got nan"),
    (["--tol", "-1"], "--tol must be > 0, got -1.0"),
])
def test_deconvolve_rejects_bad_options_before_writing(
        noiseless_data, tmp_path, capsys, extra, cause):
    root, _, _ = noiseless_data
    out = tmp_path / "res"
    assert _deconvolve(root, out, extra) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and cause in err
    assert not out.exists() or not any(out.iterdir())


def test_deconvolve_rejects_disjoint_genes(noiseless_data, tmp_path, capsys):
    root, _, _ = noiseless_data
    bad = tmp_path / "bad_bulk.tsv"
    bad.write_text("gene\ts1\nh000\t1.0\nh001\t2.0\n")
    code = main(["deconvolve", "--signature", str(root / "sig.tsv"),
                 "--bulk", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and "h000" in err


def test_deconvolve_reports_parse_location(noiseless_data, tmp_path, capsys):
    root, _, _ = noiseless_data
    bad = tmp_path / "broken.tsv"
    bad.write_text("gene\ts1\ng000\tnot_a_number\n")
    code = main(["deconvolve", "--signature", str(root / "sig.tsv"),
                 "--bulk", str(bad), "--out", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["sig.tsv", "bulk.tsv"])
def test_deconvolve_names_a_non_utf8_input(noiseless_data, tmp_path, capsys,
                                           bad):
    root, _, _ = noiseless_data
    for name in ("sig.tsv", "bulk.tsv"):
        data = (root / name).read_bytes()
        if name == bad:                 # a gene id with a byte 0xff
            data = data.replace(b"g001", b"g\xff01")
        (tmp_path / name).write_bytes(data)
    out = tmp_path / "res"
    assert _deconvolve(tmp_path, out) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {tmp_path / bad}: not valid UTF-8 (byte 0xff: invalid "
        "start byte)\n")
    assert not out.exists()


def test_sample_zero_covariance_draws(noiseless_data, tmp_path, capsys):
    root, P, samples = noiseless_data
    res = tmp_path / "res"
    assert _deconvolve(root, res) == EXIT_OK
    draws_dir = tmp_path / "draws"
    code = main(["sample", "--results", str(res), "--draws", "3",
                 "--seed", "4", "--out", str(draws_dir)])
    assert code == EXIT_OK
    manifest = json.loads((draws_dir / "manifest.json").read_text())
    assert manifest["M"] == 3 and manifest["seed"] == 4
    assert manifest["sample_ids"] == samples
    assert manifest["cell_types"] == ["A", "B", "C"]
    assert len(manifest["files"]) == 3
    for entry in manifest["files"]:
        blob = (draws_dir / entry["name"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    # near-zero covariance: every draw reproduces the estimates
    lines = (draws_dir / manifest["files"][2]["name"]).read_text().splitlines()
    got = np.array([[float(v) for v in ln.split(",")[1:]]
                    for ln in lines[1:]])
    np.testing.assert_allclose(got, P, atol=1e-4)
    assert "wrote 3 draw files" in capsys.readouterr().out


def test_deconvolve_linalg_error_is_numerical(noiseless_data, tmp_path,
                                              capsys, monkeypatch):
    # LinAlgError subclasses ValueError but is not an input error
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_decals", broken)
    root, _, _ = noiseless_data
    assert _deconvolve(root, tmp_path / "res") == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical error: Singular")


def test_sample_rejects_negative_seed(noiseless_data, tmp_path, capsys):
    root, _, _ = noiseless_data
    res = tmp_path / "res"
    assert _deconvolve(root, res) == EXIT_OK
    draws_dir = tmp_path / "draws"
    code = main(["sample", "--results", str(res), "--draws", "3",
                 "--seed", "-1", "--out", str(draws_dir)])
    assert code == EXIT_INPUT
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not draws_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["deconvolve", "--signature", "{missing}", "--bulk", "{missing}",
      "--max-iter", "0", "--out", "{out}"], "--max-iter must be >= 1, got 0"),
    (["sample", "--results", "{missing}", "--draws", "0", "--out", "{out}"],
     "--draws must be >= 1, got 0"),
    (["sample", "--results", "{missing}", "--draws", "-3", "--out", "{out}"],
     "--draws must be >= 1, got -3"),
    (["aggregate", "--pvalues", "{missing}", "--draws", "0",
      "--out", "{out}"], "--draws must be >= 1, got 0"),
    (["simulate", "--preset", "fig2", "--replicates", "1",
      "--gls-max-iter", "0", "--out", "{out}"],
     "--gls-max-iter must be >= 1, got 0"),
    (["simulate", "--preset", "fig2", "--replicates", "0", "--out", "{out}"],
     "--replicates must be >= 1, got 0"),
    (["simulate", "--preset", "fig2", "--replicates", "1", "--workers", "0",
      "--out", "{out}"], "--workers must be >= 1, got 0"),
    (["aggregate", "--pvalues", "{missing}", "--alpha", "5",
      "--out", "{out}"], "--alpha must be in (0, 1), got 5.0"),
    (["simulate", "--preset", "fig2", "--replicates", "1", "--seed", "-1",
      "--out", "{out}"], "--seed must be >= 0, got -1"),
], ids=["deconvolve-max-iter", "sample-draws-0", "sample-draws-negative",
        "aggregate-draws", "simulate-gls-max-iter", "simulate-replicates",
        "simulate-workers", "aggregate-alpha", "simulate-seed"])
def test_count_options_rejected_before_reading_or_writing(
        tmp_path, capsys, argv, message):
    # the inputs do not exist: reading any of them would be a file error
    out = tmp_path / "out"
    argv = [a.format(missing=tmp_path / "missing", out=out) for a in argv]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_decals_workers_stops_only_simulate(tmp_path, capsys,
                                                      monkeypatch, value):
    monkeypatch.setenv("DECALS_WORKERS", value)
    pv = tmp_path / "pv.csv"
    pv.write_text("")
    assert main(["aggregate", "--pvalues", str(pv),
                 "--out", str(tmp_path / "calls.csv")]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "sim"
    assert main(["simulate", "--preset", "fig4", "--replicates", "1",
                 "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == ("error: DECALS_WORKERS must be an integer >= 1, "
                   f"got {value!r}\n")
    assert not out.exists()


def test_sample_refuses_half_written_results(noiseless_data, tmp_path,
                                             capsys):
    # a deconvolve that stopped before its last file leaves no run_meta.json
    root, _, _ = noiseless_data
    res = tmp_path / "res"
    assert _deconvolve(root, res) == EXIT_OK
    (res / "run_meta.json").unlink()
    draws_dir = tmp_path / "draws"
    code = main(["sample", "--results", str(res), "--draws", "3",
                 "--out", str(draws_dir)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run_meta.json is missing" in err
    assert not draws_dir.exists()


@pytest.mark.parametrize("cell", ["proportion", "covariance"])
def test_sample_rejects_a_nonfinite_estimate(noiseless_data, tmp_path, capsys,
                                            cell):
    # a nan in proportions.csv or a null in covariances.json once came out
    # as uniform draws with exit 0
    root, _, _ = noiseless_data
    res = tmp_path / "res"
    assert _deconvolve(root, res) == EXIT_OK
    if cell == "proportion":
        path = res / "proportions.csv"
        lines = path.read_text().splitlines()
        fields = lines[4].split(",")
        lines[4] = ",".join(fields[:2] + ["nan"] + fields[3:])
        path.write_text("\n".join(lines) + "\n")
    else:
        path = res / "covariances.json"
        obj = json.loads(path.read_text())
        obj["covariances"][3][0][1] = None
        path.write_text(json.dumps(obj))
    draws_dir = tmp_path / "draws"
    code = main(["sample", "--results", str(res), "--draws", "3",
                 "--out", str(draws_dir)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: sample s03: proportions or covariance contain NaN/Inf\n")
    assert not draws_dir.exists()


def test_deconvolve_rejects_a_repeated_sample_id(noiseless_data, tmp_path,
                                                 capsys):
    root, _, _ = noiseless_data
    lines = (root / "bulk.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    header[4] = header[3]                     # s02 twice
    (tmp_path / "bulk.tsv").write_text(
        "\n".join(["\t".join(header)] + lines[1:]) + "\n")
    (tmp_path / "sig.tsv").write_bytes((root / "sig.tsv").read_bytes())
    out = tmp_path / "res"
    assert _deconvolve(tmp_path, out) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: duplicate sample id 's02' in bulk matrix\n")
    assert not out.exists()


def test_sample_missing_results_dir(tmp_path, capsys):
    code = main(["sample", "--results", str(tmp_path / "nope"),
                 "--draws", "2", "--out", str(tmp_path / "d")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def _write_pvalues(path, spec):
    """spec: list of (unit, cell_type, hit_count, M)."""
    lines = ["draw_index,unit_id,cell_type,p_value"]
    for unit, ct, hits, M in spec:
        for m in range(M):
            pv = 0.01 if m < hits else 0.5
            lines.append(f"{m},{unit},{ct},{pv}")
    path.write_text("\n".join(lines) + "\n")


def test_aggregate_boundary_calls(tmp_path, capsys):
    pv = tmp_path / "pv.csv"
    _write_pvalues(pv, [("u_called", "A", 11, 100),
                        ("u_not", "A", 10, 100)])
    out = tmp_path / "calls.csv"
    code = main(["aggregate", "--pvalues", str(pv), "--alpha", "0.05",
                 "--draws", "100", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "unit_id,cell_type,hit_count,cutoff,called"
    assert "u_called,A,11,10,true" in lines
    assert "u_not,A,10,10,false" in lines
    assert "2 hypotheses, 1 called" in capsys.readouterr().out


def test_aggregate_draw_count_mismatch(tmp_path, capsys):
    pv = tmp_path / "pv.csv"
    _write_pvalues(pv, [("u1", "A", 5, 50)])
    code = main(["aggregate", "--pvalues", str(pv), "--draws", "100",
                 "--out", str(tmp_path / "calls.csv")])
    assert code == EXIT_INPUT
    assert "expected 100" in capsys.readouterr().err


def test_aggregate_rejects_repeated_draw_index(tmp_path, capsys):
    # two rows for draw 0 must not pass as two draws
    pv = tmp_path / "pv.csv"
    pv.write_text("draw_index,unit_id,cell_type,p_value\n"
                  "0,u1,A,0.01\n0,u1,A,0.01\n")
    out = tmp_path / "calls.csv"
    code = main(["aggregate", "--pvalues", str(pv), "--draws", "2",
                 "--out", str(out)])
    assert code == EXIT_INPUT
    assert "line 3: duplicate draw_index 0" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_empty_pvalue_file(tmp_path, capsys):
    pv = tmp_path / "pv.csv"
    pv.write_text("")
    out = tmp_path / "calls.csv"
    code = main(["aggregate", "--pvalues", str(pv), "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_text().splitlines() == [
        "unit_id,cell_type,hit_count,cutoff,called"]
    assert "0 hypotheses, 0 called" in capsys.readouterr().out


def test_simulate_fig4_smoke(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--preset", "fig4", "--scale", "desk",
                 "--replicates", "2", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    for tag in ["ols", "decals"]:
        rep = json.loads((out / f"report_{tag}.json").read_text())
        assert rep["method"] == tag
        cov = np.array(rep["coverage"], dtype=float)
        assert cov.shape == (3,) and ((cov >= 0) & (cov <= 1)).all()
        cov_lines = (out / f"coverage_{tag}.csv").read_text().splitlines()
        assert cov_lines[0] == "method,cell_type,replicate,coverage,mean_width"
        assert len(cov_lines) == 1 + 2 * 3
    plot = (out / "plot_fig4.csv").read_text().splitlines()
    assert plot[0].startswith("preset,method,noise_a0")
    assert len(plot) == 1 + 2 * 3
    table = capsys.readouterr().out
    assert "ols" in table and "decals" in table


def test_simulate_rejects_bad_level_before_writing(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--preset", "fig4", "--replicates", "1",
                 "--level", "1.5", "--out", str(out)])
    assert code == EXIT_INPUT
    assert "--level must be in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_is_deterministic(tmp_path):
    outs = []
    for tag in ["a", "b"]:
        out = tmp_path / tag
        code = main(["simulate", "--preset", "fig4", "--scale", "desk",
                     "--replicates", "1", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        outs.append(out)
    for name in ["report_ols.json", "report_decals.json", "plot_fig4.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_verror_smoke(tmp_path, capsys):
    out = tmp_path / "verr"
    code = main(["simulate", "--preset", "tableS1", "--replicates", "1",
                 "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    table = json.loads((out / "verror.json").read_text())
    assert [r["method"] for r in table["rows"]].count("decals") == 4
    rows = (out / "verror.csv").read_text().splitlines()
    assert rows[0] == "p,signature_sd,method,entry,mean,se"
    # 8 rows x 6 upper-triangle entries
    assert len(rows) == 1 + 8 * 6
    assert "decals" in capsys.readouterr().out



def test_simulate_verror_is_independent_of_workers(tmp_path, capsys):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        code = main(["simulate", "--preset", "tableS1", "--replicates", "1",
                     "--seed", "4", "--workers", workers, "--out", str(out)])
        assert code == EXIT_OK
        outs.append(out)
    for name in ["verror.json", "verror.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

def test_version_and_usage():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_public_names_resolve_and_removed_names_are_gone():
    import decals
    for name in decals.__all__:
        assert getattr(decals, name, None) is not None, name
    removed = {"ProportionEstimate", "confidence_intervals",
               "theorem1_covariance", "bias_terms", "BiasTerms",
               "CtsCovarianceSet", "cts_covariance_raw", "kkt_residual",
               "solve_equality_ls", "cts_covariance_corrected"}
    assert not removed & set(decals.__all__)
    assert not [n for n in removed if hasattr(decals, n)]
