"""Tests for file parsing and result serialization.

Round trips are checked at near machine precision (the writers keep 15-17
significant digits), parse failures must carry file/line/column context, and
draw manifests must list files whose sha256 matches what is on disk.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from decals.deconv import ProportionEstimate
from decals.downstream import CallDecision, ProportionDrawSet
from decals.errors import ParseError
from decals.io import (
    PVALUE_HEADER,
    atomic_write_text,
    fmt_csv,
    load_estimates,
    read_bulk_tsv,
    read_covariances_json,
    read_proportions_csv,
    read_pvalues_csv,
    read_signature_tsv,
    write_calls_csv,
    write_covariances_json,
    write_draws,
    write_intervals_csv,
    write_json,
    write_proportions_csv,
)


def test_fmt_csv_round_trip():
    # 15 significant digits: relative round-trip error below 1e-14
    vals = [1 / 3, np.pi, 1e-30, 123456.789, -0.01]
    for v in vals:
        assert abs(float(fmt_csv(v)) - v) <= 1e-14 * abs(v)
    assert fmt_csv(0.0) == "0.00000000000000e+00"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]
    # overwrite in place
    atomic_write_text(str(target), "bye\n")
    assert target.read_text() == "bye\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


def test_write_json_precision_and_nonfinite(tmp_path):
    path = tmp_path / "x.json"
    write_json(str(path), {"a": 1 / 3, "b": [np.inf, np.nan, 2], "c": True,
                           "d": np.arange(3)})
    obj = json.loads(path.read_text())
    assert obj["a"] == 1 / 3  # 17 significant digits round-trips doubles
    assert obj["b"] == [None, None, 2]
    assert obj["c"] is True
    assert obj["d"] == [0, 1, 2]


def test_signature_tsv_round_trip(tmp_path):
    path = tmp_path / "sig.tsv"
    path.write_text("gene\tA\tB\ng1\t1.5\t2.0\ng2\t0.25\t-3.0\n")
    sig = read_signature_tsv(str(path))
    assert sig.gene_ids == ["g1", "g2"]
    assert sig.cell_types == ["A", "B"]
    np.testing.assert_allclose(sig.values, [[1.5, 2.0], [0.25, -3.0]], atol=0)


def test_bulk_tsv_single_sample(tmp_path):
    path = tmp_path / "bulk.tsv"
    path.write_text("gene\ts1\ng1\t4.0\ng2\t5.5\n")
    bulk = read_bulk_tsv(str(path))
    assert bulk.sample_ids == ["s1"]
    np.testing.assert_allclose(bulk.values, [[4.0], [5.5]], atol=0)


def test_tsv_parse_errors_carry_context(tmp_path):
    bad_field = tmp_path / "a.tsv"
    bad_field.write_text("gene\tA\tB\ng1\t1.0\toops\n")
    with pytest.raises(ParseError, match=r"line 2, column 3.*oops"):
        read_signature_tsv(str(bad_field))

    short_row = tmp_path / "b.tsv"
    short_row.write_text("gene\tA\tB\ng1\t1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_signature_tsv(str(short_row))

    no_header = tmp_path / "c.tsv"
    no_header.write_text("")
    with pytest.raises(ParseError, match="line 1"):
        read_signature_tsv(str(no_header))

    no_rows = tmp_path / "d.tsv"
    no_rows.write_text("gene\tA\tB\n")
    with pytest.raises(ParseError, match="no data rows"):
        read_signature_tsv(str(no_rows))

    with pytest.raises(ParseError):
        read_signature_tsv(str(tmp_path / "missing.tsv"))


def test_proportions_csv_round_trip(tmp_path):
    path = tmp_path / "p.csv"
    P = np.array([[1 / 3, 1 / 3, 1 / 3], [0.123456789012345, 0.5, 0.7]])
    write_proportions_csv(str(path), ["s1", "s2"], ["A", "B", "C"], P)
    ids, cts, back = read_proportions_csv(str(path))
    assert ids == ["s1", "s2"]
    assert cts == ["A", "B", "C"]
    np.testing.assert_allclose(back, P, rtol=1e-14, atol=0)


def test_proportions_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong_header,A\ns1,0.5\n")
    with pytest.raises(ParseError, match="sample_id"):
        read_proportions_csv(str(bad))
    nonnum = tmp_path / "nn.csv"
    nonnum.write_text("sample_id,A\ns1,xyz\n")
    with pytest.raises(ParseError, match="line 2"):
        read_proportions_csv(str(nonnum))


def test_covariances_json_round_trip(tmp_path):
    path = tmp_path / "cov.json"
    rng = np.random.default_rng(0)
    covs = [rng.standard_normal((3, 3)) for _ in range(2)]
    covs = [C @ C.T for C in covs]
    write_covariances_json(str(path), ["s1", "s2"], ["A", "B", "C"], covs)
    ids, cts, back = read_covariances_json(str(path))
    assert ids == ["s1", "s2"] and cts == ["A", "B", "C"]
    np.testing.assert_allclose(back, np.array(covs), rtol=1e-15, atol=1e-300)


def test_covariances_json_errors(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ParseError, match="line 1"):
        read_covariances_json(str(broken))
    missing_key = tmp_path / "mk.json"
    missing_key.write_text('{"cell_types": ["A"]}')
    with pytest.raises(ParseError, match="malformed"):
        read_covariances_json(str(missing_key))
    bad_shape = tmp_path / "bs.json"
    bad_shape.write_text(json.dumps({
        "cell_types": ["A", "B"], "sample_ids": ["s1"],
        "covariances": [[[1.0]]]}))
    with pytest.raises(ParseError, match="shape"):
        read_covariances_json(str(bad_shape))


def test_load_estimates_round_trip_and_mismatch(tmp_path):
    P = np.array([[0.6, 0.4], [0.2, 0.8]])
    V = np.array([[[0.01, -0.01], [-0.01, 0.01]]] * 2)
    write_proportions_csv(str(tmp_path / "proportions.csv"),
                          ["s1", "s2"], ["A", "B"], P)
    write_covariances_json(str(tmp_path / "covariances.json"),
                           ["s1", "s2"], ["A", "B"], V)
    ests, cts = load_estimates(str(tmp_path))
    assert cts == ["A", "B"]
    assert [e.sample_id for e in ests] == ["s1", "s2"]
    np.testing.assert_allclose(ests[1].proportions, [0.2, 0.8], rtol=1e-14)
    np.testing.assert_allclose(ests[0].covariance, V[0], rtol=1e-14)
    assert all(isinstance(e, ProportionEstimate) for e in ests)

    # covariance file listing different samples must be rejected
    write_covariances_json(str(tmp_path / "covariances.json"),
                           ["s1", "sX"], ["A", "B"], V)
    with pytest.raises(ParseError, match="disagree"):
        load_estimates(str(tmp_path))


def test_intervals_csv_layout(tmp_path):
    path = tmp_path / "iv.csv"
    est = [[0.5, 0.5]]
    lo = [[0.4, 0.45]]
    hi = [[0.6, 0.55]]
    write_intervals_csv(str(path), ["s1"], ["A", "B"], est, lo, hi)
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_id,cell_type,estimate,lower,upper"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:2] == ["s1", "A"]
    assert float(first[2]) == 0.5 and float(first[3]) == 0.4


def test_write_draws_manifest_checksums(tmp_path):
    draws = np.array([[[0.5, 0.5], [0.25, 0.75]],
                      [[0.6, 0.4], [0.3, 0.7]]])
    ds = ProportionDrawSet(draws, ["s1", "s2"], ["A", "B"], seed=7)
    out = tmp_path / "draws"
    mpath = write_draws(str(out), ds)
    manifest = json.loads(open(mpath).read())
    assert manifest["M"] == 2 and manifest["seed"] == 7
    assert manifest["sample_ids"] == ["s1", "s2"]
    assert [f["name"] for f in manifest["files"]] == ["draw_0000.csv",
                                                      "draw_0001.csv"]
    for entry in manifest["files"]:
        blob = open(out / entry["name"], "rb").read()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    # file contents match the draw matrix
    lines = (out / "draw_0001.csv").read_text().splitlines()
    assert lines[0] == "sample_id,A,B"
    row = lines[2].split(",")
    assert row[0] == "s2" and float(row[1]) == 0.3


def test_pvalues_reader_orders_by_draw_index(tmp_path):
    path = tmp_path / "pv.csv"
    path.write_text(",".join(PVALUE_HEADER) + "\n"
                    "1,u1,A,0.2\n"
                    "0,u1,A,0.6\n"
                    "0,u2,A,0.01\n")
    pv = read_pvalues_csv(str(path))
    np.testing.assert_allclose(pv[("u1", "A")], [0.6, 0.2], atol=0)
    np.testing.assert_allclose(pv[("u2", "A")], [0.01], atol=0)


def test_pvalues_reader_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    assert read_pvalues_csv(str(empty)) == {}

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c,d\n")
    with pytest.raises(ParseError, match="expected header"):
        read_pvalues_csv(str(bad_header))

    bad_value = tmp_path / "v.csv"
    bad_value.write_text(",".join(PVALUE_HEADER) + "\n0,u,A,root\n")
    with pytest.raises(ParseError, match="line 2"):
        read_pvalues_csv(str(bad_value))

    out_of_range = tmp_path / "r.csv"
    out_of_range.write_text(",".join(PVALUE_HEADER) + "\n0,u,A,1.2\n")
    with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
        read_pvalues_csv(str(out_of_range))

    short = tmp_path / "s.csv"
    short.write_text(",".join(PVALUE_HEADER) + "\n0,u,A\n")
    with pytest.raises(ParseError, match="4 fields"):
        read_pvalues_csv(str(short))


@pytest.mark.parametrize("indices, line, cause", [
    ([0, 1, 0], 4, "duplicate draw_index 0"),
    ([0, 2], 3, "expected 1, found draw_index 2"),
    ([1, 2], 2, "expected 0, found draw_index 1"),
    ([-1, 0], 2, "expected 0, found draw_index -1"),
])
def test_pvalues_reader_requires_draw_indices_0_to_m(tmp_path, indices, line,
                                                      cause):
    path = tmp_path / "pv.csv"
    path.write_text(",".join(PVALUE_HEADER) + "\n"
                    + "".join(f"{m},u1,A,0.5\n" for m in indices)
                    + "0,u2,B,0.5\n")
    with pytest.raises(ParseError, match=f"line {line}: {cause}") as err:
        read_pvalues_csv(str(path))
    assert "'u1'" in str(err.value) and "'A'" in str(err.value)


def test_calls_csv_layout(tmp_path):
    path = tmp_path / "calls.csv"
    dec = [CallDecision("u1", "A", 12, 100, 10, True),
           CallDecision("u2", "A", 3, 100, 10, False)]
    write_calls_csv(str(path), dec)
    lines = path.read_text().splitlines()
    assert lines[0] == "unit_id,cell_type,hit_count,cutoff,called"
    assert lines[1] == "u1,A,12,10,true"
    assert lines[2] == "u2,A,3,10,false"
