"""Tests for file parsing and result serialization.

Round trips are checked at near machine precision (the writers keep 15-17
significant digits), parse failures must carry file/line/column context, and
draw manifests must list files whose sha256 matches what is on disk.
"""

import csv
import gc
import hashlib
import json
import math
import os
import sys
import warnings
from io import StringIO
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import json_floats_oracle
from decals import io
from decals.downstream import CallDecision, ProportionDrawSet
from decals.errors import NonFinite, ParseError
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
    write_coverage_csv,
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


@pytest.mark.parametrize("reader, text", [
    (read_signature_tsv, "gene\tA\tB\ng1\t1.0\t2.0\ng\udcff\t1.0\t2.0\n"),
    (read_bulk_tsv, "gene\ts1\n" + "g1\t1.0\n" * 3000 + "g\udcff\t2.0\n"),
    (read_proportions_csv, "sample_id,A\ns\udcff,0.5\n"),
    (read_covariances_json, '{"sample_ids": ["s\udcff"]}'),
    # plain blocks, then the byte; a CRLF file with the byte in its first
    # block
    (read_pvalues_csv, "draw_index,unit_id,cell_type,p_value\n"
     + "0,u,A,0.5\n" * 120000 + "0,\udcff,A,0.5\n"),
    (read_pvalues_csv, "draw_index,unit_id,cell_type,p_value\r\n"
     "0,u\udcff,A,0.5\r\n"),
    # the byte and reason are the stream's: 0xc3 is followed by a comma
    (read_pvalues_csv, "draw_index,unit_id,cell_type,p_value\n"
     "0,u,A\udcc3,0.5\n"),
], ids=["signature", "bulk-far-in", "proportions", "covariances",
        "pvalues-plain", "pvalues-crlf", "pvalues-cut-sequence"])
def test_non_utf8_input_names_its_file(tmp_path, reader, text):
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as err:
        reader(str(path))
    byte, reason = ((0xc3, "invalid continuation byte") if "\udcc3" in text
                    else (0xff, "invalid start byte"))
    assert str(err.value) == (f"{path}: not valid UTF-8 (byte {byte:#04x}: "
                              f"{reason})")


@pytest.mark.parametrize("reader, data, message", [
    (read_signature_tsv, None, "No such file or directory"),
    (read_covariances_json, None, "No such file or directory"),
    (read_pvalues_csv, None, "No such file or directory"),
    (read_bulk_tsv, b"gene\ts1\ng1\t1.0\ng\xff2\t2.0\n",
     "not valid UTF-8 (byte 0xff: invalid start byte)"),
    (read_pvalues_csv,
     b"draw_index,unit_id,cell_type,p_value\n0,u\xff,A,0.5\n",
     "not valid UTF-8 (byte 0xff: invalid start byte)"),
], ids=["missing-tsv", "missing-json", "missing-pvalues", "tsv-not-utf8",
        "pvalues-not-utf8"])
def test_file_errors_keep_their_message_and_close_the_file(
        tmp_path, monkeypatch, reader, data, message):
    # one mapping turns every reader's file errors into the ParseError text
    # the CLI prints, and a file it opened is closed on the way out: an
    # unclosed one would warn, as an error, when collected
    path = tmp_path / "in.txt"
    if data is not None:
        path.write_bytes(data)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ParseError) as err:
            reader(str(path))
        got = str(err.value)
        del err
        gc.collect()
    assert got == f"{path}: {message}"
    assert unraisable == []


def test_load_estimates_round_trip_and_mismatch(tmp_path):
    P = np.array([[0.6, 0.4], [0.2, 0.8]])
    V = np.array([[[0.01, -0.01], [-0.01, 0.01]]] * 2)
    write_proportions_csv(str(tmp_path / "proportions.csv"),
                          ["s1", "s2"], ["A", "B"], P)
    write_covariances_json(str(tmp_path / "covariances.json"),
                           ["s1", "s2"], ["A", "B"], V)
    (tmp_path / "run_meta.json").write_text("{}\n")
    ids, cts, P_back, V_back = load_estimates(str(tmp_path))
    assert cts == ["A", "B"]
    assert ids == ["s1", "s2"]
    np.testing.assert_allclose(P_back, P, rtol=1e-14)
    np.testing.assert_allclose(V_back, V, rtol=1e-14)

    # covariance file listing different samples must be rejected
    write_covariances_json(str(tmp_path / "covariances.json"),
                           ["s1", "sX"], ["A", "B"], V)
    with pytest.raises(ParseError, match="disagree"):
        load_estimates(str(tmp_path))


def test_load_estimates_requires_run_meta(tmp_path):
    # deconvolve writes run_meta.json last: without it the run is incomplete
    write_proportions_csv(str(tmp_path / "proportions.csv"), ["s1"],
                          ["A", "B"], np.array([[0.6, 0.4]]))
    write_covariances_json(str(tmp_path / "covariances.json"), ["s1"],
                           ["A", "B"], np.zeros((1, 2, 2)))
    with pytest.raises(ParseError, match="run_meta.json is missing"):
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
    with open(mpath) as fh:
        manifest = json.load(fh)
    assert manifest["M"] == 2 and manifest["seed"] == 7
    assert manifest["sample_ids"] == ["s1", "s2"]
    assert [f["name"] for f in manifest["files"]] == ["draw_0000.csv",
                                                      "draw_0001.csv"]
    for entry in manifest["files"]:
        with open(out / entry["name"], "rb") as fh:
            blob = fh.read()
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


# --- oracles: the cell-at-a-time writers and the row-at-a-time reader that
# the columnar IO replaced; the columnar code must match them byte for byte

def _oracle_csv_text(rows):
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _oracle_json(obj):
    if isinstance(obj, float):
        return format(obj, ".16e") if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, list):
        return "[" + ", ".join(_oracle_json(v) for v in obj) + "]"
    return "{" + ", ".join(json.dumps(k) + ": " + _oracle_json(v)
                           for k, v in obj.items()) + "}"


def _oracle_proportions(sample_ids, cell_types, P):
    rows = [["sample_id"] + list(cell_types)]
    for sid, row in zip(sample_ids, np.asarray(P, dtype=float)):
        rows.append([str(sid)] + [fmt_csv(v) for v in row])
    return _oracle_csv_text(rows)


def _oracle_intervals(sample_ids, cell_types, est, lo, hi):
    rows = [["sample_id", "cell_type", "estimate", "lower", "upper"]]
    for i, sid in enumerate(sample_ids):
        for k, ct in enumerate(cell_types):
            rows.append([str(sid), str(ct), fmt_csv(est[i][k]),
                         fmt_csv(lo[i][k]), fmt_csv(hi[i][k])])
    return _oracle_csv_text(rows)


def _oracle_coverage(report):
    rows = [["method", "cell_type", "replicate", "coverage", "mean_width"]]
    reps = [r for _, r in report.replicate_seeds]
    for row, rep in enumerate(reps):
        for k in range(len(report.coverage)):
            c = report.per_replicate[row, k]
            w = report.per_replicate_width[row, k]
            if np.isnan(c):
                continue
            rows.append([report.method, str(k), str(rep),
                         fmt_csv(c), fmt_csv(w)])
    return _oracle_csv_text(rows)


def _oracle_covariances(sample_ids, cell_types, covs):
    return _oracle_json({
        "cell_types": list(cell_types),
        "sample_ids": [str(s) for s in sample_ids],
        "covariances": [np.asarray(C, dtype=float).tolist() for C in covs],
    }) + "\n"


def _oracle_draws(draw_set):
    """{file name: text} for every draw file plus manifest.json."""
    M = draw_set.draws.shape[0]
    width = max(4, len(str(M - 1)))
    header = ["sample_id"] + [str(c) for c in draw_set.cell_types]
    out, files = {}, []
    for m in range(M):
        name = f"draw_{m:0{width}d}.csv"
        rows = [header]
        for i, sid in enumerate(draw_set.sample_ids):
            rows.append([str(sid)] + [fmt_csv(v)
                                      for v in draw_set.draws[m, i]])
        out[name] = _oracle_csv_text(rows)
        files.append({"name": name, "sha256": hashlib.sha256(
            out[name].encode("utf-8")).hexdigest()})
    out["manifest.json"] = _oracle_json({
        "M": M, "seed": draw_set.seed,
        "sample_ids": [str(s) for s in draw_set.sample_ids],
        "cell_types": [str(c) for c in draw_set.cell_types],
        "files": files}) + "\n"
    return out


def _oracle_read_pvalues(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    if rows[0] != PVALUE_HEADER:
        raise ParseError(f"{path}: line 1: expected header "
                         f"{','.join(PVALUE_HEADER)}")
    acc = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 fields, "
                             f"found {len(row)}")
        try:
            idx = int(row[0])
            pv = float(row[3])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: malformed row "
                             f"{row!r}") from None
        if not (0.0 <= pv <= 1.0):
            raise ParseError(f"{path}: line {lineno}: p-value {pv} "
                             f"outside [0, 1]")
        acc.setdefault((row[1], row[2]), []).append((idx, pv))
    out = {}
    for (unit, ct), pairs in acc.items():
        pairs.sort()
        idxs = [idx for idx, _ in pairs]
        if idxs != list(range(len(idxs))):
            m = next(m for m, idx in enumerate(idxs) if idx != m)
            dup = m > 0 and idxs[m] == idxs[m - 1]
            lines = [n for n, row in enumerate(rows[1:], start=2)
                     if row and row[1:3] == [unit, ct]
                     and int(row[0]) == idxs[m]]
            what = "duplicate" if dup else f"expected {m}, found"
            raise ParseError(f"{path}: line {lines[1 if dup else 0]}: {what} "
                             f"draw_index {idxs[m]} for unit {unit!r}, "
                             f"cell type {ct!r}")
        out[(unit, ct)] = np.array([pv for _, pv in pairs])
    return out


ODD_IDS = ["a,b", 'say "hi"', "two\nlines", "", "żółw €", "cr\rx", "plain"]
ODD_TYPES = ["T,1", 'T"2', "Tß"]
EDGE_VALUES = [-0.0, 5e-324, 1e308, 1.0, 0.0, 1 / 3, -2.5e-300]


def _odd_matrix(n, K, seed):
    """(n, K) values that cycle through EDGE_VALUES among random ones."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, K)) * 10.0 ** rng.integers(-20, 20, (n, K))
    flat = X.ravel()
    flat[::2] = np.resize(EDGE_VALUES, flat[::2].size)
    return X


def test_numeric_writers_match_cell_oracles(tmp_path):
    n, K = len(ODD_IDS), len(ODD_TYPES)
    P = _odd_matrix(n, K, 0)
    path = tmp_path / "p.csv"
    write_proportions_csv(str(path), ODD_IDS, ODD_TYPES, P)
    assert path.read_bytes() == \
        _oracle_proportions(ODD_IDS, ODD_TYPES, P).encode("utf-8")

    est, lo, hi = (_odd_matrix(n, K, s) for s in (1, 2, 3))
    path = tmp_path / "iv.csv"
    write_intervals_csv(str(path), ODD_IDS, ODD_TYPES, est, lo, hi)
    assert path.read_bytes() == _oracle_intervals(
        ODD_IDS, ODD_TYPES, est, lo, hi).encode("utf-8")
    # nested lists are accepted as well as arrays
    write_intervals_csv(str(path), ODD_IDS, ODD_TYPES, est.tolist(),
                        lo.tolist(), hi.tolist())
    assert path.read_bytes() == _oracle_intervals(
        ODD_IDS, ODD_TYPES, est, lo, hi).encode("utf-8")


@pytest.mark.parametrize("failed", [[], [1], [0, 1, 2]])
def test_coverage_csv_matches_oracle(tmp_path, failed):
    cov = _odd_matrix(3, 3, 5)
    cov[failed] = np.nan
    report = SimpleNamespace(
        method="m,1", coverage=np.zeros(3), per_replicate=cov,
        per_replicate_width=_odd_matrix(3, 3, 6),
        replicate_seeds=[(9, 4), (9, 7), (9, 11)])
    path = tmp_path / "cov.csv"
    write_coverage_csv(str(path), report)
    assert path.read_bytes() == _oracle_coverage(report).encode("utf-8")


@pytest.mark.parametrize("n", [0, 1, 7])
def test_covariance_json_matches_oracle_with_nonfinite(tmp_path, n):
    K = len(ODD_TYPES)
    covs = _odd_matrix(n * K, K, 4).reshape(n, K, K)
    if n:
        covs[0, 0, 1], covs[-1, 2, 2], covs[-1, 1, 0] = np.nan, np.inf, -np.inf
    ids = (ODD_IDS * 2)[:n]
    path = tmp_path / "cov.json"
    write_covariances_json(str(path), ids, ODD_TYPES, covs)
    want = _oracle_covariances(ids, ODD_TYPES, covs)
    assert path.read_bytes() == want.encode("utf-8")
    # a list of per-sample matrices writes the same bytes
    write_covariances_json(str(path), ids, ODD_TYPES, list(covs))
    assert path.read_bytes() == want.encode("utf-8")


def test_write_json_float_arrays_match_oracle(tmp_path):
    path = tmp_path / "x.json"
    a = np.array([[1.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324]])
    obj = {"a": a, "scalar": np.float64(np.nan), "empty": np.zeros((2, 0)),
           "ints": np.arange(3), "f32": np.array([0.1], dtype=np.float32)}
    write_json(str(path), obj)
    want = _oracle_json({"a": a.tolist(), "scalar": float("nan"),
                         "empty": [[], []], "ints": [0, 1, 2],
                         "f32": [float(np.float32(0.1))]}) + "\n"
    assert path.read_text() == want


def _assert_draws_match_oracle(out, ds):
    write_draws(str(out), ds)
    want = _oracle_draws(ds)
    assert sorted(os.listdir(out)) == sorted(want)
    for name, text in want.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name


@pytest.mark.parametrize("M", [1, 3])
def test_write_draws_matches_oracle(tmp_path, M):
    draws = np.stack([_odd_matrix(len(ODD_IDS), len(ODD_TYPES), m)
                      for m in range(M)])
    _assert_draws_match_oracle(tmp_path / "draws",
                               ProportionDrawSet(draws, ODD_IDS, ODD_TYPES,
                                                 seed=5))


def _kernel_ties(rng):
    """Doubles whose 16th significant digit is an exact 5: format breaks
    the tie to even."""
    ties = [rng.integers(10 ** e, 10 ** (e + 1), 64) + frac
            for e, frac in ((14, 0.5), (13, 0.25), (13, 0.75), (12, 0.125),
                            (12, 0.625))]
    return np.concatenate(ties + [[100000000000000.5, 100000000000001.5,
                                   999999999999999.5]])


def test_csv_kernel_matches_format():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, 1 << 20, dtype=np.uint64).view(float)
    assert ((np.abs(bits) < np.finfo(float).tiny) & (bits != 0)).any()
    spread = 10.0 ** rng.uniform(-9.0, 16.0, 1 << 18)
    powers = np.array([float(f"1e{k}") for k in range(-9, 16)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    ties = _kernel_ties(rng)
    edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 9.999999999999999e-01,
             1e-8, np.nextafter(1e-8, 0.0), np.nextafter(1e-8, 1.0),
             9.99999999999999e-09, 5e-324, -1.0, -1e-5]
    x = np.concatenate([bits, spread, powers, below, above,
                        np.nextafter(below, 0.0), np.nextafter(above, np.inf),
                        ties, edges])
    fast = np.concatenate([io._mantissas(c)[0]
                           for c in np.array_split(x, 64)])
    assert fast.sum() > 250_000        # the spread values take the fast path
    assert not io._mantissas(ties)[0].any()
    # every value the kernel renders itself; of the random bit patterns it
    # hands to format, a sample (their rows are format's own output)
    keep = fast.copy()
    keep[:bits.size] |= rng.random(bits.size) < 1 / 64
    keep[bits.size:] = True
    for chunk in np.array_split(x[keep], 64):
        rows = io._csv_rows(chunk.reshape(-1, 1))
        want = [("," + format(v, ".14e") + "\n").encode()
                for v in chunk.tolist()]
        bad = [(v, got, w) for v, got, w in zip(chunk.tolist(), rows, want)
               if got != w]
        assert not bad, bad[:5]
    assert io._csv_rows(np.array([[9.999999999999999e-01, 0.0]])) == \
        [b",1.00000000000000e+00,0.00000000000000e+00\n"]


def test_csv_kernel_renders_draws_without_fallback(tmp_path, monkeypatch):
    # a slower fallback would show only as time: make it fail instead
    rng = np.random.default_rng(3)
    draws = rng.dirichlet([0.8, 1.0, 2.0], (2, 500))
    draws[:, ::7, 1] = 0.0
    draws[:, 5] = [0.0, 0.0, 1.0]
    assert draws[draws > 0].min() >= 1e-8
    ds = ProportionDrawSet(draws, [f"s{i}" for i in range(500)],
                           ODD_TYPES, seed=2)

    def no_fallback(values):
        raise AssertionError(f"fallback on {values!r}")

    monkeypatch.setattr(io, "_slow_row", no_fallback)
    _assert_draws_match_oracle(tmp_path / "draws", ds)


def test_write_draws_matches_oracle_across_blocks(tmp_path):
    n = (1 << 14) + 3                   # several kernel blocks per file
    rng = np.random.default_rng(4)
    draws = rng.dirichlet([0.5, 1.0, 2.0], (2, n))
    draws[:, ::1000] = _odd_matrix(2 * len(draws[0, ::1000]), 3, 8
                                   ).reshape(2, -1, 3)
    ids = [f"{ODD_IDS[i % len(ODD_IDS)]}{i}" for i in range(n)]
    _assert_draws_match_oracle(tmp_path / "draws",
                               ProportionDrawSet(draws, ids, ODD_TYPES, seed=9))


def _pv_file(tmp_path, lines, name="pv.csv", eol="\n"):
    path = tmp_path / name
    path.write_bytes(eol.join(lines).encode("utf-8"))
    return str(path)


def _assert_same_pvalues(got, want):
    assert list(got) == list(want)          # same keys, same order
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key


HEADER = ",".join(PVALUE_HEADER)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_pvalues_reader_matches_oracle(tmp_path, eol):
    rng = np.random.default_rng(7)
    groups = [('"u,1"', "A", 5), ("u2", '"B,x"', 1), ("u3", "A", 12),
              ('"q""t"', "C", 3), ("ü", "A", 2)]
    rows = [f"{m},{u},{c},{v!r}" for u, c, M in groups for m in range(M)
            for v in [float(rng.random())]]
    rows += ["0,u4,A,-0.0", "1,u4,A,1.0", "2,u4,A,5e-324", "3,u4,A,0"]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    rows[3:3] = ["", ""]                    # blank records are skipped
    path = _pv_file(tmp_path, [HEADER] + rows + ["", ""], eol=eol)
    want = _oracle_read_pvalues(path)
    assert [len(v) for v in want.values()] != [5] * len(want)
    _assert_same_pvalues(read_pvalues_csv(path), want)


@pytest.mark.parametrize("lines", [
    [],
    [HEADER],
    [HEADER, ""],
    [HEADER, "0,u,A,0.5", "0,v,A,0.25", "1,u,A,1e-3"],
    [HEADER, " 1,u,A,0.5", "+0,u,A, 0.25 ", "1_0,v,A,1", *
     [f"{m},v,A,1" for m in range(10)]],
    [HEADER, '0,"multi\nline",A,0.5', "1,\"multi\nline\",A,0.5"],
], ids=["empty", "header-only", "header-blank", "interleaved",
        "python-number-syntax", "quoted-newline"])
def test_pvalues_reader_matches_oracle_on_edge_files(tmp_path, lines):
    path = _pv_file(tmp_path, lines + ([""] if lines else []))
    _assert_same_pvalues(read_pvalues_csv(path), _oracle_read_pvalues(path))


BAD_PVALUE_FILES = {
    "bad-header": ["draw,unit,cell,p", "0,u,A,0.5"],
    "blank-first-record": ["", HEADER, "0,u,A,0.5"],
    "too-few-fields": [HEADER, "0,u,A,0.5", "1,u,A"],
    "too-many-fields": [HEADER, "0,u,A,0.5", "1,u,A,0.5,extra"],
    "one-empty-field": [HEADER, "0,u,A,0.5", '""'],
    "index-not-a-number": [HEADER, "0,u,A,0.5", "x,u,A,0.5"],
    "index-not-an-integer": [HEADER, "0,u,A,0.5", "1.0,u,A,0.5"],
    "p-not-a-number": [HEADER, "0,u,A,0.5", "1,u,A,abc"],
    "p-nan": [HEADER, "0,u,A,nan"],
    "p-above-1": [HEADER, "0,u,A,0.5", "1,u,A,1.5"],
    "p-below-0": [HEADER, "0,u,A,-0.1"],
    "p-inf": [HEADER, "0,u,A,inf"],
    "duplicate-index": [HEADER, "0,u,A,0.5", "1,u,A,0.5", "1,u,A,0.7"],
    "missing-index": [HEADER, "0,u,A,0.5", "2,u,A,0.5"],
    "missing-zero": [HEADER, "1,u,A,0.5"],
    "negative-index": [HEADER, "-1,u,A,0.5", "0,u,A,0.5"],
    "index-beyond-int64": [HEADER, "0,u,A,0.5",
                           "99999999999999999999,u,A,0.5"],
    "index-below-int64": [HEADER, "0,u,A,0.5",
                          "-99999999999999999999,u,A,0.5"],
    # two errors: the first in file order wins, whatever its kind
    "number-then-fields": [HEADER, "0,u,A,0.5", "1,u,A,abc", "0,u,A",
                           "0,v,A,2"],
    "fields-then-number": [HEADER, "0,u,A,0.5", "1,u,A", "1,u,A,abc"],
    "range-then-number": [HEADER, "0,u,A,2", "x,u,A,0.5"],
    # a row error beats an index error that comes earlier in the file
    "index-then-range": [HEADER, "0,u,A,0.5", "0,u,A,0.5", "0,v,A,7"],
    # index errors: the hypothesis that appears first wins
    "two-index-errors": [HEADER, "0,u,A,0.5", "0,v,A,0.5", "1,v,A,0.5",
                         "1,v,A,0.5", "2,u,A,0.5"],
    "two-duplicates": [HEADER, "0,u,A,0.5", "0,v,A,0.5", "0,v,A,0.5",
                       "0,u,A,0.5"],
    # eight fields are two records' worth, still one bad record
    "eight-fields": [HEADER, "0,u,A,0.5", "1,u,A,0.5,2,u,A,0.5"],
    # blank records count as lines for every kind of error
    "blanks-then-number": [HEADER, "0,u,A,0.5", "", "", "1,u,A,abc"],
    "blanks-then-fields": [HEADER, "", "0,u,A,0.5", "", "1,u,A"],
    "blanks-then-duplicate": [HEADER, "0,u,A,0.5", "", "1,u,A,0.5", "",
                              "1,u,A,0.7"],
    # indices beyond int64: exact in the message, never valid
    "duplicate-then-beyond-int64": [HEADER, "0,u,A,0.5", "0,u,A,0.5",
                                    "0,v,A,0.5",
                                    "99999999999999999999,v,A,0.5"],
    "beyond-int64-both-signs": [HEADER, "0,u,A,0.5",
                                "+99999999999999999999,u,A,0.5",
                                "-99999999999999999999,u,A,0.5"],
    "two-beyond-int64": [HEADER, "0,u,A,0.5", "99999999999999999999,u,A,0.5",
                         "99999999999999999998,u,A,0.5"],
}


@pytest.mark.parametrize("case", sorted(BAD_PVALUE_FILES))
def test_pvalues_reader_errors_match_oracle(tmp_path, case):
    # a CRLF copy names the same line as its LF twin
    messages = []
    for eol in ("\n", "\r\n"):
        path = _pv_file(tmp_path, BAD_PVALUE_FILES[case] + [""], eol=eol)
        with pytest.raises(ParseError) as want:
            _oracle_read_pvalues(path)
        with pytest.raises(ParseError) as got:
            read_pvalues_csv(path)
        assert str(got.value) == str(want.value)
        messages.append(str(got.value))
    assert messages[0] == messages[1]


def test_pvalues_reader_reads_crlf_as_plain(tmp_path, monkeypatch, readers):
    # CRLF line ends, blank lines among them, across several plain blocks:
    # the LF file's mapping, and no csv.reader for either file
    monkeypatch.setattr(io, "_PVALUE_BYTES", 64)
    lines = [HEADER] + [f"{m},u{u},A,{(m + u) / 10!r}" for m in range(4)
                        for u in range(3)]
    lines[5:5] = ["", ""]
    lf = read_pvalues_csv(_pv_file(tmp_path, lines + [""], name="lf.csv"))
    crlf = read_pvalues_csv(_pv_file(tmp_path, lines + [""], name="crlf.csv",
                                     eol="\r\n"))
    _assert_same_pvalues(crlf, lf)
    assert len(lf) == 3 and readers == []


@pytest.fixture
def readers(monkeypatch):
    """The arguments of each csv.reader the io module builds."""
    calls, csv_reader = [], io.csv.reader

    def reader(*args, **kwargs):
        calls.append(args)
        return csv_reader(*args, **kwargs)

    monkeypatch.setattr(io.csv, "reader", reader)
    return calls


def test_pvalues_reader_reads_the_file_once(tmp_path, monkeypatch, readers):
    # one open of the path, valid or bad; a plain valid file never builds a
    # csv.reader, any other file at most one, from where the plain blocks end
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open, raising=False)
    path = _pv_file(tmp_path, [HEADER, "0,u,A,0.5", ""])
    read_pvalues_csv(path)
    assert (opened, readers) == ([path], [])
    for case, bad in sorted(BAD_PVALUE_FILES.items()):
        path = _pv_file(tmp_path, bad + [""], name=f"{case}.csv")
        opened.clear()
        readers.clear()
        with pytest.raises(ParseError):
            read_pvalues_csv(path)
        assert opened == [path], case
        assert len(readers) <= 1, case


def test_pvalues_reader_error_lines_count_records(tmp_path):
    # CRLF endings, blank records and a quoted newline: the line number is
    # the record number, as the row-at-a-time reader counted it
    lines = [HEADER, "0,u,A,0.5", "", '1,"a\nb",A,0.5', "", "1,u,A,9"]
    for eol in ("\n", "\r\n"):
        path = _pv_file(tmp_path, lines + [""], eol=eol)
        with pytest.raises(ParseError, match=r"line 6: p-value 9.0 "):
            read_pvalues_csv(path)
        with pytest.raises(ParseError) as want:
            _oracle_read_pvalues(path)
        with pytest.raises(ParseError) as got:
            read_pvalues_csv(path)
        assert str(got.value) == str(want.value)


def test_pvalues_reader_blocks_match_oracle(tmp_path, monkeypatch):
    # blocks of a few bytes (and csv.reader blocks of two records): every
    # seam between blocks falls inside the files, most inside a record
    monkeypatch.setattr(io, "_PVALUE_BLOCK", 2)
    lines = [HEADER] + [f"{m},u{u},A,{(m + u) / 10}" for m in range(3)
                        for u in range(3)] + ["", "3,u1,A,1"]
    for nbytes in (1, 7, 16, 64):
        monkeypatch.setattr(io, "_PVALUE_BYTES", nbytes)
        path = _pv_file(tmp_path, lines + [""])
        _assert_same_pvalues(read_pvalues_csv(path),
                             _oracle_read_pvalues(path))
        for case, bad in sorted(BAD_PVALUE_FILES.items()):
            path = _pv_file(tmp_path, bad + [""], name=f"{case}.csv")
            with pytest.raises(ParseError) as want:
                _oracle_read_pvalues(path)
            with pytest.raises(ParseError) as got:
                read_pvalues_csv(path)
            assert str(got.value) == str(want.value), (nbytes, case)


def _after_plain_prefix(lines):
    """The records of lines (a header line dropped) behind a plain prefix of
    24 valid records and 6 blank lines, longer than a 64-byte block."""
    prefix = []
    for m in range(24):
        prefix += [f"{m // 3},w{m % 3},A,{m / 40!r}"] + [""] * (m % 4 == 3)
    return [HEADER] + prefix + [ln for ln in lines if ln != HEADER]


HANDOVER_FILES = {**BAD_PVALUE_FILES, **{
    "quoted-newline": [HEADER, '0,"multi\nline",A,0.5',
                       '1,"multi\nline",A,0.5'],
    "python-number-syntax": [HEADER, " 1,u,A,0.5", "+0,u,A, 0.25 ",
                             "1_0,v,A,1", *[f"{m},v,A,1" for m in range(10)]],
    "duplicate-across": [HEADER, "0,u,A,0.5", "0,w1,A,0.5"],
    "valid": [HEADER, "0,u,A,0.5", '1,"u",A,0.5', "1,w1,A,+0.5"],
    # lines no plain block may hold, each a bad record for csv.reader
    "empty-index": [HEADER, "0,u,A,0.5", ",u,A,0.5"],
    "empty-p-value": [HEADER, "0,u,A,0.5", "1,u,A,"],
    "index-19-digits": [HEADER, "0,u,A,0.5", "9999999999999999999,u,A,0.5"],
    "no-commas": [HEADER, "0,u,A,0.5", "x", "1,u,A,0.5"],
    "commas-balance": [HEADER, "0,u,A", "0,v,A,0.5,x"],
    "cr-in-key": [HEADER, "0,u,A,0.5", "1,u\rx,A,0.5"],
}}


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("case", sorted(HANDOVER_FILES))
def test_pvalues_reader_hands_over_mid_file(tmp_path, monkeypatch, case, eol):
    # plain blocks first, then csv.reader from the first other one: the
    # result or the message, line number included, is the oracle's
    plain = []

    def plain_columns(*args):
        plain.append(plain_columns_(*args))
        return plain[-1]

    plain_columns_ = io._plain_columns
    monkeypatch.setattr(io, "_plain_columns", plain_columns)
    monkeypatch.setattr(io, "_PVALUE_BYTES", 64)
    lines = _after_plain_prefix(HANDOVER_FILES[case])
    text = "\n".join(lines[:31]) + "\n" + eol.join(lines[31:] + [""])
    path = tmp_path / "pv.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = _oracle_read_pvalues(path)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            read_pvalues_csv(path)
        assert str(got.value) == str(err)
    else:
        _assert_same_pvalues(read_pvalues_csv(path), want)
    # the prefix was read as plain blocks, and no block after a hand-over
    assert len(plain) > 2 and None not in plain[:-1]


@pytest.mark.parametrize("nbytes", [16, 40])
def test_pvalues_reader_plain_blocks_count_blank_lines(tmp_path, monkeypatch,
                                                       nbytes):
    # blank lines in every block, a duplicate index between them: its line
    # counts the blank lines of earlier blocks
    monkeypatch.setattr(io, "_PVALUE_BYTES", nbytes)
    lines = [HEADER]
    for m in range(8):
        lines += [f"{m},u,A,0.5", "", f"{m},v,A,0.5"] + [""] * (m % 3)
    lines[12:12] = ["2,u,A,0.25"]
    path = _pv_file(tmp_path, lines + [""])
    with pytest.raises(ParseError) as want:
        _oracle_read_pvalues(path)
    with pytest.raises(ParseError) as got:
        read_pvalues_csv(path)
    assert str(got.value) == str(want.value)
    assert "line 13: duplicate draw_index 2 " in str(got.value)


def test_pvalues_reader_hands_over_after_a_full_block(tmp_path):
    # at the real block size: over 1 MiB of plain records, then a quoted
    # field and a bad number, their line numbers counted across the seam
    lines = [HEADER] + [f"{m},u{u},A,0.5" for m in range(20)
                        for u in range(6000)]
    lines[1000:1000] = ["", ""]
    tail = ['20,"u7",A,0.5', "", "21,u7,A,x"]
    path = _pv_file(tmp_path, lines + tail + [""])
    assert os.path.getsize(path) > io._PVALUE_BYTES
    with pytest.raises(ParseError) as want:
        _oracle_read_pvalues(path)
    with pytest.raises(ParseError) as got:
        read_pvalues_csv(path)
    assert str(got.value) == str(want.value)
    assert "line 120006: malformed row" in str(got.value)
    path = _pv_file(tmp_path, lines + tail[:1] + [""])
    _assert_same_pvalues(read_pvalues_csv(path), _oracle_read_pvalues(path))


@pytest.mark.parametrize("lines", [
    [],
    [HEADER],
    [HEADER, ""],
    [HEADER, "", "", "0,u,A,0.5", "", "", "1,u,A,0.25", "", ""],
    [HEADER, "0,u,A,0.5", "1,u,A,0.25"],
    [HEADER, "0,żółw €,Tß,0.5", "0,ü,A,1", "1,żółw €,Tß,0", ""],
    [HEADER, *[f"{m},u,A,{v}" for m, v in enumerate(
        ["-0.0", "5e-324", "1.", ".5", "1e-3", "1E-3", "+0.5", "0",
         "1", "1.0e0", "00.50", "2.5e-1", "0.1e+1"])], ""],
    [HEADER, "0,,,0.5", "000000000000000001,,,0.5", "0,u,,0.5", ""],
], ids=["empty", "header-only", "header-newline", "blank-lines",
        "no-trailing-newline", "non-ascii", "number-spellings",
        "empty-keys-and-long-index"])
def test_pvalues_reader_plain_files_match_oracle(tmp_path, readers, lines):
    path = _pv_file(tmp_path, lines)
    got = read_pvalues_csv(path)
    assert len(readers) == (0 if lines else 1)   # no header: csv.reader
    _assert_same_pvalues(got, _oracle_read_pvalues(path))


@pytest.mark.parametrize("value", [" 0.5", "0.5\t", "0.2_5", "\u0660.5"])
def test_pvalues_reader_leaves_other_spellings_to_csv(tmp_path, readers,
                                                      value):
    # float reads these, numpy's cast need not: csv.reader reads the block
    path = _pv_file(tmp_path, [HEADER, "0,u,A,0.5", f"1,u,A,{value}", ""])
    got = read_pvalues_csv(path)
    assert len(readers) == 1
    _assert_same_pvalues(got, _oracle_read_pvalues(path))


def test_float_cast_reads_what_float_reads():
    # the plain path casts p-value bytes with numpy: over the plain alphabet
    # the cast must accept exactly the strings float accepts, bit for bit
    rng = np.random.default_rng(14)
    alphabet = np.array(list("0123456789.eE+-"))
    digits = np.array(list("0123456789"))

    def number():
        parts = [rng.choice(["", "+", "-"]),
                 *rng.choice(digits, rng.integers(4))]
        if rng.random() < 0.6:
            parts += [".", *rng.choice(digits, rng.integers(20))]
        if rng.random() < 0.5:
            parts += [rng.choice(["e", "E"]), rng.choice(["", "+", "-"]),
                      *rng.choice(digits, rng.integers(4))]
        return "".join(parts)

    strings = ["".join(rng.choice(alphabet, rng.integers(1, 10)))
               for _ in range(2000)] + [number() for _ in range(3000)]
    for s in strings:
        try:
            want = np.float64(float(s))
        except ValueError:
            want = None
        try:
            with np.errstate(over="ignore"):
                got = np.array([s.encode()]).astype(np.float64)[0]
        except ValueError:
            got = None
        if want is None or got is None:
            assert got is want, s
        else:
            assert got.tobytes() == want.tobytes(), s
    bits = rng.integers(0, 2 ** 64 - 1, 20000, np.uint64, endpoint=True)
    bits[:5000] >>= np.uint64(12)           # positive subnormals
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    reprs = np.array([repr(v).encode() for v in x.tolist()])
    assert reprs.astype(np.float64).tobytes() == x.tobytes()


# --- the table reader: a plain file is parsed by np.loadtxt, any other goes
# whole to the csv.reader loop; both must read the same ids and bits, or
# raise the same message

TABLES = {  # parser settings per table format
    "signature": (2, "\t", None),
    "bulk": (1, "\t", None),
    "proportions": (1, ",", "sample_id"),
}


@pytest.fixture
def table_paths(monkeypatch):
    """Read a table by the plain path first, as the io module does, and by
    the csv.reader loop alone. Returns (plain-first outcome, csv outcome,
    whether the plain path read the file); an outcome is (ids, names,
    value bytes, shape) or the text of the error raised."""
    def outcome(path, table):
        try:
            ids, names, values = io._parse_matrix_tsv(path, *TABLES[table])
        except (ParseError, csv.Error) as err:
            return f"{type(err).__name__}: {err}"
        return ids, names, values.tobytes(), values.shape

    def read(path, table):
        got = outcome(path, table)
        plain = io._plain_table(path, *TABLES[table]) is not None
        with monkeypatch.context() as m:
            m.setattr(io, "_plain_table", lambda *args: None)
            return got, outcome(path, table), plain

    return read


BODY = "g1\t1.5\t-2e-3\ng#2\t0.25\t3\ng3\t5e-324\t-0.0\n"
TABLE_FILES = {  # (text, read by the plain path as a bulk matrix)
    "lf": ("gene\tA\tB\n" + BODY, True),
    "crlf": (("gene\tA\tB\n" + BODY).replace("\n", "\r\n"), True),
    "lone-cr": (("gene\tA\tB\n" + BODY).replace("\n", "\r"), True),
    "mixed-ends": ("gene\tA\tB\r\n\r\rg1\t1\t2\r\r\ng2\t3\t4", True),
    "no-final-newline": ("gene\tA\tB\n" + BODY[:-1], True),
    "quoted-id": ('gene\tA\tB\n"g1"\t1\t2\n', False),
    "quoted-header": ('"gene"\tA\t"B"\ng1\t1\t2\n', False),
    "quoted-id-tab": ('gene\tA\tB\n"g\t1"\t1\t2\ng2\t3\t4\n', False),
    "quoted-id-newline": ('gene\tA\tB\n"g\n1"\t1\t2\ng2\t3\t4\n', False),
    "quoted-number": ('gene\tA\tB\ng1\t"1.5"\t2\n', False),
    "quote-inside-id": ('gene\tA\tB\ng"1\t1\t2\n', False),
    "underscore": ("gene\tA\tB\ng1\t1_0\t2\n", False),
    "unicode-digits": ("gene\tA\tB\ng1\t١.5\t2\n", False),
    "hash-in-id": ("gene\tA\tB\n#g1\t1\t2\ng#2\t3\t4\n", True),
    "hash-in-cell": ("gene\tA\tB\ng1\t1\t#2\n", False),
    "bom": ("﻿gene\tA\tB\n" + BODY, True),
    "spaced-numbers": ("gene\tA\tB\ng1\t 1.5 \t 2\n", True),
    "blank-lines": ("gene\tA\tB\n\n" + BODY.replace("\n", "\n\n\n"), True),
    "blank-first-line": ("\ngene\tA\tB\n" + BODY, False),
    "whitespace-only-line": ("gene\tA\tB\ng1\t1\t2\n \t\ng2\t3\t4\n", False),
    "spaces-only-line": ("gene\tA\tB\ng1\t1\t2\n  \n", False),
    "trailing-tab": ("gene\tA\tB\ng1\t1\t2\t\n", False),
    "ragged-short": ("gene\tA\tB\ng1\t1\t2\ng2\t3\n", False),
    "ragged-long": ("gene\tA\tB\ng1\t1\t2\ng2\t3\t4\t5\n", False),
    "empty-cell": ("gene\tA\tB\ng1\t\t2\n", False),
    "not-a-number": ("gene\tA\tB\ng1\t1\t2\ng2\t3\tx\n", False),
    "nan-inf": ("gene\tA\tB\ng1\tnan\t-inf\ng2\tInfinity\t1e999\n", True),
    "empty-id": ("gene\tA\tB\n\t1\t2\n", True),
    "nul-in-id": ("gene\tA\tB\ng\x001\t1\t2\n", False),
    "header-only": ("gene\tA\tB\n", False),
    "header-only-blank-lines": ("gene\tA\tB\n\n\r\n", False),
    "empty-file": ("", False),
    "empty-header-field": ("gene\t\tB\ng1\t1\t2\n", False),
    "too-few-columns": ("gene\tA\ng1\t1\n", True),
    "non-utf8": ("gene\tA\tB\ng1\t1\t2\ng\udcff\t1\t2\n", False),
    "long-id": ("gene\tA\tB\n" + "g" * (csv.field_size_limit() + 1)
                + "\t1\t2\n", False),
}


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("case", sorted(TABLE_FILES))
def test_table_paths_read_alike(tmp_path, table_paths, case, table):
    text, plain = TABLE_FILES[case]
    if table == "proportions":
        text = text.replace("\t", ",").replace("gene", "sample_id")
    path = tmp_path / "table.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    got, want, read_plain = table_paths(str(path), table)
    assert got == want
    # a signature needs two cell types; a proportions file's BOM fails its
    # header check
    assert read_plain == (plain and not (table == "signature"
                                         and case == "too-few-columns")
                          and not (table == "proportions" and case == "bom"))


@pytest.mark.parametrize("reader", [read_signature_tsv, read_bulk_tsv])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
def test_non_finite_cells_reach_nonfinite_on_both_paths(
        tmp_path, monkeypatch, reader, cell):
    path = tmp_path / "t.tsv"
    path.write_text(f"gene\tA\tB\ng1\t1\t2\ng2\t{cell}\t3\n")
    assert io._plain_table(str(path), 1, "\t", None) is not None
    with pytest.raises(NonFinite):
        reader(str(path))
    monkeypatch.setattr(io, "_plain_table", lambda *args: None)
    with pytest.raises(NonFinite):
        reader(str(path))


def test_plain_tables_never_build_a_csv_reader(tmp_path, monkeypatch):
    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader built")

    rng = np.random.default_rng(3)
    Y = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
    sig, bulk = tmp_path / "sig.tsv", tmp_path / "bulk.tsv"
    for path, M in ((sig, Y[:, :3]), (bulk, Y)):
        path.write_text("\t".join(["gene"] + [f"c{k}" for k in
                                              range(M.shape[1])]) + "\n"
                        + "".join(f"g{j}\t" + "\t".join(map(repr, row))
                                  + "\n" for j, row in enumerate(M.tolist())))
    props = tmp_path / "p.csv"
    write_proportions_csv(str(props), [f"s{i}" for i in range(40)],
                          ["A", "B", "C"], np.abs(Y[:, :3]))
    monkeypatch.setattr(io.csv, "reader", no_reader)
    assert read_signature_tsv(str(sig)).values.tobytes() == \
        Y[:, :3].tobytes()
    assert read_bulk_tsv(str(bulk)).values.tobytes() == Y.tobytes()
    ids, cts, P = read_proportions_csv(str(props))
    assert (ids, cts) == ([f"s{i}" for i in range(40)], ["A", "B", "C"])
    np.testing.assert_allclose(P, np.abs(Y[:, :3]), rtol=1e-14, atol=0)


def test_loadtxt_reads_what_float_reads():
    # the plain path parses cells with np.loadtxt: where it accepts a cell,
    # its value must be float's, bit for bit
    rng = np.random.default_rng(15)
    bits = rng.integers(0, 2 ** 64 - 1, 30000, np.uint64, endpoint=True)
    bits[:5000] >>= np.uint64(12)           # positive subnormals
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    hard = ["2.2250738585072011e-308", "2.2250738585072012e-308",
            "4.9406564584124654e-324", "2.4703282292062328e-324",
            "9007199254740993", "1.00000000000000011102230246251565404",
            "0.1e-400", "1e309", "-1e-400", "+.5", "5.", "0e0", "NaN",
            "-iNf", "infinity", " 7 "]
    cells = ([repr(v) for v in x.tolist()] + [f"{v:.15e}" for v in
                                                x.tolist()[:5000]] + hard)
    want = np.array([float(c) for c in cells])
    got = np.loadtxt([f"g\t{c}\n" for c in cells], delimiter="\t",
                     usecols=[1], comments=None, quotechar=None, ndmin=2)
    assert got.ravel().tobytes() == want.tobytes()
    alphabet = np.array(list("0123456789.eE+-_naif ١x"))
    for s in ("".join(rng.choice(alphabet, rng.integers(1, 8)))
              for _ in range(1500)):
        try:
            want = np.float64(float(s)).tobytes()
        except ValueError:
            want = None
        try:
            got = np.loadtxt([f"g\t{s}\n"], delimiter="\t", usecols=[1],
                             comments=None, quotechar=None).tobytes()
        except ValueError:
            continue                        # the csv.reader loop reads it
        assert got == want, s


@pytest.mark.parametrize("shape", [(), (0,), (4,), (0, 3), (3, 0), (2, 3),
                                   (0, 3, 3), (2, 0, 3), (6, 3, 3),
                                   (2, 0, 2, 2), (2, 3, 0, 2), (2, 3, 2, 2)])
def test_json_floats_match_recursive_oracle(shape):
    rng = np.random.default_rng(len(shape))
    a = np.asarray(rng.standard_normal(shape)
                   * 10.0 ** rng.integers(-300, 300, shape))
    assert io._json_floats(a) == json_floats_oracle(a)
    if a.size:
        a.flat[rng.choice(a.size, min(a.size, 3), replace=False)] = \
            [np.nan, np.inf, -np.inf][:min(a.size, 3)]
        assert "null" in io._json_floats(a)
        assert io._json_floats(a) == json_floats_oracle(a)


def test_string_lists_emit_per_item_json():
    ids = ["s1", "żółw €", "tab\there", 'q"uote', "back\\slash", "\x01",
           " ", "😀", ""]
    for obj in (ids, tuple(ids), [], ids[:1], [np.str_("s2"), "s3"]):
        assert io._emit_json(obj) == \
            "[" + ", ".join(json.dumps(s) for s in obj) + "]"
