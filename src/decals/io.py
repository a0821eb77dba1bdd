"""File ingestion and result serialization.

Matrices come in as TSV with a mandatory header row. Results go out as CSV
and JSON with floats in scientific notation: 17 significant digits in JSON,
15 in CSV, enough to round-trip IEEE doubles. Every write is atomic (temp
file in the target directory, then rename), and the CSV writers return the
text they wrote, which is what draw manifests hash.

Numeric tables go a column at a time: one % over a repeated row template
renders a table (or a float array in JSON), and the p-value reader checks
whole columns, rereading the file row by row only to name a failing line.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from io import StringIO

import numpy as np

from .deconv import BulkMatrix, SignatureMatrix
from .errors import ParseError

JSON_FMT = ".16e"        # 17 significant digits
CSV_FMT = ".14e"         # 15 significant digits

PVALUE_HEADER = ["draw_index", "unit_id", "cell_type", "p_value"]
CALLS_HEADER = ["unit_id", "cell_type", "hit_count", "cutoff", "called"]


def fmt_csv(x) -> str:
    return format(float(x), CSV_FMT)


def _emit_json(obj) -> str:
    """Serialize with controlled float formatting (non-finite -> null)."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return format(x, JSON_FMT) if math.isfinite(x) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _json_floats(obj)
        return _emit_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            parts.append(json.dumps(str(k)) + ": " + _emit_json(v))
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_floats(a: np.ndarray) -> str:
    """A float array as nested JSON lists: one % over a template per
    matrix, so no temporary grows with the number of matrices."""
    if a.ndim > 2:
        return "[" + ", ".join(_json_floats(m) for m in a) + "]"
    tmpl = "%" + JSON_FMT
    for dim in reversed(a.shape):
        tmpl = "[" + ", ".join([tmpl] * dim) + "]"
    text = tmpl % tuple(a.ravel().tolist())
    if not np.isfinite(a).all():      # only numbers in text: swap the tokens
        for tok in ("-inf", "inf", "nan"):
            text = text.replace(tok, "null")
    return text


def atomic_write_text(path: str, text: str) -> None:
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix="." + os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write_text(path, _emit_json(obj) + "\n")


def _csv_text(rows) -> str:
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_csv_rows(path: str, rows) -> str:
    """Write rows as CSV atomically; returns the text written."""
    text = _csv_text(rows)
    atomic_write_text(path, text)
    return text


def _csv_fields(values) -> list:
    """Each value as csv.writer writes it in a row of two or more fields."""
    return [_csv_text([[v, ""]])[:-2] for v in values]


def _write_numeric_csv(path: str, header, labels, values) -> str:
    """The header row, then "label,v_1,...,v_C" per row of the (rows, C)
    values with each v as fmt_csv writes it; labels are CSV text."""
    values = np.asarray(values, dtype=float)
    n, C = values.shape
    cells = np.empty((n, C + 1), dtype=object)
    cells[:, 0], cells[:, 1:] = labels, values
    row = "%s" + f",%{CSV_FMT}" * C + "\n"
    text = _csv_text([header]) + (row * n) % tuple(cells.ravel().tolist())
    atomic_write_text(path, text)
    return text


def _records(path: str, delimiter: str):
    """The file's CSV records, read one at a time."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield from csv.reader(fh, delimiter=delimiter)
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from None


def _parse_matrix_tsv(path: str, min_cols: int, delimiter: str = "\t",
                      id_header: str | None = None):
    """(row ids, column names, values) of a table with a header row (led by
    `id_header` when given), an id column and numeric cells. Each row becomes
    a float array as it is read, so no string copy of the file is held."""
    rows = _records(path, delimiter)
    header = next(rows, [])
    if id_header is not None and header[:1] != [id_header]:
        raise ParseError(f"{path}: line 1: expected header starting "
                         f"{id_header!r}")
    if not header:
        raise ParseError(f"{path}: line 1: missing header row")
    names = header[1:]
    if len(names) < min_cols:
        raise ParseError(
            f"{path}: line 1: need an id column plus at least {min_cols} "
            f"value columns, found {len(names)}")
    if any(not c.strip() for c in header):
        raise ParseError(f"{path}: line 1: empty header field")
    ids, values = [], []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}: line {lineno}: expected "
                             f"{len(header)} fields, found {len(row)}")
        ids.append(row[0])
        try:
            values.append(np.fromiter(map(float, row[1:]), float, len(names)))
        except ValueError:      # find the cell only now that one failed
            for colno, cell in enumerate(row[1:], start=2):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}, column {colno}: "
                        f"not a number: {cell!r}") from None
    if not ids:
        raise ParseError(f"{path}: no data rows")
    return ids, names, np.stack(values)


def read_signature_tsv(path: str) -> SignatureMatrix:
    """TSV: id column, then one column per cell type; rows are genes."""
    ids, names, values = _parse_matrix_tsv(path, min_cols=2)
    return SignatureMatrix(values, ids, names)


def read_bulk_tsv(path: str) -> BulkMatrix:
    """TSV: id column, then one column per sample; rows are genes."""
    ids, names, values = _parse_matrix_tsv(path, min_cols=1)
    return BulkMatrix(values, ids, names)


def write_proportions_csv(path: str, sample_ids, cell_types, P) -> None:
    _write_numeric_csv(path, ["sample_id"] + list(cell_types),
                       _csv_fields(map(str, sample_ids)), P)


def read_proportions_csv(path: str):
    """CSV written by write_proportions_csv: (sample ids, cell types, P)."""
    return _parse_matrix_tsv(path, 1, ",", id_header="sample_id")


def write_covariances_json(path: str, sample_ids, cell_types, covs) -> None:
    """Per-sample K x K sampling covariances, aligned with sample_ids."""
    write_json(path, {
        "cell_types": list(cell_types),
        "sample_ids": [str(s) for s in sample_ids],
        "covariances": np.asarray(covs, dtype=float),
    })


def read_covariances_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno}, column {err.colno}: "
                         f"{err.msg}") from None
    try:
        ids = [str(s) for s in obj["sample_ids"]]
        cell_types = list(obj["cell_types"])
        covs = np.array(obj["covariances"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"{path}: malformed covariance file: {err}") from None
    if covs.shape != (len(ids), len(cell_types), len(cell_types)):
        raise ParseError(f"{path}: covariance array shape {covs.shape} does "
                         f"not match {len(ids)} samples x "
                         f"{len(cell_types)} cell types")
    return ids, cell_types, covs


def load_estimates(result_dir: str):
    """(sample ids, cell types, P (n, K), V (n, K, K)) of a deconvolution
    output directory, V at the /p scale the covariance file stores.

    The directory must hold run_meta.json, which deconvolve writes last, so a
    run that stopped while writing its results is refused."""
    meta = os.path.join(result_dir, "run_meta.json")
    if not os.path.isfile(meta):
        raise ParseError(f"{meta} is missing: {result_dir} is not a complete "
                         "deconvolve result")
    pp = os.path.join(result_dir, "proportions.csv")
    cp = os.path.join(result_dir, "covariances.json")
    ids, cell_types, P = read_proportions_csv(pp)
    cids, ctypes2, covs = read_covariances_json(cp)
    if ids != cids or list(cell_types) != list(ctypes2):
        raise ParseError(f"{pp} and {cp} disagree on samples or cell types")
    return ids, cell_types, P, covs


def write_intervals_csv(path: str, sample_ids, cell_types, est, lo, hi) -> None:
    """One row per (sample, cell type), sample-major."""
    cts = _csv_fields(map(str, cell_types))
    labels = [f"{sid},{ct}" for sid in _csv_fields(map(str, sample_ids))
              for ct in cts]
    values = np.stack([np.asarray(a, dtype=float) for a in (est, lo, hi)], -1)
    _write_numeric_csv(path, ["sample_id", "cell_type", "estimate", "lower",
                              "upper"], labels, values.reshape(-1, 3))


def write_coverage_csv(path: str, report) -> None:
    """Tidy per-replicate coverage: method, cell_type, replicate, coverage,
    mean_width."""
    kept = ~np.isnan(report.per_replicate)       # (replicates, K)
    method = _csv_fields([report.method])[0]
    labels = [f"{method},{k},{rep}" for (_, rep), row in
              zip(report.replicate_seeds, kept) for k in np.flatnonzero(row)]
    values = np.stack([report.per_replicate[kept],
                       report.per_replicate_width[kept]], -1)
    _write_numeric_csv(path, ["method", "cell_type", "replicate", "coverage",
                              "mean_width"], labels, values)


def write_draws(out_dir: str, draw_set) -> str:
    """One CSV per draw plus manifest.json with sha256 checksums.

    Returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    M = draw_set.draws.shape[0]
    width = max(4, len(str(M - 1)))
    header = ["sample_id"] + [str(c) for c in draw_set.cell_types]
    ids = _csv_fields(map(str, draw_set.sample_ids))
    files = []
    for m in range(M):
        name = f"draw_{m:0{width}d}.csv"
        text = _write_numeric_csv(os.path.join(out_dir, name), header, ids,
                                  draw_set.draws[m])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        files.append({"name": name, "sha256": digest})
    manifest = {
        "M": M,
        "seed": draw_set.seed,
        "sample_ids": [str(s) for s in draw_set.sample_ids],
        "cell_types": [str(c) for c in draw_set.cell_types],
        "files": files,
    }
    mpath = os.path.join(out_dir, "manifest.json")
    write_json(mpath, manifest)
    return mpath


def _pvalue_error(path: str) -> ParseError:
    """The first error in a p-value file, found by rereading it record by
    record: the header; each record's field count, numbers and range in file
    order; then each hypothesis's draw indices in order of first appearance."""
    rows = list(_records(path, ","))
    if rows[0] != PVALUE_HEADER:
        return ParseError(f"{path}: line 1: expected header "
                          f"{','.join(PVALUE_HEADER)}")
    found = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            return ParseError(f"{path}: line {lineno}: expected 4 fields, "
                              f"found {len(row)}")
        try:
            idx = int(row[0])
            pv = float(row[3])
        except ValueError:
            return ParseError(f"{path}: line {lineno}: malformed row {row!r}")
        if not (0.0 <= pv <= 1.0):
            return ParseError(f"{path}: line {lineno}: p-value {pv} "
                              f"outside [0, 1]")
        found.setdefault((row[1], row[2]), []).append((idx, lineno))
    for (unit, ct), pairs in found.items():
        idxs = sorted(idx for idx, _ in pairs)
        m = next((m for m, idx in enumerate(idxs) if idx != m), None)
        if m is not None:
            dup = m > 0 and idxs[m] == idxs[m - 1]
            lines = [n for idx, n in pairs if idx == idxs[m]]
            what = "duplicate" if dup else f"expected {m}, found"
            return ParseError(f"{path}: line {lines[1 if dup else 0]}: "
                              f"{what} draw_index {idxs[m]} for unit "
                              f"{unit!r}, cell type {ct!r}")


def read_pvalues_csv(path: str):
    """CSV with columns draw_index, unit_id, cell_type, p_value.

    Returns {(unit_id, cell_type): p-value array ordered by draw_index},
    keys in order of first appearance. Each hypothesis's draw indices must
    be exactly 0..M-1, with M free to differ between hypotheses. An empty
    file yields an empty mapping."""
    keys, kid, idx, pv = {}, [], [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, PVALUE_HEADER) != PVALUE_HEADER:  # empty: no rows
                raise _pvalue_error(path)
            for row in reader:
                if len(row) == 4:
                    idx.append(row[0])
                    pv.append(row[3])
                    kid.append(keys.setdefault((row[1], row[2]), len(keys)))
                elif row:
                    raise _pvalue_error(path)
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from None
    n = len(pv)
    try:
        pv = np.fromiter(map(float, pv), float, n)
        idx = np.fromiter(map(int, idx), np.int64, n)
    except (ValueError, OverflowError):   # beyond int64 is no valid index
        raise _pvalue_error(path) from None
    kid = np.fromiter(kid, np.intp, n)
    # a valid hypothesis has distinct indices, so p-values never break a tie
    # that matters; sorting by them as well costs 20x the time
    order = np.lexsort((idx, kid))
    counts = np.bincount(kid)
    ends = np.cumsum(counts)
    expected = np.arange(n) - np.repeat(ends - counts, counts)
    if ((pv >= 0.0) & (pv <= 1.0)).all() and (idx[order] == expected).all():
        return dict(zip(keys, np.split(pv[order], ends[:-1])))
    raise _pvalue_error(path)


def write_calls_csv(path: str, decisions) -> None:
    rows = [CALLS_HEADER]
    for d in decisions:
        rows.append([d.unit_id, d.cell_type, str(d.hits), str(d.cutoff),
                     "true" if d.called else "false"])
    write_csv_rows(path, rows)
