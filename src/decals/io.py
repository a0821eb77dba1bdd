"""File ingestion and result serialization.

Matrices come in as TSV with a mandatory header row. Results go out as CSV
and JSON with floats in scientific notation: 17 significant digits in JSON,
15 in CSV, enough to round-trip IEEE doubles. Every write is atomic (temp
file in the target directory, then rename), and the CSV writers return what
they wrote; draw manifests hash those bytes.

Numeric CSV tables are rendered by a numpy kernel that writes the bytes
format(v, ".14e") would into fixed-width cells, a block of rows at a time,
and hands any row it cannot render exactly to format itself. JSON float
arrays go through one % over a template per matrix. The p-value reader
parses plain blocks of bytes column-wise in numpy, and hands the rest of a
file, from its first other block, to csv.reader, which also names a bad
file's first error. Inputs are UTF-8: `_file_errors` turns a file that cannot
be read, or is not UTF-8, into a ParseError that names it, for every reader.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from bisect import bisect_right
from contextlib import contextmanager
from io import StringIO, TextIOWrapper
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .deconv import BulkMatrix, SignatureMatrix
from .errors import ParseError

JSON_FMT = ".16e"        # 17 significant digits
CSV_FMT = ".14e"         # 15 significant digits

PVALUE_HEADER = ["draw_index", "unit_id", "cell_type", "p_value"]
CALLS_HEADER = ["unit_id", "cell_type", "hit_count", "cutoff", "called"]
_PVALUE_BLOCK = 1 << 16       # p-value records held as strings at a time
_PVALUE_BYTES = 1 << 20       # p-value file bytes parsed column-wise at a time
_PVALUE_LINE = (",".join(PVALUE_HEADER) + "\n").encode("ascii")
_PVALUE_CRLF = _PVALUE_LINE[:-1] + b"\r\n"
_DIGITS = b"\x000123456789"    # a plain draw index's bytes; NUL pads it


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


def _atomic_write(path: str, data: bytes) -> None:
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix="." + os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


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
    """Each value as csv.writer writes it in a row of two or more fields,
    UTF-8 encoded."""
    return [_csv_text([[v, ""]])[:-2].encode("utf-8") for v in values]


# The CSV kernel. A positive x with e = floor(log10 x) in [-8, 14] scales to
# x * 10**(14 - e) in [1e14, 1e15) by an exact double (10**22 is the largest
# exact power of ten). A Dekker two-product holds that product exactly as
# hi + lo, so its rounding to the 15-digit mantissa is decided exactly.
_SPLIT = 134217729.0                     # 2**27 + 1: Veltkamp's split, no FMA
_BLOCK = 1 << 13                         # cells rendered per block: cache-sized


def _split(a):
    """a as hi + lo, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
# ASCII tables, gathered into the cell layout ",d.dd" "dddd" "dddd" "dddd" "e+XX"
_DIGITS4 = np.array([b"%04d" % i for i in range(10000)]).view(np.uint32)
_LEAD = np.array([b",%d.%02d" % divmod(i, 100) for i in range(1000)])
_EXP = np.array([b"e%+03d" % e for e in range(-8, 15)]).view(np.uint32)
_CELL = np.dtype({"names": ["lead", "g1", "g2", "g3", "exp"],
                  "formats": ["S5", "u4", "u4", "u4", "u4"],
                  "offsets": [0, 5, 9, 13, 17], "itemsize": 21})


def _mantissas(x):
    """(fast, N, e) for a 1-d float array: where fast, x renders as N's 15
    digits times 10**(e - 14), exactly as format(x, CSV_FMT) rounds it.

    Not fast: x < 0 or -0.0, NaN, inf, x < 1e-8 or x >= 1e15, a mantissa
    that rounds up to the next decade, an exponent log10 misjudged, and an
    exact tie (format breaks it to even). +0.0 is fast, as N = e = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    fast = (x > 0) & (e >= -8) & (e <= 14)
    q = np.where(fast, 14 - e, 14).astype(np.intp)
    a = np.where(fast, x, 0.0)
    hi = a * _POW10[q]
    a_hi, a_lo = _split(a)
    p_hi, p_lo = _POW10_HI[q], _POW10_LO[q]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    top = np.floor(hi)
    d = (hi - top - 0.5) + lo            # the sign of hi + lo - (top + 0.5)
    N = top + (d > 0)
    # hi >= 1e14 keeps hi + lo within 2**-7 of [1e14, 1e15): either way the
    # 15 digits read N (a product just under 1e14 rounds up to the decade)
    fast &= (d != 0) & (N < 1e15) & (hi >= 1e14)
    fast |= (x == 0) & ~np.signbit(x)
    return fast, np.where(fast, N, 0).astype(np.int64), 14 - q


def _slow_row(values) -> bytes:
    """A row the kernel leaves, rendered by format itself: each cell led by
    a comma, then a newline."""
    return "".join("," + format(v, CSV_FMT) for v in values.tolist()
                   ).encode("ascii") + b"\n"


def _csv_rows(values) -> list:
    """Each row of the (m, C) float array as bytes: each v as fmt_csv writes
    it, led by a comma, then a newline."""
    m, C = values.shape
    fast, N, e = _mantissas(values.ravel())
    buf = np.empty((m, 21 * C + 1), np.uint8)
    buf[:, -1] = ord("\n")
    cells = buf[:, :-1].view(_CELL)
    g0, r = np.divmod(N, 10 ** 12)
    g1, r = np.divmod(r, 10 ** 8)
    g2, g3 = np.divmod(r, 10 ** 4)
    for name, col in (("lead", _LEAD[g0]), ("g1", _DIGITS4[g1]),
                      ("g2", _DIGITS4[g2]), ("g3", _DIGITS4[g3]),
                      ("exp", _EXP[e + 8])):
        cells[name] = col.reshape(m, C)
    rows = buf.view(f"S{buf.shape[1]}").ravel().tolist()
    for i in np.flatnonzero(~fast.reshape(m, C).all(1)).tolist():
        rows[i] = _slow_row(values[i])
    return rows


def _write_numeric_csv(path: str, header, labels, values) -> bytes:
    """The header row, then "label,v_1,...,v_C" per row of the (rows, C)
    values with each v as fmt_csv writes it; labels are UTF-8 CSV text.
    Returns the bytes written."""
    values = np.asarray(values, dtype=float)
    step = max(1, _BLOCK // max(1, values.shape[1]))
    parts = [_csv_text([header]).encode("utf-8")]
    for s in range(0, len(values), step):
        rows = _csv_rows(values[s:s + step])
        both = [b""] * (2 * len(rows))
        both[::2] = labels[s:s + step]
        both[1::2] = rows
        parts.append(b"".join(both))
    data = b"".join(parts)
    _atomic_write(path, data)
    return data


@contextmanager
def _file_errors(path: str):
    """Turn a failure to open or read `path`, or a byte of it that is not
    UTF-8, into a ParseError that names the file."""
    try:
        yield
    except OSError as err:
        raise ParseError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        byte = err.object[err.start]
        raise ParseError(f"{path}: not valid UTF-8 (byte 0x{byte:02x}: "
                         f"{err.reason})") from None


def _records(path: str, delimiter: str):
    """The file's CSV records, read one at a time."""
    with _file_errors(path), open(path, encoding="utf-8", newline="") as fh:
        yield from csv.reader(fh, delimiter=delimiter)


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
        with _file_errors(path), open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
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
    labels = [sid + b"," + ct for sid in _csv_fields(map(str, sample_ids))
              for ct in cts]
    values = np.stack([np.asarray(a, dtype=float) for a in (est, lo, hi)], -1)
    _write_numeric_csv(path, ["sample_id", "cell_type", "estimate", "lower",
                              "upper"], labels, values.reshape(-1, 3))


def write_coverage_csv(path: str, report) -> None:
    """Tidy per-replicate coverage: method, cell_type, replicate, coverage,
    mean_width."""
    kept = ~np.isnan(report.per_replicate)       # (replicates, K)
    method = _csv_fields([report.method])[0]
    labels = [method + f",{k},{rep}".encode("utf-8") for (_, rep), row in
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
        data = _write_numeric_csv(os.path.join(out_dir, name), header, ids,
                                  draw_set.draws[m])
        files.append({"name": name, "sha256": hashlib.sha256(data).hexdigest()})
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


def _spans(buf, lo, hi, width):
    """buf[lo[i]:hi[i]] for each i as one row of an S{width} array, padded
    with NUL; buf ends in at least width NULs."""
    out = sliding_window_view(buf, width)[lo]
    out *= np.arange(width) < (hi - lo)[:, None]
    return out.view(f"S{width}").ravel()


def _plain_columns(data: bytes, keys: dict, known: dict):
    """(draw indices, p-values, key ids, blank lines) of a block of whole
    lines, or None unless it is plain (see read_pvalues_csv). A blank line is
    given as the count of records before it in the block. New keys join
    `keys` in order of first appearance once every check has passed; `known`
    maps each key's bytes to its id."""
    if b"\r" in data:                   # csv.reader reads CRLF as LF
        data = data.replace(b"\r\n", b"\n")
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(data))           # the file's last line
    starts = np.concatenate(([0], ends[:-1] + 1))
    full = ends > starts
    commas = np.flatnonzero(buf == ord(","))
    if len(commas) != 3 * np.count_nonzero(full):
        return None
    # each line's three commas lie inside it, between non-empty end fields
    c = commas.reshape(-1, 3).T
    lo = np.stack((starts[full], c[0] + 1, c[2] + 1))
    hi = np.stack((c[0], c[2], ends[full]))
    if not ((lo[0] < hi[0]) & (lo[2] < hi[2])).all():
        return None
    widths = (hi - lo).max(1, initial=1)
    if widths[0] > 18 or widths[1:].max() * lo.shape[1] > 2 * len(data):
        return None                     # beyond int64, or a wasteful gather
    buf = np.concatenate((buf, np.zeros(widths.max(), np.uint8)))
    idx, key, pv = (_spans(buf, a, b, w) for a, b, w in zip(lo, hi, widths))
    if (idx.tobytes().translate(None, _DIGITS)
            or pv.tobytes().translate(None, _DIGITS + b".eE+-")):
        return None
    try:                  # the cast reads exactly what float reads, bitwise
        with np.errstate(over="ignore"):        # 1e999 is inf, as in float
            pv = pv.astype(np.float64)
    except ValueError:
        return None
    if not ((pv >= 0.0) & (pv <= 1.0)).all():
        return None
    uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
    uniq = uniq.tolist()
    for u in np.argsort(first).tolist():
        if uniq[u] not in known:
            known[uniq[u]] = keys.setdefault(
                tuple(uniq[u].decode("utf-8").split(",")), len(keys))
    ids = np.array([known[u] for u in uniq], np.intp)
    digits = idx.view(np.uint8).reshape(-1, widths[0]).T
    idx = np.zeros(len(idx), np.int64)
    for d in digits:                    # NUL pads the digits on the right
        idx = np.where(d, 10 * idx + d - ord("0"), idx)
    blank = np.flatnonzero(~full)
    return idx, pv, ids[inv], blank - np.arange(len(blank))


def read_pvalues_csv(path: str):
    """CSV with columns draw_index, unit_id, cell_type, p_value.

    Returns {(unit_id, cell_type): p-value array ordered by draw_index},
    keys in order of first appearance. Each hypothesis's draw indices must
    be exactly 0..M-1, with M free to differ between hypotheses. An empty
    file yields an empty mapping.

    The file is read once, as bytes a block at a time. A plain block (no
    quote or NUL, and no CR but in a CRLF line end; UTF-8; each line blank or
    4 fields, the index 1 to 18 ASCII digits, the p-value in [0, 1] spelt
    with [0-9.eE+-], where csv.reader, int and float read the same) becomes
    columns in numpy. From the first other block, csv.reader reads the rest
    a block of records at a time: it alone reads quoted fields, lone CR line
    ends and Python number syntax, and names a bad file's first error (see
    FORMATS.md), by record number."""
    keys, known, blocks, blanks, big, kept = {}, {}, [], [], {}, 0

    def fail(j, what):            # kept record j, after the blanks before it
        return ParseError(f"{path}: line {j + 2 + bisect_right(blanks, j)}: "
                          f"{what}")

    def columns(idx, pv, kid):
        """A block's (draw index, p-value) arrays. A block that fails whole
        is walked record by record, to raise at its first bad record."""
        try:
            cols = (np.fromiter(map(int, idx), np.int64, len(pv)),
                    np.fromiter(map(float, pv), float, len(pv)))
            if ((cols[1] >= 0.0) & (cols[1] <= 1.0)).all():
                return cols
        except (ValueError, OverflowError):   # beyond int64 is no valid index
            pass
        names, ints, floats = list(keys), [], []
        for j, (a, b, k) in enumerate(zip(idx, pv, kid), start=kept):
            try:
                v, x = int(a), float(b)
            except ValueError:
                raise fail(j, f"malformed row {[a, *names[k], b]!r}") from None
            if not 0.0 <= x <= 1.0:
                raise fail(j, f"p-value {x} outside [0, 1]")
            big[j] = v                    # exact where int64 clamps it
            ints.append(min(max(v, -1 << 63), (1 << 63) - 1))
            floats.append(x)
        return np.array(ints, np.int64), np.array(floats)

    with _file_errors(path), open(path, "rb") as raw:
        head = raw.read(len(_PVALUE_CRLF))
        at = (len(_PVALUE_LINE) if head.startswith(_PVALUE_LINE) else
              len(head) if head in (_PVALUE_CRLF, _PVALUE_LINE[:-1])
              else 0)
        raw.seek(at)
        data = raw.read(_PVALUE_BYTES) if at else b""
        while data:                 # at: bytes read as plain blocks
            more = raw.read(_PVALUE_BYTES)
            cut = data.rfind(b"\n") + 1 if more else len(data)
            got = _plain_columns(data[:cut], keys, known) if cut else None
            if got is None:
                break
            blocks.append(got[:3])
            blanks.extend((got[3] + kept).tolist())
            kept += len(got[1])
            at += cut
            data = data[cut:] + more
        if data or not at:          # hand the rest to csv.reader
            raw.seek(at)
            reader = csv.reader(TextIOWrapper(raw, encoding="utf-8",
                                              newline=""))
            if not at and next(reader, PVALUE_HEADER) != PVALUE_HEADER:
                raise ParseError(f"{path}: line 1: expected header "
                                 f"{','.join(PVALUE_HEADER)}")
            while True:
                start, kid, idx, pv = reader.line_num, [], [], []
                for row in islice(reader, _PVALUE_BLOCK):
                    if len(row) == 4:
                        idx.append(row[0])
                        pv.append(row[3])
                        kid.append(keys.setdefault((row[1], row[2]),
                                                   len(keys)))
                    elif row:
                        columns(idx, pv, kid)  # earlier bad record wins
                        raise fail(kept + len(pv), f"expected 4 fields, "
                                                   f"found {len(row)}")
                    else:
                        blanks.append(kept + len(pv))
                blocks.append((*columns(idx, pv, kid),
                               np.array(kid, np.intp)))
                kept += len(pv)
                if reader.line_num == start:      # no record was left
                    break
    if not kept:
        return {}
    idx, pv, kid = (np.concatenate(c) for c in zip(*blocks))
    # a valid hypothesis has distinct indices, so p-values never break a tie
    # that matters; sorting by them as well costs 20x the time
    order = np.lexsort((idx, kid))
    counts = np.bincount(kid)
    ends = np.cumsum(counts)
    expected = np.arange(len(pv)) - np.repeat(ends - counts, counts)
    bad = np.flatnonzero(idx[order] != expected)
    if not bad.size:
        return dict(zip(keys, np.split(pv[order], ends[:-1])))
    # the first hypothesis to fail, its indices exact even beyond int64
    k = kid[order[bad[0]]]
    js = np.flatnonzero(kid == k).tolist()
    exact = [big.get(j, v) for j, v in zip(js, idx[js].tolist())]
    srt = sorted(exact)
    m = next(m for m, v in enumerate(srt) if v != m)
    dup = m > 0 and srt[m] == srt[m - 1]
    lines = [j for j, v in zip(js, exact) if v == srt[m]]
    what = "duplicate" if dup else f"expected {m}, found"
    unit, ct = list(keys)[k]
    raise fail(lines[dup], f"{what} draw_index {srt[m]} for unit {unit!r}, "
                           f"cell type {ct!r}")


def write_calls_csv(path: str, decisions) -> None:
    rows = [CALLS_HEADER]
    for d in decisions:
        rows.append([d.unit_id, d.cell_type, str(d.hits), str(d.cutoff),
                     "true" if d.called else "false"])
    write_csv_rows(path, rows)
