"""Typed in-memory tables and the source/target dataset collection."""

from __future__ import annotations

import csv
import io
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "Table",
    "finite_column",
    "DatasetCollection",
    "read_csv_table",
    "write_csv_table",
    "atomic_open",
    "atomic_write",
    "IngestError",
]


class IngestError(ValueError):
    """Raised for malformed input files or inconsistent schemas."""


@dataclass(frozen=True)
class Table:
    """Column-typed numeric/categorical table.

    ``data`` maps each column name to its values, in column order. The
    table keeps its own copy of the dict, typed column by column: integers
    and floats become float64 arrays, everything else (strings, bools) an
    object array.
    """

    name: str
    data: dict = field(repr=False)

    def __post_init__(self):
        data = {}
        for col, values in self.data.items():
            arr = np.asarray(values)
            data[col] = arr.astype(np.float64 if arr.dtype.kind in "fiu" else object, copy=False)
        lengths = {col: len(arr) for col, arr in data.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"table {self.name!r} has columns of unequal lengths {lengths}")
        object.__setattr__(self, "data", data)

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self.data)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.data.values()), ()))

    def is_numeric(self, col: str) -> bool:
        return self.data[col].dtype.kind == "f"

    def column(self, col: str) -> np.ndarray:
        if col not in self.data:
            raise IngestError(f"table {self.name!r} has no column {col!r}")
        return self.data[col]


def finite_column(tbl: Table, col: str, role: str) -> np.ndarray:
    """Column ``col`` of ``tbl``, which must hold only finite numbers; an
    error names the ``role`` the column plays, and the first bad row."""
    values = tbl.column(col)
    if not tbl.is_numeric(col):
        raise IngestError(f"{role} {col!r} of table {tbl.name!r} is not numeric")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise IngestError(f"{role} {col!r} holds a non-finite value on dataset "
                          f"{tbl.name!r} at row {bad[0]}")
    return values


@dataclass(frozen=True)
class DatasetCollection:
    """K fully observed source tables plus one covariate-only target table.

    All tables share the covariate schema; sources additionally share the
    outcome column (when one is declared). Each source needs at least two
    rows so that variances are estimable.
    """

    sources: tuple[Table, ...]
    target: Table
    outcome: str | None = None

    def __post_init__(self):
        if not self.sources:
            raise IngestError("need at least one source dataset")
        covs = set(self.covariates)
        for tbl in self.sources:
            # a missing outcome first: its source may hold another outcome,
            # which the covariate diff would name instead
            if self.outcome and self.outcome not in tbl.columns:
                raise IngestError(f"source {tbl.name!r} lacks outcome column {self.outcome!r}")
            have = set(tbl.columns) - ({self.outcome} if self.outcome else set())
            if have != covs:
                diff = sorted(have.symmetric_difference(covs))
                raise IngestError(
                    f"source {tbl.name!r} covariate schema mismatch; differing columns: {diff}"
                )
            if tbl.n_rows < 2:
                raise IngestError(f"source {tbl.name!r} needs at least 2 rows")
        if self.target.n_rows < 1:
            raise IngestError("target table is empty")

    @property
    def covariates(self) -> tuple[str, ...]:
        # Target schema defines the covariates; outcome never counts.
        return tuple(c for c in self.target.columns if c != self.outcome)

    @property
    def numeric_covariates(self) -> tuple[str, ...]:
        """Covariates numeric in the target: erm's and fit's default columns."""
        return tuple(c for c in self.covariates if self.target.is_numeric(c))

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(tbl.n_rows for tbl in self.sources)

    @property
    def source_names(self) -> tuple[str, ...]:
        return tuple(tbl.name for tbl in self.sources)


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


def _type_column(raw: tuple[str, ...], colname: str, path: str, lines: list[int]) -> np.ndarray:
    """Type a raw string column: numeric iff every stripped cell parses as float.

    The cells of a categorical column share one ``str`` per distinct label.
    """
    try:
        # numpy parses each str with Python's float(), so this is the per-cell
        # rule at C speed; float() itself ignores surrounding whitespace.
        return np.array(raw, dtype=np.float64)
    except ValueError:
        pass
    # each distinct stripped cell maps to its first copy; a copy per cell
    # would stay alive with the table and keep the memory pools that held the
    # file's lines from going back to the system
    distinct: dict[str, str] = {}
    canonical = distinct.setdefault
    cells = [canonical(c, c) for c in map(str.strip, raw)]
    bad = {value for value in distinct if not _is_number(value)}
    if not bad:
        # the raw cells failed only on whitespace that str.strip() removes
        # but float() rejects, such as "\x1f"
        return np.array(cells, dtype=np.float64)
    if len(bad) == len(distinct):
        return np.array(cells, dtype=object)
    first_bad = next(i for i, c in enumerate(cells) if c in bad)
    raise IngestError(
        f"{path}: line {lines[first_bad]}, column {colname!r}: "
        f"unparseable numeric cell {cells[first_bad]!r}"
    )


def _header(fields, path: str) -> list[str]:
    header = [h.strip() for h in fields]
    if not header:
        raise IngestError(f"{path}: empty file")
    if len(set(header)) != len(header):
        raise IngestError(f"{path}: duplicate column names in header")
    return header


def _ragged(path: str, line: int, want: int, got: int) -> IngestError:
    return IngestError(f"{path}: line {line}: expected {want} fields, got {got}")


def _loadtxt_columns(text: str, path: str) -> dict | None:
    """Typed columns of text without a ``"``, split and typed by ``np.loadtxt``.

    Records are the lines ``_quoted_records`` would keep. A column is
    float64 when its first cell is a number; other columns go through
    ``_type_column``. Returns None, leaving the text to ``_quoted_records``,
    where a line is over the field limit, or numpy or the typing refuses it:
    a ragged row, a cell numpy cannot convert (``1_000``), a mixed column.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    numbers = [i for i, ln in enumerate(lines, 1) if ln.strip() and not ln.startswith("#")]
    records = [lines[i - 1] for i in numbers]
    if len(records) < 2 or max(map(len, records)) > csv.field_size_limit():
        return None
    first = records[1].split(",")
    try:
        header = _header(records[0].split(","), path)
        if len(header) != len(first):
            return None
        kinds = [(f"c{j}", float if _is_number(c) else object) for j, c in enumerate(first)]
        fields = np.loadtxt(
            records[1:], dtype=kinds, delimiter=",", comments=None, ndmin=1, unpack=True
        )
        # unpack gives strided views into one record array; copy the floats out
        return {
            name: np.ascontiguousarray(col)
            if col.dtype.kind == "f"
            else _type_column(col, name, path, numbers[1:])
            for name, col in zip(header, fields)
        }
    except ValueError:  # an IngestError from _header or _type_column too
        return None


def _quoted_records(text: str, path: str):
    """Header, raw columns and body line numbers, records found by ``csv.reader``.

    Blank and ``#`` lines are skipped only where a record starts, so a quoted
    cell keeps every line it spans.
    """
    line, at_start = 0, True

    def kept_lines():
        nonlocal line, at_start
        # newline="" keeps each line's end, so csv.reader sees a quoted
        # cell's line breaks
        for ln in io.StringIO(text, newline=""):
            line += 1
            if at_start and (not ln.strip() or ln.startswith("#")):
                continue
            at_start = False
            yield ln

    # csv.reader pulls lines only until its record is complete, so the next
    # line it asks for starts a record
    reader = csv.reader(kept_lines())
    try:
        header = _header(next(reader, ()), path)
        body, numbers = [], []
        at_start = True
        for row in reader:
            # a record's line is the physical line where it ends
            if len(row) != len(header):
                raise _ragged(path, line, len(header), len(row))
            body.append(row)
            numbers.append(line)
            at_start = True
    except csv.Error as exc:
        raise IngestError(f"{path}: line {line}: {exc}") from None
    return header, list(zip(*body)), numbers


_BOM_UTF8 = b"\xef\xbb\xbf"  # codecs.BOM_UTF8


def read_csv_table(path: str | Path) -> Table:
    """Read a headered CSV into a typed Table named after the file's stem.

    Lines end at LF, CRLF or CR only. A record is one line, or more when a
    quoted cell holds line breaks; blank lines and lines starting with ``#``
    are skipped where a record would start, never inside a quoted cell. A
    cell may hold at most 131072 characters (``csv.field_size_limit()``).
    numpy's C reader (``np.loadtxt``) splits and types text without a
    ``"``; any text it refuses, and all other text, goes through
    ``csv.reader``, which gives the same table and the same errors. The
    two agree because numpy converts a number by stripping Unicode
    whitespace and parsing the rest with ``PyOS_string_to_double``, the
    parser ``float()`` calls; the cells it refuses (``1_000``, non-ASCII
    digits) are left to ``csv.reader``.

    A column is numeric (float64) iff every cell, stripped of surrounding
    whitespace, parses with Python's ``float()``, so ``1_000``, ``inf`` and
    ``nan`` are numbers. A column where no cell parses is categorical (the
    stripped strings, one ``str`` object per distinct label shared by its
    cells). A column where some cells parse and others do not is
    an error naming the first cell that does not.

    One leading UTF-8 byte-order mark is skipped. Errors name the file, line
    (where the record ends), and column involved: empty files, non-UTF8
    bytes (at their offset from the start of the file), ragged rows,
    oversized cells, and cells that break an otherwise numeric column.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc.strerror})") from None
    # one leading byte-order mark is not text; error offsets still count it
    bom = len(_BOM_UTF8) if raw.startswith(_BOM_UTF8) else 0
    try:
        text = raw[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not valid UTF-8 ({exc.reason} at byte "
                          f"{bom + exc.start})") from exc
    del raw  # the text is all that is read from here on
    cols = None if '"' in text else _loadtxt_columns(text, str(path))
    if cols is None:
        header, raw_columns, numbers = _quoted_records(text, str(path))
        if not numbers:
            raise IngestError(f"{path}: no data rows")
        cols = {
            colname: _type_column(raw, colname, str(path), numbers)
            for colname, raw in zip(header, raw_columns)
        }
    return Table(path.stem, cols)


@contextmanager
def atomic_open(path: str | Path):
    """Open ``path`` for writing UTF-8 text through a temp file beside it.

    The text appears at ``path`` (by ``os.replace``) only if the block exits
    normally; otherwise the temp file is removed. Line ends are written as
    given. The file gets the mode a plain ``open`` would give it (0666 less
    the umask), not mkstemp's 0600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str | Path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _quoted(cell: str, first: bool) -> str:
    """``cell`` as written: quoted only where reading it back needs it.

    A ``,``, ``"``, LF or CR needs quotes anywhere. A first cell that starts
    with ``#`` or is only whitespace needs them too, or its line would read
    back as a comment or a blank line.
    """
    if any(c in cell for c in ',"\n\r') or first and (cell.startswith("#") or not cell.strip()):
        return '"' + cell.replace('"', '""') + '"'
    return cell


# 5**k for k in [0, 27]: 10**k = 5**k * 2**k, and 5**27 < 2**63
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)
_U = np.uint64  # every integer operand is uint64: numpy 1.x turns uint64 with int64 into float64


def _scaled(m, e, exp10):
    """floor(m * 2**e * 10**(16 - exp10)), and whether it rounds up (half to even).

    ``m`` < 2**53; the product m * 5**k is formed exactly as a 128-bit
    (hi, lo) pair from 32-bit halves, then shifted by e + k.
    """
    k = 16 - exp10
    p = _POW5[k]
    m1, m0 = m >> _U(32), m & _U(0xFFFFFFFF)
    p1, p0 = p >> _U(32), p & _U(0xFFFFFFFF)
    mid = m1 * p0 + m0 * p1  # < 2**53 + 2**63
    low = m0 * p0
    lo = low + (mid << _U(32))
    hi = m1 * p1 + (mid >> _U(32)) + (lo < low)
    shift = e + k
    s = np.clip(-shift, 1, 63).astype(np.uint64)
    q = (hi << (_U(64) - s)) | (lo >> s)
    rest, half = lo & ((_U(1) << s) - _U(1)), _U(1) << (s - _U(1))
    up = (rest > half) | (rest == half) & (q & _U(1)).astype(bool)
    exact = shift >= 0  # an integer times 2**shift: shift left, nothing to round
    q = np.where(exact, lo << np.clip(shift, 0, 63).astype(np.uint64), q)
    return q, up & ~exact


def _digits(a: np.ndarray):
    """The 17 significant digits of each ``a`` in [1e-4, 1e16), correctly
    rounded (half to even) as ``"{:.17g}"`` rounds them, and the decimal
    exponent E of the leading one."""
    frac, e = np.frexp(a)
    m = (frac * 2.0**53).astype(np.uint64)
    e = e.astype(np.int64) - 53
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    q, up = _scaled(m, e, exp10)
    # log10 can be one off next to a power of ten
    off = np.flatnonzero((q < _U(10**16)) | (q >= _U(10**17)))
    if off.size:
        exp10[off] += np.where(q[off] >= _U(10**17), 1, -1)
        q[off], up[off] = _scaled(m[off], e[off], exp10[off])
    # q + up never reaches 10**17: no double lies within half a unit of the
    # 17th digit below a power of ten from 1e-3 to 1e16
    d = q + up
    top = d // _U(10**9)
    v = np.stack([top, d - top * _U(10**9)], axis=1)  # two 9-digit halves, < 2**32
    digits = np.empty((len(a), 2, 9), np.uint8)
    for i in range(8, -1, -1):
        q = (v * _U(0xCCCCCCCD)) >> _U(35)  # v // 10 for v < 2**32
        digits[:, :, i] = v - q * _U(10)
        v = q
    return digits.reshape(len(a), 18)[:, 1:], exp10


def _float_slot(col: np.ndarray, end: str):
    """The width of a float column's slot and the function that fills a chunk
    of it: each cell as ``"{:.17g}".format`` writes it, then ``end``.

    Finite x with 1e-4 <= |x| < 1e16 is written in plain form from
    ``_digits``; every other float (±0, nan, ±inf, the exponent form) by
    ``"{:.17g}".format``.
    """
    col = col.astype(np.float64)
    # A slot holds the sign, "0.000" (for E < 0), 18 places for the digits
    # and the "." after the integer part (for E >= 0), and ``end``. Its bytes,
    # and which are kept, depend only on the sign, the exponent E in [-4, 15]
    # and the index of the last digit written, so they are tabulated over
    # those, at row (sign * 20 + E + 4) * 17 + last.
    sign, exp10, last = (
        g.reshape(-1, 1) for g in np.meshgrid([0, 1], range(-4, 16), range(17), indexing="ij")
    )
    place = np.arange(25) - 6  # a digit place, or the prefix below 0
    point = np.where(exp10 >= 0, exp10 + 1, 99)  # the place of the "."; none for E < 0
    digit = (place >= 0) & (place < 18)
    # a place after the "." holds the digit before it, so a cell's kept bytes
    # form a few runs, which mat[keep] copies fastest
    here = (digit & (place < point)).astype(np.uint8)
    after = (digit & (place > point)).astype(np.uint8)
    fixed = np.frombuffer(b"-0.000" + bytes(18) + end.encode(), np.uint8) + np.where(
        place == point, ord("."), 0
    ).astype(np.uint8)
    kept = np.select(
        [place == -6, place < -3, place < 0, place < 18],
        [sign == 1, exp10 < 0, place + 4 < -exp10,
         place <= last + ((exp10 >= 0) & (last > exp10))],
        True,
    )
    width = len(place)  # fits the longest "{:.17g}" text, 24 bytes, and end

    def fill(rows, mat, keep):
        x = col[rows]
        a = np.abs(x)
        fast = (a >= 1e-4) & (a < 1e16)  # false for nan
        digits, exp10 = _digits(np.where(fast, a, 1.0))
        # the last digit written: the last nonzero one, or the last before the point
        last = np.maximum(16 - np.argmax(digits[:, ::-1] != 0, axis=1), exp10)
        row = (np.signbit(x) * 20 + exp10 + 4) * 17 + last
        ext = np.zeros((len(x), width + 1), np.uint8)
        ext[:, 7:24] = digits + ord("0")
        mat[:] = (np.take(here, row, axis=0) * ext[:, 1:] + np.take(after, row, axis=0) * ext[:, :-1]
                  + np.take(fixed, row, axis=0))
        keep[:] = np.take(kept, row, axis=0)
        for i in np.flatnonzero(~fast):
            text = ("{:.17g}" + end).format(x[i]).encode()
            mat[i, : len(text)] = np.frombuffer(text, np.uint8)
            keep[i] = np.arange(width) < len(text)

    return width, fill


def _label_slot(col: np.ndarray, first: bool, end: str):
    """The width of a categorical column's slot and the function that fills
    a chunk of it: each cell as written, then ``end``."""
    labels = col.tolist()
    # quoting is decided once per distinct label, not once per cell
    index = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    codes = np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
    written = [(_quoted(str(label), first) + end).encode() for label in index]
    width = max(map(len, written), default=0)
    texts = np.zeros((len(written), width), np.uint8)
    for i, text in enumerate(written):
        texts[i, : len(text)] = np.frombuffer(text, np.uint8)
    kept = np.arange(width) < np.array([len(text) for text in written]).reshape(-1, 1)

    def fill(rows, mat, keep):
        mat[:] = texts[codes[rows]]
        keep[:] = kept[codes[rows]]

    return width, fill


_CHUNK = 8192


def write_csv_table(table: Table, path: str | Path, comment: str) -> None:
    """Write a table as CSV atomically, each float as ``"{:.17g}".format`` writes it.

    ``comment`` becomes the first line, ``# <comment>``, which
    ``read_csv_table`` skips. Cells are quoted as ``_quoted`` says, so
    ``read_csv_table`` reads every table back as written, categorical
    labels stripped. Rows go out in chunks of 8192, each built as one byte
    matrix and a mask of the bytes kept. A chunk's floats in the range
    1e-4 <= |x| < 1e16, where ``"{:.17g}"`` gives the plain form, are
    formatted together by an exact integer kernel; ±0, nan, ±inf and the
    other floats one at a time.
    """
    last = len(table.columns) - 1
    slots, width = [], 0
    for j, c in enumerate(table.columns):
        col, end = table.data[c], "\n" if j == last else ","
        size, fill = _float_slot(col, end) if col.dtype.kind == "f" else _label_slot(col, j == 0, end)
        slots.append((slice(width, width + size), fill))
        width += size
    with atomic_open(path) as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(_quoted(c, j == 0) for j, c in enumerate(table.columns)) + "\n")
        for start in range(0, table.n_rows, _CHUNK):
            rows = slice(start, start + _CHUNK)
            n = min(_CHUNK, table.n_rows - start)
            mat, keep = np.empty((n, width), np.uint8), np.empty((n, width), bool)
            for at, fill in slots:
                fill(rows, mat[:, at], keep[:, at])
            fh.write(mat[keep].tobytes().decode("utf-8"))
