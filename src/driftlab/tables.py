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

    ``columns`` preserves declared order; numeric columns are float64 arrays,
    categorical columns are object arrays of strings.
    """

    name: str
    columns: tuple[str, ...]
    data: dict = field(repr=False)

    def __post_init__(self):
        n = None
        for col in self.columns:
            arr = self.data[col]
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError(f"column {col!r} has inconsistent length")

    @property
    def n_rows(self) -> int:
        return len(self.data[self.columns[0]]) if self.columns else 0

    def is_numeric(self, col: str) -> bool:
        return self.data[col].dtype.kind == "f"

    def column(self, col: str) -> np.ndarray:
        if col not in self.data:
            raise IngestError(f"table {self.name!r} has no column {col!r}")
        return self.data[col]

    @staticmethod
    def from_arrays(name: str, **cols) -> "Table":
        data = {}
        names = []
        for key, values in cols.items():
            arr = np.asarray(values)
            if arr.dtype.kind in "fiu":
                arr = arr.astype(np.float64)
            else:
                arr = arr.astype(object)
            data[key] = arr
            names.append(key)
        return Table(name, tuple(names), data)


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
            have = set(tbl.columns) - ({self.outcome} if self.outcome else set())
            if have != covs:
                diff = sorted(have.symmetric_difference(covs))
                raise IngestError(
                    f"source {tbl.name!r} covariate schema mismatch; differing columns: {diff}"
                )
            if self.outcome and self.outcome not in tbl.columns:
                raise IngestError(f"source {tbl.name!r} lacks outcome column {self.outcome!r}")
            if tbl.n_rows < 2:
                raise IngestError(f"source {tbl.name!r} needs at least 2 rows")
        if self.target.n_rows < 1:
            raise IngestError("target table is empty")

    @property
    def covariates(self) -> tuple[str, ...]:
        # Target schema defines the covariates; outcome never counts.
        return tuple(c for c in self.target.columns if c != self.outcome)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(tbl.n_rows for tbl in self.sources)

    def source_names(self) -> tuple[str, ...]:
        return tuple(tbl.name for tbl in self.sources)


def _is_number(cell: str) -> bool:
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


def _type_column(raw: tuple[str, ...], colname: str, path: str, lines: list[int]) -> np.ndarray:
    """Type a raw string column: numeric iff every stripped cell parses as float."""
    try:
        # numpy parses each str with Python's float(), so this is the per-cell
        # rule at C speed; float() itself ignores surrounding whitespace.
        return np.array(raw, dtype=np.float64)
    except ValueError:
        pass
    cells = [c.strip() for c in raw]
    distinct = set(cells)
    bad = {value for value in distinct if not _is_number(value)}
    if not bad:
        # the raw cells failed only on whitespace that str.strip() removes
        # but float() rejects, such as "\x1f"
        return np.array(cells, dtype=np.float64)
    if bad == distinct:
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


def read_csv_table(path: str | Path, name: str | None = None) -> Table:
    """Read a headered CSV into a typed Table.

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
    stripped strings). A column where some cells parse and others do not is
    an error naming the first cell that does not.

    Errors name the file, line (where the record ends), and column involved:
    empty files, non-UTF8 bytes, ragged rows, oversized cells, and cells that
    break an otherwise numeric column.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except FileNotFoundError:
        raise IngestError(f"{path}: file not found") from None
    cols = None if '"' in text else _loadtxt_columns(text, str(path))
    if cols is None:
        header, raw_columns, numbers = _quoted_records(text, str(path))
        if not numbers:
            raise IngestError(f"{path}: no data rows")
        cols = {
            colname: _type_column(raw, colname, str(path), numbers)
            for colname, raw in zip(header, raw_columns)
        }
    return Table(name or path.stem, tuple(cols), cols)


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


def _cells(col: np.ndarray, first: bool, end: str):
    """A column's cells as written, each followed by ``end``."""
    if col.dtype.kind == "f":
        return map(("{:.17g}" + end).format, col.tolist())
    labels = col.tolist()
    # quoting is decided once per distinct label, not once per cell
    written = {label: _quoted(str(label), first) + end for label in set(labels)}
    return map(written.__getitem__, labels)


def write_csv_table(table: Table, path: str | Path, comment: str) -> None:
    """Write a table as CSV atomically, floats at 17 significant digits.

    ``comment`` becomes the first line, ``# <comment>``, which
    ``read_csv_table`` skips. Cells are quoted as ``_quoted`` says, so
    ``read_csv_table`` reads every table back as written, categorical
    labels stripped. Rows are streamed, never built as one string.
    """
    # the last column's cells carry the line end, so each row is one join
    last = len(table.columns) - 1
    cells = [
        _cells(table.data[c], j == 0, "\n" if j == last else "")
        for j, c in enumerate(table.columns)
    ]
    with atomic_open(path) as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(_quoted(c, j == 0) for j, c in enumerate(table.columns)) + "\n")
        fh.writelines(map(",".join, zip(*cells)))
