"""Typed in-memory tables and the source/target dataset collection."""

from __future__ import annotations

import csv
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


def _type_column(raw: list, colname: str, path: str, line_of) -> np.ndarray:
    """Type a raw string column: numeric iff every cell parses as float."""
    parsed = np.empty(len(raw), dtype=np.float64)
    numeric = True
    first_bad = None
    n_ok = 0
    for i, cell in enumerate(raw):
        try:
            parsed[i] = float(cell)
            n_ok += 1
        except ValueError:
            numeric = False
            if first_bad is None:
                first_bad = i
    if numeric:
        return parsed
    if n_ok > 0:
        raise IngestError(
            f"{path}: line {line_of(first_bad)}, column {colname!r}: "
            f"unparseable numeric cell {raw[first_bad]!r}"
        )
    return np.asarray(raw, dtype=object)


def read_csv_table(path: str | Path, name: str | None = None) -> Table:
    """Read a headered CSV into a typed Table.

    Errors name the file, line, and column involved: empty files, non-UTF8
    bytes, ragged rows, and cells that break an otherwise numeric column.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except FileNotFoundError:
        raise IngestError(f"{path}: file not found") from None
    kept = [
        (i + 1, ln)
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.startswith("#")
    ]
    if not kept:
        raise IngestError(f"{path}: empty file")
    line_numbers = [n for n, _ in kept]
    rows = list(csv.reader([ln for _, ln in kept]))
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise IngestError(f"{path}: duplicate column names in header")
    body = rows[1:]
    body_lines = line_numbers[1:]
    if not body:
        raise IngestError(f"{path}: no data rows")
    for i, r in enumerate(body):
        if len(r) != len(header):
            raise IngestError(
                f"{path}: line {body_lines[i]}: expected {len(header)} fields, got {len(r)}"
            )
    cols = {}
    for j, colname in enumerate(header):
        raw = [r[j].strip() for r in body]
        cols[colname] = _type_column(raw, colname, str(path), lambda i: body_lines[i])
    return Table(name or path.stem, tuple(header), cols)


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


def _cells(col: np.ndarray):
    if col.dtype.kind == "f":
        return (format(v, ".17g") for v in col)
    return map(str, col)


def write_csv_table(table: Table, path: str | Path, comment: str) -> None:
    """Write a table as CSV atomically, floats at 17 significant digits.

    ``comment`` becomes the first line, ``# <comment>``, which
    ``read_csv_table`` skips. Rows are streamed, never built as one string.
    """
    with atomic_open(path) as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(zip(*(_cells(table.data[c]) for c in table.columns)))
