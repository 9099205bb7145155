import csv
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.tables import (
    IngestError,
    Table,
    atomic_open,
    atomic_write,
    read_csv_table,
    write_csv_table,
)

FIXTURE = Path(__file__).parent / "data" / "fixture_panel"


@pytest.mark.parametrize("name", ["source_1", "source_2", "source_3", "source_4", "target"])
def test_fixture_csv_round_trips_byte_for_byte(tmp_path, name):
    original = (FIXTURE / f"{name}.csv").read_bytes()
    first_line = original.decode("utf-8").split("\n", 1)[0]
    assert first_line.startswith("# ")
    out = tmp_path / f"{name}.csv"
    write_csv_table(read_csv_table(FIXTURE / f"{name}.csv"), out, first_line[2:])
    assert out.read_bytes() == original


def test_categorical_cells_with_delimiters_round_trip(tmp_path):
    labels = np.array(['a,b', 'say "hi"', "plain"], dtype=object)
    table = Table.from_arrays("t", x=[1.5, 0.1, -2.0], label=labels)
    path = tmp_path / "t.csv"
    write_csv_table(table, path, "stamp")
    assert path.read_text(encoding="utf-8") == (
        '# stamp\nx,label\n1.5,"a,b"\n0.10000000000000001,"say ""hi"""\n-2,plain\n'
    )
    back = read_csv_table(path)
    assert list(back.column("label")) == list(labels)
    assert np.array_equal(back.column("x"), table.column("x"))


@pytest.mark.parametrize(
    "label", ["a\nb", "a\r\nb", "a\x85b", "a\x1cb", "a\u2028b", "a\x0cb"]
)
def test_categorical_cells_with_line_breaks_round_trip(tmp_path, label):
    # only \n, \r\n and \r end a CSV line; the others are cell text
    table = Table.from_arrays("t", label=np.array([label, "plain"], dtype=object), x=[1.0, 2.0])
    path = tmp_path / "t.csv"
    write_csv_table(table, path, "stamp")
    back = read_csv_table(path)
    assert list(back.column("label")) == [label, "plain"]
    assert np.array_equal(back.column("x"), [1.0, 2.0])


def test_errors_after_a_multiline_cell_name_the_physical_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b'# stamp\nx,label\n1,"a\nb"\n2\n')
    with pytest.raises(IngestError, match=r"t\.csv: line 5: expected 2 fields, got 1"):
        read_csv_table(path)


def test_interrupted_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def typed_columns_reference(path):
    """The per-cell definition: strip each cell, then ``float()`` it.

    A column is numeric iff every cell parses, categorical iff none does,
    and otherwise an error at its first unparseable cell.
    """
    text = Path(path).read_text(encoding="utf-8")
    kept = [
        (i + 1, ln)
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.startswith("#")
    ]
    rows = list(csv.reader([ln for _, ln in kept]))
    lines = [n for n, _ in kept][1:]
    out = {}
    for j, name in enumerate(h.strip() for h in rows[0]):
        cells = [r[j].strip() for r in rows[1:]]
        values = []
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                values.append(None)
        if None not in values:
            out[name] = np.array(values, dtype=np.float64)
        elif all(v is None for v in values):
            out[name] = np.array(cells, dtype=object)
        else:
            i = values.index(None)
            raise IngestError(
                f"{path}: line {lines[i]}, column {name!r}: "
                f"unparseable numeric cell {cells[i]!r}"
            )
    return out


# "\x1f" is whitespace to str.strip() but not to float().
_PAD = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x1f"])
_NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**7), 10**7).map(lambda v: f"{v:_}"),
    st.sampled_from(["1_000", "inf", "-inf", "nan", "-nan", "NaN", "Infinity", "1e500", "-0.0"]),
)
_LABEL = st.text(alphabet="bcdgkm", min_size=1, max_size=5)
_FILLER = st.sampled_from(["", "   ", "# comment", "#x,y"])


@st.composite
def _cell(draw, value):
    text = draw(_PAD) + value + draw(_PAD)
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def csv_texts(draw):
    """CSV text with numeric, categorical and one-bad-cell numeric columns."""
    n_rows = draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical", "mixed"]),
                          min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        values = draw(st.lists(_LABEL if kind == "categorical" else _NUMBER,
                               min_size=n_rows, max_size=n_rows))
        if kind == "mixed":
            values[draw(st.integers(0, n_rows - 1))] = draw(_LABEL)
        columns.append([draw(_cell(v)) for v in values])
    lines = draw(st.lists(_FILLER, max_size=2))
    lines.append(",".join(f"c{j}" for j in range(len(kinds))))
    for row in zip(*columns):
        lines.extend(draw(st.lists(_FILLER, max_size=2)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_reader_matches_the_per_cell_float_definition(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(text, encoding="utf-8")
    try:
        expected = typed_columns_reference(path)
    except IngestError as exc:
        with pytest.raises(IngestError) as got:
            read_csv_table(path)
        assert str(got.value) == str(exc)
        return
    table = read_csv_table(path)
    assert table.columns == tuple(expected)
    for name, want in expected.items():
        have = table.column(name)
        assert have.dtype == want.dtype
        if want.dtype.kind == "f":
            assert have.tobytes() == want.tobytes()
        else:
            assert list(have) == list(want)
