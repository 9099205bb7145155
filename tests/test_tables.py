import csv
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import tables
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
    "label",
    ["a\nb", "a\r\nb", "a\x85b", "a\x1cb", "a\u2028b", "a\x0cb", "a\rb", "#a", "a\n\nb", "a\n#b"],
)
def test_categorical_cells_with_line_breaks_round_trip(tmp_path, label):
    # only \n, \r\n and \r end a CSV line; the others are cell text. A
    # blank or "#" line inside a quoted cell is cell text too.
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


def test_writer_quotes_only_cells_that_need_it(tmp_path):
    # a first cell that is blank or starts with "#" would be skipped on
    # reading; in any other column it reads back as written
    table = Table.from_arrays(
        "t",
        a=np.array(["#a", " ", "", "a\rb", "x#"], dtype=object),
        b=np.array(["#b", " ", "", "p q", "y"], dtype=object),
    )
    path = tmp_path / "t.csv"
    write_csv_table(table, path, "stamp")
    assert path.read_bytes() == (
        b'# stamp\na,b\n"#a",#b\n" ", \n"",\n"a\rb",p q\nx#,y\n'
    )
    back = read_csv_table(path)
    assert list(back.column("a")) == ["#a", "", "", "a\rb", "x#"]
    assert list(back.column("b")) == ["#b", "", "", "p q", "y"]


def per_cell_csv(table, comment):
    """The text ``write_csv_table`` must give, built one cell at a time:
    each float by ``"{:.17g}".format``, each label by ``tables._quoted``."""
    last = len(table.columns) - 1

    def cells(col, first, end):
        if col.dtype.kind == "f":
            return [("{:.17g}" + end).format(v) for v in col.tolist()]
        return [tables._quoted(str(label), first) + end for label in col.tolist()]

    columns = [cells(table.data[c], j == 0, "\n" if j == last else "")
               for j, c in enumerate(table.columns)]
    header = ",".join(tables._quoted(c, j == 0) for j, c in enumerate(table.columns))
    return f"# {comment}\n{header}\n" + "".join(map(",".join, zip(*columns)))


def written_floats(path, values):
    """The cells ``write_csv_table`` writes for ``values`` as one float column."""
    write_csv_table(Table("t", ("x",), {"x": np.asarray(values, dtype=np.float64)}), path, "c")
    return path.read_text(encoding="utf-8").split("\n")[2:-1]


def format_17g(values):
    return ["{:.17g}".format(v) for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_floats_are_written_as_format_17g_writes_them(tmp_path_factory, values):
    # st.floats() draws nan, ±inf, ±0 and subnormals too
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert written_floats(path, values) == format_17g(values)


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_bit_patterns_are_written_as_format_17g_writes_them(tmp_path_factory, bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    assert written_floats(path, values) == format_17g(values)


def _half_way_floats():
    """Floats whose 17-digit rounding is an exact tie, with exponents 15 down
    to -4: x = h / 2**(k+1) with h odd puts x * 10**k half-way between
    integers. h and h + 2 round in opposite directions under half to even."""
    for k in range(1, 21):
        for c in (1, 2, 3):
            h = (c * 10**16 * 2 ** (k + 1) // 10**k + 1) | 1  # x >= c * 10**(16-k)
            yield from (v / 2 ** (k + 1) for v in (h, h + 2) if v < 2**53)


def test_edge_floats_are_written_as_format_17g_writes_them(tmp_path):
    points = [0.0, 1e-4, 1e16, 2.0**53, 1234567890123456.75]
    points += [float(f"1e{e}") for e in range(-5, 18)]
    points += list(_half_way_floats())
    values = np.array(points)
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    values = np.concatenate([values, -values])
    assert written_floats(tmp_path / "t.csv", values) == format_17g(values)


@pytest.mark.parametrize("n_rows", [8191, 8192, 8193])
def test_chunked_tables_equal_the_per_cell_writer(tmp_path, n_rows):
    # rows go out in chunks of 8192: one short of a chunk, one chunk, one over
    rng = np.random.default_rng(n_rows)
    labels = np.array(["#lead", "naïve", "a,b", 'say "hi"', " ", "plain", "日本"], dtype=object)
    x = rng.normal(size=n_rows) * 10.0 ** rng.uniform(-6, 18, n_rows)
    x[rng.integers(0, n_rows, 30)] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324], 30)
    table = Table.from_arrays(
        "t",
        label=rng.choice(labels, n_rows),
        x=x,
        kind=rng.choice(np.array(["café", "b", "", "c\nd"], dtype=object), n_rows),
        y=-rng.uniform(size=n_rows),
    )
    write_csv_table(table, tmp_path / "t.csv", "stamp")
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == per_cell_csv(table, "stamp")


def typed_records(find, text, path="t.csv"):
    """The columns ``read_csv_table`` builds from ``find``'s records."""
    header, raw_columns, numbers = find(text, path)
    if not numbers:
        raise IngestError(f"{path}: no data rows")
    return {c: tables._type_column(raw, c, path, numbers) for c, raw in zip(header, raw_columns)}


def outcome(find, text, path="t.csv"):
    try:
        return typed_records(find, text, path)
    except IngestError as exc:
        return str(exc)


def assert_same_columns(have, want):
    assert list(have) == list(want)
    for name, col in want.items():
        assert have[name].dtype == col.dtype
        if col.dtype.kind == "f":
            assert have[name].tobytes() == col.tobytes()
        else:
            assert list(have[name]) == list(col)


# Every line-end and whitespace rule in play: LF, CR, whitespace that is no
# line end to the reader ("\x1c", "\x85", " "), "\xa0", and NUL.
_PLAIN = ",\n\r# \t\x1c\x85 \xa0\x000123456789.e-_"
_PLAIN_CELL = st.text(alphabet=_PLAIN.translate({ord(c): None for c in ",\n\r"}), max_size=6)
_PLAIN_NUMBER = st.tuples(_PAD, st.floats(allow_nan=False).map(repr), _PAD).map("".join)
_PLAIN_LABEL = st.text(alphabet="#_ \t\x1c\x85\xa0\x00e", max_size=4)


@st.composite
def plain_tables(draw):
    """Quote-free text: a header, then lines that mostly hold one cell per column."""
    width = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from([_PLAIN_CELL, _PLAIN_NUMBER, _PLAIN_LABEL]),
                          min_size=width + 1, max_size=width + 1))
    lines = [",".join(f" c{j}" for j in range(width))]
    for _ in range(draw(st.integers(1, 8))):
        ragged = draw(st.integers(0, 19)) == 0
        lines.append(",".join(draw(kind) for kind in kinds[:width + ragged]))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in lines)


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.text(alphabet=_PLAIN, max_size=80), plain_tables()))
def test_both_record_finders_agree_on_quote_free_text(text):
    # numpy's C reader either refuses the text or gives csv.reader's table
    loaded = tables._loadtxt_columns(text, "t.csv")
    quoted = outcome(tables._quoted_records, text)
    if isinstance(quoted, str):
        assert loaded is None
    elif loaded is not None:
        assert_same_columns(loaded, quoted)


@pytest.mark.parametrize(
    "text, loaded, want",
    [
        ("x\n1.5\x1c\n", True, {"x": [1.5]}),
        ("x\n\xa01.5\n", True, {"x": [1.5]}),
        ("x\n 2 \n", True, {"x": [2.0]}),
        ("x\n1_000\n", False, {"x": [1000.0]}),
        ("x\n\u0661\n", False, {"x": [1.0]}),
        ("x,label\n1,a#b\n2,#c\n", True, {"x": [1.0, 2.0], "label": ["a#b", "#c"]}),
        ("label\na\n \t\nb\n", True, {"label": ["a", "b"]}),
        ("x\n1\nb\n", False, "line 3, column 'x': unparseable numeric cell 'b'"),
        ("x\nb\n1\n", False, "line 2, column 'x': unparseable numeric cell 'b'"),
    ],
    ids=["x1c", "nbsp", "spaces", "underscore", "arabic_digit", "hash_in_cell",
         "blank_line", "mixed_number_first", "mixed_label_first"],
)
def test_quote_free_edge_cases_read_the_same_on_both_paths(tmp_path, text, loaded, want):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (tables._loadtxt_columns(text, str(path)) is not None) == loaded
    quoted = outcome(tables._quoted_records, text, str(path))
    try:
        have = read_csv_table(path).data
    except IngestError as exc:
        assert str(exc) == quoted == f"{path}: {want}"
        return
    assert_same_columns(have, quoted)
    assert {name: col.tolist() for name, col in have.items()} == want


@pytest.mark.parametrize("text", ["x1,x2\n1,2\n", "# stamp\nx1,x2\n1,2\n",
                                  'x1,label\n1,"a"\n'],
                         ids=["header", "stamp_line", "csv_reader"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    want = {name: col.tolist() for name, col in read_csv_table(path).data.items()}
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert {name: col.tolist() for name, col in read_csv_table(path).data.items()} == want


@pytest.mark.parametrize("raw, offset", [(b"ab\xffcd", 2), (b"\xef\xbb\xbfab\xffcd", 5)],
                         ids=["plain", "after_a_byte_order_mark"])
def test_invalid_utf8_is_named_at_its_offset_in_the_file(tmp_path, raw, offset):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with pytest.raises(IngestError) as exc:
        read_csv_table(path)
    assert str(exc.value) == f"{path}: not valid UTF-8 (invalid start byte at byte {offset})"


@pytest.mark.parametrize("end", ["", '# a "quoted" comment\n'], ids=["quote_free", "csv_reader"])
def test_a_cell_over_the_field_limit_is_an_error_naming_its_line(tmp_path, end):
    path = tmp_path / "t.csv"

    def read(text):
        path.write_bytes((text + end).encode("utf-8"))
        return read_csv_table(path)

    fits = "x" * csv.field_size_limit()
    assert list(read(f"a,b\n1,{fits}\n").column("b")) == [fits]
    too_long = "^" + re.escape(str(path)) + r": line {}: field larger than field limit \(131072\)$"
    with pytest.raises(IngestError, match=too_long.format(1)):
        read(f"{fits}x,b\n1,2\n")
    with pytest.raises(IngestError, match=too_long.format(3)):
        read(f"a,b\n1,2\n3,{fits}x\n")
    # in one record the long cell is reported before the ragged row
    with pytest.raises(IngestError, match=too_long.format(3)):
        read(f"# c\na,b\n1,{fits}x,2\n3\n")
    with pytest.raises(IngestError, match="line 3: expected 2 fields, got 1$"):
        read(f"a,b\n1,2\n3\n4,{fits}x\n")


_NEAR_NUMBER_TEXT = st.text(alphabet=" \t\r\n#\",.a1e_-\x85", max_size=6)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


_ROUND_TRIP_LABEL = st.one_of(_NEAR_NUMBER_TEXT, st.text(max_size=6)).filter(
    lambda label: not _is_float(label.strip())
)


@st.composite
def written_tables(draw):
    """Tables of finite float and text columns; no stripped label parses as a float."""
    n_rows = draw(st.integers(1, 6))
    names = draw(st.lists(st.text(alphabet='ab#," \r\n', min_size=1, max_size=3),
                          min_size=1, max_size=4, unique_by=str.strip))
    columns = {}
    for name in names:
        if draw(st.booleans()):
            values = st.floats(allow_nan=False)
            columns[name] = np.array(draw(st.lists(values, min_size=n_rows, max_size=n_rows)))
        else:
            labels = draw(st.lists(_ROUND_TRIP_LABEL, min_size=n_rows, max_size=n_rows))
            columns[name] = np.array(labels, dtype=object)
    return Table("t", tuple(names), columns)


@settings(max_examples=300, deadline=None)
@given(table=written_tables())
def test_every_written_table_reads_back(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv_table(table, path, "stamp")
    back = read_csv_table(path)
    # the typing rule: labels are stripped, as are header names
    want = {}
    for name, col in table.data.items():
        if col.dtype.kind != "f":
            col = np.array([label.strip() for label in col], dtype=object)
        want[name.strip()] = col
    assert_same_columns(back.data, want)


def test_categorical_cells_share_one_string_per_label(tmp_path):
    # a copy per cell would live as long as the table; the fixture goes
    # through np.loadtxt, the quoted file through csv.reader
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("x,label\n" + "".join(
        f'{i},{cell}\n' for i, cell in enumerate(['"a,b"', " plain", '"a,b"', "plain ", "cd"] * 4)),
        encoding="utf-8")
    for path, name, labels in [(FIXTURE / "source_1.csv", "occupation", 3),
                               (quoted, "label", 3)]:
        col = read_csv_table(path).column(name)
        assert len(set(col)) == labels < len(col)
        assert len({id(v) for v in col}) == len(set(col))


def test_quote_free_files_never_reach_csv_reader(tmp_path, monkeypatch):
    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader used on a quote-free file")

    monkeypatch.setattr(tables, "_quoted_records", no_reader)
    for name in ["source_1", "source_2", "source_3", "source_4", "target"]:
        read_csv_table(FIXTURE / f"{name}.csv")
    panel = Table.from_arrays(
        "panel",
        x1=np.linspace(-1.0, 1.0, 50),
        occupation=np.array(["clerk", "miner", "nurse", "#", " "] * 10, dtype=object),
    )
    write_csv_table(panel, tmp_path / "panel.csv", "stamp")
    text = (tmp_path / "panel.csv").read_bytes()
    assert b'"' not in text
    (tmp_path / "crlf.csv").write_bytes(text.replace(b"\n", b"\r\n") + b"\r\n# end\r\n")
    for name in ["panel", "crlf"]:
        back = read_csv_table(tmp_path / f"{name}.csv")
        assert back.column("x1").tobytes() == panel.column("x1").tobytes()
        assert list(back.column("occupation")) == ["clerk", "miner", "nurse", "#", ""] * 10
