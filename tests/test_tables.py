from pathlib import Path

import numpy as np
import pytest

from driftlab.tables import Table, atomic_open, atomic_write, read_csv_table, write_csv_table

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


def test_interrupted_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
