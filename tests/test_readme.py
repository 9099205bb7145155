import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from driftlab import cli, harness

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "Coefficients:" in out
    assert re.findall(r"^(?:PASS|FAIL) (\w+)$", out, re.M) == ["clt_cov", "f_null"]


def test_validate_table_lists_every_settings_field():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### validate config"):text.index("## Library quick start")]
    header, _, *rows = [line for line in section.splitlines() if line.startswith("| ")]
    keys = [cell.strip(" `") for cell in header.strip("|").split("|")][1:]
    table = {}
    for row in rows:
        block, *cells = [cell.strip(" `") for cell in row.strip("|").split("|")]
        table[block] = {key: int(cell) for key, cell in zip(keys, cells) if cell}
    assert table == {
        family.block: {f.name: f.default for f in fields(family.config)}
        for family in harness._FAMILIES
    }


def config_example(heading):
    """The first JSON block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


@pytest.mark.parametrize("heading, keys", [("### fit config", cli._FIT_CONFIG),
                                           ("### erm config", cli._ERM_CONFIG)],
                         ids=["fit", "erm"])
def test_config_example_sets_every_key(heading, keys):
    # a key the reader drops cannot stay in the example, nor a new one stay out
    example = config_example(heading)
    assert set(example) == set(keys)
    cli.record(dict, keys)(example, "")


@pytest.mark.parametrize("heading, reader", [("### simulate config", cli._SIMULATION),
                                             ("### validate config", cli._HARNESS_CONFIG)],
                         ids=["simulate", "validate"])
def test_config_example_reads(heading, reader):
    # these examples set some keys only; each must still read as written
    reader(config_example(heading), "")
