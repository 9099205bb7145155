"""The benchmark's own tests, on tiny inputs: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ops
import panel
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent


def bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.per_layer_spec()


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_smoke_traced_run_reports_every_layer():
    res = result_of(bench("--workload", "harness_mc", "--seed", "5", "--seconds", "1",
                          "--trace", "1", "--smoke"))
    assert res["correct"]
    names = [name for name, _, _ in tracer.per_layer_spec()]
    assert list(res["metrics"]) == names
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["harness.check_clt_cov.replicates"] == 100
    assert metrics["harness.check_conditional_shift.replicates"] == 300
    assert metrics["rng.substream.calls"] > 0
    assert metrics["tables.read_csv_table.calls"] == 0
    assert metrics["op.validate.span_coverage"] > 0.9


def test_refuses_to_run_without_driftlab_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "harness_mc", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_panel_bytes_depend_only_on_seed(tmp_path):
    a = panel.write_panel(tmp_path / "a", 3, 50, 40)
    b = panel.write_panel(tmp_path / "b", 3, 50, 40)
    c = panel.write_panel(tmp_path / "c", 4, 50, 40)
    assert a == b and a != c
    lines = (tmp_path / "a" / "source_1.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,x3,x4,occupation,income" and len(lines) == 51


def test_lazily_imported_package_is_summed_over_its_outermost_lines():
    # children precede their parent, one indent deeper; scipy.stats itself
    # has no line because it was loaded through scipy's module __getattr__
    entries = [
        (3, "scipy.stats._stats_py", 5, 70),
        (4, "numpy.linalg", 1, 1),
        (3, "scipy.stats.distributions", 2, 20),
        (2, "driftlab.dlm", 4, 100),
        (1, "driftlab.cli", 1, 105),
    ]
    assert run._subtree_us(entries, "scipy.stats") == 90
    assert run._subtree_us(entries, "numpy") == 1
