import importlib.util
import json
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_and_applies_the_claim_rule():
    base = [2.0, 2.1, 2.2, 1.9, 2.0, 2.3, 2.1, 2.0, 2.2, 1.8]
    tree = [b - 0.4 for b in base]
    s = bench_pairs.summarize(base, tree, "lower", 0.25)
    assert (s["wins"], s["pairs"], s["claim_holds"]) == (10, 10, True)
    assert s["base"] == pytest.approx({"median": 2.05, "q1": 2.0, "q3": 2.175})
    assert s["tree"]["median"] == pytest.approx(1.65)
    # the same runs read as a higher-is-better metric: no win, no claim
    s = bench_pairs.summarize(base, tree, "higher", 0.25)
    assert (s["wins"], s["claim_holds"]) == (0, False)


def test_claim_needs_nine_in_ten_wins_and_a_gap_above_the_base_iqr():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    # every pair won, but the median gap 0.1 is inside the base's IQR of 2
    assert not bench_pairs.summarize(base, [b - 0.1 for b in base], "lower", 0.25)["claim_holds"]
    # a wide gap, but only 8 of 10 pairs won; ties count for neither side
    tree = [b - 10.0 for b in base[:8]] + base[8:]
    s = bench_pairs.summarize(base, tree, "lower", 0.25)
    assert (s["wins"], s["claim_holds"]) == (8, False)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [0.5], "lower", 0.25)


def test_verdict_names_a_regression_beyond_the_bound_and_spreads_wider_than_it():
    base = [2.0, 2.1, 2.2, 1.9, 2.0, 2.3, 2.1, 2.0, 2.2, 1.8]  # median 2.05, IQR 0.175
    # 10% worse is inside a 25% bound, 30% worse is beyond it
    assert bench_pairs.summarize(base, [1.1 * b for b in base], "lower",
                                 0.25)["verdict"] == "within bound"
    assert bench_pairs.summarize(base, [1.3 * b for b in base], "lower",
                                 0.25)["verdict"] == "regressed"
    # work per second: lower is worse
    assert bench_pairs.summarize(base, [0.7 * b for b in base], "higher",
                                 0.25)["verdict"] == "regressed"
    # a 5% bound is narrower than the base's IQR (8.5% of its median)
    assert bench_pairs.summarize(base, base, "lower", 0.05)["verdict"] == "unresolved"
    # unless every tree run beats every base run
    assert bench_pairs.summarize(base, [b - 0.6 for b in base], "lower",
                                 0.05)["verdict"] == "within bound"
    assert bench_pairs.summarize(base, [b + 0.6 for b in base], "higher",
                                 0.05)["verdict"] == "within bound"
    # one tree run that does not beat the slowest base run leaves it unresolved
    tree = [b - 0.6 for b in base[:9]] + [2.35]
    assert bench_pairs.summarize(base, tree, "lower", 0.05)["verdict"] == "unresolved"


def test_bench_record_holds_each_metric_summary_and_every_run():
    metrics = {"pass_s": {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
               "work_per_s": {"name": "work_per_s", "unit": "1/s", "better": "higher",
                              "bound": 0.25}}
    base = [2.0, 2.1, 2.2, 1.9, 2.0, 2.3, 2.1, 2.0, 2.2, 1.8]
    runs = {"base": [{"pass_s": b, "work_per_s": 1.0 / b} for b in base],
            "tree": [{"pass_s": b - 0.4, "work_per_s": 1.0 / (b - 0.4)} for b in base]}
    env = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2}
    record = bench_pairs.bench_record("panel_analysis", "HEAD", "abc123", 3600, runs,
                                      metrics, env)
    assert (record["workload"], record["base"], record["base_commit"],
            record["first_seed"]) == ("panel_analysis", "HEAD", "abc123", 3600)
    assert record["environment"] == env and record["runs"] == runs
    assert list(record["metrics"]) == ["pass_s", "work_per_s"]
    for name, m in metrics.items():
        want = bench_pairs.summarize([r[name] for r in runs["base"]],
                                     [r[name] for r in runs["tree"]], m["better"], m["bound"])
        assert record["metrics"][name] == {"unit": m["unit"], "better": m["better"],
                                           "bound": m["bound"], **want}
    assert record["metrics"]["pass_s"]["claim_holds"]
    assert record["metrics"]["work_per_s"]["wins"] == 10
    # the record is what --out writes: plain JSON
    assert json.loads(json.dumps(record)) == record


def test_environment_names_the_versions_and_cpu_count():
    env = bench_pairs.environment()
    assert set(env) == {"python", "numpy", "scipy", "nproc"}
    assert env["nproc"] >= 1
