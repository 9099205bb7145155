import importlib.util
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
