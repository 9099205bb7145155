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
    s = bench_pairs.summarize(base, tree, "lower")
    assert (s["wins"], s["pairs"], s["claim_holds"]) == (10, 10, True)
    assert s["base"] == pytest.approx({"median": 2.05, "q1": 2.0, "q3": 2.175})
    assert s["tree"]["median"] == pytest.approx(1.65)
    # the same runs read as a higher-is-better metric: no win, no claim
    s = bench_pairs.summarize(base, tree, "higher")
    assert (s["wins"], s["claim_holds"]) == (0, False)


def test_claim_needs_nine_in_ten_wins_and_a_gap_above_the_base_iqr():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    # every pair won, but the median gap 0.1 is inside the base's IQR of 2
    assert not bench_pairs.summarize(base, [b - 0.1 for b in base], "lower")["claim_holds"]
    # a wide gap, but only 8 of 10 pairs won; ties count for neither side
    tree = [b - 10.0 for b in base[:8]] + base[8:]
    s = bench_pairs.summarize(base, tree, "lower")
    assert (s["wins"], s["claim_holds"]) == (8, False)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [0.5], "lower")
