#!/usr/bin/env python3
"""Regenerate the synthetic four-source fixture used by the golden fit test.

Writes CSVs, the generation config, the fit config, and the frozen summary
into tests/data/fixture_panel/. Deterministic: rerunning produces identical
bytes.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from driftlab import cli  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "fixture_panel"

SIM_CONFIG = {
    "seed": 20240811,
    "m": 100,
    "scheme": {
        "kind": "independent",
        "laws": [
            {"family": "lognormal", "mu": 0.0, "sigma": 0.8},
            {"family": "lognormal", "mu": 0.0, "sigma": 0.5},
            {"family": "lognormal", "mu": 0.0, "sigma": 0.12},
            {"family": "lognormal", "mu": 0.0, "sigma": 0.3},
        ],
    },
    "n_k": 1200,
    "n_0": 1200,
    "columns": [
        {"name": "x1", "dist": "gaussian", "mean": 0.0, "sd": 1.0},
        {"name": "x2", "dist": "gaussian", "mean": 1.0, "sd": 0.5},
        {"name": "x3", "dist": "uniform"},
        {"name": "x4", "dist": "exponential", "rate": 1.5},
        {"name": "occupation", "dist": "categorical",
         "levels": ["clerk", "miner", "nurse"], "probs": [0.5, 0.3, 0.2]},
    ],
    "outcome": {
        "name": "income",
        "intercept": 1.0,
        "coef": {"x1": 2.0, "x2": -1.0, "x4": 0.5},
        "noise_sd": 0.5,
    },
}

FIT_CONFIG = {
    "outcome": "income",
    "data_label": "fixture_panel",
    "test_functions": [
        "column:x1",
        "column:x2",
        "column:x3",
        "column:x4",
        "product:x1*x2:standardized",
        "product:x1*x3:standardized",
        "product:x1*x4:standardized",
        "product:x2*x3:standardized",
        "product:x2*x4:standardized",
        "product:x3*x4:standardized",
        "expr:x1**2",
        "expr:x2**2",
        "expr:x3**2",
        "expr:x4**2",
        "expr:x1*x2*x3",
        "expr:sqrt(abs(x1))",
        "expr:exp(-x4)",
        "auto_indicators:occupation",
    ],
}


def main():
    if FIXTURE.exists():
        shutil.rmtree(FIXTURE)
    FIXTURE.mkdir(parents=True)
    (FIXTURE / "sim_config.json").write_text(json.dumps(SIM_CONFIG, indent=2) + "\n")
    (FIXTURE / "fit_config.json").write_text(json.dumps(FIT_CONFIG, indent=2) + "\n")
    rc = cli.run(
        ["simulate", "--config", str(FIXTURE / "sim_config.json"), "--out", str(FIXTURE)]
    )
    if rc != 0:
        raise SystemExit(f"simulate failed with exit code {rc}")
    rc = cli.run(
        [
            "fit",
            "--data",
            *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
            "--target",
            str(FIXTURE / "target.csv"),
            "--config",
            str(FIXTURE / "fit_config.json"),
            "--out",
            str(FIXTURE / "golden"),
        ]
    )
    if rc != 0:
        raise SystemExit(f"fit failed with exit code {rc}")
    (FIXTURE / "golden.txt").rename(FIXTURE / "expected_summary.txt")
    (FIXTURE / "golden.json").unlink()
    print(f"fixture written to {FIXTURE}")


if __name__ == "__main__":
    main()
