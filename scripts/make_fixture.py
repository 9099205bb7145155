#!/usr/bin/env python3
"""Regenerate the synthetic four-source fixture used by the golden fit test.

Reads the committed generation and fit configs in
tests/data/fixture_panel/, clears the directory, and writes the configs back
with the CSVs and the frozen summary. Deterministic: rerunning produces
identical bytes.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from driftlab import cli  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "fixture_panel"

CONFIGS = ("sim_config.json", "fit_config.json")


def main():
    configs = {name: (FIXTURE / name).read_bytes() for name in CONFIGS}
    shutil.rmtree(FIXTURE)
    FIXTURE.mkdir(parents=True)
    for name, data in configs.items():
        (FIXTURE / name).write_bytes(data)
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
