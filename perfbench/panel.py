"""Seeded source/target panel in the fixture schema, owned by the benchmark.

Columns follow ``tests/data/fixture_panel``: numeric x1-x4, categorical
``occupation`` and, in the sources only, the outcome ``income``. Every
source is a covariate-shifted copy of the target law; the conditional law
of ``income`` given the covariates is the same everywhere, so a weighted
squared-loss fit on any source mixture recovers ``COEFFICIENTS``.

The bytes depend only on the seed and the sizes, never on driftlab code, so
a change to ``driftlab simulate`` cannot change another workload's inputs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_SOURCES = 4
LEVELS = ("clerk", "miner", "nurse")
LEVEL_PROBS = np.array([0.5, 0.3, 0.2])
# income = 1 + 2 x1 - x2 + 0 x3 + 0.5 x4 + 0.5 * N(0, 1)
COEFFICIENTS = {"intercept": 1.0, "x1": 2.0, "x2": -1.0, "x3": 0.0, "x4": 0.5}
NOISE_SD = 0.5


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _draw(rng: np.random.Generator, n: int, shift: dict) -> dict:
    probs = LEVEL_PROBS * shift["level_tilt"]
    probs /= probs.sum()
    return {
        "x1": rng.normal(shift["x1_mean"], 1.0, n),
        "x2": rng.normal(shift["x2_mean"], 0.5, n),
        "x3": rng.random(n) ** shift["x3_power"],
        "x4": rng.exponential(1.0 / shift["x4_rate"], n),
        "occupation": rng.choice(len(LEVELS), size=n, p=probs),
    }


def _shift(rng: np.random.Generator | None) -> dict:
    if rng is None:  # the target law
        return {"x1_mean": 0.0, "x2_mean": 1.0, "x3_power": 1.0, "x4_rate": 1.5,
                "level_tilt": np.ones(len(LEVELS))}
    return {
        "x1_mean": rng.normal(0.0, 0.15),
        "x2_mean": 1.0 + rng.normal(0.0, 0.08),
        "x3_power": float(np.exp(rng.normal(0.0, 0.15))),
        "x4_rate": 1.5 * float(np.exp(rng.normal(0.0, 0.1))),
        "level_tilt": np.exp(rng.normal(0.0, 0.2, len(LEVELS))),
    }


def _csv_text(cols: dict, with_outcome: bool) -> str:
    names = ["x1", "x2", "x3", "x4"]
    fields = [[format(v, ".17g") for v in cols[c].tolist()] for c in names]
    fields.append([LEVELS[i] for i in cols["occupation"].tolist()])
    header = names + ["occupation"]
    if with_outcome:
        fields.append([format(v, ".17g") for v in cols["income"].tolist()])
        header.append("income")
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in zip(*fields))
    return "\n".join(lines) + "\n"


def write_panel(out_dir: Path, seed: int, n_source: int, n_target: int) -> dict:
    """Write source_1..4.csv and target.csv; return {file name: sha256}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for k in range(N_SOURCES + 1):
        is_target = k == 0
        rng = _rng(seed, k)
        cols = _draw(rng, n_target if is_target else n_source,
                     _shift(None if is_target else rng))
        if not is_target:
            n = cols["x1"].size
            cols["income"] = (
                COEFFICIENTS["intercept"]
                + sum(COEFFICIENTS[c] * cols[c] for c in ("x1", "x2", "x3", "x4"))
                + NOISE_SD * rng.standard_normal(n)
            )
        name = "target.csv" if is_target else f"source_{k}.csv"
        data = _csv_text(cols, with_outcome=not is_target).encode("utf-8")
        (out_dir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
