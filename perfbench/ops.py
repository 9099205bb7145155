"""The benchmark's workloads: their inputs, the driftlab argv of each op,
and the check every op's outputs must pass.

Ops run with the work directory as their current directory and name their
data and output files relative to it, so no report embeds a machine-specific
path (reports record a config's contents, not its path).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import panel

CONFIGS = Path(__file__).resolve().parent / "configs"

WORKLOADS = ("panel_analysis", "panel_simulate", "harness_mc")
HARNESS_CHECKS = (
    "clt_cov", "kron_cov", "t_null", "f_null",
    "chi2_residual", "ci_coverage", "erm_excess_risk", "conditional_shift",
)
# These share their replicate loop with t_null and chi2_residual.
_SHARED_LOOP = ("f_null", "ci_coverage")

# Largest |theta - coefficient| accepted from a squared-loss erm fit at
# 25k rows per file, scaled by 1/sqrt(rows) at other sizes. The standard
# errors at 4 x 25k rows are at most about 0.01 (intercept); over seeds
# 100-119 the largest error was 0.014. A wrong weight or a dropped covariate
# moves some coefficient by far more.
THETA_TOLERANCE = 0.06

# Smoke mode: tiny inputs for the benchmark's own tests.
SMOKE_ROWS = 400
SMOKE_VALIDATE = {
    "clt_cov": {"replicates": 100, "m": 16, "n_ratio": 10},
    "kron_cov": {"replicates": 100, "m": 16, "n_ratio": 10},
    "null_laws": {"replicates": 100, "m": 32, "n_ratio": 10, "n0_ratio": 10,
                  "n_functions": 10},
    "ci_chi2": {"replicates": 100, "m": 32, "n_functions": 10, "n_ratio": 10,
                "n0_ratio": 10},
    "erm_excess_risk": {"replicates": 100, "m": 32, "n_ratio": 10},
    "conditional_shift": {"replicates": 100, "m": 32, "n_ratio": 10, "n0_ratio": 10},
}


class CheckFailed(Exception):
    """An op's outputs are missing, malformed or wrong."""


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[Path], tuple[bytes, dict]]
    ok_codes: tuple[int, ...] = (0,)
    rows: int = 0  # panel rows the op reads or writes

    def verify(self, cwd: Path, rc: int) -> tuple[str, dict]:
        """Check one run; return (sha256 of its canonical output, facts)."""
        if rc not in self.ok_codes:
            raise CheckFailed(f"{self.name}: exit code {rc}, expected {self.ok_codes}")
        try:
            canonical, facts = self.check(cwd)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            raise CheckFailed(f"{self.name}: {type(exc).__name__}: {exc}") from exc
        return hashlib.sha256(canonical).hexdigest(), facts


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _weights_sum_to_one(report: dict) -> None:
    total = sum(report["fit"]["beta_hat"])
    if abs(total - 1.0) > 1e-9:
        raise CheckFailed(f"fit weights sum to {total!r}, not 1")


def _check_fit(base: str, whitened: bool):
    def check(cwd: Path):
        report = _read_json(cwd / f"{base}.json")
        _weights_sum_to_one(report)
        if report["fit"]["whitened"] is not whitened:
            raise CheckFailed(f"{base}: whitened is {report['fit']['whitened']}")
        summary = (cwd / f"{base}.txt").read_bytes()
        if not summary.startswith(b"Call:"):
            raise CheckFailed(f"{base}.txt is not a fit summary")
        return (cwd / f"{base}.json").read_bytes() + summary, {}
    return check


def _check_diagnose(cwd: Path):
    body = (cwd / "out/diagnose.csv").read_bytes()
    lines = body.decode("utf-8").splitlines()
    rows = list(csv.reader(lines[1:]))
    if not lines[0].startswith("# driftlab") or rows[0] != ["plot_id", "x", "y", "label"]:
        raise CheckFailed("diagnose.csv lacks its stamp line or header")
    if len(rows) < 2 or any(len(r) != 4 for r in rows):
        raise CheckFailed("diagnose.csv has no rows or ragged rows")
    for r in rows[1:]:
        float(r[1]), float(r[2])
    return body, {}


def _check_erm(out: str, rows: int):
    tolerance = THETA_TOLERANCE * (25_000 / rows) ** 0.5

    def check(cwd: Path):
        body = (cwd / out).read_bytes()
        erm = json.loads(body)["erm"]
        theta = dict(zip(erm["feature_names"], erm["theta_hat"]))
        if set(theta) != set(panel.COEFFICIENTS):
            raise CheckFailed(f"{out}: features {sorted(theta)}")
        worst = max(abs(theta[k] - v) for k, v in panel.COEFFICIENTS.items())
        if worst > tolerance or not erm["converged"]:
            raise CheckFailed(
                f"{out}: theta {theta} is {worst:.3g} from the generating "
                f"coefficients (tolerance {tolerance:.3g})"
            )
        return body, {"theta_max_abs_error": worst}
    return check


def _check_simulate(n_source: int, n_target: int):
    def check(cwd: Path):
        out = cwd / "out/sim"
        world = _read_json(out / "world.json")
        expected = [f"source_{k}.csv" for k in range(1, panel.N_SOURCES + 1)] + ["target.csv"]
        if world["files"] != expected:
            raise CheckFailed(f"world.json lists {world['files']}")
        canonical = [(out / "world.json").read_bytes()]
        for name in expected:
            body = (out / name).read_bytes()
            lines = [ln for ln in body.split(b"\n") if ln and not ln.startswith(b"#")]
            want = n_target if name == "target.csv" else n_source
            if len(lines) - 1 != want:
                raise CheckFailed(f"{name}: {len(lines) - 1} rows, expected {want}")
            canonical.append(body)
        return b"".join(canonical), {}
    return check


def replicates_of(result: dict) -> int:
    """Replicates one harness check result simulated (sub-configurations
    of conditional_shift each run the full replicate count)."""
    details = result["details"]
    return details["replicates"] * len(details.get("resampled_empty_events", {None: 0}))


def _check_validate(cwd: Path):
    payload = _read_json(cwd / "out/validate.json")
    results = payload["report"]["results"]
    names = tuple(r["name"] for r in results)
    if names != HARNESS_CHECKS:
        raise CheckFailed(f"validate reported checks {names}")
    for r in results:
        r.pop("runtime_s")
    facts = {
        "gates_failed": sum(not r["passed"] for r in results),
        "replicates": sum(
            replicates_of(r) for r in results if r["name"] not in _SHARED_LOOP
        ),
        "resampled": sum(
            sum(r["details"].get("resampled_empty_events", {}).values()) for r in results
        ),
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8"), facts


# Rows per panel file: sized so that a run of each workload, three passes
# at least, takes 25-45 s on a 2-vCPU Xeon VM at 2.1 GHz.
DEFAULT_ROWS = {"panel_analysis": 25_000, "panel_simulate": 50_000, "harness_mc": 0}


def panel_rows(workload: str, smoke: bool, rows: int | None) -> int:
    return SMOKE_ROWS if smoke else (rows or DEFAULT_ROWS[workload])


def prepare_inputs(workload: str, seed: int, work: Path, rows: int, smoke: bool) -> dict:
    """Write the workload's inputs under ``work``; return their sha256 by file."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    if workload == "panel_analysis":
        digests = panel.write_panel(work / "inputs", seed, rows, rows)
        return {f"inputs/{k}": v for k, v in digests.items()}
    if workload == "panel_simulate":
        config = _read_json(CONFIGS / "sim_config.json")
        config["n_k"] = config["n_0"] = rows
        name = "sim_config.json"
    else:
        config = _read_json(CONFIGS / "validate_light.json")
        if smoke:
            config.update(SMOKE_VALIDATE)
        name = "validate_config.json"
    data = (json.dumps(config, indent=2) + "\n").encode("utf-8")
    (work / name).write_bytes(data)
    return {name: hashlib.sha256(data).hexdigest()}


def build(workload: str, seed: int, rows: int) -> list[Op]:
    """The ops of one pass, in order; inputs come from ``prepare_inputs``."""
    if workload == "panel_analysis":
        sources = [f"inputs/source_{k}.csv" for k in range(1, panel.N_SOURCES + 1)]
        data = ["--data", *sources, "--target", "inputs/target.csv"]
        read = rows * (panel.N_SOURCES + 1)
        erm = ["erm", *data, "--config", str(CONFIGS / "erm_config.json"), "--loss", "squared"]
        return [
            Op("fit", ["fit", *data, "--config", str(CONFIGS / "fit_config.json"),
                       "--out", "out/fit"], _check_fit("out/fit", False), rows=read),
            Op("fit_whiten", ["fit", *data, "--config",
                              str(CONFIGS / "fit_whiten_config.json"), "--whiten",
                              "--out", "out/fit_whiten"],
               _check_fit("out/fit_whiten", True), rows=read),
            Op("diagnose", ["diagnose", "--fit", "out/fit.json", "--out", "out/diagnose.csv"],
               _check_diagnose, rows=read),
            Op("erm_dlm", [*erm, "--weights", "dlm", "--out", "out/erm_dlm.json"],
               _check_erm("out/erm_dlm.json", rows), rows=read),
            Op("erm_importance", [*erm, "--weights", "importance",
                                  "--out", "out/erm_importance.json"],
               _check_erm("out/erm_importance.json", rows), rows=read),
        ]
    if workload == "panel_simulate":
        return [Op("simulate", ["simulate", "--config", "sim_config.json", "--out", "out/sim",
                                "--seed", str(seed)],
                   _check_simulate(rows, rows), rows=rows * (panel.N_SOURCES + 1))]
    if workload == "harness_mc":
        return [Op("validate", ["validate", "--config", "validate_config.json",
                                "--out", "out/validate.json", "--seed", str(seed)],
                   _check_validate, ok_codes=(0, 2))]
    raise ValueError(f"unknown workload {workload!r}")
