"""driftlab benchmark: closed-loop CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload panel_analysis --seed 1 --seconds 20 --trace 0

One client runs one op at a time, each a fresh ``python -m driftlab.cli``
process, and starts the next op when the last has ended. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same argv in-process
under the span wrappers of ``tracer.py`` and reports the per-layer metrics.
Every op's outputs are checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A readable report
goes before it and a full record to ``perfbench/results/``.

Run from the root of a driftlab checkout; driftlab is imported from its
``src/``. Inputs come from ``--seed`` alone. ``--smoke`` runs on tiny inputs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import ops as ops_mod
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

BUDGET_S = 170.0  # a run must end within 180 s
# Every op is rerun, for the byte-identity check, and its median of at
# least three runs is not moved by one slow run.
MIN_PASSES = 3
SETUP_SAMPLES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "DRIFTLAB_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(RuntimeError):
    """The checkout cannot run driftlab; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Use the bytecode cache, as an installed package does, whatever the
    # caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # Single-threaded baseline: BLAS, OpenMP and the harness on one thread.
    threads = str(min(1, os.cpu_count() or 1))
    env.update({var: threads for var in THREAD_VARS})
    return env


def run_process(argv, cwd, env, timeout, log) -> tuple[int, float, float]:
    """Run to completion; return (exit code, wall s, peak RSS MB from wait4)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=fh)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def provenance() -> dict:
    cpu = ""
    try:
        match = re.search(r"^model name\s*:\s*(.+)$",
                          Path("/proc/cpuinfo").read_text(), re.MULTILINE)
        cpu = match.group(1) if match else ""
    except OSError:
        pass
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def import_once(env, work, deadline) -> float:
    """Wall time of a fresh interpreter finishing ``import driftlab.cli``."""
    rc, wall, _ = run_process([sys.executable, "-c", "import driftlab.cli"], work, env,
                              deadline - time.monotonic(), work / "setup.log")
    if rc != 0:
        raise SetupError("driftlab.cli cannot be imported:\n"
                         + (work / "setup.log").read_text(errors="replace")[-2000:])
    return wall


def measure_setup(env, work, deadline) -> list[float]:
    """Import times of fresh interpreters, after one untimed import that
    compiles the bytecode cache, which users do not pay on every run."""
    import_once(env, work, deadline)
    return [import_once(env, work, deadline) for _ in range(SETUP_SAMPLES)]


def _subtree_us(entries, package: str) -> int:
    """Cumulative import time of ``package`` and its submodules.

    A lazily loaded package (``from scipy import stats``) gets no line of its
    own, so this sums the outermost lines that belong to ``package``. The
    log lists children before their parent, one indent deeper.
    """
    def member(name):
        return name == package or name.startswith(package + ".")

    total = 0
    ancestors: list[tuple[int, str]] = []
    for indent, name, _, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        if member(name) and not any(member(a) for _, a in ancestors):
            total += cum
        ancestors.append((indent, name))
    return total


def import_breakdown(env, work, deadline) -> dict[str, float]:
    """``-X importtime`` totals: driftlab self time, scipy.stats and numpy."""
    log = work / "importtime.log"
    log.unlink(missing_ok=True)
    run_process([sys.executable, "-X", "importtime", "-c", "import driftlab.cli"],
                work, env, deadline - time.monotonic(), log)
    entries = []  # (indent, module, self us, cumulative us)
    for line in log.read_text(errors="replace").splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m[3]), m[4], int(m[1]), int(m[2])))
    return {
        "import.driftlab.self_s": sum(
            own for _, name, own, _ in entries
            if name == "driftlab" or name.startswith("driftlab.")) / 1e6,
        "import.scipy_stats.cum_s": _subtree_us(entries, "scipy.stats") / 1e6,
        "import.numpy.cum_s": _subtree_us(entries, "numpy") / 1e6,
        "import.total_s": sum(cum for indent, _, _, cum in entries if indent == 1) / 1e6,
    }


def untraced(args, ops, env, work, deadline) -> tuple[dict, dict, list[str]]:
    setup = measure_setup(env, work, deadline)
    runs = {op.name: [] for op in ops}
    errors: list[str] = []
    first_digest: dict[str, str] = {}
    start = time.monotonic()
    passes = 0
    while passes < MIN_PASSES or time.monotonic() - start < args.seconds:
        if time.monotonic() >= deadline:
            errors.append(f"run budget of {BUDGET_S:.0f} s spent after {passes} passes")
            break
        for op in ops:
            argv = [sys.executable, "-m", "driftlab.cli", *op.argv]
            rc, wall, rss = run_process(argv, work, env, deadline - time.monotonic(),
                                        work / f"{op.name}.log")
            run = {"wall_s": wall, "rss_mb": rss, "rc": rc, "facts": {}}
            try:
                digest, run["facts"] = op.verify(work, rc)
                if first_digest.setdefault(op.name, digest) != digest:
                    raise ops_mod.CheckFailed(f"{op.name}: rerun output differs")
            except ops_mod.CheckFailed as exc:
                run["error"] = str(exc)
                errors.append(str(exc))
                log = (work / f"{op.name}.log").read_text(errors="replace")
                print(f"{exc}\n{log[-2000:]}", file=sys.stderr)
            runs[op.name].append(run)
        passes += 1

    per_op = {}
    for op in ops:
        walls = [r["wall_s"] for r in runs[op.name]]
        per_op[op.name] = {
            "median_s": statistics.median(walls),
            "n": len(walls),
            "min_s": min(walls),
            "max_s": max(walls),
            "peak_rss_mb": max(r["rss_mb"] for r in runs[op.name]),
            "walls_s": walls,
        }
    pass_s = sum(p["median_s"] for p in per_op.values())
    if args.workload == "harness_mc":
        work_done = statistics.median(
            r["facts"].get("replicates", 0) for r in runs["validate"])
    else:
        work_done = sum(op.rows for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_s,
        "work_per_s": work_done / pass_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in per_op.values()),
    }
    attempted = sum(len(r) for r in runs.values())
    failed = sum("error" in r for rs in runs.values() for r in rs)
    detail = {"setup_samples_s": setup, "passes": passes, "ops": per_op,
              "ops_attempted": attempted, "ops_failed": failed,
              "ops_failed_frac": failed / attempted,
              "gates_failed_per_validate": [r["facts"].get("gates_failed")
                                            for r in runs.get("validate", [])]}
    return metrics, detail, errors


def traced(args, ops, env, work, deadline, stem) -> tuple[dict, dict, list[str]]:
    import_once(env, work, deadline)  # compiles the bytecode cache
    metrics = import_breakdown(env, work, deadline)
    plan = work / "plan.json"
    spans_file = RESULTS / f"{stem}.spans.json"
    plan.write_text(json.dumps({"src": str(SRC), "work": str(work),
                                "workload": args.workload, "seed": args.seed,
                                "rows": args.rows, "seconds": args.seconds}))
    rc, _, _ = run_process([sys.executable, str(BENCH_DIR / "tracer.py"), str(plan),
                            str(spans_file)], work, env, deadline - time.monotonic(),
                           work / "traced.log")
    if rc != 0:
        raise SetupError("traced run failed:\n"
                         + (work / "traced.log").read_text(errors="replace")[-2000:])
    record = json.loads(spans_file.read_text())
    spans, runs, rounds = record["spans"], record["runs"], record["rounds"]
    metrics.update(tracer.layer_metrics(spans, rounds))

    errors = [r["error"] for r in runs if "error" in r]
    for op in ops:
        digests = {r.get("digest") for r in runs if r["op"] == op.name}
        if len(digests) != 1:
            errors.append(f"{op.name}: outputs differ between reruns or with tracing")
    by_mode = {True: 0.0, False: 0.0}
    coverage = {}
    for r in runs:
        by_mode[r["traced"]] += r["wall_s"]
        if r["traced"]:
            first, last = r["spans"]
            top = sum(s[2] - s[1] for s in spans[first:last] if s[3] < 0)
            cov = coverage.setdefault(r["op"], [0.0, 0.0])
            cov[0] += top
            cov[1] += r["wall_s"]
    for op in tracer.OP_NAMES:
        covered, wall = coverage.get(op, (0.0, 0.0))
        metrics[f"op.{op}.span_coverage"] = covered / wall if wall else 0.0
    metrics["trace.overhead_frac"] = by_mode[True] / by_mode[False] - 1.0

    validate = [r.get("facts", {}) for r in runs if r["op"] == "validate" and r["traced"]]
    for key, name in (("gates_failed", "harness.gates_failed"),
                      ("resampled", "harness.check_conditional_shift.resampled")):
        metrics[name] = (sum(f.get(key, 0) for f in validate) / len(validate)
                         if validate else 0)
    failed = sum("error" in r for r in runs)
    metrics["ops.failed_frac"] = failed / len(runs)
    detail = {"rounds": rounds, "in_process_import_s": record["import_s"],
              "missing_targets": record["missing_targets"],
              "count_errors": record["count_errors"], "spans": len(spans),
              "ops_attempted": len(runs), "ops_failed": failed,
              "op_walls_s": [{k: r[k] for k in ("op", "traced", "round", "wall_s")}
                             for r in runs]}
    return metrics, detail, errors


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=ops_mod.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rows", type=int, default=None,
                   help="rows per panel file (default: ops.DEFAULT_ROWS)")
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = p.parse_args(argv)
    args.rows = ops_mod.panel_rows(args.workload, args.smoke, args.rows)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (SRC / "driftlab" / "cli.py").is_file():
        print(f"perfbench: no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    prov = provenance()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH_DIR / "_work" / f"{stem}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        inputs = ops_mod.prepare_inputs(args.workload, args.seed, work, args.rows, args.smoke)
        ops = ops_mod.build(args.workload, args.seed, args.rows)
        if args.trace:
            metrics, detail, errors = traced(args, ops, env, work, deadline, stem)
            spec = [(name, unit) for name, unit, _ in tracer.per_layer_spec()]
        else:
            metrics, detail, errors = untraced(args, ops, env, work, deadline)
            spec = END_TO_END
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rows_per_file": args.rows, "smoke": args.smoke,
        "inputs_sha256": inputs, "provenance": prov,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
        "detail": detail, "errors": errors,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rows/file={args.rows} smoke={args.smoke}")
    for name, digest in inputs.items():
        print(f"  input {name} sha256={digest}")
    for name, facts in detail.get("ops", {}).items():
        print(f"  op {name}: median {facts['median_s']:.4f} s of {facts['n']} runs "
              f"(min {facts['min_s']:.4f}, max {facts['max_s']:.4f}), "
              f"peak rss {facts['peak_rss_mb']:.1f} MB")
    print(f"  ops failed: {detail['ops_failed']} of {detail['ops_attempted']}")
    if detail.get("gates_failed_per_validate"):
        print(f"  gates failed per validate: {detail['gates_failed_per_validate']}")
    for name, unit in spec:
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for error in errors:
        print(f"  FAILED: {error}")
    print(json.dumps({
        "correct": not errors,
        "attempted": detail["ops_attempted"],
        "failed": detail["ops_failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
