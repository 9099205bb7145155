#!/usr/bin/env python3
"""Alternating benchmark pairs: a git ref against the working tree.

    python3 scripts/bench_pairs.py --workload harness_mc --base HEAD --pairs 10 --seed 1000 \
        --out BENCH.json

Exports ``--base`` with ``git archive`` and copies the working tree (tracked
files and untracked files that are not ignored) into two fresh temporary
directories, so that neither side runs from the checkout it was edited in.
Pair i runs ``perfbench/run.py --workload W --seed (seed + i) --trace 0`` once
from each copy, for the ``run_seconds`` that ``BENCHMARK.json`` fixes; the
base runs first in even pairs and the tree in odd ones. For every
end-to-end metric it prints each side's median and quartiles, the tree's
wins, and whether the claim rule holds: the tree wins at least 9 of every
10 pairs (ties count for neither) and the medians differ, in the tree's
favour, by more than the base's interquartile range. It then prints
``regressed`` when the tree's median is worse than the base's by more than
the metric's ``BENCHMARK.json`` bound, ``unresolved`` when the base's
interquartile range exceeds the bound and not every tree run beats every
base run, and ``within bound`` otherwise. The last line is one JSON object
with every run's metrics. The copies are removed at exit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_ref(ref: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest, filter="data")


def copy_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_once(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run of the benchmark from ``copy``: its metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {copy} (exit {proc.returncode}):\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"perfbench reported failed ops in {copy}: {lines[-1]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(base: list[float], tree: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles and the tree's wins over paired runs of one metric,
    whether the claim rule holds (at least 9/10 of the pairs won and a median
    gap, in the better direction, above the base's interquartile range), and
    the verdict on a regression. ``bound`` is the metric's ``BENCHMARK.json``
    bound, a fraction of the base's median: the verdict is ``regressed`` when
    the tree's median is worse than the base's by more than it,
    ``unresolved`` when the base's interquartile range exceeds it and not
    every tree run beats every base run, and ``within bound`` otherwise."""
    if len(base) != len(tree) or len(base) < 2:
        raise ValueError("need at least two pairs, one base and one tree run each")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (t - b) > 0 for b, t in zip(base, tree))
    b_q1, b_med, b_q3 = statistics.quantiles(base, n=4, method="inclusive")
    t_q1, t_med, t_q3 = statistics.quantiles(tree, n=4, method="inclusive")
    gap = sign * (t_med - b_med)
    allowed = bound * abs(b_med)
    # signed values are higher when better
    beats_every_base_run = min(sign * t for t in tree) > max(sign * b for b in base)
    if -gap > allowed:
        verdict = "regressed"
    elif b_q3 - b_q1 > allowed and not beats_every_base_run:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3},
        "tree": {"median": t_med, "q1": t_q1, "q3": t_q3},
        "wins": wins,
        "pairs": len(base),
        "claim_holds": wins >= 0.9 * len(base) and gap > b_q3 - b_q1,
        "verdict": verdict,
    }


def bench_record(workload: str, base: str, base_commit: str, first_seed: int,
                 runs: dict[str, list[dict]], metrics: dict[str, dict],
                 environment: dict) -> dict:
    """The bench record of paired runs: for each end-to-end metric of
    ``metrics`` (``BENCHMARK.json``'s entries by name) its unit, direction,
    bound and ``summarize``'s record, then every run of each side."""
    summaries = {
        name: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
               **summarize([r[name] for r in runs["base"]], [r[name] for r in runs["tree"]],
                           m["better"], m["bound"])}
        for name, m in metrics.items()}
    return {"workload": workload, "base": base, "base_commit": base_commit,
            "first_seed": first_seed, "environment": environment, "metrics": summaries,
            "runs": runs}


def environment() -> dict:
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--base", default="HEAD", help="git ref to compare the working tree with")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--out", type=Path, help="also write the bench record to this file")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base_commit = git("rev-parse", "--verify", args.base + "^{commit}").decode().strip()
    runs: dict[str, list[dict]] = {"base": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        copies = {"base": Path(tmp) / "base", "tree": Path(tmp) / "tree"}
        export_ref(args.base, copies["base"])
        copy_tree(copies["tree"])
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("base", "tree") if i % 2 == 0 else ("tree", "base"):
                runs[side].append(run_once(copies[side], args.workload, seed,
                                           bench["run_seconds"]))
            print(f"pair {i} seed {seed}: " + "  ".join(
                f"{name} {runs['base'][-1][name]:.4g} -> {runs['tree'][-1][name]:.4g}"
                for name in metrics), flush=True)
    record = bench_record(args.workload, args.base, base_commit, args.seed, runs, metrics,
                          environment())
    print(f"{args.workload}: {args.base} (base) against the working tree, {args.pairs} pairs")
    for name, s in record["metrics"].items():
        print(f"  {name} ({s['better']} is better): base median {s['base']['median']:.4g} "
              f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}], tree median "
              f"{s['tree']['median']:.4g} [{s['tree']['q1']:.4g}, {s['tree']['q3']:.4g}], "
              f"tree wins {s['wins']}/{s['pairs']}, claim rule "
              f"{'holds' if s['claim_holds'] else 'does not hold'}, "
              f"{s['verdict']} (bound {s['bound']:.0%})")
    print(json.dumps(record))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
