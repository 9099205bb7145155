"""Per-layer spans, recorded from outside driftlab.

A span wraps one call into a layer's public function. The wrappers are
installed on every name the callers look up: each ``driftlab`` module global
bound to the function (``driftlab.cli.read_csv_table``,
``driftlab.harness.sample_uniform``, ...) and, for a method, the class
attribute. Spans live in memory and are written out when the run ends.
They assume one thread, which holds because the harness runs with
``threads: 1``.

Run as a script, this is the traced child of ``run.py --trace 1``: it
imports driftlab once and drives each op's argv through
``driftlab.cli.run`` in-process, once without spans and once with them, so
the gap between the two is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path

import ops as ops_mod


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _check_replicates(args, kwargs, result):
    first = result[0] if isinstance(result, list) else result
    return {"replicates": ops_mod.replicates_of({"details": first.details})}


HARNESS_CHECK_FUNCS = ("clt_cov", "kron_cov", "null_laws", "ci_chi2",
                       "excess_risk", "conditional_shift")

# (module under driftlab, attribute, reported stats, counters taken at the call)
TARGETS = (
    ("tables", "read_csv_table", ("s", "calls", "rows", "mb_per_s"),
     lambda a, kw, r: {"rows": r.n_rows,
                       "bytes": os.path.getsize(_arg(a, kw, 0, "path"))}),
    ("tables", "write_csv_table", ("s", "rows"),
     lambda a, kw, r: {"rows": _arg(a, kw, 0, "table").n_rows}),
    ("cli", "ingest", ("s", "self_s"), None),
    ("cli", "atomic_write", ("s", "bytes"),
     lambda a, kw, r: {"bytes": len(_arg(a, kw, 1, "text").encode("utf-8"))}),
    ("testfuncs", "parse_test_functions", ("s", "functions"),
     lambda a, kw, r: {"functions": len(r)}),
    ("testfuncs", "TestFunctionSet.evaluate", ("s", "rows"),
     lambda a, kw, r: {"rows": _arg(a, kw, 1, "table").n_rows}),
    ("moments", "evaluate_moments", ("s", "self_s", "rows"),
     lambda a, kw, r: {"rows": sum(r.sizes)}),
    ("moments", "fit_whitening", ("s",), None),
    ("moments", "whiten_moments", ("s",), None),
    ("dlm", "fit_weights", ("calls", "s", "us_per_call"), None),
    ("dlm", "target_ci", ("calls", "s"), None),
    ("dlm", "summarize", ("s",), None),
    ("erm", "fit_erm", ("s", "self_s", "newton_iters"),
     lambda a, kw, r: {"newton_iters": r.n_iterations}),
    ("erm", "fit_erm_arrays", ("calls", "s"), None),
    ("erm", "importance_weights", ("s", "self_s"), None),
    ("erm", "fit_weighted_samples", ("s",), None),
    ("perturb", "realize_world", ("calls", "s"), None),
    ("perturb", "sample_uniform", ("calls", "s", "draws"),
     lambda a, kw, r: {"draws": len(r)}),
    ("rng", "substream", ("calls", "s"), None),
    ("rng", "split_uniform", ("calls", "s", "values"),
     lambda a, kw, r: {"values": r[0].size}),
    ("diagnostics", "residual_qq", ("s",), None),
    ("diagnostics", "pairwise_scatter", ("s",), None),
    ("diagnostics", "standardized_shift_stats", ("s",), None),
    ("diagnostics", "write_bundle_csv", ("s",), None),
    *(("harness", f"check_{c}", ("s", "self_s", "replicates", "replicates_per_s"),
       _check_replicates) for c in HARNESS_CHECK_FUNCS),
)

_UNITS = {"s": "s", "self_s": "s", "us_per_call": "us", "mb_per_s": "MB/s",
          "replicates_per_s": "1/s", "bytes": "bytes"}
_HIGHER = {"mb_per_s", "replicates_per_s", "replicates"}

OP_NAMES = ("fit", "fit_whiten", "diagnose", "erm_dlm", "erm_importance",
            "simulate", "validate")
IMPORT_METRICS = ("import.driftlab.self_s", "import.scipy_stats.cum_s",
                  "import.numpy.cum_s", "import.total_s")


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(m, "s", "lower") for m in IMPORT_METRICS]
    for module, attr, stats, _ in TARGETS:
        for stat in stats:
            better = "higher" if stat in _HIGHER else "lower"
            spec.append((f"{module}.{attr}.{stat}", _UNITS.get(stat, "count"), better))
    spec += [
        ("harness.gates_failed", "count", "lower"),
        ("harness.check_conditional_shift.resampled", "count", "lower"),
        *((f"op.{op}.span_coverage", "frac", "higher") for op in OP_NAMES),
        ("trace.overhead_frac", "frac", "lower"),
        ("ops.failed_frac", "frac", "lower"),
    ]
    return spec


class Tracer:
    """Installs span wrappers and keeps the spans they record.

    A span is ``[name, start, end, parent index or -1, counters or None]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.count_errors: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, count_errors = self.spans, self._stack, self.count_errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                # A later driftlab may change what a call takes or returns;
                # the span then stays, without its counters.
                try:
                    rec[4] = count(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError) as exc:
                    count_errors.add(f"{name}: {exc!r}")
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "driftlab" or n.startswith("driftlab."))]
        self.missing = []
        for module, attr, _, count in TARGETS:
            owner = sys.modules.get(f"driftlab.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(f"{module}.{attr}", original, count)
            if path:  # a method: patch the class attribute
                owners = [(owner, leaf)]
            else:
                owners = [(m, key) for m in modules
                          for key, value in vars(m).items() if value is original]
            for obj, key in owners:
                self._patches.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-round totals of every span-derived metric in ``TARGETS``."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        agg = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        agg["calls"] += 1
        for key, value in (counters or {}).items():
            agg[key] = agg.get(key, 0) + value
    out = {}
    for module, attr, stats, _ in TARGETS:
        name = f"{module}.{attr}"
        agg = totals.get(name, {})
        busy = agg.get("s", 0.0)
        for stat in stats:
            if stat == "mb_per_s":
                value = agg.get("bytes", 0) / 1e6 / busy if busy else 0.0
            elif stat == "us_per_call":
                value = 1e6 * busy / agg["calls"] if busy else 0.0
            elif stat == "replicates_per_s":
                value = agg.get("replicates", 0) / busy if busy else 0.0
            else:
                value = agg.get(stat, 0) / rounds
            out[f"{name}.{stat}"] = value
    return out


def _run_op(cli, op, traced: bool, tracer: Tracer) -> tuple[int, float, int, int]:
    first = len(tracer.spans)
    if traced:
        tracer.install()
    start = time.perf_counter()
    try:
        rc = cli.run(op.argv)
    except Exception:  # the op's failure is counted, the run goes on
        traceback.print_exc()
        rc = -1
    finally:
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
    return rc, wall, first, len(tracer.spans)


def main(plan_path: str, out_path: str) -> None:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    os.chdir(plan["work"])
    start = time.perf_counter()
    import driftlab.cli as cli

    import_s = time.perf_counter() - start
    ops = ops_mod.build(plan["workload"], plan["seed"], plan["rows"])
    tracer = Tracer()
    runs = []
    start = time.perf_counter()
    rounds = 0
    # Alternate which mode goes first, so warm-up cost lands on both sides.
    while rounds == 0 or time.perf_counter() - start < plan["seconds"]:
        for i, op in enumerate(ops):
            modes = (False, True) if (rounds + i) % 2 == 0 else (True, False)
            for traced in modes:
                rc, wall, first, last = _run_op(cli, op, traced, tracer)
                run = {"op": op.name, "traced": traced, "round": rounds, "rc": rc,
                       "wall_s": wall, "spans": [first, last]}
                try:
                    run["digest"], run["facts"] = op.verify(Path("."), rc)
                except ops_mod.CheckFailed as exc:
                    run["error"] = str(exc)
                runs.append(run)
        rounds += 1
    Path(out_path).write_text(json.dumps({
        "import_s": import_s,
        "rounds": rounds,
        "runs": runs,
        "missing_targets": tracer.missing,
        "count_errors": sorted(tracer.count_errors),
        "spans": tracer.spans,
    }), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
