"""driftlab command line: simulate, fit, erm, diagnose, validate.

File contracts: machine outputs are standard JSON, with floats written as
Python's shortest round-trip repr and non-finite values as null; CSV floats
are written at 17 significant digits. Outputs are byte-identical for a given
config and seed; the human fit summary is fixed-layout text. Every output
embeds the tool version and a hash of the effective config. Writes are
atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import dlm as dlm_mod
from . import erm as erm_mod
from .diagnostics import diagnostic_rows
from .harness import _FAMILIES, ALL_CHECKS, HarnessConfig, run_harness
from .moments import MomentMatrix, evaluate_moments, whiten_moments
from .perturb import (
    GaussianCopulaWeights,
    IndependentWeights,
    MixtureWeights,
    PerturbationScheme,
    RandomWalkWeights,
    categorical_target,
    check_regime,
    exponential_target,
    gamma_law,
    gaussian_target,
    lognormal_law,
    realize_world,
    sample_uniform,
    uniform_law,
    uniform_target,
)
from .rng import split_uniform, substream
from .tables import (
    DatasetCollection,
    IngestError,
    Table,
    atomic_write,
    read_csv_table,
    write_csv_table,
)
from .testfuncs import parse_test_functions

logger = logging.getLogger("driftlab.cli")

_LANE_WORLD = 0
_LANE_DATASET = 1  # + dataset index as stream index


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


class UserError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Standard JSON: non-finite floats become null
# ---------------------------------------------------------------------------


def _encode(obj) -> str:
    def convert(x):
        if isinstance(x, dict):
            return {k: convert(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [convert(v) for v in x]
        if isinstance(x, (np.floating, float)):
            x = float(x)
            return x if math.isfinite(x) else None
        if isinstance(x, (np.integer,)):
            return int(x)
        if isinstance(x, np.ndarray):
            return convert(x.tolist())
        if isinstance(x, (np.bool_,)):
            return bool(x)
        return x

    return json.dumps(convert(obj), indent=2, default=str, allow_nan=False)


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _stamp_comment(chash: str) -> str:
    return f"driftlab {__version__} config={chash}"


# ---------------------------------------------------------------------------
# Config readers
# ---------------------------------------------------------------------------
# A reader takes a JSON value and its key path in the config (for example
# ``scheme.laws[1].sigma``) and returns the value typed, or raises a UserError
# of the form "<path> must be <kind>, got <value>".


def _bad(path: str, kind: str, value) -> UserError:
    return UserError(f"{path} must be {kind}, got {value!r}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reader(kind: str, test, convert=None):
    """Reader for the values that pass ``test``, returned through ``convert``."""

    def read(value, path: str):
        if not test(value):
            raise _bad(path, kind, value)
        return value if convert is None else convert(value)

    return read


def _integral(value) -> bool:
    # a JSON integer or an integral float; strings and booleans are rejected
    return type(value) is int or (type(value) is float and value.is_integer())


# abs(value) <= max is false for nan, inf and ints beyond the float range
number = _reader("a finite number",
                 lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float)
integer = _reader("an integer", _integral, int)
nonnegative = _reader("a finite number >= 0",
                      lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max, float)
count = _reader("an integer >= 1", lambda v: _integral(v) and v >= 1, int)
# a confidence level lies in the open unit interval, a quantile in the closed one
open_unit = _reader("a number in (0, 1)", lambda v: type(v) in (int, float) and 0 < v < 1, float)
unit = _reader("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1, float)
flag = _reader("true or false", lambda v: type(v) is bool)
text = _reader("a non-empty string", lambda v: isinstance(v, str) and v != "")
_object = _reader("an object", lambda v: isinstance(v, dict))


def one_of(*choices: str):
    return _reader(f"one of {list(choices)}", lambda v: v in choices)


def list_of(reader):
    def read(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise _bad(path, "a list", value)
        return tuple(reader(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


def _read(payload, path: str, keys: dict, required=()) -> dict:
    """The object ``payload`` with each value passed through the reader
    ``keys`` names for it; unknown and missing keys are errors."""
    payload = _object(payload, path)
    unknown = sorted(set(payload) - set(keys))
    if unknown:
        raise UserError(f"{path or 'config'} has unknown keys {unknown}")
    for key in required:
        if key not in payload:
            raise UserError(f"{_join(path, key)} is missing")
    return {key: keys[key](value, _join(path, key)) for key, value in payload.items()}


def record(make, keys: dict, required=()):
    """Reader for an object whose values, read through ``keys``, are passed to
    ``make`` by key; a ValueError from ``make`` gets the object's path in front."""

    def read(value, path: str):
        kwargs = _read(value, path, keys, required)
        try:
            return make(**kwargs)
        except ValueError as exc:
            raise UserError(f"{path}: {exc}" if path else str(exc)) from None

    return read


def variant(tag: str, records: dict):
    """Reader for an object whose ``tag`` key names the record in ``records``
    that reads its other keys."""
    pick = one_of(*records)

    def read(value, path: str):
        kind = pick(_object(value, path).get(tag), _join(path, tag))
        return records[kind]({k: v for k, v in value.items() if k != tag}, path)

    return read


def _load_config(file: str | None, read, seed: int | None = None):
    """The JSON object in ``file`` ({} without a file), its ``seed`` replaced
    by ``seed`` when that is given, and what ``read`` makes of it. A UserError
    from ``read`` gets the file name in front."""
    config = {}
    if file is not None:
        try:
            config = json.loads(Path(file).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UserError(f"cannot read {file}: {exc.strerror}") from None
        except ValueError as exc:
            raise UserError(f"{file}: invalid JSON ({exc})") from None
        if not isinstance(config, dict):
            raise UserError(f"{file}: config must be a JSON object")
    if seed is not None:
        config["seed"] = seed
    try:
        return config, read(config, "")
    except UserError as exc:
        raise UserError(f"{file}: {exc}") from None


def _stamp(config: dict, extra: dict) -> dict:
    out = {
        "tool": {"name": "driftlab", "version": __version__},
        "config_hash": config_hash(config),
        "config": config,
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


def ingest(data: list[str], target: str, outcome: str | None) -> DatasetCollection:
    """Load source CSVs (or a directory of them) plus the target CSV."""
    paths: list[Path] = []
    for entry in data:
        p = Path(entry)
        if p.is_dir():
            found = sorted(q for q in p.glob("*.csv") if q.resolve() != Path(target).resolve())
            if not found:
                raise IngestError(f"{p}: directory contains no CSV files")
            paths.extend(found)
        else:
            paths.append(p)
    sources = [read_csv_table(p) for p in paths]
    target_tbl = read_csv_table(target)
    for tbl in sources:
        logger.info("source %s: %d rows, %d columns", tbl.name, tbl.n_rows, len(tbl.columns))
    logger.info("target %s: %d rows", target_tbl.name, target_tbl.n_rows)
    if outcome is not None and outcome in target_tbl.columns:
        raise IngestError(
            f"target {target_tbl.name!r} must not contain the outcome column {outcome!r}"
        )
    return DatasetCollection(tuple(sources), target_tbl, outcome=outcome)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_WEIGHT_LAW = variant("family", {
    "lognormal": record(lognormal_law, {"mu": number, "sigma": number}, ("mu", "sigma")),
    "gamma": record(gamma_law, {"shape": number, "scale": number}, ("shape", "scale")),
    "uniform": record(uniform_law, {"lo": number, "hi": number}, ("lo", "hi")),
})

_SCHEME = variant("kind", {
    "independent": record(IndependentWeights, {"laws": list_of(_WEIGHT_LAW)}, ("laws",)),
    "gaussian_copula": record(
        lambda laws, corr: GaussianCopulaWeights(laws, corr),
        {"laws": list_of(_WEIGHT_LAW), "corr": list_of(list_of(number))},
        ("laws", "corr"),
    ),
    "random_walk": record(
        lambda base, innovation_sd, k: RandomWalkWeights(base, innovation_sd, k),
        {"base": _WEIGHT_LAW, "innovation_sd": number, "k": count},
        ("base", "innovation_sd", "k"),
    ),
    "mixture": record(
        MixtureWeights,
        {"base_laws": list_of(_WEIGHT_LAW), "coefficients": list_of(list_of(number)),
         "noise_sd": list_of(number)},
        ("base_laws", "coefficients", "noise_sd"),
    ),
})

_COLUMN_LAW = variant("dist", {
    "uniform": record(uniform_target, {}),
    "gaussian": record(gaussian_target, {"mean": number, "sd": number}),
    "exponential": record(exponential_target, {"rate": number}),
    "categorical": record(
        categorical_target, {"levels": list_of(text), "probs": list_of(number)}, ("levels",)
    ),
})


def _column(value, path: str) -> tuple[str, Callable[[np.ndarray], np.ndarray]]:
    """One ``columns`` entry as (column name, the law its values follow)."""
    spec = dict(_object(value, path))
    return text(spec.pop("name", None), _join(path, "name")), _COLUMN_LAW(spec, path)


def _sizes(value, path: str) -> int | tuple[int, ...]:
    return list_of(count)(value, path) if isinstance(value, list) else count(value, path)


def _simulation(m, scheme, n_k, n_0, columns, seed=0, outcome=None):
    """The read simulate keys checked against each other: the scheme with m,
    one size per dataset, the outcome with its defaults, and the seed."""
    scheme = PerturbationScheme(m, scheme)
    k = scheme.n_dists
    sizes = n_k if isinstance(n_k, tuple) else (n_k,) * k
    if len(sizes) != k:
        raise _bad("n_k", f"one size or a list of K={k} sizes", list(n_k))
    if not columns:
        raise _bad("columns", "a non-empty list", [])
    names = [name for name, _ in columns]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise _bad(f"columns[{i}].name", "distinct from the names before it", name)
    if outcome is not None:
        # the outcome is linear in the numeric columns; a categorical law draws strings
        numeric = [name for name, law in columns
                   if law(np.full(1, 0.5)).dtype.kind == "f"]
        keys = {"name": text, "intercept": number, "noise_sd": number,
                "coef": record(dict, dict.fromkeys(numeric, number))}
        outcome = {"intercept": 0.0, "coef": {}, "noise_sd": 0.0,
                   **_read(outcome, "outcome", keys, ("name",))}
        if outcome["name"] in names:
            raise _bad("outcome.name", "distinct from every column name", outcome["name"])
        if outcome["noise_sd"] < 0:
            raise _bad("outcome.noise_sd", ">= 0", outcome["noise_sd"])
    return scheme, sizes, n_0, columns, outcome, seed


_SIMULATION = record(
    _simulation,
    {"seed": integer, "m": integer, "scheme": _SCHEME, "n_k": _sizes, "n_0": count,
     "columns": list_of(_column), "outcome": _object},
    ("m", "scheme", "n_k", "n_0", "columns"),
)


def _build_table(name, u, columns, outcome):
    """Deal ``u`` into one stream per column (plus one for the outcome noise)
    and draw each column through its law."""
    from scipy.special import ndtri

    streams = split_uniform(u, len(columns) + (outcome is not None))
    data = {col: law(stream) for (col, law), stream in zip(columns, streams)}
    if outcome is not None:
        y = np.full(u.shape, outcome["intercept"])
        for col, coef in outcome["coef"].items():
            y = y + coef * data[col]
        data[outcome["name"]] = y + outcome["noise_sd"] * ndtri(streams[-1])
    return Table(name, tuple(data), data)


def cmd_simulate(args) -> int:
    # the whole config is read and checked before a world is drawn or a file
    # written
    config, (scheme, n_list, n_0, columns, outcome, seed) = _load_config(
        args.config, _SIMULATION, seed=args.seed
    )
    config["seed"] = seed
    m, k = scheme.m, scheme.n_dists
    check_regime(m, min(n_list))

    world = realize_world(scheme, substream(seed, _LANE_WORLD))
    out_dir = Path(args.out)
    comment = _stamp_comment(config_hash(config))
    files = []
    for j in range(k):
        rng = substream(seed, _LANE_DATASET, j + 1)
        u = sample_uniform(world, j, n_list[j], rng)
        tbl = _build_table(f"source_{j + 1}", u, columns, outcome)
        path = out_dir / f"source_{j + 1}.csv"
        write_csv_table(tbl, path, comment)
        files.append(path.name)
    rng = substream(seed, _LANE_DATASET, 0)
    u0 = rng.random(n_0)
    target_tbl = _build_table("target", u0, columns, None)
    target_path = out_dir / "target.csv"
    write_csv_table(target_tbl, target_path, comment)
    files.append(target_path.name)

    world_payload = _stamp(
        config,
        {
            "sigma_w": scheme.weight_law.sigma_w(),
            "mean_w": scheme.weight_law.mean_w(),
            "m": m,
            "n_sources": k,
            "seed_lanes": {"world": _LANE_WORLD, "datasets": _LANE_DATASET},
            "files": files,
        },
    )
    atomic_write(out_dir / "world.json", _encode(world_payload) + "\n")
    print(f"wrote {len(files)} datasets and world.json to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

_MODE = one_of("sum_to_one", "simplex")
_FIT_CONFIG = {
    "test_functions": list_of(text),
    "outcome": text,
    "data_label": text,
}
# an unwhitened fit whose test functions correlate more than this on the
# pooled sources warns that its t/F inference wants --whiten
_WHITEN_HINT_CORRELATION = 0.9


def _declared_moments(data: DatasetCollection, settings: dict, columns) -> MomentMatrix:
    """The moments of the config's test functions, by default one raw column
    function per entry of ``columns``."""
    declarations = settings.get("test_functions") or [f"column:{c}" for c in columns]
    if not declarations:
        raise UserError("no numeric covariates available as default test functions")
    return evaluate_moments(data, parse_test_functions(declarations, data))


def cmd_fit(args) -> int:
    config, settings = _load_config(args.config, record(dict, _FIT_CONFIG))
    data = ingest(args.data, args.target, settings.get("outcome"))
    moments = _declared_moments(data, settings, data.numeric_covariates)
    declared = moments.n_functions
    if args.whiten:
        moments = whiten_moments(moments)
    elif (corr := moments.max_offdiag_correlation() or 0.0) > _WHITEN_HINT_CORRELATION:
        warnings.warn(f"test functions correlate up to {corr:.3g} "
                      f"on the pooled sources (above {_WHITEN_HINT_CORRELATION}); the t/F "
                      "inference assumes uncorrelated ones, so pass --whiten")
    try:
        fit = dlm_mod.fit_weights(moments, mode=args.mode)
    except dlm_mod.DegreesOfFreedomError as exc:
        if moments.n_functions < declared:  # exit 1 prints no drop warning
            exc = UserError(f"{exc}: whitening dropped {declared - moments.n_functions} of "
                            f"the {declared} declared test functions as redundant")
        raise exc from None
    base = str(args.out)
    for suffix in (".txt", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    payload = _stamp(
        {**config, "argv": {"data": args.data, "target": args.target,
                            "mode": fit.mode, "whiten": moments.whitened}},
        {"fit": dlm_mod.fit_to_dict(fit), "test_functions": list(moments.names),
         # what diagnose reads instead of the data; of the pooled covariance
         # only the diagonal, all that diagnostics.shift_rows reads, so the
         # report grows with L and not with L^2
         "moments": {"names": moments.names, "source_names": moments.source_names,
                     "target_name": moments.target_name, "sizes": moments.sizes,
                     "phi_hat": moments.phi_hat, "whitened": moments.whitened,
                     "pooled_var_diag": np.diag(moments.pooled_var)}},
    )
    atomic_write(base + ".json", _encode(payload) + "\n")
    text = dlm_mod.summarize(fit, data_label=settings.get("data_label", "data"))
    atomic_write(base + ".txt", text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# erm
# ---------------------------------------------------------------------------

_ERM_CONFIG = {
    "outcome": text,
    "test_functions": list_of(text),
    "covariates": list_of(text),
    "dlm_mode": _MODE,
    "level": open_unit,
    "clip_quantile": unit,
}


def cmd_erm(args) -> int:
    config, settings = _load_config(args.config, record(dict, _ERM_CONFIG))
    if (args.weights not in ("uniform", "dlm", "importance")
            and not args.weights.startswith("file:")):
        raise UserError(f"unknown weights scheme {args.weights!r}")
    outcome = settings.get("outcome", "y")
    data = ingest(args.data, args.target, outcome)
    covariates = tuple(settings.get("covariates") or data.numeric_covariates)
    # every cell the fits read is checked here, before any weight fit; the
    # importance classifier also reads the target's rows, stacked below the sources'
    y = erm_mod.outcome_vector(data)
    x = erm_mod.design_matrix(
        (*data.sources, data.target) if args.weights == "importance" else data.sources,
        covariates)
    if args.loss == "logistic":
        for tbl in data.sources:
            if not np.isin(tbl.column(outcome), (0, 1)).all():
                raise UserError(
                    f"--loss logistic needs a 0/1 outcome, but column {outcome!r} "
                    f"of source {tbl.name!r} holds other values"
                )
    spec = erm_mod.squared_error_loss() if args.loss == "squared" else erm_mod.logistic_loss()
    level = settings.get("level", 0.95)
    k = data.n_sources
    sizes = np.array(data.sizes)

    dlm_fit = None
    provenance: dict = {"scheme": args.weights}
    if args.weights == "uniform":
        beta = np.full(k, 1.0 / k)
    elif args.weights == "dlm":
        moments = _declared_moments(data, settings, covariates)
        dlm_fit = dlm_mod.fit_weights(moments, mode=settings.get("dlm_mode", "simplex"))
        beta = dlm_fit.beta_hat
        provenance["dlm"] = {
            "mode": dlm_fit.mode,
            "n_functions": dlm_fit.n_functions,
            "rss": dlm_fit.rss,
        }
    elif args.weights == "importance":
        iw = erm_mod.importance_weights(x, y.size, settings.get("clip_quantile", 0.99))
        w = iw.weights / iw.weights.sum()
        weights_out = {"clip_threshold": iw.clip_threshold, "n_clipped": iw.n_clipped}
        provenance["clipped"] = iw.n_clipped > 0
    else:
        path = args.weights[len("file:"):]
        try:
            values = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise UserError(f"cannot read weights file {path}: {exc}")
        try:
            beta = np.array(list_of(number)(values, "weights"))
        except UserError as exc:
            raise UserError(f"{path}: {exc}") from None
        if beta.size != k:
            raise UserError(f"{path}: weights must hold {k} values, one per source, "
                            f"got {beta.size}")
        if abs(beta.sum() - 1.0) > 1e-8:
            raise UserError(f"{path}: weights must sum to 1, got {float(beta.sum())}")
        provenance["file"] = path
    if args.weights != "importance":
        w, weights_out = np.repeat(beta / sizes, sizes), beta.tolist()

    try:
        fit = erm_mod.fit_erm(x[:y.size], y, w, sizes, spec)
    except erm_mod.SingularHessianError as exc:
        raise UserError(f"erm on covariates {list(covariates)}: {exc}") from None
    except erm_mod.InfluenceOverflowError as exc:
        raise UserError(f"erm on outcome {outcome!r}: the influence variance overflows the "
                        f"float range in the gradient products of source "
                        f"{data.sources[exc.source].name!r}") from None

    report = {
        "theta_hat": fit.theta_hat,
        "feature_names": ["intercept", *covariates],
        "loss": fit.loss_family,
        "converged": fit.converged,
        "weights": weights_out,
        "provenance": provenance,
    }
    if dlm_fit is not None:
        ci = erm_mod.erm_ci(fit, dlm_fit, level=level)
        value, trace_term = erm_mod.ood_risk(fit, shift_scale=dlm_fit.shift_scale)
        report["ci"] = {"level": level, "intervals": ci}
        report["ood_risk"] = {
            "mode": "observational",
            "value": value,
            "trace_term": trace_term,
            "shift_scale": dlm_fit.shift_scale,
        }
    payload = _stamp(
        {**config, "argv": {"data": args.data, "target": args.target,
                            "loss": args.loss, "weights": args.weights}},
        {"erm": report},
    )
    atomic_write(args.out, _encode(payload) + "\n")
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


_MOMENT_BLOCK = record(
    lambda phi_hat, pooled_var_diag, **keys: MomentMatrix(
        phi_hat=np.array(phi_hat), pooled_var=np.diag(pooled_var_diag), **keys),
    {"names": list_of(text), "source_names": list_of(text), "target_name": text,
     "sizes": list_of(count), "phi_hat": list_of(list_of(number)), "whitened": flag,
     "pooled_var_diag": list_of(nonnegative)},
    ("names", "source_names", "target_name", "sizes", "phi_hat", "whitened", "pooled_var_diag"),
)


def _moments(value, path: str) -> MomentMatrix:
    """The moments block read as a MomentMatrix; a ``phi_hat`` row that is
    not as long as ``names`` is named before numpy sees the ragged list."""
    block = _object(value, path)
    names, rows = block.get("names"), block.get("phi_hat")
    if isinstance(names, list) and isinstance(rows, list):
        for i, row in enumerate(rows):
            if isinstance(row, list) and len(row) != len(names):
                raise UserError(f"{_join(path, 'phi_hat')}[{i}] must be a list of "
                                f"{len(names)} numbers, got {len(row)} entries")
    return _MOMENT_BLOCK(value, path)


def _fit_report(report: dict, path: str):
    """The moment matrix a fit report's weights were fitted on, and their mode."""
    if "moments" not in report:
        raise UserError("no moments block; re-run fit to write one")
    fit = _object(report.get("fit"), "fit")
    return _moments(report["moments"], "moments"), _MODE(fit.get("mode"), "fit.mode")


def cmd_diagnose(args) -> int:
    payload, (moments, mode) = _load_config(args.fit, _fit_report)
    try:
        fit = dlm_mod.fit_weights(moments, mode=mode)
    except (dlm_mod.DegreesOfFreedomError, dlm_mod.CollinearDatasetsError,
            dlm_mod.WeightFitOverflowError) as exc:
        raise UserError(f"{args.fit}: {exc}") from None
    plot_id, x, y, label = zip(*diagnostic_rows(fit))
    table = Table.from_arrays("diagnostics", plot_id=plot_id, x=x, y=y, label=label)
    chash = payload.get("config_hash", config_hash(payload.get("config", {})))
    write_csv_table(table, args.out, _stamp_comment(chash))
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


# configs written when the harness had a thread pool may still pin "threads": 1;
# a settings block's keys size its check's simulation, each an integer >= 1
_HARNESS_CONFIG = record(
    lambda threads=1, **settings: HarnessConfig(**settings),
    {"checks": list_of(one_of(*ALL_CHECKS)), "seed": integer,
     "threads": _reader("1 (replicates run serially)", lambda v: _integral(v) and v == 1),
     **{family.block: record(family.config, {f.name: count for f in fields(family.config)})
        for family in _FAMILIES}},
)


def cmd_validate(args) -> int:
    config, harness_config = _load_config(args.config, _HARNESS_CONFIG, seed=args.seed)
    report = run_harness(harness_config)
    payload = _stamp(config, {"report": report.to_dict()})
    atomic_write(args.out, _encode(payload) + "\n")
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name} ({result.runtime_s:.1f}s)")
    if not report.all_passed:
        print("validation failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="driftlab", description=__doc__)
    parser.add_argument("--verbose", "-v", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw datasets from randomly perturbed distributions")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate dataset weights by moment matching")
    p.add_argument("--data", nargs="+", required=True, help="source CSVs or a directory")
    p.add_argument("--target", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--mode", choices=["sum_to_one", "simplex"], default="sum_to_one")
    p.add_argument("--whiten", action="store_true")
    p.add_argument("--out", required=True, help="basename for the .txt/.json reports")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("erm", help="weighted empirical risk minimization")
    p.add_argument("--data", nargs="+", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--loss", choices=["squared", "logistic"], default="squared")
    p.add_argument("--weights", default="dlm",
                   help="dlm | uniform | importance | file:<path>")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_erm)

    p = sub.add_parser("diagnose", help="emit residual/QQ/scatter diagnostic data")
    p.add_argument("--fit", required=True, help="fit report JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("validate", help="run the Monte Carlo validation harness")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_validate)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s",
    )
    # driftlab's own warnings are one stderr line per location, whatever the
    # filters say, printed only by a run that returns: exit 1 prints its error alone
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", UserWarning)
        try:
            code = args.func(args)
        except (UserError, IngestError, ValueError) as exc:
            print(f"driftlab: error: {exc}", file=sys.stderr)
            return 1
    for warning in caught:
        print(f"driftlab: warning: {warning.message}", file=sys.stderr)
    return code


def main() -> None:
    # exit's garbage collection then skips the ~23k import-time objects, mostly numpy's
    gc.freeze()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
