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
import dataclasses
import hashlib
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import __version__
from . import dlm as dlm_mod
from . import erm as erm_mod
from .diagnostics import (
    DiagnosticBundle,
    bundle_rows,
    pairwise_scatter,
    residual_qq,
    standardized_shift_stats,
)
from .harness import HarnessConfig, _int_setting, config_from_dict, run_harness
from .moments import evaluate_moments, fit_whitening, whiten_moments
from .perturb import (
    GaussianCopulaWeights,
    IndependentWeights,
    MixtureWeights,
    PerturbationScheme,
    RandomWalkWeights,
    TargetDistribution,
    WeightLaw,
    categorical_target,
    check_regime,
    exponential_target,
    gaussian_target,
    realize_world,
    sample_uniform,
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


def _load_config(path: str | None, allowed: set[str], context: str) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise UserError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UserError(f"{path}: invalid JSON ({exc})")
    if not isinstance(payload, dict):
        raise UserError(f"{path}: config must be a JSON object")
    unknown = set(payload) - allowed
    if unknown:
        raise UserError(f"{context} config: unknown keys {sorted(unknown)}")
    return payload


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

def _number(value, name: str) -> float:
    """A JSON number as a float, or a UserError naming the setting."""
    if type(value) not in (int, float):
        raise UserError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for nan, inf and out-of-range ints
        raise UserError(f"{name} must be finite, got {value!r}")
    return float(value)


def _list(value, name: str) -> list:
    if not isinstance(value, list):
        raise UserError(f"{name} must be a list, got {value!r}")
    return value


def _numbers(value, name: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{name}[{i}]") for i, v in enumerate(_list(value, name)))


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise UserError(f"{name} must be an object, got {value!r}")
    return value


def _check_keys(payload: dict, where: str, required, optional=()) -> None:
    unknown = set(payload) - {*required, *optional}
    if unknown:
        raise UserError(f"{where}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in payload:
            raise UserError(f"{where}: missing key {key!r}")


def _size(value, key: str) -> int:
    n = _int_setting(value, f"simulate config key {key!r}")
    if n < 1:
        raise UserError(f"simulate config key {key!r} must be >= 1, got {n}")
    return n


_LAW_KEYS = {
    "lognormal": ("mu", "sigma"),
    "gamma": ("shape", "scale"),
    "uniform": ("lo", "hi"),
}


def _parse_law(payload, name: str) -> WeightLaw:
    payload = _object(payload, name)
    family = payload.get("family")
    if family not in _LAW_KEYS:
        raise UserError(f"unknown weight family {family!r}")
    where = f"weight law {family}"
    keys = _LAW_KEYS[family]
    _check_keys(payload, where, ("family", *keys))
    return WeightLaw(family, *(_number(payload[key], f"{where}: key {key!r}") for key in keys))


_SCHEME_KEYS = {
    "independent": ("laws",),
    "gaussian_copula": ("laws", "corr"),
    "random_walk": ("base", "innovation_sd", "k"),
    "mixture": ("base_laws", "coefficients", "noise_sd"),
}


def _parse_scheme(payload, m: int, seed: int) -> PerturbationScheme:
    payload = _object(payload, "simulate config key 'scheme'")
    kind = payload.get("kind")
    if kind not in _SCHEME_KEYS:
        raise UserError(f"unknown scheme kind {kind!r}")
    where = f"scheme {kind}"
    _check_keys(payload, where, ("kind", *_SCHEME_KEYS[kind]))

    def laws(key):
        name = f"{where}: key {key!r}"
        return tuple(_parse_law(p, f"{name}[{i}]") for i, p in enumerate(_list(payload[key], name)))

    def matrix(key):
        name = f"{where}: key {key!r}"
        return tuple(_numbers(row, f"{name}[{i}]") for i, row in enumerate(_list(payload[key], name)))

    if kind == "independent":
        model = IndependentWeights(laws("laws"))
    elif kind == "gaussian_copula":
        model = GaussianCopulaWeights(laws("laws"), matrix("corr"))
    elif kind == "random_walk":
        model = RandomWalkWeights(
            _parse_law(payload["base"], f"{where}: key 'base'"),
            _number(payload["innovation_sd"], f"{where}: key 'innovation_sd'"),
            _int_setting(payload["k"], f"{where}: key 'k'"),
        )
    else:
        model = MixtureWeights(
            laws("base_laws"),
            matrix("coefficients"),
            _numbers(payload["noise_sd"], f"{where}: key 'noise_sd'"),
        )
    return PerturbationScheme(m, model, seed)


def _name(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise UserError(f"{name} must be a non-empty string, got {value!r}")
    return value


_TARGETS = {
    "uniform": (uniform_target, ()),
    "gaussian": (gaussian_target, ("mean", "sd")),
    "exponential": (exponential_target, ("rate",)),
    "categorical": (categorical_target, ("levels", "probs")),
}


def _parse_column(spec, name: str) -> tuple[str, TargetDistribution]:
    """One ``columns`` entry as (column name, the law its values follow)."""
    spec = _object(spec, name)
    column = _name(spec.get("name"), f"{name}: key 'name'")
    where = f"column {column!r}"
    dist = spec.get("dist")
    if dist not in _TARGETS:
        raise UserError(f"{where}: unknown dist {dist!r}")
    make, keys = _TARGETS[dist]
    if dist == "categorical":
        _check_keys(spec, where, ("name", "dist", "levels"), keys)
        kwargs = {"levels": _list(spec["levels"], f"{where}: key 'levels'")}
        if "probs" in spec:
            kwargs["probs"] = _numbers(spec["probs"], f"{where}: key 'probs'")
    else:
        _check_keys(spec, where, ("name", "dist"), keys)
        kwargs = {key: _number(spec[key], f"{where}: key {key!r}") for key in keys if key in spec}
    try:
        return column, make(**kwargs)
    except ValueError as exc:
        raise UserError(f"{where}: {exc}") from None


def _parse_columns(specs) -> list[tuple[str, TargetDistribution]]:
    columns = [
        _parse_column(spec, f"columns[{i}]")
        for i, spec in enumerate(_list(specs, "simulate config key 'columns'"))
    ]
    if not columns:
        raise UserError("simulate config key 'columns' must not be empty")
    names = [name for name, _ in columns]
    duplicated = sorted({name for name in names if names.count(name) > 1})
    if duplicated:
        raise UserError(f"simulate config: duplicate column names {duplicated}")
    return columns


def _parse_outcome(spec, columns: list[dict]) -> dict | None:
    """The ``outcome`` entry with defaults filled in, or None without one;
    ``columns`` are the column specs, already checked."""
    if spec is None:
        return None
    names = {col["name"] for col in columns}
    numeric = {col["name"] for col in columns if col["dist"] != "categorical"}
    spec = _object(spec, "simulate config key 'outcome'")
    _check_keys(spec, "outcome", ("name",), ("intercept", "coef", "noise_sd"))
    name = _name(spec["name"], "outcome: key 'name'")
    if name in names:
        raise UserError(f"outcome name {name!r} is also a column name")
    coef = {}
    for col, value in _object(spec.get("coef", {}), "outcome: key 'coef'").items():
        if col not in names:
            raise UserError(f"outcome references unknown column {col!r}")
        if col not in numeric:
            raise UserError(f"outcome coefficient on non-numeric column {col!r}")
        coef[col] = _number(value, f"outcome: coefficient on {col!r}")
    noise_sd = _number(spec.get("noise_sd", 0.0), "outcome: key 'noise_sd'")
    if noise_sd < 0:
        raise UserError(f"outcome: key 'noise_sd' must be >= 0, got {noise_sd!r}")
    return {
        "name": name,
        "intercept": _number(spec.get("intercept", 0.0), "outcome: key 'intercept'"),
        "coef": coef,
        "noise_sd": noise_sd,
    }


def _build_table(name, u, columns, outcome):
    """Deal ``u`` into one stream per column (plus one for the outcome noise)
    and draw each column through its law."""
    streams = split_uniform(u, len(columns) + (outcome is not None))
    data = {col: target.transform(stream) for (col, target), stream in zip(columns, streams)}
    if outcome is not None:
        y = np.full(u.shape, outcome["intercept"])
        for col, coef in outcome["coef"].items():
            y = y + coef * data[col]
        data[outcome["name"]] = y + outcome["noise_sd"] * ndtri(streams[-1])
    return Table(name, tuple(data), data)


_SIMULATE_KEYS = {"seed", "m", "scheme", "n_k", "n_0", "columns", "outcome"}


def cmd_simulate(args) -> int:
    # the whole config is parsed and checked before a world is drawn or a
    # file written
    config = _load_config(args.config, _SIMULATE_KEYS, "simulate")
    _check_keys(config, "simulate config", ("m", "scheme", "n_k", "n_0", "columns"), _SIMULATE_KEYS)
    seed = args.seed
    if seed is None:
        seed = _int_setting(config.get("seed", 0), "simulate config key 'seed'")
    config["seed"] = seed
    m = _int_setting(config["m"], "simulate config key 'm'")
    scheme = _parse_scheme(config["scheme"], m, seed)
    k = scheme.n_dists
    n_k = config["n_k"]
    n_list = [_size(v, "n_k") for v in (n_k if isinstance(n_k, list) else [n_k] * k)]
    if len(n_list) != k:
        raise UserError(f"n_k must give one size per dataset (K={k})")
    n_0 = _size(config["n_0"], "n_0")
    columns = _parse_columns(config["columns"])
    outcome = _parse_outcome(config.get("outcome"), config["columns"])
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
            "sigma_w": world.sigma_w,
            "mean_w": world.mean_w,
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

_FIT_KEYS = {"seed", "test_functions", "outcome", "mode", "whiten", "ridge", "data_label"}


def _fit_pipeline(data_paths, target, config, mode, whiten):
    outcome = config.get("outcome")
    data = ingest(data_paths, target, outcome)
    declarations = config.get("test_functions")
    if not declarations:
        declarations = [f"column:{c}" for c in data.covariates if data.target.is_numeric(c)]
        if not declarations:
            raise UserError("no numeric covariates available as default test functions")
    tests = parse_test_functions(declarations, data)
    moments = evaluate_moments(data, tests)
    mode = mode or config.get("mode", "sum_to_one")
    whiten = whiten or bool(config.get("whiten", False))
    if whiten:
        transform = fit_whitening(moments, ridge=float(config.get("ridge", 0.0)))
        moments = whiten_moments(moments, transform)
    fit = dlm_mod.fit_weights(moments, mode=mode)
    return data, moments, fit


def cmd_fit(args) -> int:
    config = _load_config(args.config, _FIT_KEYS, "fit")
    data, moments, fit = _fit_pipeline(args.data, args.target, config, args.mode, args.whiten)
    label = config.get("data_label", "data")
    base = str(args.out)
    for suffix in (".txt", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    payload = _stamp(
        {**config, "argv": {"data": args.data, "target": args.target,
                            "mode": fit.mode, "whiten": fit.whitened}},
        {"fit": dlm_mod.fit_to_dict(fit), "test_functions": list(moments.names)},
    )
    atomic_write(base + ".json", _encode(payload) + "\n")
    if fit.mode == "sum_to_one":
        text = dlm_mod.summarize(fit, data_label=label)
    else:
        rows = "\n".join(
            f"  {name}: {w:.7f}" for name, w in zip(fit.source_names, fit.beta_hat)
        )
        text = (
            f"Simplex weight fit: {fit.target_name} ~ "
            + " + ".join(fit.source_names)
            + f"\n{rows}\nRSS {fit.rss:.6g} on {fit.df} degrees of freedom\n"
        )
    atomic_write(base + ".txt", text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# erm
# ---------------------------------------------------------------------------

_ERM_KEYS = {
    "seed",
    "outcome",
    "test_functions",
    "covariates",
    "dlm_mode",
    "level",
    "clip_quantile",
}


def cmd_erm(args) -> int:
    config = _load_config(args.config, _ERM_KEYS, "erm")
    outcome = config.get("outcome", "y")
    data = ingest(args.data, args.target, outcome)
    spec = erm_mod.squared_error_loss() if args.loss == "squared" else erm_mod.logistic_loss()
    covariates = tuple(
        config.get("covariates")
        or [c for c in data.covariates if data.target.is_numeric(c)]
    )
    level = float(config.get("level", 0.95))
    k = data.n_sources

    dlm_fit = None
    provenance: dict = {"scheme": args.weights}
    if args.weights == "uniform":
        beta = np.full(k, 1.0 / k)
    elif args.weights == "dlm":
        declarations = config.get("test_functions") or [f"column:{c}" for c in covariates]
        tests = parse_test_functions(declarations, data)
        moments = evaluate_moments(data, tests)
        dlm_fit = dlm_mod.fit_weights(moments, mode=config.get("dlm_mode", "simplex"))
        beta = dlm_fit.beta_hat
        provenance["dlm"] = {
            "mode": dlm_fit.mode,
            "n_functions": dlm_fit.n_functions,
            "rss": dlm_fit.rss,
        }
    elif args.weights == "importance":
        beta = None
    elif args.weights.startswith("file:"):
        path = args.weights[len("file:"):]
        try:
            beta = np.asarray(json.loads(Path(path).read_text(encoding="utf-8")), dtype=float)
        except (OSError, TypeError, ValueError) as exc:
            raise UserError(f"cannot read weights file {path}: {exc}")
        if beta.size != k or abs(beta.sum() - 1.0) > 1e-8:
            raise UserError(f"weights file must hold {k} values summing to 1")
        provenance["file"] = path
    else:
        raise UserError(f"unknown weights scheme {args.weights!r}")

    if beta is not None:
        fit = erm_mod.fit_erm(data, spec, beta, covariates=covariates)
        weights_out = beta.tolist()
    else:
        x_src = np.vstack(
            [erm_mod.design_matrix(t, covariates, intercept=False) for t in data.sources]
        )
        x_tgt = erm_mod.design_matrix(data.target, covariates, intercept=False)
        iw = erm_mod.importance_weights(
            x_src, x_tgt, clip_quantile=float(config.get("clip_quantile", 0.99))
        )
        y = np.concatenate(
            [np.asarray(t.column(outcome), dtype=float) for t in data.sources]
        )
        x_design = np.column_stack([np.ones(x_src.shape[0]), x_src])
        fit = erm_mod.fit_weighted_samples(x_design, y, iw.weights, spec)
        weights_out = {"clip_threshold": iw.clip_threshold, "n_clipped": iw.n_clipped}
        provenance["clipped"] = iw.clipped

    report = {
        "theta_hat": fit.theta_hat,
        "feature_names": list(fit.feature_names) or ["intercept", *covariates],
        "loss": fit.loss_family,
        "converged": fit.converged,
        "weights": weights_out,
        "provenance": provenance,
    }
    if dlm_fit is not None:
        ci = erm_mod.erm_ci(fit, dlm_fit, level=level)
        shift_scale = dlm_fit.rss / dlm_fit.n_functions
        risk = erm_mod.ood_risk(fit, shift_scale=shift_scale)
        report["ci"] = {"level": level, "intervals": ci}
        report["ood_risk"] = {
            "mode": risk.mode,
            "value": risk.value,
            "trace_term": risk.trace_term,
            "shift_scale": shift_scale,
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


def cmd_diagnose(args) -> int:
    try:
        payload = json.loads(Path(args.fit).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UserError(f"cannot read fit report {args.fit}: {exc}")
    stored = payload.get("config", {})
    argv = stored.get("argv", {})
    data_paths = args.data or argv.get("data")
    target_path = args.target or argv.get("target")
    if not data_paths or not target_path:
        raise UserError("fit report does not record data paths; pass --data/--target")
    config = {k: v for k, v in stored.items() if k in _FIT_KEYS}
    data, moments, fit = _fit_pipeline(
        data_paths, target_path, config, argv.get("mode"), bool(argv.get("whiten", False))
    )

    bundle = residual_qq(fit)
    stats_all = {}
    for k in range(data.n_sources):
        per = standardized_shift_stats(moments, k)
        stats_all.update({f"{data.sources[k].name}|{name}": v for name, v in per.items()})
    bundle = DiagnosticBundle(
        residual_points=bundle.residual_points,
        residual_mean=bundle.residual_mean,
        qq_points=bundle.qq_points,
        qq_defined=bundle.qq_defined,
        scatter_blocks=pairwise_scatter(moments) if data.n_sources >= 2 and moments.n_functions >= 10 else (),
        shift_stats=stats_all,
    )
    plot_id, x, y, label = zip(*bundle_rows(bundle))
    table = Table.from_arrays("diagnostics", plot_id=plot_id, x=x, y=y, label=label)
    chash = payload.get("config_hash", config_hash(config))
    write_csv_table(table, args.out, _stamp_comment(chash))
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_VALIDATE_KEYS = {f.name for f in dataclasses.fields(HarnessConfig)}


def cmd_validate(args) -> int:
    config = _load_config(args.config, _VALIDATE_KEYS, "validate")
    if args.seed is not None:
        config["seed"] = args.seed
    harness_config = config_from_dict(config) if config else HarnessConfig()
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
    p.add_argument("--mode", choices=["sum_to_one", "simplex"], default=None)
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
    p.add_argument("--data", nargs="+", default=None)
    p.add_argument("--target", default=None)
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
    try:
        return args.func(args)
    except (UserError, IngestError, ValueError) as exc:
        print(f"driftlab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
