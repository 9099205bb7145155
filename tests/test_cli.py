import contextlib
import copy
import importlib.util
import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftlab import cli, erm
from driftlab.diagnostics import diagnostic_rows
from driftlab.dlm import fit_weights
from driftlab.moments import evaluate_moments, whiten_moments
from driftlab.tables import IngestError, Table, read_csv_table, write_csv_table
from driftlab.testfuncs import parse_test_functions

FIXTURE = Path(__file__).parent / "data" / "fixture_panel"
SMALL_SIM = {
    "seed": 5,
    "m": 50,
    "scheme": {
        "kind": "independent",
        "laws": [{"family": "lognormal", "mu": 0.0, "sigma": 0.5}],
    },
    "n_k": 100,
    "n_0": 100,
    "columns": [{"name": "x", "dist": "uniform"}],
}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_small_data(directory):
    s1 = write(directory / "s1.csv", "x,y\n1.0,2.0\n2.0,4.0\n3.0,6.5\n")
    s2 = write(directory / "s2.csv", "x,y\n1.5,3.0\n2.5,5.2\n0.5,1.1\n")
    tgt = write(directory / "tgt.csv", "x\n1.2\n2.2\n1.8\n")
    return s1, s2, tgt


def fixture_with_cell(tmp_path, file, column, row, value):
    """A copy of the fixture whose ``file`` holds ``value`` in ``column`` at
    data row ``row``; returns the fit and erm argv of its sources and target."""
    for src in FIXTURE.glob("*.csv"):
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        if src.name == file:
            header = lines[1].rstrip("\n").split(",")
            cells = lines[2 + row].rstrip("\n").split(",")
            cells[header.index(column)] = value
            lines[2 + row] = ",".join(cells) + "\n"
        (tmp_path / src.name).write_text("".join(lines), encoding="utf-8")
    return ["--data", *[str(tmp_path / f"source_{k}.csv") for k in range(1, 5)],
            "--target", str(tmp_path / "target.csv")]


@pytest.fixture
def small_data(tmp_path):
    return write_small_data(tmp_path)


def write_outputs(tmp_path, small_data):
    """Run fit and diagnose into ``outputs/`` and simulate into ``sim/``."""
    s1, s2, tgt = small_data
    cfg = write(
        tmp_path / "cfg.json",
        '{"outcome": "y", "test_functions": ["column:x", "expr:x**2"]}',
    )
    sim_cfg = write(tmp_path / "sim.json", json.dumps(SMALL_SIM))
    out_dir, sim_dir = tmp_path / "outputs", tmp_path / "sim"
    assert cli.run(["fit", "--data", s1, s2, "--target", tgt, "--config", cfg,
                    "--out", str(out_dir / "r")]) == 0
    assert cli.run(["diagnose", "--fit", str(out_dir / "r.json"),
                    "--out", str(out_dir / "diag.csv")]) == 0
    assert cli.run(["simulate", "--config", sim_cfg, "--out", str(sim_dir)]) == 0
    return out_dir, sim_dir


class TestIngest:
    def test_two_sources_and_target(self, small_data):
        s1, s2, tgt = small_data
        data = cli.ingest([s1, s2], tgt, outcome="y")
        assert data.n_sources == 2
        assert data.covariates == ("x",)

    def test_directory_input(self, small_data, tmp_path):
        _, _, tgt = small_data
        data = cli.ingest([str(tmp_path)], tgt, outcome="y")
        # target.csv inside the directory is excluded automatically
        assert data.n_sources == 2

    def test_outcome_only_in_sources(self, small_data):
        s1, s2, tgt = small_data
        data = cli.ingest([s1, s2], tgt, outcome="y")
        assert "y" not in data.target.columns

    def test_schema_mismatch_lists_symmetric_difference(self, tmp_path):
        s1 = write(tmp_path / "s1.csv", "x,y\n1,2\n2,3\n")
        s2 = write(tmp_path / "s2.csv", "z,y\n1,2\n2,3\n")
        tgt = write(tmp_path / "t.csv", "x\n1\n")
        with pytest.raises(IngestError, match=r"\['x', 'z'\]"):
            cli.ingest([s1, s2], tgt, outcome="y")

    def test_empty_file(self, tmp_path):
        bad = write(tmp_path / "empty.csv", "")
        with pytest.raises(IngestError, match="empty"):
            read_csv_table(bad)

    def test_non_utf8(self, tmp_path):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"x\n\xff\xfe\n")
        with pytest.raises(IngestError, match="UTF-8"):
            read_csv_table(bad)

    def test_unparseable_numeric_cell_names_location(self, tmp_path):
        bad = write(tmp_path / "bad.csv", "x,y\n1.0,2.0\noops,3.0\n4.0,5.0\n")
        with pytest.raises(IngestError, match=r"bad.csv: line 3, column 'x'.*'oops'"):
            read_csv_table(bad)

    @pytest.mark.parametrize("cell", ["x" * 131073, '"x' + "x" * 131072 + '"'],
                             ids=["plain", "quoted"])
    def test_oversized_cell_is_user_error(self, tmp_path, small_data, capsys, cell):
        s1, s2, tgt = small_data
        big = write(tmp_path / "big.csv", f"x,y\n1,2\n{cell},3\n")
        rc = cli.run(["fit", "--data", s1, big, "--target", tgt, "--out",
                      str(tmp_path / "fit.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"driftlab: error: {big}: line 3: field larger than field limit (131072)" in err
        assert "Traceback" not in err

    def test_target_with_outcome_rejected(self, tmp_path):
        s1 = write(tmp_path / "s1.csv", "x,y\n1,2\n2,3\n")
        tgt = write(tmp_path / "t.csv", "x,y\n1,2\n")
        with pytest.raises(IngestError, match="must not contain"):
            cli.ingest([s1], tgt, outcome="y")


class TestConfigHandling:
    def test_unknown_keys_rejected(self, tmp_path, small_data):
        s1, s2, tgt = small_data
        cfg = write(tmp_path / "cfg.json", '{"outcome": "y", "bogus_key": 1}')
        rc = cli.run(["fit", "--data", s1, s2, "--target", tgt,
                      "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 1

    @pytest.mark.parametrize(
        "command, config",
        [("fit", {"outcome": "y", "test_functions": ["column:nope"]}),
         ("erm", {"outcome": "y", "covariates": ["nope"]})],
    )
    def test_config_naming_a_missing_column_is_user_error(
        self, tmp_path, small_data, capsys, command, config
    ):
        s1, s2, tgt = small_data
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        out = tmp_path / "out"
        rc = cli.run([command, "--data", s1, s2, "--target", tgt, "--config", cfg,
                      "--out", str(out / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "has no column 'nope'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit"], ["erm", "--weights", "dlm"]],
                             ids=["fit", "erm_dlm"])
    def test_sources_with_one_file_stem_are_user_error(
        self, tmp_path, small_data, capsys, command
    ):
        # both would be named 'source', so their rows could not be told apart
        s1, s2, tgt = small_data
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = shutil.copy(s1, tmp_path / "a" / "source.csv")
        b = shutil.copy(s2, tmp_path / "b" / "source.csv")
        cfg = write(tmp_path / "cfg.json", '{"outcome": "y"}')
        out = tmp_path / "out"
        rc = cli.run([*command, "--data", str(a), str(b), "--target", tgt, "--config", cfg,
                      "--out", str(out / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert ("driftlab: error: source names must be distinct, but 'source' repeats; "
                "sources are named by their file stem") in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["fit", "erm"])
    def test_seed_is_not_a_fit_or_erm_key(self, tmp_path, small_data, capsys, command):
        s1, s2, tgt = small_data
        cfg = write(tmp_path / "cfg.json", '{"outcome": "y", "seed": 1}')
        rc = cli.run([command, "--data", s1, s2, "--target", tgt, "--config", cfg,
                      "--out", str(tmp_path / "r")])
        assert rc == 1
        assert f"{cfg}: config has unknown keys ['seed']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("ridge", 0.0), ("mode", "simplex"),
                                            ("whiten", True)])
    def test_removed_fit_key_is_unknown(self, tmp_path, small_data, capsys, key, value):
        # whitening works out which test functions to drop, so no ridge gets
        # past them; --mode and --whiten alone set the mode and whitening, and
        # the report's argv block is the one record of both
        s1, s2, tgt = small_data
        cfg = write(tmp_path / "cfg.json", json.dumps({"outcome": "y", key: value}))
        out = tmp_path / "out"
        rc = cli.run(["fit", "--data", s1, s2, "--target", tgt, "--config", cfg, "--whiten",
                      "--out", str(out / "r")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: error: {cfg}: config has unknown keys [{key!r}]"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fit"], ["erm", "--weights", "dlm"]],
                             ids=["fit", "erm_dlm"])
    def test_no_numeric_covariate_is_named(self, tmp_path, capsys, command):
        s1 = write(tmp_path / "s1.csv", "c,y\na,1.0\nb,2.0\na,3.0\n")
        s2 = write(tmp_path / "s2.csv", "c,y\nb,1.5\na,2.5\nb,0.5\n")
        tgt = write(tmp_path / "t.csv", "c\na\nb\n")
        cfg = write(tmp_path / "cfg.json", '{"outcome": "y"}')
        out = tmp_path / "out"
        rc = cli.run([*command, "--data", s1, s2, "--target", tgt, "--config", cfg,
                      "--out", str(out / "r")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "driftlab: error: no numeric covariates available as default test functions"]
        assert not out.exists()

    def test_config_hash_stable(self):
        h1 = cli.config_hash({"a": 1, "b": [1.5, 2.5]})
        h2 = cli.config_hash({"b": [1.5, 2.5], "a": 1})
        assert h1 == h2 and len(h1) == 64


# Valid configs that set every key the config readers check, numbers written
# as floats and integers as ints, so that a value's JSON type tells its kind.
FULL_SIM = {
    "seed": 5,
    "m": 50,
    "n_k": [100, 100],
    "n_0": 100,
    "columns": [
        {"name": "x", "dist": "gaussian", "mean": 0.0, "sd": 1.0},
        {"name": "r", "dist": "exponential", "rate": 1.5},
        {"name": "u", "dist": "uniform"},
        {"name": "c", "dist": "categorical", "levels": ["a", "b"], "probs": [0.5, 0.5]},
    ],
    "outcome": {"name": "y", "intercept": 1.0, "coef": {"x": 2.0}, "noise_sd": 0.5},
}
FULL_SCHEMES = {
    "copula": {"kind": "gaussian_copula",
               "laws": [{"family": "lognormal", "mu": 0.0, "sigma": 0.5},
                        {"family": "gamma", "shape": 4.0, "scale": 0.25}],
               "corr": [[1.0, 0.5], [0.5, 1.0]]},
    "walk": {"kind": "random_walk", "base": {"family": "uniform", "lo": 0.5, "hi": 1.5},
             "innovation_sd": 0.05, "k": 2},
    "mixture": {"kind": "mixture",
                "base_laws": [{"family": "gamma", "shape": 4.0, "scale": 0.25}],
                "coefficients": [[0.7]], "noise_sd": [0.02]},
}
FULL_FIT = {"outcome": "y", "test_functions": ["column:x", "expr:x**2"], "data_label": "small"}
FULL_ERM = {"outcome": "y", "test_functions": ["column:x", "expr:x**2"], "covariates": ["x"],
            "dlm_mode": "simplex", "level": 0.9, "clip_quantile": 0.99}
FULL_VALIDATE = {
    "checks": ["clt_cov"],
    "seed": 3,
    "threads": 1,
    "clt_cov": {"replicates": 100, "m": 16, "n_ratio": 10, "n_sources": 2},
    "null_laws": {"n_sources": 3, "n_functions": 50},
}
FULL_NAMES = [*(f"simulate_{s}" for s in FULL_SCHEMES), "fit", "erm", "diagnose", "validate"]
WRONG_VALUES = ("text", ["text"], {"key": 1}, True, None, 0.5)


@pytest.fixture(scope="module")
def full_configs(tmp_path_factory):
    """name -> (valid config, argv given the config file and an output
    directory, key path under which the config is read)."""
    root = tmp_path_factory.mktemp("full")
    s1, s2, tgt = write_small_data(root)
    fit = ["fit", "--data", s1, s2, "--target", tgt, "--config"]
    assert cli.run([*fit, write(root / "fit.json", json.dumps(FULL_FIT)),
                    "--out", str(root / "report")]) == 0
    report = json.loads((root / "report.json").read_text())
    simulate = lambda cfg, out: ["simulate", "--config", cfg, "--out", out]  # noqa: E731
    return {
        **{f"simulate_{s}": ({**FULL_SIM, "scheme": scheme}, simulate, ())
           for s, scheme in FULL_SCHEMES.items()},
        "fit": (FULL_FIT, lambda cfg, out: [*fit, cfg, "--out", f"{out}/r"], ()),
        "erm": (FULL_ERM, lambda cfg, out: ["erm", "--data", s1, s2, "--target", tgt,
                                            "--config", cfg, "--out", f"{out}/e.json"], ()),
        "diagnose": (report, lambda cfg, out: ["diagnose", "--fit", cfg,
                                               "--out", f"{out}/d.csv"], ("moments",)),
        "validate": (FULL_VALIDATE, lambda cfg, out: ["validate", "--config", cfg,
                                                      "--out", f"{out}/v.json"], ()),
    }


def key_paths(value, path=()):
    """(path, value) for every object key and list entry below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield (*path, key), child
        yield from key_paths(child, (*path, key))


def path_text(path) -> str:
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else f".{key}" if out else key
    return out


def json_kind(value):
    return "number" if type(value) in (int, float) else type(value)


class TestConfigReaders:
    @pytest.mark.parametrize("name", FULL_NAMES)
    def test_full_config_is_valid(self, tmp_path, full_configs, name):
        config, argv, _ = full_configs[name]
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        assert cli.run(argv(cfg, str(tmp_path / "out"))) == 0

    @pytest.mark.parametrize("name", FULL_NAMES)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_wrong_type_at_any_depth_is_user_error(self, full_configs, name, data):
        config, argv, under = full_configs[name]
        # another JSON type for each key, and a fraction where an integer stands
        cases = [
            (path, wrong)
            for path, value in key_paths(config)
            if path[: len(under)] == under and len(path) > len(under)
            for wrong in WRONG_VALUES
            if json_kind(wrong) != json_kind(value) or (type(value) is int and wrong == 0.5)
        ]
        path, wrong = data.draw(st.sampled_from(cases))
        bad = copy.deepcopy(config)
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = wrong
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write(Path(tmp) / "cfg.json", json.dumps(bad))
            out = Path(tmp) / "out"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                rc = cli.run(argv(cfg, str(out)))
            err = stderr.getvalue()
            assert rc == 1, (path, wrong)
            assert re.search(re.escape(f"{cfg}: {path_text(path)}") + r"[ \[.:]", err), err
            assert "Traceback" not in err
            assert not out.exists() or not any(out.iterdir())


class TestFit:
    def test_golden_summary(self, tmp_path):
        out = tmp_path / "report"
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
                str(out),
            ]
        )
        assert rc == 0
        expected = (FIXTURE / "expected_summary.txt").read_text(encoding="utf-8")
        assert (tmp_path / "report.txt").read_text(encoding="utf-8") == expected

    def test_json_twin_round_trips(self, tmp_path):
        out = tmp_path / "report"
        cli.run(
            [
                "fit",
                "--data",
                *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                "--target",
                str(FIXTURE / "target.csv"),
                "--config",
                str(FIXTURE / "fit_config.json"),
                "--out",
                str(out),
            ]
        )
        payload = json.loads((tmp_path / "report.json").read_text())
        fit = payload["fit"]
        assert abs(sum(fit["beta_hat"]) - 1.0) < 1e-12
        assert fit["df"] == fit["n_functions"] - len(fit["beta_hat"]) + 1
        # the text table is reproducible from the JSON numbers
        text = (FIXTURE / "expected_summary.txt").read_text()
        for est in fit["beta_hat"]:
            assert f"{est:.7f}" in text
        for t in fit["t_stats"]:
            assert f"{t:.3f}" in text
        assert payload["tool"]["name"] == "driftlab"
        assert "config_hash" in payload

    def test_byte_identical_reruns(self, tmp_path, small_data):
        s1, s2, tgt = small_data
        cfg = write(
            tmp_path / "cfg.json",
            '{"outcome": "y", "test_functions": ["column:x", "expr:x**2"]}',
        )
        args = ["fit", "--data", s1, s2, "--target", tgt, "--config", cfg]
        cli.run(args + ["--out", str(tmp_path / "a")])
        cli.run(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_simplex_mode_writes_weights(self, tmp_path, small_data):
        s1, s2, tgt = small_data
        cfg = write(
            tmp_path / "cfg.json",
            '{"outcome": "y", "test_functions": ["column:x", "expr:x**2"]}',
        )
        rc = cli.run(["fit", "--data", s1, s2, "--target", tgt, "--config", cfg,
                      "--mode", "simplex", "--out", str(tmp_path / "s")])
        assert rc == 0
        text = (tmp_path / "s.txt").read_text()
        assert "Simplex weight fit" in text
        payload = json.loads((tmp_path / "s.json").read_text())
        assert min(payload["fit"]["beta_hat"]) >= 0

    def test_simplex_report_is_standard_json(self, tmp_path):
        # a simplex fit has no R^2; it is written as null, not a bare NaN
        rc = cli.run(
            [
                "fit",
                "--data",
                *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                "--target",
                str(FIXTURE / "target.csv"),
                "--config",
                str(FIXTURE / "fit_config.json"),
                "--mode",
                "simplex",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        text = (tmp_path / "s.json").read_text(encoding="utf-8")
        fit = json.loads(text, parse_constant=reject)["fit"]
        assert fit["r_squared"] is None and fit["adj_r_squared"] is None

    def test_whiten_flag(self, tmp_path, capsys):
        # every occupation level's indicator: the levels sum to one, so
        # whitening drops the last level, and the fit equals the one declared
        # without it
        reduced = json.loads((FIXTURE / "fit_config.json").read_text())
        reduced["test_functions"][-1:] = ["indicator:occupation=clerk",
                                          "indicator:occupation=miner"]
        report = fit_fixture(tmp_path / "w", "--whiten")
        warning = capsys.readouterr().err.splitlines()
        assert warning == ["driftlab: warning: whitening drops 1 of 20 test functions, each "
                           "constant or linear in the ones before it on the pooled sources: "
                           "['indicator:occupation=nurse']"]
        payload = json.loads(report.read_text())
        assert payload["fit"]["whitened"] is True
        assert "whitening = TRUE" in (tmp_path / "w.txt").read_text()
        assert abs(sum(payload["fit"]["beta_hat"]) - 1.0) < 1e-12
        assert payload["test_functions"] == reduced["test_functions"]
        assert payload["fit"]["df"] == 16
        cfg = write(tmp_path / "reduced.json", json.dumps(reduced))
        ref = json.loads(fit_fixture(tmp_path / "r", "--whiten", config=cfg).read_text())
        assert capsys.readouterr().err == ""
        assert np.allclose(payload["fit"]["beta_hat"], ref["fit"]["beta_hat"],
                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_correlated_unwhitened_fit_points_at_whiten(self, tmp_path, capsys, action):
        # under an "error" filter, as with PYTHONWARNINGS=error, the run still
        # records the warning and prints it, and does not raise it
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            report = fit_fixture(tmp_path / "r")
        corr = json.loads(report.read_text())["fit"]["max_offdiag_corr"]
        assert corr > cli._WHITEN_HINT_CORRELATION
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: warning: test functions correlate up to {corr:.3g} on the pooled "
            f"sources (above {cli._WHITEN_HINT_CORRELATION}); the t/F inference assumes "
            "uncorrelated ones, so pass --whiten"]
        fit_fixture(tmp_path / "w", "--whiten")
        assert "pass --whiten" not in capsys.readouterr().err

    def test_whitened_fit_does_not_depend_on_a_declaration_s_units(self, tmp_path):
        # unwhitened, 1000*exp(-x4) moves the F p-value from 0.04 to below 2.2e-16
        fits = []
        for scale in ("", "1000*"):
            config = json.loads((FIXTURE / "fit_config.json").read_text())
            config["test_functions"] = [f"expr:{scale}exp(-x4)" if f == "expr:exp(-x4)" else f
                                        for f in config["test_functions"]]
            cfg = write(tmp_path / f"cfg{scale[:-1]}.json", json.dumps(config))
            report = fit_fixture(tmp_path / f"r{scale[:-1]}", "--whiten", config=cfg)
            fits.append(json.loads(report.read_text()))
        one, scaled = fits
        assert [f.replace("1000*", "") for f in scaled["test_functions"]] == \
            one["test_functions"]
        for key in ("beta_hat", "rss", "t_stats", "f_pvalue"):
            assert scaled["fit"][key] == pytest.approx(one["fit"][key], rel=1e-9, abs=0), key

    def test_whitened_fit_exits_1_when_scales_are_too_far_apart(self, tmp_path, capsys):
        # 1e7*exp(-x4) has a pooled variance ~1e14 times column:x3's: kept,
        # but beyond what S^(-1/2) can whiten in floating point
        config = json.loads((FIXTURE / "fit_config.json").read_text())
        config["test_functions"] = ["expr:1e7*exp(-x4)" if f == "expr:exp(-x4)" else f
                                    for f in config["test_functions"]]
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        rc = cli.run(["fit", "--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                      "--target", str(FIXTURE / "target.csv"), "--config", cfg, "--whiten",
                      "--out", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("driftlab: error: whitening cannot invert the kept test "
                                 "functions' pooled covariance, whose eigenvalues span over "
                                 "1e12: rescale 'column:x3' (variance ")
        assert " or 'expr:1e7*exp(-x4)' (variance " in err[0]
        assert not (tmp_path / "r.json").exists()

    def test_whitening_that_leaves_too_few_functions_counts_the_drops(self, tmp_path, capsys):
        # five declared, two of them linear in the first three: three kept < K = 4
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "outcome": "income",
            "test_functions": ["column:x1", "column:x2", "column:x3", "expr:2*x1",
                               "expr:x1+x2"]}))
        rc = cli.run(["fit", "--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                      "--target", str(FIXTURE / "target.csv"), "--config", cfg, "--whiten",
                      "--out", str(tmp_path / "r")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "driftlab: error: need at least as many test functions as datasets (L=3 < K=4): "
            "whitening dropped 2 of the 5 declared test functions as redundant"]

    def test_no_leftover_temp_files(self, tmp_path, small_data):
        out_dir, sim_dir = write_outputs(tmp_path, small_data)
        assert {p.name for p in out_dir.iterdir()} == {"r.txt", "r.json", "diag.csv"}
        assert {p.name for p in sim_dir.iterdir()} == {
            "source_1.csv", "target.csv", "world.json"
        }

    def test_outputs_respect_umask(self, tmp_path, small_data):
        old = os.umask(0o022)
        try:
            out_dir, sim_dir = write_outputs(tmp_path, small_data)
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777
                 for d in (out_dir, sim_dir) for p in d.iterdir()}
        assert len(modes) == 6
        assert set(modes.values()) == {0o644}, modes


BAD_FIT_DECLARATIONS = {
    "expr_dangling_operator": ("expr:x1+", "invalid expression: invalid syntax"),
    "expr_empty": ("expr:", "invalid expression: invalid syntax"),
    "expr_two_names": ("expr:x1 x2", "invalid expression: invalid syntax"),
    "expr_null_byte": ("expr:x1\x00", "invalid expression: source code string cannot "
                                       "contain null bytes"),
    "expr_too_deep": ("expr:" + "-" * 3000 + "x1", "expression is nested too deeply"),
    "expr_no_column": ("expr:2", "expression reads no column"),
    # a SyntaxWarning would print a second stderr line
    "expr_call_on_a_number": ("expr:2(x1)", "invalid expression: 'int' object is not "
                                            "callable; perhaps you missed a comma?"),
    "column_categorical": ("column:occupation",
                           "column 'occupation' of table 'source_1' is not numeric"),
    "product_categorical": ("product:x1*occupation",
                            "column 'occupation' of table 'source_1' is not numeric"),
    "standardized_categorical": ("product:x1*occupation:standardized",
                                 "column 'occupation' of table 'source_1' is not numeric"),
    "expr_categorical": ("expr:occupation*2",
                         "column 'occupation' of table 'source_1' is not numeric"),
    "indicator_not_a_number": ("indicator:x1=abc",
                               "column 'x1' is numeric, but 'abc' is not a number"),
    # nan equals no number, so the indicator would be the zero function
    "indicator_nan": ("indicator:x1=nan", "column 'x1' is numeric, and no cell equals nan"),
    "column_missing": ("column:nope", "table 'source_1' has no column 'nope'"),
    "expr_number_beyond_float64": ("expr:x1+1" + "0" * 400,
                                   "a number in the expression is too large for a float64"),
}


class TestFitDeclarations:
    def fit(self, tmp_path, declarations):
        cfg = write(tmp_path / "cfg.json",
                    json.dumps({"outcome": "income", "test_functions": declarations}))
        return cli.run(["fit", "--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                        "--target", str(FIXTURE / "target.csv"), "--config", cfg,
                        "--out", str(tmp_path / "out" / "r")])

    @pytest.mark.parametrize("case", sorted(BAD_FIT_DECLARATIONS))
    def test_bad_declaration_exits_1_with_one_line_naming_it(self, tmp_path, capsys, case):
        declaration, reason = BAD_FIT_DECLARATIONS[case]
        assert self.fit(tmp_path, ["column:x1", declaration, "column:x2"]) == 1
        err = capsys.readouterr().err
        assert err == f"driftlab: error: test function {declaration!r}: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("declaration", ["expr:log(x1)", "expr:x1+10**400",
                                             "expr:x1*2**5000", "expr:x1+1/0"])
    def test_non_finite_values_exit_1_with_one_line(self, tmp_path, capsys, declaration):
        # numbers are float64, so 10**400 is inf rather than an OverflowError, and
        # numpy's RuntimeWarning would print a line before the error
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.fit(tmp_path, ["column:x1", declaration, "column:x2"]) == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"driftlab: error: test function {declaration!r} produced a "
                              "non-finite value on dataset ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("file, column, value", [
        ("source_1.csv", "x1", "inf"), ("source_1.csv", "x1", "nan"),
        ("target.csv", "x2", "-inf")])
    def test_non_finite_cell_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, file, column, value
    ):
        # ingest reads the cell as a number; before this check, the pooled
        # constants of product:x1*x2:standardized turned nan and the error
        # blamed row 0 of the target
        argv = fixture_with_cell(tmp_path, file, column, 1, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run(["fit", *argv, "--config", str(FIXTURE / "fit_config.json"),
                          "--out", str(tmp_path / "out" / "r")])
        assert rc == 1 and caught == [] and not (tmp_path / "out").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: error: test function 'column:{column}': column {column!r} holds a "
            f"non-finite value on dataset {file[:-4]!r} at row 1"
        ]

    @pytest.mark.parametrize("declarations, error", [
        # the fixture's own functions: x1's pooled variance standardizes x1*x2
        (None, "test function 'product:x1*x2:standardized': column 'x1' has a pooled "
               "source variance beyond the float range"),
        (["column:x1", "column:x2", "column:x3", "column:x4", "expr:x2*x3"],
         "test function 'column:x1' has a pooled source variance beyond the float range"),
    ], ids=["standardized", "column"])
    def test_overflowing_cell_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, declarations, error
    ):
        # 1e300 is finite, but its square is not
        argv = fixture_with_cell(tmp_path, "source_1.csv", "x1", 1, "1e300")
        config = json.loads((FIXTURE / "fit_config.json").read_text())
        config["test_functions"] = declarations or config["test_functions"]
        cfg = write(tmp_path / "cfg.json", json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run(["fit", *argv, "--config", cfg, "--out", str(tmp_path / "out" / "r")])
        assert rc == 1 and caught == [] and not (tmp_path / "out").exists()
        assert capsys.readouterr().err.splitlines() == [f"driftlab: error: {error}"]

    @pytest.mark.parametrize("declaration, what", [
        # finite values whose squares overflow; two sources leave the fit full rank,
        # so the report used to hold a null pooled variance
        ("expr:x1*1e200", "pooled source variance"),
        # a constant: its pooled variance is 0, but a dataset's sum overflows
        ("expr:x3*0+1.7e308", "mean"),
    ])
    def test_moment_beyond_the_float_range_exits_1(self, tmp_path, capsys, declaration, what):
        cfg = write(tmp_path / "cfg.json", json.dumps(
            {"outcome": "income", "test_functions": ["column:x1", "column:x2", declaration]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run(["fit", "--data", str(FIXTURE / "source_1.csv"),
                          str(FIXTURE / "source_2.csv"), "--target", str(FIXTURE / "target.csv"),
                          "--config", cfg, "--out", str(tmp_path / "out" / "r")])
        assert rc == 1 and caught == [] and not (tmp_path / "out").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: error: test function {declaration!r} has a {what} beyond the float range"
        ]

    @pytest.mark.parametrize("command", [["fit"], ["fit", "--mode", "simplex"],
                                         ["erm", "--weights", "dlm"]],
                             ids=["fit", "fit_simplex", "erm_dlm"])
    def test_weight_fit_overflow_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, command
    ):
        # the target's mean of x1, 1e300 / 1200, is finite; the weight fit's
        # residual sum of squares is not
        argv = fixture_with_cell(tmp_path, "target.csv", "x1", 1, "1e300")
        cfg = write(tmp_path / "cfg.json", json.dumps({"outcome": "income", "test_functions": [
            "column:x1", "column:x2", "column:x3", "column:x4", "expr:x2*x3"]}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray numpy warning raises
            rc = cli.run([*command, *argv, "--config", cfg, "--out", str(out / "r")])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "driftlab: error: test function 'column:x1' takes the weight fit beyond the "
            "float range: its mean on dataset 'target' is 8.33333e+296"
        ]

    def test_repeated_declaration_is_named(self, tmp_path, capsys):
        assert self.fit(tmp_path, ["column:x1", "column:x2", "column:x1"]) == 1
        assert capsys.readouterr().err == ("driftlab: error: test function names must be "
                                           "distinct, but 'column:x1' repeats\n")

    def test_target_only_levels_warning_is_capped(self, tmp_path, capsys):
        # x3 sits on a 2^-10 grid: the target holds 900 values no source has;
        # cli.run prints its warnings to stderr once the run returns
        assert self.fit(tmp_path, ["auto_indicators:x3"]) == 0
        (message,) = [line for line in capsys.readouterr().err.splitlines()
                      if "auto_indicators" in line]
        assert message.startswith("driftlab: warning: auto_indicators:x3: 900 categories "
                                  "appear only in the target and are skipped (zero pooled "
                                  "variance): ['0.00")
        assert message.count("'") == 10


class TestSimulate:
    def test_simulate_outputs_and_determinism(self, tmp_path):
        cfg = write(
            tmp_path / "sim.json",
            json.dumps(
                {
                    "seed": 5,
                    "m": 50,
                    "scheme": {
                        "kind": "independent",
                        "laws": [{"family": "lognormal", "mu": 0.0, "sigma": 0.5}] * 2,
                    },
                    "n_k": 600,
                    "n_0": 500,
                    "columns": [{"name": "x", "dist": "uniform"}],
                }
            ),
        )
        rc = cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "d1")])
        assert rc == 0
        rc = cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "d2")])
        assert rc == 0
        for name in ["source_1.csv", "source_2.csv", "target.csv", "world.json"]:
            assert (tmp_path / "d1" / name).read_bytes() == (
                tmp_path / "d2" / name
            ).read_bytes()
        world = json.loads((tmp_path / "d1" / "world.json").read_text())
        sw = np.asarray(world["sigma_w"])
        assert sw.shape == (2, 2)
        assert sw[0, 0] == pytest.approx(np.exp(0.25) - 1)
        assert world["tool"]["version"]
        # the regenerated table ingests cleanly and has the declared sizes
        tbl = read_csv_table(tmp_path / "d1" / "source_1.csv")
        assert tbl.n_rows == 600

    def test_other_scheme_kinds_parse_and_run(self, tmp_path):
        for name, scheme in {
            "copula": {
                "kind": "gaussian_copula",
                "laws": [{"family": "lognormal", "mu": 0.0, "sigma": 0.5}] * 2,
                "corr": [[1.0, 0.7], [0.7, 1.0]],
            },
            "walk": {
                "kind": "random_walk",
                "base": {"family": "uniform", "lo": 0.5, "hi": 1.5},
                "innovation_sd": 0.05,
                "k": 3,
            },
            "mixture": {
                "kind": "mixture",
                "base_laws": [{"family": "gamma", "shape": 4.0, "scale": 0.25}] * 2,
                "coefficients": [[0.7, 0.3]],
                "noise_sd": [0.02],
            },
        }.items():
            cfg = write(
                tmp_path / f"{name}.json",
                json.dumps(
                    {
                        "seed": 1,
                        "m": 32,
                        "scheme": scheme,
                        "n_k": 400,
                        "n_0": 200,
                        "columns": [{"name": "x", "dist": "uniform"}],
                    }
                ),
            )
            rc = cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / name)])
            assert rc == 0, name
            world = json.loads((tmp_path / name / "world.json").read_text())
            sw = np.asarray(world["sigma_w"])
            assert sw.shape[0] == sw.shape[1] >= 2
            assert np.allclose(sw, sw.T)

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write(tmp_path / "sim.json", json.dumps(SMALL_SIM))
        cli.run(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.run(["simulate", "--config", cfg, "--seed", "99", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "source_1.csv").read_bytes() != (
            tmp_path / "b" / "source_1.csv"
        ).read_bytes()

    def test_fixture_config_reproduces_the_committed_fixture(self, tmp_path):
        cfg = str(FIXTURE / "sim_config.json")
        assert cli.run(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        names = [f"source_{k}.csv" for k in range(1, 5)] + ["target.csv", "world.json"]
        for name in names:
            assert (tmp_path / name).read_bytes() == (FIXTURE / name).read_bytes(), name

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="the disabled numpy features are x86 ones")
    def test_fixture_bytes_do_not_depend_on_numpys_avx512_kernels(self, tmp_path):
        # numpy runs log1p, log and exp through AVX-512 kernels where the CPU
        # has them, and those differ from libm's in the last bit; simulate
        # takes its transcendental functions from libm, so a child with those
        # kernels off writes the committed fixture too
        disabled = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        script = (
            "import sys\n"
            "from numpy._core._multiarray_umath import __cpu_features__\n"
            "from driftlab import cli\n"
            f"assert not any(__cpu_features__[f] for f in {disabled!r}), 'AVX-512 is on'\n"
            "sys.exit(cli.run(['simulate', '--config', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(FIXTURE / "sim_config.json"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name in [f"source_{k}.csv" for k in range(1, 5)] + ["target.csv", "world.json"]:
            assert (tmp_path / name).read_bytes() == (FIXTURE / name).read_bytes(), name

    def test_make_fixture_rebuilds_the_committed_fixture(self, tmp_path, monkeypatch):
        path = Path(__file__).parents[1] / "scripts" / "make_fixture.py"
        spec = importlib.util.spec_from_file_location("make_fixture", path)
        script = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        spec.loader.exec_module(script)
        script.FIXTURE = tmp_path / "fixture"
        script.FIXTURE.mkdir()
        for name in script.CONFIGS:  # the script rebuilds from the committed configs
            shutil.copy(FIXTURE / name, script.FIXTURE / name)
        script.main()
        names = sorted(p.name for p in FIXTURE.iterdir())
        assert sorted(p.name for p in script.FIXTURE.iterdir()) == names
        for name in names:
            assert (script.FIXTURE / name).read_bytes() == (FIXTURE / name).read_bytes(), name

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"scheme": {"kind": "independent"}}, "sim.json: scheme.laws is missing"),
            ({"m": "ten"}, "sim.json: m must be an integer, got 'ten'"),
            ({"m": 50.9}, "sim.json: m must be an integer, got 50.9"),
            (
                {"columns": [{"name": "x", "dist": "gaussian", "sd": "big"}]},
                "sim.json: columns[0].sd must be a finite number, got 'big'",
            ),
            ({"columns": [{"name": "x", "dist": "gaussian", "sd": -1}]}, "sim.json: columns[0]: sd must be > 0"),
            ({"columns": [{"name": "x", "dist": "exponential", "rate": 0}]}, "sim.json: columns[0]: rate must be > 0"),
            (
                {"scheme": {"kind": "independent",
                            "laws": [{"family": "lognormal", "mu": 0.0, "sigma": "wide"}]}},
                "sim.json: scheme.laws[0].sigma must be a finite number, got 'wide'",
            ),
            ({"columns": [1]}, "sim.json: columns[0] must be an object, got 1"),
            (
                {"columns": [{"name": "x", "dist": "uniform"}, {"name": "x", "dist": "uniform"}]},
                "sim.json: columns[1].name must be distinct from the names before it, got 'x'",
            ),
            ({"columns": [{"name": "x", "dist": "gaussian", "sdd": 1}]}, "sim.json: columns[0] has unknown keys ['sdd']"),
            (
                {"scheme": {"kind": "independent", "laws": [SMALL_SIM["scheme"]["laws"][0]] * 2},
                 "n_k": [200, 0]},
                "sim.json: n_k[1] must be an integer >= 1, got 0",
            ),
            (
                {"columns": [{"name": "c", "dist": "categorical", "levels": ["a", "b"],
                              "probs": [0.2, 0.3, 0.5]}]},
                "sim.json: columns[0]: probs must have one entry per level",
            ),
            (
                {"scheme": {"kind": "gaussian_copula", "laws": [SMALL_SIM["scheme"]["laws"][0]] * 2,
                            "corr": [[1, 0.5], [0.5]]}},
                "sim.json: scheme: copula_corr must be K x K",
            ),
            (
                {"scheme": {"kind": "random_walk",
                            "base": {"family": "uniform", "lo": 0.5, "hi": 1.5},
                            "innovation_sd": 100, "k": 200}},
                "sim.json: the weight scheme's sigma_w overflows the float range",
            ),
            (
                {"scheme": {"kind": "independent",
                            "laws": [{"family": "lognormal", "mu": 0.0, "sigma": 30}]}},
                "sim.json: scheme.laws[0]: lognormal weight law's mean or variance is beyond "
                "the float range",
            ),
            (
                {"scheme": {"kind": "independent",
                            "laws": [{"family": "lognormal", "mu": 400, "sigma": 0.5}]}},
                "sim.json: scheme.laws[0]: lognormal weight law's mean or variance is beyond "
                "the float range",
            ),
            (
                {"scheme": {"kind": "mixture", "base_laws": [SMALL_SIM["scheme"]["laws"][0]] * 2,
                            "coefficients": [], "noise_sd": []}},
                "sim.json: scheme: coefficients must hold at least one row",
            ),
            (
                {"scheme": {"kind": "independent", "laws": []}},
                "sim.json: the weight scheme needs at least one law: it has no datasets",
            ),
            (
                {"scheme": {"kind": "mixture", "base_laws": [], "coefficients": [],
                            "noise_sd": []}},
                "sim.json: scheme: coefficients must hold at least one row",
            ),
            (
                {"scheme": {"kind": "gaussian_copula", "laws": [], "corr": []}},
                "sim.json: the weight scheme needs at least one law: it has no datasets",
            ),
        ],
        ids=["missing_key", "non_integer", "fractional_m", "sd_not_a_number", "sd_negative",
             "rate_zero", "law_sigma_not_a_number", "column_not_an_object", "duplicate_column",
             "unknown_column_key", "n_k_zero", "probs_length", "ragged_corr",
             "walk_sigma_w_overflows", "law_variance_overflows", "law_mean_overflows",
             "mixture_no_coefficients", "no_laws", "mixture_no_laws", "copula_no_laws"],
    )
    def test_bad_config_value_is_user_error(self, tmp_path, capsys, change, message):
        cfg = write(tmp_path / "sim.json", json.dumps({**SMALL_SIM, **change}))
        out = tmp_path / "d"
        rc = cli.run(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and "invalid literal" not in err
        assert not out.exists() or not any(out.iterdir())


class TestErmCli:
    def test_uniform_and_file_weights(self, tmp_path, small_data):
        s1, s2, tgt = small_data
        rc = cli.run(["erm", "--data", s1, s2, "--target", tgt, "--loss", "squared",
                      "--weights", "uniform", "--out", str(tmp_path / "u.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "u.json").read_text())
        assert payload["erm"]["weights"] == [0.5, 0.5]
        wfile = write(tmp_path / "w.json", "[0.25, 0.75]")
        rc = cli.run(["erm", "--data", s1, s2, "--target", tgt,
                      "--weights", f"file:{wfile}", "--out", str(tmp_path / "f.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "f.json").read_text())
        assert payload["erm"]["weights"] == [0.25, 0.75]

    @pytest.mark.parametrize(
        "content, message",
        [(None, "{}: cannot read (No such file or directory)"),
         ("0.25, 0.75", "{}: invalid JSON (Extra data: line 1 column 5 (char 4))"),
         ("[NaN, 0.5, 0.25, 0.25]", "{}: weights[0] must be a finite number, got nan"),
         ("[[0.25, 0.25], [0.25, 0.25]]",
          "{}: weights[0] must be a finite number, got [0.25, 0.25]"),
         ("[0.25, 0.25, 0.5]", "{}: weights must hold 2 values, one per source, got 3"),
         ("[0.25, 0.5]", "{}: weights must sum to 1, got 0.75")],
        ids=["missing", "not_json", "nan", "nested", "too_many", "bad_sum"],
    )
    def test_unreadable_weights_file_is_user_error(
        self, tmp_path, small_data, capsys, content, message
    ):
        s1, s2, tgt = small_data
        wfile = tmp_path / "w.json"
        if content is not None:
            write(wfile, content)
        out = tmp_path / "f.json"
        rc = cli.run(["erm", "--data", s1, s2, "--target", tgt,
                      "--weights", f"file:{wfile}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"driftlab: error: {message.format(wfile)}" in err
        assert len(err.splitlines()) == 1 and not out.exists()
        assert "Traceback" not in err and "invalid literal" not in err

    @pytest.mark.parametrize("weights", ["uniform", "importance"])
    def test_covariate_that_is_not_numeric_is_user_error(
        self, tmp_path, small_data, capsys, weights
    ):
        s1, s2, tgt = small_data
        out = tmp_path / "e.json"
        cases = [
            (["--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
              "--target", str(FIXTURE / "target.csv"), "--config",
              write(tmp_path / "cfg.json", '{"outcome": "income", "covariates": ["occupation"]}')],
             "covariate 'occupation' of table 'source_1' is not numeric"),
            (["--data", s1, write(tmp_path / "s2.csv", "x,y\na,1.0\nb,2.0\n"), "--target", tgt],
             "covariate 'x' of table 's2' is not numeric"),
        ]
        for argv, message in cases:
            rc = cli.run(["erm", *argv, "--weights", weights, "--out", str(out)])
            assert rc == 1
            assert capsys.readouterr().err.splitlines() == [f"driftlab: error: {message}"]
            assert not out.exists()

    @pytest.mark.parametrize("weights", ["uniform", "importance"])
    def test_solver_failure_is_user_error(self, tmp_path, capsys, weights):
        out = tmp_path / "e.json"
        cfg = write(tmp_path / "cfg.json", '{"outcome": "income", "covariates": ["x1", "x1"]}')
        rc = cli.run(["erm", "--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                      "--target", str(FIXTURE / "target.csv"), "--config", cfg,
                      "--weights", weights, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "driftlab: error: erm on covariates ['x1', 'x1']: "
            "weighted Hessian is singular at the optimum"
        ]
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("weights", ["uniform", "dlm", "importance"])
    def test_badly_scaled_covariate_is_not_reported_as_collinear(
        self, tmp_path, capsys, weights
    ):
        # x1 = 1e154 squares to about 1e308, yet the fit converges: its
        # stopping rule has no units, and the Hessian scaled to unit diagonal
        # has full rank
        argv = fixture_with_cell(tmp_path, "source_1.csv", "x1", 1, "1e154")
        out = tmp_path / "e.json"
        cfg = write(tmp_path / "cfg.json", '{"outcome": "income"}')
        rc = cli.run(["erm", *argv, "--config", cfg, "--weights", weights,
                      "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0
        assert "singular" not in err and "did not converge" not in err
        fit = json.loads(out.read_text(encoding="utf-8"))["erm"]
        assert fit["converged"] is True
        assert np.all(np.isfinite(fit["theta_hat"]))

    @pytest.mark.parametrize(
        "weights, file, column, value",
        [(w, "source_1.csv", "income", v)
         for w in ("uniform", "dlm", "importance", "file") for v in ("nan", "inf")]
        + [(w, "source_2.csv", "x3", "nan") for w in ("uniform", "importance")]
        + [("importance", "target.csv", "x1", "-inf")],
    )
    def test_non_finite_cell_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, weights, file, column, value
    ):
        # such cells are numbers to ingest; erm, which would fit them, refuses
        argv = fixture_with_cell(tmp_path, file, column, 7, value)
        if weights == "file":
            weights = f"file:{write(tmp_path / 'w.json', '[0.25, 0.25, 0.25, 0.25]')}"
        out = tmp_path / "e.json"
        cfg = write(tmp_path / "cfg.json", '{"outcome": "income"}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray numpy warning raises
            rc = cli.run(["erm", *argv, "--config", cfg, "--weights", weights,
                          "--out", str(out)])
        assert rc == 1 and not out.exists()
        role = "outcome" if column == "income" else "covariate"
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: error: {role} {column!r} holds a non-finite value on dataset "
            f"{file[:-4]!r} at row 7"
        ]

    @pytest.mark.parametrize(
        "weights, file, column",
        [(w, "source_1.csv", "x1") for w in ("uniform", "importance")]
        + [(w, "source_1.csv", "income") for w in ("uniform", "dlm", "importance", "file")]
        + [("importance", "target.csv", "x1")],
    )
    def test_overflowing_cell_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, weights, file, column
    ):
        # 1e300 is finite, but its square is not; the fit sums squares of
        # every column it reads
        argv = fixture_with_cell(tmp_path, file, column, 1, "1e300")
        if weights == "file":
            weights = f"file:{write(tmp_path / 'w.json', '[0.25, 0.25, 0.25, 0.25]')}"
        out = tmp_path / "e.json"
        cfg = write(tmp_path / "cfg.json", '{"outcome": "income"}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray numpy warning raises
            rc = cli.run(["erm", *argv, "--config", cfg, "--weights", weights,
                          "--out", str(out)])
        assert rc == 1 and not out.exists()
        role = "outcome" if column == "income" else "covariate"
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: error: {role} {column!r} of dataset {file[:-4]!r} has a sum of "
            "squares beyond the float range"
        ]

    @pytest.mark.parametrize("weights", ["uniform", "dlm", "file"])
    @pytest.mark.parametrize("file", ["source_1.csv", "source_2.csv"])
    def test_overflowing_influence_variance_exits_1_with_one_line_naming_it(
        self, tmp_path, capsys, weights, file
    ):
        # 1e154 passes the sum-of-squares check, but the squared-loss
        # gradient 2 * 1e154 * income has a square beyond the float range
        argv = fixture_with_cell(tmp_path, file, "income", 1, "1e154")
        if weights == "file":
            weights = f"file:{write(tmp_path / 'w.json', '[0.25, 0.25, 0.25, 0.25]')}"
        out = tmp_path / "e.json"
        cfg = write(tmp_path / "cfg.json", json.dumps({"outcome": "income", "test_functions": [
            "column:x1", "column:x2", "column:x3", "column:x4", "expr:x2*x3"]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray numpy warning raises
            rc = cli.run(["erm", *argv, "--config", cfg, "--weights", weights,
                          "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "driftlab: error: erm on outcome 'income': the influence variance overflows the "
            f"float range in the gradient products of source {file[:-4]!r}"
        ]

    def test_unknown_weights_form_exits_before_ingest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "read_csv_table", lambda *a: pytest.fail("a CSV was opened"))
        out = tmp_path / "e.json"
        rc = cli.run(["erm", "--data", str(tmp_path / "s.csv"), "--target",
                      str(tmp_path / "nonexistent.csv"), "--weights", "bogus", "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "driftlab: error: unknown weights scheme 'bogus'"]

    @pytest.mark.parametrize("weights", ["uniform", "dlm", "importance", "file"])
    def test_every_weights_form_is_one_fit_erm_call_on_its_row_weights(
        self, tmp_path, monkeypatch, weights
    ):
        paths = [str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)]
        tgt = str(FIXTURE / "target.csv")
        data = cli.ingest(paths, tgt, "income")
        covariates = data.numeric_covariates
        x, y = erm.design_matrix(data.sources, covariates), erm.outcome_vector(data)
        sizes = np.array(data.sizes)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dlm fit's L == K, the importance clip
            if weights == "importance":
                iw = erm.importance_weights(
                    erm.design_matrix((*data.sources, data.target), covariates), y.size)
                w = iw.weights / iw.weights.sum()
            else:
                if weights == "dlm":
                    tests = parse_test_functions([f"column:{c}" for c in covariates], data)
                    beta = fit_weights(evaluate_moments(data, tests), mode="simplex").beta_hat
                else:
                    beta = np.array([0.1, 0.2, 0.3, 0.4] if weights == "file" else [0.25] * 4)
                w = np.repeat(beta / sizes, sizes)
            expected = erm.fit_erm(x, y, w, sizes, erm.squared_error_loss())
            calls = []
            fit_erm = erm.fit_erm
            monkeypatch.setattr(erm, "fit_erm", lambda *a: calls.append(a) or fit_erm(*a))
            if weights == "file":
                weights = f"file:{write(tmp_path / 'w.json', '[0.1, 0.2, 0.3, 0.4]')}"
            out = tmp_path / "e.json"
            assert cli.run(["erm", "--data", *paths, "--target", tgt, "--config",
                            write(tmp_path / "cfg.json", '{"outcome": "income"}'),
                            "--weights", weights, "--out", str(out)]) == 0
        assert len(calls) == 1
        assert np.array_equal(calls[0][2], w)
        assert json.loads(out.read_text())["erm"]["theta_hat"] == expected.theta_hat.tolist()

    def test_non_finite_covariate_exits_before_the_weight_fit_warns(
        self, tmp_path, monkeypatch, capsys
    ):
        # L == K test functions make the dlm fit warn; x3 is a covariate
        # that no test function reads
        argv = fixture_with_cell(tmp_path, "source_2.csv", "x3", 7, "nan")
        cfg = write(tmp_path / "cfg.json", json.dumps({
            "outcome": "income",
            "test_functions": ["column:x1", "column:x2", "column:x4", "expr:x1*x2"]}))
        out = tmp_path / "e.json"
        monkeypatch.setattr(cli.dlm_mod, "fit_weights",
                            lambda *a, **k: pytest.fail("the weight fit ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray numpy warning raises
            rc = cli.run(["erm", *argv, "--config", cfg, "--weights", "dlm",
                          "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "driftlab: error: covariate 'x3' holds a non-finite value on dataset "
            "'source_2' at row 7"
        ]

    @pytest.mark.parametrize("weights, cell, rc, stderr", [
        # four covariates and four sources: the dlm fit has L == K and warns
        ("dlm", None, 0, "driftlab: warning: L == K leaves a single degree of freedom; "
                         "inference will have very low power"),
        # the dlm fit warns, or the importance weights are clipped, before
        # the influence variance overflows; exit 1 prints the error alone
        *[(weights, "1e154", 1, "driftlab: error: erm on outcome 'income': the influence "
                                "variance overflows the float range in the gradient "
                                "products of source 'source_1'")
          for weights in ("dlm", "importance")],
    ], ids=["dlm", "dlm_exit_1", "importance_exit_1"])
    def test_warning_is_one_stderr_line(self, tmp_path, weights, cell, rc, stderr):
        # pytest records warnings, so the run prints from a fresh interpreter,
        # which then checks that Python's format is untouched
        script = (
            "import sys, warnings\n"
            "from driftlab import cli\n"
            "python_format = warnings.formatwarning\n"
            "rc = cli.run(sys.argv[1:])\n"
            "print(rc, warnings.formatwarning is python_format)\n"
        )
        data = (fixture_with_cell(tmp_path, "source_1.csv", "income", 1, cell) if cell else
                ["--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                 "--target", str(FIXTURE / "target.csv")])
        argv = ["erm", *data, "--config", write(tmp_path / "cfg.json", '{"outcome": "income"}'),
                "--weights", weights, "--out", str(tmp_path / "e.json")]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.stdout.splitlines()[-1] == f"{rc} True"
        assert proc.stderr.splitlines() == [stderr]

    def test_default_covariates_are_the_library_default(self, tmp_path):
        # z is numeric in the sources and text in the target, so neither erm
        # nor fit_erm takes it as a default covariate
        rng = np.random.default_rng(3)
        paths = []
        for name in ("s1", "s2"):
            x, z = rng.normal(size=50), rng.normal(size=50)
            paths.append(write(tmp_path / f"{name}.csv", "x,z,y\n" + "".join(
                f"{a},{b},{2 * a + b}\n" for a, b in zip(x, z))))
        tgt = write(tmp_path / "t.csv", "x,z\n1.0,a\n2.0,b\n")
        out = tmp_path / "e.json"
        assert cli.run(["erm", "--data", *paths, "--target", tgt, "--weights", "uniform",
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())["erm"]
        data = cli.ingest(paths, tgt, "y")
        covariates = data.numeric_covariates
        fit = erm.fit_erm(erm.design_matrix(data.sources, covariates), erm.outcome_vector(data),
                          np.full(100, 1 / 100), data.sizes, erm.squared_error_loss())
        assert report["feature_names"] == ["intercept", *covariates] == ["intercept", "x"]
        assert report["theta_hat"] == fit.theta_hat.tolist()

    def test_importance_weights_path(self, tmp_path):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=400)
        x2 = rng.normal(loc=0.5, size=400)
        xt = rng.normal(size=300)
        s1 = write(tmp_path / "s1.csv", "x,y\n" + "\n".join(f"{v},{2*v}" for v in x1))
        s2 = write(tmp_path / "s2.csv", "x,y\n" + "\n".join(f"{v},{2*v}" for v in x2))
        tgt = write(tmp_path / "t.csv", "x\n" + "\n".join(str(v) for v in xt))
        rc = cli.run(["erm", "--data", s1, s2, "--target", tgt,
                      "--weights", "importance", "--out", str(tmp_path / "iw.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "iw.json").read_text())["erm"]
        assert payload["provenance"]["scheme"] == "importance"
        assert "clip_threshold" in payload["weights"]
        assert payload["theta_hat"][1] == pytest.approx(2.0, abs=0.05)

    def test_dlm_weights_report_ci_and_risk(self, tmp_path):
        rc = cli.run(
            [
                "erm",
                "--data",
                *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                "--target",
                str(FIXTURE / "target.csv"),
                "--loss",
                "squared",
                "--weights",
                "dlm",
                "--config",
                write(tmp_path / "cfg.json", '{"outcome": "income"}'),
                "--out",
                str(tmp_path / "dlm.json"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "dlm.json").read_text())["erm"]
        assert abs(sum(payload["weights"]) - 1) < 1e-9
        assert min(payload["weights"]) >= 0  # simplex default for erm weighting
        assert payload["ood_risk"]["mode"] == "observational"
        lo, hi = zip(*payload["ci"]["intervals"])
        theta = payload["theta_hat"]
        assert all(a <= t <= b for a, t, b in zip(lo, theta, hi))

    def test_logistic_loss_rejects_an_outcome_that_is_not_0_or_1(self, tmp_path, capsys):
        out = tmp_path / "logit.json"
        rc = cli.run(["erm", "--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                      "--target", str(FIXTURE / "target.csv"), "--loss", "logistic",
                      "--weights", "uniform",
                      "--config", write(tmp_path / "cfg.json", '{"outcome": "income"}'),
                      "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "driftlab: error: --loss logistic needs a 0/1 outcome, but column 'income' "
            "of source 'source_1' holds other values"
        ]
        assert not out.exists()

    def test_logistic_loss_fits_a_0_1_outcome(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = []
        for name, loc in (("s1", 0.0), ("s2", 0.5)):
            x = rng.normal(loc=loc, size=300)
            y = (rng.random(300) < 1 / (1 + np.exp(-x))).astype(int)
            paths.append(write(tmp_path / f"{name}.csv",
                               "x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y))))
        tgt = write(tmp_path / "t.csv", "x\n" + "\n".join(str(v) for v in rng.normal(size=200)))
        out = tmp_path / "logit.json"
        rc = cli.run(["erm", "--data", *paths, "--target", tgt, "--loss", "logistic",
                      "--weights", "uniform", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())["erm"]
        assert payload["loss"] == "logistic" and payload["converged"] is True
        assert len(payload["theta_hat"]) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [("level", 1.5, "level must be a number in (0, 1), got 1.5"),
         ("level", 0, "level must be a number in (0, 1), got 0"),
         ("clip_quantile", 1.5, "clip_quantile must be a number in [0, 1], got 1.5")],
    )
    def test_out_of_range_setting_exits_before_ingest(
        self, tmp_path, small_data, monkeypatch, capsys, key, value, message
    ):
        monkeypatch.setattr(cli, "read_csv_table", lambda *a: pytest.fail("a CSV was opened"))
        s1, s2, tgt = small_data
        cfg = write(tmp_path / "cfg.json", json.dumps({key: value}))
        rc = cli.run(["erm", "--data", s1, s2, "--target", tgt, "--weights", "importance",
                      "--config", cfg, "--out", str(tmp_path / "e.json")])
        assert rc == 1
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()


def fit_fixture(out, *flags, data_dir=FIXTURE, config=FIXTURE / "fit_config.json"):
    """Fit the fixture panel in ``data_dir``; return the report's path."""
    rc = cli.run(["fit", "--data", *[str(data_dir / f"source_{k}.csv") for k in range(1, 5)],
                  "--target", str(data_dir / "target.csv"),
                  "--config", str(config), *flags, "--out", str(out)])
    assert rc == 0
    return out.with_suffix(".json")


def diagnose(report, out) -> int:
    return cli.run(["diagnose", "--fit", str(report), "--out", str(out)])


def _keep_functions(moments, n):
    """A moments block cut down to its first ``n`` test functions."""
    moments["names"] = moments["names"][:n]
    moments["phi_hat"] = [row[:n] for row in moments["phi_hat"]]
    moments["pooled_var_diag"] = moments["pooled_var_diag"][:n]


class TestDiagnoseCli:
    def test_diagnose_from_fit_report(self, tmp_path):
        report = fit_fixture(tmp_path / "report")
        rc = diagnose(report, tmp_path / "diag.csv")
        assert rc == 0
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        assert lines[0].startswith("# driftlab")
        assert lines[1] == "plot_id,x,y,label"
        kinds = {ln.split(",")[0] for ln in lines[2:]}
        assert "qq_normal" in kinds
        assert "residual_vs_fitted" in kinds
        assert "moment_scatter" in kinds
        assert "shift_stat" in kinds

    @pytest.mark.parametrize("flags", [(), ("--whiten",), ("--mode", "simplex")],
                             ids=["fixture", "whiten", "simplex"])
    def test_bundle_equals_the_one_built_from_the_data(self, tmp_path, flags):
        config = json.loads((FIXTURE / "fit_config.json").read_text())
        cfg = write(tmp_path / "fit_config.json", json.dumps(config))
        report = fit_fixture(tmp_path / "report", *flags, config=cfg)
        assert diagnose(report, tmp_path / "diag.csv") == 0
        # reference: the moments recomputed from the CSVs, as fit computes them
        data = cli.ingest([str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                          str(FIXTURE / "target.csv"), "income")
        moments = evaluate_moments(data, parse_test_functions(config["test_functions"], data))
        if "--whiten" in flags:
            with pytest.warns(UserWarning, match=r"\['indicator:occupation=nurse'\]"):
                moments = whiten_moments(moments)
        fit = fit_weights(moments, mode="simplex" if "simplex" in flags else "sum_to_one")
        plot_id, x, y, label = zip(*diagnostic_rows(fit))
        table = Table("diagnostics", dict(plot_id=plot_id, x=x, y=y, label=label))
        payload = json.loads(report.read_text())
        # the flags are the report's one record of the mode and the whitening
        assert {k: payload["config"]["argv"][k] for k in ("mode", "whiten")} == {
            "mode": fit.mode, "whiten": "--whiten" in flags}
        chash = payload["config_hash"]
        write_csv_table(table, tmp_path / "ref.csv", f"driftlab {cli.__version__} config={chash}")
        assert (tmp_path / "diag.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_describes_the_fit_after_the_data_change(self, tmp_path):
        data_dir = shutil.copytree(FIXTURE, tmp_path / "data")
        report = fit_fixture(tmp_path / "report", data_dir=data_dir)
        # the stamp line, the header and the first 698 rows
        lines = (data_dir / "source_1.csv").read_text().splitlines(keepends=True)
        (data_dir / "source_1.csv").write_text("".join(lines[:700]))
        assert diagnose(report, tmp_path / "diag.csv") == 0
        rows = read_csv_table(tmp_path / "diag.csv")
        residuals = rows.column("y")[np.asarray(rows.column("plot_id")) == "residual_vs_fitted"]
        assert residuals.tolist() == json.loads(report.read_text())["fit"]["residuals"]

    def test_stamps_the_hash_of_the_report_config(self, tmp_path):
        report = fit_fixture(tmp_path / "report")
        payload = json.loads(report.read_text())
        stored = payload["config_hash"]
        assert stored == cli.config_hash(payload["config"])
        payload["config_hash"] = "abc\nplot_id,x\n1,2"
        report.write_text(json.dumps(payload))
        assert diagnose(report, tmp_path / "diag.csv") == 0
        lines = (tmp_path / "diag.csv").read_text().splitlines()
        assert lines[:2] == [f"# driftlab {cli.__version__} config={stored}", "plot_id,x,y,label"]
        assert read_csv_table(tmp_path / "diag.csv").columns == ("plot_id", "x", "y", "label")

    def test_opens_no_csv(self, tmp_path, monkeypatch):
        report = fit_fixture(tmp_path / "report")
        monkeypatch.setattr(cli, "read_csv_table", lambda *a: pytest.fail("a CSV was opened"))
        assert diagnose(report, tmp_path / "diag.csv") == 0

    @pytest.mark.parametrize("key, edit, message", [
        (None, lambda r: r.pop("moments"), "no moments block; re-run fit to write one"),
        (None, lambda r: r.pop("config"), "config must be an object, got None"),
        ("sizes", lambda s: s.__setitem__(0, 0.5),
         "moments.sizes[0] must be an integer >= 1, got 0.5"),
        ("pooled_var_diag", lambda v: v.__setitem__(0, -1.0),
         "moments.pooled_var_diag[0] must be a finite number >= 0, got -1.0"),
        ("sizes", list.pop, "moments: phi_hat must have one row per size"),
        ("pooled_var_diag", list.pop, "moments: pooled_var must be L x L"),
        ("phi_hat", lambda rows: rows[2].pop(),
         "moments.phi_hat[2] must be a list of 20 numbers, got 19 entries"),
        (None, lambda r: _keep_functions(r["moments"], 2),
         "need at least as many test functions as datasets (L=2 < K=4)"),
        ("phi_hat", lambda rows: rows.__setitem__(2, list(rows[1])),
         "dataset moment deviations are collinear: 'source_1' ~ 'source_2'"),
        ("names", lambda names: names.__setitem__(3, names[1]),
         "moments: test function names must be distinct, but 'column:x2' repeats"),
        ("source_names", lambda names: names.__setitem__(2, names[0]),
         "moments: source names must be distinct, but 'source_1' repeats; sources are "
         "named by their file stem"),
    ], ids=["no_moments", "no_config", "fractional_size", "negative_variance", "sizes_short",
            "diag_short", "ragged_phi_hat", "fewer_functions_than_sources", "identical_sources",
            "repeated_function_name", "repeated_source_name"])
    def test_bad_report_exits_1_naming_the_file(self, tmp_path, capsys, key, edit, message):
        report = fit_fixture(tmp_path / "report")
        payload = json.loads(report.read_text())
        edit(payload if key is None else payload["moments"][key])
        report.write_text(json.dumps(payload))
        capsys.readouterr()
        assert diagnose(report, tmp_path / "diag.csv") == 1
        err = capsys.readouterr().err
        assert f"driftlab: error: {report}: {message}" in err
        assert not (tmp_path / "diag.csv").exists()

    @pytest.mark.parametrize("row, column, dataset", [(0, 0, "target"), (2, 3, "source_2")])
    def test_phi_hat_beyond_the_float_range_exits_1_with_one_line(
        self, tmp_path, capsys, row, column, dataset
    ):
        report = fit_fixture(tmp_path / "report")
        payload = json.loads(report.read_text())
        payload["moments"]["phi_hat"][row][column] = 1e308
        report.write_text(json.dumps(payload))
        name = payload["moments"]["names"][column]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stray numpy warning raises
            assert diagnose(report, tmp_path / "diag.csv") == 1
        assert capsys.readouterr().err.splitlines() == [
            f"driftlab: error: {report}: test function {name!r} takes the weight fit beyond "
            f"the float range: its mean on dataset {dataset!r} is 1e+308"
        ]
        assert not (tmp_path / "diag.csv").exists()

    def test_data_flag_is_gone(self, tmp_path):
        report = fit_fixture(tmp_path / "report")
        rc = cli.run(["diagnose", "--fit", str(report), "--data", "x.csv",
                      "--out", str(tmp_path / "diag.csv")])
        assert rc == 1
        assert not (tmp_path / "diag.csv").exists()


class TestValidateCli:
    def test_light_validate_passes(self, tmp_path):
        cfg = write(
            tmp_path / "val.json",
            json.dumps({"seed": 3, "checks": ["clt_cov"],
                        "clt_cov": {"replicates": 400, "m": 100}}),
        )
        rc = cli.run(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "v.json").read_text())
        assert payload["report"]["all_passed"] is True

    def test_failed_check_exits_2(self, tmp_path, monkeypatch):
        from driftlab import harness

        def fake_run(config):
            result = harness.CheckResult(
                name="clt_cov", passed=False, runtime_s=0.0, definition="x",
                target={}, empirical={}, mc_se={},
            )
            return harness.HarnessReport(results=(result,), seed=0)

        monkeypatch.setattr(cli, "run_harness", fake_run)
        rc = cli.run(["validate", "--out", str(tmp_path / "v.json")])
        assert rc == 2

    @pytest.mark.parametrize(
        "block, setting, message",
        [("null_laws", {"m": 100},
          "null_laws.m must be a power of two larger than n_functions (50), got 100"),
         ("ci_chi2", {"m": 256, "n_functions": 256},
          "ci_chi2.m must be a power of two larger than n_functions (256), got 256"),
         ("ci_chi2", {"n0_ratio": 0}, "ci_chi2.n0_ratio must be an integer >= 1, got 0"),
         ("null_laws", {"n_sources": 1}, "null_laws.n_sources must be at least 2, got 1"),
         ("ci_chi2", {"n_functions": 1, "n_sources": 2},
          "ci_chi2.n_functions must be at least n_sources (2), got 1"),
         ("conditional_shift", {"m": 100},
          "conditional_shift.m must be a power of two >= 8, got 100"),
         ("conditional_shift", {"m": 4}, "conditional_shift.m must be a power of two >= 8, got 4"),
         ("kron_cov", {"m": 1}, "kron_cov.m must be at least 2, got 1"),
         ("clt_cov", {"n_ratio": 0}, "clt_cov.n_ratio must be an integer >= 1, got 0"),
         ("clt_cov", {"n_sources": 0}, "clt_cov.n_sources must be an integer >= 1, got 0"),
         ("null_laws", {"n_functions": 2, "n_sources": 3},
          "null_laws.n_functions must be at least n_sources (3), got 2"),
         ("erm_excess_risk", {"replicates": 99},
          "erm_excess_risk.replicates must be at least 100, got 99")],
    )
    def test_bad_block_setting_exits_before_any_check(
        self, tmp_path, monkeypatch, capsys, block, setting, message
    ):
        monkeypatch.setattr(cli, "run_harness", lambda config: pytest.fail("a check ran"))
        cfg = write(tmp_path / "val.json", json.dumps({
            "checks": ["clt_cov", "t_null", "ci_coverage"],
            "clt_cov": {"replicates": 400, "m": 100},
            block: {"replicates": 100, **setting},
        }))
        rc = cli.run(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"driftlab: error: {cfg}: {message}\n"
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize(
        "block, key, value",
        [("clt_cov", "sigma", 0.5),
         ("kron_cov", "sigma", 0.5),
         ("erm_excess_risk", "sigma", 0.8),
         ("conditional_shift", "sigma", 0.5),
         ("kron_cov", "copula_rho", 0.6),
         ("null_laws", "weight_law", ["uniform", 0.2, 1.8]),
         ("ci_chi2", "weight_law", ["uniform", 0.2, 1.8]),
         ("ci_chi2", "level", 0.95),
         ("erm_excess_risk", "dim_x", 2),
         ("erm_excess_risk", "noise_sd", 0.5),
         ("erm_excess_risk", "rel_tol", 0.1),
         ("conditional_shift", "prob", 0.5),
         ("conditional_shift", "y_sd", 1.0)],
    )
    def test_law_and_pass_rule_are_not_settings(
        self, tmp_path, monkeypatch, capsys, block, key, value
    ):
        # a block sizes its check's simulation; the law it tests and its pass
        # rule are fixed, even at their own values
        monkeypatch.setattr(cli, "run_harness", lambda config: pytest.fail("a check ran"))
        cfg = write(tmp_path / "val.json", json.dumps({block: {"replicates": 100, key: value}}))
        rc = cli.run(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"driftlab: error: {cfg}: {block} has unknown keys [{key!r}]\n")
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize(
        "key, message",
        [("threads", "threads must be 1 (replicates run serially), got 'x'"),
         ("seed", "seed must be an integer, got 'x'")],
        ids=["threads", "seed"],
    )
    def test_non_integer_config_setting_is_user_error(self, tmp_path, capsys, key, message):
        cfg = write(tmp_path / "val.json", json.dumps({key: "x"}))
        rc = cli.run(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{cfg}: {message}" in err
        assert "invalid literal" not in err

    @pytest.mark.parametrize("threads", [2, 0, True])
    def test_threads_other_than_1_exits_before_any_check(
        self, tmp_path, monkeypatch, capsys, threads
    ):
        monkeypatch.setattr(cli, "run_harness", lambda config: pytest.fail("a check ran"))
        cfg = write(tmp_path / "val.json", json.dumps({"threads": threads}))
        rc = cli.run(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")])
        assert rc == 1
        assert (f"{cfg}: threads must be 1 (replicates run serially), got {threads!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "v.json").exists()

    def test_threads_1_runs_and_is_echoed(self, tmp_path):
        config = {"seed": 3, "threads": 1, "checks": ["clt_cov"],
                  "clt_cov": {"replicates": 100, "m": 16, "n_ratio": 10}}
        cfg = write(tmp_path / "val.json", json.dumps(config))
        rc = cli.run(["validate", "--config", cfg, "--out", str(tmp_path / "v.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "v.json").read_text())
        assert payload["config"] == config
        assert payload["config_hash"] == cli.config_hash(config)
        assert "threads" not in payload["report"]


class TestCliSurface:
    def test_bad_flag_exits_1(self, capsys):
        assert cli.run(["fit", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_1(self):
        assert cli.run(["frobnicate"]) == 1

    def test_no_subcommand_imports_scipy_stats(self, tmp_path):
        # scipy.special alone costs a process about 0.2 s and 21 MB, and
        # scipy.stats, scipy.optimize and scipy.linalg more. No subcommand
        # loads any scipy module on its common path: driftlab._tails holds
        # the normal, t, F and chi-squared laws that simulate and validate
        # use. Only gamma weight laws and the far-tail KS branch (n d^2 >= 2.2
        # at these n) load scipy.special; this validate config's three KS
        # tests, at n = 300, 300 and 200, take the Durbin or Pelz-Good branch
        # instead, which the report's statistics confirm below. validate may
        # exit 2 on a gate that fails by chance at these replicate counts.
        script = (
            "import json, sys\n"
            "from driftlab import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "seen = [loaded()]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if cli.run(argv) not in (0, 2):\n"
            "        sys.exit(f'failed: {argv}')\n"
            "    seen.append(loaded())\n"
            "print(json.dumps(seen))\n"
        )
        data = ["--data", *[str(FIXTURE / f"source_{k}.csv") for k in range(1, 5)],
                "--target", str(FIXTURE / "target.csv")]
        validate = {
            "checks": ["t_null", "f_null", "chi2_residual"], "threads": 1,
            "null_laws": {"replicates": 300, "m": 64, "n_ratio": 10, "n0_ratio": 10,
                          "n_functions": 20},
            "ci_chi2": {"replicates": 200, "m": 64, "n_functions": 40, "n_ratio": 10,
                        "n0_ratio": 20},
        }
        runs = [
            ["fit", *data, "--config", str(FIXTURE / "fit_config.json"),
             "--out", str(tmp_path / "fit")],
            ["diagnose", "--fit", str(tmp_path / "fit.json"),
             "--out", str(tmp_path / "diag.csv")],
            ["erm", *data, "--loss", "squared", "--weights", "dlm",
             "--config", write(tmp_path / "cfg.json", '{"outcome": "income"}'),
             "--out", str(tmp_path / "erm.json")],
            ["simulate", "--config", str(FIXTURE / "sim_config.json"),
             "--out", str(tmp_path / "sim")],
            ["validate", "--config", write(tmp_path / "val.json", json.dumps(validate)),
             "--out", str(tmp_path / "v.json")],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        # import, then each of the five subcommands: no scipy module
        assert json.loads(proc.stdout.splitlines()[-1]) == [[]] * 6
        report = json.loads((tmp_path / "v.json").read_text())["report"]
        assert [r["name"] for r in report["results"]] == ["t_null", "f_null", "chi2_residual"]
        for r in report["results"]:
            assert r["details"]["replicates"] * r["empirical"]["ks_stat"] ** 2 < 2.2

    def test_far_tail_ks_pvalue_loads_scipy_special_only(self):
        # n d^2 = 4 at n = 10000: _ks_sf's smirnov branch, whose C source
        # driftlab does not port
        script = (
            "import json, sys\n"
            "from driftlab import harness\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "before = loaded()\n"
            "harness._ks_sf(10_000, 0.02)\n"
            "print(json.dumps([before, loaded()]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        before, after = json.loads(proc.stdout)
        assert before == [] and "scipy.special" in after
        assert not [m for m in after if m.startswith(("scipy.stats", "scipy.optimize",
                                                      "scipy.linalg"))]

    def test_importing_driftlab_loads_no_scipy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for module in ("driftlab", "driftlab.cli"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys, {module}; print(sorted(m for m in "
                 "sys.modules if m.split('.')[0] == 'scipy'))"],
                env=env, capture_output=True, text=True, timeout=60)
            assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr

    def test_missing_file_is_user_error(self, tmp_path):
        rc = cli.run(["fit", "--data", "nope.csv", "--target", "nope2.csv",
                      "--out", str(tmp_path / "r")])
        assert rc == 1


# Documented user errors, each a single "driftlab: error:" line naming the
# file, key or dataset at fault. A case is (subcommand, config, sources,
# message): the config is an object, raw text, or None for a missing file;
# sources maps the name of each extra fit source to its CSV text, or to None
# for an empty directory; the message follows "driftlab: error: ".
LAW = SMALL_SIM["scheme"]["laws"][0]


def _scheme(**scheme):
    return {**SMALL_SIM, "scheme": scheme}


ONE_LINE_ERRORS = {
    "unreadable_config": ("simulate", None, {}, "{cfg}: cannot read (No such file or directory)"),
    "invalid_json": ("simulate", "{", {}, "{cfg}: invalid JSON (Expecting property name "
                     "enclosed in double quotes: line 1 column 2 (char 1))"),
    "config_not_an_object": ("simulate", "[1]", {}, "{cfg}: config must be a JSON object"),
    "n_k_length": ("simulate", {**SMALL_SIM, "n_k": [100, 100]}, {},
                   "{cfg}: n_k must be one size or a list of K=1 sizes, got [100, 100]"),
    "no_columns": ("simulate", {**SMALL_SIM, "columns": []}, {},
                   "{cfg}: columns must be a non-empty list, got []"),
    "outcome_named_like_a_column": (
        "simulate", {**SMALL_SIM, "outcome": {"name": "x"}}, {},
        "{cfg}: outcome.name must be distinct from every column name, got 'x'"),
    "outcome_noise_sd_negative": (
        "simulate", {**SMALL_SIM, "outcome": {"name": "y", "noise_sd": -1}}, {},
        "{cfg}: outcome.noise_sd must be >= 0, got -1.0"),
    "lognormal_sigma_negative": (
        "simulate", _scheme(kind="independent",
                            laws=[{"family": "lognormal", "mu": 0, "sigma": -0.5}]), {},
        "{cfg}: scheme.laws[0]: lognormal sigma must be >= 0"),
    "gamma_shape_zero": (
        "simulate", _scheme(kind="independent",
                            laws=[{"family": "gamma", "shape": 0, "scale": 1}]), {},
        "{cfg}: scheme.laws[0]: gamma shape and scale must be > 0"),
    "gamma_scale_negative": (
        "simulate", _scheme(kind="independent",
                            laws=[{"family": "gamma", "shape": 1, "scale": -1}]), {},
        "{cfg}: scheme.laws[0]: gamma shape and scale must be > 0"),
    "uniform_lo_above_hi": (
        "simulate", _scheme(kind="independent",
                            laws=[{"family": "uniform", "lo": 2, "hi": 1}]), {},
        "{cfg}: scheme.laws[0]: uniform weight law needs 0 < lo <= hi"),
    "walk_innovation_sd_negative": (
        "simulate", _scheme(kind="random_walk", base=LAW, innovation_sd=-0.1, k=2), {},
        "{cfg}: scheme: innovation_sd must be >= 0"),
    "mixture_row_length": (
        "simulate", _scheme(kind="mixture", base_laws=[LAW] * 2, coefficients=[[0.5]],
                            noise_sd=[0.1]), {},
        "{cfg}: scheme: each coefficient row must have one entry per base law"),
    "mixture_noise_sd_count": (
        "simulate", _scheme(kind="mixture", base_laws=[LAW] * 2, coefficients=[[0.5, 0.5]],
                            noise_sd=[0.1, 0.2]), {},
        "{cfg}: scheme: need one noise_sd per derived distribution"),
    "mixture_noise_sd_negative": (
        "simulate", _scheme(kind="mixture", base_laws=[LAW] * 2, coefficients=[[0.5, 0.5]],
                            noise_sd=[-0.1]), {},
        "{cfg}: scheme: noise_sd must be >= 0"),
    "copula_corr_asymmetric": (
        "simulate", _scheme(kind="gaussian_copula", laws=[LAW] * 2,
                            corr=[[1, 0.5], [0.4, 1]]), {},
        "{cfg}: scheme: copula_corr must be symmetric"),
    "copula_corr_diagonal": (
        "simulate", _scheme(kind="gaussian_copula", laws=[LAW] * 2,
                            corr=[[1, 0.5], [0.5, 0.9]]), {},
        "{cfg}: scheme: copula_corr must have unit diagonal"),
    "copula_corr_indefinite": (
        "simulate", _scheme(kind="gaussian_copula", laws=[LAW] * 3,
                            corr=[[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]), {},
        "{cfg}: scheme: copula_corr must be positive semidefinite"),
    "one_bin": ("simulate", {**SMALL_SIM, "m": 1}, {}, "{cfg}: need at least m = 2 bins"),
    "directory_without_csv": ("fit", {"outcome": "y"}, {"empty": None},
                              "{tmp}/empty: directory contains no CSV files"),
    "one_row_source": ("fit", {"outcome": "y"}, {"one": "x,y\n1.0,2.0\n"},
                       "source 'one' needs at least 2 rows"),
    "source_without_outcome": ("fit", {"outcome": "y"}, {"no_y": "x\n1.0\n2.0\n3.0\n"},
                               "source 'no_y' lacks outcome column 'y'"),
    # the fixture's shape: the source holds another outcome, which is no
    # covariate of the target's
    "source_with_another_outcome": (
        "fit", {"outcome": "y"}, {"income": "x,income\n1.0,2.0\n2.0,4.1\n3.0,5.9\n"},
        "source 'income' lacks outcome column 'y'"),
    "target_is_a_directory": ("fit", {"outcome": "y"}, {"target": None},
                              "{tmp}/target: cannot read (Is a directory)"),
}


@pytest.mark.parametrize("command, config, sources, message", ONE_LINE_ERRORS.values(),
                         ids=ONE_LINE_ERRORS)
def test_user_error_is_one_stderr_line(tmp_path, capsys, command, config, sources, message):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        write(cfg, config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    if command == "simulate":
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    else:
        s1, _, tgt = write_small_data(tmp_path)
        data = [s1]
        for name, csv in sources.items():
            if csv is None:
                # an empty directory; one named "target" stands in for the target
                (tmp_path / name).mkdir()
                if name == "target":
                    tgt = str(tmp_path / name)
                else:
                    data.append(str(tmp_path / name))
            else:
                data.append(write(tmp_path / f"{name}.csv", csv))
        argv = ["fit", "--data", *data, "--target", tgt, "--config", str(cfg),
                "--out", str(out / "r")]
    assert cli.run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"driftlab: error: {message.format(cfg=cfg, tmp=tmp_path)}"]
    assert not out.exists()
