"""Config validation, experiment execution, and the command-line front end."""

import copy
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsaudit import experiments, geometry, observability, semigroup, uncertainty
from gsaudit.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from gsaudit.experiments import (
    EXPERIMENT_KINDS,
    ConfigError,
    resolve_config,
    run_experiment,
)
from gsaudit.hermite import NumericalError
from gsaudit.local_estimates import SeriesBound
from gsaudit.semigroup import SmoothingCertificate

PERIODIC_HALF = {"type": "periodic", "period": 1.0, "fill": 0.5}

UNC_BASE = {
    "schema_version": 1,
    "kind": "uncertainty",
    "seed": 7,
    "function": {"degree": 10},
    "eps_grid": [0.1],
    "cases": [{"sensor": PERIODIC_HALF, "gamma": 0.3}],
}

OBS_BASE = {
    "schema_version": 1,
    "kind": "observability",
    "seed": 0,
    "sensors": [{"type": "full"}],
    "t_grid": [0.5, 1.0],
    "n_trunc": 12,
}

SMOOTH_BASE = {
    "schema_version": 1,
    "kind": "smoothing-validate",
    "seed": 3,
    "k": 1,
    "m": 1,
    "theta": 1.0,
    "degree": 6,
    "n_seeds": 1,
    "grid_cap": 6,
}

LEMMA_BASE = {
    "schema_version": 1,
    "kind": "lemma-suite",
    "seed": 1,
    "series": {"d_grid": [0.5, 2.0], "s_grid": [0.0, 0.5]},
    "local": {"n_triples": 5, "max_degree": 12},
    "analyticity": {"n_cases": 1, "degree": 8},
}


def config(base, **overrides):
    cfg = copy.deepcopy(base)
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "csv_schema.json"
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.fixture(scope="module")
def unc_result():
    return run_experiment(config(UNC_BASE))


@pytest.fixture(scope="module")
def obs_result():
    return run_experiment(config(OBS_BASE))


@pytest.fixture(scope="module")
def smooth_result():
    return run_experiment(config(SMOOTH_BASE))


@pytest.fixture(scope="module")
def lemma_result():
    return run_experiment(config(LEMMA_BASE))


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


class TestResolveConfig:
    def test_defaults_filled(self):
        resolved = resolve_config(
            {"schema_version": 1, "kind": "uncertainty", "cases": UNC_BASE["cases"]}
        )
        assert resolved["seed"] == 0
        assert resolved["eps_grid"] == [0.1]
        assert resolved["profile"] == {"R": 1.0, "delta": 0.0, "eta": 0.5, "r0": 1.0}
        assert resolved["function"] == {"degree": 12, "t": 0.3, "nu": 0.5, "mu": 0.5}

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError) as err:
            resolve_config([1, 2])
        assert err.value.field == "<root>"

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(config(UNC_BASE, schema_version=2))
        assert err.value.field == "schema_version"

    def test_missing_schema_version(self):
        cfg = config(UNC_BASE)
        del cfg["schema_version"]
        with pytest.raises(ConfigError, match="missing required field") as err:
            resolve_config(cfg)
        assert err.value.field == "schema_version"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(config(UNC_BASE, kind="sharpness"))
        assert err.value.field == "kind"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown field") as err:
            resolve_config(config(UNC_BASE, epsilon_grid=[0.1]))
        assert err.value.field == "epsilon_grid"

    def test_boolean_is_not_a_number(self):
        cfg = config(UNC_BASE, cases=[{"sensor": PERIODIC_HALF, "gamma": True}])
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "cases[0].gamma"

    def test_profile_delta_out_of_range(self):
        cfg = config(UNC_BASE, profile={"delta": 1.5})
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "profile.delta"
        assert str(err.value) == "config field 'profile.delta': must be <= 1.0, got 1.5"

    def test_eps_above_one(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(config(UNC_BASE, eps_grid=[0.1, 1.5]))
        assert err.value.field == "eps_grid"

    def test_cases_required_and_nonempty(self):
        cfg = config(UNC_BASE)
        del cfg["cases"]
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "cases"
        with pytest.raises(ConfigError) as err:
            resolve_config(config(UNC_BASE, cases=[]))
        assert err.value.field == "cases"

    def test_unknown_sensor_type(self):
        cfg = config(UNC_BASE, cases=[{"sensor": {"type": "hexagon"}, "gamma": 0.3}])
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "cases[0].sensor.type"

    def test_degenerate_interval_rejected(self):
        sensor = {"type": "intervals", "intervals": [[0.0, 0.0]]}
        cfg = config(UNC_BASE, cases=[{"sensor": sensor, "gamma": 0.3}])
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "cases[0].sensor.intervals[0]"

    def test_negative_seed(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(config(UNC_BASE, seed=-1))
        assert err.value.field == "seed"

    def test_theta_must_exceed_half_over_m(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(config(SMOOTH_BASE, theta=0.4))
        assert err.value.field == "theta"

    def test_t_grid_strictly_increasing(self):
        with pytest.raises(ConfigError) as err:
            resolve_config(config(OBS_BASE, t_grid=[0.5, 0.5]))
        assert err.value.field == "t_grid"

    @pytest.mark.parametrize("field", ["r2", "s"])
    def test_observability_takes_no_shape_exponents(self, field):
        with pytest.raises(ConfigError, match="unknown field") as err:
            resolve_config(config(OBS_BASE, **{field: 0.5}))
        assert err.value.field == field

    @pytest.mark.parametrize("field", ["m_cap", "witness_grid"])
    def test_uncertainty_takes_no_classifier_cap_or_witness_grid(self, field, tmp_path, capsys):
        # both are constants of the method (local_estimates.M_CAP and
        # WITNESS_GRID), not of the audited statement
        with pytest.raises(ConfigError, match="unknown field") as err:
            resolve_config(config(UNC_BASE, **{field: 24}))
        assert err.value.field == field
        path = write_config(tmp_path, config(UNC_BASE, **{field: 24}))
        assert main(["run", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert f"config field '{field}': unknown field" in capsys.readouterr().err

    def test_decay_case_without_sensor_gets_matching_density(self):
        cfg = config(
            UNC_BASE,
            kind="uncertainty-decay",
            cases=[{"gamma0": 0.5, "a": 1.0}],
        )
        resolved = resolve_config(cfg)
        sensor = resolved["cases"][0]["sensor"]
        assert sensor["type"] == "decaying"
        assert sensor["gamma0"] == 0.5
        assert sensor["a"] == 1.0

    def test_lemma_series_s_grid_checked(self):
        cfg = config(LEMMA_BASE, series={"d_grid": [1.0], "s_grid": [1.0]})
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "series.s_grid"


class TestRunExperiment:
    def test_uncertainty_passes(self, unc_result):
        assert unc_result.passed
        assert unc_result.exit_code == 0
        assert unc_result.kind == "uncertainty"
        assert len(unc_result.rows) == 1

    def test_report_structure(self, unc_result):
        report = unc_result.report
        for key in ("artifact_version", "config", "kind", "passed", "failed_step", "results", "summary_rows"):
            assert key in report
        assert report["failed_step"] is None
        assert report["config"]["seed"] == 7

    def test_rows_match_columns(self, unc_result):
        assert unc_result.columns
        for row in unc_result.rows:
            assert set(row) == set(unc_result.columns)

    def test_report_json_serializable(self, unc_result):
        text = json.dumps(unc_result.report, sort_keys=True)
        assert json.loads(text)["passed"] is True

    def test_inequality_failure_reports_step(self):
        cfg = config(UNC_BASE, cases=[{"sensor": PERIODIC_HALF, "gamma": 0.45}])
        result = run_experiment(cfg)
        assert not result.passed
        assert result.exit_code == 1
        assert result.report["failed_step"] == "density"
        assert result.rows == []

    def test_overlap_above_cap_fails_covering(self, monkeypatch):
        # an overlap above the declared cap fails the covering audit (exit 1);
        # it is not a numerical failure
        monkeypatch.setattr(geometry, "OVERLAP_CAP", 2)
        monkeypatch.setattr(uncertainty, "OVERLAP_CAP", 2)
        cfg = json.loads((CONFIGS / "uncertainty.json").read_text(encoding="utf-8"))
        result = run_experiment(cfg)
        assert result.exit_code == 1
        assert result.report["failed_step"] == "covering"

    def test_observability_matches_closed_form(self, obs_result):
        assert obs_result.passed
        by_t = {row["T"]: row["c_obs"] for row in obs_result.rows}
        assert by_t[1.0] == pytest.approx(1.0 / math.expm1(1.0), rel=1e-10)
        assert by_t[0.5] == pytest.approx(1.0 / math.expm1(0.5), rel=1e-10)

    def test_smoothing_validate_smoke(self, smooth_result):
        assert smooth_result.passed
        exponents = smooth_result.report["results"]["exponents"]
        assert exponents == {"nu": 0.5, "mu": 0.5}
        assert all(row["worst_ratio"] <= 1.05 for row in smooth_result.rows)

    def test_lemma_suite_smoke(self, lemma_result):
        assert lemma_result.passed
        sections = {row["section"] for row in lemma_result.rows}
        assert sections == {"series", "local", "analyticity"}

    def test_local_quota_failure_raises(self):
        cfg = config(
            LEMMA_BASE,
            local={"n_triples": 4, "max_degree": 10, "min_density": 0.99},
            analyticity={"n_cases": 0},
        )
        with pytest.raises(NumericalError, match="local ensemble produced 0/4 admissible triples"):
            run_experiment(cfg)


class TestCsvSchemaDoc:
    """The shipped column documentation must track the runner outputs."""

    def test_every_kind_documented(self, schema):
        assert set(schema["kinds"]) == set(EXPERIMENT_KINDS)

    def test_columns_match_runners(self, schema, unc_result, obs_result, smooth_result, lemma_result):
        results = {
            "uncertainty": unc_result,
            "observability": obs_result,
            "smoothing-validate": smooth_result,
            "lemma-suite": lemma_result,
        }
        for kind, result in results.items():
            assert schema["kinds"][kind]["columns"] == result.columns

    def test_decay_columns_match(self, schema):
        cfg = config(
            UNC_BASE,
            kind="uncertainty-decay",
            cases=[{"gamma0": 0.5, "a": 1.0}],
        )
        result = run_experiment(cfg)
        assert result.passed
        assert schema["kinds"]["uncertainty-decay"]["columns"] == result.columns

    def test_detail_keys_are_columns(self, schema):
        for kind, entry in schema["kinds"].items():
            for key in entry["details"]:
                assert key in entry["columns"], f"{kind}: {key}"


class TestMain:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [f"{kind}: {blurb}" for kind, blurb in EXPERIMENT_KINDS.items()]
        assert len(lines) == 5

    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", write_config(tmp_path, config(OBS_BASE)), "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["kind"] == "observability"
        csv_text = (out / "summary.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "omega_id,n_trunc,T,c_obs,conditioning,passed,x,y"
        assert len(lines) == 1 + len(report["summary_rows"])
        assert "\r" not in csv_text
        assert capsys.readouterr().out.startswith("observability: passed")

    def test_report_file_ends_with_newline(self, tmp_path):
        out = tmp_path / "out"
        main(["run", write_config(tmp_path, config(OBS_BASE)), "--out", str(out)])
        assert (out / "report.json").read_bytes().endswith(b"}\n")

    def test_inequality_exit_code_still_writes_report(self, tmp_path, capsys):
        cfg = config(UNC_BASE, cases=[{"sensor": PERIODIC_HALF, "gamma": 0.45}])
        out = tmp_path / "out"
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 1
        assert "failing step: density" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "density"

    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = config(UNC_BASE, profile={"delta": 1.5})
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "profile.delta" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["run", str(path), "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw",
        [b'{"seed": 1' + b"0" * 5000 + b"}", b'{"kind": "\xff"}'],
        ids=["int-beyond-digit-limit", "not-utf8"],
    )
    def test_unreadable_json_is_a_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = config(
            LEMMA_BASE,
            local={"n_triples": 4, "max_degree": 10, "min_density": 0.99},
            analyticity={"n_cases": 0},
        )
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_galerkin_truncation_drift_is_a_numerical_failure(self, tmp_path, capsys):
        # the quartic k = 2 flow of the committed ensemble at seed 1 moves by
        # more than 1e-4 between the degree-32 and degree-64 Galerkin spaces
        cfg = json.loads((RUN_ALL_PATH.parent / "configs" / "smoothing_validate.json").read_text())
        cfg.update(k=2, m=1)
        out = tmp_path / "o"
        argv = ["run", write_config(tmp_path, cfg), "--out", str(out), "--seed", "1"]
        assert main(argv) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: Galerkin flow truncation drift 1.111e-04 at t=0.1\n"
        assert not (out / "report.json").exists()

    def test_galerkin_flow_at_the_degree_cap_passes(self, tmp_path, capsys):
        # the harmonic flow is diagonal, so a degree-32 ensemble, the largest
        # a config allows, fits the halved space exactly and shows no drift
        cfg = config(SMOOTH_BASE, degree=32)
        assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "smoothing-validate: passed" in capsys.readouterr().out

    def test_flow_to_zero_is_a_config_error(self, tmp_path, capsys):
        # at t = 745 every mode of the degree-6 flow underflows to zero
        cfg = config(UNC_BASE, function={"degree": 6, "t": 745.0})
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "function.t" in capsys.readouterr().err

    def test_oversized_covering_grid_is_a_numerical_failure(self, tmp_path, capsys):
        # the grid size is checked before anything is allocated
        cfg = config(UNC_BASE, eps_grid=[1e-300])
        rc = main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERICAL
        assert "covering grid" in capsys.readouterr().err

    def test_constant_below_full_line_fails(self, tmp_path, monkeypatch, capsys):
        # a sensor constant below the full-line one contradicts G_omega <= G_R
        real = observability._pencil_top

        def halved(energy, gramian):
            top, conditioning = real(energy, gramian)
            return 0.5 * top, conditioning

        monkeypatch.setattr(observability, "_pencil_top", halved)
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, config(OBS_BASE)), "--out", str(out)]) == 1
        assert "observability: FAILED (failing step: full-line)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "full-line"
        assert report["results"]["reports"][0]["monotone"] is True
        assert not any(row["passed"] for row in report["summary_rows"])

    def test_constant_rising_in_t_fails_monotone(self, tmp_path, monkeypatch, capsys):
        # constants scaled up tenfold per T rise along the grid; they stay
        # above the full-line ones, so only the monotone check fails
        real = observability._pencil_top
        scale = [1.0]

        def rising(energy, gramian):
            top, conditioning = real(energy, gramian)
            scale[0] *= 10.0
            return scale[0] * top, conditioning

        monkeypatch.setattr(observability, "_pencil_top", rising)
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, config(OBS_BASE)), "--out", str(out)]) == 1
        assert "observability: FAILED (failing step: monotone)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "monotone"
        assert report["results"]["reports"][0]["monotone"] is False
        assert min(report["results"]["reports"][0]["log_margins"]) > 0.0

    def test_certificate_below_held_out_norms_fails_validation(self, tmp_path, monkeypatch, capsys):
        # a certificate bound lowered by a factor e lies below the measured
        # norms at the held-out times
        real = SmoothingCertificate.log_bound
        monkeypatch.setattr(
            SmoothingCertificate, "log_bound", lambda cert, n, b, t: real(cert, n, b, t) - 1.0
        )
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, config(SMOOTH_BASE)), "--out", str(out)]) == 1
        assert "smoothing-validate: FAILED (failing step: validation)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "validation"
        assert report["results"]["validation"]["worst_ratio"] > 1.0
        assert not all(row["passed"] for row in report["summary_rows"])

    def test_negative_slack_fails_certificate_fit(self, tmp_path, monkeypatch, capsys):
        # a fit whose log C sits 5 below the optimum leaves sampled norms
        # above the certificate: an audit failure with a report, not a crash
        real = semigroup._vertex_simplex
        monkeypatch.setattr(semigroup, "_vertex_simplex", lambda *args: real(*args) - [5.0, 0.0, 0.0])
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, config(SMOOTH_BASE)), "--out", str(out)]) == 1
        assert "smoothing-validate: FAILED (failing step: certificate-fit)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "certificate-fit" and report["passed"] is False
        assert "a sampled norm lies above the fitted surface" in report["results"]["error"]

    def test_bug_is_not_a_numerical_failure(self, tmp_path, monkeypatch):
        # a RuntimeError that is no NumericalError is a bug, so it must
        # surface with a traceback rather than exit 3
        def broken_series_bound(*args, **kwargs):
            raise RuntimeError("a bug in the series lemma")

        monkeypatch.setattr(experiments, "series_bound", broken_series_bound)
        path = write_config(tmp_path, config(LEMMA_BASE, analyticity={"n_cases": 0}))
        with pytest.raises(RuntimeError, match="a bug in the series lemma"):
            main(["run", path, "--out", str(tmp_path / "o")])

    def test_violated_series_lemma_fails_its_row(self, tmp_path, monkeypatch, capsys):
        # a certified sum above its proved bound fails the lemma suite's
        # series rows: exit 1 with a report, no traceback
        real = experiments.series_bound

        def violated(d, s):
            result = real(d, s)
            return replace(result, log_bound=result.log_sum - 1.0)

        monkeypatch.setattr(experiments, "series_bound", violated)
        out = tmp_path / "o"
        path = write_config(tmp_path, config(LEMMA_BASE, analyticity={"n_cases": 0}))
        assert main(["run", path, "--out", str(out)]) == 1
        assert "lemma-suite: FAILED (failing step: series)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "series"
        series = [row for row in report["summary_rows"] if row["section"] == "series"]
        assert len(series) == 4
        assert not any(row["passed"] for row in series)
        assert report["results"]["sections"]["local"]["n_passed"] > 0

    def test_violated_series_lemma_fails_mk_bound(self, tmp_path, monkeypatch, capsys):
        # the pipeline's mk-bound step fails when its certified series sum
        # lies above the proved bound
        real = uncertainty.mk_bound

        def violated(cfg, profile):
            ub = real(cfg, profile)
            series = SeriesBound(
                log_sum=1.0,
                log_bound=0.0,
                terms_used=1,
                remainder_certified=True,
                log_remainder=-math.inf,
            )
            return replace(ub, series=series)

        monkeypatch.setattr(uncertainty, "mk_bound", violated)
        out = tmp_path / "o"
        assert main(["run", write_config(tmp_path, config(UNC_BASE)), "--out", str(out)]) == 1
        assert "failing step: mk-bound" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["failed_step"] == "mk-bound"
        assert "exceeds its proved bound" in report["results"]["error"]

    def test_threads_option_changes_no_output_byte(self, tmp_path):
        # --threads still parses, and every run uses one process, so it
        # changes no byte of the outputs
        path = write_config(tmp_path, config(OBS_BASE))
        dirs = [tmp_path / "a", tmp_path / "b"]
        assert main(["run", path, "--out", str(dirs[0])]) == EXIT_OK
        assert main(["run", path, "--out", str(dirs[1]), "--threads", "2"]) == EXIT_OK
        for name in ("report.json", "summary.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_seeded_rerun_byte_identical(self, tmp_path):
        # reruns agree byte for byte, with or without --threads 2
        decay = config(
            UNC_BASE,
            kind="uncertainty-decay",
            eps_grid=[0.1, 1.0],
            cases=[{"gamma0": 0.5, "a": 1.0}, {"gamma0": 0.25, "a": 2.0}],
        )
        for cfg in (UNC_BASE, decay):
            path = write_config(tmp_path, config(cfg), name=f"{cfg['kind']}.json")
            dirs = [tmp_path / cfg["kind"] / "a", tmp_path / cfg["kind"] / "b"]
            for out, threads in zip(dirs, ("1", "2")):
                assert main(["run", path, "--out", str(out), "--threads", threads]) == EXIT_OK
            for name in ("report.json", "summary.csv"):
                assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_reruns_byte_identical_at_any_seed(self, tmp_path_factory, seed):
        # two in-process runs of each uncertainty kind at a random seed write
        # the same report.json bytes, or end in the same exit code without one
        decay = config(UNC_BASE, kind="uncertainty-decay", cases=[{"gamma0": 0.5, "a": 1.0}])
        root = tmp_path_factory.mktemp("rerun")
        for cfg in (UNC_BASE, decay):
            path = write_config(root, config(cfg), name=f"{cfg['kind']}.json")
            runs = []
            for out in (root / cfg["kind"] / "a", root / cfg["kind"] / "b"):
                code = main(["run", path, "--out", str(out), "--seed", str(seed)])
                report = out / "report.json"
                runs.append((code, report.read_bytes() if report.exists() else None))
            assert runs[0] == runs[1]

    def test_failing_case_reports_like_running_it_alone(self, tmp_path, capsys):
        # the second of two sensor cases fails at density at both eps; the
        # report carries the error of its first failing case, eps = 0.1
        cases = [{"sensor": PERIODIC_HALF, "gamma": 0.3}, {"sensor": PERIODIC_HALF, "gamma": 0.45}]
        path = write_config(tmp_path, config(UNC_BASE, cases=cases, eps_grid=[0.1, 1.0]))
        assert main(["run", path, "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_bytes())
        alone = run_experiment(config(UNC_BASE, cases=cases[1:], eps_grid=[0.1])).report
        assert report["failed_step"] == alone["failed_step"] == "density"
        assert report["results"] == alone["results"]

    def test_seed_override_changes_output(self, tmp_path):
        # observability is seed-independent; the lemma ensemble is not
        cfg = config(LEMMA_BASE, analyticity={"n_cases": 0})
        path = write_config(tmp_path, cfg, name="lemma.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", path, "--out", str(out_a)]) == EXIT_OK
        assert main(["run", path, "--out", str(out_b), "--seed", "9"]) == EXIT_OK
        report_b = json.loads((out_b / "report.json").read_text())
        assert report_b["config"]["seed"] == 9
        assert (out_a / "report.json").read_bytes() != (out_b / "report.json").read_bytes()


RUN_ALL_PATH = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"


def test_run_all_prints_report_digests(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_all", RUN_ALL_PATH)
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    assert run_all.main(["--only", "observability", "--out", str(tmp_path)]) == EXIT_OK
    report = tmp_path / "observability" / "report.json"
    digest = hashlib.sha256(report.read_bytes()).hexdigest()[:8]
    row = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert row[0] == "observability" and row[1] == "ok" and row[-1] == digest


def test_digest_sweep_matrix_names_every_config():
    # scripts/digest_sweep.py runs every committed config at its own seed and
    # at seeds 0-10, and five uncertainty.json and four smoothing_validate.json
    # variants at three seeds each; every config of the matrix resolves
    spec = importlib.util.spec_from_file_location("digest_sweep", RUN_ALL_PATH.with_name("digest_sweep.py"))
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    runs = sweep.matrix()
    configs = sorted(p.stem for p in (RUN_ALL_PATH.parent / "configs").glob("*.json"))
    assert len(configs) == 5 and len(runs) == 87
    for stem in configs:
        assert [seed for name, _, seed in runs if name == stem] == [None, *range(11)]
    for _, config, _ in runs:
        resolve_config(copy.deepcopy(config))


def test_report_diff_compares_two_reports(tmp_path):
    # scripts/report_diff.py: numbers on a path move by their largest
    # relative step, list indices folded; a value to or from 0, a changed
    # type or string and a key one side lacks are listed one by one, then
    # printed once per folded path with a count; report.json and summary.csv
    # are judged apart
    spec = importlib.util.spec_from_file_location("report_diff", RUN_ALL_PATH.with_name("report_diff.py"))
    report_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_diff)
    old = {"c": [1.0, 2.0, 0.0], "log": "-inf", "n": 3, "ok": True, "s": {"id": "a", "v": 4.0}, "x": 1}
    new = {"c": [1.0, 2.2, 5e-175], "log": -575.0, "n": 3, "ok": 1, "s": {"id": "b", "v": 4.0}, "y": 1}
    moves, changes = report_diff.diff(old, new)
    assert moves == {"$.c[]": pytest.approx(0.2 / 2.2, rel=1e-15)}
    missing = report_diff.MISSING
    assert changes == [
        ("$.c[2]", 0.0, 5e-175),
        ("$.log", "-inf", -575.0),
        ("$.ok", True, 1),
        ("$.s.id", "a", "b"),
        ("$.x", 1, missing),
        ("$.y", missing, 1),
    ]
    assert report_diff.diff(old, old) == ({}, [])
    dropped = {"r": [{"k": 1, "n": 2}, {"k": 3, "n": 4}], "s": "a"}
    kept = {"r": [{"k": 1}, {"k": 3}], "s": "b"}
    assert report_diff.fold(report_diff.diff(dropped, kept)[1]) == [
        ("$.r[].n", 2, 2, missing),
        ("$.s", 1, "a", "b"),
    ]
    runs = {}
    for name, report, csv in (("a", dropped, "x\n1\n"), ("b", kept, "x\n1\n"), ("c", kept, "x\n2\n")):
        runs[name] = tmp_path / name
        runs[name].mkdir()
        (runs[name] / "run.json").write_text(json.dumps({"code": 0, "stderr": ""}))
        (runs[name] / "report.json").write_text(json.dumps(report))
        (runs[name] / "summary.csv").write_text(csv)
    lines, moves, same = report_diff.compare("run", runs["a"], runs["b"])
    assert lines == [
        "run exit 0 -> 0: report.json differs, summary.csv same",
        "  change 2x $.r[].n: 2 -> <missing>",
        "  change 1x $.s: a -> b",
    ]
    assert (moves, same) == ({}, {"report.json": False, "summary.csv": True})
    lines, _, same = report_diff.compare("run", runs["b"], runs["c"])
    assert lines == ["run exit 0 -> 0: report.json same, summary.csv differs"]
    assert same == {"report.json": True, "summary.csv": False}


# runs gsaudit.cli.main at --threads 2 on each (config, out) pair of argv in
# one fresh interpreter, then prints the exit codes as the second-to-last line
# and the scipy, multiprocessing and concurrent.futures modules it loaded as
# the last line
_SCIPY_PROBE = """
import json, sys
from gsaudit.cli import main
pairs = zip(sys.argv[1::2], sys.argv[2::2])
codes = [main(["run", config, "--threads", "2", "--out", out]) for config, out in pairs]
roots = ("scipy", "multiprocessing", "concurrent.futures")
print(json.dumps(codes))
print(json.dumps(sorted(m for m in sys.modules if m.startswith(roots))))
"""


def test_committed_configs_run_without_scipy(tmp_path):
    root = RUN_ALL_PATH.parents[1]
    configs = sorted((root / "scripts" / "configs").glob("*.json"))
    assert len(configs) == 5
    argv = []
    for config in configs:
        argv += [str(config), str(tmp_path / config.stem)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    # the committed reports, pinned by the first 8 hex digits of their sha256;
    # a change that moves one edits it here and says why
    digests = {
        config.stem: hashlib.sha256((tmp_path / config.stem / "report.json").read_bytes())
        .hexdigest()[:8]
        for config in configs
    }
    assert digests == {
        "lemma_suite": "13bf5153",
        "observability": "504cc9d9",
        "smoothing_validate": "d6c7f1cd",
        "uncertainty": "3f321af4",
        "uncertainty_decay": "5103f01a",
    }
    *_, codes, modules = done.stdout.strip().splitlines()
    assert json.loads(codes) == [EXIT_OK] * len(configs), done.stdout
    assert json.loads(modules) == []
