"""Config resolution pinned field by field: the resolved form of each kind's
minimal config, and the field each single-fault config is reported at."""

import copy
import json
import math

import pytest

from gsaudit.cli import EXIT_CONFIG, main
from gsaudit.experiments import ConfigError, resolve_config

PROFILE = {"R": 1.0, "delta": 0.0, "eta": 0.5, "r0": 1.0}
FUNCTION = {"degree": 12, "t": 0.3, "nu": 0.5, "mu": 0.5}

MINIMAL = {
    "smoothing-validate": {},
    "uncertainty": {"cases": [{"sensor": {"type": "full"}, "gamma": 0.5}]},
    "uncertainty-decay": {"cases": [{"gamma0": 0.5, "a": 1}]},
    "observability": {},
    "lemma-suite": {},
}

RESOLVED = {
    "smoothing-validate": {
        "schema_version": 1, "kind": "smoothing-validate", "seed": 0,
        "k": 1, "m": 1, "theta": 1.0, "degree": 8, "n_seeds": 3,
        "fit_times": [0.1, 0.2], "validate_times": [0.15, 0.3],
        "n_trunc": 64, "grid_cap": 8,
    },
    "uncertainty": {
        "schema_version": 1, "kind": "uncertainty", "seed": 0,
        "function": FUNCTION, "profile": PROFILE, "eps_grid": [0.1],
        "cases": [{"sensor": {"type": "full"}, "gamma": 0.5}],
    },
    "uncertainty-decay": {
        "schema_version": 1, "kind": "uncertainty-decay", "seed": 0,
        "function": FUNCTION, "profile": PROFILE, "eps_grid": [0.1],
        "cases": [
            {
                "sensor": {"type": "decaying", "gamma0": 0.5, "a": 1.0, "extent": 400.0},
                "gamma0": 0.5,
                "a": 1.0,
            }
        ],
    },
    "observability": {
        "schema_version": 1, "kind": "observability", "seed": 0,
        "sensors": [{"type": "full"}], "t_grid": [0.05, 0.1, 0.25, 0.5, 1.0, 2.0],
        "n_trunc": 40,
    },
    "lemma-suite": {
        "schema_version": 1, "kind": "lemma-suite", "seed": 0,
        "series": {"d_grid": [0.5, 1.0, 2.0, 5.0], "s_grid": [0.0, 0.25, 0.5, 0.9]},
        "local": {
            "n_triples": 30, "max_degree": 40, "min_density": 0.1,
            "sensors": [{"type": "periodic", "period": 1.0, "fill": 0.5, "extent": 400.0}],
        },
        "analyticity": {"n_cases": 3, "degree": 10, "tau_scale": 1.0},
        "profile": PROFILE,
    },
}


def minimal(kind_, **overrides):
    cfg = {"schema_version": 1, "kind": kind_, **copy.deepcopy(MINIMAL[kind_])}
    cfg.update(overrides)
    return cfg


def with_sensor(sensor):
    return minimal("uncertainty", cases=[{"sensor": sensor, "gamma": 0.5}])


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_minimal_config_resolves_to_pinned_dict(kind):
    resolved = resolve_config(minimal(kind))
    # json text tells 1 from 1.0, so this pins the types as well as the values
    assert json.dumps(resolved, sort_keys=True) == json.dumps(RESOLVED[kind], sort_keys=True)


SINGLE_FAULTS = [
    (minimal("uncertainty", profile={"eta": 1.0}), "profile.eta"),
    (minimal("uncertainty", profile={"eta": 0.0}), "profile.eta"),
    (minimal("uncertainty", profile={"R": 0.5}), "profile.R"),
    (minimal("uncertainty", profile={"r0": 0.5}), "profile.r0"),
    (minimal("uncertainty", profile={"gamma": 0.5}), "profile.gamma"),
    (minimal("uncertainty", profile=[]), "profile"),
    (minimal("uncertainty", function={"degree": 41}), "function.degree"),
    (minimal("uncertainty", function={"degree": 2.0}), "function.degree"),
    (minimal("uncertainty", function={"t": -0.1}), "function.t"),
    (minimal("uncertainty", function={"mu": "1"}), "function.mu"),
    (minimal("uncertainty", eps_grid=[0.0]), "eps_grid[0]"),
    (minimal("uncertainty", eps_grid=[]), "eps_grid"),
    (minimal("uncertainty", eps_grid=0.1), "eps_grid"),
    (minimal("uncertainty", eps_grid=[0.1, "x"]), "eps_grid[1]"),
    (minimal("uncertainty", seed=1.0), "seed"),
    (minimal("uncertainty", kind=3), "kind"),
    (minimal("uncertainty", cases=[1]), "cases[0]"),
    (minimal("uncertainty", cases={}), "cases"),
    (minimal("uncertainty", cases=[{"gamma": 0.5}]), "cases[0].sensor"),
    (minimal("uncertainty", cases=[{"sensor": {"type": "full"}}]), "cases[0].gamma"),
    (minimal("uncertainty", cases=[{"sensor": {"type": "full"}, "gamma": 0.0}]), "cases[0].gamma"),
    (minimal("uncertainty", cases=[{"sensor": {"type": "full"}, "gamma": 0.5, "a": 1}]), "cases[0].a"),
    (with_sensor({"type": "periodic", "period": 1.0, "fill": 0}), "cases[0].sensor.fill"),
    (with_sensor({"type": "periodic", "period": 1.0, "fill": 0.5, "extent": 0.5}), "cases[0].sensor.extent"),
    (with_sensor({"type": "periodic", "fill": 0.5}), "cases[0].sensor.period"),
    (with_sensor({"type": "full", "period": 1.0}), "cases[0].sensor.period"),
    (with_sensor({"period": 1.0}), "cases[0].sensor.type"),
    (with_sensor({"type": "intervals", "intervals": []}), "cases[0].sensor.intervals"),
    (with_sensor({"type": "intervals", "intervals": [[0.0, 1.0, 2.0]]}), "cases[0].sensor.intervals[0]"),
    (with_sensor({"type": "intervals", "intervals": [[0.0, "1"]]}), "cases[0].sensor.intervals[0]"),
    (with_sensor({"type": "random-intervals"}), "cases[0].sensor.type"),
    (with_sensor({"type": "decaying", "gamma0": 1.5, "a": 1.0}), "cases[0].sensor.gamma0"),
    (with_sensor({"type": "decaying", "gamma0": 0.5, "a": -1.0}), "cases[0].sensor.a"),
    (minimal("uncertainty-decay", cases=[{"gamma0": 0.0, "a": 1.0}]), "cases[0].gamma0"),
    (minimal("uncertainty-decay", cases=[{"gamma0": 0.5}]), "cases[0].a"),
    (minimal("uncertainty-decay", cases=[{"gamma0": 0.5, "a": 1.0, "gamma": 0.5}]), "cases[0].gamma"),
    (
        minimal("uncertainty-decay", cases=[{"gamma0": 0.5, "a": 1.0, "sensor": {"type": "hexagon"}}]),
        "cases[0].sensor.type",
    ),
    (minimal("smoothing-validate", k=4), "k"),
    (minimal("smoothing-validate", m=0), "m"),
    (minimal("smoothing-validate", theta=0.0), "theta"),
    (minimal("smoothing-validate", degree=33), "degree"),
    (minimal("smoothing-validate", n_seeds=17), "n_seeds"),
    (minimal("smoothing-validate", n_trunc=7), "n_trunc"),
    (minimal("smoothing-validate", grid_cap=0), "grid_cap"),
    (minimal("smoothing-validate", fit_times=[1.0]), "fit_times"),
    (minimal("smoothing-validate", fit_times=[]), "fit_times"),
    (minimal("smoothing-validate", validate_times=[0.0]), "validate_times[0]"),
    (minimal("smoothing-validate", cases=[]), "cases"),
    (minimal("observability", sensors=[1]), "sensors[0]"),
    (minimal("observability", sensors=[]), "sensors"),
    (minimal("observability", sensors=[{"type": "random-intervals"}]), "sensors[0].type"),
    (minimal("observability", n_trunc=49), "n_trunc"),
    (minimal("observability", t_grid=[0.0, 1.0]), "t_grid[0]"),
    (minimal("lemma-suite", series={"d_grid": [0.4]}), "series.d_grid[0]"),
    (minimal("lemma-suite", series={"d_grid": [1.0], "n": 1}), "series.n"),
    (minimal("lemma-suite", series={"s_grid": [-0.1]}), "series.s_grid[0]"),
    (minimal("lemma-suite", local={"min_density": 0}), "local.min_density"),
    (minimal("lemma-suite", local={"n_triples": 0}), "local.n_triples"),
    # the ensemble draws degrees from [4, max_degree]
    (minimal("lemma-suite", local={"max_degree": 3}), "local.max_degree"),
    (minimal("lemma-suite", local={"sensors": []}), "local.sensors"),
    (minimal("lemma-suite", local={"sensors": ["full"]}), "local.sensors[0]"),
    (
        minimal("lemma-suite", local={"sensors": [{"type": "random-intervals", "n": 3}]}),
        "local.sensors[0].n",
    ),
    (minimal("lemma-suite", analyticity={"tau_scale": 0}), "analyticity.tau_scale"),
    (minimal("lemma-suite", analyticity={"n_cases": 51}), "analyticity.n_cases"),
    (minimal("lemma-suite", analyticity={"degree": 0}), "analyticity.degree"),
    (minimal("lemma-suite", profile={"delta": -0.1}), "profile.delta"),
    (minimal("lemma-suite", local=[]), "local"),
    # the rules that compare fields with each other
    (minimal("smoothing-validate", degree=20, n_trunc=10), "n_trunc"),
    (minimal("smoothing-validate", validate_times=[0.5, 0.7]), "validate_times"),
]


@pytest.mark.parametrize(
    "cfg, field", SINGLE_FAULTS, ids=[field for _, field in SINGLE_FAULTS]
)
def test_single_fault_names_its_field(cfg, field):
    with pytest.raises(ConfigError) as err:
        resolve_config(cfg)
    assert err.value.field == field


def test_random_intervals_allowed_under_local_sensors():
    cfg = minimal("lemma-suite", local={"sensors": [{"type": "random-intervals"}]})
    assert resolve_config(cfg)["local"]["sensors"] == [{"type": "random-intervals"}]


NAN, INF = math.nan, math.inf

NON_FINITE = [
    (minimal("uncertainty", eps_grid=[NAN]), "eps_grid[0]"),
    (minimal("uncertainty", cases=[{"sensor": {"type": "full"}, "gamma": NAN}]), "cases[0].gamma"),
    (minimal("uncertainty", profile={"R": INF}), "profile.R"),
    (minimal("observability", t_grid=[0.5, NAN]), "t_grid[1]"),
    # an integer literal past the float range: float() would overflow
    (minimal("smoothing-validate", theta=10**400), "theta"),
    (minimal("lemma-suite", series={"d_grid": [INF]}), "series.d_grid[0]"),
    (with_sensor({"type": "intervals", "intervals": [[-INF, 0.0]]}), "cases[0].sensor.intervals[0]"),
]


@pytest.mark.parametrize("cfg, field", NON_FINITE, ids=[field for _, field in NON_FINITE])
def test_non_finite_number_is_a_config_error(tmp_path, capsys, cfg, field):
    # json.load reads the NaN and Infinity literals json.dumps writes here;
    # NaN slips past every range check, so each must be refused as non-finite
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out"), "--threads", "1"]) == EXIT_CONFIG
    assert f"config field '{field}': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
