import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from regenmc import cli
from regenmc.cli import (MAX_GRID, MAX_ITEMS, MAX_LEMMA_BLOCK_STATES, MAX_LEMMA_BLOCKS,
                         MAX_LEMMA_STATES, MAX_LEVELS, MAX_STEPS, main, run, validate)

from .helpers import child_env, strict_loads

CONFIGS = Path(__file__).parent / "configs"
GOLDEN = Path(__file__).parent / "golden"


def load(name):
    return json.loads((CONFIGS / name).read_text())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_accepts_every_fixture():
    for cfg in CONFIGS.glob("*.json"):
        assert validate(json.loads(cfg.read_text())) == [], cfg.name


def test_validate_missing_seed():
    cfg = load("simulate_tiny.json")
    del cfg["seed"]
    assert any("seed" in v for v in validate(cfg))
    for bad in (-5, True, 1.5):         # rng.stream takes only integers >= 0
        cfg["seed"] = bad
        assert f"seed is mandatory and must be an integer >= 0, got {bad!r}" in validate(cfg)


# The keys a paper hypothesis names but no run reads: the block bound takes sigma'
# from the data, optimises L and uses the class envelope as U, and kde-rate has
# no moment exponent p or dimension d.
_UNREAD = [
    ("kde_rate_tiny.json", ("d",), 3, "d is not read by a 'kde-rate' experiment"),
    ("kde_rate_tiny.json", ("p",), 1.5, "p is not read by a 'kde-rate' experiment"),
    ("bounds_tiny.json", ("sigma_prime",), 0.5,
     "sigma_prime is not read by a 'bounds' experiment"),
    ("bounds_tiny.json", ("L",), 2.0, "L is not read by a 'bounds' experiment"),
    ("bounds_tiny.json", ("U",), 1.0, "U is not read by a 'bounds' experiment"),
    ("bounds_tiny.json", ("p",), 2.0, "p is not read by a 'bounds' experiment in 'em' mode"),
    ("bounds_pm_tiny.json", ("lambda",), 0.3,
     "lambda is not read by a 'bounds' experiment in 'pm' mode"),
    ("kde_rate_tiny.json", ("slope_tolerence",), 0.0,
     "slope_tolerence is not read by a 'kde-rate' experiment"),
    ("mh_credible_tiny.json", ("slope_tolerence",), 0.0,
     "slope_tolerence is not read by a 'mh-credible' experiment"),
    ("rademacher_tiny.json", ("constants",), {"M_const": 2.0},
     "constants is not read by a 'rademacher' experiment"),
    ("blocks_tiny.json", ("model", "widht"), 0.3,
     "model.widht is not read by a 'doeblin_uniform' model, which takes ('delta', 'width')"),
    ("kde_rate_tiny.json", ("model", "widht"), 0.3,
     "model.widht is not read by a 'doeblin_uniform' model, which takes ('delta', 'width')"),
    ("rademacher_tiny.json", ("class", "sise"), 5,
     "class.sise is not read by a 'halfline' class, which takes "
     "('thresholds', 'lo', 'hi', 'size')"),
    ("bounds_tiny.json", ("class", "coordinate"), 0,
     "class.coordinate is not read by a 'halfline' class, which takes "
     "('thresholds', 'lo', 'hi', 'size')"),
    ("mh_credible_tiny.json", ("target", "sigm"), 0.2,
     "target.sigm is not read by a 'uniform' target, which takes ('lo', 'hi', 'd')"),
]


@pytest.mark.parametrize("name,path,value,message", _UNREAD)
def test_validate_names_a_key_no_run_reads(name, path, value, message, tmp_path):
    cfg = load(name)
    spec = cfg
    for key in path[:-1]:
        spec = spec[key]
    spec[path[-1]] = value
    assert validate(cfg) == [message]
    with pytest.raises(ValueError, match="invalid config"):
        run(cfg, tmp_path)


def test_validate_command_names_an_unread_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(load("bounds_tiny.json"), sigma_prime=0.5)))
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().out == "sigma_prime is not read by a 'bounds' experiment\n"


class _ReadRecorder(dict):
    """A config that adds every key read from it to ``read``."""

    def __init__(self, config, read):
        super().__init__(config)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*_tiny.json")))
def test_each_runner_reads_exactly_the_keys_of_its_table(name, tmp_path, monkeypatch):
    cfg = load(name)
    exp = cfg["experiment"]
    read = set()
    runner = cli._RUNNERS[exp]
    monkeypatch.setitem(cli._RUNNERS, exp,
                        lambda config, out, jobs: runner(_ReadRecorder(config, read), out, jobs))
    run(cfg, tmp_path)
    assert set(cli.KEYS[exp]) <= read <= set(cli.KEYS[exp]) | {"experiment", "seed"}


def test_validate_bounds_requires_explicit_constant():
    cfg = load("bounds_tiny.json")
    del cfg["constants"]["M_const"]
    assert any("M_const" in v for v in validate(cfg))


@pytest.mark.parametrize("name", ["bounds_tiny.json", "kde_rate_tiny.json",
                                  "mh_credible_tiny.json"])
@pytest.mark.parametrize("bad", [64.5, 0, -3, "256", True])
def test_validate_names_bad_n_grid_entry(name, bad):
    cfg = load(name)
    cfg["n_grid"][1] = bad
    assert f"n_grid[1] must be an integer >= 1, got {bad!r}" in validate(cfg)


@pytest.mark.parametrize("name", ["bounds_tiny.json", "rademacher_tiny.json"])
@pytest.mark.parametrize("bad", [0, 99, 150.0])
def test_validate_names_bad_n_mc(name, bad, tmp_path):
    cfg = load(name)
    cfg["n_mc"] = bad
    assert f"n_mc must be an integer >= 100, got {bad!r}" in validate(cfg)
    with pytest.raises(ValueError, match="invalid config"):
        run(cfg, tmp_path)


@pytest.mark.parametrize("name,value", [("vc_C", 1e9), ("vc_v", 2.0), ("K_const", 3),
                                        ("tau_param", 1.0)])
def test_validate_rejects_constants_no_experiment_reads(name, value, tmp_path):
    cfg = load("bounds_tiny.json")
    cfg["constants"][name] = value
    assert validate(cfg) == [
        f"constants.{name} is not read by any experiment; constants takes only M_const"]
    with pytest.raises(ValueError, match="invalid config"):
        run(cfg, tmp_path)


@pytest.mark.parametrize("name,key,value,message", [
    ("verify_lemmas_tiny.json", "eps_grid", [], "eps_grid must be a non-empty list, got []"),
    ("verify_lemmas_tiny.json", "eps_grid", [0.5, 0],
     "eps_grid[1] must be a finite positive number, got 0"),
    ("verify_lemmas_tiny.json", "eps_grid", [0.1, float("inf")],
     "eps_grid[1] must be a finite positive number, got inf"),
    ("bounds_tiny.json", "constants", {"M_const": float("inf")},
     "constants.M_const must be a finite positive number, got inf"),
    ("verify_lemmas_tiny.json", "max_states", 1, "max_states must be an integer >= 2, got 1"),
    ("verify_lemmas_tiny.json", "max_members", 0, "max_members must be an integer >= 1, got 0"),
    ("verify_lemmas_tiny.json", "max_members", 17,
     "max_members must be at most 16 for exact covers, got 17"),
    ("verify_lemmas_tiny.json", "max_blocks", 0, "max_blocks must be an integer >= 1, got 0"),
    ("verify_lemmas_tiny.json", "max_len", 0, "max_len must be an integer >= 1, got 0"),
    ("kde_rate_tiny.json", "bandwidth_scale", -1,
     "bandwidth_scale must be a finite positive number, got -1"),
    ("kde_rate_tiny.json", "bandwidth_scale", float("inf"),
     "bandwidth_scale must be a finite positive number, got inf"),
    ("kde_rate_tiny.json", "bandwidth_scale", 64,
     "beta = 0.2 and bandwidth_scale = 64 give the bandwidth h = 21.112126572366307 at n = 256, "
     "above 1, where the theory rate sqrt(log(1/h) / (n h)) is undefined"),
    ("kde_rate_tiny.json", "beta", float("nan"), "beta must be a finite number >= 0, got nan"),
    ("kde_rate_tiny.json", "beta", True, "beta must be a finite number >= 0, got True"),
    ("kde_rate_tiny.json", "kernel", [],
     "kernel must be one of ('box', 'epanechnikov'), got []"),
    ("kde_rate_tiny.json", "model", {"kind": "two_state"},
     "model.kind must be 'doeblin_uniform' for kde-rate, got 'two_state'"),
    ("kde_rate_tiny.json", "model", "x",
     "model.kind must be 'doeblin_uniform' for kde-rate, got None"),
    ("kde_rate_tiny.json", "kernel", "gauss",
     "kernel must be one of ('box', 'epanechnikov'), got 'gauss'"),
    ("mh_credible_tiny.json", "coordinate", 3,
     "coordinate must be an integer in [0, 1) for a 1-d target, got 3"),
    ("mh_credible_tiny.json", "coordinate", -1,
     "coordinate must be an integer in [0, 1) for a 1-d target, got -1"),
    ("mh_credible_tiny.json", "target", {"kind": "gauss"},
     "target.kind must be one of ('uniform', 'trunc_gauss', 'bimodal'), got 'gauss'"),
    ("mh_credible_tiny.json", "target", {"kind": "trunc_gauss", "nu": 3},
     "target.nu is not read by a 'trunc_gauss' target, "
     "which takes ('lo', 'hi', 'mu', 'sigma', 'd')"),
    ("mh_credible_tiny.json", "target", {"kind": []},
     "target.kind must be one of ('uniform', 'trunc_gauss', 'bimodal'), got []"),
    ("mh_credible_tiny.json", "target", {"kind": "trunc_gauss", "sigma": -0.1},
     "target: sigma must be positive, got -0.1"),
    ("mh_credible_tiny.json", "target", {"kind": "bimodal", "s1": 0},
     "target: s1 and s2 must be positive, got 0 and 0.08"),
    ("mh_credible_tiny.json", "target", {"kind": "bimodal", "w1": 1.5},
     "target: w1 must lie in [0, 1], got 1.5"),
    ("mh_credible_tiny.json", "target", {"kind": "uniform", "lo": "0"},
     "target.lo must be a finite number, got '0'"),
    ("mh_credible_tiny.json", "target", {"kind": "uniform", "lo": 1, "hi": 0},
     "target: lo must be below hi, got 1 >= 0"),
    ("mh_credible_tiny.json", "target", {"kind": "uniform", "d": 7},
     "target: dimension d must be at most MAX_DIM = 6, got 7"),
    ("mh_credible_tiny.json", "target", {"kind": "trunc_gauss", "d": 2 ** 31},
     "target: dimension d must be at most MAX_DIM = 6, got 2147483648"),
    ("mh_credible_tiny.json", "proposal", {"kind": "uniform_step"},
     "proposal.a is required for a 'uniform_step' proposal"),
    ("mh_credible_tiny.json", "proposal", {"kind": "gaussian_step", "s": 0.2},
     "proposal.eps is required for a 'gaussian_step' proposal"),
    ("mh_credible_tiny.json", "proposal", {"kind": "gaussian_step", "eps": 0.3},
     "proposal.s is required for a 'gaussian_step' proposal"),
    ("mh_credible_tiny.json", "proposal", {"kind": "cauchy", "a": 0.25},
     "proposal.kind must be one of ('uniform_step', 'gaussian_step'), got 'cauchy'"),
    ("mh_credible_tiny.json", "proposal", {"kind": "uniform_step", "a": 0},
     "proposal: step half-width a must be positive, got 0"),
    ("mh_credible_tiny.json", "proposal", {"kind": "uniform_step", "a": 0.25, "d": 2},
     "proposal.d is not read by a 'uniform_step' proposal, which takes ('a',)"),
    ("mh_credible_tiny.json", "proposal", {"a": 0.25},
     "proposal.kind must be one of ('uniform_step', 'gaussian_step'), got None"),
    ("mh_credible_tiny.json", "n_u", 0, "n_u must be an integer >= 1, got 0"),
    ("mh_credible_tiny.json", "n_u", MAX_LEVELS + 1,
     f"n_u must be at most {MAX_LEVELS}, got {MAX_LEVELS + 1}"),
    ("simulate_tiny.json", "n", 10 ** 30, f"n must be at most {MAX_STEPS}, got {10 ** 30}"),
    ("blocks_tiny.json", "n", 2 ** 40, f"n must be at most {MAX_STEPS}, got {2 ** 40}"),
    ("rademacher_tiny.json", "n", MAX_STEPS + 1,
     f"n must be at most {MAX_STEPS}, got {MAX_STEPS + 1}"),
    ("bounds_tiny.json", "n_grid", [256, 512, 2 ** 40],
     f"n_grid[2] must be at most {MAX_STEPS}, got {2 ** 40}"),
    ("kde_rate_tiny.json", "replications", MAX_ITEMS + 1,
     f"replications must be at most {MAX_ITEMS}, got {MAX_ITEMS + 1}"),
    ("verify_lemmas_tiny.json", "trials", 10 ** 30,
     f"trials must be at most {MAX_ITEMS}, got {10 ** 30}"),
    ("mh_credible_tiny.json", "center", [0.5, 0.5],
     "center must list one number per coordinate of the 1-d target, got [0.5, 0.5]"),
    ("mh_credible_tiny.json", "center", [1.5],
     "center[0] must lie in the support [0.0, 1.0], got 1.5"),
    ("mh_credible_tiny.json", "slope_tolerance", "0.6",
     "slope_tolerance must be a finite number >= 0, got '0.6'"),
    ("kde_rate_tiny.json", "slope_tolerance", -0.1,
     "slope_tolerance must be a finite number >= 0, got -0.1"),
    ("blocks_tiny.json", "min_blocks", "x", "min_blocks must be an integer >= 0, got 'x'"),
    ("blocks_tiny.json", "min_blocks", -1, "min_blocks must be an integer >= 0, got -1"),
    ("blocks_tiny.json", "min_blocks", 2.5, "min_blocks must be an integer >= 0, got 2.5"),
    ("simulate_tiny.json", "model", {"kind": "finite_atom"},
     "model.matrix is required for a 'finite_atom' model"),
    ("simulate_tiny.json", "model", None, "model spec is required"),
    ("blocks_tiny.json", "model", {"kind": "doeblin_uniform", "delta": 2.0},
     "model: delta must lie in (0, 1], got 2.0"),
    ("blocks_tiny.json", "model", {"kind": "doeblin_uniform", "delta": "x"},
     "model.delta must be a finite number, got 'x'"),
    ("blocks_tiny.json", "model", {"kind": "doeblin_uniform", "delta": 0.4, "width": 0.9},
     "model: width must lie in (0, 0.5], got 0.9"),
    ("simulate_tiny.json", "model",
     {"kind": "finite_doeblin", "delta": 0.2, "matrix": [[0.5, 0.5], [0.2, 0.8]],
      "psi": [0.5, 0.6]},
     "model: psi must be a probability vector over the 2 states, got [0.5, 0.6]"),
    ("simulate_tiny.json", "model", {"kind": "two_state", "p01": 1.5},
     "model: p01 must lie in [0, 1], got 1.5"),
    ("blocks_tiny.json", "model",
     {"kind": "finite_atom", "matrix": [[float("nan"), 0.5], [0.2, 0.8]]},
     "model.matrix[0][0] must be a finite number, got nan"),
    ("blocks_tiny.json", "model", {"kind": "finite_atom", "matrix": [[0.5, 0.5], [0.2, 0.8]],
                                   "atom": 5},
     "model: atom must be a state in [0, 2), got 5"),
    ("blocks_tiny.json", "model", {"kind": "finite_atom", "matrix": [[0.5, 0.5], [0.2, 0.8]],
                                   "atom": -1},
     "model: atom must be a state in [0, 2), got -1"),
    ("simulate_tiny.json", "model", {"kind": "doeblin"},
     "model.kind must be one of ('two_state', 'finite_atom', 'finite_doeblin', "
     "'doeblin_uniform'), got 'doeblin'"),
    ("kde_rate_tiny.json", "n_grid", [512, 512, 512],
     "n_grid must be strictly increasing, got n_grid[1] = 512 after 512"),
    ("mh_credible_tiny.json", "n_grid", [128, 512, 256],
     "n_grid must be strictly increasing, got n_grid[2] = 256 after 512"),
    ("bounds_tiny.json", "n_grid", [256, 512, 512, 1024],
     "n_grid must be strictly increasing, got n_grid[2] = 512 after 512"),
    ("bounds_tiny.json", "exponent_range", [0.5],
     "exponent_range must be two finite numbers [lo, hi] with lo <= hi, got [0.5]"),
    ("bounds_tiny.json", "exponent_range", [0.6, 0.4],
     "exponent_range must be two finite numbers [lo, hi] with lo <= hi, got [0.6, 0.4]"),
    ("bounds_tiny.json", "exponent_range", [0.3, "0.7"],
     "exponent_range must be two finite numbers [lo, hi] with lo <= hi, got [0.3, '0.7']"),
    ("bounds_tiny.json", "exponent_range", 0.5,
     "exponent_range must be two finite numbers [lo, hi] with lo <= hi, got 0.5"),
    ("bounds_tiny.json", "lambda", "x", "lambda must be a finite positive number, got 'x'"),
    ("bounds_pm_tiny.json", "p", "x", "p must be a finite positive number, got 'x'"),
    ("bounds_pm_tiny.json", "p", float("inf"), "p must be a finite positive number, got inf"),
    ("bounds_tiny.json", "lambda", 0, "lambda must be a finite positive number, got 0"),
    ("bounds_tiny.json", "lambda", -0.3, "lambda must be a finite positive number, got -0.3"),
    ("bounds_tiny.json", "lambda", True, "lambda must be a finite positive number, got True"),
])
def test_validate_names_key_and_value(name, key, value, message, tmp_path):
    cfg = load(name)
    cfg[key] = value
    assert validate(cfg) == [message]
    with pytest.raises(ValueError, match="invalid config"):
        run(cfg, tmp_path)


@pytest.mark.parametrize("key,value,message", [
    # h = 0.35 * 1024^-3 = 3.3e-10 gives about 1.2e10 grid points
    ("beta", 3.0, "beta = 3.0 and bandwidth_scale = 0.35 give the bandwidth h = "
                  "3.2596290111541746e-10 at n = 1024, which has a grid over "
                  f"MAX_GRID = {MAX_GRID} points"),
    ("bandwidth_scale", 1e-300, "beta = 0.2 and bandwidth_scale = 1e-300 give the bandwidth "
                                f"h = 2.4999999999999996e-301 at n = 1024, which has a grid over "
                                f"MAX_GRID = {MAX_GRID} points"),
    ("bandwidth_scale", 5e-324, "beta = 0.2 and bandwidth_scale = 5e-324 give the bandwidth "
                                "h = 0.0 at n = 1024, which underflows to 0"),
])
def test_validate_refuses_a_kde_grid_too_big_to_hold(key, value, message):
    cfg = load("kde_rate_tiny.json")
    cfg[key] = value
    assert validate(cfg) == [message]


# At 10^12 each of these ran out of memory inside the run.
@pytest.mark.parametrize("key,value,message", [
    ("max_states", 10 ** 12, f"max_states must be at most {MAX_LEMMA_STATES}, got {10 ** 12}"),
    ("max_blocks", 10 ** 12, f"max_blocks must be at most {MAX_LEMMA_BLOCKS}, got {10 ** 12}"),
    ("max_len", 10 ** 12,
     f"max_len must be at most {MAX_LEMMA_BLOCK_STATES // 5} with max_blocks = 5 "
     f"(MAX_LEMMA_BLOCK_STATES = {MAX_LEMMA_BLOCK_STATES} block states in all), got {10 ** 12}"),
])
def test_validate_refuses_lemma_instances_too_big_to_hold(key, value, message):
    cfg = load("verify_lemmas_tiny.json")
    assert validate(cfg) == []
    cfg[key] = value
    assert validate(cfg) == [message]


@pytest.mark.parametrize("blocks", [1000, MAX_LEMMA_BLOCKS])
def test_validate_caps_max_len_by_the_block_count(blocks):
    cfg = dict(load("verify_lemmas_tiny.json"), max_blocks=blocks)
    cap = MAX_LEMMA_BLOCK_STATES // blocks
    assert validate(dict(cfg, max_len=cap)) == []
    assert validate(dict(cfg, max_len=cap + 1)) == [
        f"max_len must be at most {cap} with max_blocks = {blocks} (MAX_LEMMA_BLOCK_STATES = "
        f"{MAX_LEMMA_BLOCK_STATES} block states in all), got {cap + 1}"]


@pytest.mark.parametrize("name,key,value", [
    ("simulate_tiny.json", "n", MAX_STEPS),
    ("verify_lemmas_tiny.json", "max_states", MAX_LEMMA_STATES),
    ("bounds_tiny.json", "n_grid", [256, 512, MAX_STEPS]),
    ("kde_rate_tiny.json", "replications", MAX_ITEMS),
    ("verify_lemmas_tiny.json", "trials", MAX_ITEMS),
    ("mh_credible_tiny.json", "n_u", MAX_LEVELS),
])
def test_validate_accepts_run_sizes_at_their_caps(name, key, value):
    cfg = load(name)
    cfg[key] = value
    assert validate(cfg) == []


_ODD_VALUES = ["x", None, float("nan"), float("inf"), [], {}, True,
               pytest.param(10 ** 400, id="10**400"), pytest.param(-10 ** 400, id="-10**400")]
_TINY = sorted(path.name for path in CONFIGS.glob("*.json"))


@pytest.mark.parametrize("value", _ODD_VALUES, ids=repr)
@pytest.mark.parametrize("name", _TINY)
def test_validate_never_raises_on_an_odd_top_level_value(name, value):
    cfg = load(name)
    for key in cfg:
        assert isinstance(validate(dict(cfg, **{key: value})), list), key


@pytest.mark.parametrize("value", _ODD_VALUES, ids=repr)
@pytest.mark.parametrize("name", _TINY)
def test_validate_never_raises_on_an_odd_spec_value(name, value):
    cfg = load(name)
    for spec in ("model", "class", "target", "proposal"):
        for key in cfg.get(spec, {}):
            odd = dict(cfg, **{spec: dict(cfg[spec], **{key: value})})
            assert isinstance(validate(odd), list), (spec, key)


def test_validate_requires_lambda_in_em_mode_but_not_exponent_range():
    cfg = load("bounds_tiny.json")
    del cfg["lambda"], cfg["exponent_range"]
    assert validate(cfg) == ["lambda is required when mode is 'em'"]
    del cfg["mode"]                     # em is the default mode
    assert validate(cfg) == ["lambda is required when mode is 'em'"]
    cfg["lambda"] = 0.3
    assert validate(cfg) == []
    cfg["exponent_range"] = [0.5, 0.5]
    assert validate(cfg) == []


def test_manifest_records_replication_seeds(tmp_path):
    manifest, _ = run(load("kde_rate_tiny.json"), tmp_path)
    seeds = manifest["replication_seeds"]
    assert len(seeds) == 3 and all(len(row) == 3 for row in seeds)
    flat = [s for row in seeds for s in row]
    assert len(set(flat)) == len(flat)


def test_validate_lists_every_violation():
    cfg = {"experiment": "kde-rate", "n_grid": [1], "replications": 0, "beta": -1}
    violations = validate(cfg)
    assert len(violations) >= 4


def test_run_rejects_invalid_config(tmp_path):
    with pytest.raises(ValueError, match="invalid config"):
        run({"experiment": "simulate"}, tmp_path)


# ---------------------------------------------------------------------------
# Runs, determinism, golden files
# ---------------------------------------------------------------------------


def test_simulate_matches_golden(tmp_path):
    run(load("simulate_tiny.json"), tmp_path)
    got = (tmp_path / "trajectory.csv").read_bytes()
    assert got == (GOLDEN / "simulate_trajectory.csv").read_bytes()


def test_simulate_row_count(tmp_path):
    cfg = load("simulate_tiny.json")
    run(cfg, tmp_path)
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 3 + cfg["n"]


def test_identical_configs_identical_digests(tmp_path):
    m1, _ = run(load("blocks_tiny.json"), tmp_path / "a")
    m2, _ = run(load("blocks_tiny.json"), tmp_path / "b")
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_hash"] == m2["config_hash"]


def test_seed_override_changes_digests(tmp_path):
    cfg = load("blocks_tiny.json")
    m1, _ = run(cfg, tmp_path / "a")
    cfg["seed"] += 1
    m2, _ = run(cfg, tmp_path / "b")
    assert m1["outputs"] != m2["outputs"]


def test_every_experiment_kind_matches_golden_digests(tmp_path):
    golden = json.loads((GOLDEN / "digests.json").read_text())
    for name in ("simulate_tiny.json", "blocks_tiny.json", "rademacher_tiny.json",
                 "bounds_tiny.json", "bounds_pm_tiny.json", "kde_rate_tiny.json",
                 "mh_credible_tiny.json", "verify_lemmas_tiny.json"):
        manifest, passed = run(load(name), tmp_path / name.replace(".json", ""))
        assert manifest["outputs"] == golden[name], name
        assert passed in (True, None), name


def test_pm_bounds_at_p_36_finish_with_finite_json(tmp_path):
    # L^(p - 1) overflows at the top truncation levels once p >= 36; those
    # levels are infeasible, the others still give every row a bound
    cfg = load("bounds_pm_tiny.json")
    cfg["p"] = 36
    run(cfg, tmp_path)
    report = strict_loads((tmp_path / "bound_report.json").read_text())
    assert len(report["rows"]) == len(cfg["n_grid"])
    for row in report["rows"]:
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in row.values()), row
        assert row["trunc_opt"] < 2.0 ** 30


def test_kde_rate_outputs_shape(tmp_path):
    cfg = load("kde_rate_tiny.json")
    run(cfg, tmp_path)
    rows = (tmp_path / "kde_rate.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + len(cfg["n_grid"])
    report = json.loads((tmp_path / "kde_rate.json").read_text())
    assert {"slope", "theory_slope", "pass"} <= report.keys()


def test_lemma_outputs(tmp_path):
    run(load("verify_lemmas_tiny.json"), tmp_path)
    summary = json.loads((tmp_path / "lemma_summary.json").read_text())
    assert summary["pass"] and summary["holds"] == summary["checks"]
    header = (tmp_path / "lemma_checks.csv").read_text().splitlines()[0]
    assert header == "instance,eps,side,lhs,rhs,pass"


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*_tiny.json")))
def test_jobs_do_not_change_results(tmp_path, name):
    cfg = load(name + ".json")
    m1, _ = run(cfg, tmp_path / "serial", jobs=1)
    m2, _ = run(cfg, tmp_path / "parallel", jobs=2)
    assert m1["outputs"] == m2["outputs"]


def test_jobs_do_not_change_a_2d_gaussian_step_run(tmp_path):
    # the pool pickles the proposal, and the workers walk the d > 1 array loop
    cfg = load("mh_credible_tiny.json")
    cfg.update(target={"kind": "trunc_gauss", "d": 2},
               proposal={"kind": "gaussian_step", "s": 0.2, "eps": 0.3})
    m1, _ = run(cfg, tmp_path / "serial", jobs=1)
    m2, _ = run(cfg, tmp_path / "parallel", jobs=2)
    assert m1["outputs"] == m2["outputs"]


# ---------------------------------------------------------------------------
# Entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_pass_exit_code(tmp_path, capsys):
    code = main(["simulate", "--config", str(CONFIGS / "simulate_tiny.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "[PASS]" in capsys.readouterr().out


def test_main_threshold_failure_exit_code(tmp_path, capsys):
    cfg = load("kde_rate_tiny.json")
    cfg["slope_tolerance"] = 1e-6
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(cfg))
    code = main(["kde-rate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_main_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_main_rejects_a_config_that_is_not_an_object(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object, got [1]\n"


def test_main_seed_override(tmp_path):
    code = main(["simulate", "--config", str(CONFIGS / "simulate_tiny.json"),
                 "--seed", "99", "--out", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    assert header.split(",")[2] == "99"


def test_main_validate_subcommand(capsys):
    assert main(["validate", "--config", str(CONFIGS / "bounds_tiny.json")]) == 0
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["bounds_tiny.json", "rademacher_tiny.json"])
def test_validate_rejects_covering_constants_of_a_halfline_class(name):
    cfg = load(name)
    cfg["class"].update(vc_C=1e9, vc_v=3.0)
    takes = "which takes ('thresholds', 'lo', 'hi', 'size')"
    assert validate(cfg) == [f"class.vc_C is not read by a 'halfline' class, {takes}",
                             f"class.vc_v is not read by a 'halfline' class, {takes}"]


_FINITE_ATOM_3 = {"kind": "finite_atom", "matrix": [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5],
                                                    [0.4, 0.0, 0.6]]}
_FINITE_ATOM_2 = {"kind": "finite_atom", "matrix": [[0.5, 0.5], [0.2, 0.8]]}


@pytest.mark.parametrize("name", ["bounds_tiny.json", "rademacher_tiny.json"])
@pytest.mark.parametrize("model,spec,message", [
    (None, None, "class spec is required"),
    (None, {"kind": "box"},
     "class.kind must be one of ('halfline', 'table', 'kernel'), got 'box'"),
    (None, {"kind": "halfline", "thresholds": [0.2, float("nan")]},
     "class.thresholds[1] must be a finite number, got nan"),
    (None, {"kind": "halfline", "thresholds": []},
     "class.thresholds must be a non-empty list, got []"),
    (None, {"kind": "halfline", "lo": float("-inf")},
     "class.lo must be a finite number, got -inf"),
    (None, {"kind": "halfline", "size": 0}, "class: size must be an integer >= 1, got 0"),
    (None, {"kind": "halfline", "size": 2 ** 31},
     "class: size must be at most ELEMENT_BUDGET = 262144, got 2147483648"),
    (None, {"kind": "halfline", "thresholds": [0.5], "size": 5},
     "class: lo, hi and size are not read next to thresholds, got lo=0.0, hi=1.0, size=5"),
    (None, {"kind": ["halfline"]},
     "class.kind must be one of ('halfline', 'table', 'kernel'), got ['halfline']"),
    (None, {"kind": "kernel", "h": 0.1, "centers": [0.5, float("inf")]},
     "class.centers[1] must be a finite number, got inf"),
    (None, {"kind": "kernel", "h": 0.1, "centers": []},
     "class.centers must be a non-empty list, got []"),
    (None, {"kind": "kernel", "h": -0.1, "centers": [0.5]},
     "class: bandwidth h must be positive, got -0.1"),
    (None, {"kind": "kernel", "h": float("nan"), "centers": [0.5]},
     "class.h must be a finite number, got nan"),
    (None, {"kind": "kernel", "centers": [0.5]}, "class.h is required for a 'kernel' class"),
    (None, {"kind": "kernel", "kernel": "gauss", "h": 0.1, "centers": [0.5]},
     "class: kernel must be one of ('box', 'epanechnikov'), got 'gauss'"),
    (None, {"kind": "table", "tables": [[0.0, 1.0, 0.5, 0.2]]},
     "class.kind 'table' needs a finite-state model, got model.kind 'doeblin_uniform'"),
    (_FINITE_ATOM_3, {"kind": "table", "tables": []},
     "class.tables must be a non-empty list, got []"),
    (_FINITE_ATOM_3, {"kind": "table", "tables": [[0.0, 1.0, float("nan")]]},
     "class.tables[0][2] must be a finite number, got nan"),
    (_FINITE_ATOM_3, {"kind": "table", "tables": [[0.0, 1.0, 0.5], [0.0, 1.0, 0.5, 0.2]]},
     "class: tables rows must have equal lengths, got [3, 4]"),
    (_FINITE_ATOM_3, {"kind": "table", "tables": [[0.0, 1.0]]},
     "class.tables rows must cover the model's 3 states, got 2 entries"),
    (_FINITE_ATOM_2, {"kind": "table", "tables": [[0.0, 1.0]], "vc_v": "x"},
     "class.vc_v must be a finite number, got 'x'"),
    (_FINITE_ATOM_2, {"kind": "table", "tables": [[0.0, 1.0]], "vc_v": 0.5},
     "class: covering exponent vc_v must be >= 1, got 0.5"),
    (None, {"kind": "kernel", "h": 0.1, "centers": [0.5], "vc_C": "x"},
     "class.vc_C must be a finite number, got 'x'"),
])
def test_validate_names_bad_class_spec(name, model, spec, message, tmp_path):
    cfg = load(name)
    if model is not None:
        cfg["model"] = model
    if spec is None:
        del cfg["class"]
    else:
        cfg["class"] = spec
    assert validate(cfg) == [message]
    with pytest.raises(ValueError, match="invalid config"):
        run(cfg, tmp_path)


def test_validate_subcommand_rejects_nan_literal(tmp_path, capsys):
    # Python's JSON parser reads the bare NaN literal as a float.
    cfg = load("rademacher_tiny.json")
    cfg["class"] = {"kind": "halfline", "thresholds": [0.2, float("nan")]}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert "NaN" in path.read_text()
    assert main(["validate", "--config", str(path)]) == 1
    assert "class.thresholds[1] must be a finite number, got nan" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["bounds_tiny.json", "kde_rate_tiny.json"])
def test_validate_requires_model_spec(name):
    cfg = load(name)
    del cfg["model"]
    assert validate(cfg) == ["model spec is required"]


def test_validate_accepts_table_covering_the_model_states(tmp_path):
    cfg = load("rademacher_tiny.json")
    cfg.update(model=_FINITE_ATOM_3, **{"class": {"kind": "table", "tables": [[0.0, 1.0, 0.5]]}})
    assert validate(cfg) == []
    run(cfg, tmp_path)


def test_validate_accepts_last_coordinate_of_a_2d_target():
    cfg = load("mh_credible_tiny.json")
    cfg.update(target={"kind": "uniform", "d": 2}, coordinate=1)
    assert validate(cfg) == []


@pytest.mark.parametrize("center", [0.4, [0.4]])
def test_validate_accepts_a_number_as_1d_center(center, tmp_path):
    cfg = load("mh_credible_tiny.json")
    cfg.update(center=center, n_u=1)
    assert validate(cfg) == []
    run(cfg, tmp_path)


_NUMPY_ONLY_SCRIPT = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None
from regenmc.cli import run
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
print(json.dumps({path.name: run(json.loads(path.read_text()), out / path.stem)[0]["outputs"]
                  for path in sorted(configs.glob("*_tiny.json"))}))
"""


def test_every_tiny_config_matches_golden_digests_with_scipy_blocked(tmp_path):
    # the runtime needs numpy alone: with scipy unimportable, every run still
    # writes the golden outputs
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_SCRIPT, str(CONFIGS), str(tmp_path)],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    golden = json.loads((GOLDEN / "digests.json").read_text())
    assert json.loads(proc.stdout) == golden


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate adds tens of milliseconds to every start and no run needs
    # it.  scipy as a whole costs far more, and the runtime needs numpy alone,
    # so no scipy module may load.
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, regenmc.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'scipy'))"],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
