"""Seeded, reproducible experiment runner.

Subcommands: simulate, blocks, rademacher, bounds, kde-rate, mh-credible,
verify-lemmas.  Every run takes a JSON config (documented in the README),
writes CSV/JSON outputs plus a run manifest with content digests, and prints
a one-line summary.  Exit codes: 0 pass, 2 acceptance-threshold failure,
1 error.  Identical configs reproduce identical output digests.
"""

import argparse
import hashlib
import inspect
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (finite_atom_chain, finite_doeblin_chain, simulate, two_state_chain,
                     wrapped_doeblin_chain)
# the two check_* names are unused here: perfbench/tracer.py patches them on this module
from .function_classes import (EXACT_COVER_CAP, BlockMeasure, check_lifted_covering_bound,
                               check_truncated_covering_bound, covering_checks,
                               halfline_class, kernel_class, table_class)
from .kde import KDEConfig, KERNELS, rate_experiment
from .metropolis import (TARGETS, build_minorization, credible_interval_experiment,
                         gaussian_step_proposal, uniform_step_proposal)
from .parallel import pool_map, replication_seeds
from .rademacher import (compare_bound_vs_empirical, empirical_block_rademacher,
                         empirical_rademacher_iid, block_variance_proxy)
from .regeneration import extract_blocks, regen_stats, simulate_split_retrospective
from .rng import child_seed

EXPERIMENTS = ("simulate", "blocks", "rademacher", "bounds", "kde-rate",
               "mh-credible", "verify-lemmas")


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


def build_model(spec):
    kind = spec.get("kind")
    if kind == "two_state":
        return two_state_chain(spec.get("p01", 0.5), spec.get("p10", 0.2))
    if kind == "finite_atom":
        return finite_atom_chain(np.asarray(spec["matrix"], dtype=float), spec.get("atom", 0))
    if kind == "finite_doeblin":
        return finite_doeblin_chain(spec["delta"], np.asarray(spec["matrix"], dtype=float),
                                    np.asarray(spec["psi"], dtype=float))
    if kind == "doeblin_uniform":
        return wrapped_doeblin_chain(spec["delta"], spec.get("width", 0.25))
    raise ValueError(f"unknown model kind {kind!r}")


def build_target(spec):
    kind = spec.get("kind")
    if kind not in TARGETS:
        raise ValueError(f"unknown target kind {kind!r}")
    params = {k: v for k, v in spec.items() if k != "kind"}
    return TARGETS[kind](**params)


PROPOSALS = {"uniform_step": uniform_step_proposal, "gaussian_step": gaussian_step_proposal}


def build_proposal(spec, d=1):
    kind = spec.get("kind", "uniform_step")
    if kind not in PROPOSALS:
        raise ValueError(f"unknown proposal kind {kind!r}")
    return PROPOSALS[kind](d=d, **{k: v for k, v in spec.items() if k != "kind"})


def build_class(spec):
    kind = spec.get("kind")
    if kind == "halfline":
        if "thresholds" in spec:
            thresholds = np.asarray(spec["thresholds"], dtype=float)
        else:
            thresholds = np.linspace(spec.get("lo", 0.0), spec.get("hi", 1.0),
                                     int(spec.get("size", 21)))
        return halfline_class(thresholds, spec.get("coordinate", 0))
    if kind == "table":
        return table_class(np.asarray(spec["tables"], dtype=float),
                           vc_c=spec.get("vc_C"), vc_v=spec.get("vc_v", 2.0))
    if kind == "kernel":
        kernel = KERNELS[spec.get("kernel", "epanechnikov")]()
        centers = np.asarray(spec["centers"], dtype=float)
        return kernel_class(kernel, spec["h"], centers, vc_c=spec.get("vc_C"),
                            vc_v=spec.get("vc_v", 2.0))
    raise ValueError(f"unknown class kind {kind!r}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _int_at_least(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _number_above(value, bound: float) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > bound


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _finite_list_errors(key: str, values) -> list:
    """Violations of a non-empty list of finite numbers at ``key``."""
    if not isinstance(values, list) or not values:
        return [f"{key} must be a non-empty list, got {values!r}"]
    return [f"{key}[{i}] must be a finite number, got {v!r}"
            for i, v in enumerate(values) if not _finite(v)]


def _model_states(model):
    """Number of states of a model spec: 0 for the continuous model, None when unknown."""
    if not isinstance(model, dict):
        return None
    if model.get("kind") == "doeblin_uniform":
        return 0
    if model.get("kind") == "two_state":
        return 2
    matrix = model.get("matrix")
    return len(matrix) if isinstance(matrix, list) else None


def _class_errors(spec, model) -> list:
    """Violations of a class spec that build_class or the run would otherwise hit late."""
    if not isinstance(spec, dict):
        return ["class spec is required"]
    kind = spec.get("kind")
    if kind == "halfline":
        errs = [f"class.{name} is not read by a halfline class, whose (C, v) is (2, 2)"
                for name in ("vc_C", "vc_v") if name in spec]
        if "thresholds" in spec:
            return errs + _finite_list_errors("class.thresholds", spec["thresholds"])
        errs += [f"class.{name} must be a finite number, got {spec[name]!r}"
                 for name in ("lo", "hi") if name in spec and not _finite(spec[name])]
        if not _int_at_least(spec.get("size", 21), 1):
            errs.append(f"class.size must be an integer >= 1, got {spec['size']!r}")
        return errs
    if kind == "kernel":
        errs = []
        kernel = spec.get("kernel", "epanechnikov")
        if not isinstance(kernel, str) or kernel not in KERNELS:
            errs.append(f"class.kernel must be one of {tuple(KERNELS)}, got {kernel!r}")
        if not (_finite(spec.get("h")) and spec["h"] > 0):
            errs.append(f"class.h must be a finite positive number, got {spec.get('h')!r}")
        return errs + _finite_list_errors("class.centers", spec.get("centers"))
    if kind == "table":
        tables = spec.get("tables")
        if not isinstance(tables, list) or not tables:
            return [f"class.tables must be a non-empty list, got {tables!r}"]
        errs = [e for i, row in enumerate(tables)
                for e in _finite_list_errors(f"class.tables[{i}]", row)]
        widths = [len(row) for row in tables if isinstance(row, list)]
        states = _model_states(model)
        if len(set(widths)) > 1:
            errs.append(f"class.tables rows must have equal lengths, got {widths}")
        if states == 0:
            errs.append(f"class.kind 'table' needs a finite-state model, "
                        f"got model.kind {model.get('kind')!r}")
        elif states is not None:
            errs.extend(f"class.tables[{i}] must cover the model's {states} states, "
                        f"got {len(row)} entries"
                        for i, row in enumerate(tables) if isinstance(row, list) and row
                        and len(row) < states)
        return errs
    return [f"class.kind must be one of ('halfline', 'table', 'kernel'), got {kind!r}"]


def _params(factory) -> dict:
    """Keyword parameters of a target or proposal factory, with their defaults."""
    return {name: p.default for name, p in inspect.signature(factory).parameters.items()}


def _target_errors(spec) -> list:
    """Violations of an mh-credible target spec; coordinate and center need a valid one."""
    if not isinstance(spec, dict):
        return ["target spec is required"]
    kind = spec.get("kind")
    if kind not in TARGETS:
        return [f"target.kind must be one of {tuple(TARGETS)}, got {kind!r}"]
    if not _int_at_least(spec.get("d", 1), 1):
        return [f"target.d must be an integer >= 1, got {spec.get('d')!r}"]
    params = _params(TARGETS[kind])
    errs = []
    for key, value in spec.items():
        if key in ("kind", "d"):
            continue
        if key not in params:
            errs.append(f"target.{key} is not a parameter of a {kind!r} target, "
                        f"which takes {tuple(params)}")
        elif not _finite(value):
            errs.append(f"target.{key} must be a finite number, got {value!r}")
        elif key in ("sigma", "s1", "s2") and value <= 0:
            errs.append(f"target.{key} must be a positive number, got {value!r}")
        elif key == "w1" and not 0 <= value <= 1:
            errs.append(f"target.w1 must lie in [0, 1], got {value!r}")
    lo, hi = spec.get("lo", params["lo"]), spec.get("hi", params["hi"])
    if _finite(lo) and _finite(hi) and lo >= hi:
        errs.append(f"target.lo must be below target.hi, got {lo!r} >= {hi!r}")
    return errs


def _proposal_errors(spec) -> list:
    """Violations of an mh-credible proposal spec."""
    if not isinstance(spec, dict):
        return [f"proposal must be an object, got {spec!r}"]
    kind = spec.get("kind", "uniform_step")
    if kind not in PROPOSALS:
        return [f"proposal.kind must be one of {tuple(PROPOSALS)}, got {kind!r}"]
    names = tuple(name for name in _params(PROPOSALS[kind]) if name != "d")
    errs = [f"proposal.{key} is not a parameter of a {kind!r} proposal, which takes {names}"
            for key in spec if key != "kind" and key not in names]
    for name in names:
        if name not in spec:
            errs.append(f"proposal.{name} is required for a {kind!r} proposal")
        elif not (_finite(spec[name]) and spec[name] > 0):
            errs.append(f"proposal.{name} must be a finite positive number, got {spec[name]!r}")
    return errs


def _center_errors(center, target) -> list:
    """Violations of the certificate center of a valid target: d finite numbers in its box.

    A bare number stands for a one-element list when d = 1.
    """
    d = target.get("d", 1)
    values = [center] if d == 1 and _finite(center) else center
    if not isinstance(values, list) or len(values) != d:
        return [f"center must list one number per coordinate of the {d}-d target, "
                f"got {center!r}"]
    params = _params(TARGETS[target["kind"]])
    lo, hi = target.get("lo", params["lo"]), target.get("hi", params["hi"])
    errs = []
    for i, c in enumerate(values):
        if not _finite(c):
            errs.append(f"center[{i}] must be a finite number, got {c!r}")
        elif not lo <= c <= hi:
            errs.append(f"center[{i}] must lie in the support [{lo!r}, {hi!r}], got {c!r}")
    return errs


# Smallest value of each verify-lemmas instance limit: an instance needs two states.
_LEMMA_LIMITS = {"max_states": 2, "max_members": 1, "max_blocks": 1, "max_len": 1}


def validate(config) -> list:
    """All violations that would prevent a run; empty means runnable."""
    errs = []
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        errs.append(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
    if not _int_at_least(config.get("seed"), 0):
        errs.append(f"seed is mandatory and must be an integer >= 0, got {config.get('seed')!r}")
    consts = config.get("constants", {})
    if not isinstance(consts, dict):
        errs.append(f"constants must be an object, got {consts!r}")
        consts = {}
    for name in consts:
        if name in ("vc_C", "vc_v"):
            errs.append(f"constants.{name} is not read by any experiment; "
                        f"set {name} in the class spec")
        elif name != "M_const":
            errs.append(f"constants.{name} is not read by any experiment; "
                        f"constants takes only M_const")
    if "M_const" in consts and not _number_above(consts["M_const"], 0):
        errs.append(f"constants.M_const must be a positive number, got {consts['M_const']!r}")
    if consts and exp != "bounds":
        errs.append(f"constants is read only by bounds experiments, not by {exp!r}")
    if exp in ("simulate", "blocks", "rademacher") and not _int_at_least(config.get("n"), 1):
        errs.append("n must be a positive integer")
    if exp in ("simulate", "blocks", "rademacher", "bounds", "kde-rate") and "model" not in config:
        errs.append("model spec is required")
    if exp in ("bounds", "kde-rate", "mh-credible"):
        grid = config.get("n_grid")
        if not isinstance(grid, list) or len(grid) < 3:
            errs.append("n_grid must be a list with at least 3 sizes")
        for i, n in enumerate(grid if isinstance(grid, list) else []):
            if not _int_at_least(n, 1):
                errs.append(f"n_grid[{i}] must be an integer >= 1, got {n!r}")
        if not _int_at_least(config.get("replications"), 1):
            errs.append("replications must be a positive integer")
    if exp == "kde-rate":
        model = config.get("model")
        kind = model.get("kind") if isinstance(model, dict) else None
        if "model" in config and kind != "doeblin_uniform":
            # the smoothed-target oracle assumes the Uniform(0, 1) stationary law
            errs.append(f"model.kind must be 'doeblin_uniform' for kde-rate, got {kind!r}")
        kernel = config.get("kernel", "epanechnikov")
        if not isinstance(kernel, str) or kernel not in KERNELS:
            errs.append(f"kernel must be one of {tuple(KERNELS)}, got {kernel!r}")
        scale = config.get("bandwidth_scale", 1.0)
        if not (_finite(scale) and scale > 0):
            errs.append(f"bandwidth_scale must be a finite positive number, got {scale!r}")
        beta = config.get("beta")
        if not (_finite(beta) and beta >= 0):
            errs.append(f"beta must be a finite number >= 0, got {beta!r}")
        d = config.get("d", 1)
        if not _int_at_least(d, 1):
            errs.append(f"d must be an integer >= 1, got {d!r}")
        p = config.get("p")
        if p is not None and not (isinstance(p, (int, float)) and p > 1):
            errs.append(f"p must be a number > 1, got {p!r}")
        elif p is not None and _finite(beta) and _int_at_least(d, 1):
            # polynomial-moment regime couples beta, p and the dimension
            coupling = beta * p / (p - 1.0)
            if not 0 < coupling < 1.0 / d:
                errs.append(
                    f"need 0 < beta*p/(p-1) < 1/d for the polynomial-moment rate; got {coupling:.6g}")
    if exp == "bounds":
        # the block-bound hypothesis: sigma_prime and L may be absent or null, U defaults to 1
        hyp = {"sigma_prime": config.get("sigma_prime"), "L": config.get("L"),
               "U": config.get("U", 1.0)}
        bad = [key for key, value in hyp.items()
               if (value is not None or key == "U") and not (_finite(value) and value > 0)]
        errs.extend(f"{key} must be a finite positive number, got {hyp[key]!r}" for key in bad)
        sig, trunc, u = hyp.values()
        if not bad and sig is not None and trunc is not None and sig > trunc * u:
            errs.append("sigma_prime must satisfy sigma' <= L*U (block-bound hypothesis)")
        if config.get("mode", "em") not in ("pm", "em"):
            errs.append("mode must be 'pm' or 'em'")
        if "M_const" not in consts:
            errs.append("constants.M_const must be explicit for bound experiments")
        bounds = config.get("exponent_range", [0.45, 0.60])
        if not (isinstance(bounds, list) and len(bounds) == 2 and all(map(_finite, bounds))
                and bounds[0] <= bounds[1]):
            errs.append(f"exponent_range must be two finite numbers [lo, hi] with lo <= hi, "
                        f"got {bounds!r}")
        for key in ("p", "lambda"):
            value = config.get(key)
            if value is not None and not (_finite(value) and value > 0):
                errs.append(f"{key} must be a finite positive number, got {value!r}")
    if exp in ("rademacher", "bounds"):
        n_mc = config.get("n_mc", 2000)
        if not _int_at_least(n_mc, 100):
            errs.append(f"n_mc must be an integer >= 100, got {n_mc!r}")
        errs.extend(_class_errors(config.get("class"), config.get("model")))
    if exp in ("kde-rate", "mh-credible"):
        tol = config.get("slope_tolerance", 0.1)
        if not (_finite(tol) and tol >= 0):
            errs.append(f"slope_tolerance must be a finite number >= 0, got {tol!r}")
    if exp == "mh-credible":
        gamma = config.get("gamma")
        if not isinstance(gamma, (int, float)) or not 0 < gamma < 0.25:
            errs.append("gamma must lie in (0, 0.25)")
        target = config.get("target")
        target_errs = _target_errors(target)
        errs.extend(target_errs)
        if not target_errs:
            k, dim = config.get("coordinate", 0), target.get("d", 1)
            if not (_int_at_least(k, 0) and k < dim):
                errs.append(f"coordinate must be an integer in [0, {dim}) for a {dim}-d target, "
                            f"got {k!r}")
            if config.get("center") is not None:
                errs.extend(_center_errors(config["center"], target))
        if "proposal" in config:
            errs.extend(_proposal_errors(config["proposal"]))
        if not _int_at_least(config.get("n_u", 17), 1):
            errs.append(f"n_u must be an integer >= 1, got {config['n_u']!r}")
    if exp == "verify-lemmas":
        if not _int_at_least(config.get("trials"), 1):
            errs.append("trials must be a positive integer")
        for name, least in _LEMMA_LIMITS.items():
            value = config.get(name, least)
            if not _int_at_least(value, least):
                errs.append(f"{name} must be an integer >= {least}, got {value!r}")
        members = config.get("max_members", 1)
        if _int_at_least(members, 1) and members > EXACT_COVER_CAP:
            errs.append(f"max_members must be at most {EXACT_COVER_CAP} for exact covers, "
                        f"got {members!r}")
        eps_grid = config.get("eps_grid", [1.0])
        if not isinstance(eps_grid, list) or not eps_grid:
            errs.append(f"eps_grid must be a non-empty list, got {eps_grid!r}")
        for i, eps in enumerate(eps_grid if isinstance(eps_grid, list) else []):
            if not _number_above(eps, 0):
                errs.append(f"eps_grid[{i}] must be a positive number, got {eps!r}")
    return errs


# ---------------------------------------------------------------------------
# Experiment runners (each returns (summary, passed, outputs dict))
# ---------------------------------------------------------------------------


def _run_simulate(config, out, jobs):
    model = build_model(config["model"])
    traj = simulate(model, config["n"], config["seed"])
    path = out / "trajectory.csv"
    traj.to_csv(path)
    return f"simulated {traj.n} steps of {model.model_id}", None, {"trajectory.csv": path}


def _run_blocks(config, out, jobs):
    model = build_model(config["model"])
    traj = simulate_split_retrospective(model, config["n"], config["seed"])
    blocks = extract_blocks(traj)
    (out / "blocks.json").write_text(blocks.to_json())
    outputs = {"blocks.json": out / "blocks.json"}
    if blocks.n_complete > 0:
        stats = regen_stats(blocks, min_blocks=config.get("min_blocks", 30))
        (out / "regen_stats.json").write_text(stats.to_json())
        outputs["regen_stats.json"] = out / "regen_stats.json"
    traj.to_csv(out / "trajectory.csv")
    outputs["trajectory.csv"] = out / "trajectory.csv"
    return f"l_n={blocks.l_n}, complete blocks={blocks.n_complete}", None, outputs


def _run_rademacher(config, out, jobs):
    model = build_model(config["model"])
    cls = build_class(config["class"])
    n_mc = config.get("n_mc", 2000)
    traj = simulate_split_retrospective(model, config["n"], config["seed"])
    blocks = extract_blocks(traj)
    iid = empirical_rademacher_iid(cls, traj.states, n_mc, child_seed(config["seed"], 1))
    blk = empirical_block_rademacher(cls, blocks, n_mc, child_seed(config["seed"], 2))
    payload = {
        "iid": {"mean": iid.mean, "mc_std_error": iid.mc_std_error, "n_data": iid.n_data},
        "block": {"mean": blk.mean, "mc_std_error": blk.mc_std_error, "n_data": blk.n_data},
        "sigma_prime_sq": block_variance_proxy(cls, blocks),
    }
    (out / "rademacher.json").write_text(json.dumps(payload, indent=2))
    return (f"iid={iid.mean:.6g}±{iid.mc_std_error:.2g} "
            f"block={blk.mean:.6g}±{blk.mc_std_error:.2g}"), None, \
        {"rademacher.json": out / "rademacher.json"}


def _run_bounds(config, out, jobs):
    model = build_model(config["model"])
    cls = build_class(config["class"])
    consts = config.get("constants", {})
    report = compare_bound_vs_empirical(
        model, cls, config["n_grid"], config["replications"], config["seed"],
        n_mc=config.get("n_mc", 2000), mode=config.get("mode", "em"),
        m_const=consts["M_const"], p=config.get("p", 2.0),
        lam=config.get("lambda"), jobs=jobs)
    report.to_csv(out / "bound_report.csv")
    (out / "bound_report.json").write_text(report.to_json())
    lo, hi = config.get("exponent_range", [0.45, 0.60])
    passed = lo <= report.growth_exponent <= hi
    return (f"growth exponent {report.growth_exponent:.3f} "
            f"(target [{lo}, {hi}]), M_min={report.m_min:.4g}"), passed, \
        {"bound_report.csv": out / "bound_report.csv",
         "bound_report.json": out / "bound_report.json"}


def _run_kde_rate(config, out, jobs):
    model = build_model(config["model"])
    kernel = KERNELS[config.get("kernel", "epanechnikov")]()
    cfg = KDEConfig(beta=config["beta"], scale=config.get("bandwidth_scale", 1.0))
    report = rate_experiment(model, kernel, cfg, config["n_grid"],
                             config["replications"], config["seed"], jobs=jobs)
    report.to_csv(out / "kde_rate.csv")
    tol = config.get("slope_tolerance", 0.1)
    passed = report.slope_within(tol)
    payload = json.loads(report.to_json())
    payload["pass"] = passed
    (out / "kde_rate.json").write_text(json.dumps(payload, indent=2))
    return (f"slope {report.slope:.3f} vs theory {report.theory_slope:.3f} "
            f"(tol {tol})"), passed, \
        {"kde_rate.csv": out / "kde_rate.csv", "kde_rate.json": out / "kde_rate.json"}


def _run_mh_credible(config, out, jobs):
    target = build_target(config["target"])
    proposal = build_proposal(config.get("proposal", {"kind": "uniform_step", "a": 0.25}),
                              target.dim)
    cert = build_minorization(target, proposal, center=config.get("center"))
    (out / "certificate.json").write_text(cert.to_json())
    series = credible_interval_experiment(
        target, proposal, cert, config.get("coordinate", 0), config["gamma"],
        config["n_grid"], config["replications"], config["seed"],
        n_u=config.get("n_u", 17), jobs=jobs)
    series.to_csv(out / "quantile_report.csv")
    (out / "quantile_report.json").write_text(series.to_json())
    tol = config.get("slope_tolerance", 0.15)
    monotone = all(r.monotone for r in series.reports)
    passed = bool(series.rate_checked and abs(series.slope + 0.5) <= tol and monotone)
    return (f"slope {series.slope:.3f} vs -0.5 (tol {tol}), monotone={monotone}"), passed, \
        {"certificate.json": out / "certificate.json",
         "quantile_report.csv": out / "quantile_report.csv",
         "quantile_report.json": out / "quantile_report.json"}


def _lemma_trial(limits, task):
    trial, trial_seed = task
    rng = np.random.default_rng(trial_seed)
    n_states = int(rng.integers(2, limits["max_states"] + 1))
    n_members = int(rng.integers(1, limits["max_members"] + 1))
    n_blocks = int(rng.integers(1, limits["max_blocks"] + 1))
    tables = rng.uniform(-1, 1, (n_members, n_states))
    blocks = tuple(rng.integers(0, n_states, int(rng.integers(1, limits["max_len"] + 1)))
                   for _ in range(n_blocks))
    weights = rng.dirichlet(np.ones(n_blocks))
    bm = BlockMeasure(blocks=blocks, weights=weights)
    cls = table_class(tables)
    eps_grid = limits["eps_grid"]
    # one truncation level per eps, drawn in grid order
    truncs = [int(rng.integers(1, limits["max_len"] + 1)) for _ in eps_grid]
    # each distinct level is checked once, over the eps values that drew it
    truncated = {}
    for t in set(truncs):
        grid = [eps for eps, u in zip(eps_grid, truncs) if u == t]
        truncated[t] = iter(covering_checks(cls, bm, grid, t, "exact"))
    lifted = covering_checks(cls, bm, eps_grid, None, "exact")
    rows = []
    for eps, trunc, c1 in zip(eps_grid, truncs, lifted):
        c2 = next(truncated[trunc])
        rows.append((trial, eps, "lift", c1.lhs, c1.rhs, c1.holds))
        rows.append((trial, eps, f"trunc{trunc}", c2.lhs, c2.rhs, c2.holds))
    return rows


def _run_verify_lemmas(config, out, jobs):
    limits = {
        "max_states": config.get("max_states", 4),
        "max_members": config.get("max_members", 6),
        "max_blocks": config.get("max_blocks", 5),
        "max_len": config.get("max_len", 4),
        "eps_grid": config.get("eps_grid", [round(0.1 * k, 10) for k in range(1, 21)]),
    }
    tasks = [(t, child_seed(config["seed"], t)) for t in range(config["trials"])]
    all_rows = pool_map(partial(_lemma_trial, limits), tasks, jobs)
    n_checks = 0
    n_holds = 0
    with open(out / "lemma_checks.csv", "w") as fh:
        fh.write("instance,eps,side,lhs,rhs,pass\n")
        for rows in all_rows:
            for trial, eps, side, lhs, rhs, holds in rows:
                fh.write(f"{trial},{format(eps, '.17g')},{side},{lhs},"
                         f"{'' if rhs is None else rhs},{int(holds)}\n")
                n_checks += 1
                n_holds += int(holds)
    passed = n_holds == n_checks
    (out / "lemma_summary.json").write_text(json.dumps(
        {"trials": config["trials"], "checks": n_checks, "holds": n_holds,
         "pass": passed}, indent=2))
    return f"{n_holds}/{n_checks} covering comparisons hold", passed, \
        {"lemma_checks.csv": out / "lemma_checks.csv",
         "lemma_summary.json": out / "lemma_summary.json"}


_RUNNERS = {
    "simulate": _run_simulate,
    "blocks": _run_blocks,
    "rademacher": _run_rademacher,
    "bounds": _run_bounds,
    "kde-rate": _run_kde_rate,
    "mh-credible": _run_mh_credible,
    "verify-lemmas": _run_verify_lemmas,
}


# ---------------------------------------------------------------------------
# Manifest and entry point
# ---------------------------------------------------------------------------


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: dict, out_dir, jobs: int = 1):
    """Validate, execute, and write the manifest; returns (manifest, passed)."""
    violations = validate(config)
    if violations:
        raise ValueError("invalid config:\n  " + "\n  ".join(violations))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    summary, passed, outputs = _RUNNERS[config["experiment"]](config, out, jobs)
    manifest = {
        "artifact_version": __version__,
        "config_hash": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": config["seed"],
        "replication_seeds": _replication_seeds(config),
        "wall_clock_s": round(time.perf_counter() - t0, 3),
        "outputs": {name: _sha256(path) for name, path in sorted(outputs.items())},
        "summary": summary,
        "pass": passed,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest, passed


def _replication_seeds(config):
    """The derived per-replication seeds this run used, for the manifest."""
    seed = config["seed"]
    if "n_grid" in config and "replications" in config:
        return replication_seeds(seed, len(config["n_grid"]), config["replications"])
    if config.get("experiment") == "verify-lemmas":
        return [child_seed(seed, t) for t in range(config["trials"])]
    return None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def main(argv=None) -> int:
    parser = _Parser(prog="regenmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--jobs", type=int, default=1, help="parallel replications")
        p.add_argument("--out", default="out", help="output directory")
    p = sub.add_parser("validate")
    p.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        violations = validate(config)
        if violations:
            for v in violations:
                print(v)
            return 1
        print("config ok")
        return 0

    config.setdefault("experiment", args.command)
    if config["experiment"] != args.command:
        print(f"error: config experiment {config['experiment']!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        manifest, passed = run(config, args.out, jobs=args.jobs)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = "PASS" if passed in (True, None) else "FAIL"
    print(f"[{status}] {manifest['summary']}")
    return 0 if passed in (True, None) else 2


if __name__ == "__main__":
    sys.exit(main())
