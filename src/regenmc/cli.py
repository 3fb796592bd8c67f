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
from numpy.typing import ArrayLike

from . import __version__
from .chains import (finite_atom_chain, finite_doeblin_chain, simulate, two_state_chain,
                     wrapped_doeblin_chain)
# the two check_* names are unused here: perfbench/tracer.py patches them on this module
from .function_classes import (EXACT_COVER_CAP, BlockMeasure, check_lifted_covering_bound,
                               check_truncated_covering_bound, covering_checks,
                               halfline_class, kernel_class, table_class)
from .kde import KDEConfig, KERNELS, rate_experiment
from .metropolis import (TARGETS, GaussianStep, UniformStep, build_minorization,
                         credible_interval_experiment)
from .parallel import ELEMENT_BUDGET, pool_map, replication_seeds, strict_json
from .rademacher import (compare_bound_vs_empirical, empirical_block_rademacher,
                         empirical_rademacher_iid)
from .regeneration import extract_blocks, regen_stats, simulate_split_retrospective
from .rng import child_seed

# Marks a key that has no default, as a signature marks a parameter without one.
REQUIRED = inspect.Parameter.empty

_GRID = {"n_grid": REQUIRED, "replications": REQUIRED}

# The top-level keys each experiment reads besides ``experiment`` and ``seed``,
# with their defaults.  ``settings`` fills these in; any other key is an error.
KEYS = {
    "simulate": {"model": REQUIRED, "n": REQUIRED},
    "blocks": {"model": REQUIRED, "n": REQUIRED, "min_blocks": 30},
    "rademacher": {"model": REQUIRED, "class": REQUIRED, "n": REQUIRED, "n_mc": 2000},
    "bounds": {"model": REQUIRED, "class": REQUIRED, **_GRID, "n_mc": 2000, "mode": "em",
               "p": 2.0, "lambda": None, "exponent_range": [0.45, 0.60],
               "constants": REQUIRED},
    "kde-rate": {"model": REQUIRED, **_GRID, "beta": REQUIRED, "kernel": "epanechnikov",
                 "bandwidth_scale": 1.0, "slope_tolerance": 0.1},
    "mh-credible": {"target": REQUIRED, "proposal": {"kind": "uniform_step", "a": 0.25},
                    **_GRID, "gamma": REQUIRED, "coordinate": 0, "center": None, "n_u": 17,
                    "slope_tolerance": 0.15},
    "verify-lemmas": {"trials": REQUIRED, "max_states": 4, "max_members": 6, "max_blocks": 5,
                      "max_len": 4, "eps_grid": [round(0.1 * k, 10) for k in range(1, 21)]},
}
EXPERIMENTS = tuple(KEYS)


def settings(config) -> dict:
    """``config`` with the defaults of the keys its experiment reads filled in."""
    keys = KEYS[config["experiment"]]
    return {**{key: value for key, value in keys.items() if value is not REQUIRED}, **config}


# ---------------------------------------------------------------------------
# Config -> objects
# ---------------------------------------------------------------------------


MODELS = {"two_state": two_state_chain, "finite_atom": finite_atom_chain,
          "finite_doeblin": finite_doeblin_chain, "doeblin_uniform": wrapped_doeblin_chain}
PROPOSALS = {"uniform_step": UniformStep, "gaussian_step": GaussianStep}


def _halfline(thresholds: ArrayLike = None, lo=0.0, hi=1.0, size: int = 21):
    """Half-line indicators at ``thresholds``, or at ``size`` points spread over [lo, hi]."""
    if thresholds is None:
        if size < 1:
            raise ValueError(f"size must be an integer >= 1, got {size!r}")
        if size > ELEMENT_BUDGET:
            raise ValueError(f"size must be at most ELEMENT_BUDGET = {ELEMENT_BUDGET}, "
                             f"got {size!r}")
        thresholds = np.linspace(lo, hi, size)
    elif (lo, hi, size) != _halfline.__defaults__[1:]:   # a grid the thresholds would ignore
        raise ValueError(f"lo, hi and size are not read next to thresholds, got lo={lo!r}, "
                         f"hi={hi!r}, size={size!r}")
    return halfline_class(thresholds)


def _table(tables: ArrayLike, vc_C=None, vc_v=2.0):
    """Lookup tables over the states of a finite model, one member per row."""
    return table_class(tables, vc_c=vc_C, vc_v=vc_v)


def _kernel(h, centers: ArrayLike, kernel: str = "epanechnikov", vc_C=None, vc_v=2.0):
    """Translates of the base kernel named ``kernel`` at bandwidth ``h`` over ``centers``."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {tuple(KERNELS)}, got {kernel!r}")
    return kernel_class(KERNELS[kernel](), h, centers, vc_c=vc_C, vc_v=vc_v)


CLASSES = {"halfline": _halfline, "table": _table, "kernel": _kernel}


def build(factories, spec, **supplied):
    """The object a tagged model, target, proposal or class spec describes."""
    params = {key: value for key, value in spec.items() if key != "kind"}
    return factories[spec["kind"]](**params, **supplied)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _int_at_least(value, least) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _finite(value) -> bool:
    """A number, not a bool, within float range: NaN, inf and 10**400 are not."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _type_errors(path: str, value, annotation) -> list:
    """Violations of the type rule for one spec value, by its factory parameter's annotation:
    an integer for ``int``, a string for ``str``, a non-empty list of finite numbers at any
    depth for ``ArrayLike``, and a finite number otherwise."""
    if annotation is ArrayLike and isinstance(value, list) and value:
        return [e for i, v in enumerate(value)
                for e in _type_errors(f"{path}[{i}]", v, ArrayLike if isinstance(v, list) else None)]
    rules = {int: ("an integer", _int_at_least(value, -math.inf)),
             str: ("a string", isinstance(value, str)),
             ArrayLike: ("a non-empty list", False)}
    want, ok = rules.get(annotation, ("a finite number", _finite(value)))
    return [] if ok else [f"{path} must be {want}, got {value!r}"]


def _spec(name: str, spec, factories: dict, **supplied):
    """Violations of a tagged spec, and the object it builds, or None on a violation.

    The spec's keys are the parameters of its kind's factory, less ``supplied``.  The kind
    and keys are checked first, then each value's type, and then the spec is built with the
    run's own factory, whose value rules report as ``"<name>: <message>"``.
    """
    if not isinstance(spec, dict):
        return [f"{name} spec is required" if spec is None
                else f"{name} must be an object, got {spec!r}"], None
    kind = spec.get("kind")
    if not (isinstance(kind, str) and kind in factories):
        return [f"{name}.kind must be one of {tuple(factories)}, got {kind!r}"], None
    keys = {key: p for key, p in inspect.signature(factories[kind]).parameters.items()
            if key not in supplied}
    errs = [f"{name}.{key} is not read by a {kind!r} {name}, which takes {tuple(keys)}"
            for key in spec if key != "kind" and key not in keys]
    errs += [f"{name}.{key} is required for a {kind!r} {name}"
             for key, p in keys.items() if p.default is REQUIRED and key not in spec]
    errs = errs or [e for key, value in spec.items() if key != "kind"
                    for e in _type_errors(f"{name}.{key}", value, keys[key].annotation)]
    if errs:
        return errs, None
    try:
        return [], build(factories, spec, **supplied)
    except ValueError as exc:
        return [f"{name}: {exc}"], None


def _center_errors(center, target) -> list:
    """Violations of the certificate center of a built target: d finite numbers in its box.

    A bare number stands for a one-element list when d = 1.
    """
    d = target.dim
    values = [center] if d == 1 and _finite(center) else center
    if not isinstance(values, list) or len(values) != d:
        return [f"center must list one number per coordinate of the {d}-d target, "
                f"got {center!r}"]
    errs = []
    for i, (c, lo, hi) in enumerate(zip(values, target.support.lo.tolist(),
                                        target.support.hi.tolist())):
        if not _finite(c):
            errs.append(f"center[{i}] must be a finite number, got {c!r}")
        elif not lo <= c <= hi:
            errs.append(f"center[{i}] must lie in the support [{lo!r}, {hi!r}], got {c!r}")
    return errs


# The peak bytes of a run, as a sum of terms, so that validate refuses a run
# too big to hold instead of numpy failing inside it.  Units measured under
# tracemalloc at two sizes: 89 B a chain step of the split simulation (n = 2^20
# and 2^22); 431.5 B a step of a blocks run, whose writers hold more a step the
# more blocks there are (64.0 B at delta = 0.05, 431.5 B at delta = 1; n = 2^18
# and 2^20); 24 B more a step for each mh-credible target coordinate past the
# first (trunc_gauss held 64, 112 and 160 B a step at d = 2, 4 and 6, n = 2^20
# and 2^21); 196 B a work item with its seeds, task and result (10^5 and
# 4 * 10^5 items); 28 B a member-state of a class along the chain, an upper
# bound (rademacher and bounds held 17.0 B at delta = 1, where every step ends a
# block; 100 and 400 members, n = 2 * 10^4 and 4 * 10^4); 531 B a quantile
# level (3 x 3 chains of tests/configs/mh_credible_tiny.json); 38 B a kde-rate
# deviation grid point (2^18 and 2^20 points, n = 256; query chunks add a fixed
# 22 MB at most); and in a verify-lemmas instance at 2-16 members, with one
# limit at 10^5 and 4 * 10^5, 16 B a member a table state, 183 B plus 64 B a
# member a block and 13 B plus 25 B a member a block state, taken at
# EXACT_COVER_CAP members.
RUN_BYTES = 2 ** 36


def peak_bytes(cfg) -> dict:
    """The bytes each memory term of a valid config's run holds at its peak, as
    ``{term: (bytes, the keys and values that set it)}``; the run holds their sum."""
    if cfg["experiment"] == "verify-lemmas":
        trials, states, blocks = cfg["trials"], cfg["max_states"], cfg["max_blocks"]
        return {"work items": (196.0 * trials, f"trials = {trials}"),
                "lemma table states": (16.0 * EXACT_COVER_CAP * states, f"max_states = {states}"),
                "lemma blocks": ((183.0 + 64 * EXACT_COVER_CAP) * blocks, f"max_blocks = {blocks}"),
                "lemma block states": ((13.0 + 25 * EXACT_COVER_CAP) * blocks * cfg["max_len"],
                                       f"max_blocks = {blocks} and max_len = {cfg['max_len']}")}
    grid = cfg.get("n_grid")
    n, at = (cfg["n"], "n") if grid is None else (grid[-1], f"n_grid[{len(grid) - 1}]")
    at = f"{at} = {n}"
    terms = {"chain steps": ((431.5 if cfg["experiment"] == "blocks" else 89.0) * n, at)}
    if grid is not None:
        reps = cfg["replications"]
        terms["work items"] = (196.0 * len(grid) * reps,
                               f"replications = {reps} at {len(grid)} n_grid entries")
    if "class" in cfg:
        spec = cfg["class"]
        listed = [spec[key] for key in ("thresholds", "tables", "centers") if key in spec]
        members = len(listed[0]) if listed else spec.get("size", _halfline.__defaults__[-1])
        terms["member-states"] = (28.0 * members * n, f"{members} class members and {at}")
    if cfg["experiment"] == "kde-rate":
        beta, scale = cfg["beta"], cfg["bandwidth_scale"]
        h = KDEConfig(beta=beta, scale=scale).bandwidth(n)
        # deviation_grid(h) = np.arange(-h, 1 + h + h/8, h/4) has 4/h + 8.5 points, rounded up
        terms["deviation grid"] = (38.0 * (4.0 / h + 9.5),
                                   f"beta = {beta!r}, bandwidth_scale = {scale!r} and {at} "
                                   f"(h = {h!r})")
    if cfg["experiment"] == "mh-credible":
        d = cfg["target"].get("d", 1)
        terms["chain steps"] = ((89.0 + 24 * (d - 1)) * n, f"{at} and target.d = {d}")
        terms["quantile levels"] = (531.0 * cfg["n_u"], f"n_u = {cfg['n_u']}")
    return terms


# The least value of each integer that sizes a run besides n_grid's: a lemma
# instance needs two states.
_LEAST = {"n": 1, "replications": 1, "n_u": 1, "trials": 1, "max_states": 2, "max_members": 1,
          "max_blocks": 1, "max_len": 1}


def _size_errors(path: str, value, least: int) -> list:
    """Violations of the run-size integer at ``path``: an integer >= ``least`` in float range."""
    if not _int_at_least(value, least):
        return [f"{path} must be an integer >= {least}, got {value!r}"]
    return [] if _finite(value) else [f"{path} must lie within float range, got {value!r}"]


def validate(config) -> list:
    """All violations that would prevent a run; empty means runnable."""
    errs = []
    if not _int_at_least(config.get("seed"), 0):
        errs.append(f"seed is mandatory and must be an integer >= 0, got {config.get('seed')!r}")
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        return errs + [f"experiment must be one of {EXPERIMENTS}, got {exp!r}"]
    reads = KEYS[exp]
    errs += [f"{key} is not read by a {exp!r} experiment"
             for key in config if key not in reads and key not in ("experiment", "seed")]
    cfg = settings(config)
    errs += [e for key, least in _LEAST.items() if key in reads
             for e in _size_errors(key, cfg.get(key), least)]
    if "min_blocks" in reads and not _int_at_least(cfg["min_blocks"], 0):
        errs.append(f"min_blocks must be an integer >= 0, got {cfg['min_blocks']!r}")
    model = None
    if "model" in reads:
        spec = cfg.get("model")
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if exp == "kde-rate" and "model" in cfg and kind != "doeblin_uniform":
            # the smoothed-target oracle assumes the Uniform(0, 1) stationary law
            errs.append(f"model.kind must be 'doeblin_uniform' for kde-rate, got {kind!r}")
        else:
            model_errs, model = _spec("model", spec, MODELS)
            errs += model_errs
    if "n_grid" in reads:
        grid = cfg.get("n_grid")
        sizes = grid if isinstance(grid, list) else []
        if len(sizes) < 3:
            errs.append("n_grid must be a list with at least 3 sizes")
        bad = [e for i, n in enumerate(sizes)
               for e in _size_errors(f"n_grid[{i}]", n, 1)]
        errs += bad
        falls = [] if bad else [i for i in range(1, len(sizes)) if sizes[i] <= sizes[i - 1]]
        if falls:
            errs.append(f"n_grid must be strictly increasing, got n_grid[{falls[0]}] = "
                        f"{sizes[falls[0]]!r} after {sizes[falls[0] - 1]!r}")
    if exp == "kde-rate":
        if cfg["kernel"] not in tuple(KERNELS):
            errs.append(f"kernel must be one of {tuple(KERNELS)}, got {cfg['kernel']!r}")
        scale = cfg["bandwidth_scale"]
        if not (_finite(scale) and scale > 0):
            errs.append(f"bandwidth_scale must be a finite positive number, got {scale!r}")
        beta = cfg.get("beta")
        if not (_finite(beta) and beta >= 0):
            errs.append(f"beta must be a finite number >= 0, got {beta!r}")
        elif _finite(scale) and scale > 0 and sizes and not bad:
            bandwidth = KDEConfig(beta=beta, scale=scale).bandwidth
            gives = f"beta = {beta!r} and bandwidth_scale = {scale!r} give the bandwidth"
            if bandwidth(max(sizes)) == 0.0:
                errs.append(f"{gives} h = 0.0 at n = {max(sizes)}, which underflows to 0")
            if bandwidth(min(sizes)) > 1.0:
                errs.append(f"{gives} h = {bandwidth(min(sizes))!r} at n = {min(sizes)}, above 1, "
                            f"where the theory rate sqrt(log(1/h) / (n h)) is undefined")
    if exp == "bounds":
        if cfg["mode"] not in ("pm", "em"):
            errs.append("mode must be 'pm' or 'em'")
        lam = cfg["lambda"]
        if lam is None and cfg["mode"] == "em":
            errs.append("lambda is required when mode is 'em'")
        # the pm bound reads only p, the em bound only lambda
        errs += [f"{key} is not read by a 'bounds' experiment in {mode!r} mode"
                 for key, mode in (("p", "em"), ("lambda", "pm"))
                 if key in config and cfg["mode"] == mode]
        for key, value in (("p", cfg["p"]), ("lambda", lam)):
            if value is not None and not (_finite(value) and value > 0):
                errs.append(f"{key} must be a finite positive number, got {value!r}")
        lo_hi = cfg["exponent_range"]
        if not (isinstance(lo_hi, list) and len(lo_hi) == 2 and all(map(_finite, lo_hi))
                and lo_hi[0] <= lo_hi[1]):
            errs.append(f"exponent_range must be two finite numbers [lo, hi] with lo <= hi, "
                        f"got {lo_hi!r}")
        consts = cfg.get("constants")
        if "constants" in cfg and not isinstance(consts, dict):
            errs.append(f"constants must be an object, got {consts!r}")
        consts = consts if isinstance(consts, dict) else {}
        errs += [f"constants.{name} is not read by any experiment; constants takes only M_const"
                 for name in consts if name != "M_const"]
        if "M_const" not in consts:
            errs.append("constants.M_const must be explicit for bound experiments")
        elif not (_finite(consts["M_const"]) and consts["M_const"] > 0):
            errs.append(f"constants.M_const must be a finite positive number, "
                        f"got {consts['M_const']!r}")
    if "n_mc" in reads and not _int_at_least(cfg["n_mc"], 100):
        errs.append(f"n_mc must be an integer >= 100, got {cfg['n_mc']!r}")
    if "class" in reads:
        class_errs, cls = _spec("class", cfg.get("class"), CLASSES)
        errs += class_errs
        if cls is not None and model is not None and cfg["class"]["kind"] == "table":
            width = len(cls.members[0].table)
            if not model.finite:
                errs.append(f"class.kind 'table' needs a finite-state model, "
                            f"got model.kind {cfg['model']['kind']!r}")
            elif width < model.kernel.n_states:
                errs.append(f"class.tables rows must cover the model's "
                            f"{model.kernel.n_states} states, got {width} entries")
    if "slope_tolerance" in reads:
        tol = cfg["slope_tolerance"]
        if not (_finite(tol) and tol >= 0):
            errs.append(f"slope_tolerance must be a finite number >= 0, got {tol!r}")
    if exp == "mh-credible":
        gamma = cfg.get("gamma")
        if not isinstance(gamma, (int, float)) or not 0 < gamma < 0.25:
            errs.append("gamma must lie in (0, 0.25)")
        target_errs, target = _spec("target", cfg.get("target"), TARGETS)
        errs.extend(target_errs)
        if target is not None:
            k, dim = cfg["coordinate"], target.dim
            if not (_int_at_least(k, 0) and k < dim):
                errs.append(f"coordinate must be an integer in [0, {dim}) for a {dim}-d target, "
                            f"got {k!r}")
            if cfg["center"] is not None:
                errs.extend(_center_errors(cfg["center"], target))
        # the run supplies the target's dimension; d = 1 stands in when the target is invalid
        errs += _spec("proposal", cfg["proposal"], PROPOSALS, d=getattr(target, "dim", 1))[0]
    if exp == "verify-lemmas":
        members = cfg["max_members"]
        if _int_at_least(members, 1) and members > EXACT_COVER_CAP:
            errs.append(f"max_members must be at most {EXACT_COVER_CAP} for exact covers, "
                        f"got {members!r}")
        eps_grid = cfg["eps_grid"]
        if not isinstance(eps_grid, list) or not eps_grid:
            errs.append(f"eps_grid must be a non-empty list, got {eps_grid!r}")
        for i, eps in enumerate(eps_grid if isinstance(eps_grid, list) else []):
            if not (_finite(eps) and eps > 0):
                errs.append(f"eps_grid[{i}] must be a finite positive number, got {eps!r}")
    if not errs:
        terms = peak_bytes(cfg)
        total = sum(size for size, _ in terms.values())
        if total > RUN_BYTES:
            name, (size, keys) = max(terms.items(), key=lambda term: term[1][0])
            errs.append(f"the run would hold about {total:.3g} B, above RUN_BYTES = {RUN_BYTES} B; "
                        f"its largest term is the {name}, {size:.3g} B at {keys}")
    return errs


# ---------------------------------------------------------------------------
# Experiment runners (each returns (summary, passed, outputs dict))
# ---------------------------------------------------------------------------


def _run_simulate(config, out, jobs):
    model = build(MODELS, config["model"])
    traj = simulate(model, config["n"], config["seed"])
    path = out / "trajectory.csv"
    traj.to_csv(path)
    return f"simulated {traj.n} steps of {model.model_id}", None, {"trajectory.csv": path}


def _run_blocks(config, out, jobs):
    model = build(MODELS, config["model"])
    traj = simulate_split_retrospective(model, config["n"], config["seed"])
    blocks = extract_blocks(traj)
    (out / "blocks.json").write_text(blocks.to_json())
    outputs = {"blocks.json": out / "blocks.json"}
    if blocks.n_complete > 0:
        stats = regen_stats(blocks, min_blocks=config["min_blocks"])
        (out / "regen_stats.json").write_text(stats.to_json())
        outputs["regen_stats.json"] = out / "regen_stats.json"
    traj.to_csv(out / "trajectory.csv")
    outputs["trajectory.csv"] = out / "trajectory.csv"
    return f"l_n={blocks.l_n}, complete blocks={blocks.n_complete}", None, outputs


def _run_rademacher(config, out, jobs):
    model = build(MODELS, config["model"])
    cls = build(CLASSES, config["class"])
    n_mc = config["n_mc"]
    traj = simulate_split_retrospective(model, config["n"], config["seed"])
    blocks = extract_blocks(traj)
    iid = empirical_rademacher_iid(cls, traj.states, n_mc, child_seed(config["seed"], 1))
    blk = empirical_block_rademacher(cls, blocks, n_mc, child_seed(config["seed"], 2))
    payload = {
        "iid": {"mean": iid.mean, "mc_std_error": iid.mc_std_error, "n_data": iid.n_data},
        "block": {"mean": blk.mean, "mc_std_error": blk.mc_std_error, "n_data": blk.n_data},
        "sigma_prime_sq": float(blk.mean_sq.max()),
    }
    (out / "rademacher.json").write_text(strict_json(payload))
    return (f"iid={iid.mean:.6g}±{iid.mc_std_error:.2g} "
            f"block={blk.mean:.6g}±{blk.mc_std_error:.2g}"), None, \
        {"rademacher.json": out / "rademacher.json"}


def _run_bounds(config, out, jobs):
    model = build(MODELS, config["model"])
    cls = build(CLASSES, config["class"])
    report = compare_bound_vs_empirical(
        model, cls, config["n_grid"], config["replications"], config["seed"],
        n_mc=config["n_mc"], mode=config["mode"], m_const=config["constants"]["M_const"],
        p=config["p"], lam=config["lambda"], jobs=jobs)
    report.to_csv(out / "bound_report.csv")
    (out / "bound_report.json").write_text(report.to_json())
    lo, hi = config["exponent_range"]
    passed = lo <= report.growth_exponent <= hi
    return (f"growth exponent {report.growth_exponent:.3f} "
            f"(target [{lo}, {hi}]), M_min={report.m_min:.4g}"), passed, \
        {"bound_report.csv": out / "bound_report.csv",
         "bound_report.json": out / "bound_report.json"}


def _run_kde_rate(config, out, jobs):
    model = build(MODELS, config["model"])
    kernel = KERNELS[config["kernel"]]()
    cfg = KDEConfig(beta=config["beta"], scale=config["bandwidth_scale"])
    report = rate_experiment(model, kernel, cfg, config["n_grid"],
                             config["replications"], config["seed"], jobs=jobs)
    report.to_csv(out / "kde_rate.csv")
    tol = config["slope_tolerance"]
    passed = report.slope_within(tol)
    payload = json.loads(report.to_json())
    payload["pass"] = passed
    (out / "kde_rate.json").write_text(json.dumps(payload, indent=2))
    return (f"slope {report.slope:.3f} vs theory {report.theory_slope:.3f} "
            f"(tol {tol})"), passed, \
        {"kde_rate.csv": out / "kde_rate.csv", "kde_rate.json": out / "kde_rate.json"}


def _run_mh_credible(config, out, jobs):
    target = build(TARGETS, config["target"])
    proposal = build(PROPOSALS, config["proposal"], d=target.dim)
    cert = build_minorization(target, proposal, center=config["center"])
    (out / "certificate.json").write_text(cert.to_json())
    series = credible_interval_experiment(
        target, proposal, cert, config["coordinate"], config["gamma"],
        config["n_grid"], config["replications"], config["seed"],
        n_u=config["n_u"], jobs=jobs)
    series.to_csv(out / "quantile_report.csv")
    (out / "quantile_report.json").write_text(series.to_json())
    tol = config["slope_tolerance"]
    monotone = all(r.monotone for r in series.reports)
    passed = bool(series.rate_checked and abs(series.slope + 0.5) <= tol and monotone)
    return (f"slope {series.slope:.3f} vs -0.5 (tol {tol}), monotone={monotone}"), passed, \
        {"certificate.json": out / "certificate.json",
         "quantile_report.csv": out / "quantile_report.csv",
         "quantile_report.json": out / "quantile_report.json"}


def _lemma_trial(config, task):
    trial, trial_seed = task
    rng = np.random.default_rng(trial_seed)
    n_states = int(rng.integers(2, config["max_states"] + 1))
    n_members = int(rng.integers(1, config["max_members"] + 1))
    n_blocks = int(rng.integers(1, config["max_blocks"] + 1))
    tables = rng.uniform(-1, 1, (n_members, n_states))
    blocks = tuple(rng.integers(0, n_states, int(rng.integers(1, config["max_len"] + 1)))
                   for _ in range(n_blocks))
    weights = rng.dirichlet(np.ones(n_blocks))
    bm = BlockMeasure(blocks=blocks, weights=weights)
    cls = table_class(tables)
    eps_grid = config["eps_grid"]
    # one truncation level per eps, drawn in grid order
    truncs = [int(rng.integers(1, config["max_len"] + 1)) for _ in eps_grid]
    k = len(eps_grid)
    checks = covering_checks(cls, bm, eps_grid * 2, [None] * k + truncs, "exact")
    rows = []
    for eps, trunc, c1, c2 in zip(eps_grid, truncs, checks, checks[k:]):
        rows.append((trial, eps, "lift", c1.lhs, c1.rhs, c1.holds))
        rows.append((trial, eps, f"trunc{trunc}", c2.lhs, c2.rhs, c2.holds))
    return rows


def _run_verify_lemmas(config, out, jobs):
    tasks = [(t, child_seed(config["seed"], t)) for t in range(config["trials"])]
    all_rows = pool_map(partial(_lemma_trial, config), tasks, jobs)
    n_checks = 0
    n_holds = 0
    eps_text = {eps: format(eps, ".17g") for eps in config["eps_grid"]}
    with open(out / "lemma_checks.csv", "w") as fh:
        fh.write("instance,eps,side,lhs,rhs,pass\n")
        for rows in all_rows:
            for trial, eps, side, lhs, rhs, holds in rows:
                fh.write(f"{trial},{eps_text[eps]},{side},{lhs},"
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
    summary, passed, outputs = _RUNNERS[config["experiment"]](settings(config), out, jobs)
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
    if args.command != "validate" and args.jobs < 1:
        print(f"error: --jobs must be an integer >= 1, got {args.jobs}", file=sys.stderr)
        return 1

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print(f"error: config must be a JSON object, got {config!r}", file=sys.stderr)
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
