"""Property test over the config grammar: a config that validate passes either
runs or fails with a ValueError or RuntimeError witness, never with an
arithmetic or memory error."""

import inspect
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.typing import ArrayLike

from regenmc.cli import (CLASSES, KEYS, MODELS, PROPOSALS, REQUIRED, TARGETS, run,
                         validate)
from regenmc.kde import KERNELS

CONFIGS = Path(__file__).parent / "configs"
TINY = {cfg["experiment"]: cfg for cfg in
        (json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json")))}

# Small values, edges included, so that every run a draw passes is quick.
_NUMBER = st.sampled_from([0.0, 1e-3, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.9, 1.0, 2.0, 3.0])
_INT = st.integers(-1, 3)
_ROW = st.lists(st.integers(0, 3), min_size=2, max_size=3).filter(any).map(
    lambda w: [v / sum(w) for v in w])
_LIST = st.lists(_NUMBER, min_size=1, max_size=4) | st.lists(_ROW, min_size=1, max_size=3)


def _value(param):
    """A value for a spec factory parameter, by its annotation as validate's type rule reads it."""
    if param.annotation is int:
        return _INT
    if param.annotation is str:
        return st.sampled_from(sorted(KERNELS))
    return _LIST if param.annotation is ArrayLike else _NUMBER


def _spec(factories, **supplied):
    """A tagged spec: a kind, its required parameters and some of its optional ones."""
    def of_kind(kind):
        params = {key: p for key, p in inspect.signature(factories[kind]).parameters.items()
                  if key not in supplied}
        return st.fixed_dictionaries(
            {key: _value(p) for key, p in params.items() if p.default is REQUIRED},
            optional={key: _value(p) for key, p in params.items() if p.default is not REQUIRED},
        ).map(lambda spec: {"kind": kind, **spec})
    return st.sampled_from(sorted(factories)).flatmap(of_kind)


_TOP = {
    "model": _spec(MODELS), "class": _spec(CLASSES), "target": _spec(TARGETS),
    "proposal": _spec(PROPOSALS, d=1),
    "n": st.integers(1, 600), "min_blocks": st.integers(0, 40), "n_mc": st.sampled_from([100, 150]),
    "n_grid": st.lists(st.integers(1, 600), min_size=3, max_size=4, unique=True).map(sorted),
    "replications": st.integers(1, 3), "mode": st.sampled_from(["pm", "em"]),
    "p": _NUMBER, "lambda": _NUMBER, "exponent_range": st.lists(_NUMBER, min_size=2, max_size=2),
    "constants": st.fixed_dictionaries({"M_const": _NUMBER}),
    "beta": st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    "bandwidth_scale": st.sampled_from([0.05, 0.35, 1.0, 2.0]),
    "kernel": st.sampled_from(sorted(KERNELS)), "slope_tolerance": _NUMBER,
    "gamma": _NUMBER, "coordinate": _INT, "center": st.none() | st.lists(_NUMBER, max_size=2),
    "n_u": st.integers(1, 20),
    "trials": st.integers(1, 3), "max_states": st.integers(1, 5), "max_members": st.integers(1, 8),
    "max_blocks": st.integers(1, 5), "max_len": st.integers(1, 5),
    "eps_grid": st.lists(_NUMBER, min_size=1, max_size=4),
}
_ABSENT = object()      # drops the key, so its default, or no value, applies


def test_every_config_key_has_a_strategy():
    assert {key for keys in KEYS.values() for key in keys} == set(_TOP)


def _config(experiment):
    """The experiment's tiny config with up to three of the keys it reads dropped or redrawn."""
    tiny = TINY[experiment]

    def changed(keys):
        return st.fixed_dictionaries({key: st.just(_ABSENT) | _TOP[key] for key in keys}).map(
            lambda drawn: {key: value for key, value in {**tiny, **drawn}.items()
                           if value is not _ABSENT})
    return st.lists(st.sampled_from(sorted(KEYS[experiment])), max_size=3,
                    unique=True).flatmap(changed)


@given(st.sampled_from(sorted(KEYS)).flatmap(_config))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_a_validated_config_runs_or_fails_with_a_witness(config):
    if validate(config):
        return
    with tempfile.TemporaryDirectory() as out:
        try:
            run(config, out)
        except (ValueError, RuntimeError):
            pass
