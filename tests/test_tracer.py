"""The benchmark's tracer still finds every layer function it patches.

``perfbench/tracer.py`` replaces package attributes by name.  A refactor that
renames or removes one breaks only the traced benchmark run, so this test
installs the tracer on the package, runs the tiny configs of the four
benchmarked experiments through it, and checks that tracing changes no
output digest and that ``restore`` puts every original back.
"""

import importlib.util
import json
import sys
from pathlib import Path

import regenmc.cli as cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = Path(__file__).parent / "configs"
TRACED = ("mh_credible_tiny", "kde_rate_tiny", "bounds_tiny", "verify_lemmas_tiny")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every regenmc module and class, with a copy of its attribute table."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "regenmc" or name.startswith("regenmc."):
            out.append((module, dict(vars(module))))
            out.extend((obj, dict(vars(obj))) for obj in vars(module).values()
                       if isinstance(obj, type) and obj.__module__ == name)
    return out


def test_traced_runs_match_untraced_and_restore_every_original(tmp_path):
    tracer = _load_tracer()
    before = _namespaces()
    for name in TRACED:
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        plain, _ = cli.run(config, tmp_path / name / "plain", jobs=1)
        t = tracer.Tracer(name)
        tracer.install(t)
        try:
            traced, _ = t.call(tracer.ROOT, cli.run, config, tmp_path / name / "traced", jobs=1)
        finally:
            t.restore()
        assert traced["outputs"] == plain["outputs"], name
        assert len(t.spans) > 1, name
    for owner, attrs in before:
        now = vars(owner)
        changed = [a for a, v in attrs.items() if now.get(a, None) is not v]
        assert changed == [], (owner, changed)
