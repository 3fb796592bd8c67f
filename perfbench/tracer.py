"""Spans and counts around calls into regenmc's layers, taken from outside.

The tracer replaces a function at the module (or class) attribute its caller
resolves with a wrapper that records a span (name, start, end, parent) and
adds counts computed from the call's arguments and result. The package
itself is not modified; ``restore`` puts every original back.

Time spent computing counts is recorded as a ``trace.count`` span under the
caller, so it is excluded from every layer's self time.
"""

import functools
import hashlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli.run"
COUNT_SPAN = "trace.count"

# name -> (unit, better, end-to-end metric it should move, workload it should
# move on). The other workloads are predicted to stay unchanged.
LAYER_METRICS = {
    "setup.import_s": ("s", "lower", "setup_s", "all"),
    "metropolis.mh_chain_regen.calls": ("count", "lower", "run_s", "mh-credible"),
    "metropolis.mh_chain_regen.steps": ("count", "lower", "run_s", "mh-credible"),
    "metropolis.mh_chain_regen.self_s": ("s", "lower", "run_s,cpu_s", "mh-credible"),
    "metropolis.accept_share": ("share", "higher", "run_s", "mh-credible"),
    "metropolis.regen_per_step": ("1/step", "higher", "run_s", "mh-credible"),
    "metropolis.build_minorization.self_s": ("s", "lower", "run_s", "mh-credible"),
    "metropolis.build_minorization.grid_pairs": ("count", "lower", "run_s", "mh-credible"),
    "metropolis.marginal_quantile.self_s": ("s", "lower", "run_s", "mh-credible"),
    "kde.kde_evaluate.calls": ("count", "lower", "run_s", "kde-rate"),
    "kde.kde_evaluate.pairs": ("count", "lower", "run_s,peak_rss_mb", "kde-rate"),
    "kde.kde_evaluate.self_s": ("s", "lower", "run_s", "kde-rate"),
    "kde.support_hit_share": ("share", "higher", "run_s", "kde-rate"),
    "kde.smoothed_target.self_s": ("s", "lower", "run_s", "kde-rate"),
    "rademacher.block_rademacher.calls": ("count", "lower", "run_s", "block-bounds"),
    "rademacher.block_rademacher.self_s": ("s", "lower", "run_s,cpu_s", "block-bounds"),
    "rademacher.sign_draws": ("count", "lower", "run_s", "block-bounds"),
    "rademacher.matmul_flops": ("flop", "lower", "run_s", "block-bounds"),
    "rademacher.sign_bytes_peak": ("B", "lower", "peak_rss_mb", "block-bounds"),
    "rademacher.optimize_block_bound.self_s": ("s", "lower", "run_s", "block-bounds"),
    "regeneration.split_retrospective.calls": ("count", "lower", "run_s", "block-bounds"),
    "regeneration.split_retrospective.steps": ("count", "lower", "run_s", "block-bounds"),
    "regeneration.split_retrospective.self_s": ("s", "lower", "run_s", "block-bounds"),
    "regeneration.extract_blocks.self_s": ("s", "lower", "run_s", "block-bounds"),
    "regeneration.blocks_per_step": ("1/step", "higher", "run_s", "block-bounds"),
    "regeneration.block_values.calls": ("count", "lower", "run_s", "block-bounds"),
    "regeneration.block_values.elements": ("count", "lower", "run_s", "block-bounds"),
    "regeneration.block_values.self_s": ("s", "lower", "run_s", "block-bounds"),
    "chains.sample_path.calls": ("count", "lower", "run_s", "kde-rate,block-bounds"),
    "chains.sample_path.steps": ("count", "lower", "run_s", "kde-rate,block-bounds"),
    "chains.sample_path.self_s": ("s", "lower", "run_s", "kde-rate,block-bounds"),
    "function_classes.covering_number.calls": ("count", "lower", "run_s", "covering-lemmas"),
    "function_classes.covering_number.self_s": ("s", "lower", "run_s", "covering-lemmas"),
    "function_classes.distinct_input_share": ("share", "higher", "run_s", "covering-lemmas"),
    "function_classes.lift_measure.calls": ("count", "lower", "run_s", "covering-lemmas"),
    "function_classes.lift_measure.self_s": ("s", "lower", "run_s", "covering-lemmas"),
    "function_classes.evaluate.calls": ("count", "lower", "run_s", "covering-lemmas"),
    "function_classes.evaluate.points": ("count", "lower", "run_s", "covering-lemmas"),
    "function_classes.evaluate.self_s": ("s", "lower", "run_s", "covering-lemmas"),
    "function_classes.checks_held_share": ("share", "higher", "run_s", "covering-lemmas"),
    "cli.self_s": ("s", "lower", "run_s", "covering-lemmas"),
    "cli.output_bytes": ("B", "lower", "run_s", "covering-lemmas"),
    "parallel.pool_map.items": ("count", "lower", "run_s", "all"),
    "rng.stream.calls": ("count", "lower", "run_s", "all"),
    "trace.overhead_s": ("s", "lower", "none", "all"),
    "trace.attributed_share": ("share", "higher", "none", "all"),
}


class Tracer:
    """In-memory span and count recorder for one workload process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []
        self._alive = {}         # keeps objects keyed by id() from being reused
        self._inputs = set()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span ``name``; ``count`` adds counts afterwards."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if count is not None:
            t = perf_counter()
            count(self, result, *args, **kwargs)
            self.spans.append([COUNT_SPAN, t, perf_counter(), parent])
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    def counted(self, fn, count):
        """Wrap ``fn`` to add counts only, without a span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self, result, *args, **kwargs)
            return result
        return wrapper

    def patch(self, owner, attr, name=None, count=None):
        """Replace ``owner.attr``; a span when ``name`` is given, else counts only."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count) if name else
                self.counted(original, count))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def keep(self, obj) -> int:
        self._alive[id(obj)] = obj
        return id(obj)

    def seen_input(self, key) -> bool:
        """Record ``key``; True if it was recorded before."""
        if key in self._inputs:
            return True
        self._inputs.add(key)
        return False


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for j in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans):
    """Per span name: (calls, total self time); per layer: total self time."""
    by_name = defaultdict(lambda: [0, 0.0])
    by_layer = defaultdict(float)
    for (name, *_), st in zip(spans, self_times(spans)):
        by_name[name][0] += 1
        by_name[name][1] += st
        by_layer[layer_of(name)] += st
    return by_name, by_layer


def _share(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, counts, run_s: float, import_s: float, output_bytes: int) -> dict:
    """Every metric in LAYER_METRICS except ``trace.overhead_s``.

    ``<span name>.calls`` and ``<span name>.self_s`` come from the spans; the
    other metrics from the counts.
    """
    by_name, by_layer = summarize(spans)
    named = sum(v for layer, v in by_layer.items() if layer not in ("cli", "trace"))
    c = Counter(counts)
    derived = {
        "setup.import_s": import_s,
        "metropolis.mh_chain_regen.steps": c["metropolis.steps"],
        "metropolis.accept_share": _share(c["metropolis.accepted"], c["metropolis.proposed"]),
        "metropolis.regen_per_step": _share(c["metropolis.regenerations"], c["metropolis.steps"]),
        "metropolis.build_minorization.grid_pairs": c["metropolis.grid_pairs"],
        "kde.kde_evaluate.pairs": c["kde.pairs"],
        "kde.support_hit_share": _share(c["kde.support_hits"], c["kde.pairs"]),
        "rademacher.sign_draws": c["rademacher.sign_draws"],
        "rademacher.matmul_flops": c["rademacher.matmul_flops"],
        "rademacher.sign_bytes_peak": c["rademacher.sign_bytes_peak"],
        "regeneration.split_retrospective.steps": c["regeneration.steps"],
        "regeneration.blocks_per_step": _share(c["regeneration.blocks"], c["regeneration.steps"]),
        "regeneration.block_values.elements": c["regeneration.block_value_elements"],
        "chains.sample_path.steps": c["chains.steps"],
        "function_classes.distinct_input_share": _share(
            c["function_classes.distinct_inputs"],
            by_name.get("function_classes.covering_number", [0])[0]),
        "function_classes.evaluate.points": c["function_classes.points"],
        "function_classes.checks_held_share": _share(
            c["function_classes.checks_held"], c["function_classes.checks"]),
        "cli.self_s": by_layer.get("cli", 0.0),
        "cli.output_bytes": output_bytes,
        "parallel.pool_map.items": c["parallel.items"],
        "rng.stream.calls": c["rng.streams"],
        "trace.attributed_share": _share(named, run_s - by_layer.get("trace", 0.0)),
    }
    out = {}
    for name in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind in ("calls", "self_s"):
            calls, self_s = by_name.get(span, (0, 0.0))
            out[name] = calls if kind == "calls" else self_s
    return out


def dominant_layer(spans):
    """(layer, self time) of the layer with the most self time, trace excluded."""
    _, by_layer = summarize(spans)
    by_layer.pop(layer_of(COUNT_SPAN), None)
    return max(by_layer.items(), key=lambda kv: kv[1])


# ---------------------------------------------------------------------------
# Counts, computed from each call's arguments and result
# ---------------------------------------------------------------------------


def _count_mh(t, traj, target, proposal, cert, n, seed, x0=None):
    moved = np.any(np.diff(traj.states, axis=0) != 0, axis=1)
    t.counts["metropolis.steps"] += int(n)
    t.counts["metropolis.proposed"] += len(moved)
    t.counts["metropolis.accepted"] += int(np.count_nonzero(moved))
    t.counts["metropolis.regenerations"] += int(np.count_nonzero(traj.regen_flags))


def _count_minorization(t, cert, target, proposal, center=None, grid_size=41):
    # The validation grid of build_minorization: per-axis points over the
    # ball's bounding box, kept if inside the ball, then all pairs.
    d = target.dim
    per_axis = grid_size if d == 1 else max(5, int(round(grid_size ** (1.0 / d))))
    lo = np.maximum(cert.center - cert.radius, target.support.lo)
    hi = np.minimum(cert.center + cert.radius, target.support.hi)
    axes = [np.linspace(lo[k], hi[k], per_axis) for k in range(d)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    k = int(np.count_nonzero(np.linalg.norm(pts - cert.center, axis=1) <= cert.radius))
    t.counts["metropolis.grid_pairs"] += k * k


def _count_kde(t, result, sample, kernel, h, x):
    s = np.asarray(sample, dtype=float)
    q = np.atleast_1d(np.asarray(x, dtype=float))
    if s.ndim == 2 and s.shape[1] != 1:
        raise ValueError("support-hit counting is implemented for d = 1 samples")
    s = np.sort(s.ravel())
    t.counts["kde.pairs"] += len(q) * len(s)
    hits = np.searchsorted(s, q + h, side="right") - np.searchsorted(s, q - h, side="left")
    t.counts["kde.support_hits"] += int(hits.sum())


def _count_block_rademacher(t, result, cls, blocks, n_mc, seed):
    from regenmc.rademacher import SIGN_CHUNK
    nb, m = blocks.n_complete, len(cls.members)
    t.counts["rademacher.sign_draws"] += n_mc * nb
    t.counts["rademacher.matmul_flops"] += 2 * n_mc * nb * m
    # computed: one chunk of int64 signs plus the float64 copy the matmul makes
    chunk_bytes = min(SIGN_CHUNK, n_mc) * nb * (8 + 8)
    t.counts["rademacher.sign_bytes_peak"] = max(t.counts["rademacher.sign_bytes_peak"],
                                                 chunk_bytes)


def _count_split(t, traj, model, n, seed):
    t.counts["regeneration.steps"] += int(n)


def _count_extract(t, blocks, traj):
    t.counts["regeneration.blocks"] += blocks.n_complete


def _count_block_values(t, result, blockset, f):
    t.counts["regeneration.block_value_elements"] += len(blockset.states)


def _count_sample_path(t, path, kernel, x0, n, rng):
    t.counts["chains.steps"] += int(n)


def _array_key(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _count_covering(t, result, cls, measure, eps, method="greedy"):
    from regenmc.function_classes import BlockMeasure, LiftedClass
    if isinstance(cls, LiftedClass):
        cls_key = ("lift", cls.trunc, t.keep(cls.base))
    else:
        cls_key = ("base", t.keep(cls))
    if isinstance(measure, BlockMeasure):
        m_key = _array_key(measure.all_states, measure.lengths, measure.weights)
    else:
        m_key = _array_key(measure.points, measure.weights)
    if not t.seen_input((cls_key, m_key)):
        t.counts["function_classes.distinct_inputs"] += 1


def _count_evaluate(t, result, cls, points):
    t.counts["function_classes.points"] += len(points)


def _count_check(t, check, *args, **kwargs):
    t.counts["function_classes.checks"] += 1
    t.counts["function_classes.checks_held"] += int(check.holds)


def _count_pool_map(t, result, fn, items, jobs=1):
    t.counts["parallel.items"] += len(result)


def _count_stream(t, result, seed, *key):
    t.counts["rng.streams"] += 1


def install(tracer: Tracer):
    """Patch every traced call site in the imported ``regenmc`` package."""
    import regenmc.chains as chains
    import regenmc.cli as cli
    import regenmc.function_classes as fc
    import regenmc.kde as kde
    import regenmc.metropolis as metropolis
    import regenmc.parallel as parallel
    import regenmc.rademacher as rademacher
    import regenmc.regeneration as regeneration

    p = tracer.patch
    # experiment entry points, as cli resolves them
    p(cli, "rate_experiment", "kde.rate_experiment")
    p(cli, "credible_interval_experiment", "metropolis.credible_interval_experiment")
    p(cli, "compare_bound_vs_empirical", "rademacher.compare_bound_vs_empirical")
    p(cli, "build_minorization", "metropolis.build_minorization", _count_minorization)
    p(cli, "check_lifted_covering_bound", "function_classes.check_lifted", _count_check)
    p(cli, "check_truncated_covering_bound", "function_classes.check_truncated", _count_check)
    # layer functions, as their callers inside the package resolve them
    p(metropolis, "mh_chain_regen", "metropolis.mh_chain_regen", _count_mh)
    p(metropolis.Target, "marginal_quantile", "metropolis.marginal_quantile")
    p(kde, "kde_evaluate", "kde.kde_evaluate", _count_kde)
    p(kde.KDEConfig, "smoothed_target", "kde.smoothed_target")
    p(rademacher, "empirical_block_rademacher", "rademacher.block_rademacher",
      _count_block_rademacher)
    p(rademacher, "optimize_block_bound", "rademacher.optimize_block_bound")
    p(rademacher, "simulate_split_retrospective", "regeneration.split_retrospective",
      _count_split)
    p(rademacher, "extract_blocks", "regeneration.extract_blocks", _count_extract)
    p(regeneration.BlockSet, "block_values", "regeneration.block_values", _count_block_values)
    p(regeneration, "sample_path", "chains.sample_path", _count_sample_path)
    p(chains, "sample_path", "chains.sample_path", _count_sample_path)
    p(fc, "covering_number", "function_classes.covering_number", _count_covering)
    p(fc, "lift_measure", "function_classes.lift_measure")
    p(fc.EvaluableClass, "evaluate", "function_classes.evaluate", _count_evaluate)
    # counts only
    p(cli, "pool_map", count=_count_pool_map)
    p(parallel, "pool_map", count=_count_pool_map)
    for module in (chains, regeneration, rademacher, metropolis):
        p(module, "stream", count=_count_stream)
