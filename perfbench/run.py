"""regenmc benchmark: CLI experiments run end to end, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload process is fresh (``perfbench/child.py``), imports regenmc from
``src/``, runs one experiment with ``jobs=1`` and exits; the next starts only
after it has exited. Runs keep starting while the run's elapsed time plus the
median process time fits in ``--seconds``, so every run has at least one.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, each
the median over this run's processes. With ``--trace 1`` untraced and traced
processes alternate and the last line reports the per-layer metrics of the
traced ones (median over them) plus the tracing overhead. A process fails if
it exits non-zero (2: the experiment's own acceptance check failed) or if its
output digests differ from the first process of the run (same seed, same
code). Digest equality with ``reference_digests.json`` is printed as
information only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference_digests.json"

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
RUN_LIMIT_S = 150


def run_process(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Spawn one workload process, wait for it, return its result record."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(work),
           str(result_path), "1" if traced else "0"]
    try:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env={**os.environ, **THREAD_ENV}, cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=timeout)
            exit_code, output = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            exit_code, output = None, f"timed out after {timeout:.0f} s"
        wall = time.monotonic() - spawn
        try:
            rec = json.loads(result_path.read_text())
        except (OSError, ValueError):
            rec = {"exit": 1, "error": "no result file"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec.update(traced=traced, wall=wall, exit_code=exit_code)
    if "ready" in rec:
        rec["setup_s"] = rec["ready"] - spawn
    if "peak_rss_kb" in rec:
        rec["peak_rss_mb"] = rec["peak_rss_kb"] * 1024 / 1e6
    if exit_code != 0 or rec["exit"] != 0:
        detail = rec.get("error") or rec.get("summary") or output[-500:]
        rec["failure"] = f"exit {exit_code}: {detail}"
    return rec


def closed_loop(workload: str, seed: int, seconds: float, trace: bool) -> list:
    start = time.monotonic()
    records = []
    while True:
        traced = trace and len(records) % 2 == 1
        left = RUN_LIMIT_S - (time.monotonic() - start)
        records.append(run_process(workload, seed, traced, min(CHILD_TIMEOUT_S, left)))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["wall"] for r in records)
        complete = not trace or any(r["traced"] for r in records)
        if complete and elapsed + typical > min(seconds, RUN_LIMIT_S):
            return records


def check_digests(records) -> None:
    """Mark as failed every process whose digests differ from the first good one."""
    good = [r for r in records if "failure" not in r]
    if not good:
        return
    first = good[0]["digests"]
    for r in good[1:]:
        if r["digests"] != first:
            r["failure"] = "output digests differ from the run's first process"


def quartiles(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def end_to_end(records) -> dict:
    good = [r for r in records if "failure" not in r and not r["traced"]]
    return {name: [r[name] for r in good] for name in END_TO_END}


def per_layer(records) -> dict:
    """Per-layer metric values of each good traced process."""
    untraced = [r["run_s"] for r in records if "failure" not in r and not r["traced"]]
    base = statistics.median(untraced) if untraced else 0.0
    out = {name: [] for name in tracer.LAYER_METRICS}
    for r in records:
        if "failure" in r or not r["traced"]:
            continue
        m = tracer.layer_metrics(r["trace"]["spans"], r["trace"]["counts"], r["run_s"],
                                 r["import_s"], r["output_bytes"])
        m["trace.overhead_s"] = r["run_s"] - base
        for name in out:
            out[name].append(m[name])
    return out


def environment(seed: int, records) -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu_model": "unknown", "seed": seed, "commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), "unknown")
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            env["commit"] = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    env.update(next((r["env"] for r in records if "env" in r), {}))
    return env


def compare_reference(workload: str, seed: int, digests, record: bool) -> str:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if record:
        refs.setdefault(workload, {})[str(seed)] = digests
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return "recorded"
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return "no reference for this seed"
    return "equal" if ref == digests else "DIFFERENT (information only)"


def report(workload, seed, trace, records, record_reference=False) -> dict:
    """Print the human-readable report and return the result object."""
    check_digests(records)
    failed = [r for r in records if "failure" in r]
    good = [r for r in records if "failure" not in r]
    print("env:", json.dumps(environment(seed, records), sort_keys=True))
    print(f"workload {workload} seed {seed}: {len(records)} processes "
          f"({sum(r['traced'] for r in records)} traced), {len(failed)} failed, "
          f"closed loop, one client, jobs=1")
    for r in failed:
        print(f"  failed: {r['failure']}")
    if good:
        print("  summary:", good[0]["summary"])
        print("  digests vs reference:",
              compare_reference(workload, seed, good[0]["digests"], record_reference))
    values = end_to_end(records)
    for name, unit in END_TO_END.items():
        if values[name]:
            med, q1, q3 = quartiles(values[name])
            print(f"  {name:12s} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"n={len(values[name])}")
    print(f"  {'fail_rate':12s} {len(failed) / len(records):.4f} share "
          f"({len(failed)}/{len(records)})")
    correct = not failed and all(values[name] for name in END_TO_END)
    if trace:
        layers = per_layer(records)
        correct = correct and bool(layers["trace.overhead_s"])
        metrics = {name: {"value": statistics.median(v), "unit": tracer.LAYER_METRICS[name][0]}
                   for name, v in layers.items() if v}
        traced = [r for r in good if r["traced"]]
        if traced:
            layer, self_s = tracer.dominant_layer(traced[0]["trace"]["spans"])
            print(f"  trace: overhead {metrics['trace.overhead_s']['value']:.4f} s, "
                  f"attributed share {metrics['trace.attributed_share']['value']:.3f}, "
                  f"dominant layer {layer} ({self_s / traced[0]['run_s']:.1%} of run_s)")
        digests_equal = all("failure" not in r for r in records if r["traced"])
        print(f"  traced digests equal untraced: {'yes' if digests_equal else 'no'}")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
                   for name, v in values.items() if v}
    return {"correct": correct, "attempted": len(records), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's digests as the reference for its seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regenmc" / "cli.py").is_file():
        print(f"error: no regenmc sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    records = closed_loop(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args.workload, args.seed, bool(args.trace), records,
                    args.record_reference)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
