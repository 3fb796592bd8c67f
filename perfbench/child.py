"""One workload process: import regenmc from ``src/``, run one experiment.

Usage: python3 perfbench/child.py WORKLOAD SEED WORK_DIR RESULT_JSON TRACE(0|1)

Writes a JSON result with its set-up end time (``time.monotonic``, which the
parent compares with its spawn time), the wall time of ``regenmc.cli.run``,
the CPU time and peak RSS of this process, the output digests and, when
traced, the spans and counts. The exit code follows the CLI's: 0 pass,
2 acceptance check failed, 1 error.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv) -> int:
    workload, seed, work_dir, result_path, trace = argv
    seed, trace, work_dir = int(seed), trace == "1", Path(work_dir)
    result = {"exit": 1}
    try:
        sys.path.insert(0, str(ROOT / "src"))
        t = time.perf_counter()
        import regenmc.cli as cli
        result["import_s"] = time.perf_counter() - t
        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"regenmc was imported from {cli.__file__}, not from src/")
        config = workloads.config(workload, seed)
        violations = cli.validate(config)
        if violations:
            raise ValueError("invalid config: " + "; ".join(violations))
        result["ready"] = time.monotonic()

        tracer = None
        if trace:
            import tracer as tracing
            tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}")
            tracing.install(tracer)
        out = work_dir / "out"
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            manifest, passed = cli.run(config, out, jobs=1)
        else:
            manifest, passed = tracer.call(tracing.ROOT, cli.run, config, out, jobs=1)
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu_s() - cpu0
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.restore()
            result["trace"] = {"run_id": tracer.run_id, "counts": dict(tracer.counts),
                               "spans": tracer.spans}
        result["digests"] = manifest["outputs"]
        result["summary"] = manifest["summary"]
        result["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        result["env"] = _environment()
        result["exit"] = 0 if passed in (True, None) else 2
    except Exception:  # reported to the parent, which counts the run as failed
        result["error"] = traceback.format_exc(limit=-3)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
