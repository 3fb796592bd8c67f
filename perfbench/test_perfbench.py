"""Tests of the benchmark's own code: python -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["kde.rate_experiment", 1.0, 4.0, 0],
        ["kde.kde_evaluate", 2.0, 3.5, 1],
        [tracer.COUNT_SPAN, 3.5, 3.75, 1],
        ["chains.sample_path", 5.0, 9.0, 0],
        ["chains.sample_path", 6.0, 7.0, 4],
        ["chains.sample_path", 6.5, 7.5, 4],   # overlaps its sibling
        ["chains.sample_path", 8.5, 9.5, 4],   # runs past its parent's end
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [3.0, 1.25, 1.5, 0.25, 2.0, 1.0, 1.0, 1.0])
    by_name, by_layer = tracer.summarize(spans)
    assert by_name["chains.sample_path"] == [4, pytest.approx(5.0)]
    assert by_layer["kde"] == pytest.approx(2.75)
    m = tracer.layer_metrics(spans, {}, 10.0, 0.5, 100)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["chains.sample_path.calls"] == 4
    # named-layer self time over run_s without the tracer's own counting time
    assert m["trace.attributed_share"] == pytest.approx(7.75 / 9.75)
    assert tracer.dominant_layer(spans) == ("chains", pytest.approx(5.0))


def test_seed_changes_config_seed_and_digests(tmp_path):
    for name in workloads.WORKLOADS:
        a, b = workloads.config(name, 1), workloads.config(name, 2)
        assert (a["seed"], b["seed"]) == (1, 2)
        assert {**a, "seed": 2} == b
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import regenmc.cli as cli
    finally:
        sys.path.remove(str(ROOT / "src"))

    def digests(seed, out):
        config = {**workloads.config("covering-lemmas", seed), "trials": 3}
        manifest, passed = cli.run(config, tmp_path / out, jobs=1)
        assert passed
        return manifest["outputs"]

    assert digests(1, "a") == digests(1, "b")
    assert digests(1, "a") != digests(2, "c")


def _record(traced, run_s=2.0, digests=None):
    rec = {"exit": 0, "exit_code": 0, "traced": traced, "wall": 3.0, "setup_s": 1.0,
           "run_s": run_s, "cpu_s": 1.9, "peak_rss_mb": 80.0, "import_s": 0.9,
           "output_bytes": 10, "summary": "ok", "digests": digests or {"a.csv": "00"}}
    if traced:
        rec["trace"] = {"run_id": "r", "counts": {},
                        "spans": [["cli.run", 0.0, run_s, -1],
                                  ["kde.kde_evaluate", 0.5, 1.5, 0]]}
    return rec


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    records = [_record(False), _record(True, run_s=2.5)]
    result = run.report("kde-rate", 1, bool(trace), records)
    specs = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {s["name"]: s["unit"] for s in specs}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.5)


def test_code_and_benchmark_json_agree_both_ways():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == \
        {name: spec[:2] for name, spec in tracer.LAYER_METRICS.items()}


def test_digest_mismatch_fails_the_process():
    records = [_record(False), _record(False, digests={"a.csv": "01"}), _record(True)]
    run.check_digests(records)
    assert ["failure" in r for r in records] == [False, True, False]
