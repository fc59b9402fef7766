"""Tests of the benchmark itself: span arithmetic, seeded inputs, exact counts.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

klyachko = run.load_program()
import workloads  # noqa: E402  (needs the program on the path)

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
COUNTS = ("lattice.points_enumerated", "regions.cells_out", "reconstruction.box_points",
          "reconstruction.classes_swept", "linalg.dot_calls", "cli.output_bytes")


def test_self_time_of_nested_and_back_to_back_children():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("first", 1.0, 4.0, 0),    # back to back with "second"
        ("inner", 2.0, 3.0, 1),    # nested two levels down
        ("second", 4.0, 6.0, 0),
        ("after", 11.0, 12.5, -1),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0, 1.5]


def test_self_time_merges_overlapping_children():
    tree = [("root", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0), ("b", 3.0, 7.0, 0),
            ("c", 9.0, 12.0, 0)]
    # children cover [1, 7] and [9, 10] of the root once each
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]

    def inputs(seed, where):
        ctx = workload.setup(seed, where)
        jobs = [run.describe_job(job) for job in ctx.jobs]
        return json.dumps(jobs).replace(str(where), "<dir>")

    first = inputs(11, tmp_path / "a")
    assert first == inputs(11, tmp_path / "b")
    assert first != inputs(12, tmp_path / "c")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_repeat_exactly(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    results = []
    for _ in range(2):
        tracer = spans.Tracer()
        tracer.install(klyachko)
        try:
            outcome = run.Outcome()
            _, jobs, extra, _ = run.run_pass(workload, 5, tmp_path / "work", 7,
                                             tracer, outcome)
        finally:
            tracer.uninstall()
        assert jobs == 7 and not outcome.failures
        layer = spans.layer_metrics(tracer)
        layer.update(extra)
        results.append({k: v for k, v in layer.items() if not k.endswith("_s")})
    assert results[0] == results[1]
    assert set(COUNTS) <= set(results[0])
    assert results[0]["linalg.dot_calls"] > 0


def test_uninstall_restores_every_binding():
    before = (klyachko.compute_diagram, klyachko.diagram.compute_diagram,
              klyachko.regions.LatticeRegion.__and__, klyachko.linalg.dot)
    tracer = spans.Tracer()
    assert tracer.install(klyachko) == []
    assert klyachko.compute_diagram is not before[0]
    assert klyachko.compute_diagram is klyachko.diagram.compute_diagram
    tracer.uninstall()
    after = (klyachko.compute_diagram, klyachko.diagram.compute_diagram,
             klyachko.regions.LatticeRegion.__and__, klyachko.linalg.dot)
    assert after == before


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    metrics, units, _, outcome, summary = run.measure(
        workloads.WORKLOADS["saturate"], 3, 0.5, tmp_path / "work")
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units == expected
    assert all(metrics[name] > 0 for name in expected)
    assert outcome.latencies and not outcome.failures
    assert summary["jobs_run"] == len(outcome.latencies)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = workloads.WORKLOADS["hilbert_h1"]
    metrics, units, _, outcome, summary = run.measure_traced(
        klyachko, workload, 3, 0.1, tmp_path / "work")
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert units == expected
    assert summary["counts_repeat"] and not outcome.failures
    assert metrics["hilbert.points_tested"] > 0


def test_tail_is_the_eleventh_largest():
    value, percentile, beyond = run.tail([float(i) for i in range(1, 201)])
    assert (value, beyond) == (190.0, 10)
    assert percentile == pytest.approx(95.0)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload",
                           "saturate", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
