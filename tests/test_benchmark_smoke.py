"""Smoke test of the benchmark workloads against the current package.

Executes ``perfbench/workloads.py`` from its source, writing nothing next
to it, and runs the first jobs of every workload through set-up, run and
check, so that a change to the API the benchmark relies on fails here
rather than in a benchmark run.
"""

import types
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"),
         module.__dict__)
    return module.WORKLOADS


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_jobs_run_and_check(name, tmp_path):
    workload = WORKLOADS[name]
    ctx = workload.setup(1, tmp_path)
    # one job per command for the CLI workload: its saturate job reads the
    # diagram file that the diagram job of the same group writes
    first = len(workload.commands) if hasattr(workload, "commands") else 3
    for index, job in enumerate(ctx.jobs[:first]):
        output = workload.run(ctx, job)
        assert workload.check(ctx, index, job, output) is None
