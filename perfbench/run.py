"""The klyachko benchmark: seeded job workloads, timed as a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn, each in its own process.

One process, one thread and one client: the next job starts when the
previous one has finished.  Only the job itself is timed; every output is
checked against the brute-force oracles outside the timed path.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
same jobs run once untraced and once traced, and the per-layer metrics of
the traced pass are printed together with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Longer reports, including the
raw spans of a traced pass, go to ``.bench_build/perfbench/``.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
COLD_STARTS = 9
END_TO_END = {
    "setup_s": "s",
    "throughput_jobs_per_s": "jobs/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_cold_start_ms": "ms",
}


def fail(message):
    """Exit with code 2 and no result line."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import klyachko from this checkout's ``src``, or fail."""
    src = ROOT / "src"
    if not (src / "klyachko" / "__init__.py").is_file():
        fail(f"no klyachko sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import klyachko
    if Path(klyachko.__file__).resolve().parent != (src / "klyachko").resolve():
        fail(f"imported klyachko from {klyachko.__file__}, not {src}")
    return klyachko


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def git_sha():
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment():
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "machine": platform.machine()}


def run_job(workload, ctx, job):
    start = time.perf_counter()
    try:
        output, error = workload.run(ctx, job), None
    except Exception as exc:  # a failing job is counted, not fatal
        output, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, output, error


class Outcome:
    """Latencies and failures of the jobs run so far."""

    def __init__(self):
        self.latencies = []
        self.failures = []

    def add(self, workload, ctx, step, index, seconds, output, error):
        self.latencies.append(seconds)
        problem = error or workload.check(ctx, index, ctx.jobs[index], output)
        if problem:
            self.failures.append({"job": step, "pool_index": index,
                                  "input": describe_job(ctx.jobs[index]),
                                  "problem": problem})


def describe_job(job):
    """Job inputs in printable form; ideals are shown by their generators."""
    def plain(x):
        if hasattr(x, "gens"):
            return [list(g) for g in x.gens]
        if isinstance(x, (list, tuple)):
            return [plain(y) for y in x]
        return x if isinstance(x, (int, str, type(None))) else str(x)
    return plain(job)


def reset_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def seconds_of(action, *args, **kwargs):
    """Wall seconds of one call, and its result."""
    start = time.perf_counter()
    result = action(*args, **kwargs)
    return time.perf_counter() - start, result


class Spread:
    """Samples of a timed action taken at even steps through the timed loop.

    Samples taken back to back would all see the same quiet or busy
    stretch of a shared machine; spread over the loop, their median is as
    steady as the loop's own figures.
    """

    def __init__(self, action, count):
        self.action, self.count, self.samples = action, count, []

    def due(self, fraction):
        """Take the next sample once ``fraction`` of the loop has reached its turn."""
        if len(self.samples) < self.count and fraction * self.count >= len(self.samples) + 0.5:
            self.samples.append(self.action())

    def finish(self):
        while len(self.samples) < self.count:
            self.samples.append(self.action())
        return self.samples


def cold_start_action(workdir):
    """A fresh ``python -m klyachko.cli diagram`` process on a tiny ideal, timed."""
    ideal = workdir / "cold_ideal.json"
    ideal.write_text(json.dumps({"gens": [[0, 0, 2], [1, 0, 1], [1, 1, 0]]}))
    argv = [sys.executable, "-m", "klyachko.cli", "diagram", "P2", str(ideal),
            "--out", str(workdir / "cold_out.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("KLYACHKO_WINDOW", None)

    def start():
        elapsed, done = seconds_of(subprocess.run, argv, cwd=ROOT, env=env,
                                   capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            fail(f"cold CLI start failed ({done.returncode}): {done.stderr}")
        return elapsed

    start()  # the first start may compile bytecode; it is not counted
    return start


def measure(workload, seed, seconds, workdir):
    """The untraced run: end-to-end metrics of one workload."""
    reset_workdir(workdir)

    def setup():
        gc.collect()  # each set-up starts from the same collector state
        return seconds_of(workload.setup, seed, workdir)

    first_setup, ctx = setup()
    # later set-ups rebuild the same inputs and are dropped at once
    setups = Spread(lambda: setup()[0], SETUP_REPEATS - 1)
    cold = Spread(cold_start_action(workdir), COLD_STARTS)
    outcome = Outcome()
    busy = 0.0
    step = 0
    gc.collect()
    while busy < seconds:
        index = step % len(ctx.jobs)
        elapsed, output, error = run_job(workload, ctx, ctx.jobs[index])
        busy += elapsed
        outcome.add(workload, ctx, step, index, elapsed, output, error)
        setups.due(busy / seconds)
        cold.due(busy / seconds)
        step += 1
    setup_s = statistics.median([first_setup] + setups.finish())
    cold_ms = statistics.median(cold.finish()) * 1000.0
    summary = workload.describe(ctx)
    summary["jobs_run"] = step
    summary["pool_wraps"] = step // len(ctx.jobs)
    value, percentile, beyond = tail(outcome.latencies)
    metrics = {
        "setup_s": setup_s,
        "throughput_jobs_per_s": len(outcome.latencies) / busy,
        "latency_p50_ms": statistics.median(outcome.latencies) * 1000.0,
        "latency_tail_ms": value * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_cold_start_ms": cold_ms,
    }
    notes = {"latency_tail_ms": f"p{percentile:.2f}, {beyond} samples beyond, "
                                f"{len(outcome.latencies)} samples"}
    return metrics, {name: END_TO_END[name] for name in metrics}, notes, outcome, summary


def run_pass(workload, seed, workdir, count, tracer=None, outcome=None):
    """Set up and run the first ``count`` pool jobs, traced when given a tracer.

    Returns the summed job seconds, the number of jobs, extra work counts
    and the input summary.
    """
    def tracing(job):
        if tracer is not None:
            tracer.job = job
            tracer.enabled = job is not None

    reset_workdir(workdir)
    tracing("setup")
    ctx = workload.setup(seed, workdir)
    tracing(None)
    jobs = ctx.jobs[:count]
    busy = 0.0
    extra = {"cli.output_bytes": 0}
    for index, job in enumerate(jobs):
        tracing(index)
        elapsed, output, error = run_job(workload, ctx, job)
        tracing(None)
        busy += elapsed
        if error is None:
            extra["cli.output_bytes"] += workload.output_bytes(job, output)
        if outcome is not None:
            outcome.add(workload, ctx, index, index, elapsed, output, error)
    return busy, len(jobs), extra, workload.describe(ctx)


def measure_traced(klyachko, workload, seed, seconds, workdir):
    """Untraced and traced passes over the same jobs, until ``seconds`` pass.

    Work counts come from the first traced pass and must repeat exactly in
    the later ones; times are the mean over the traced passes.
    """
    import spans
    tracer = spans.Tracer()
    outcome = Outcome()
    passes = []
    missing = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        plain, jobs, _, _ = run_pass(workload, seed, workdir, workload.trace_jobs)
        missing = tracer.install(klyachko)
        try:
            traced, _, extra, summary = run_pass(workload, seed, workdir,
                                                 workload.trace_jobs, tracer,
                                                 None if passes else outcome)
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer)
        layer.update(extra)
        if not passes:
            write_spans(workload.name, seed, tracer)
        tracer.reset()
        passes.append((plain, traced, layer))
    first = passes[0][2]
    metrics = {name: statistics.mean(p[2][name] for p in passes) for name in first}
    counts_repeat = True
    for name, value in first.items():
        if not name.endswith("_s"):
            counts_repeat &= all(p[2][name] == value for p in passes)
            metrics[name] = value
    plain = sum(p[0] for p in passes)
    traced = sum(p[1] for p in passes)
    metrics["trace.untraced_jobs_per_s"] = jobs * len(passes) / plain
    metrics["trace.traced_jobs_per_s"] = jobs * len(passes) / traced
    metrics["trace.overhead_ratio"] = traced / plain
    summary.update({"trace_jobs": jobs, "passes": len(passes),
                    "counts_repeat": counts_repeat, "unwrapped": missing})
    units = {name: layer_unit(name) for name in metrics}
    return metrics, units, {}, outcome, summary


def layer_unit(name):
    if name.endswith("_per_s"):
        return "jobs/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def write_spans(workload, seed, tracer):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, job) in enumerate(tracer.spans):
            handle.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


def report(args, metrics, units, notes, outcome, summary):
    attempted = len(outcome.latencies)
    failed = len(outcome.failures)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {mode}: "
          f"{attempted} jobs checked")
    for name in sorted(metrics) if args.trace else metrics:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {metrics[name]:.6g} {units[name]}{note}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if outcome.failures:
        first = outcome.failures[0]
        print(f"  first mismatch: job {first['job']} (pool index "
              f"{first['pool_index']}): {first['problem']}; input {first['input']}")
    env = environment()
    print("input: " + json.dumps(summary, sort_keys=True))
    print("env: " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "units": units, "notes": notes,
        "attempted": attempted, "failed": failed, "failures": outcome.failures,
        "latencies_s": outcome.latencies,
        "input": summary, "env": env}, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics}}))


def run_all(args, names):
    """Each workload in its own process; prints every metric and one JSON line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(done.returncode)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    klyachko = load_program()
    import workloads
    names = list(workloads.WORKLOADS)
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    workload = workloads.WORKLOADS[args.workload]
    os.environ.pop("KLYACHKO_WINDOW", None)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    for module in workload.modules:
        importlib.import_module(module)
    try:
        if args.trace:
            result = measure_traced(klyachko, workload, args.seed, args.seconds, workdir)
        else:
            result = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, *result)


if __name__ == "__main__":
    main()
