"""Workload runner behind ``run.py``: set-up, timed closed loop, traced run."""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from tracing import CELLS, EVERY_WORKLOAD, SPANS, Instrumentation, Tracer, summarize
from workloads import OUT, WORKLOADS, run_process

RUN_PY = str(Path(__file__).resolve().parent / "run.py")

SETUP_REPEATS = 3
COLD_PROBE_ROUNDS = 3
IMPORT_PROBE_ROUNDS = 3
DEADLINE_S = 170


def seed_type(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=seed_type, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@contextmanager
def work_dir():
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as path:
        yield Path(path)


def timed_op(workload, item, run):
    """One op: (latency in s, output, facts from the output check, error)."""
    start = time.perf_counter()
    try:
        output = run(item)
    except Exception as exc:  # a failing op is counted and the loop goes on
        return time.perf_counter() - start, None, None, exc
    latency = time.perf_counter() - start
    try:
        return latency, output, workload.check(item, output), None
    except Exception as exc:
        return latency, output, None, exc


class Tally:
    """Attempted and failed ops; an op's facts must repeat exactly on the same input.

    ``problems`` holds failures outside the workload's own ops (the cold
    CLI probe of the traced run); they make the run incorrect without
    counting as failed ops.
    """

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.first_facts: dict[int, dict] = {}

    def record(self, slot: int, facts, error) -> None:
        self.attempted += 1
        if error is None:
            first = self.first_facts.setdefault(slot, facts)
            if facts == first:
                return
            error = AssertionError("output differs from the first op on the same input")
        self.errors.append("".join(traceback.format_exception_only(type(error), error)).strip())


def setup_once(args) -> float:
    """Set-up as a user pays it: a fresh interpreter imports the library,
    builds the seeded input pool and completes one checked op."""
    proc = run_process([RUN_PY, "--workload", args.workload, "--seed", str(args.seed), "--setup-child"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.wall_s


def setup_child(workload, args) -> int:
    with work_dir() as workdir:
        pool = workload.pool(args.seed, workdir)
        workload.check(pool[0], workload.run(pool[0]))
    return 0


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (never below the median)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n // 2, min(math.ceil(0.9 * n) - 1, n - 11))
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(workload, args) -> tuple[dict, Tally, list[str]]:
    """Timed closed loop with the set-up cold starts between its slices.

    Host throughput on a shared machine drifts by 10-20 % over tens of
    seconds, so ops and set-ups are spread over the whole run rather than
    each measured in one stretch of it.
    """
    tally = Tally()
    setup_times, latencies, by_label, child_rss = [], [], {}, [0.0]
    with work_dir() as workdir:
        pool = workload.pool(args.seed, workdir)
        workload.check(pool[0], workload.run(pool[0]))  # lazy set-up finishes before timing
        slice_s = args.seconds / (SETUP_REPEATS + 1)
        index, loop_s = 0, 0.0
        for done in range(1, SETUP_REPEATS + 2):
            # slices end on a shared schedule, so their overruns do not add up;
            # the loop ends on a whole pool cycle, so every input counts alike
            last = done > SETUP_REPEATS
            start = time.perf_counter()
            while loop_s + time.perf_counter() - start < done * slice_s or (last and index % len(pool)):
                item = pool[index % len(pool)]
                latency, output, facts, error = timed_op(workload, item, workload.run)
                tally.record(index % len(pool), facts, error)
                latencies.append(latency)
                by_label.setdefault(workload.label(item), []).append(latency)
                child_rss.append(getattr(output, "maxrss_mb", 0.0))
                index += 1
            loop_s += time.perf_counter() - start
            if not last:
                setup_times.append(setup_once(args))
    failed = len(tally.errors)
    if max(child_rss) > 0:  # cli-cold: each op is a child process
        peak_rss_mb = max(child_rss)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p90, percentile = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "ops_per_s": ((len(latencies) - failed) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": ((len(latencies) - failed) / len(latencies), "frac"),
    }
    notes = [
        f"op_p50_ms {statistics.median(latencies) * 1e3:.6g} ms (reported, not bounded)",
        f"op_p90_ms is p{percentile:.1f} of {len(latencies)} ops",
        f"fail_frac {failed / len(latencies):.6g} ({failed} failed of {len(latencies)} ops)",
        f"first op facts: {json.dumps(tally.first_facts.get(0), default=str)[:1000]}",
    ]
    if len(by_label) > 1:
        notes.append("median op ms by input: " + ", ".join(
            f"{label} {statistics.median(times) * 1e3:.1f}" for label, times in by_label.items()))
    return metrics, tally, notes


def cold_probe(seed: int, tally: Tally) -> dict[str, tuple[float, str]]:
    """Median wall time of each CLI command started as a fresh process."""
    cli = WORKLOADS["cli-cold"]
    times = {command: [] for command in cli.commands}
    with work_dir() as workdir:
        pool = cli.pool(seed, workdir)
        for _ in range(COLD_PROBE_ROUNDS):
            for slot, item in enumerate(pool):
                latency, _, facts, error = timed_op(cli, item, cli.run)
                tally.record(slot, facts, error)
                times[cli.label(item)].append(latency)
    return {f"cold_{command}_s": (statistics.median(values), "s") for command, values in times.items()}


def import_probe() -> dict[str, tuple[float, str]]:
    """Fresh-process wall times: bare interpreter, numpy alone, the CLI module."""
    argvs = {
        "context.bare_python_ms": ["-c", "pass"],
        "context.numpy_import_ms": ["-c", "import numpy"],
        "cli.import_ms": ["-c", "import evidential_magdm.cli"],
    }
    times = {name: [] for name in argvs}
    for _ in range(IMPORT_PROBE_ROUNDS):
        for name, argv in argvs.items():
            proc = run_process(argv)
            if proc.returncode != 0:
                raise RuntimeError(f"{argv} failed: {proc.stderr.strip()}")
            times[name].append(proc.wall_s * 1e3)
    return {name: (statistics.median(values), "ms") for name, values in times.items()}


def per_layer(workload, args) -> tuple[dict, Tally, list[str]]:
    """Alternate an untraced and a traced op on each input, whole pool cycles only."""
    tally = Tally()
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    untraced, traced_s = [], 0.0
    traced_ops = 0
    with work_dir() as workdir:
        pool = workload.pool(args.seed, workdir)
        workload.check(pool[0], workload.run_in_process(pool[0]))
        imports = import_probe()
        probe = Tally()
        colds = cold_probe(args.seed, probe)
        tally.problems += [f"cold probe: {e}" for e in probe.errors]

        run_traced = tracer.wrap("op", workload.run_in_process)

        def traced(item):
            with instrumentation:
                return run_traced(item)

        deadline = time.perf_counter() + args.seconds
        index = 0
        while index % len(pool) or time.perf_counter() < deadline:
            slot = index % len(pool)
            item = pool[slot]
            latency, _, facts, error = timed_op(workload, item, workload.run_in_process)
            tally.record(slot, facts, error)
            untraced.append(latency)
            first_span, first_cells = len(tracer.spans), tracer.cells
            latency, _, facts, error = timed_op(workload, item, traced)
            traced_s += latency
            traced_ops += 1
            expected = workload.expected(item)
            seen = {name: 0 for name in expected}
            for span in tracer.spans[first_span:]:
                if span[0] in seen:
                    seen[span[0]] += 1
            seen[CELLS] = tracer.cells - first_cells
            if error is None and seen != expected:
                error = AssertionError(f"per-op counts {seen} != expected {expected} on {workload.label(item)}")
            tally.record(slot, facts, error)
            index += 1
    table = summarize(tracer.spans)
    empty = {"total_ms": 0.0, "self_ms": 0.0, "calls": 0, "errors": 0}
    metrics = {}
    for name in EVERY_WORKLOAD:
        metrics[f"{name}.self_ms"] = (table.get(name, empty)["self_ms"] / traced_ops, "ms")
    for name in SPANS:
        metrics[f"{name}.calls"] = (table.get(name, empty)["calls"] / traced_ops, "count")
    divergence_s = table["pipeline.pairwise_divergence"]["total_ms"] / 1e3
    metrics[CELLS] = (tracer.cells / traced_ops, "count")
    metrics[f"{CELLS}_per_s"] = (tracer.cells / divergence_s, "1/s")
    metrics.update(imports)
    metrics.update(colds)
    metrics["op_p50_ms"] = (statistics.median(untraced) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (traced_s / sum(untraced), "ratio")
    metrics["trace.errors"] = (sum(row["errors"] for row in table.values()), "count")
    metrics["trace.ops"] = (traced_ops, "count")
    notes = [f"{traced_ops} traced and {traced_ops} untraced ops; per traced op:"]
    notes.append(f"  {'span':40s} {'calls':>10s} {'self_ms':>10s} {'total_ms':>10s} {'errors':>6s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        notes.append(
            f"  {name:40s} {row['calls'] / traced_ops:10.6g} {row['self_ms'] / traced_ops:10.4f}"
            f" {row['total_ms'] / traced_ops:10.4f} {row['errors']:6d}"
        )
    notes.append(f"spans written to {write_trace(workload.name, args.seed, tracer.spans, traced_ops)}")
    return metrics, tally, notes


def write_trace(workload: str, seed: int, spans: list[list], traced_ops: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    origin = spans[0][1] if spans else 0.0
    rows = [[name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent, failed]
            for name, start, end, parent, failed in spans]
    payload = {"workload": workload, "seed": seed, "traced_ops": traced_ops,
               "columns": ["name", "start_us", "end_us", "parent", "failed"], "spans": rows}
    path.write_text(json.dumps(payload, separators=(",", ":")))
    return path


def result_line(metrics: dict, tally: Tally) -> str:
    return json.dumps({
        "correct": not (tally.errors or tally.problems),
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload, end to end and traced, each in its own process."""
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [RUN_PY, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=DEADLINE_S + 10)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exited {proc.returncode}\n{proc.stderr}")
                failures += 1
                continue
            result = json.loads(lines[-1])
            failures += not result["correct"]
            print(f"== {name} --trace {trace}: correct={result['correct']} "
                  f"fail_frac={result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
            for line in lines[:-1]:
                print(f"   {line}")
            for metric, entry in result["metrics"].items():
                print(f"   {metric:52s} {entry['value']:>16.6g} {entry['unit']}")
    return 1 if failures else 0


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.setup_child:
        return setup_child(workload, args)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        metrics, tally, notes = (per_layer if args.trace else end_to_end)(workload, args)
    finally:
        signal.alarm(0)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for error in (tally.errors + tally.problems)[:5]:
        print(f"FAILED: {error}")
    print(result_line(metrics, tally))
    return 0
