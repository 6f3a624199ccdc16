"""One measuring process of a benchmark run.

    python3 bench/worker.py <workload> <seed> <trials> <seconds> <trace>

Imports mimosim, sets the workload up (config parse and one warm-up pass at
one trial) and prints `ready`; the parent times launch to that line as
set-up. Then it repeats timed passes for `<seconds>` seconds, alternating
untraced and traced passes when `<trace>` is 1, and prints one JSON line
with every pass's times, gate verdict and spans.
"""

import json
import resource
import sys
import time

import envsetup

envsetup.pin_process()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_pass(workload, tracer=None) -> dict:
    """One timed pass: wall and CPU seconds, failed ops, output digest, spans."""
    if tracer is not None:
        tracer.install()
        tracer.reset()
    try:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        try:
            output, error = workload.run_pass(), None
        except Exception as exc:  # a pass that raises fails all its ops
            output, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {"wall": wall, "cpu": cpu, "error": error}
    if output is None:
        record.update(failed=workload.ops_per_pass, digest=None)
    else:
        record.update(failed=workload.failed_ops(output), digest=workload.digest(output))
    if tracer is not None:
        record["spans"] = {
            name: [s.calls, s.self_s, s.total_s, s.errors] for name, s in tracer.stats.items()
        }
        record["latencies"] = list(tracer.stats[tracing.LATENCY_SPAN].durations)
    return record


def main() -> None:
    name, seed, trials = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    seconds, trace = float(sys.argv[4]), sys.argv[5] == "1"
    workload = workloads.make(name, seed, trials)
    workload.setup()
    print("ready", flush=True)

    problems = []
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        problems += [f"unwrapped binding {b}" for b in tracer.unwrapped_bindings()]
        problems += tracing.reraise_problems(tracer)
        tracer.uninstall()

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(run_pass(workload))
        if tracer is not None:
            traced.append(run_pass(workload, tracer))
    out = {
        "untraced": untraced,
        "traced": traced,
        "problems": problems,
        "ops_per_pass": workload.ops_per_pass,
        "reports_per_pass": workload.reports_per_pass,
        "gate": workload.gate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
