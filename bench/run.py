"""mimosim benchmark: one workload per run, BLAS pinned to one thread.

    python3 bench/run.py --workload {fig3,fig5,mixed,check} --seed N \
        --seconds S --trace {0,1} [--smoke]

A run measures its workload in `WORKERS` fresh processes (`worker.py`), one
after the other, each for `--seconds / WORKERS` seconds. On a shared 2-vCPU
Xeon VM, pass times differ by ~10% from one process to the next, far more
than between passes of one process, so pooling the passes of several
processes keeps a run's median steady. Each worker imports mimosim, parses the config
and runs one warm-up pass at one trial; the time from its launch to then is
one `setup_s` sample.

With `--trace 0` every pass is untraced and the end-to-end metrics are
reported. With `--trace 1` untraced and traced passes alternate: the traced
ones give the per-layer metrics, the untraced ones the tracing overhead.
Every pass goes through the correctness gate of `workloads.py`, and all
passes of a run must produce identical output.

Standard output ends with two JSON lines: a record of every timing's
median, quartiles and sample count plus the environment, then the result
`{"correct", "attempted", "failed", "metrics"}`. `--smoke` shrinks a run to
two workers at the smallest pass size.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import envsetup

envsetup.pin_process()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mimosim  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from mimosim import checks  # noqa: E402

WORKERS = 8
SMOKE_WORKERS = 2
WORKER_TIMEOUT_S = 170


def _summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one timing."""
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def run_worker(args, trials: int, seconds: float) -> tuple[float, dict]:
    """Run one measuring process; returns its set-up seconds and its output."""
    cmd = [
        sys.executable,
        str(envsetup.BENCH / "worker.py"),
        args.workload,
        str(args.seed),
        str(trials),
        repr(seconds),
        str(args.trace),
    ]
    start = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=envsetup.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.strip()}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def trace_problems(traced: list[dict]) -> list[str]:
    """Self-check of the traced passes: counts repeat, self time fits the wall."""
    problems = []
    first = traced[0]["spans"]
    for i, p in enumerate(traced[1:], start=2):
        for name, (calls, _, _, errors) in p["spans"].items():
            if (calls, errors) != (first[name][0], first[name][3]):
                problems.append(f"traced pass {i}: {name} counts differ from pass 1")
    for i, p in enumerate(traced, start=1):
        self_total = sum(s[1] for s in p["spans"].values())
        if self_total > p["wall"]:
            problems.append(
                f"traced pass {i}: self times sum to {self_total:.6f} s > wall {p['wall']:.6f} s"
            )
    return problems


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    spans = [p["spans"] for p in traced]
    out = {}
    for name in tracing.FUNCTIONS:
        out[f"{name}.calls"] = (spans[0][name][0], "count")
        out[f"{name}.self_s"] = (statistics.median(s[name][1] for s in spans), "s")
    for name in tracing.ERROR_SITES:
        out[f"{name}.errors"] = (spans[0][name][3], "count")
    latencies = [d for p in traced for d in p["latencies"]]
    out[f"{tracing.LATENCY_SPAN}.p50_ms"] = (1e3 * _percentile(latencies, 50), "ms")
    out[f"{tracing.LATENCY_SPAN}.p99_ms"] = (1e3 * _percentile(latencies, 99), "ms")
    for suite in checks.ALL_SUITES:
        name = f"checks.{suite.__name__}"
        out[f"{name}.s"] = (statistics.median(s[name][2] for s in spans), "s")
    traced_wall = statistics.median(p["wall"] for p in traced)
    out["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in envsetup.BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = envsetup.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two workers, smallest pass")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    trials = 1 if args.smoke else workloads.SWEEPS.get(args.workload, {}).get("trials", 1)
    n_workers = SMOKE_WORKERS if args.smoke else WORKERS
    runs = [run_worker(args, trials, args.seconds / n_workers) for _ in range(n_workers)]
    setup_times = [setup_s for setup_s, _ in runs]
    outs = [out for _, out in runs]
    untraced = [p for out in outs for p in out["untraced"]]
    traced = [p for out in outs for p in out["traced"]]
    passes = untraced + traced

    ops_per_pass = outs[0]["ops_per_pass"]
    reference_digest = untraced[0]["digest"]
    failed = sum(
        ops_per_pass if p["digest"] != reference_digest else p["failed"] for p in passes
    )
    attempted = ops_per_pass * len(passes)
    problems = [problem for out in outs for problem in out["problems"]]
    problems += [f"pass raised {p['error']}" for p in passes if p["error"]]

    wall = _summary([p["wall"] for p in untraced])
    timings = {
        "wall_s": wall,
        "cpu_s": _summary([p["cpu"] for p in untraced]),
        "setup_s": _summary(setup_times),
    }
    if args.trace:
        problems += trace_problems(traced)
        timings["traced_wall_s"] = _summary([p["wall"] for p in traced])
        metrics = layer_metrics(traced, wall["median"])
    else:
        metrics = {
            "wall_s": (wall["median"], "s"),
            "reports_per_s": (outs[0]["reports_per_pass"] / wall["median"], "1/s"),
            "cpu_s": (timings["cpu_s"]["median"], "s"),
            "setup_s": (timings["setup_s"]["median"], "s"),
            "peak_rss_mb": (max(out["peak_rss_mb"] for out in outs), "MB"),
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "gate": outs[0]["gate"],
        "mimosim": mimosim.__version__,
        "environment": environment(),
        "workers": n_workers,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "worker_wall_medians": [
            statistics.median(p["wall"] for p in out["untraced"]) for out in outs
        ],
        "ops_per_pass": ops_per_pass,
        "reports_per_pass": outs[0]["reports_per_pass"],
        "fail_share": failed / attempted,
        "timings": timings,
        "problems": problems,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
