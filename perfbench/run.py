"""Run one trajforge benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload bc-train --seed 1 --seconds 6 --trace 0

Workloads are listed in BENCHMARK.json and explained in perfbench/README.md.
With --trace 0 the last line of standard output carries the end-to-end metrics
of an untraced run. With --trace 1 it carries the per-layer metrics of a traced
pass; that run makes one untraced and one traced pass over the same work, and
writes the spans to perfbench/out/. The first line records the environment;
with --trace 0 the line before the result lists the time of every repeat. The
exit code is non-zero when an output check fails.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One closed-loop caller on small matrices: BLAS threads would mostly add
# noise, so the cap is set before numpy loads and recorded with each result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T_START


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def timed_run(workload: str, seed: int, seconds: float):
    pipe = workloads.Pipeline(seed, clock=hostspeed.HostClock())
    passes = workloads.run_stages(pipe, workloads.PRIMARY[workload], seconds)
    metrics = {
        "setup_s": IMPORT_S + statistics.median(pipe.setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **workloads.end_to_end(passes),
    }
    # every repeat's time at reference speed (a generate pass: one per trip) and the host's slowdown during it
    repeats = {stage: [(p.seconds, p.slowdown) for p in passes[stage]] for stage in ("train", "generate", "critic")}
    print(json.dumps({"repeats": {"setup": pipe.setup_seconds, **repeats}}))
    return metrics, [pipe]


def traced_run(workload: str, seed: int):
    """One untraced and one traced pass over the same slots; per-layer totals of the traced one."""
    schedule = workloads.trace_schedule(workloads.PRIMARY[workload])
    tracer = spans.Tracer()
    pipes, passes, walls = [workloads.Pipeline(seed), workloads.Pipeline(seed, tracer)], [], []
    for pipe in pipes:
        if pipe.tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            passes.append(workloads.run_stages(pipe, schedule=schedule))
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
    if workloads.fingerprint(passes[0]) != workloads.fingerprint(passes[1]):
        pipes[1].fail("the traced pass gave different outputs from the untraced pass")
    metrics = spans.layer_metrics(tracer)
    metrics["trace.wall_ms"] = walls[1] * 1e3
    metrics["trace.overhead_frac"] = walls[1] / walls[0] - 1.0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
    return metrics, pipes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the workload's repeated stage")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed, "trace": args.trace}))
    if args.trace:
        values, pipes = traced_run(args.workload, args.seed)
    else:
        values, pipes = timed_run(args.workload, args.seed, args.seconds)
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics computed {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    failed = sum(p.failed for p in pipes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in pipes),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
