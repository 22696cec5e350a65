"""langrec benchmark.

    python3 perfbench/run.py --workload desk-comparison --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Runs one workload in this process with BLAS pinned to one thread, from the
checkout that holds this directory (the package is imported from its src/).
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken from a
traced half of the run after an untraced half. The line before it records
the machine, the seed and per-operation detail. Spans and results are
written under .bench_out/ in the checkout.

--smoke runs every workload at tiny scale, traced and untraced, each in a
child process, and checks that the runs complete with correct outputs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
QUALITY = tuple(f"min_dcf.{kind}" for kind in ("plda", "dplda", "hdplda"))


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_langrec():
    """Import langrec from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "langrec" / "__init__.py").is_file():
        raise SetupError(f"no langrec package under {src}")
    sys.path.insert(0, str(src))
    import langrec

    if Path(langrec.__file__).resolve().parent != (src / "langrec").resolve():
        raise SetupError(f"langrec imported from {langrec.__file__}, not from {src}")
    return langrec


def machine(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values) -> float:
    """90th percentile, interpolating linearly between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_tasks(workload, state, seconds: float, tracer) -> list:
    """Closed loop, one caller: the next task starts when the last returns.

    Stops when the budget is spent, or when half a task more would overrun it.
    """
    tasks = []
    start = time.perf_counter()
    while True:
        tasks.append(workload.task(state, len(tasks), tracer))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * tasks[-1].seconds >= seconds:
            return tasks


def end_to_end(setup_times, tasks) -> dict:
    latencies = [op.seconds for task in tasks for op in task.ops]
    out = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "task_s": (statistics.median(task.seconds for task in tasks), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * p90(latencies), "ms"),
    }
    for name in QUALITY:
        kind = name.split(".", 1)[1]
        values = [task.min_dcf[kind] for task in tasks if kind in task.min_dcf]
        if values:
            out[name] = (statistics.median(values), "ratio")
    return out


def run(args) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    log_counter = tracing.LogCounter().attach()
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.scale, args.seed, workdir)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(tracer)
        setup_times.append(time.perf_counter() - start)
    workload.prepare(state)

    seconds = args.seconds / 2 if args.trace else args.seconds
    log_counter.counts.clear()
    tasks = run_tasks(workload, state, seconds, tracer)
    untraced = end_to_end(setup_times, tasks)
    detail = {"untraced_log_counts": dict(log_counter.counts)}

    if args.trace:
        tracer.install()
        start = time.perf_counter()
        state = workload.setup(tracer)
        traced_setup = time.perf_counter() - start
        tracer.start_tasks()
        log_counter.counts.clear()
        traced_tasks = run_tasks(workload, state, seconds, tracer)
        traced = end_to_end([traced_setup], traced_tasks)
        ops_seconds = sum(task.seconds for task in traced_tasks)
        metrics = tracing.layer_metrics(tracer, len(traced_tasks), log_counter.counts, ops_seconds)
        for name in ("setup_s", "peak_rss_mb", "task_s", "op_p50_ms", "op_p90_ms"):
            metrics[f"trace_overhead.{name}"] = traced[name][0] - untraced[name][0]
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        report = {name: (metrics[name], units[name]) for name, _, _ in tracing.PER_LAYER}
        detail["traced_log_counts"] = dict(log_counter.counts)
        detail["spans"] = len(tracer.spans)
        tasks = tasks + traced_tasks
    else:
        report = untraced

    shutil.rmtree(workdir, ignore_errors=True)
    ops = [op for task in tasks for op in task.ops]
    failed = sum(not op.ok for op in ops)
    problems = [p for task in tasks for p in task.problems]
    detail.update(
        task_seconds=[round(task.seconds, 4) for task in tasks],
        ops=dict(Counter(op.label for op in ops)),
        problems=problems[:10],
        untraced={name: value for name, (value, _) in untraced.items()},
    )
    missing = [m for m in QUALITY if m not in untraced]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    if missing and not args.trace:
        raise SetupError(f"no successful task reported {missing}")
    if args.trace:
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    return {"machine": machine(args.seed), "workload": args.workload, "scale": args.scale,
            "seconds": args.seconds, "trace": args.trace, "detail": detail, "result": result}


def smoke() -> int:
    """Every workload at tiny scale, untraced and traced, in child processes."""
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    if expected[1] != {name for name, _, _ in tracing.PER_LAYER}:
        print("FAIL per-layer metrics of BENCHMARK.json and tracing.PER_LAYER differ")
        bad += 1
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = (result is not None and result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == expected[trace])
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={trace} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            if not ok:
                bad += 1
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("desk-comparison", "paper-cli", "paper-serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny scale")
    args = parser.parse_args(argv)
    try:
        import_langrec()
    except (SetupError, ImportError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        out = run(args)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: out[key] for key in ("machine", "workload", "detail")}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
