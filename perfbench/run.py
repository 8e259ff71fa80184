"""Repository benchmark: registry-shaped training and analysis workloads.

Runs one workload closed loop with a single caller: the next step starts
when the previous one returns. Set-up is timed on its own; steps are timed
after the output checks, which run the workload's path once and so warm it
up; peak traced memory is measured in passes of its own. A failed check or
step counts towards the failed share and never stops the run.
``--workload all`` runs the three in one process for a quick look; the
allocator state then carries over from one workload to the next, so its
figures differ from single-workload runs.

    python3 perfbench/run.py --workload train-etth1 --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` times the steps
untraced for half the time and traced for the other half, and reports the
per-layer metrics. The last line of standard output is always one JSON
object: correct, attempted, failed and metrics. Each run also writes its
result, with the environment and sample counts, to ``perfbench/out``, and a
traced run its spans. The code under test is imported from ``src`` of the
checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MIN_SAMPLES = 5
SCAN_REPEATS = 5
MIB = float(1 << 20)
# one BLAS thread: steady figures on a small shared machine
BLAS_THREADS = "1"


def _import_package():
    package = ROOT / "src" / "sormamba"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no package at {package}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import sormamba

    if Path(sormamba.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported sormamba from {sormamba.__file__}", file=sys.stderr)
        sys.exit(2)


def _blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS reports, by library file name."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    from sormamba import scan_kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads": _blas_threads(),
        "scan_backend": scan_kernels.backend() if hasattr(scan_kernels, "backend") else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "validation_seed": workloads.VALIDATION_SEED,
    }


class Tally:
    """Attempted and failed steps, batches and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        self.failed += 0 if ok else count


def _traced_peak_mib(fn):
    """tracemalloc peak above the level when ``fn`` starts, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / MIB, result


def _guarded_step(run, tally: Tally) -> None:
    try:
        ok = run.step()
    except FloatingPointError:
        ok = False
    tally.record(ok, run.batches_per_step)


def _timed_loop(run, seconds: float, tally: Tally, step_fn=None) -> list[float]:
    """Closed loop for ``seconds`` (at least MIN_SAMPLES steps); step times."""
    step_fn = step_fn or (lambda: _guarded_step(run, tally))
    gc.collect()
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step_fn()
        times.append(time.perf_counter() - t0)
        if len(times) >= MIN_SAMPLES and time.perf_counter() >= deadline:
            return times


def _prepare(w, seed: int, tally: Tally):
    bundle, model = workloads.setup(w, seed)
    run = workloads.make_run(w, bundle, model, seed)
    del bundle
    # the checks run the workload's path once, which is the warm-up
    for check in (lambda: [workloads.scan_agrees(w, run.first_batch(), seed)], run.checks):
        try:
            results = check()
        except FloatingPointError:
            results = [False]
        for ok in results:
            tally.record(ok)
    return run


def _step_figures(run, times: list[float]) -> dict:
    """Median per batch, and windows per second at the median step time
    (a mean over the loop would follow the slowest steps, which on a shared
    machine are other processes' bursts)."""
    median = statistics.median(times)
    return {
        "p50_ms": median / run.batches_per_step * 1e3,
        "windows_per_s": run.windows_per_step / median,
        "n": len(times),
    }


def run_untraced(w, seed: int, seconds: float, tally: Tally) -> dict:
    setup_peak, _ = _traced_peak_mib(lambda: workloads.setup(w, seed))
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        workloads.setup(w, seed)
        setup_times.append(time.perf_counter() - t0)
    run = _prepare(w, seed, tally)
    step_peak, ok = _traced_peak_mib(run.memory_step)
    tally.record(ok)
    steps = _step_figures(run, _timed_loop(run, seconds, tally))
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "setup_peak_mib": (setup_peak, "MiB", 1),
        "step_ms.p50": (steps["p50_ms"], "ms", steps["n"]),
        "windows_per_s": (steps["windows_per_s"], "1/s", steps["n"]),
        "step_peak_mib": (step_peak, "MiB", 1),
    }


def _scan_section(shape: tuple[int, int, int, int], seed: int) -> dict:
    """The public scan kernels alone at the workload's [B, S, d_inner, N]."""
    import numpy as np

    from sormamba import scan_kernels

    forward = getattr(scan_kernels, "scan_forward", None)
    backward = getattr(scan_kernels, "scan_backward", None)
    if forward is None or backward is None:
        return {}
    rng = np.random.default_rng(seed)
    a_bar = rng.uniform(0.2, 0.95, size=shape)
    b_bar = rng.normal(size=shape) * 0.1
    c = rng.normal(size=shape[:2] + shape[3:])
    x = rng.normal(size=shape[:3])
    gy = rng.normal(size=shape[:3])
    fwd, bwd = [], []
    for _ in range(SCAN_REPEATS):
        t0 = time.perf_counter()
        try:
            _, hs = forward(a_bar, b_bar, c, x)
            t1 = time.perf_counter()
            backward(a_bar, b_bar, c, x, hs, gy)
        except (TypeError, ValueError):
            return {}  # the kernels no longer take (a_bar, b_bar, c, x)
        t2 = time.perf_counter()
        fwd.append(t1 - t0)
        bwd.append(t2 - t1)
    return {
        "scan_kernels.bench_forward_ms": statistics.median(fwd) * 1e3,
        "scan_kernels.bench_backward_ms": statistics.median(bwd) * 1e3,
    }


def run_traced(w, seed: int, seconds: float, tally: Tally, tag: str) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer)
    try:
        setup_ids = [f"setup{i}" for i in range(SETUP_REPEATS)]
        for step_id in setup_ids:
            gc.collect()
            tracer.run_step(step_id, lambda: workloads.setup(w, seed))
    finally:
        installed.restore()
    run = _prepare(w, seed, tally)
    untraced = _timed_loop(run, seconds / 2, tally)

    step_ids = []

    def traced_step():
        step_ids.append(f"step{len(step_ids)}")
        tracer.run_step(step_ids[-1], lambda: _guarded_step(run, tally))

    installed = tracing.Installed(tracer)
    try:
        traced = _timed_loop(run, seconds / 2, tally, traced_step)
    finally:
        installed.restore()

    cfg = w.model_config()
    metrics = tracing.layer_metrics(tracer, step_ids, setup_ids)
    scan = _scan_section((w.batch, w.n_channels, cfg.d_inner, cfg.d_state), seed)
    for name in ("scan_kernels.bench_forward_ms", "scan_kernels.bench_backward_ms"):
        metrics[name] = (scan.get(name, 0.0), "ms", SCAN_REPEATS if scan else 0)
    ratio = statistics.median(traced) / statistics.median(untraced)
    metrics["trace.overhead_share"] = (ratio, "ratio", len(traced))

    absent = tracing.absent_metrics(installed.absent)
    if not scan:
        absent += ["scan_kernels.bench_forward_ms", "scan_kernels.bench_backward_ms"]
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{tag}.spans.jsonl"
    tracer.write(str(spans_path))
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    if installed.absent:
        print(f"absent targets: {', '.join(installed.absent)}")
    if absent:
        print(f"absent metrics (reported as 0): {', '.join(absent)}")
    return metrics, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    w = workloads.WORKLOADS[name]
    tally = Tally()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, absent = run_traced(w, seed, seconds, tally, tag)
    else:
        metrics, absent = run_untraced(w, seed, seconds, tally), []
    env = environment(seed)
    _print_table(w, metrics, tally, env)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": name,
                "environment": env,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()
                },
                "absent_metrics": absent,
            },
            fh,
            indent=1,
        )
    return metrics, tally


# the shared step figures under the names they have on each kind of workload
_KIND_NAMES = {
    "train": {"step_ms.p50": "train_step_ms.p50", "windows_per_s": "train_windows_per_s"},
    "analyze": {"step_ms.p50": "infer_batch_ms.p50", "windows_per_s": "infer_windows_per_s"},
}


def _print_table(w, metrics: dict, tally: Tally, env: dict) -> None:
    names = _KIND_NAMES[w.kind]
    print(f"== {w.name} (seed {env['seed']})")
    for name, (value, unit, n) in metrics.items():
        print(f"  {names.get(name, name):36s} {value:14.4f} {unit:6s} n={n}")
    share = tally.failed / tally.attempted
    print(f"  {'failed_share':36s} {share:14.4f} {'ratio':6s} n={tally.attempted}")
    print("environment: " + json.dumps(env, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}/" if len(names) > 1 else ""
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        for key, (value, unit, _) in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # before numpy is first imported, which is when OpenBLAS reads them
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = BLAS_THREADS
    _import_package()
    import tracing
    import workloads

    sys.exit(main())
