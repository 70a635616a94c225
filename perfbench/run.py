#!/usr/bin/env python3
"""fockladder benchmark: closed-loop verification sweeps through the public API.

    python3 perfbench/run.py --workload deep_ladder --seed 20240 --seconds 20 --trace 0

Load model: one caller in one process, closed loop; the next item starts
when the previous one returns. BLAS/OpenMP pools are capped at one thread.
The sweep repeats in whole passes until --seconds have passed, so every run
covers the same items in the same proportions. Every item's result goes
through the correctness gate (gate.py); an item that fails it or raises a
fockladder error counts as failed.

--trace 0 prints the end-to-end metrics; --trace 1 runs the sweep untraced
and then traced for the same number of passes, and prints the per-layer
metrics and the tracing overhead. The lines before the last one are a
human-readable report; the last line is the JSON result. Exit code 2 when
the fockladder sources are missing.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("deep_ladder", "passive_scan", "mixture_draws", "oracle_audit")
DEFAULT_SEED = 20240
SETUP_REPEATS = 5
P90_MIN_ITEMS = 100  # the p90 has at least ten samples beyond it


@dataclass
class Tally:
    checks: int = 0
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    seconds: float = 0.0
    pass_rates: list = field(default_factory=list)  # checks per second of each pass
    item_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def fail(self, label, messages):
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label}: {'; '.join(messages)}")


def run_pass(sweep, tally, errors) -> None:
    perf = time.perf_counter
    for block in sweep:
        ctx = None
        if block.prepare is not None:
            tally.attempted += 1
            try:
                ctx = block.prepare()
            except errors as exc:
                tally.fail(block.label, [f"{type(exc).__name__}: {exc}"])
                tally.attempted += len(block.items)
                tally.failed += len(block.items)
                continue
        for item in block.items:
            tally.attempted += 1
            t0 = perf()
            try:
                out = item(ctx)
                checks, failures = out.checks, out.failures
            except errors as exc:
                checks, failures = 0, [f"{type(exc).__name__}: {exc}"]
            tally.item_ms.append(1e3 * (perf() - t0))
            tally.checks += checks
            if failures:
                tally.fail(block.label, failures)


def run_sweep(sweep, errors, seconds=None, passes=None) -> Tally:
    """Whole passes over the sweep: a fixed number, or until `seconds` pass."""
    gc.collect()
    tally = Tally()
    t0 = time.perf_counter()
    while True:
        checks, t_pass = tally.checks, time.perf_counter()
        run_pass(sweep, tally, errors)
        now = time.perf_counter()
        tally.pass_rates.append((tally.checks - checks) / (now - t_pass))
        tally.passes += 1
        tally.seconds = now - t0
        if (passes is not None and tally.passes >= passes) or \
                (seconds is not None and tally.seconds >= seconds):
            return tally


def probe_setup(workload: str, seed: int) -> int:
    """Run in a fresh interpreter: import fockladder, generate the inputs."""
    t0 = time.perf_counter()
    import workloads
    t1 = time.perf_counter()
    workloads.build(workload, seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


def measure_setup(workload: str, seed: int) -> dict:
    """Medians over fresh interpreters: wall time from spawn to exit, and the
    import and input-generation times the child reports."""
    walls, imports, inputs = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - t0)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        imports.append(child["import_s"])
        inputs.append(child["inputs_s"])
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "inputs_s": statistics.median(inputs)}


def environment(fl) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"),
            "kernel_backend": getattr(fl, "kernel_backend", None),
            "fockladder": fl.__version__}


def end_to_end(tally: Tally, setup: dict) -> dict:
    lat = sorted(tally.item_ms)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    return {
        "checks_per_s": (statistics.median(tally.pass_rates), "1/s"),
        "item_ms.p50": (statistics.median(lat), "ms"),
        "item_ms.p90": (p90, "ms"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report(args, env, tally, metrics, samples) -> None:
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.passes} passes, {len(tally.item_ms)} items, {tally.checks} checks "
          f"in {tally.seconds:.3f} s")
    for name, (value, unit) in metrics.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<40} {value:>16.6g} {unit}{note}")
    print(f"  {'failed_frac':<40} {tally.failed / max(tally.attempted, 1):>16.6g} frac"
          f"  ({tally.failed} of {tally.attempted} operations)")
    for line in tally.failures:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if args.probe_setup:
            return probe_setup(args.workload, args.seed)
        import workloads
    except ImportError as exc:
        print(f"error: cannot import fockladder: {exc}", file=sys.stderr)
        return 2

    env = environment(workloads.fl)
    setup = measure_setup(args.workload, args.seed)
    sweep = workloads.build(args.workload, args.seed)
    errors = workloads.LIBRARY_ERRORS
    run_sweep(workloads.build(args.workload, args.seed, warm=True), errors, passes=1)
    gc.collect()
    gc.freeze()  # set-up objects leave the collector's working set; it stays enabled

    if not args.trace:
        tally = run_sweep(sweep, errors, seconds=args.seconds)
        metrics = end_to_end(tally, setup)
        n = len(tally.item_ms)
        samples = {"checks_per_s": f"median of {tally.passes} passes", "item_ms.p50": n,
                   "item_ms.p90": n, "setup_s": SETUP_REPEATS}
        if n < P90_MIN_ITEMS:
            samples["item_ms.p90"] = f"{n}, fewer than {P90_MIN_ITEMS}: read as a near-maximum"
    else:
        from tracer import Tracer
        untraced = run_sweep(sweep, errors, seconds=args.seconds / 2)
        tr = Tracer()
        tr.install()
        try:
            tally = run_sweep(sweep, errors, passes=untraced.passes)
        finally:
            tr.uninstall()
        tally.checks += untraced.checks
        tally.attempted += untraced.attempted
        tally.failed += untraced.failed
        tally.failures = untraced.failures + tally.failures
        metrics = tr.metrics(tally.passes, tally.seconds)
        metrics["setup.import_s"] = (setup["import_s"], "s")
        metrics["setup.inputs_s"] = (setup["inputs_s"], "s")
        metrics["trace.overhead_s"] = ((tally.seconds - untraced.seconds) / tally.passes, "s")
        metrics["trace.overhead_frac"] = (tally.seconds / untraced.seconds - 1.0, "frac")
        samples = {"setup.import_s": SETUP_REPEATS, "setup.inputs_s": SETUP_REPEATS}

    report(args, env, tally, metrics, samples)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
