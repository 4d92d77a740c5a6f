"""gfsig benchmark: run one workload on one seed and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload cdml_k40 --seed 1 --seconds 20 --trace 0

`--trace 0` times untraced operations and reports the end-to-end metrics;
`--trace 1` alternates untraced and traced operations and reports the
per-layer metrics. All times are wall-clock seconds. Every operation's output
is checked against reference.json. The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit and the run's environment. README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NoReturn

from spans import Tracer
from workloads import (BLAS_THREADS, REFERENCE_SEEDS, WORKLOADS, experiment_config,
                       load_reference, run_verify, setup, simulate, verify)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
MIN_ROUNDS = 3  # measured rounds per run, however long they take

END_TO_END = {"trials_per_s": "1/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "galois.tables_s": "s", "galois.fields": "count",
    "seqgen.masks_s": "s", "seqgen.assemble_s": "s",
    "analysis.coherence_s": "s", "analysis.coherence_calls": "count",
    "analysis.columns": "count",
    "simulator.rng_s": "s", "simulator.synth_s": "s", "simulator.streams": "count",
    "detectors.cdml_s": "s", "detectors.cdml_updates": "count",
    "detectors.cdml_us_per_update": "us",
    "detectors.amp_s": "s", "detectors.amp_iters": "count", "detectors.amp_ms_per_iter": "ms",
    "detectors.amp_diverged": "count", "detectors.decide_s": "s",
    "experiments.self_s": "s", "experiments.pools": "count",
    "experiments.parallel_speedup": "x", "experiments.amp_1w_trials_per_s": "1/s",
    "experiments.amp_2w_trials_per_s": "1/s",
    "trace.overhead_s": "s",
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_threads(w, nproc: int) -> None:
    """Fix workers and BLAS threads before numpy loads; refuse to oversubscribe."""
    if w.workers * BLAS_THREADS > nproc:
        fail(f"{w.name} needs {w.workers} workers x {BLAS_THREADS} BLAS threads, "
             f"but only {nproc} CPUs are available")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["GFSIG_WORKERS"] = str(w.workers)
    sys.path.insert(0, str(SRC))


def import_gfsig():
    import gfsig
    if not Path(gfsig.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported gfsig from {gfsig.__file__}, not from {SRC}")
    return gfsig


def setup_probe(w, base_seed: int) -> float:
    """Seconds of importing gfsig plus the workload's setup."""
    start = time.perf_counter()
    import_gfsig()
    setup(w, base_seed)
    return time.perf_counter() - start


def measure_setup(args) -> list[float]:
    """Import plus setup time in fresh interpreters, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"setup probe exited {done.returncode}: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


def blas_runtime():
    """(library file, threads) of the BLAS this process loaded, read from OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.rsplit("/", 1)[-1].lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return Path(path).name, fn()
    return (Path(libs[0]).name if libs else None), None


def git_revision() -> str | None:
    git = ROOT / ".git"
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


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gfsig").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(w, args, base_seed: int, nproc: int) -> dict:
    import numpy as np
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    library, threads = blas_runtime()
    if threads is not None and threads != BLAS_THREADS:
        fail(f"BLAS runs {threads} threads, {BLAS_THREADS} were pinned")
    return {
        "workload": w.name, "seed": args.seed, "base_seed": base_seed,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_library": library, "blas_threads": threads,
        "GFSIG_WORKERS": os.environ["GFSIG_WORKERS"], "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


class Measurement:
    """Operations of one run: wall times by kind, checks, and traces."""

    def __init__(self, w, base_seed: int, reference: list):
        self.w, self.base_seed, self.reference = w, base_seed, reference
        self.walls = defaultdict(list)  # kind -> wall seconds per operation
        self.units = 0  # trials or verify instances per operation
        self.tracers = []
        self.attempted = self.failed = 0
        self.verify_csv = OUT_DIR / f"verify-{os.getpid()}.csv"

    def _call(self, workers: int):
        if self.w.is_verify:
            return verify(self.base_seed, self.verify_csv, self.reference)
        return simulate(self.w, self.base_seed, workers, self.reference)

    def op(self, kind: str, workers: int, tracer: Tracer | None = None):
        start = time.perf_counter()
        if tracer is None:
            outcome = self._call(workers)
        else:
            with tracer.installed():
                outcome = self._call(workers)
            self.tracers.append(tracer)
        self.walls[kind].append(time.perf_counter() - start)
        self.units = outcome.units
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        return outcome.rows

    def warm_up(self) -> None:
        """Fill caches and start BLAS threads; the output is not checked."""
        if self.w.is_verify:
            run_verify(self.base_seed, self.verify_csv, quick=True)
        else:
            from gfsig import experiments
            experiments.run_experiment(experiment_config(self.w, self.base_seed, trials=2),
                                       workers=self.w.workers)

    def run(self, seconds: float, traced: bool) -> int:
        workers = self.w.workers
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            if traced and workers > 1:
                self.op("serial", 1)
            rows = self.op("untraced", workers)
            if traced:
                traced_rows = self.op("traced", workers, Tracer())
                # traced and untraced operations must produce identical output
                self.failed += sum(a != b for a, b in zip(rows, traced_rows))
                self.failed += abs(len(rows) - len(traced_rows))
            rounds += 1
        self.verify_csv.unlink(missing_ok=True)
        return rounds

    def rate(self, kind: str) -> float:
        """Median units per second over the operations of one kind."""
        return statistics.median(self.units / wall for wall in self.walls[kind])

    def end_to_end(self, setup_times: list[float]) -> dict[str, float]:
        return {
            "trials_per_s": self.rate("untraced"),
            "wall_s": statistics.median(self.walls["untraced"]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        missing = sorted({layer for t in self.tracers for layer in self.w.layers
                          if t.calls()[layer] == 0 or t.self_times()[layer] <= 0})
        if missing:
            fail(f"traced {self.w.name} recorded no calls into layer(s) "
                 f"{', '.join(missing)}; a wrapped name was renamed or routed around")
        per_op = [t.metrics() for t in self.tracers]
        out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
        serial = self.rate("serial") if "serial" in self.walls else 0.0
        parallel = self.rate("untraced") if serial else 0.0
        out["experiments.parallel_speedup"] = parallel / serial if serial else 0.0
        out["experiments.amp_1w_trials_per_s"] = serial
        out["experiments.amp_2w_trials_per_s"] = parallel
        out["trace.overhead_s"] = (statistics.median(self.walls["traced"])
                                   - statistics.median(self.walls["untraced"]))
        return {k: out[k] for k in PER_LAYER}


def report(args, env, m: Measurement, rounds: int, metrics: dict, units: dict,
           setup_times: list[float]) -> dict:
    """Print the human-readable lines, write the run's record, return the result."""
    print(f"perfbench {args.workload} seed={args.seed} (base seed {env['base_seed']}) "
          f"trace={args.trace}: {rounds} rounds in {sum(map(sum, m.walls.values())):.1f} s")
    print("env " + json.dumps(env))
    for kind, walls in sorted(m.walls.items()):
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        print(f"  {kind} operations: n={len(walls)} median={statistics.median(walls):.4f} s "
              f"q1={q[0]:.4f} q3={q[2]:.4f}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units[name]}")
    failed_frac = m.failed / m.attempted
    print(f"  {'failed_frac':32s} {failed_frac:>14.6g} ({m.failed} of {m.attempted} "
          f"{'verify instances' if m.w.is_verify else 'P_e rows'})")
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"env": env, "result": result, "failed_frac": failed_frac, "walls": m.walls,
              "setup_s": setup_times, "spans": [t.spans for t in m.tracers]}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if not (SRC / "gfsig" / "__init__.py").is_file():
        fail(f"gfsig sources not found under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    pin_threads(w, nproc)
    base_seed = args.seed % REFERENCE_SEEDS
    if args.setup_probe:
        print(repr(setup_probe(w, base_seed)))
        return 0
    setup_times = [] if args.trace else measure_setup(args)
    import_gfsig()
    env = environment(w, args, base_seed, nproc)
    OUT_DIR.mkdir(exist_ok=True)
    m = Measurement(w, base_seed, load_reference(w, base_seed))
    m.warm_up()
    rounds = m.run(args.seconds, traced=bool(args.trace))
    if args.trace:
        metrics, units = m.per_layer(), PER_LAYER
    else:
        metrics, units = m.end_to_end(setup_times), END_TO_END
    result = report(args, env, m, rounds, metrics, units, setup_times)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
