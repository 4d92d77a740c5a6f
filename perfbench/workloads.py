"""The benchmark's workloads: what each one runs, how, and how its output is checked.

Every workload drives gfsig's public API at the ROADMAP operating point
(cubic L=23, N_d=200, Q=4, sigma_w^2=0.1). One *operation* is one call of the
workload's entry point: `run_experiment` over the workload's (K, M) grid, or
`gfsig verify` over the full family grid. Its output is compared with
`reference.json`, recorded by `record_reference.py` at the commit that added
this benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Reference rows exist for base seeds 0..REFERENCE_SEEDS-1; `--seed n` runs
# base seed n mod REFERENCE_SEEDS, so every seed has a recorded answer.
REFERENCE_SEEDS = 256

# P_e rows must match the reference exactly: they are means of discrete
# per-trial error fractions, which move only when a device decision flips.
# Coherence mu is a continuous value read straight off BLAS Gram blocks, whose
# summation order follows the kernel OpenBLAS picks for the CPU it runs on, so
# its last bits may differ between machines; 1e-12 is ~5000 ulps at mu < 1 and
# three orders below the 1e-9 tolerance of verify's own bound checks.
VERIFY_MU_TOL = 1e-12

CUBIC = dict(family="cubic", L=23, n_devices=200, q_per_device=4, sigma_w2=0.1)
CDML = dict(CUBIC, k_grid=(40,), m_grid=(192,), detector="cdml", sweeps=15, trials=5)
AMP = dict(CUBIC, k_grid=(10,), m_grid=(4, 8, 16), detector="mmvamp", trials=10)

# OPENBLAS/OMP/MKL_NUM_THREADS of every process; README.md says why it is 1.
BLAS_THREADS = 1

SIM_LAYERS = ("seqgen.masks", "seqgen.assemble", "simulator.rng", "simulator.synth",
              "detectors.decide", "experiments")


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # GFSIG_WORKERS
    config: dict | None  # ExperimentConfig fields; None for verify
    reference: str  # key into reference.json
    layers: tuple[str, ...]  # layers a traced operation must record calls in

    @property
    def is_verify(self) -> bool:
        return self.config is None


WORKLOADS = {w.name: w for w in (
    Workload("cdml_k40", 1, CDML, "cdml_k40", SIM_LAYERS + ("detectors.cdml",)),
    Workload("amp_msweep", 1, AMP, "amp", SIM_LAYERS + ("detectors.amp",)),
    Workload("verify_full", 1, None, "verify",
             ("galois", "seqgen.masks", "seqgen.assemble", "analysis", "experiments")),
    # Workers run in forked processes, whose spans are never collected.
    Workload("pool2_amp", 2, AMP, "amp", ("experiments",)),
)}


@dataclass(frozen=True)
class Outcome:
    """What one operation produced: its output rows and how much work it did."""

    rows: list  # comparable output: P_e rows or verify CSV rows
    units: int  # Monte-Carlo trials, or verify instances
    failed: int  # rows (grid points or instances) that fail the check
    attempted: int


def experiment_config(w: Workload, base_seed: int, **changes):
    from gfsig.experiments import ExperimentConfig
    return ExperimentConfig(**{**w.config, "base_seed": base_seed, **changes})


def simulate(w: Workload, base_seed: int, workers: int, reference: list) -> Outcome:
    """One `run_experiment` call; each P_e row must equal its reference row."""
    from gfsig import experiments
    cfg = experiment_config(w, base_seed)
    result = experiments.run_experiment(cfg, workers=workers)
    rows = [[r.k_active, r.n_antennas, r.p_e, r.p_e_stderr] for r in result]
    failed = max(len(rows), len(reference)) - sum(
        got == want for got, want in zip(rows, reference))
    units = cfg.trials * len(cfg.k_grid) * len(cfg.m_grid)
    return Outcome(rows, units, failed, len(reference))


def run_verify(base_seed: int, out_path: Path, quick: bool = False):
    """In-process `gfsig verify`; returns (exit code, PASS/FAIL per instance, CSV rows)."""
    from gfsig import cli
    argv = ["verify", "--seed", str(base_seed), "--out", str(out_path)]
    if quick:
        argv.append("--quick")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    status = [line.split(" ", 1)[0] for line in out.getvalue().splitlines()
              if line.startswith(("PASS ", "FAIL "))]
    rows = out_path.read_text().splitlines()[1:] if out_path.exists() else []
    return code, status, rows


def verify(base_seed: int, out_path: Path, reference: list) -> Outcome:
    """One full verify; every instance passes and reports as recorded."""
    out_path.unlink(missing_ok=True)
    code, status, rows = run_verify(base_seed, out_path)
    n = len(reference)
    if code != 0 and "FAIL" not in status:
        return Outcome(rows, n, n, n)
    bad = status.count("FAIL") + abs(len(rows) - n) + sum(
        not _same_report(got, want) for got, want in zip(rows, reference))
    return Outcome(rows, n, min(bad, n), n)


def _same_report(got: str, want: str) -> bool:
    """CSV rows of CoherenceReport: mu (column 5) within VERIFY_MU_TOL, rest exact."""
    g, w = got.split(","), want.split(",")
    if len(g) != len(w) or g[:5] + g[6:] != w[:5] + w[6:]:
        return False
    return abs(float(g[5]) - float(w[5])) <= VERIFY_MU_TOL


def setup(w: Workload, base_seed: int) -> None:
    """The work done before the first trial or coherence scan: signatures or masks."""
    from gfsig import cli, experiments
    if w.is_verify:
        for family, kwargs in cli.VERIFY_GRID:
            experiments.build_masks(family, **kwargs)
    else:
        experiments.build_signatures(experiment_config(w, base_seed))


def load_reference(w: Workload, base_seed: int) -> list:
    data = json.loads(REFERENCE_PATH.read_text())
    if data["seeds"] != REFERENCE_SEEDS:
        raise ValueError(f"{REFERENCE_PATH.name} holds {data['seeds']} seeds, "
                         f"expected {REFERENCE_SEEDS}")
    ref = data[w.reference]
    return ref if w.is_verify else ref[base_seed]
