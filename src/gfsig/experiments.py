"""Reproducible Monte-Carlo detection experiments.

A flat key = value config file fixes the signature family, the system sizes,
the detector and its parameters, a (K, M) grid, the trial count, and the
base seed. Every trial derives its own random streams from
(base_seed, K, M, trial, purpose), so results do not depend on execution
order or worker count, and paired comparisons across families can share
activity, channel, and noise by sharing the base seed.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .analysis import coherence
from .detectors import (DAMPING, MAX_ITERS, SWEEPS, XI_TH, amp_decide, cdml_decide,
                        cdml_estimate, error_metric, mmv_amp_estimate)
from .seqgen import (DETERMINISTIC_FAMILIES, FAMILIES, MaskingSet, SignatureMatrix,
                     build_signature_matrix, check_keys, gen_cubic_masks, gen_pr_masks,
                     gen_sidelnikov_masks, gen_trace_masks)
from .simulator import (PURPOSE_ACTIVITY, PURPOSE_CHANNEL, PURPOSE_DETECTOR,
                        PURPOSE_GEN, PURPOSE_NOISE, draw_activity,
                        draw_channel, synthesize, trial_rng)

# detector -> {config key it reads: valid interval, each end closed for "[" or "]" and
# open for "(" or ")"}
DETECTORS = {
    "cdml": {"sweeps": "[1, inf)", "xi_th": "(0, inf)", "sigma_w2": "(0, inf)"},
    "mmvamp": {"max_iters": "[1, inf)", "damping": "[0, 1)", "xi_th": "(0, inf)",
               "sigma_w2": "[0, inf)"},
}
# config key -> interval, as in DETECTORS, for every config and each grid entry; gen_trials
# is read by the random families only and is at its default elsewhere; base_seed, each M and
# each trial index (0 to trials - 1) key trial_rng, whose keys lie below 2**32;
# each K lies in [0, N_d], and below N_d Q under MMV-AMP, whose activity prior K / (N_d Q)
# must stay below 1: an interval validate_config builds per config
RANGES = {"N_d": "[1, inf)", "Q": "[1, inf)", "M": "[1, 4294967296)",
          "trials": "[1, 4294967296]", "gen_trials": "[1, inf)", "base_seed": "[0, 4294967296)"}
WORKERS_ENV = "GFSIG_WORKERS"
GEN_TRIALS = 10  # best-of draws of a random family; ExperimentConfig's and the CLI's default too

CSV_HEADER = "family,L,H,N_d,Q,K,M,detector,trials,p_e,p_e_stderr,seconds"


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The config schema: one field per config key. Frozen and compared by value, so a
    config file's text names its run: parse_config(text) == cfg."""

    family: str
    L: int | None = None
    p: int | None = None
    m: int | None = None
    H: int | None = None
    n_devices: int = field(metadata={"key": "N_d"})
    q_per_device: int = field(metadata={"key": "Q"})
    k_grid: tuple[int, ...] = field(metadata={"key": "K"})
    m_grid: tuple[int, ...] = field(metadata={"key": "M"})
    sigma_w2: float = 0.1
    detector: str = "cdml"
    sweeps: int = SWEEPS
    xi_th: float = XI_TH
    max_iters: int = MAX_ITERS
    damping: float = DAMPING
    gen_trials: int = GEN_TRIALS
    trials: int
    base_seed: int = 0
    output: str = "results.csv"


# config key (the field name unless its metadata gives one) -> field, in key order;
# a field without a default is a required key
_FIELDS = {f.metadata.get("key", f.name): f for f in fields(ExperimentConfig)}
# field annotation, a string under the __future__ import, less " | None" ->
# (converter of a config value, what the value must be); a tuple is a comma-list grid
_CONVERT = {"str": (str, ""), "int": (int, "an integer"), "float": (float, "a number"),
            "tuple[int, ...]": (lambda v: tuple(int(x) for x in v.split(",")),
                                "a comma list of integers")}

# config keys read only under some families or some detectors
_FAMILY_KEYS = {key for fam in FAMILIES.values() for key in fam.needs + fam.takes}
_TUNING_KEYS = {key for keys in DETECTORS.values() for key in keys}


def _within(value, interval: str) -> bool:
    """Whether `value` lies in an interval of DETECTORS or RANGES, or K's."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low <= value if interval[0] == "[" else low < value)
            and (value <= high if interval[-1] == "]" else value < high))


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines (comma lists for grids, # for comments)."""
    raw = {}  # key -> (line number, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate config key {key!r} "
                             f"(first set on line {raw[key][0]})")
        raw[key] = (lineno, value)
    kwargs = {}
    for key, (lineno, value) in raw.items():
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        convert, what = _CONVERT[_FIELDS[key].type.removesuffix(" | None")]
        try:
            kwargs[_FIELDS[key].name] = convert(value)
        except ValueError:
            raise ValueError(f"line {lineno}: {key} = {value!r} is not {what}") from None
    missing = [key for key, f in _FIELDS.items() if f.default is MISSING and f.name not in kwargs]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    cfg = ExperimentConfig(**kwargs)
    validate_config(cfg, {key: lineno for key, (lineno, _) in raw.items()})
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def validate_config(cfg: ExperimentConfig, lines: dict[str, int] | None = None) -> None:
    """Reject configs that cannot run or that set a key the run never reads.

    `lines` maps the keys a config file set to their line numbers. A key
    the family or detector does not read is an error if the file set it,
    or, for a config built in code, if it differs from its default.
    """
    lines = lines or {}
    if cfg.family not in FAMILIES:
        raise ValueError(f"unknown family {cfg.family!r}")
    if cfg.detector not in DETECTORS:
        raise ValueError(f"unknown detector {cfg.detector!r}")
    given = {key: lines.get(key) for key, f in _FIELDS.items()
             if key in lines or getattr(cfg, f.name) != f.default}
    fam = FAMILIES[cfg.family]
    check_keys("family", cfg.family, fam.needs, fam.needs + fam.takes,
               {k: v for k, v in given.items() if k in _FAMILY_KEYS})
    check_keys("detector", cfg.detector, (), DETECTORS[cfg.detector],
               {k: v for k, v in given.items() if k in _TUNING_KEYS})
    where = {key: f"line {lines[key]}: " if key in lines else "" for key in _FIELDS}
    for key in ("K", "M"):  # a repeated entry would run its grid point twice
        grid = getattr(cfg, _FIELDS[key].name)
        if not grid or len(set(grid)) < len(grid):
            raise ValueError(f"{where[key]}{key} grid {list(grid)} is empty or repeats a value")
    n_cols = cfg.n_devices * cfg.q_per_device
    k_max = min(cfg.n_devices, n_cols - 1) if cfg.detector == "mmvamp" else cfg.n_devices
    ranges = {**RANGES, "K": f"[0, {k_max}]", **DETECTORS[cfg.detector]}
    for key, interval in ranges.items():
        value = getattr(cfg, _FIELDS[key].name)
        for v in value if isinstance(value, tuple) else (value,):
            if not _within(v, interval):
                raise ValueError(f"{where[key]}{key} = {v} must lie in {interval}")


def build_masks(family: str, L: int | None = None, p: int | None = None,
                m: int | None = None, H: int | None = None) -> MaskingSet:
    """Masks of a deterministic family from the family keys given (None: not given)."""
    if family not in DETERMINISTIC_FAMILIES:
        raise ValueError(f"unknown deterministic family {family!r}")
    given = {key: v for key, v in zip(("L", "p", "m", "H"), (L, p, m, H)) if v is not None}
    fam = FAMILIES[family]
    check_keys("family", family, fam.needs, fam.needs + fam.takes, dict.fromkeys(given))
    # looked up per call, so a rebound gen_*_masks name (a tracer's wrapper) is called
    return globals()[f"gen_{family}_masks"](**given)


def gen_random_family(kind: str, L: int, N: int, trials: int = GEN_TRIALS, *,
                      rng: np.random.Generator, q_per_device: int = 1) -> SignatureMatrix:
    """Best-of-`trials` random L x N signature matrix with unit-norm columns.

    Candidates are drawn by the family's `draw` (i.i.d. per entry: complex Gaussian, the
    9-point MUSA constellation, or QPSK), column-normalized, and the draw with the lowest
    coherence is kept. One column has no pair to rank: the first draw is kept.
    """
    draw = FAMILIES[kind].draw if kind in FAMILIES else None
    if draw is None:
        raise ValueError(f"unknown random family {kind!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if N % q_per_device != 0:
        raise ValueError("q_per_device must divide N")
    best, best_mu = None, np.inf
    for _ in range(trials):
        A = draw(rng, L, N)
        A = A / np.linalg.norm(A, axis=0)
        mu = coherence(A) if N > 1 else 0.0
        if mu < best_mu:
            best, best_mu = A, mu
    return SignatureMatrix(best, N // q_per_device, q_per_device, kind, {"L": L})


def family_signatures(family: str, *, n_devices: int, q_per_device: int, base_seed: int,
                      gen_trials: int, **keys) -> SignatureMatrix:
    """S with n_devices x q_per_device columns from the family keys given (L, p, m, H;
    None: not given): a deterministic family's first N_d Q masked-DFT columns, or a random
    family's best of gen_trials draws from the base seed's PURPOSE_GEN stream."""
    if family in DETERMINISTIC_FAMILIES:
        return build_signature_matrix(build_masks(family, **keys), n_devices, q_per_device)
    return gen_random_family(family, keys["L"], n_devices * q_per_device, trials=gen_trials,
                             rng=trial_rng(base_seed, PURPOSE_GEN), q_per_device=q_per_device)


def build_signatures(cfg: ExperimentConfig) -> SignatureMatrix:
    return family_signatures(cfg.family, n_devices=cfg.n_devices, q_per_device=cfg.q_per_device,
                             base_seed=cfg.base_seed, gen_trials=cfg.gen_trials,
                             L=cfg.L, p=cfg.p, m=cfg.m, H=cfg.H)


def draw_trial(S: np.ndarray, n_devices: int, q_per_device: int, k_active: int,
               n_antennas: int, sigma_w2: float, base_seed: int, trial: int):
    """Draws of one trial: (indicators, channel rows H (one per device), Y, detector rng).

    Stream keys omit the family and detector so that runs over different
    signature sets see identical activity, channel, and noise draws.
    """
    keys = (k_active, n_antennas, trial)
    activity = draw_activity(n_devices, k_active, q_per_device,
                             trial_rng(base_seed, *keys, PURPOSE_ACTIVITY))
    H = draw_channel(n_devices, n_antennas, trial_rng(base_seed, *keys, PURPOSE_CHANNEL))
    Y = synthesize(S, activity, H, sigma_w2, trial_rng(base_seed, *keys, PURPOSE_NOISE))
    return activity, H, Y, trial_rng(base_seed, *keys, PURPOSE_DETECTOR)


def run_trial(cfg: ExperimentConfig, S: np.ndarray, k_active: int, n_antennas: int,
              trial: int) -> tuple[float, bool]:
    """One trial of draw_trial's draws, sized, tuned and seeded by cfg; returns (P_e, diverged)."""
    truth, _, Y, rng = draw_trial(S, cfg.n_devices, cfg.q_per_device, k_active,
                                  n_antennas, cfg.sigma_w2, cfg.base_seed, trial)
    S_scaled = np.sqrt(S.shape[0]) * S
    if cfg.detector == "cdml":
        est = cdml_estimate(Y, S_scaled, cfg.sigma_w2, sweeps=cfg.sweeps, rng=rng)
        decided = cdml_decide(est.gamma_hat, cfg.n_devices, cfg.q_per_device, xi_th=cfg.xi_th)
        return float(error_metric(truth, decided).mean()), False
    if cfg.detector != "mmvamp":
        raise ValueError(f"unknown detector {cfg.detector!r}")
    rate = k_active / (cfg.n_devices * cfg.q_per_device)
    est = mmv_amp_estimate(Y, S_scaled, rate, max_iters=cfg.max_iters, damping=cfg.damping)
    decided = amp_decide(est.X_hat, cfg.n_devices, cfg.q_per_device, xi_th=cfg.xi_th)
    return float(error_metric(truth, decided).mean()), est.diverged


@dataclass(frozen=True)
class ResultRow:
    family: str
    L: int
    H: int | None
    n_devices: int
    q_per_device: int
    k_active: int
    n_antennas: int
    detector: str
    trials: int
    p_e: float
    p_e_stderr: float
    seconds: float

    def csv_row(self) -> str:
        h = "" if self.H is None else str(self.H)
        return (
            f"{self.family},{self.L},{h},{self.n_devices},{self.q_per_device},"
            f"{self.k_active},{self.n_antennas},{self.detector},{self.trials},"
            f"{self.p_e!r},{self.p_e_stderr!r},{self.seconds:.3f}"
        )


def workers_from_env() -> int:
    value = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(value)
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {value!r}") from exc
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value!r}")
    return workers


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported on the first call: a one-worker
    run never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def run_experiment(cfg: ExperimentConfig, workers: int = 1,
                   warn=None) -> list[ResultRow]:
    """Run the full (K, M) grid; one ResultRow per grid point."""
    validate_config(cfg)
    sig = build_signatures(cfg)
    rows = []
    for k_active in cfg.k_grid:
        for n_antennas in cfg.m_grid:
            start = time.perf_counter()
            trial = functools.partial(run_trial, cfg, sig.entries, k_active, n_antennas)
            if workers > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    chunk = -(-cfg.trials // workers)
                    outcomes = list(pool.map(trial, range(cfg.trials), chunksize=chunk))
            else:
                outcomes = [trial(t) for t in range(cfg.trials)]
            p_es = np.array([p for p, _ in outcomes])
            div_rate = float(np.mean([d for _, d in outcomes]))
            stderr = float(p_es.std(ddof=1) / np.sqrt(len(p_es))) if len(p_es) > 1 else 0.0
            row = ResultRow(cfg.family, sig.L, sig.params.get("H"), cfg.n_devices,
                            cfg.q_per_device, k_active, n_antennas, cfg.detector,
                            cfg.trials, float(p_es.mean()), stderr,
                            time.perf_counter() - start)
            rows.append(row)
            if div_rate > 0.5 and warn is not None:
                warn(f"divergence rate {div_rate:.0%} at K={k_active}, M={n_antennas}")
    return rows


def write_results(rows: list[ResultRow], path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
