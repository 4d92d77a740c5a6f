"""Command-line driver: gen, verify, simulate, a1, bench.

Exit code 0 means every requested check passed; any bound violation or
invalid input exits nonzero.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import (CoherenceReport, bound_failures, coherence, coherence_report,
                       khatri_rao_lift, null_space_sign_ratio, welch_bound)
from .experiments import (GEN_TRIALS, build_masks, family_signatures, load_config,
                          run_experiment, workers_from_env, write_results)
from .seqgen import (DETERMINISTIC_FAMILIES, FAMILIES, RANDOM_FAMILIES, build_signature_matrix,
                     check_keys, mask_block, masked_dft_columns, signature_to_csv)

# (family, kwargs) instances used by `verify`; the quick grid trades size
# for seconds-scale runtime.
VERIFY_GRID = [
    ("cubic", {"L": 7}),
    ("cubic", {"L": 11}),
    ("cubic", {"L": 23}),
    ("pr", {"L": 11, "H": 10}),
    ("pr", {"L": 23, "H": 22}),
    ("sidelnikov", {"p": 5, "m": 2}),
    ("sidelnikov", {"p": 3, "m": 3}),
    ("trace", {"p": 5, "m": 2}),
    ("trace", {"p": 3, "m": 3}),
]
VERIFY_GRID_QUICK = [
    ("cubic", {"L": 7}),
    ("pr", {"L": 11, "H": 10}),
    ("sidelnikov", {"p": 3, "m": 2}),
    ("trace", {"p": 3, "m": 2}),
]
# count flag (argparse dest) -> its least value; bench's coherence needs N >= 2 columns
COUNT_FLAGS = {"L": 1, "N": 2, "Q": 1, "Nd": 1, "gen_trials": 1, "samples": 1, "trials": 1}


def _family_args(parser):
    parser.add_argument("--family", required=True,
                        choices=DETERMINISTIC_FAMILIES + RANDOM_FAMILIES)
    parser.add_argument("--L", type=int, help="sequence length (cubic, pr, random)")
    parser.add_argument("--H", type=int, help="phase order for pr/sidelnikov")
    parser.add_argument("--p", type=int, help="field characteristic (sidelnikov, trace)")
    parser.add_argument("--m", type=int, help="extension degree (sidelnikov, trace)")


def cmd_gen(args) -> int:
    if args.Nd and not args.matrix_csv:
        raise ValueError("--Nd needs --matrix-csv")
    if args.family in RANDOM_FAMILIES:
        print("random families have no masking seed; use `bench` to draw and rate them",
              file=sys.stderr)
        return 1
    masks = build_masks(args.family, L=args.L, p=args.p, m=args.m, H=args.H)
    n_s = masks.B * masks.L
    print(f"family={masks.family} L={masks.L} B={masks.B} N_s={n_s} "
          f"capacity(Q={args.Q})={n_s // args.Q}")
    if masks.seed is not None:
        print("seed: " + ",".join(str(v) for v in masks.seed))
    else:
        print("seed: none (masks come directly from the phase polynomial)")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"# family={masks.family} L={masks.L} B={masks.B} "
                     f"params={masks.params!r}\n")
            if masks.seed is not None:
                fh.write(",".join(str(v) for v in masks.seed) + "\n")
        print(f"wrote seed to {args.out}")
    if args.matrix_csv:
        sig = build_signature_matrix(masks, args.Nd or n_s // args.Q, args.Q)
        signature_to_csv(sig, args.matrix_csv)
        print(f"wrote {sig.L}x{sig.N} signature matrix to {args.matrix_csv}")
    return 0


def verify_masks(masks, n_devices: int, rng) -> tuple[CoherenceReport, list[str]]:
    """Bound, Welch, lifted-coherence (48 columns) and block-orthonormality (10 blocks)
    checks for S of `masks` with n_devices devices and Q = 1, from its masks."""
    sig = build_signature_matrix(masks, n_devices, 1)
    report = coherence_report(sig)
    failures = bound_failures(report)

    cols = rng.choice(sig.N, size=min(48, sig.N), replace=False)
    sub = masked_dft_columns(sig.mask_rows, np.sort(cols))
    mu_sub = coherence(sub)
    mu_lift = coherence(khatri_rao_lift(sub))
    if abs(mu_lift - mu_sub**2) > 1e-12:
        failures.append(
            f"lifted coherence {mu_lift} differs from mu^2 = {mu_sub**2}")

    picks = rng.choice(masks.B, size=min(10, masks.B), replace=False)
    blks = mask_block(masks, picks)
    errs = np.abs(blks.conj().mT @ blks - np.eye(masks.L)).max(axis=(1, 2))
    for b, err in zip(picks, errs):
        if err > 1e-10:
            failures.append(f"block {b} orthonormality error {err}")
    return report, failures


def cmd_verify(args) -> int:
    grid = VERIFY_GRID_QUICK if args.quick else VERIFY_GRID
    if args.family:
        grid = [(fam, kw) for fam, kw in grid if fam == args.family]  # each grid has all four
    rng = np.random.default_rng(args.seed)
    rows = [CoherenceReport.CSV_HEADER]
    ok = True
    for family, kwargs in grid:
        masks = build_masks(family, **kwargs)
        L, B = masks.L, masks.B
        small_n = FAMILIES[family].small_columns(L, masks.params.get("H"))
        for n_cols in (min(small_n, B * L), B * L):
            report, failures = verify_masks(masks, n_cols, rng)
            rows.append(report.csv_row())
            tag = f"{family} {kwargs} N={n_cols} [{report.regime}]"
            if failures:
                ok = False
                print(f"FAIL {tag}")
                for f in failures:
                    print(f"  {f}")
            else:
                print(f"PASS {tag} mu={report.mu:.6f} bound={report.bound:.6f} "
                      f"welch={report.welch:.6f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    workers = workers_from_env()
    open(cfg.output, "a").close()  # fail before the first trial, and keep an old file's rows
    rows = run_experiment(cfg, workers=workers,
                          warn=lambda msg: print(f"WARNING: {msg}", file=sys.stderr))
    write_results(rows, cfg.output)
    for row in rows:
        print(row.csv_row())
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


def cmd_a1(args) -> int:
    fam = FAMILIES[args.family]
    check_keys("family", args.family, fam.needs, fam.needs + fam.takes, dict.fromkeys(
        key for key in ("L", "p", "m", "H", "gen_trials") if getattr(args, key) is not None))
    sig = family_signatures(args.family, n_devices=args.Nd, q_per_device=args.Q,
                            base_seed=args.seed, gen_trials=args.gen_trials or GEN_TRIALS,
                            L=args.L, p=args.p, m=args.m, H=args.H)
    report = null_space_sign_ratio(sig, num_samples=args.samples,
                                   rng=np.random.default_rng(args.seed))
    if report.empty:
        print(f"{args.family}: empty null space (lifted matrix has full column rank)")
        return 0
    print(f"{args.family} L={sig.L} N={sig.N}: sign ratio {report.ratio:.4f} "
          f"over {report.samples} samples (null dim {report.null_dim})")
    return 0


def cmd_bench(args) -> int:
    kinds = args.kinds.split(",")
    bad = [k for k in kinds if k not in RANDOM_FAMILIES]
    if bad:
        print(f"unknown random families: {', '.join(bad)}", file=sys.stderr)
        return 1
    welch = welch_bound(args.L, args.N)
    print(f"L={args.L} N={args.N} trials={args.trials} welch={welch:.6f}")
    for kind in kinds:
        sig = family_signatures(kind, n_devices=args.N, q_per_device=1, base_seed=args.seed,
                                gen_trials=args.trials, L=args.L)
        print(f"{kind}: coherence {coherence(sig):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfsig",
        description="deterministic non-orthogonal signature sequences: "
                    "generation, verification, and detection simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a masking family, print seed and capacity")
    _family_args(p)
    p.add_argument("--Q", type=int, default=1, help="signatures per device")
    p.add_argument("--Nd", type=int, help="devices for --matrix-csv (default: capacity)")
    p.add_argument("--out", help="write the seed sequence to this file")
    p.add_argument("--matrix-csv", help="write the signature matrix to this CSV")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="check coherence bounds over the family grid")
    p.add_argument("--quick", action="store_true", help="small grid of the smallest instances")
    p.add_argument("--family", choices=DETERMINISTIC_FAMILIES,
                   help="restrict to one family")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="run the Monte-Carlo grid of a config file")
    p.add_argument("config", help="path to a key = value experiment config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("a1", help="null-space sign-balance check for a signature set")
    _family_args(p)
    p.add_argument("--Nd", type=int, required=True)
    p.add_argument("--Q", type=int, default=1)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gen-trials", dest="gen_trials", type=int,
                   help=f"best-of draws of a random family (default {GEN_TRIALS})")
    p.set_defaults(func=cmd_a1)

    p = sub.add_parser("bench", help="coherence of best-of-trials random families")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, default=GEN_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kinds", default=",".join(RANDOM_FAMILIES))
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, least in COUNT_FLAGS.items():
            value = getattr(args, key, None)
            if value is not None and value < least:
                raise ValueError(f"--{key.replace('_', '-')} must be >= {least}, got {value}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
