"""Mutation suite: every mutant of src/ must make its tests fail.

Run from anywhere:  python3 mutants/run.py

Each entry of MUTANTS names a file under src/gfsig, an exact text that occurs in it
once, the text that replaces it and the test ids that must catch the change. The runner
copies src/ to a temporary tree, checks that the listed tests pass on the unmutated copy,
then applies one mutant at a time and runs its ids with `pytest -x` against that tree.
It exits nonzero if a mutant survives, if its old text does not occur exactly once, or if
the listed tests fail on the unmutated copy. A refactor that moves a mutant's text has to
update the entry here, so the suite cannot lose a mutant silently.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # path under src/gfsig
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


AMP_ORACLE = "tests/test_detectors.py::test_amp_matches_reference_loop"
ORBIT_GRID = "tests/test_analysis.py::test_orbit_rule_rows_on_the_verify_grid"

MUTANTS = (
    Mutant("trace-digit-1", "galois.py",
           "exp_table[js * p**i % (q - 1)] % p for i in range(m)",
           "exp_table[js * p**i % (q - 1)] // p % p for i in range(m)",
           ("tests/test_galois.py::test_frobenius_invariance_exhaustive",)),
    Mutant("exp-table-swap", "galois.py",
           "exp_table = np.asarray(codes, dtype=np.int64)",
           "exp_table = np.asarray(codes[:1] + codes[2:3] + codes[1:2] + codes[3:], "
           "dtype=np.int64)",
           ("tests/test_galois.py::test_field_axioms_exhaustive",)),
    Mutant("prime-field-largest-root-first", "galois.py",
           "poly = ((-n) % p, 1)",
           "poly = ((n + 1) % p, 1)",
           ("tests/test_galois.py::test_prime_field_log_table",
            "tests/test_galois.py::test_prime_field_alpha_is_the_smallest_primitive_root")),
    Mutant("amp-undamped-x", "detectors.py",
           "        X *= damping\n        X += Z\n",
           "        X += Z\n",
           (AMP_ORACLE,)),
    Mutant("amp-onsager-over-n", "detectors.py",
           "(shrink * u * (1.0 - pi)) @ az2) / L",
           "(shrink * u * (1.0 - pi)) @ az2) / N",
           (AMP_ORACLE,)),
    Mutant("amp-onsager-without-1-minus-pi", "detectors.py",
           "(shrink * u * (1.0 - pi)) @ az2",
           "(shrink * u) @ az2",
           (AMP_ORACLE,)),
    Mutant("amp-ah-without-conj", "detectors.py",
           "AH = np.ascontiguousarray(A.conj().T)",
           "AH = np.ascontiguousarray(A.T)",
           (AMP_ORACLE,)),
    Mutant("cdml-last-step", "detectors.py",
           "            while k < last and q[k] <= a[k]:\n                k += 1\n",
           "            k = last\n",
           ("tests/test_detectors.py::test_cdml_matches_reference_loop",)),
    Mutant("cdml-stops-after-one-sweep", "detectors.py",
           "settled = np.array_equal(gamma > 0, support)",
           "settled = True",
           ("tests/test_detectors.py::test_cdml_stops_when_support_settles",)),
    Mutant("cdml-zero-column-unchecked", "detectors.py",
           "    if np.any(np.linalg.norm(S_scaled, axis=0) < 1e-300):\n"
           "        raise ValueError(\"signature matrix has a zero column\")\n",
           "",
           ("tests/test_detectors.py::test_cdml_input_validation",)),
    Mutant("cdml-sees-16-antennas", "detectors.py",
           "Sigma_hat = (Y @ Y.conj().T) / M",
           "Sigma_hat = (Y[:, :16] @ Y[:, :16].conj().T) / min(M, 16)",
           ("tests/test_acceptance.py::test_criterion_07_cdml_desk_scale",)),
    Mutant("tall-gram-unscaled", "analysis.py",
           "        G /= norms[:, None]\n        G /= norms\n",
           "",
           ("tests/test_analysis.py::test_tall_gram_scan_is_the_plain_normalized_scan",
            "tests/test_analysis.py::test_gram_scan_matches_the_normalized_copy")),
    Mutant("cube-class-dropped", "seqgen.py",
           "        if len(least) == classes:",
           "        if len(least) == classes - 1:",
           ("tests/test_analysis.py::test_cubic_classes_need_stepped_bases",
            "tests/test_analysis.py::test_cubic_rule_keeps_one_row_per_cube_class", ORBIT_GRID)),
    Mutant("frobenius-orbit-dropped", "seqgen.py",
           "    return r[i], s * (H - 1) + r2[i]",
           "    return r[i][1:], (s * (H - 1) + r2[i])[1:]",
           ("tests/test_analysis.py::test_sidelnikov_rule_keeps_one_row_per_orbit", ORBIT_GRID)),
    Mutant("sign-ratio-tiny-entries", "analysis.py",
           "np.count_nonzero(nonzero & (X < 0), axis=0)",
           "np.count_nonzero(X < 0, axis=0)",
           ("tests/test_analysis.py::test_sign_ratio_symmetric_null_space_exact",)),
    Mutant("welch-check-dropped", "analysis.py",
           "if report.welch > report.mu + BOUND_TOL:",
           "if False:",
           ("tests/test_analysis.py::test_bound_failures_flags_corrupted_matrix",)),
    Mutant("verify-fail-exits-0", "cli.py",
           "                ok = False\n",
           "",
           ("tests/test_cli.py::test_verify_reports_a_bound_violation",)),
    Mutant("verify-masks-first-pick-only", "cli.py",
           "for b, err in zip(picks, errs):",
           "for b, err in zip(picks[:1], errs[:1]):",
           ("tests/test_analysis.py::test_verify_masks_names_a_block_that_is_not_orthonormal",)),
    Mutant("divergence-never-warned", "experiments.py",
           "if div_rate > 0.5 and warn is not None:",
           "if div_rate > 1.0 and warn is not None:",
           ("tests/test_cli.py::test_simulate_warns_on_divergence",)),
)


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for `tests` with gfsig imported from `src`."""
    # no bytecode: a mutant written in the same second as the last one must not be served
    # from its cache
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for m in MUTANTS:
            count = (src / "gfsig" / m.file).read_text().count(m.old)
            if count != 1:
                bad.append(m.name)
                print(f"STALE {m.name}: its old text occurs {count} times in {m.file}")
        if bad:
            return 1
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(src, tests) != 0:
            print("the mutants' tests fail on the unmutated tree")
            return 1
        for m in MUTANTS:
            path = src / "gfsig" / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            code = run_tests(src, m.tests)  # 1: a test failed; 2-5 are errors, not kills
            path.write_text(text)
            status = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{m.name}: {status} in {time.perf_counter() - start:.1f} s")
            if code != 1:
                bad.append(m.name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
