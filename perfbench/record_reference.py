"""Record the benchmark's reference outputs into reference.json.

Run from the repository root:  python3 perfbench/record_reference.py

It runs every simulation config for base seeds 0..REFERENCE_SEEDS-1 and the
full verify grid once, on one BLAS thread, taking about 5 minutes on 2 vCPU.
Re-record only in a change that means to alter P_e rows or coherence values,
and say there which rows moved and why.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import REFERENCE_PATH, REFERENCE_SEEDS, WORKLOADS, run_verify, simulate  # noqa: E402


def main() -> int:
    data = {"seeds": REFERENCE_SEEDS}
    for w in WORKLOADS.values():
        if w.reference in data or w.is_verify:
            continue
        data[w.reference] = [simulate(w, seed, 1, []).rows for seed in range(REFERENCE_SEEDS)]
        print(f"recorded {w.reference}", file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=REFERENCE_PATH.parent) as tmp:
        code, status, rows = run_verify(0, Path(tmp) / "verify.csv")
    if code != 0 or "FAIL" in status:
        print("verify did not pass; not recording", file=sys.stderr)
        return 1
    data["verify"] = rows
    REFERENCE_PATH.write_text(json.dumps(data, indent=None, separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
