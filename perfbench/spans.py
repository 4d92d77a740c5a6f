"""In-memory span tracing around the calls gfsig makes into each of its layers.

A Tracer replaces, for the duration of one traced operation, the names that
gfsig.experiments, gfsig.cli and gfsig.seqgen bind to the layer functions
they call. Each wrapper records a span (name, layer, start, end, parent) and,
for some layers, counts read from the call's arguments or result. A layer's
self time is the summed duration of its spans minus the time their child
spans cover. Nothing inside gfsig is edited; a missing name raises.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, name it binds, layer). ProcessPoolExecutor and PrimeField are
# classes; wrapping them spans their construction and counts instances.
WRAPS = (
    ("gfsig.experiments", "run_experiment", "experiments"),
    ("gfsig.experiments", "build_signatures", "experiments"),
    ("gfsig.experiments", "build_masks", "experiments"),
    ("gfsig.experiments", "run_trial", "experiments"),
    ("gfsig.experiments", "ProcessPoolExecutor", "experiments"),
    ("gfsig.experiments", "gen_cubic_masks", "seqgen.masks"),
    ("gfsig.experiments", "gen_pr_masks", "seqgen.masks"),
    ("gfsig.experiments", "gen_sidelnikov_masks", "seqgen.masks"),
    ("gfsig.experiments", "gen_trace_masks", "seqgen.masks"),
    ("gfsig.experiments", "build_signature_matrix", "seqgen.assemble"),
    ("gfsig.experiments", "trial_rng", "simulator.rng"),
    ("gfsig.experiments", "draw_activity", "simulator.synth"),
    ("gfsig.experiments", "draw_channel", "simulator.synth"),
    ("gfsig.experiments", "synthesize", "simulator.synth"),
    ("gfsig.experiments", "cdml_estimate", "detectors.cdml"),
    ("gfsig.experiments", "mmv_amp_estimate", "detectors.amp"),
    ("gfsig.experiments", "cdml_decide", "detectors.decide"),
    ("gfsig.experiments", "amp_decide", "detectors.decide"),
    ("gfsig.experiments", "error_metric", "detectors.decide"),
    ("gfsig.cli", "main", "cli"),
    ("gfsig.cli", "build_masks", "experiments"),
    ("gfsig.cli", "build_signature_matrix", "seqgen.assemble"),
    ("gfsig.cli", "mask_block", "seqgen.assemble"),
    ("gfsig.cli", "coherence_report", "analysis"),
    ("gfsig.cli", "coherence", "analysis"),
    ("gfsig.seqgen", "PrimeField", "galois"),
    ("gfsig.seqgen", "build_ext_field", "galois"),
)


def _columns(matrix) -> int:
    return getattr(matrix, "entries", matrix).shape[1]


# Counts recorded per call, from (function name, args, result).
COUNTERS = {
    "galois": lambda name, args, res: {"galois.fields": 1},
    "analysis": lambda name, args, res: {"analysis.coherence_calls": 1,
                                         "analysis.columns": _columns(args[0])},
    "simulator.rng": lambda name, args, res: {"simulator.streams": 1},
    "detectors.cdml": lambda name, args, res: {
        "detectors.cdml_updates": res.sweeps_run * _columns(args[1])},
    "detectors.amp": lambda name, args, res: {"detectors.amp_iters": res.iterations,
                                              "detectors.amp_diverged": int(res.diverged)},
    "experiments": lambda name, args, res: (
        {"experiments.pools": 1} if name == "experiments.ProcessPoolExecutor" else {}),
}


class Tracer:
    """Spans and counts of one traced operation, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or None]
        self.counts = Counter()
        self._open = []

    def _wrap(self, name: str, layer: str, fn):
        count = COUNTERS.get(layer)

        def wrapper(*args, **kwargs):
            span = [name, layer, time.perf_counter(), None,
                    self._open[-1] if self._open else None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if count is not None:
                self.counts.update(count(name, args, result))
            return result

        return functools.update_wrapper(wrapper, fn, updated=())

    @contextmanager
    def installed(self):
        """Swap every WRAPS name for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, layer in WRAPS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
                setattr(module, attr, self._wrap(name, layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for (_, layer, start, end, _), child in zip(self.spans, covered):
            out[layer] += end - start - child
        return dict(out)

    def calls(self) -> Counter:
        return Counter(layer for _, layer, _, _, _ in self.spans)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this operation, named as in BENCHMARK.json."""
        t = self.self_times()
        c = self.counts
        cdml_s, amp_s = t.get("detectors.cdml", 0.0), t.get("detectors.amp", 0.0)
        return {
            "galois.tables_s": t.get("galois", 0.0),
            "galois.fields": c["galois.fields"],
            "seqgen.masks_s": t.get("seqgen.masks", 0.0),
            "seqgen.assemble_s": t.get("seqgen.assemble", 0.0),
            "analysis.coherence_s": t.get("analysis", 0.0),
            "analysis.coherence_calls": c["analysis.coherence_calls"],
            "analysis.columns": c["analysis.columns"],
            "simulator.rng_s": t.get("simulator.rng", 0.0),
            "simulator.synth_s": t.get("simulator.synth", 0.0),
            "simulator.streams": c["simulator.streams"],
            "detectors.cdml_s": cdml_s,
            "detectors.cdml_updates": c["detectors.cdml_updates"],
            "detectors.cdml_us_per_update":
                1e6 * cdml_s / c["detectors.cdml_updates"] if c["detectors.cdml_updates"] else 0.0,
            "detectors.amp_s": amp_s,
            "detectors.amp_iters": c["detectors.amp_iters"],
            "detectors.amp_ms_per_iter":
                1e3 * amp_s / c["detectors.amp_iters"] if c["detectors.amp_iters"] else 0.0,
            "detectors.amp_diverged": c["detectors.amp_diverged"],
            "detectors.decide_s": t.get("detectors.decide", 0.0),
            "experiments.self_s": t.get("experiments", 0.0),
            "experiments.pools": c["experiments.pools"],
        }
