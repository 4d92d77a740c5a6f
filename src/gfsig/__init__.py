"""Deterministic non-orthogonal signature sequences for grant-free access.

Mask families over finite fields applied to DFT columns, coherence and
identifiability analytics, an uplink Monte-Carlo simulator, and covariance-
fit / message-passing detectors, with a CLI driver (`gfsig`).
"""

__version__ = "0.1.0"
