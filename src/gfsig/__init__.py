"""Deterministic non-orthogonal signature sequences for grant-free access.

Mask families over finite fields applied to DFT columns, coherence and
identifiability analytics, an uplink Monte-Carlo simulator, and covariance-
fit / message-passing detectors, with a CLI driver (`gfsig`).
"""

from .analysis import (CoherenceReport, MlCondition, SignRatioReport,
                       bound_failures, coherence, coherence_report,
                       family_coherence_bound, khatri_rao_lift,
                       ml_coherence_condition, null_space_sign_ratio,
                       small_regime, welch_bound)
from .detectors import (AmpEstimate, DetectionErrors, DetectionResult,
                        MLEstimate, amp_decide, cdml_decide, cdml_estimate,
                        covariance_objective, error_metric, mmv_amp_estimate)
from .experiments import (ExperimentConfig, ResultRow, build_masks,
                          build_signatures, draw_trial, format_config,
                          load_config, parse_config, run_experiment,
                          run_trial, write_results)
from .galois import (ExtField, PrimeField, build_ext_field, find_primitive_root,
                     is_prime, primitive_polynomials)
from .seqgen import (MaskingSet, SignatureMatrix, build_signature_matrix,
                     dft_matrix, gen_cubic_masks, gen_pr_masks,
                     gen_random_family, gen_sidelnikov_masks, gen_trace_masks,
                     mask_block, pr_seed, sidelnikov_seed, signature_to_csv,
                     trace_seed)
from .simulator import (ActivityPattern, complex_normal, draw_activity,
                        draw_channel, synthesize, trial_rng)

__version__ = "0.1.0"
