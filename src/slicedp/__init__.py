"""Differentially private interior points and learners over
reorder-slice-compute sessions, with a simulation-based privacy audit harness.
"""

from .engine import (OrderMap, RscSession, SliceComputation, ascending_map, axis_map,
                     delayed_compute, descending_map, holder_call_cap, privacy_cost,
                     select_and_compute)
from .learners import (Hypothesis, LabeledSample, boundary_window_size,
                       learn_rectangles, learn_threshold_realizable,
                       load_labeled_csv, rectangle_gate_threshold,
                       threshold_sample_size)
from .mechanisms import (PrivacyBudget, QualityFunction, choosing_error_bound,
                         choosing_mechanism, exponential_mechanism, geometric_pmf,
                         sample_geometric, sample_laplace)
from .quasiconcave import (QcInstance, QcResult, build_increment_dataset,
                           chain_size, cumulative_distance, cumulative_ipp,
                           cumulative_regime_threshold, decode_hard_point,
                           encode_hard_instance, hardness_reduction,
                           is_quasi_concave, load_qc_csv, qc_optimize,
                           sample_code, scaled_budget)
from .sync import (AuditResult, DataHolder, SimTranscript, Simulation, SyncDist, SyncOutcome,
                   audit_call_count, direct_run, estimate_tv, holder_calls, run_trials,
                   simulate, sync_gamma, sync_map, sync_map_exact_dist, sync_threshold,
                   trial_streams)
from .treelog import (RegimeError, TreeVertex, Universe, embed_order_map, f_ipp,
                      gamma, ipp, left_right_leaf, log_star, one_heavy_round,
                      regime_threshold, slice_steps, trim_parameter,
                      vertex_interval)

__version__ = "0.1.0"

__all__ = [
    "OrderMap", "RscSession", "SliceComputation", "PrivacyBudget",
    "QualityFunction", "Universe", "TreeVertex", "RegimeError", "QcInstance",
    "QcResult", "LabeledSample", "Hypothesis", "SyncOutcome", "SyncDist",
    "SimTranscript", "Simulation", "AuditResult", "DataHolder",
    "sample_geometric", "sample_laplace", "geometric_pmf", "exponential_mechanism",
    "choosing_mechanism", "choosing_error_bound", "ascending_map", "descending_map",
    "axis_map", "select_and_compute", "delayed_compute", "privacy_cost",
    "holder_call_cap", "sync_threshold", "sync_gamma", "sync_map",
    "sync_map_exact_dist", "simulate", "holder_calls", "direct_run", "audit_call_count",
    "run_trials", "trial_streams", "estimate_tv", "log_star", "trim_parameter",
    "regime_threshold", "slice_steps",
    "f_ipp", "vertex_interval", "left_right_leaf", "embed_order_map", "gamma",
    "one_heavy_round", "ipp", "cumulative_distance",
    "is_quasi_concave", "build_increment_dataset", "scaled_budget",
    "cumulative_regime_threshold", "cumulative_ipp", "qc_optimize",
    "chain_size", "sample_code", "encode_hard_instance", "decode_hard_point",
    "hardness_reduction", "load_qc_csv", "learn_threshold_realizable",
    "learn_rectangles", "boundary_window_size", "threshold_sample_size",
    "rectangle_gate_threshold", "load_labeled_csv",
]
