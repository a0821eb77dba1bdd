"""Cell-type deconvolution with valid sampling uncertainty.

Estimates cell-type proportions from bulk expression by simplex-constrained
least squares, quantifies their sampling covariance through a decorrelated
sandwich form with cell-type-specific gene covariances estimated by a
bias-corrected moment regression, and propagates that uncertainty into
downstream analyses by resampling.
"""

__version__ = "0.1.0"

from .covest import (DecalsResult, SubjectCovariances, cross_validate_lambda,
                     run_decals, scad_threshold, subject_covariance)
from .deconv import (BulkMatrix, SignatureMatrix, align_genes,
                     estimate_proportions, sandwich, wald_intervals)
from .downstream import (CallDecision, ProportionDrawSet, aggregate_calls,
                         call_cutoff, sample_proportion_sets)
from .errors import DecalsError, NonConvergenceWarning
from .gls import gls_covariance, run_gls_iterative, solve_gls
from .io import read_bulk_tsv, read_signature_tsv
from .qp import nearest_psd, solve_simplex_ls
from .simgen import (CoverageReport, SimConfig, VErrorTable,
                     coverage_experiment, v_error_study)

__all__ = [
    "__version__",
    "DecalsResult", "cross_validate_lambda", "run_decals", "scad_threshold",
    "SubjectCovariances", "subject_covariance",
    "BulkMatrix", "SignatureMatrix", "align_genes", "estimate_proportions",
    "sandwich", "wald_intervals",
    "CallDecision", "ProportionDrawSet", "aggregate_calls", "call_cutoff",
    "sample_proportion_sets",
    "DecalsError", "NonConvergenceWarning",
    "gls_covariance", "run_gls_iterative", "solve_gls",
    "read_bulk_tsv", "read_signature_tsv",
    "nearest_psd", "solve_simplex_ls",
    "CoverageReport", "SimConfig", "VErrorTable", "coverage_experiment",
    "v_error_study",
]
