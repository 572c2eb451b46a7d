"""Robust L1-norm kernel PCA.

Extracts principal directions in kernel feature space by maximizing the
L1-norm of projections via a sign-vector fixed-point iteration, with
kernel-trick scoring and deflation, an L2-norm eigendecomposition
baseline, an exhaustive small-instance oracle, and outlier-detection and
robustness-benchmark tooling on top.
"""

__version__ = "0.1.0"

from .errors import (DegenerateComponent, InstanceTooLarge, InvalidData, L1KpcaError,
                     NonConvergence, NumericalFailure, ParseError, SchemaError)
from .kernel import (Dataset, GramMatrix, KernelSpec, cross_gram, gram, kernel_eval,
                     standardize, standardize_with)
from .l1 import (ComponentModel, ConvergenceReport, FitOptions, KpcaModel, deflate, fit,
                 fit_component, sign_update, train_scores, transform)
from .l2 import EigenModel, l2_fit, l2_scores
from .oracle import OracleResult, enumerate_sign_vectors, maxcut_objective
from .detect import (DetectionModel, PRCurve, build_detector, classify, outlier_scores,
                     pr_auc, select_alpha)
from .experiments import (RobustnessResult, SynthConfig, robustness_sweep, runtime_bench,
                          synth_generate, total_explained_variation)
from .io import DatasetFile, read_csv, read_model, write_csv, write_model

__all__ = [
    "__version__",
    "L1KpcaError", "InvalidData", "ParseError", "SchemaError", "DegenerateComponent",
    "NonConvergence", "NumericalFailure", "InstanceTooLarge",
    "Dataset", "KernelSpec", "GramMatrix", "standardize", "standardize_with",
    "kernel_eval", "gram", "cross_gram",
    "FitOptions", "ConvergenceReport", "ComponentModel", "KpcaModel", "sign_update",
    "fit_component", "fit", "deflate", "train_scores", "transform",
    "EigenModel", "l2_fit", "l2_scores",
    "OracleResult", "enumerate_sign_vectors", "maxcut_objective",
    "DetectionModel", "PRCurve", "select_alpha", "outlier_scores", "classify",
    "pr_auc", "build_detector",
    "SynthConfig", "RobustnessResult", "synth_generate", "total_explained_variation",
    "robustness_sweep", "runtime_bench",
    "DatasetFile", "read_csv", "write_csv", "write_model", "read_model",
]
