"""Lie-algebraic analysis lab for parameterized quantum circuits."""

__version__ = "0.1.0"

from .pauli import PauliSum
from .circuits import CircuitSpec, ParamSlot, FixedGate, build_ansatz
from .lie import LieBasis, TruncationReport, lie_closure, lie_trunc, random_trunc, truncated_circuit
from .geometry import (
    SamplingSpec,
    MetricReport,
    fs_metric_at,
    empirical_metric,
    effective_dimension,
    metric_rank,
    condition_number,
)
from .trainability import (
    LossSpec,
    VarianceReport,
    loss_and_gradient,
    svd_chain_rule,
    gradient_variance,
)
from .robustness import PerturbationTrial, perturbation_bound_check

__all__ = [
    "PauliSum",
    "CircuitSpec",
    "ParamSlot",
    "FixedGate",
    "build_ansatz",
    "LieBasis",
    "TruncationReport",
    "lie_closure",
    "lie_trunc",
    "random_trunc",
    "truncated_circuit",
    "SamplingSpec",
    "MetricReport",
    "fs_metric_at",
    "empirical_metric",
    "effective_dimension",
    "metric_rank",
    "condition_number",
    "LossSpec",
    "VarianceReport",
    "loss_and_gradient",
    "svd_chain_rule",
    "gradient_variance",
    "PerturbationTrial",
    "perturbation_bound_check",
]
