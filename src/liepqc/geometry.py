"""Fubini-Study pullback metric: pointwise, empirical, and spectral diagnostics.

The pointwise metric is g_ij = Re <d_i psi | d_j psi>_projected, built from
the phase-projected tangent frame.  The empirical metric averages g over
seeded parameter draws; the average uses a pairwise reduction tree keyed only
to the sample count, so it is bit-identical regardless of how samples were
scheduled across workers.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .util import pairwise_mean, rng_from, stack_size

RANK_REL_TOL = 1e-8
ZERO_METRIC_FLOOR = 1e-14


@dataclass(frozen=True)
class SamplingSpec:
    """Parameter distribution for empirical averages.

    ``uniform_periodic`` draws each component from [0, 2*pi); ``gaussian``
    draws sigma * N(0, 1) around the origin.  Sample s uses an independent
    stream derived from (seed, s).
    """

    distribution: str = "uniform_periodic"
    n_samples: int = 50
    seed: int = 0
    sigma: float = 1.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.distribution not in ("uniform_periodic", "gaussian"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def draw(self, num_params: int, index: int) -> np.ndarray:
        """Draw ``index``'s parameters; a gaussian draw that overflows, say
        at a sigma of 1e308, is a FloatingPointError that names the draw."""
        rng = rng_from(self.seed, "theta", index)
        if self.distribution == "uniform_periodic":
            return rng.uniform(0.0, 2.0 * np.pi, num_params)
        try:
            with np.errstate(over="raise"):
                return self.sigma * rng.standard_normal(num_params)
        except FloatingPointError as exc:
            raise FloatingPointError(f"parameter draw {index} overflowed: {exc}") from exc

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class MetricReport:
    """Empirical metric with spectrum, rank, effective dimension, conditioning."""

    metric: np.ndarray
    eigenvalues: np.ndarray      # descending
    rank: int
    d_eff: float
    kappa: float
    sample_spec: SamplingSpec

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "rank": self.rank,
            "d_eff": self.d_eff,
            "kappa": self.kappa,
            "n_samples": self.sample_spec.n_samples,
            "rank_rel_tol": RANK_REL_TOL,
            "sampling": self.sample_spec.to_json(),
        }


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------


def fs_metric_at(circuit, theta: np.ndarray) -> np.ndarray:
    """Pointwise pullback metric at one parameter point (symmetric PSD)."""
    return frame_metric(circuit.tangent_frame(theta))


def frame_metric(frame) -> np.ndarray:
    """Pullback metric from an already evaluated tangent frame, or one per
    draw of a stacked frame."""
    projected = frame.projected
    g = np.real(np.swapaxes(projected.conj(), -1, -2) @ projected)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def draw_frames(circuit, sampling: SamplingSpec):
    """(draw indices, stacked tangent frame) for each of ``sampling``'s
    draws, a stack at a time.

    Draw s is ``sampling.draw(num_params, s)`` from its own stream; a stack
    holds at most ``stack_size(circuit.dim)`` of them.
    """
    size = stack_size(circuit.dim)
    num = circuit.num_params
    for start in range(0, sampling.n_samples, size):
        chunk = range(start, min(start + size, sampling.n_samples))
        thetas = np.stack([sampling.draw(num, s) for s in chunk])
        yield chunk, circuit.tangent_frame(thetas)


def empirical_metric(circuit, sampling: SamplingSpec) -> MetricReport:
    """Average of the pointwise metric over seeded parameter draws."""
    num = circuit.num_params
    metrics = np.empty((sampling.n_samples, num, num))
    for chunk, frames in draw_frames(circuit, sampling):
        metrics[chunk] = frame_metric(frames)
    g_hat = pairwise_mean(metrics)
    return metric_report(g_hat, sampling)


def metric_report(g: np.ndarray, sampling: SamplingSpec) -> MetricReport:
    """Spectral report of a metric averaged over ``sampling``'s draws."""
    eigenvalues = np.linalg.eigvalsh(g)[::-1].copy()
    rank = metric_rank(eigenvalues)
    return MetricReport(
        metric=g,
        eigenvalues=eigenvalues,
        rank=rank,
        d_eff=effective_dimension(eigenvalues),
        kappa=condition_number(eigenvalues, rank) if rank >= 1 else np.inf,
        sample_spec=sampling,
    )


# ---------------------------------------------------------------------------
# Spectral functionals of a metric's descending eigenvalues
# ---------------------------------------------------------------------------


def _is_zero_metric(eigenvalues: np.ndarray) -> bool:
    return eigenvalues.size == 0 or eigenvalues[0] <= ZERO_METRIC_FLOOR


def effective_dimension(eigenvalues: np.ndarray) -> float:
    """Spectral participation ratio (Tr g)^2 / Tr(g^2); 0 for the zero metric."""
    if _is_zero_metric(eigenvalues):
        return 0.0
    s1 = float(np.sum(eigenvalues))
    s2 = float(np.sum(eigenvalues ** 2))
    return s1 * s1 / s2


def metric_rank(eigenvalues: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Eigenvalues above rel_tol times the largest one (0 for the zero metric)."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must be in (0, 1)")
    if _is_zero_metric(eigenvalues):
        return 0
    return int(np.sum(eigenvalues > rel_tol * eigenvalues[0]))


def condition_number(eigenvalues: np.ndarray, rank: int) -> float:
    """lambda_max / lambda_rank on the numerically resolved subspace.

    This is a pseudo condition number: rank-deficient metrics are conditioned
    on their resolved eigenvalues rather than reported as singular.
    """
    if rank < 1:
        raise ValueError("condition_number needs rank >= 1")
    return float(eigenvalues[0] / eigenvalues[rank - 1])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def spectrum_path(directory: str | Path, method: str, n: int) -> Path:
    """The spectrum file of a sweep's (n, method) cell."""
    return Path(directory) / f"spectrum_{method}_{n}.csv"


def write_spectrum_csv(path: str | Path, eigenvalues: np.ndarray) -> None:
    """Spectrum file with columns (index, eigenvalue), consumed by the plotter."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "eigenvalue"])
        for i, v in enumerate(eigenvalues):
            writer.writerow([i, repr(float(v))])


def read_spectrum_csv(path: str | Path) -> np.ndarray:
    """Inverse of :func:`write_spectrum_csv`; a row that is not (index,
    eigenvalue) is a ValueError."""
    with Path(path).open() as fh:
        rows = list(csv.reader(fh))
    return np.array([float(value) for _, value in rows[1:]])
