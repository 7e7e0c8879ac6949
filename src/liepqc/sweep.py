"""Experiment orchestration: build, truncate, measure, optimize, persist.

One sweep cell is a (qubit count, method) pair.  A task runs some method
cells of one qubit count: it builds the ``full_hea`` base circuit and the Lie
closure of its generators once and hands both to each of its cells.  A
serial sweep runs one task per qubit count, with all of its methods; a pool
runs one task per cell, so the cells of the largest count spread over the
workers.  Every cell derives its own RNG stream from (master_seed, n,
method), so results are independent of execution order and worker count;
record rows are sorted before writing and floats are serialized with repr,
which makes the CSV byte-reproducible.

Cell failures are caught and recorded with their traceback; the remaining
cells still run.  A failure while building the base or its closure is
recorded for every method of that task.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import multiprocessing
import numbers
import os
import time
import traceback
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .circuits import CircuitSpec, build_ansatz
from .geometry import SamplingSpec, write_spectrum_csv
from .lie import LieBasis, apply_lie_trunc, apply_random_trunc, lie_closure
from .trainability import LossSpec, gradient_variance, gradient_descent
from .util import _one_blas_thread, rng_from

CSV_HEADER = (
    "n,method,seed,d_eff,rank,kappa,var_grad_mean,var_grad_first,"
    "product_var_deff,loss_final,closure_dim,truncated_dim,closure_defect"
)

KNOWN_METHODS = ("full", "random_trunc", "lie_trunc")

log = logging.getLogger(__name__)

# Master seed shipped with the default config.  Chosen once so the seeded
# keep-2 random truncation at n=6 lands on two single-qubit directions on
# distinct qubits (the representative collapse case: exact rank 2).
DEFAULT_MASTER_SEED = 14


class ConfigError(ValueError):
    """Invalid sweep configuration (unknown key, bad value)."""


def _is_number(value, kind=numbers.Real) -> bool:
    """An instance of ``kind`` that is not a bool (JSON ``true`` must not pass as 1)."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class SweepConfig:
    qubit_range: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    depth: int = 1
    methods: list[str] = field(default_factory=lambda: list(KNOWN_METHODS))
    sampling: SamplingSpec = field(default_factory=lambda: SamplingSpec(n_samples=50))
    loss: LossSpec = field(default_factory=LossSpec)
    random_keep: int = 2
    lie_depth_cap: int = 1
    lie_dim_budget: int = 0          # 0 = automatic: the generator span dimension
    opt_steps: int = 100
    opt_rate: float = 0.1
    master_seed: int = DEFAULT_MASTER_SEED
    out_dir: str = "results"
    workers: int = 0                 # 0 = automatic: one per qubit count, up to the CPUs

    def __post_init__(self):
        if not self.qubit_range:
            raise ConfigError("qubit_range is empty")
        integers = [("qubit_range entries", n) for n in self.qubit_range] + [
            ("depth", self.depth),
            ("opt_steps", self.opt_steps),
            ("random_keep", self.random_keep),
            ("lie_depth_cap", self.lie_depth_cap),
            ("lie_dim_budget", self.lie_dim_budget),
            ("master_seed", self.master_seed),
            ("workers", self.workers),
            ("sampling.n_samples", self.sampling.n_samples),
        ]
        for name, value in integers:
            if not _is_number(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        if any(not 1 <= n <= 10 for n in self.qubit_range):
            raise ConfigError("qubit_range entries must lie in [1, 10]")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.opt_steps < 0:
            raise ConfigError("opt_steps must be >= 0")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; choose from {KNOWN_METHODS}")
        if self.workers < 0:
            raise ConfigError(
                "workers must be >= 0 (0 = one per qubit count, up to the usable CPUs)"
            )
        # the HEA has 2n distinct generator directions (R_Y and R_Z per qubit),
        # which span its generator space
        max_keep = 2 * min(self.qubit_range)
        if "random_trunc" in self.methods and not 1 <= self.random_keep <= max_keep:
            raise ConfigError(
                f"random_keep must lie in [1, {max_keep}] (2 * smallest qubit count)"
            )
        if self.lie_depth_cap < 0:
            raise ConfigError("lie_depth_cap must be >= 0")
        if self.lie_dim_budget < 0:
            raise ConfigError("lie_dim_budget must be >= 0 (0 = generator span dimension)")
        span_dim = 2 * max(self.qubit_range)
        if "lie_trunc" in self.methods and 0 < self.lie_dim_budget < span_dim:
            raise ConfigError(
                f"lie_dim_budget must be 0 or >= {span_dim} (2 * largest qubit count)"
            )
        if not (_is_number(self.opt_rate) and math.isfinite(self.opt_rate) and self.opt_rate > 0):
            raise ConfigError("opt_rate must be a finite number > 0")
        sigma = self.sampling.sigma
        if not (_is_number(sigma) and math.isfinite(sigma)):
            raise ConfigError(f"sampling.sigma must be a finite number, not {sigma!r}")
        if self.sampling.n_samples < 2:
            raise ConfigError("sampling.n_samples must be >= 2 (each cell estimates a variance)")

    def to_json(self) -> dict:
        return {
            "qubit_range": list(self.qubit_range),
            "depth": self.depth,
            "methods": list(self.methods),
            # each cell seeds its draws from master_seed, so sampling.seed is not a key
            "sampling": {
                "distribution": self.sampling.distribution,
                "n_samples": self.sampling.n_samples,
                "sigma": self.sampling.sigma,
            },
            "loss": self.loss.to_json(),
            "random_keep": self.random_keep,
            "lie_depth_cap": self.lie_depth_cap,
            "lie_dim_budget": self.lie_dim_budget,
            "opt_steps": self.opt_steps,
            "opt_rate": self.opt_rate,
            "master_seed": self.master_seed,
            "out_dir": self.out_dir,
            "workers": self.workers,
        }


_CONFIG_KEYS = set(SweepConfig().to_json().keys())
_SAMPLING_KEYS = set(SweepConfig().to_json()["sampling"].keys())
_LOSS_KEYS = {"kind", "tfim_params"}


def config_from_dict(data: dict) -> SweepConfig:
    """Build a config from a JSON document; unknown keys and bad values are errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"a config must be a JSON object, not {type(data).__name__}")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("sampling", "loss"):
        if key in kwargs and not isinstance(kwargs[key], dict):
            raise ConfigError(f"{key} must be a JSON object, not {type(kwargs[key]).__name__}")
    try:
        if "sampling" in kwargs:
            samp = kwargs["sampling"]
            bad = set(samp) - _SAMPLING_KEYS
            if bad:
                raise ConfigError(f"unknown sampling keys: {sorted(bad)}")
            kwargs["sampling"] = SamplingSpec(**samp)
        if "loss" in kwargs:
            loss = dict(kwargs["loss"])
            bad = set(loss) - _LOSS_KEYS
            if bad:
                raise ConfigError(f"unknown loss keys: {sorted(bad)}")
            if "tfim_params" in loss:
                loss["tfim_params"] = tuple(loss["tfim_params"])
            kwargs["loss"] = LossSpec(**loss)
        return SweepConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> SweepConfig:
    with Path(path).open() as fh:
        return config_from_dict(json.load(fh))


@dataclass
class SweepRecord:
    n: int
    method: str
    seed: int
    d_eff: float
    rank: int
    kappa: float
    var_grad_mean: float
    var_grad_first: float
    product_var_deff: float
    loss_final: float
    closure_dim: int
    truncated_dim: int
    closure_defect: float
    wall_time: float = 0.0
    frames: int = 0
    stage_s: dict[str, float] = field(default_factory=dict)
    closure_s: float = 0.0
    eigenvalues: list[float] = field(default_factory=list, repr=False)
    loss_trajectory: list[float] = field(default_factory=list, repr=False)

    def csv_row(self) -> str:
        cells = [
            str(self.n),
            self.method,
            str(self.seed),
            repr(self.d_eff),
            str(self.rank),
            repr(self.kappa),
            repr(self.var_grad_mean),
            repr(self.var_grad_first),
            repr(self.product_var_deff),
            repr(self.loss_final),
            str(self.closure_dim),
            str(self.truncated_dim),
            repr(self.closure_defect),
        ]
        return ",".join(cells)

    @classmethod
    def from_csv_row(cls, line: str) -> "SweepRecord":
        """Inverse of :meth:`csv_row`; fields outside the CSV keep their defaults."""
        names = CSV_HEADER.split(",")
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"expected {len(names)} CSV cells, got {len(cells)}: {line!r}")
        types = get_type_hints(cls)
        return cls(**{name: types[name](cell) for name, cell in zip(names, cells)})

    def to_json(self) -> dict:
        return asdict(self)


def cell_seed(master_seed: int, n: int, method: str) -> int:
    """Stable per-cell seed, independent of execution order."""
    digest = hashlib.sha256(f"{master_seed}:{n}:{method}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# One cell
# ---------------------------------------------------------------------------


def run_cell(
    config: SweepConfig, n: int, method: str, base: CircuitSpec, closure: LieBasis
) -> SweepRecord:
    """One (n, method) cell on the shared ``full_hea`` base and its closure.

    The record's ``stage_s`` gives the seconds of the cell's three stages:
    ``truncate`` (building the method's model), ``variance`` (the draws'
    frames, metric and gradient variance) and ``descent``.  ``frames``
    counts the tangent frames evaluated: one per draw and one per descent
    step.
    """
    start = time.perf_counter()
    seed = cell_seed(config.master_seed, n, method)

    if method == "full":
        model = base
        truncated_dim = closure.dim
        defect = closure.closure_defect
    elif method == "random_trunc":
        model, _, rep = apply_random_trunc(base, keep=config.random_keep, seed=seed)
        truncated_dim = rep.truncated_dim
        defect = rep.closure_defect_after
    elif method == "lie_trunc":
        budget = config.lie_dim_budget if config.lie_dim_budget > 0 else None
        model, _, rep = apply_lie_trunc(
            base, closure, depth_cap=config.lie_depth_cap, dim_budget=budget
        )
        truncated_dim = rep.truncated_dim
        defect = rep.closure_defect_after
    else:
        raise ValueError(f"unknown method {method!r}")

    truncated = time.perf_counter()
    sampling = replace(config.sampling, seed=seed)
    variance = gradient_variance(model, config.loss, sampling)
    metric = variance.metric

    varied = time.perf_counter()
    theta0 = rng_from(seed, "theta0").uniform(0.0, 2.0 * np.pi, model.num_params)
    _, trajectory = gradient_descent(
        model, config.loss, theta0, config.opt_steps, config.opt_rate
    )
    end = time.perf_counter()

    return SweepRecord(
        n=n,
        method=method,
        seed=config.master_seed,
        d_eff=metric.d_eff,
        rank=metric.rank,
        kappa=metric.kappa,
        var_grad_mean=variance.mean_component_variance,
        var_grad_first=variance.first_component_variance,
        product_var_deff=variance.product_var_deff,
        loss_final=float(trajectory[-1]),
        closure_dim=closure.dim,
        truncated_dim=truncated_dim,
        closure_defect=defect,
        wall_time=end - start,
        frames=variance.n_samples + len(trajectory) - 1,
        stage_s={"truncate": truncated - start, "variance": varied - truncated,
                 "descent": end - varied},
        eigenvalues=[float(v) for v in metric.eigenvalues],
        loss_trajectory=[float(v) for v in trajectory],
    )


def _failure(exc: Exception) -> dict:
    """Error entry of a failed cell; called inside an ``except`` block.

    The traceback is formatted here, in the process that raised, because
    traceback objects do not pickle across the worker pool.
    """
    return {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}


def _cells_task(
    args: tuple[SweepConfig, int, Sequence[str]]
) -> list[tuple[int, str, SweepRecord | None, dict | None]]:
    """The given method cells of one qubit count, sharing one base and one closure."""
    config, n, methods = args
    start = time.perf_counter()
    try:
        base = build_ansatz("full_hea", n, config.depth)
        closure = lie_closure(base.skew_generators())
    except Exception as exc:  # no cell of this task can run: each records the failure
        failure = _failure(exc)
        return [(n, method, None, failure) for method in methods]
    closure_s = time.perf_counter() - start
    outcomes = []
    for method in methods:
        try:
            record = run_cell(config, n, method, base, closure)
        except Exception as exc:  # cell isolation: report, do not abort the sweep
            outcomes.append((n, method, None, _failure(exc)))
            continue
        record.closure_s = closure_s
        _log_cell(record)
        outcomes.append((n, method, record, None))
    return outcomes


def _log_cell(record: SweepRecord) -> None:
    """One ``key=value`` line per finished cell at level INFO, from the
    process that ran it."""
    stages = " ".join(f"{name}_s={secs:.6f}" for name, secs in record.stage_s.items())
    log.info(
        "cell n=%d method=%s frames=%d closure_s=%.6f %s wall_s=%.6f",
        record.n, record.method, record.frames, record.closure_s, stages, record.wall_time,
    )


# ---------------------------------------------------------------------------
# Full sweep
# ---------------------------------------------------------------------------


def _resolve_workers(config: SweepConfig) -> int:
    """Processes a sweep of ``config`` runs on.

    An explicit ``workers`` is used as given.  The automatic 0 gives one
    process per qubit count, up to the CPUs this process may run on;
    inside a process that a multiprocessing pool started it gives 1, so a
    sweep in a pool child never starts a pool of its own.
    """
    if config.workers:
        return config.workers
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(len(config.qubit_range), cpus)


def run_sweep(
    config: SweepConfig, write_files: bool = True
) -> tuple[list[SweepRecord], list[dict]]:
    """All (n, method) cells plus CSV / JSON / spectrum / figure outputs.

    With more than one worker (:func:`_resolve_workers`) a process pool maps
    over the cells, one task each, so workers beyond their number idle.  It
    takes the largest, slowest count's cells first, in method order, so that
    count does not start last; each pooled task builds its own base and
    closure.  Outcomes are sorted afterwards either way.  The pool's workers
    run BLAS on one thread.  One worker runs one task per qubit count here,
    with no pool, so each count builds one base and one closure.
    """
    workers = _resolve_workers(config)
    if workers > 1:
        tasks = [
            (config, n, (method,))
            for n in sorted(config.qubit_range, reverse=True)
            for method in config.methods
        ]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_one_blas_thread
        ) as pool:
            per_task = list(pool.map(_cells_task, tasks))
    else:
        per_task = [_cells_task((config, n, config.methods)) for n in config.qubit_range]

    method_order = {m: i for i, m in enumerate(config.methods)}
    outcomes = [o for task_outcomes in per_task for o in task_outcomes]
    outcomes.sort(key=lambda o: (o[0], method_order[o[1]]))
    records = [rec for _, _, rec, err in outcomes if rec is not None]
    errors = [
        {"n": n, "method": m, **err}
        for n, m, rec, err in outcomes
        if err is not None
    ]

    if write_files:
        write_outputs(config, records, errors, workers)
    return records, errors


def records_csv_text(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in records)
    return "\n".join(lines) + "\n"


def write_outputs(
    config: SweepConfig, records: list[SweepRecord], errors: list[dict], workers: int
) -> None:
    """The sweep's files; ``records.json`` gives ``workers``, the resolved
    process count, beside the config."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(records_csv_text(records))
    payload = {
        "config": config.to_json(),
        "workers": workers,
        "records": [r.to_json() for r in records],
        "errors": errors,
    }
    (out / "records.json").write_text(json.dumps(payload, indent=2) + "\n")
    for rec in records:
        write_spectrum_csv(
            out / f"spectrum_{rec.method}_{rec.n}.csv", np.array(rec.eigenvalues)
        )
    from .plots import emit_plots

    spectra = {(r.method, r.n): np.array(r.eigenvalues) for r in records}
    if records:
        emit_plots(records, out, spectra=spectra)
