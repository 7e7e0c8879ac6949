"""Experiment orchestration: build, truncate, measure, optimize, persist.

One sweep cell is a (qubit count, method) pair, and each cell is one task.
A sweep hands its tasks out largest qubit count first, in method order, to
``util.run_tasks``, which runs them on one process or on a pool that it
keeps for later sweeps.  Consecutive cells of one (qubit count, depth) on
one process share the ``full_hea`` base circuit and the Lie closure of its
generators (:func:`_base_and_closure`), whether the cells belong to one
sweep or to consecutive sweeps.  Every cell derives its own RNG
stream from (master_seed, n, method), so results are independent of
execution order and worker count; record rows are sorted before writing
and floats are serialized with repr, which makes the CSV byte-reproducible.

Cell failures are caught and recorded with their traceback; the remaining
cells still run.  A failure while building the base or its closure is
recorded for every cell of that qubit count.
"""

from __future__ import annotations

import functools
import json
import logging
import numbers
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .circuits import MAX_QUBITS, CircuitSpec, build_ansatz
from .geometry import SamplingSpec, spectrum_path, write_spectrum_csv
from .lie import LieBasis, apply_lie_trunc, apply_random_trunc, lie_closure
from .trainability import LossSpec, gradient_variance, gradient_descent
from .util import _is_number, json_text, rng_from, run_tasks, stable_key, worker_count

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
    # processes: as given, but 1 in a process that multiprocessing started;
    # 0 = automatic: one per qubit count, up to the usable CPUs
    workers: int = 0

    def __post_init__(self):
        if not self.qubit_range:
            raise ConfigError("qubit_range is empty")
        integers = [("qubit_range entries", n) for n in self.qubit_range] + [
            (name, getattr(self, name)) for name in _INTEGER_FIELDS
        ] + [("sampling.n_samples", self.sampling.n_samples)]
        for name, value in integers:
            if not _is_number(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, not {value!r}")
        if any(not 1 <= n <= MAX_QUBITS for n in self.qubit_range):
            raise ConfigError(f"qubit_range entries must lie in [1, {MAX_QUBITS}]")
        if len(set(self.qubit_range)) < len(self.qubit_range):
            raise ConfigError(f"qubit_range repeats a qubit count: {self.qubit_range}")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.opt_steps < 0:
            raise ConfigError("opt_steps must be >= 0")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown methods {unknown}; choose from {KNOWN_METHODS}")
        if not self.methods:
            raise ConfigError("methods is empty")
        if len(set(self.methods)) < len(self.methods):
            raise ConfigError(f"methods repeats a method: {self.methods}")
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
        if not (_is_number(self.opt_rate) and self.opt_rate > 0):
            raise ConfigError("opt_rate must be a finite number > 0")
        sigma = self.sampling.sigma
        if not _is_number(sigma):
            raise ConfigError(f"sampling.sigma must be a finite number, not {sigma!r}")
        if self.sampling.n_samples < 2:
            raise ConfigError("sampling.n_samples must be >= 2 (each cell estimates a variance)")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError(f"out_dir must be a non-empty path string, not {self.out_dir!r}")

    def to_json(self) -> dict:
        """The fields in declaration order, the lists copied."""
        data = asdict(self)
        # each cell seeds its draws from master_seed, so sampling.seed is not a key
        del data["sampling"]["seed"]
        data["loss"] = self.loss.to_json()
        return data


_CONFIG_KEYS = {f.name for f in fields(SweepConfig)}
_INTEGER_FIELDS = [name for name, kind in get_type_hints(SweepConfig).items() if kind is int]
_SAMPLING_KEYS = {f.name for f in fields(SamplingSpec)} - {"seed"}
_LOSS_KEYS = {f.name for f in fields(LossSpec)}


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
                if loss.get("kind", LossSpec.kind) != "vqe_tfim":
                    raise ConfigError("loss.tfim_params is read only by kind 'vqe_tfim'")
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
    descent_cycle: list[int] | None = None
    stage_s: dict[str, float] = field(default_factory=dict)
    closure_s: float = 0.0
    eigenvalues: list[float] = field(default_factory=list, repr=False)
    loss_trajectory: list[float] = field(default_factory=list, repr=False)

    def csv_row(self) -> str:
        """The ``CSV_HEADER`` fields in order; floats are written with repr,
        which reads back to the same bits, the rest with str."""
        return ",".join(
            (repr if kind is float else str)(getattr(self, name))
            for name, kind in _CSV_FIELDS.items()
        )

    @classmethod
    def from_csv_row(cls, line: str) -> "SweepRecord":
        """Inverse of :meth:`csv_row`; fields outside the CSV keep their defaults."""
        cells = line.split(",")
        if len(cells) != len(_CSV_FIELDS):
            raise ValueError(f"expected {len(_CSV_FIELDS)} CSV cells, got {len(cells)}: {line!r}")
        return cls(**{name: kind(cell) for (name, kind), cell in zip(_CSV_FIELDS.items(), cells)})

    def to_json(self) -> dict:
        """The fields by name, not copied: ``util.json_text`` only reads them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the CSV's fields in order, each with its type
_RECORD_TYPES = get_type_hints(SweepRecord)
_CSV_FIELDS = {name: _RECORD_TYPES[name] for name in CSV_HEADER.split(",")}


def cell_seed(master_seed: int, n: int, method: str) -> int:
    """Stable per-cell seed, independent of execution order: the
    ``stable_key`` of the tag "master_seed:n:method"."""
    return stable_key(f"{master_seed}:{n}:{method}")[0]


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
    step up to the first step whose theta repeats an earlier one bit for
    bit; ``descent_cycle`` is that repeat's [start, period], or None
    (:func:`~liepqc.trainability.gradient_descent`).
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
    _, trajectory, cycle = gradient_descent(
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
        frames=variance.n_samples + (sum(cycle) if cycle else config.opt_steps),
        descent_cycle=list(cycle) if cycle else None,
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


@functools.lru_cache(maxsize=1)
def _base_and_closure(n: int, depth: int) -> tuple[CircuitSpec, LieBasis, float]:
    """The ``full_hea`` base circuit, the Lie closure of its generators and
    the seconds both took.

    They depend on (n, depth) alone.  The one-entry memo keeps those of the
    last (n, depth) this process built, so consecutive cells that ask for
    the same pair share them, in one sweep or across sweeps, and report the
    seconds of the one build.  A failed build is not kept, so each cell of
    that count records the failure.
    """
    start = time.perf_counter()
    base = build_ansatz("full_hea", n, depth)
    closure = lie_closure(base.skew_generators())
    return base, closure, time.perf_counter() - start


def _cell_task(
    args: tuple[SweepConfig, int, str]
) -> tuple[int, str, SweepRecord | None, dict | None]:
    """One (n, method) cell, as (n, method, record, failure)."""
    config, n, method = args
    try:
        base, closure, closure_s = _base_and_closure(n, config.depth)
        record = run_cell(config, n, method, base, closure)
    except Exception as exc:  # cell isolation: report, do not abort the sweep
        return n, method, None, _failure(exc)
    record.closure_s = closure_s
    _log_cell(record)
    return n, method, record, None


def _log_cell(record: SweepRecord) -> None:
    """One ``key=value`` line per finished cell at level INFO, from the
    process that ran it: ``frames`` is the count evaluated and
    ``descent_cycle`` the descent's ``start,period`` or ``none``."""
    stages = " ".join(f"{name}_s={secs:.6f}" for name, secs in record.stage_s.items())
    cycle = ",".join(map(str, record.descent_cycle)) if record.descent_cycle else "none"
    log.info(
        "cell n=%d method=%s frames=%d descent_cycle=%s closure_s=%.6f %s wall_s=%.6f",
        record.n, record.method, record.frames, cycle, record.closure_s, stages,
        record.wall_time,
    )


# ---------------------------------------------------------------------------
# Full sweep
# ---------------------------------------------------------------------------


def run_sweep(
    config: SweepConfig, write_files: bool = True
) -> tuple[list[SweepRecord], list[dict]]:
    """All (n, method) cells plus CSV / JSON / spectrum / figure outputs.

    One task per cell, the largest, slowest qubit count's cells first, in
    method order, so that count does not start last.  ``util.run_tasks``
    runs them on ``util.worker_count(config.workers, len(config.qubit_range))``
    processes: an explicit ``workers`` as given, the automatic 0 one per
    qubit count up to the usable CPUs, and 1 in a process that
    multiprocessing started.  One process runs the tasks here in that
    order, more run them on ``run_tasks``'s reused pool, where workers
    beyond the number of cells idle; ``records.json`` gives that count as
    ``workers``.  A cell reuses the base and closure its process built last
    when they are of its (n, depth), in this sweep or an earlier one
    (:func:`_base_and_closure`).  Outcomes are sorted afterwards.
    When it writes files, ``out_dir`` is created before the first cell, and
    a path that cannot be a directory is a :class:`ConfigError`.
    """
    if write_files:
        try:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out_dir {config.out_dir}: {type(exc).__name__}: {exc}") from exc
    workers = worker_count(config.workers, len(config.qubit_range))
    tasks = [
        (config, n, method)
        for n in sorted(config.qubit_range, reverse=True)
        for method in config.methods
    ]
    outcomes = run_tasks(_cell_task, tasks, workers)

    method_order = {m: i for i, m in enumerate(config.methods)}
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
    """The sweep's files; ``records.json`` gives ``workers``, the processes
    the cells ran on, beside the config."""
    out = Path(config.out_dir)
    (out / "records.csv").write_text(records_csv_text(records))
    payload = {
        "config": config.to_json(),
        "workers": workers,
        "records": [r.to_json() for r in records],
        "errors": errors,
    }
    (out / "records.json").write_text(json_text(payload) + "\n")
    spectra = {(r.method, r.n): np.array(r.eigenvalues) for r in records}
    for (method, n), eigenvalues in spectra.items():
        write_spectrum_csv(spectrum_path(out, method, n), eigenvalues)
    from .plots import emit_plots

    if records:
        emit_plots(records, out, spectra=spectra)
