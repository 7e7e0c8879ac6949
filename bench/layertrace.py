"""Layer tracing from outside the library.

``Tracer.install`` wraps the public functions listed in ``TRACED`` at run
time.  A module-level function is replaced at every binding site, since
``from .x import y`` copies the name into ``liepqc.sweep``, ``liepqc.verify``
and the package namespace; a method is replaced on its class.  Each call
records a span (name, start, end, parent, pass id) in memory; ``write``
saves them when the run ends.  ``uninstall`` restores every original, so
untraced passes run the library exactly as shipped.

Spans from the ``workers=2`` process pool that ``verify`` starts are not
captured: the pool's children record into their own copy of the tracer,
which is discarded when they exit.

A span's self time is its duration minus the durations of its direct
children.  Each pass is the root span ``pass``; its self time is the part of
the pass spent outside every traced function (``untraced.self_s``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time
from array import array

LAYERS = (
    "pauli", "linalg", "circuits", "lie", "geometry",
    "trainability", "robustness", "sweep", "plots", "verify",
)

# (module, attribute) pairs; the span is named "<module>.<last attribute part>".
TRACED = [
    ("pauli", "PauliSum.commutator"),
    ("pauli", "PauliSum.dense"),
    ("linalg", "expm_skew"),
    ("linalg", "hermitian_eig"),
    ("linalg", "op_norm"),
    ("circuits", "CircuitSpec.tangent_frame"),
    ("circuits", "CircuitSpec.evolve"),
    ("circuits", "build_ansatz"),
    ("lie", "lie_closure"),
    ("lie", "lie_trunc"),
    ("lie", "random_trunc"),
    ("lie", "apply_lie_trunc"),
    ("lie", "apply_random_trunc"),
    ("lie", "truncated_circuit"),
    ("geometry", "fs_metric_at"),
    ("geometry", "empirical_metric"),
    ("geometry", "metric_report"),
    ("trainability", "LossSpec.observable_dense"),
    ("trainability", "loss_and_gradient"),
    ("trainability", "svd_chain_rule"),
    ("trainability", "gradient_variance"),
    ("trainability", "gradient_descent"),
    ("trainability", "ground_energy"),
    ("robustness", "trial_batch"),
    ("robustness", "perturbation_bound_check"),
    ("sweep", "run_sweep"),
    ("sweep", "run_cell"),
    ("sweep", "write_outputs"),
    ("plots", "emit_plots"),
    ("verify", "verify_suite"),
    ("verify", "brute_force_closure_dim"),
]

# The verify checks are traced too; they are found in verify's check lists.
CHECK_LISTS = ("ACCEPTANCE_CHECKS", "INVARIANT_CHECKS")

# Truncation spans; lie.truncation.self_s sums their self time.
TRUNCATION = (
    "lie.lie_trunc", "lie.random_trunc", "lie.apply_lie_trunc",
    "lie.apply_random_trunc", "lie.truncated_circuit",
)


def _generator_set_key(args, kwargs):
    generators = args[0] if args else kwargs["generators"]
    return tuple(tuple(sorted(g.terms.items())) for g in generators)


def _observable_key(args, kwargs):
    loss, n_qubits = args[0], args[1] if len(args) > 1 else kwargs["n_qubits"]
    observable = loss.observable
    if observable is not None and hasattr(observable, "to_text"):
        observable = observable.to_text()
    elif observable is not None:
        observable = id(observable)
    return (n_qubits, loss.kind, tuple(loss.tfim_params), observable)


# Spans whose distinct inputs are counted, for the reuse ratios.
DISTINCT_KEYS = {
    "lie.lie_closure": _generator_set_key,
    "trainability.observable_dense": _observable_key,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = ["pass"]
        self._ids = {"pass": 0}
        self.name_ids = array("i")
        self.parents = array("i")
        self.pass_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self._pass_id = -1
        self._pass_first = 0
        self._keys: dict[str, set] = {}
        self._closure_elements = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.pass_ids.append(self._pass_id)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        self.ends[idx] = time.perf_counter()
        self.starts[idx] = start
        self._stack.pop()

    def begin_pass(self, pass_id: int) -> None:
        self._pass_id = pass_id
        self._pass_first = len(self.name_ids)
        self._keys = {name: set() for name in DISTINCT_KEYS}
        self._closure_elements = 0
        self._root = self._open(0)
        self._root_start = time.perf_counter()

    def end_pass(self) -> dict:
        self._close(self._root, self._root_start)
        return self._layer_metrics()

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        key_of = DISTINCT_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key_of is not None:
                self._keys[name].add(key_of(args, kwargs))
            idx = self._open(name_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if name == "lie.lie_closure":
                self._closure_elements += result.dim
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"liepqc.{layer}")
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "liepqc"]
        replaced = {}
        for module_name, attr in TRACED:
            module = sys.modules[f"liepqc.{module_name}"]
            span = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, method, self._wrap(span, cls.__dict__[method]))
            else:
                original = getattr(module, attr)
                replaced[original] = self._wrap(span, original)
        verify = sys.modules["liepqc.verify"]
        for list_name in CHECK_LISTS:
            for entry in getattr(verify, list_name):
                fn = entry[1] if isinstance(entry, tuple) else entry
                replaced[fn] = self._wrap(f"verify.{fn.__name__}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replaced:
                    self._set(module, attr, replaced[value])
        for list_name in CHECK_LISTS:
            entries = getattr(verify, list_name)
            self._set(verify, list_name, [
                (e[0], replaced[e[1]]) if isinstance(e, tuple) else replaced[e]
                for e in entries
            ])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def _span_table(self) -> dict[str, dict]:
        """Per span name: calls, self time and inclusive durations, this pass."""
        first = self._pass_first
        count = len(self.name_ids) - first
        duration = [self.ends[first + i] - self.starts[first + i] for i in range(count)]
        child = [0.0] * count
        for i in range(1, count):
            child[self.parents[first + i] - first] += duration[i]
        table: dict[str, dict] = {}
        for i in range(count):
            row = table.setdefault(
                self.names[self.name_ids[first + i]],
                {"calls": 0, "self_s": 0.0, "durations": []},
            )
            row["calls"] += 1
            row["self_s"] += duration[i] - child[i]
            row["durations"].append(duration[i])
        return table

    def _layer_metrics(self) -> dict[str, float]:
        table = self._span_table()
        empty = {"calls": 0, "self_s": 0.0, "durations": []}

        def row(name):
            return table.get(name, empty)

        def median(values, scale=1.0):
            return statistics.median(values) * scale if values else 0.0

        def ratio(name):
            calls = row(name)["calls"]
            return len(self._keys[name]) / calls if calls else 0.0

        cells = row("sweep.run_cell")["durations"]
        out = {
            "circuits.tangent_frame.calls": row("circuits.tangent_frame")["calls"],
            "circuits.tangent_frame.self_s": row("circuits.tangent_frame")["self_s"],
            "circuits.tangent_frame.p50_ms": median(row("circuits.tangent_frame")["durations"], 1e3),
            "circuits.build_ansatz.self_s": row("circuits.build_ansatz")["self_s"],
            "lie.lie_closure.calls": row("lie.lie_closure")["calls"],
            "lie.lie_closure.self_s": row("lie.lie_closure")["self_s"],
            "lie.closure_elements": self._closure_elements,
            "lie.closure_reuse": ratio("lie.lie_closure"),
            "lie.truncation.self_s": sum(row(n)["self_s"] for n in TRUNCATION),
            "pauli.commutator.calls": row("pauli.commutator")["calls"],
            "pauli.commutator.self_s": row("pauli.commutator")["self_s"],
            "pauli.dense.calls": row("pauli.dense")["calls"],
            "pauli.dense.self_s": row("pauli.dense")["self_s"],
            "geometry.fs_metric_at.calls": row("geometry.fs_metric_at")["calls"],
            "geometry.empirical_metric.self_s": row("geometry.empirical_metric")["self_s"],
            "geometry.metric_report.self_s": row("geometry.metric_report")["self_s"],
            "trainability.loss_and_gradient.calls": row("trainability.loss_and_gradient")["calls"],
            "trainability.loss_and_gradient.self_s": row("trainability.loss_and_gradient")["self_s"],
            "trainability.observable_dense.calls": row("trainability.observable_dense")["calls"],
            "trainability.observable_reuse": ratio("trainability.observable_dense"),
            "trainability.gradient_variance.self_s": row("trainability.gradient_variance")["self_s"],
            "trainability.gradient_descent.self_s": row("trainability.gradient_descent")["self_s"],
            "sweep.run_cell.calls": row("sweep.run_cell")["calls"],
            "sweep.cell_s.p50": median(cells),
            "sweep.cell_s.max": max(cells, default=0.0),
            "sweep.write_outputs.self_s": row("sweep.write_outputs")["self_s"],
            "plots.emit_plots.self_s": row("plots.emit_plots")["self_s"],
            "robustness.trial_batch.self_s": row("robustness.trial_batch")["self_s"],
            "robustness.perturbation_bound_check.calls": row("robustness.perturbation_bound_check")["calls"],
            "linalg.expm_skew.calls": row("linalg.expm_skew")["calls"],
            "linalg.expm_skew.self_s": row("linalg.expm_skew")["self_s"],
            "verify.brute_force_closure_dim.self_s": row("verify.brute_force_closure_dim")["self_s"],
        }
        for name in self.names:
            if name.startswith("verify.check_"):
                out[f"verify.{name[len('verify.check_'):]}.s"] = sum(row(name)["durations"])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                r["self_s"] for n, r in table.items() if n.split(".")[0] == layer
            )
        out["untraced.self_s"] = row("pass")["self_s"]
        out["trace.wall_s"] = row("pass")["durations"][0]
        return out

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Save every span of the run: [name, start, end, parent, pass]."""
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start", "end", "parent", "pass"],
                "spans": [
                    [self.name_ids[i], self.starts[i], self.ends[i], self.parents[i], self.pass_ids[i]]
                    for i in range(len(self.name_ids))
                ],
            }, fh)
