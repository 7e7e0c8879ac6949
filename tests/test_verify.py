"""Verification machinery: oracle sanity, mutation sensitivity, report shape."""

import dataclasses

import numpy as np
import pytest

import liepqc.verify as verify_mod
from liepqc.circuits import CircuitSpec, ParamSlot, TangentFrame
from liepqc.geometry import SamplingSpec, fs_metric_at
from liepqc.pauli import PauliSum, PauliString
from liepqc.sweep import SweepConfig, run_sweep
from liepqc.verify import brute_force_closure_dim, check_determinism_and_budget, verify_suite
from liepqc.lie import lie_closure


def test_oracle_known_algebras():
    x = PauliString(1, "X").dense()
    z = PauliString(1, "Z").dense()
    assert brute_force_closure_dim([1j * x]) == 1
    assert brute_force_closure_dim([1j * x, 1j * z]) == 3   # su(2)
    # {X1, Z1, X2, Z2, Z1Z2} generates su(4)
    gens = [1j * PauliString(2, w).dense() for w in ("XI", "ZI", "IX", "IZ", "ZZ")]
    assert brute_force_closure_dim(gens) == 15


def test_oracle_agrees_with_closure_on_combination_generators():
    rng = np.random.default_rng(51)
    for _ in range(5):
        terms_a = {"XI": float(rng.normal()), "ZZ": float(rng.normal())}
        terms_b = {"IY": float(rng.normal()), "YX": float(rng.normal())}
        a = 1j * PauliSum(2, terms_a)
        b = 1j * PauliSum(2, terms_b)
        assert lie_closure([a, b]).dim == brute_force_closure_dim([a.dense(), b.dense()])


def test_mutation_dropping_phase_projection_is_detected(monkeypatch):
    """Killing the global-phase projection must flip a frozen metric value."""

    def unprojected_build(cls, state, partials):
        return TangentFrame(state=state, partials=partials, projected=partials)

    monkeypatch.setattr(TangentFrame, "build", classmethod(unprojected_build))
    # stabilizer direction: correct metric is exactly 0, mutated one is 1
    c = CircuitSpec(1, [ParamSlot(PauliSum.from_letters(1, "Z"))])
    mutated = fs_metric_at(c, np.array([0.7]))
    assert mutated[0, 0] == pytest.approx(1.0, abs=1e-12)   # bug visible


def test_verify_suite_reduced_config():
    cfg = SweepConfig(qubit_range=[2, 3])
    cfg.sampling = SamplingSpec(n_samples=10, seed=0)
    report = verify_suite(cfg, include_invariants=False)
    assert {c["name"] for c in report["checks"]} == {
        "span_rank_bound",
        "random_trunc_collapse",
        "span_preservation_rank_match",
        "scaling_law_signature",
        "gradient_exactness",
        "metric_consistency",
        "closure_oracle_equivalence",
        "perturbation_bound",
        "vqe_sanity",
        "determinism_and_budget",
    }
    for chk in report["checks"]:
        assert isinstance(chk["margin"], float)
        assert chk["detail"]
    assert report["passed"] is True


def test_determinism_check_fails_when_first_run_differs():
    cfg = SweepConfig(qubit_range=[2, 3], methods=["full", "lie_trunc"], opt_steps=3)
    cfg.sampling = SamplingSpec(n_samples=5, seed=0)
    records, errors = run_sweep(cfg, write_files=False)
    assert check_determinism_and_budget(cfg, first_run=(records, errors, 0.0))["passed"]

    nudged = list(records)
    nudged[1] = dataclasses.replace(records[1], d_eff=float(np.nextafter(records[1].d_eff, 3.0)))
    result = check_determinism_and_budget(cfg, first_run=(nudged, errors, 0.0))
    assert not result["passed"]
    assert result["detail"].startswith("identical=False, errors=0")

    failed = [{"n": 2, "method": "full", "error": "RuntimeError: injected"}]
    result = check_determinism_and_budget(cfg, first_run=(records, failed, 0.0))
    assert not result["passed"]
    assert result["detail"].startswith("identical=True, errors=1")


def test_verify_suite_runs_three_default_sweeps(monkeypatch):
    calls = []

    def counting_run_sweep(config, write_files=True):
        calls.append(config.workers)
        return run_sweep(config, write_files=write_files)

    monkeypatch.setattr(verify_mod, "run_sweep", counting_run_sweep)
    report = verify_suite(SweepConfig())
    assert calls == [1, 1, 2]   # shared, serial repeat, workers=2
    assert report["passed"] is True
    assert 0.0 < report["shared_sweep_s"]
    for chk in report["checks"]:
        assert set(chk) == {"name", "passed", "margin", "detail", "label", "seconds"}
        assert chk["seconds"] >= 0.0
