"""Verification machinery: oracle sanity, mutation sensitivity, report shape."""

import dataclasses
import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import liepqc.verify as verify_mod
from liepqc.circuits import CircuitSpec, ParamSlot, TangentFrame
from liepqc.geometry import SamplingSpec, fs_metric_at
from liepqc.pauli import PauliSum
from liepqc.sweep import SweepConfig, run_sweep
from liepqc.verify import (
    ACCEPTANCE_CHECKS,
    INVARIANT_CHECKS,
    brute_force_closure_dim,
    check_determinism_and_budget,
    check_random_collapse,
    check_scaling_signature,
    check_span_preservation,
    check_vqe_sanity,
    verify_suite,
)
from liepqc.lie import lie_closure


def test_oracle_known_algebras():
    x = PauliSum.from_letters(1, "X").dense()
    z = PauliSum.from_letters(1, "Z").dense()
    assert brute_force_closure_dim([1j * x]) == 1
    assert brute_force_closure_dim([1j * x, 1j * z]) == 3   # su(2)
    # {X1, Z1, X2, Z2, Z1Z2} generates su(4)
    gens = [1j * PauliSum.from_letters(2, w).dense() for w in ("XI", "ZI", "IX", "IZ", "ZZ")]
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


def _reduced_config() -> SweepConfig:
    cfg = SweepConfig(qubit_range=[2, 3])
    cfg.sampling = SamplingSpec(n_samples=10, seed=0)
    return cfg


def test_verify_suite_reduced_config():
    report = verify_suite(_reduced_config(), include_invariants=False)
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


@pytest.fixture
def forked_pool(monkeypatch):
    """verify_suite's pool with forked children, which inherit this test's patches."""
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        verify_mod, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork)
    )


def test_verify_suite_runs_three_default_sweeps(monkeypatch, tmp_path, forked_pool):
    # two of the sweeps run in pool children, so each call leaves a line in a file
    calls = tmp_path / "run_sweep_calls"

    def counting_run_sweep(config, write_files=True):
        with calls.open("a") as fh:
            fh.write(f"{config.workers}\n")
        return run_sweep(config, write_files=write_files)

    monkeypatch.setattr(verify_mod, "run_sweep", counting_run_sweep)
    report = verify_suite(SweepConfig())
    workers = sorted(int(line) for line in calls.read_text().split())
    assert workers == [1, 1, 2]   # shared, serial repeat, workers=2
    assert report["passed"] is True
    assert 0.0 < report["shared_sweep_s"] < report["wall_s"]
    for chk in report["checks"]:
        assert set(chk) == {"name", "passed", "margin", "detail", "label", "seconds"}
        assert chk["seconds"] >= 0.0


def test_verify_suite_matches_serial_checks():
    """The two-phase schedule reports what each check reports run alone, in order."""
    cfg = _reduced_config()
    report = verify_suite(cfg)
    config_checks = {
        check_random_collapse, check_span_preservation, check_scaling_signature,
        check_vqe_sanity, check_determinism_and_budget,
    }
    runs = list(ACCEPTANCE_CHECKS) + [(None, fn) for fn in INVARIANT_CHECKS]
    assert len(report["checks"]) == len(runs) == 16
    for (label, fn), got in zip(runs, report["checks"]):
        want = fn(config=cfg) if fn in config_checks else fn()
        assert got["label"] == (label or want["name"])
        assert got["name"] == want["name"]
        assert got["passed"] is want["passed"] is True
        if fn is not check_determinism_and_budget:   # its margin and detail are times
            assert repr(got["margin"]) == repr(want["margin"])
            assert got["detail"] == want["detail"]


def _raise_injected(**kwargs):
    raise LookupError("injected")


@pytest.mark.parametrize("name", ["check_gradient_exactness", "check_scaling_signature"])
def test_verify_suite_raises_what_a_check_raises(monkeypatch, forked_pool, name):
    # criterion 5 runs in the pool, criterion 4 in the calling process
    monkeypatch.setattr(verify_mod, name, _raise_injected)
    monkeypatch.setattr(verify_mod, "ACCEPTANCE_CHECKS", [
        (label, _raise_injected if fn.__name__ == name else fn)
        for label, fn in ACCEPTANCE_CHECKS
    ])
    with pytest.raises(LookupError, match="injected"):
        verify_suite(_reduced_config(), include_invariants=False)


def test_cli_verify_prints_wall_after_shared_sweep(monkeypatch, capsys):
    from liepqc.cli import main as cli_main

    check = {"name": "c", "label": "1 c", "passed": True, "margin": 1.0, "detail": "ok",
             "seconds": 0.25}
    report = {"passed": True, "shared_sweep_s": 0.5, "wall_s": 1.25, "checks": [check]}
    monkeypatch.setattr(verify_mod, "verify_suite", lambda config, include_invariants: report)
    assert cli_main(["verify"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "shared sweep: 0.50s",
        "verify wall: 1.25s",
        "[PASS] 1 c (0.25s): ok",
    ]
