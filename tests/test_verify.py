"""Verification machinery: oracle sanity, mutation sensitivity, report shape."""

import dataclasses
import json

import numpy as np
import pytest

import liepqc.util as util_mod
import liepqc.verify as verify_mod
from liepqc import geometry, lie, linalg, pauli, trainability
from liepqc.circuits import CircuitSpec, ParamSlot, TangentFrame
from liepqc.geometry import SamplingSpec, fs_metric_at
from liepqc.pauli import PauliSum
from liepqc.sweep import SweepConfig, run_sweep
from liepqc.verify import (
    ACCEPTANCE_CHECKS,
    INVARIANT_CHECKS,
    brute_force_closure_dim,
    check_closure_idempotence,
    check_closure_oracle,
    check_determinism_and_budget,
    check_expm_inverse,
    check_gradient_exactness,
    check_gram_schmidt,
    check_jacobi_identity,
    check_metric_consistency,
    check_norm_preservation,
    check_pauli_algebra,
    check_random_collapse,
    check_scaling_signature,
    check_span_preservation,
    check_span_rank_bound,
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

    monkeypatch.setattr(TangentFrame, "projected", property(lambda frame: frame.partials))
    # stabilizer direction: correct metric is exactly 0, mutated one is 1
    c = CircuitSpec(1, [ParamSlot(PauliSum.from_letters(1, "Z"))])
    mutated = fs_metric_at(c, np.array([0.7]))
    assert mutated[0, 0] == pytest.approx(1.0, abs=1e-12)   # bug visible


def _double_gradient(monkeypatch):
    original = trainability._frame_gradient
    monkeypatch.setattr(trainability, "_frame_gradient", lambda *args: 2.0 * original(*args))


def _jacobian_without_imaginary_part(monkeypatch):
    def real_only(frame):
        return np.vstack([np.real(frame.projected), np.real(frame.projected)])

    monkeypatch.setattr(trainability, "real_jacobian", real_only)
    monkeypatch.setattr(verify_mod, "real_jacobian", real_only)


def _conjugated_string_phase(monkeypatch):
    original = pauli._product

    def conjugated(ka, kb, n_qubits):
        k, key = original(ka, kb, n_qubits)
        return -k % 4, key

    monkeypatch.setattr(pauli, "_product", conjugated)


def _anticommutator(monkeypatch):
    monkeypatch.setattr(linalg, "commutator", lambda a, b: a @ b + b @ a)


def _perturbed_expm(monkeypatch):
    original = linalg.expm_skew
    monkeypatch.setattr(linalg, "expm_skew", lambda x, t=1.0: original(x, t) + 1e-8)


def _unprojected_residual(monkeypatch):
    monkeypatch.setattr(lie, "_project_residual", lambda x, basis, holders: x.prune())


def _sine_without_i(monkeypatch):
    original = CircuitSpec._trig

    def real_sine(self, theta):
        theta, cos, i_sin = original(self, theta)
        return theta, cos, i_sin.imag.astype(complex)

    monkeypatch.setattr(CircuitSpec, "_trig", real_sine)


def _rank_plus_one(monkeypatch):
    original = geometry.metric_report

    def overcounted(g, sampling):
        rep = original(g, sampling)
        return dataclasses.replace(rep, rank=rep.rank + 1)

    monkeypatch.setattr(geometry, "metric_report", overcounted)


def _closure_without_last_element(monkeypatch):
    def dropped(generators):
        basis = lie.lie_closure(generators)
        return dataclasses.replace(basis, elements=basis.elements[:-1])

    monkeypatch.setattr(verify_mod, "lie_closure", dropped)


def _closure_capped_above_generators(monkeypatch):
    # stops one element past its generators, so closing again can grow it
    def capped(generators):
        return lie.lie_closure(generators, max_dim=len(generators) + 1)

    monkeypatch.setattr(verify_mod, "lie_closure", capped)


# each check the worst-case runner serves, with a defect planted where it reads
PLANTED_DEFECTS = {
    "span_rank_bound": (check_span_rank_bound, _rank_plus_one),
    "closure_oracle_equivalence": (check_closure_oracle, _closure_without_last_element),
    "closure_idempotence": (check_closure_idempotence, _closure_capped_above_generators),
    "gradient_exactness": (check_gradient_exactness, _double_gradient),
    "metric_consistency": (check_metric_consistency, _jacobian_without_imaginary_part),
    "pauli_dense_faithful": (check_pauli_algebra, _conjugated_string_phase),
    "jacobi_identity": (check_jacobi_identity, _anticommutator),
    "expm_skew_inverse": (check_expm_inverse, _perturbed_expm),
    "gram_schmidt_orthonormal": (check_gram_schmidt, _unprojected_residual),
    "evolve_norm_preservation": (check_norm_preservation, _sine_without_i),
}


@pytest.mark.parametrize("name", list(PLANTED_DEFECTS))
def test_worst_case_checks_fail_on_a_planted_defect(monkeypatch, name):
    check, plant = PLANTED_DEFECTS[name]
    assert check()["passed"]
    plant(monkeypatch)
    result = check()
    assert result["name"] == name
    assert not result["passed"]
    assert result["margin"] < 0


def test_worst_case_nan_error_fails(monkeypatch):
    # a NaN after the first case, which max() would pass over
    original, calls = linalg.max_abs, iter(range(25))
    monkeypatch.setattr(
        linalg, "max_abs", lambda a: float("nan") if next(calls) == 2 else original(a)
    )
    result = check_jacobi_identity()
    assert not result["passed"]
    assert "worst nan" in result["detail"]


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
    run = (records, errors, 0.0)
    assert check_determinism_and_budget(cfg, first_run=run, second_run=run)["passed"]

    nudged = list(records)
    nudged[1] = dataclasses.replace(records[1], d_eff=float(np.nextafter(records[1].d_eff, 3.0)))
    result = check_determinism_and_budget(cfg, first_run=(nudged, errors, 0.0), second_run=run)
    assert not result["passed"]
    assert result["detail"].startswith("identical=False, errors=0")

    failed = [{"n": 2, "method": "full", "error": "RuntimeError: injected"}]
    result = check_determinism_and_budget(cfg, first_run=(records, failed, 0.0), second_run=run)
    assert not result["passed"]
    assert result["detail"].startswith("identical=True, errors=1")


def test_random_collapse_fails_with_the_error_of_its_own_cell(monkeypatch):
    # n = 6 not swept: the check's one-cell sweep fails, so the check fails
    import liepqc.sweep as sweep_mod

    def exploding(config, n, method, base, closure):
        raise RuntimeError("injected")

    monkeypatch.setattr(sweep_mod, "run_cell", exploding)
    result = check_random_collapse(_reduced_config())
    assert not result["passed"] and result["margin"] == -1.0
    assert result["detail"] == "n=6 random_trunc cell failed: RuntimeError: injected"


def test_random_collapse_fails_when_its_own_cell_cannot_be_configured():
    # keep 14 is valid from n = 7 on, but not for the check's n = 6 cell
    result = check_random_collapse(SweepConfig(qubit_range=[7, 8], random_keep=14))
    assert not result["passed"] and result["margin"] == -1.0
    assert result["detail"] == (
        "n=6 random_trunc cell failed: ConfigError: "
        "random_keep must lie in [1, 12] (2 * smallest qubit count)"
    )


def test_verify_suite_runs_three_default_sweeps(monkeypatch, tmp_path, forked_pool):
    # two of the sweeps run in pool children, so each call leaves a line in a file
    calls = tmp_path / "run_sweep_calls"

    def counting_run_sweep(config, write_files=True):
        with calls.open("a") as fh:
            fh.write(f"{config.workers}\n")
        return run_sweep(config, write_files=write_files)

    monkeypatch.setattr(verify_mod, "run_sweep", counting_run_sweep)
    for _ in range(2):
        calls.write_text("")
        report = verify_suite(SweepConfig())
        workers = sorted(int(line) for line in calls.read_text().split())
        assert workers == [1, 1, 2]   # shared, serial repeat, workers=2
        # one pool of 2 for both phases of the first suite, none for the second
        assert forked_pool == [(2, util_mod._one_blas_thread)]
        assert report["passed"] is True
        assert 0.0 < report["shared_sweep_s"] < report["wall_s"]
        for chk in report["checks"]:
            assert set(chk) == {"name", "passed", "margin", "detail", "label", "seconds"}
            assert chk["seconds"] >= 0.0
        # the margins are machine bits, pinned like the records.csv reference in
        # test_default_records_match_bench_reference; criterion 10's is a time
        margins = [c["margin"] for c in report["checks"] if c["name"] != "determinism_and_budget"]
        assert margins == PINNED_MARGINS


PINNED_MARGINS = [
    0.0, 1.000000082740371e-09, 1.0, 2.057406529513726, 9.977112166007389e-07,
    9.99928945726424e-11, 1.0, 2.051754233067877e-07, 1.0, 9.991118215802999e-13,
    9.99928392766539e-11, 9.999800082771613e-11, 9.99999955591079e-09,
    9.999977795539508e-11, 1.0,
]


def test_verify_suite_matches_serial_checks():
    """The two-phase schedule reports what each check reports run alone, in
    order; criteria 3, 4 and 10 are handed the suite's two serial sweeps."""
    cfg = _reduced_config()
    report = verify_suite(cfg)
    first, second = (verify_mod._timed_sweep(dataclasses.replace(cfg, workers=1))
                     for _ in range(2))
    kwargs = {
        check_random_collapse: {"config": cfg},
        check_span_preservation: {"records": first[0], "config": cfg},
        check_scaling_signature: {"records": first[0]},
        check_vqe_sanity: {"config": cfg},
        check_determinism_and_budget: {"config": cfg, "first_run": first, "second_run": second},
    }
    runs = list(ACCEPTANCE_CHECKS) + [(None, fn) for fn in INVARIANT_CHECKS]
    assert len(report["checks"]) == len(runs) == 16
    for (label, fn), got in zip(runs, report["checks"]):
        want = fn(**kwargs.get(fn, {}))
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


def test_cli_verify_report_writes_a_nan_margin_as_null(monkeypatch, tmp_path):
    from liepqc.cli import main as cli_main

    check = {"name": "c", "label": "1 c", "passed": False, "margin": float("nan"),
             "detail": "worst nan", "seconds": 0.25}
    report = {"passed": False, "shared_sweep_s": 0.5, "wall_s": 1.25, "checks": [check]}
    monkeypatch.setattr(verify_mod, "verify_suite", lambda config, include_invariants: report)
    out = tmp_path / "report.json"
    assert cli_main(["verify", "--out", str(out)]) == 1
    text = out.read_text()
    assert "NaN" not in text
    assert json.loads(text)["checks"] == [{**check, "margin": None}]


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
