"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line with the measured margin so the suite
doubles as a machine-readable report (`pytest -v -s tests/test_acceptance.py`).
The same checks back the `liepqc verify` command.
"""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest

from liepqc.geometry import SamplingSpec
from liepqc.sweep import SweepConfig, records_csv_text, run_sweep
from liepqc.verify import (
    check_closure_oracle,
    check_determinism_and_budget,
    check_gradient_exactness,
    check_metric_consistency,
    check_perturbation_bound,
    check_random_collapse,
    check_scaling_signature,
    check_span_preservation,
    check_span_rank_bound,
    check_vqe_sanity,
)


def report(number: int, result: dict) -> None:
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[acceptance {number}] {status} {result['name']}: {result['detail']}")


@pytest.fixture(scope="module")
def default_run():
    """The default sweep as (records, errors, seconds), the shape verify shares."""
    start = time.perf_counter()
    records, errors = run_sweep(SweepConfig(), write_files=False)
    return records, errors, time.perf_counter() - start


@pytest.fixture(scope="module")
def default_records(default_run):
    records, errors, _ = default_run
    assert not errors
    return records


def test_default_records_match_bench_reference(default_records):
    # bench/reference.json pins the default sweep's records.csv byte for byte
    reference = json.loads(
        (Path(__file__).parents[1] / "bench" / "reference.json").read_text()
    )
    expected = reference["sweep_default"][str(SweepConfig().master_seed)]
    text = records_csv_text(default_records)
    assert text.splitlines()[1:] == expected["rows"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]


def test_criterion_1_span_rank_bound():
    start = time.time()
    result = check_span_rank_bound(n_circuits=100)
    elapsed = time.time() - start
    report(1, result)
    assert result["passed"]
    assert elapsed < 60.0, f"span-rank check took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_random_trunc_collapse():
    start = time.time()
    result = check_random_collapse()
    elapsed = time.time() - start
    report(2, result)
    assert result["passed"]
    assert elapsed < 120.0, f"collapse check took {elapsed:.1f}s (budget 2min)"


def test_random_collapse_reads_the_swept_cell(default_records):
    # reading the (6, "random_trunc") record reports what rebuilding the cell reports
    rebuilt = check_random_collapse()
    read = check_random_collapse(records=default_records)
    assert read == rebuilt

    i = next(i for i, r in enumerate(default_records) if (r.n, r.method) == (6, "random_trunc"))
    for doctored in (dict(rank=3), dict(d_eff=2.5)):
        records = list(default_records)
        records[i] = dataclasses.replace(default_records[i], **doctored)
        assert not check_random_collapse(records=records)["passed"]

    # n = 6 not swept: the check rebuilds the cell
    small = SweepConfig(qubit_range=[2, 3])
    assert check_random_collapse(small, [r for r in default_records if r.n <= 3]) == rebuilt


def test_random_collapse_reads_the_same_whether_or_not_n6_is_swept():
    # the rebuilt cell samples the config's own distribution, as the sweep does
    sampling = SamplingSpec(distribution="gaussian", n_samples=10, sigma=0.3)
    config = SweepConfig(qubit_range=[2, 3], sampling=sampling)
    records, errors = run_sweep(
        dataclasses.replace(config, qubit_range=[6], methods=["random_trunc"], workers=1),
        write_files=False,
    )
    assert not errors
    rebuilt, read = check_random_collapse(config), check_random_collapse(config, records=records)
    assert (rebuilt["margin"], rebuilt["detail"]) == (read["margin"], read["detail"])


def test_criterion_3_span_preservation(default_records):
    result = check_span_preservation(records=default_records)
    report(3, result)
    assert result["passed"]


def test_span_preservation_fails_on_lost_eigenvalue_or_missing_cell(default_records):
    i = next(i for i, r in enumerate(default_records) if (r.n, r.method) == (6, "lie_trunc"))
    lie = default_records[i]
    eigenvalues = list(lie.eigenvalues)
    eigenvalues[lie.rank - 1] = 0.0   # the smallest resolved eigenvalue is lost
    lost = list(default_records)
    lost[i] = dataclasses.replace(lie, eigenvalues=eigenvalues)
    result = check_span_preservation(records=lost)
    assert not result["passed"]
    assert "mismatches: [(6, " in result["detail"]

    result = check_span_preservation(records=default_records[:i] + default_records[i + 1:])
    assert not result["passed"]
    assert result["detail"] == "missing records: [(6, 'lie_trunc')]"


def test_criterion_4_scaling_law_signature(default_records):
    result = check_scaling_signature(records=default_records)
    report(4, result)
    assert result["passed"]


def test_criterion_5_gradient_exactness():
    result = check_gradient_exactness(n_cases=50)
    report(5, result)
    assert result["passed"]


def test_criterion_6_metric_consistency():
    result = check_metric_consistency()
    report(6, result)
    assert result["passed"]


def test_criterion_7_closure_oracle_equivalence():
    result = check_closure_oracle(n_sets=30)
    report(7, result)
    assert result["passed"]


def test_criterion_8_perturbation_bound():
    start = time.time()
    result = check_perturbation_bound(n_trials=1000)
    elapsed = time.time() - start
    report(8, result)
    assert result["passed"]
    assert elapsed < 30.0, f"perturbation check took {elapsed:.1f}s (budget 30s)"


def test_criterion_9_vqe_sanity():
    result = check_vqe_sanity()
    report(9, result)
    assert result["passed"]


def test_criterion_10_determinism_and_budget(default_run):
    result = check_determinism_and_budget(first_run=default_run)
    report(10, result)
    assert result["passed"]
