"""Self-tests of the benchmark harness, on the tiny self-test workloads.

    python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def run_bench(workload: str, trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(trace, kind):
    lines = run_bench("tiny_sweep", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[kind]]
    assert list(result["metrics"]) == names
    for m in SPEC[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        pattern = rf"{re.escape(m['name'])} \S+ {re.escape(m['unit'])}"
        assert any(re.fullmatch(pattern, line) for line in lines), m["name"]
    assert any(line.startswith("failed_share 0 share") for line in lines)
    assert lines[0].startswith("env ")
    env = json.loads(lines[0][4:])
    assert {"commit", "seed", "nproc", "threads", "versions"} <= set(env)


def one_pass(tmp_path, name: str, reference=REFERENCE, tracer=None, seed: int = 0):
    workload = WORKLOADS[name]
    inputs = workload.build(seed)
    return worker.run_pass(workload, inputs, reference, tmp_path, tracer, 0)


def test_corrupted_reference_hash_fails_every_cell(tmp_path):
    clean = one_pass(tmp_path, "tiny_sweep")
    assert clean["failures"] == [] and clean["operations"] == 6

    master = str(WORKLOADS["tiny_sweep"].build(0).payload.master_seed)
    corrupted = copy.deepcopy(REFERENCE)
    corrupted["tiny_sweep"][master]["sha256"] = "0" * 64
    assert len(one_pass(tmp_path, "tiny_sweep", corrupted)["failures"]) == 6

    corrupted = copy.deepcopy(REFERENCE)
    row = corrupted["tiny_sweep"][master]["rows"][2]
    corrupted["tiny_sweep"][master]["rows"][2] = row[:-1] + ("1" if row[-1] != "1" else "2")
    assert len(one_pass(tmp_path, "tiny_sweep", corrupted)["failures"]) == 1


def test_wrong_closure_dimension_fails(tmp_path):
    corrupted = copy.deepcopy(REFERENCE)
    corrupted["closure_dla"]["folded_hea"]["2"] += 1
    failures = one_pass(tmp_path, "tiny_closure", corrupted)["failures"]
    assert len(failures) == 1 and failures[0].startswith("folded_hea n=2")


@pytest.mark.parametrize("name", ["tiny_sweep", "tiny_closure"])
def test_layer_self_times_fit_in_the_traced_wall(tmp_path, name):
    import liepqc.sweep

    original = liepqc.sweep.run_cell
    layers = one_pass(tmp_path, name, tracer=layertrace.Tracer())["layers"]
    assert liepqc.sweep.run_cell is original  # uninstalled after the pass

    layer_self = sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert 0 < layer_self <= layers["trace.wall_s"]
    assert layer_self + layers["untraced.self_s"] == pytest.approx(layers["trace.wall_s"])


def test_closure_seeds_change_inputs_but_not_work(tmp_path):
    runs = [one_pass(tmp_path, "tiny_closure", tracer=layertrace.Tracer(), seed=s)
            for s in (1, 2)]
    inputs = [WORKLOADS["tiny_closure"].build(s).described for s in (1, 2)]
    assert inputs[0] != inputs[1]
    for key in ("pauli.commutator.calls", "lie.lie_closure.calls", "lie.closure_elements"):
        assert runs[0]["layers"][key] == runs[1]["layers"][key] > 0
