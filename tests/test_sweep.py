"""Sweep harness: config handling, records, determinism, cell isolation, CLI."""

import hashlib
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import liepqc.sweep as sweep_mod
import liepqc.util as util_mod
from liepqc.circuits import build_ansatz
from liepqc.cli import main as cli_main
from liepqc.geometry import SamplingSpec
from liepqc.lie import lie_closure
from liepqc.plots import METHOD_FIGURES, _nice_ticks, emit_plots, line_chart
from liepqc.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepRecord,
    cell_seed,
    config_from_dict,
    records_csv_text,
    run_cell,
    run_sweep,
)

SMALL = dict(qubit_range=[2], methods=["full"], opt_steps=0)


def small_config(**extra):
    base = dict(SMALL)
    base.update(extra)
    cfg = SweepConfig(**base)
    cfg.sampling = SamplingSpec(n_samples=10, seed=0)
    return cfg


def cell(config, n, method):
    """run_cell on the qubit count's base and closure, as the sweep runs it."""
    base = build_ansatz("full_hea", n, config.depth)
    return run_cell(config, n, method, base, lie_closure(base.skew_generators()))


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_valid():
    cfg = SweepConfig()
    assert cfg.qubit_range == [2, 3, 4, 5, 6]
    assert cfg.methods == ["full", "random_trunc", "lie_trunc"]
    assert cfg.depth >= 1
    assert cfg.workers == 0   # automatic


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SweepConfig(qubit_range=[0])
    with pytest.raises(ConfigError):
        SweepConfig(qubit_range=[11])
    with pytest.raises(ConfigError):
        SweepConfig(depth=0)
    with pytest.raises(ConfigError):
        SweepConfig(opt_steps=-1)
    with pytest.raises(ConfigError):
        SweepConfig(methods=["full", "prune_everything"])


def test_config_from_dict_unknown_key_fails_loud():
    with pytest.raises(ConfigError):
        config_from_dict({"qubit_range": [2], "typo_key": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"sampling": {"n_samples": 5, "bogus": 2}})
    with pytest.raises(ConfigError):
        config_from_dict({"loss": {"kind": "vqe_tfim", "bogus": 2}})


def test_config_rejects_bad_truncation_and_descent_fields():
    bad = [
        {"random_keep": 0},
        {"random_keep": 5, "qubit_range": [2, 3]},   # HEA at n=2 has 4 directions
        {"lie_depth_cap": -1},
        {"lie_dim_budget": -1},
        {"lie_dim_budget": 5, "qubit_range": [2, 3]},  # the span at n=3 is 6-dimensional
        {"opt_rate": 0.0},
        {"opt_rate": -0.1},
        {"opt_rate": float("inf")},
        {"opt_rate": float("nan")},
    ]
    for data in bad:
        with pytest.raises(ConfigError):
            config_from_dict(data)
    # random_keep is bounded only when random_trunc runs; 2 * min(n) is allowed
    config_from_dict({"random_keep": 99, "methods": ["full"]})
    # a nonzero lie_dim_budget is bounded below only when lie_trunc runs
    config_from_dict({"lie_dim_budget": 5, "qubit_range": [2, 3], "methods": ["full"]})
    config_from_dict({"lie_dim_budget": 6, "qubit_range": [2, 3]})
    cfg = small_config(methods=["random_trunc"], random_keep=4)
    assert cell(cfg, 2, "random_trunc").truncated_dim == 4


def test_cli_rejects_bad_field_with_exit_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"qubit_range": [2], "random_keep": 5}))
    assert cli_main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_config_round_trip():
    cfg = SweepConfig()
    back = config_from_dict(cfg.to_json())
    assert back.to_json() == cfg.to_json()


def test_config_tfim_params_round_trip():
    cfg = config_from_dict({"loss": {"kind": "vqe_tfim", "tfim_params": [2, 0.5]}})
    assert cfg.loss.tfim_params == (2, 0.5)
    assert config_from_dict(cfg.to_json()).to_json() == cfg.to_json()


# the documents' text, key order included: records.json and `liepqc metric` write them
PINNED_JSON = {
    "default_config": (
        '{"qubit_range": [2, 3, 4, 5, 6], "depth": 1, "methods": ["full", "random_trunc", '
        '"lie_trunc"], "sampling": {"distribution": "uniform_periodic", "n_samples": 50, '
        '"sigma": 1.0}, "loss": {"kind": "observable_expectation"}, "random_keep": 2, '
        '"lie_depth_cap": 1, "lie_dim_budget": 0, "opt_steps": 100, "opt_rate": 0.1, '
        '"master_seed": 14, "out_dir": "results", "workers": 0}'
    ),
    "tfim_gaussian_config": (
        '{"qubit_range": [2, 3, 4, 5, 6], "depth": 1, "methods": ["lie_trunc", "full"], '
        '"sampling": {"distribution": "gaussian", "n_samples": 7, "sigma": 0.25}, '
        '"loss": {"kind": "vqe_tfim", "tfim_params": [0.7, 1.3]}, "random_keep": 2, '
        '"lie_depth_cap": 1, "lie_dim_budget": 0, "opt_steps": 100, "opt_rate": 0.1, '
        '"master_seed": 14, "out_dir": "results", "workers": 2}'
    ),
    "sampling": '{"distribution": "uniform_periodic", "n_samples": 50, "seed": 3, "sigma": 1.0}',
    "scaling_fit": (
        '{"model": "poly_in_n", "rate": 1.5, "intercept": -0.25, "r_squared": 0.875, '
        '"n_used": 4, "n_dropped": 1}'
    ),
}


def test_json_documents_are_pinned(tmp_path, capsys):
    from liepqc.circuits import circuit_to_json
    from liepqc.trainability import LossSpec, ScalingFit

    tfim_gaussian = SweepConfig(
        loss=LossSpec(kind="vqe_tfim", tfim_params=(0.7, 1.3)),
        sampling=SamplingSpec(distribution="gaussian", n_samples=7, sigma=0.25),
        methods=["lie_trunc", "full"],
        workers=2,
    )
    fit = ScalingFit(model="poly_in_n", rate=1.5, intercept=-0.25, r_squared=0.875,
                     n_used=4, n_dropped=1)
    got = {
        "default_config": SweepConfig().to_json(),
        "tfim_gaussian_config": tfim_gaussian.to_json(),
        "sampling": SamplingSpec(seed=3).to_json(),
        "scaling_fit": fit.to_json(),
    }
    assert {name: json.dumps(doc) for name, doc in got.items()} == PINNED_JSON
    circuit_file = tmp_path / "circuit.json"
    circuit_file.write_text(json.dumps(circuit_to_json(build_ansatz("full_hea", 3, 2))))
    assert cli_main(["metric", "--circuit", str(circuit_file), "--samples", "6",
                     "--seed", "4"]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode()).hexdigest() == (
        "844476c242e6dd760869841a05eaefd1aa093e40a8fab27121f3977745d40ffd"
    )


# ---------------------------------------------------------------------------
# cells and records
# ---------------------------------------------------------------------------


def test_smoke_cell_under_five_seconds():
    start = time.time()
    rec = cell(small_config(), 2, "full")
    assert time.time() - start < 5.0
    assert rec.n == 2 and rec.method == "full"
    assert rec.rank == 4 and rec.closure_dim == 6


def test_cell_seed_stability():
    assert cell_seed(14, 6, "random_trunc") == cell_seed(14, 6, "random_trunc")
    assert cell_seed(14, 6, "random_trunc") != cell_seed(14, 6, "full")
    assert cell_seed(14, 6, "full") != cell_seed(15, 6, "full")


def test_record_product_arithmetic():
    cfg = small_config()
    rec = cell(cfg, 2, "full")
    assert rec.product_var_deff == rec.var_grad_mean * rec.d_eff


def test_record_csv_row_round_trip():
    rec = SweepRecord(
        n=3, method="random_trunc", seed=14, d_eff=1.9999999999999998, rank=2,
        kappa=float("inf"), var_grad_mean=1e-300, var_grad_first=0.0,
        product_var_deff=0.1 + 0.2, loss_final=-1.0, closure_dim=9,
        truncated_dim=2, closure_defect=1e-17,
    )
    assert SweepRecord.from_csv_row(rec.csv_row()) == rec
    full = cell(small_config(), 2, "full")
    assert SweepRecord.from_csv_row(full.csv_row()).csv_row() == full.csv_row()
    with pytest.raises(ValueError):
        SweepRecord.from_csv_row("2,full,14")


def test_csv_header_bit_exact():
    assert CSV_HEADER == (
        "n,method,seed,d_eff,rank,kappa,var_grad_mean,var_grad_first,"
        "product_var_deff,loss_final,closure_dim,truncated_dim,closure_defect"
    )
    rec = cell(small_config(), 2, "full")
    text = records_csv_text([rec])
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()[1].split(",")) == 13


def test_default_sweep_shape(tmp_path):
    cfg = SweepConfig(out_dir=str(tmp_path / "out"))
    cfg.sampling = SamplingSpec(n_samples=10, seed=0)
    records, errors = run_sweep(cfg)
    assert len(records) == 15 and not errors
    randoms = [r for r in records if r.method == "random_trunc"]
    assert all(r.rank <= 2 for r in randoms)
    out = tmp_path / "out"
    assert (out / "records.csv").exists()
    assert (out / "records.json").exists()
    assert len(list(out.glob("spectrum_*.csv"))) == 15
    assert len(list(out.glob("*.svg"))) == 5


def test_sweep_determinism_byte_identical(tmp_path):
    cfg = small_config(qubit_range=[2, 3], methods=["full", "lie_trunc"])
    rec1, _ = run_sweep(cfg, write_files=False)
    rec2, _ = run_sweep(cfg, write_files=False)
    assert records_csv_text(rec1) == records_csv_text(rec2)


def test_sweep_worker_count_independent():
    import dataclasses

    cfg = small_config(qubit_range=[2, 3], methods=list(sweep_mod.KNOWN_METHODS))
    seq, _ = run_sweep(dataclasses.replace(cfg, workers=1), write_files=False)
    par, _ = run_sweep(dataclasses.replace(cfg, workers=2), write_files=False)
    assert records_csv_text(seq) == records_csv_text(par)


@pytest.fixture
def serial_pool(monkeypatch):
    """``util.run_tasks``'s pool replaced by one that runs here; lists each
    pool made as its (max_workers, initializer).  The kept pool is closed
    before and after the test, so no test reuses another's."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            pools.append((max_workers, initializer))

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    util_mod._close_pool()
    monkeypatch.setattr(util_mod, "ProcessPoolExecutor", SerialPool)
    yield pools
    util_mod._close_pool()


def test_sweep_pool_runs_blas_on_one_thread(serial_pool):
    # one pool of 2 for workers=2, none for workers=1; only util starts pools
    # and binds multiprocessing
    import liepqc
    import liepqc.verify  # noqa: F401  (loaded, so its names are checked too)

    for workers, pools in ((2, [(2, util_mod._one_blas_thread)]), (1, [])):
        serial_pool.clear()
        records, errors = run_sweep(small_config(qubit_range=[2, 3], workers=workers),
                                    write_files=False)
        assert len(records) == 2 and not errors
        assert serial_pool == pools
    for name, module in vars(liepqc).items():
        if name != "util" and hasattr(module, "__file__"):
            assert not {"ProcessPoolExecutor", "_one_blas_thread", "multiprocessing",
                        "concurrent"} & set(vars(module)), name


@pytest.mark.parametrize("cpus, qubit_range, workers, pool", [
    (1, [2, 3], 0, []),          # automatic, one usable CPU: serial, no pool
    (4, [2, 3], 0, [2]),         # automatic: one process per qubit count
    (2, [2, 3, 4], 0, [2]),      # automatic: capped at the usable CPUs
    (4, [2], 0, []),             # automatic, one qubit count: serial, no pool
    (1, [2, 3], 3, [3]),         # explicit: used as given
    (4, [2, 3], 1, []),
])
def test_workers_resolution(serial_pool, monkeypatch, cpus, qubit_range, workers, pool):
    monkeypatch.setattr(util_mod.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert util_mod.worker_count(workers, len(qubit_range)) == max(pool, default=1)
    cfg = small_config(qubit_range=qubit_range, workers=workers)
    records, errors = run_sweep(cfg, write_files=False)
    assert len(records) == len(qubit_range) and not errors
    assert [max_workers for max_workers, _ in serial_pool] == pool


def test_pool_runs_one_task_per_cell_largest_n_first(serial_pool, monkeypatch):
    tasks = []       # (n, method) of each task, in the order it is handed out
    real_task = sweep_mod._cell_task

    def recording(args):
        tasks.append(args[1:3])
        return real_task(args)

    monkeypatch.setattr(sweep_mod, "_cell_task", recording)
    methods = list(sweep_mod.KNOWN_METHODS)
    texts = []
    for workers in (2, 1):   # the pool, then this process: the same task list
        tasks.clear()
        cfg = small_config(qubit_range=[2, 4, 3], methods=methods, workers=workers)
        records, errors = run_sweep(cfg, write_files=False)
        assert not errors
        assert tasks == [(n, m) for n in (4, 3, 2) for m in methods]
        texts.append(records_csv_text(records))
    assert serial_pool and texts[0] == texts[1]


def test_pooled_base_failure_is_recorded_per_method(serial_pool, monkeypatch):
    def failing_closure(generators):
        raise RuntimeError("no closure")

    monkeypatch.setattr(sweep_mod, "lie_closure", failing_closure)
    cfg = small_config(qubit_range=[2, 3], methods=["full", "lie_trunc"], workers=2)
    records, errors = run_sweep(cfg, write_files=False)
    assert not records and serial_pool
    assert [(e["n"], e["method"]) for e in errors] == [
        (2, "full"), (2, "lie_trunc"), (3, "full"), (3, "lie_trunc"),
    ]
    for err in errors:
        assert err["error"] == "RuntimeError: no closure"
        assert "in failing_closure" in err["traceback"]


def test_automatic_workers_without_an_affinity_call(serial_pool, monkeypatch):
    monkeypatch.delattr(util_mod.os, "sched_getaffinity")
    monkeypatch.setattr(util_mod.os, "cpu_count", lambda: 3)
    assert util_mod.worker_count(0, 2) == 2
    assert util_mod.run_tasks(abs, [-1, -2], 0) == [1, 2]
    monkeypatch.setattr(util_mod.os, "cpu_count", lambda: None)   # unknown: one
    assert util_mod.worker_count(0, 2) == 1
    assert util_mod.run_tasks(abs, [-1, -2], 0) == [1, 2]
    assert [max_workers for max_workers, _ in serial_pool] == [2]


def test_a_second_pooled_sweep_reuses_the_pool(tmp_path, forked_pool):
    # the same CSV bytes from the pool's fresh processes and from its reused ones
    texts = []
    for run in ("first", "second"):
        cfg = small_config(qubit_range=[2, 3], methods=list(sweep_mod.KNOWN_METHODS),
                           workers=2, out_dir=str(tmp_path / run))
        records, errors = run_sweep(cfg)
        assert len(records) == 6 and not errors
        assert forked_pool == [(2, util_mod._one_blas_thread)]
        texts.append((tmp_path / run / "records.csv").read_bytes())
    assert texts[0] == texts[1]


def test_a_reused_pool_process_rebuilds_each_closure(tmp_path, monkeypatch, forked_pool):
    # patched before the pool forks, so its processes log each closure and
    # each cell they run; in every sweep, each process builds each qubit
    # count's closure once, before its first cell of that count
    log = tmp_path / "log"
    real_closure, real_cell = sweep_mod.lie_closure, sweep_mod.run_cell

    def logging_closure(generators):
        with log.open("a") as fh:
            fh.write(f"closure {os.getpid()} {generators[0].n_qubits}\n")
        return real_closure(generators)

    def logging_cell(config, n, method, base, closure):
        with log.open("a") as fh:
            fh.write(f"cell {os.getpid()} {n}\n")
        return real_cell(config, n, method, base, closure)

    monkeypatch.setattr(sweep_mod, "lie_closure", logging_closure)
    monkeypatch.setattr(sweep_mod, "run_cell", logging_cell)
    # the default grid, then one qubit count, whose closure a reused process
    # would still hold from the sweep before
    one_count = small_config(qubit_range=[3], methods=list(sweep_mod.KNOWN_METHODS), workers=2)
    for cfg in [SweepConfig(workers=2)] * 2 + [one_count] * 3:
        log.write_text("")
        records, errors = run_sweep(cfg, write_files=False)
        assert len(records) == len(cfg.qubit_range) * len(cfg.methods) and not errors
        lines = [tuple(line.split()) for line in log.read_text().splitlines()]
        closures = [(pid, n) for kind, pid, n in lines if kind == "closure"]
        cells = {(pid, n) for kind, pid, n in lines if kind == "cell"}
        assert len(closures) == len(set(closures)) and set(closures) == cells
        for i, (kind, pid, n) in enumerate(lines):
            assert kind == "closure" or ("closure", pid, n) in lines[:i]
    assert forked_pool == [(2, util_mod._one_blas_thread)]


def test_pooled_sweeps_exit_cleanly():
    # the kept pool is joined at interpreter exit: no hang, exit status 0;
    # a workers=2 sweep inside a pool process runs there and returns
    src = Path(sweep_mod.__file__).resolve().parents[1]
    code = (
        "from liepqc.sweep import SweepConfig, run_sweep\n"
        "from liepqc.geometry import SamplingSpec\n"
        "from liepqc.util import run_tasks\n"
        "cfg = SweepConfig(qubit_range=[2, 3], methods=['full'], opt_steps=0, workers=2,\n"
        "                  sampling=SamplingSpec(n_samples=4))\n"
        "def sweep(_):\n"
        "    records, errors = run_sweep(cfg, write_files=False)\n"
        "    assert len(records) == 2 and not errors\n"
        "for _ in range(2):\n"
        "    sweep(None)\n"
        "run_tasks(sweep, [0, 1], 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the pool processes too
        proc.communicate()
        pytest.fail("pooled sweeps did not exit within 120 s")
    assert proc.returncode == 0, stderr


def test_automatic_workers_is_one_in_a_pool_child(monkeypatch):
    # a pool child, daemonic or not, never starts a pool of its own, whether
    # the count is automatic or explicit
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    monkeypatch.setattr(util_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert util_mod.worker_count(0, 2) == 2 and util_mod.worker_count(3, 2) == 3
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        for workers in (0, 3):
            assert pool.submit(util_mod.worker_count, workers, 2).result(timeout=60) == 1
    with fork.Pool(1) as pool:   # daemonic children
        for workers in (0, 3):
            assert pool.apply_async(util_mod.worker_count, (workers, 2)).get(timeout=60) == 1


def test_a_pooled_sweep_in_a_pool_child_runs_there_and_says_so(tmp_path, monkeypatch):
    # records.json gives the processes the cells really ran on: one, since a
    # pool child starts no pool, whatever workers asks for
    import functools
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    def no_pool(workers):
        raise AssertionError(f"a pool child started a pool of {workers}")

    monkeypatch.setattr(util_mod, "_open_pool", no_pool)   # inherited by the fork
    cfg = small_config(qubit_range=[2, 3], workers=2, out_dir=str(tmp_path))
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        records, errors = pool.submit(functools.partial(run_sweep, cfg)).result(timeout=120)
    assert len(records) == 2 and not errors
    payload = json.loads((tmp_path / "records.json").read_text())
    assert payload["config"]["workers"] == 2 and payload["workers"] == 1


def test_cell_isolation(monkeypatch):
    real_run_cell = sweep_mod.run_cell

    def exploding(config, n, method, base, closure):
        if n == 2 and method == "full":
            raise RuntimeError("injected")
        return real_run_cell(config, n, method, base, closure)

    monkeypatch.setattr(sweep_mod, "run_cell", exploding)
    # one worker: the patch must act in this process
    cfg = small_config(qubit_range=[2, 3], methods=["full", "lie_trunc"], workers=1)
    records, errors = run_sweep(cfg, write_files=False)
    assert len(errors) == 1
    assert errors[0]["n"] == 2 and errors[0]["method"] == "full"
    assert errors[0]["error"] == "RuntimeError: injected"
    assert "in exploding" in errors[0]["traceback"]
    assert errors[0]["traceback"].rstrip().endswith("RuntimeError: injected")
    assert {(r.n, r.method) for r in records} == {
        (2, "lie_trunc"), (3, "full"), (3, "lie_trunc"),
    }


def test_sweep_shares_one_closure_per_qubit_count(monkeypatch):
    import liepqc.lie as lie_mod
    from liepqc.trainability import LossSpec

    closures = []
    real_closure = lie_mod.lie_closure

    def counting_closure(generators, *args, **kwargs):
        closures.append(len(generators))
        return real_closure(generators, *args, **kwargs)

    observables = []
    real_observable = LossSpec.observable_dense

    def counting_observable(self, n_qubits):
        observables.append(n_qubits)
        return real_observable(self, n_qubits)

    monkeypatch.setattr(sweep_mod, "lie_closure", counting_closure)
    monkeypatch.setattr(lie_mod, "lie_closure", counting_closure)
    monkeypatch.setattr(LossSpec, "observable_dense", counting_observable)
    # one worker: the counts are kept in this process
    cfg = small_config(
        qubit_range=[2, 3], methods=list(sweep_mod.KNOWN_METHODS), opt_steps=3, workers=1
    )
    records, errors = run_sweep(cfg, write_files=False)
    assert len(records) == 6 and not errors
    assert len(closures) == len(cfg.qubit_range)
    assert len(observables) <= 2 * len(records)


def test_cell_failure_before_any_method_is_recorded_per_method(monkeypatch):
    def failing_closure(generators):
        raise RuntimeError("no closure")

    monkeypatch.setattr(sweep_mod, "lie_closure", failing_closure)
    cfg = small_config(methods=["full", "lie_trunc"], workers=1)
    records, errors = run_sweep(cfg, write_files=False)
    assert not records
    assert [(e["n"], e["method"]) for e in errors] == [(2, "full"), (2, "lie_trunc")]
    for err in errors:
        assert err["error"] == "RuntimeError: no closure"
        assert "in failing_closure" in err["traceback"]


def test_sweep_clears_the_shared_closure_when_it_ends(monkeypatch):
    # a second sweep of the same qubit count builds its own base and closure
    cfg = small_config(methods=["full", "lie_trunc"], workers=1)
    records, errors = run_sweep(cfg, write_files=False)
    assert len(records) == 2 and not errors
    assert sweep_mod._base_and_closure.cache_info().currsize == 0

    def failing_closure(generators):
        raise RuntimeError("no closure")

    monkeypatch.setattr(sweep_mod, "lie_closure", failing_closure)
    records, errors = run_sweep(cfg, write_files=False)
    assert not records
    assert [(e["n"], e["method"], e["error"]) for e in errors] == [
        (2, "full", "RuntimeError: no closure"), (2, "lie_trunc", "RuntimeError: no closure"),
    ]


def assert_bench_reference_bytes(workload: str, **grid):
    """The sweep of ``grid`` writes the records.csv that bench/reference.json
    pins for ``workload`` at each of its 8 master seeds; the file is read,
    never written."""
    reference = json.loads(
        (Path(__file__).parents[1] / "bench" / "reference.json").read_text()
    )[workload]
    assert len(reference) == 8
    for master_seed, expected in reference.items():
        records, errors = run_sweep(
            SweepConfig(master_seed=int(master_seed), **grid), write_files=False
        )
        assert not errors
        text = records_csv_text(records)
        assert text.splitlines()[1:] == expected["rows"], master_seed
        assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"], master_seed


@pytest.mark.parametrize("workers", [1, 2])
def test_tiny_sweep_bytes_match_bench_reference(workers):
    # the tiny_sweep grid of bench/workloads.py
    assert_bench_reference_bytes(
        "tiny_sweep", qubit_range=[3, 4], sampling=SamplingSpec(n_samples=3), opt_steps=2,
        workers=workers,
    )


def test_default_sweep_bytes_match_bench_reference_at_every_master_seed():
    # the default grid, as sweep_default runs it, at all 8 pinned master seeds
    assert_bench_reference_bytes("sweep_default", workers=2)


def test_json_payload_contents(tmp_path):
    cfg = small_config(opt_steps=3)
    cfg.out_dir = str(tmp_path)
    run_sweep(cfg)
    payload = json.loads((tmp_path / "records.json").read_text())
    assert payload["config"]["qubit_range"] == [2]
    assert payload["config"]["workers"] == 0 and payload["workers"] == 1
    rec = payload["records"][0]
    assert "wall_time" in rec and "loss_trajectory" in rec
    assert rec["product_var_deff"] == rec["var_grad_mean"] * rec["d_eff"]
    # one frame per draw (10) and per descent step (3); the stages tile the
    # cell's time
    assert rec["frames"] == 10 + 3 and len(rec["loss_trajectory"]) == 3 + 1
    assert rec["descent_cycle"] is None
    assert set(rec["stage_s"]) == {"truncate", "variance", "descent"}
    assert rec["stage_s"]["truncate"] >= 0.0
    assert rec["stage_s"]["variance"] > 0.0 and rec["stage_s"]["descent"] > 0.0
    assert sum(rec["stage_s"].values()) == pytest.approx(rec["wall_time"], rel=1e-9, abs=1e-12)
    # building the circuit and its closure is timed apart from the stages
    assert rec["closure_s"] > 0.0


def test_closure_seconds_and_cell_log_lines(caplog):
    # a serial sweep: the cells of a qubit count share one closure and its
    # time; one INFO line per cell from logger liepqc.sweep, largest n first
    cfg = small_config(qubit_range=[2, 3], methods=["full", "lie_trunc"], opt_steps=2, workers=1)
    with caplog.at_level(logging.INFO, logger="liepqc.sweep"):
        records, errors = run_sweep(cfg, write_files=False)
    assert not errors and len(records) == 4
    for n in (2, 3):
        times = {r.closure_s for r in records if r.n == n}
        assert len(times) == 1 and times.pop() > 0.0
    lines = [r for r in caplog.records if r.name == "liepqc.sweep"]
    assert [r.levelno for r in lines] == [logging.INFO] * 4
    logged = {}
    for line in lines:
        assert line.getMessage().startswith("cell ")
        fields = dict(item.split("=") for item in line.getMessage().split()[1:])
        logged[(int(fields["n"]), fields["method"])] = fields
    assert list(logged) == [(3, "full"), (3, "lie_trunc"), (2, "full"), (2, "lie_trunc")]
    for rec in records:
        fields = logged[(rec.n, rec.method)]
        assert int(fields["frames"]) == rec.frames
        cycle = rec.descent_cycle
        assert fields["descent_cycle"] == (f"{cycle[0]},{cycle[1]}" if cycle else "none")
        assert set(fields) == {"n", "method", "frames", "descent_cycle", "closure_s",
                               "truncate_s", "variance_s", "descent_s", "wall_s"}
        assert float(fields["closure_s"]) == pytest.approx(rec.closure_s, abs=1e-6)
        assert float(fields["wall_s"]) == pytest.approx(rec.wall_time, abs=1e-6)
        for stage, secs in rec.stage_s.items():
            assert float(fields[f"{stage}_s"]) == pytest.approx(secs, abs=1e-6)
    # the CSV carries none of it
    assert records_csv_text(records).splitlines()[0] == CSV_HEADER


# ---------------------------------------------------------------------------
# plots
# ---------------------------------------------------------------------------


def test_plots_single_record(tmp_path):
    rec = cell(small_config(), 2, "full")
    created = emit_plots([rec], tmp_path, spectra={("full", 2): np.array(rec.eigenvalues)})
    assert len(created) == 5
    for path in created:
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_plots_empty_records_raise(tmp_path):
    with pytest.raises(ValueError):
        emit_plots([], tmp_path)


def test_plot_annotation_contains_ratio(tmp_path):
    recs = []
    for n, prod in ((2, 1.8), (3, 2.0)):
        recs.append(SweepRecord(
            n=n, method="lie_trunc", seed=0, d_eff=2.0, rank=2, kappa=1.0,
            var_grad_mean=prod / 2.0, var_grad_first=0.0, product_var_deff=prod,
            loss_final=0.0, closure_dim=3, truncated_dim=2, closure_defect=0.0,
        ))
    emit_plots(recs, tmp_path)
    text = (tmp_path / "var_deff_product.svg").read_text()
    assert "max/min = 1.11" in text


def _figure_records() -> list[SweepRecord]:
    """Literal records of three methods at n = 2, 3, 4, computed by nothing."""
    recs = []
    for i, method in enumerate(("full", "random_trunc", "lie_trunc")):
        for n in (2, 3, 4):
            var, d_eff = 0.5 ** (n + i), 2.0 * n - i + 0.25
            recs.append(SweepRecord(
                n=n, method=method, seed=14, d_eff=d_eff, rank=2 * n - i, kappa=1.5 * n,
                var_grad_mean=var, var_grad_first=var / 3, product_var_deff=var * d_eff,
                loss_final=-1.0 + 0.1 * n * i, closure_dim=3 * n, truncated_dim=2 * n - i,
                closure_defect=0.0,
            ))
    return recs


# sha256 of each figure emit_plots writes for _figure_records, with the spectra
# below and without them (the "empty" spectrum series)
FIGURE_SHA256 = {
    "spectra": {
        "variance_vs_n.svg": "83a860b491b9606f871a50f993532bbb222bd7950a73c9ea70d35578138b7b0e",
        "deff_vs_n.svg": "9db640acb4641f231cc08e99635807fc0b4b814d619a8508ab01dfe7662a8cc5",
        "var_deff_product.svg": "d4e76210275313aca70492a18c3aa18f1bcc0e2da54c669bef79cc4f95ebcb9e",
        "metric_spectra.svg": "6373bc13c9e6c69840359e938b78052fd1b92648a21bc398cd964debd46122d4",
        "loss_vs_n.svg": "a37ea014665763a16c3494414e5cbfcde5918864715adc5a2b66999eae5a60e8",
    },
    "no_spectra": {
        "variance_vs_n.svg": "83a860b491b9606f871a50f993532bbb222bd7950a73c9ea70d35578138b7b0e",
        "deff_vs_n.svg": "9db640acb4641f231cc08e99635807fc0b4b814d619a8508ab01dfe7662a8cc5",
        "var_deff_product.svg": "d4e76210275313aca70492a18c3aa18f1bcc0e2da54c669bef79cc4f95ebcb9e",
        "metric_spectra.svg": "077bea5a24633bb76ca9f8ee0204a503ae0b3b7e90f4397390cdd137b77815d6",
        "loss_vs_n.svg": "a37ea014665763a16c3494414e5cbfcde5918864715adc5a2b66999eae5a60e8",
    },
}


@pytest.mark.parametrize("case", list(FIGURE_SHA256))
def test_figure_bytes_pinned(tmp_path, case):
    recs = _figure_records()
    spectra = None
    if case == "spectra":
        spectra = {
            (r.method, r.n): np.array([0.0, 1e-9 * r.n] + [0.25 * k for k in range(1, r.rank)])
            for r in recs
        }
    created = emit_plots(recs, tmp_path, spectra=spectra)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in created}
    assert got == FIGURE_SHA256[case]


def test_nice_ticks_sub_ulp_range_terminates():
    # the step (5e-17) is below one ulp of -1.0, so it cannot advance a tick
    assert _nice_ticks(-1.0, -0.9999999999999998) == [-1.0]


def test_sweep_single_qubit_count_completes(tmp_path):
    # all three n=2 cells descend to a loss of -1 within one ulp of each other
    cfg = SweepConfig(qubit_range=[2], out_dir=str(tmp_path / "out"))
    cfg.sampling = SamplingSpec(n_samples=5, seed=0)
    records, errors = run_sweep(cfg)
    assert len(records) == 3 and not errors
    assert len(list((tmp_path / "out").glob("*.svg"))) == 5


def test_line_chart_flat_series_beyond_unit_resolution():
    # 1e17 +- 0.5 == 1e17: the flat-range padding must still open a span
    svg = line_chart([("s", [2, 3], [1e17, 1e17])], "t", "x", "y")
    assert svg.count("<circle") == 2
    assert _nice_ticks(1e17, 1e17)[0] == 1e17


def test_line_chart_log_scale_skips_nonpositive():
    svg = line_chart([("s", [1, 2, 3], [0.0, 1.0, 10.0])], "t", "x", "y", logy=True)
    assert svg.count("<circle") == 2


@pytest.mark.parametrize("logy", [False, True])
def test_line_chart_skips_nonfinite(logy):
    nan, inf = float("nan"), float("inf")
    svg = line_chart([("s", [1, 2, 3, 4], [nan, 1.0, inf, 10.0])], "t", "x", "y", logy=logy)
    assert svg.count("<circle") == 2
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_an_overflowing_descent_still_draws_every_figure(tmp_path):
    # every descent overflows theta, so every final loss is NaN; the loss
    # figure leaves those points out and the sweep and plot commands succeed
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "qubit_range": [2, 3], "opt_steps": 5, "opt_rate": 1e308,
        "sampling": {"n_samples": 3}, "workers": 1, "out_dir": str(tmp_path / "run"),
    }))
    assert cli_main(["sweep", "--config", str(config)]) == 0
    run = tmp_path / "run"
    rows = (run / "records.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(np.isnan(SweepRecord.from_csv_row(row).loss_final) for row in rows)
    figures = sorted([name for name, *_ in METHOD_FIGURES] + ["metric_spectra.svg"])
    assert sorted(p.name for p in run.glob("*.svg")) == figures
    assert cli_main(["plot", "--records", str(run / "records.csv"),
                     "--out", str(tmp_path / "figs")]) == 0
    assert sorted(p.name for p in (tmp_path / "figs").glob("*.svg")) == figures


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sweep_and_plot(tmp_path):
    out = tmp_path / "run"
    code = cli_main([
        "sweep", "--qubits", "2", "--methods", "full", "--samples", "8", "--out", str(out),
    ])
    assert code == 0
    assert (out / "records.csv").exists()
    code = cli_main(["plot", "--records", str(out / "records.csv"), "--out", str(tmp_path / "figs")])
    assert code == 0
    assert len(list((tmp_path / "figs").glob("*.svg"))) == 5


def test_cli_plot_rejects_foreign_csv(tmp_path):
    foreign = tmp_path / "records.csv"
    for text in ("a,b\n1,2\n", CSV_HEADER + "\n", CSV_HEADER + "\n2,full,14\n"):
        foreign.write_text(text)
        assert cli_main(["plot", "--records", str(foreign)]) == 2
    for unreadable in (tmp_path / "missing.csv", tmp_path):
        assert cli_main(["plot", "--records", str(unreadable)]) == 2


@pytest.mark.parametrize("case", ["output_below_a_file", "spectrum_value", "spectrum_row"])
def test_cli_plot_input_and_output_errors_exit_2(tmp_path, capsys, case):
    run = tmp_path / "run"
    assert cli_main(["sweep", "--qubits", "2", "--methods", "full", "--samples", "2",
                     "--out", str(run)]) == 0
    for figure in run.glob("*.svg"):
        figure.unlink()
    capsys.readouterr()
    spectrum = run / "spectrum_full_2.csv"
    out, culprit, error = run, spectrum, "ValueError"
    if case == "output_below_a_file":
        out = spectrum / "figures"
        culprit, error = f"--out {out}", "NotADirectoryError"
    else:
        spectrum.write_text("index,eigenvalue\n" + ("0,abc\n" if case == "spectrum_value" else "0\n"))
    assert cli_main(["plot", "--records", str(run / "records.csv"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {culprit}: {error}: ")
    assert captured.err.count("\n") == 1
    assert not list(run.glob("*.svg"))


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_key": 1}))
    assert cli_main(["sweep", "--config", str(bad)]) == 2
    for samples in ("0", "1"):
        assert cli_main(["sweep", "--qubits", "2", "--samples", samples]) == 2


# None stands for a directory in place of the file
CONFIG_ERRORS = {
    "directory": None,
    "not_an_object": 5,
    "list": [1],
    "sampling_not_an_object": {"sampling": 5},
    "loss_not_an_object": {"loss": 5},
    "sampling_rejected": {"sampling": {"n_samples": 0}},
    "single_sample": {"sampling": {"n_samples": 1}},
    "loss_rejected": {"loss": {"kind": "nope"}},
    "float_depth": {"depth": 1.5},
    "float_opt_steps": {"opt_steps": 2.5},
    "float_qubit": {"qubit_range": [2.5]},
    "bool_qubit": {"qubit_range": [True]},
    "float_random_keep": {"random_keep": 1.5},
    "float_workers": {"workers": 1.5},
    "negative_workers": {"workers": -1},
    "string_master_seed": {"master_seed": "x"},
    "bool_opt_rate": {"opt_rate": True},
    "float_n_samples": {"sampling": {"n_samples": 2.5}},
    "string_sigma": {"sampling": {"sigma": "a"}},
    "nan_sigma": {"sampling": {"sigma": float("nan")}},
    "lie_dim_budget_below_span": {"qubit_range": [2, 3], "lie_dim_budget": 5},
    # cells seed their draws from master_seed; losses measure Z_0 or the TFIM
    "sampling_seed": {"sampling": {"seed": 1}},
    "loss_observable": {"loss": {"observable": "1.0*Z"}},
    # tfim_params is exactly two finite numbers, read only by the TFIM loss
    "tfim_params_strings": {"loss": {"kind": "vqe_tfim", "tfim_params": ["a", "b"]}},
    "tfim_params_three": {"loss": {"kind": "vqe_tfim", "tfim_params": [1.0, 2.0, 3.0]}},
    "tfim_params_one": {"loss": {"kind": "vqe_tfim", "tfim_params": [1.0]}},
    "tfim_params_nan": {"loss": {"kind": "vqe_tfim", "tfim_params": [float("nan"), 1.0]}},
    "tfim_params_bool": {"loss": {"kind": "vqe_tfim", "tfim_params": [True, 1]}},
    "tfim_params_z0_loss": {"loss": {"kind": "observable_expectation", "tfim_params": [1, 1]}},
    "tfim_params_default_loss": {"loss": {"tfim_params": [1, 1]}},
    # each cell would run twice, or none would
    "repeated_qubit_count": {"qubit_range": [3, 2, 3]},
    "repeated_method": {"methods": ["full", "full"]},
    "no_methods": {"methods": []},
    # the sweep would run every cell, then fail to write its files
    "integer_out_dir": {"out_dir": 5},
}


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("case", list(CONFIG_ERRORS))
def test_cli_config_errors_exit_2(tmp_path, capsys, command, case):
    path = tmp_path
    if CONFIG_ERRORS[case] is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(CONFIG_ERRORS[case]))
    assert cli_main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {path}: ")
    assert captured.err.count("\n") == 1
    assert "unknown config keys" not in captured.err
    assert captured.out == ""


def test_cli_cell_failure_exit_code(tmp_path, monkeypatch):
    def exploding(config, n, method, base, closure):
        raise RuntimeError("injected")

    monkeypatch.setattr(sweep_mod, "run_cell", exploding)
    code = cli_main([
        "sweep", "--qubits", "2", "--methods", "full", "--samples", "5",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1


@pytest.mark.parametrize("command, out, error", [
    (["sweep", "--qubits", "2", "--methods", "full", "--samples", "2"], "sub",
     "config error: out_dir {out}: NotADirectoryError: "),
    (["verify"], "report.json", "input error: --out {out}: NotADirectoryError: "),
], ids=["sweep", "verify"])
def test_cli_unusable_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                           command, out, error):
    import liepqc.verify as verify_mod

    def no_work(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(sweep_mod, "run_cell", no_work)
    monkeypatch.setattr(verify_mod, "verify_suite", no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / out
    assert cli_main([*command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(error.format(out=out))
    assert captured.err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize("case, error", [
    ("config", "config error: {config}: ConfigError: out_dir must be a non-empty path string"),
    ("sweep", "config error: out_dir must be a non-empty path string"),
    ("verify", "input error: --out : FileNotFoundError: "),
    ("plot", "input error: --out : FileNotFoundError: "),
], ids=["config", "sweep", "verify", "plot"])
def test_cli_empty_output_path_exits_2_and_writes_nothing(tmp_path, case, error):
    # an empty path would name the current directory: a fresh process in an
    # empty one prints one error line, exits 2 and writes nothing there
    small = {"qubit_range": [2], "methods": ["full"], "sampling": {"n_samples": 2},
             "opt_steps": 0, "workers": 1, "out_dir": str(tmp_path / "run")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**small, "out_dir": ""} if case == "config" else small))
    run_sweep(config_from_dict(small))
    argv = {
        "config": ["sweep", "--config", str(config)],
        "sweep": ["sweep", "--config", str(config), "--out", ""],
        "verify": ["verify", "--config", str(config), "--out", ""],
        "plot": ["plot", "--records", str(tmp_path / "run" / "records.csv"), "--out", ""],
    }[case]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    src = Path(sweep_mod.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "liepqc.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(error.format(config=config))
    assert proc.stderr.count("\n") == 1
    assert list(cwd.iterdir()) == []


def test_cli_closure_metric_truncate(tmp_path):
    from liepqc.circuits import build_ansatz, circuit_to_json

    circuit_file = tmp_path / "circuit.json"
    circuit_file.write_text(json.dumps(circuit_to_json(build_ansatz("full_hea", 2, 1))))

    assert cli_main(["closure", "--circuit", str(circuit_file)]) == 0
    assert cli_main(["metric", "--circuit", str(circuit_file), "--samples", "5"]) == 0
    assert cli_main(["truncate", "--circuit", str(circuit_file), "--mode", "random",
                     "--keep", "2", "--seed", "3"]) == 0
    assert cli_main(["truncate", "--circuit", str(circuit_file), "--mode", "lie"]) == 0


@pytest.mark.parametrize("command", [
    (["closure"], ("--max-dim", "-1")),
    (["metric", "--samples", "5"], ("--samples", "0")),
    (["truncate", "--mode", "lie"], ("--budget", "1")),     # below the span, 4 at n = 2
    (["truncate", "--mode", "random"], ("--keep", "0")),
    (["closure"], ("--max-dim", "1")),                      # below the span, 4 at n = 2
    (["truncate", "--mode", "lie"], ("--budget", "-3")),
    (["truncate", "--mode", "lie"], ("--depth-cap", "-1")),
])
def test_cli_circuit_input_errors_exit_2(tmp_path, capsys, command):
    # bad circuit files, then a good circuit with a flag value the library rejects
    from liepqc.circuits import build_ansatz, circuit_to_json

    args, (flag, value) = command
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    rejected = tmp_path / "rejected.json"
    rejected.write_text(json.dumps({"kind": "bogus"}))
    bad_slot = tmp_path / "bad_slot.json"
    bad_slot.write_text(json.dumps({"n_qubits": 2, "slots": [1]}))
    for path in (tmp_path / "missing.json", malformed, rejected, bad_slot):
        assert cli_main([args[0], "--circuit", str(path), *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: ")
        assert err.count("\n") == 1
    good = tmp_path / "good.json"
    good.write_text(json.dumps(circuit_to_json(build_ansatz("full_hea", 2, 1))))
    assert cli_main([args[0], "--circuit", str(good), *args[1:], flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {flag} {value}: ValueError: ")
    assert captured.err.count("\n") == 1


def test_cli_closure_output_parses(tmp_path, capsys):
    from liepqc.circuits import build_ansatz, circuit_to_json

    circuit_file = tmp_path / "c.json"
    circuit_file.write_text(json.dumps(circuit_to_json(build_ansatz("full_hea", 2, 1))))
    cli_main(["closure", "--circuit", str(circuit_file)])
    payload = json.loads(capsys.readouterr().out)
    assert payload["converged"] is True
    assert len(payload["elements"]) == 6   # one su(2) per qubit at n=2


def test_cli_sweep_with_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "qubit_range": [2],
        "methods": ["full", "lie_trunc"],
        "sampling": {"n_samples": 6},
        "opt_steps": 0,
        "out_dir": str(tmp_path / "out"),
    }))
    assert cli_main(["sweep", "--config", str(cfg_file)]) == 0
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    written = json.loads((tmp_path / "out" / "records.json").read_text())["config"]
    assert written["sampling"] == {
        "distribution": "uniform_periodic", "n_samples": 6, "sigma": 1.0,
    }
