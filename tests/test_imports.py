"""Import footprint: the package and its entry points load without scipy, the
benchmark's layer tracer finds every name it patches, every call the
benchmark's workloads make still binds, and every public name in the package
has a reader."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_import_loads_no_scipy():
    code = (
        "import json, sys\n"
        "import liepqc, liepqc.cli, liepqc.verify\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "bench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layertrace) -> dict:
    """Every attribute of the package's modules and of the traced classes."""
    out = {}
    for layer in layertrace.LAYERS:
        module = importlib.import_module(f"liepqc.{layer}")
        out.update({(layer, attr): value for attr, value in vars(module).items()})
    for layer, attr in layertrace.TRACED:
        if "." in attr:
            cls = getattr(importlib.import_module(f"liepqc.{layer}"), attr.split(".")[0])
            out.update({(layer, cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_layer_tracer_names_resolve():
    from liepqc.trainability import LossSpec

    layertrace = _load_layertrace()
    before = _bindings(layertrace)
    tracer = layertrace.Tracer()
    tracer.install()   # raises where a traced name no longer resolves
    try:
        patched = _bindings(layertrace)
        assert patched[("sweep", "run_cell")] is not before[("sweep", "run_cell")]
    finally:
        tracer.uninstall()
    after = _bindings(layertrace)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    loss = LossSpec(kind="vqe_tfim", tfim_params=(1.0, 0.5))
    assert layertrace._observable_key((loss, 3), {}) == (3, "vqe_tfim", (1.0, 0.5), None)


def test_benchmark_workload_calls_bind():
    # bench/workloads.py's calls into the package, with the arguments it passes
    from liepqc.geometry import SamplingSpec
    from liepqc.lie import lie_closure, lie_trunc
    from liepqc.pauli import PauliSum
    from liepqc.sweep import SweepConfig, run_sweep
    from liepqc.verify import verify_suite

    sampling = SamplingSpec(n_samples=3)
    config = SweepConfig(master_seed=15, qubit_range=[7, 8], depth=2, sampling=sampling,
                         opt_steps=3)
    calls = [
        (lie_closure, ["gens"], {}),
        (lie_trunc, ["closure", "gens"], {"depth_cap": 1, "dim_budget": 9}),
        (run_sweep, [config], {}),
        (verify_suite, [config], {"include_invariants": True}),
        (PauliSum.from_letters, [3, "XIZ", -1j], {}),
        (SweepConfig, [], {"master_seed": 15, "qubit_range": [7, 8], "depth": 2,
                           "sampling": sampling, "opt_steps": 3}),
        (SweepConfig, [], {"out_dir": "out"}),   # dataclasses.replace in SweepWorkload.run
        (SamplingSpec, [], {"n_samples": 3}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def _reads(node: ast.AST) -> set[str]:
    """Every name and attribute that ``node``'s subtree reads."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_reader():
    # each module-level public function and class is read somewhere in the
    # package outside its own definition and __init__.py; a name read only
    # from unread definitions counts as unread
    top = [node for path in sorted((SRC / "liepqc").glob("*.py")) if path.name != "__init__.py"
           for node in ast.parse(path.read_text()).body]
    reads = [(node, _reads(node)) for node in top]
    readers = {node.name: [other for other, names in reads if other is not node and node.name in names]
               for node in top
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    unread: set[str] = set()
    while True:
        now = {name for name, nodes in readers.items()
               if all(getattr(other, "name", None) in unread for other in nodes)}
        if now == unread:
            break
        unread = now
    assert sorted(unread) == []
