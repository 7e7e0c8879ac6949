"""Benchmark worker: one fresh interpreter that runs passes of a workload.

``run.py`` starts it with a wall-clock timeout on every request and an
address-space cap set here, before numpy loads.  The worker imports
``liepqc`` from the checkout's ``src``, builds the workload's inputs and
reports ``ready`` with a first host-speed sample (see ``calibrate``).  It then reads one JSON request per line on stdin and
answers each with one JSON line:

    {"op": "pass", "traced": false}  ->  wall time, operations, failures,
                                         and a host-speed sample taken after it
    {"op": "exit"}                   ->  peak RSS; spans written if traced

With ``--probe`` it exits right after ``ready``; ``run.py`` times these
probes for ``setup_s``.  Anything the library prints goes to stderr, so
stdout carries only the protocol.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--as-limit-mb", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    limit = args.as_limit_mb * 2 ** 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    reply = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    def send(message: dict) -> None:
        reply.write(json.dumps(message) + "\n")

    sys.path.insert(0, str(SRC))
    import liepqc

    if not Path(liepqc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"liepqc imported from {liepqc.__file__}, not {SRC}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    if args.probe:
        send({"ready": True})
        return 0

    import numpy
    import scipy

    reference = json.loads((BENCH / "reference.json").read_text())
    send({
        "ready": True,
        "cal_s": calibrate(),
        "operations": workload.operations(inputs),
        "inputs": inputs.described,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    })

    tracer = None
    for pass_id, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request["op"] == "exit":
            spans = None
            if tracer is not None:
                spans = Path(args.scratch).parent / f"spans-{args.workload}-seed{args.seed}.json.gz"
                tracer.write(spans)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send({"peak_rss_mb": peak_kb / 1024, "spans": spans and str(spans)})
            return 0
        if request["traced"] and tracer is None:
            from layertrace import Tracer

            tracer = Tracer()
        send(run_pass(workload, inputs, reference, args.scratch,
                      tracer if request["traced"] else None, pass_id))
    return 0


def calibrate() -> float:
    """Seconds a fixed kernel takes now: the host-speed sample.

    The kernel mixes what liepqc spends its time on, string-keyed complex
    dictionary arithmetic and dense complex 256x256 matrix products (the
    size of an n = 8 tangent frame), about 0.25 s of each, and uses no
    liepqc code, so a change to the library cannot move it.  The garbage
    collector is off while it runs: with it on, the kernel's allocations
    would pay for traversing whatever heap the last pass left behind.
    """
    import numpy as np

    gc.disable()
    try:
        start = time.perf_counter()
        terms: dict[str, complex] = {}
        for i in range(300_000):
            key = "XYZI"[i % 4] * 3 + str(i % 97)
            terms[key] = terms.get(key, 0) + complex(i, 1) * 0.5
        a = ((np.arange(256 * 256).reshape(256, 256) % 7) + 1j) / 256
        x = np.eye(256, dtype=complex)
        for _ in range(100):
            x = a @ x
            x /= np.abs(x).max()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pass(workload, inputs, reference, scratch, tracer, pass_id) -> dict:
    """One timed pass, its correctness check, then a host-speed sample.

    Failures are counted, not raised.
    """
    operations = workload.operations(inputs)
    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    layers = error = wall = None
    try:
        if tracer is not None:
            tracer.install()
            tracer.begin_pass(pass_id)
        start = time.perf_counter()
        try:
            result = workload.run(inputs, out_dir)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                layers = tracer.end_pass()
                tracer.uninstall()
        failures = workload.check(inputs, result, out_dir, reference)
    except Exception:
        error = traceback.format_exc()
        failures = [error.strip().splitlines()[-1]] * operations
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "wall_s": wall,
        "cal_s": calibrate(),
        "operations": operations,
        "failures": failures,
        "error": error,
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())
