#!/usr/bin/env python3
"""Run one liepqc benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep_default --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  It times ``setup_s`` over fresh
interpreters, then starts worker processes one after another and asks each
for passes until its share of ``--seconds`` is used up: a worker's first
pass is cold, the rest warm.  With ``--trace 1`` one worker gets all the
time, its warm passes alternate traced and untraced, and the per-layer
metrics come from the traced ones.  Every pass has a wall-clock timeout and
runs under an address-space cap; a pass that times out counts all its
operations as failed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SETUP_PROBES = 5
MIN_WORKERS = 2
AS_LIMIT_MB = 2048
READY_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 100.0
EXIT_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 165.0  # a run must end within 180 s
# Pass times are scaled to a host on which worker.calibrate takes this long.
# The shared 2-vCPU machine this was tuned on changes speed by up to 2x within
# seconds; scaling each pass by the calibration times around it removes most
# of that.
CAL_REF_S = 0.5


class Child:
    """A worker process in its own session, read line by line with timeouts."""

    def __init__(self, argv: list[str], env: dict):
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            cwd=ROOT, text=True, start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def send(self, message: dict) -> None:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass

    def receive(self, timeout: float) -> dict | None:
        """The next reply, or None on timeout or when the worker has exited."""
        try:
            line = self._lines.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            return None
        return None if line is None else json.loads(line)

    def stop(self) -> None:
        """End the worker and everything it started, and wait for them."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=EXIT_TIMEOUT_S)
        self.proc.stdout.close()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.stop()


def worker_argv(args, scratch: Path, probe: bool = False) -> list[str]:
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--as-limit-mb", str(AS_LIMIT_MB), "--scratch", str(scratch),
    ]
    return argv + ["--probe"] * probe


def time_setup(args, env, scratch, deadline) -> list[float]:
    """Fresh interpreter until liepqc is imported and the inputs are built.

    Each probe is scaled, like a pass, by the host-speed samples taken in this
    process just before and just after it.
    """
    from worker import calibrate

    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        child = Child(worker_argv(args, scratch, probe=True), env)
        try:
            ready = child.receive(min(READY_TIMEOUT_S, deadline - time.monotonic()))
            elapsed = time.perf_counter() - start
        finally:
            child.stop()
        if ready is None:
            raise RuntimeError("set-up probe did not become ready")
        after = calibrate()
        times.append(elapsed * 2 * CAL_REF_S / (before + after))
        before = after
    return times


def next_pass(passes: list[dict], trace: bool, seconds: float, elapsed: float):
    """Whether a worker's next pass is traced, or None when it has measured enough.

    The first pass is the cold one.  A worker always gets one warm untraced
    pass, and with tracing one traced pass; after that a pass starts only if one
    like the last of its kind, with its host-speed sample, still fits in
    ``seconds``.
    """
    if not passes:
        return False
    warm = passes[1:]
    traced = [p for p in warm if p["traced"]]
    untraced = [p for p in warm if not p["traced"]]
    want_traced = trace and len(traced) <= len(untraced)
    if untraced and (traced or not trace):
        last = (traced if want_traced else untraced)[-1]
        if elapsed + (last["wall_s"] or 0.0) + last.get("cal_s", 0.0) > seconds:
            return None
    return want_traced


def run_worker(args, env, scratch, deadline, seconds: float) -> dict:
    """One fresh worker: its ready message and the passes it ran in ``seconds``."""
    worker = Child(worker_argv(args, scratch), env)
    passes: list[dict] = []
    try:
        ready = worker.receive(min(READY_TIMEOUT_S, deadline - time.monotonic()))
        if ready is None:
            raise RuntimeError("worker did not become ready")
        start = time.monotonic()
        while (traced := next_pass(passes, args.trace, seconds,
                                   time.monotonic() - start)) is not None:
            worker.send({"op": "pass", "traced": traced})
            reply = worker.receive(min(PASS_TIMEOUT_S, deadline - time.monotonic()))
            if reply is None:
                ops = ready["operations"]
                passes.append({"wall_s": None, "operations": ops, "traced": traced,
                               "failures": ["pass timed out or worker died"] * ops,
                               "error": "timeout", "layers": None})
                worker.kill()
                break
            reply["traced"] = traced
            passes.append(reply)
        else:
            worker.send({"op": "exit"})
            ready["exit"] = worker.receive(EXIT_TIMEOUT_S)
    except BaseException:
        worker.kill()
        raise
    finally:
        worker.stop()
    return dict(ready, passes=passes)


def measure(args, env, scratch, deadline) -> list[dict]:
    """Untraced runs use fresh workers one after another, so ``cold_wall_s``
    is a mean over several cold passes.

    Each worker gets a quarter of ``--seconds`` (and always its cold pass and
    one warm pass).  There are at least two workers, and another starts while
    one like the last still fits in ``--seconds``.  A traced run uses one
    worker for the whole time.
    """
    if args.trace:
        return [run_worker(args, env, scratch, deadline, args.seconds)]
    workers: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while len(workers) < MIN_WORKERS or time.monotonic() - start + last <= args.seconds:
        began = time.monotonic()
        workers.append(run_worker(args, env, scratch, deadline, args.seconds / 4))
        last = time.monotonic() - began
        if workers[-1]["passes"][-1]["wall_s"] is None:
            break
    return workers


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def scaled_passes(worker: dict) -> list[float | None]:
    """Each pass in reference seconds: scaled by the host-speed samples around it."""
    samples = [worker["cal_s"]] + [p.get("cal_s") for p in worker["passes"]]
    return [
        p["wall_s"] * 2 * CAL_REF_S / (samples[i] + samples[i + 1])
        if p["wall_s"] is not None and samples[i + 1] is not None else None
        for i, p in enumerate(worker["passes"])
    ]


def end_to_end(workers: list[dict], setup: list[float]) -> dict:
    """Pass and set-up times in reference seconds; memory as measured."""
    cold, warm = [], []
    for worker in workers:
        scaled = scaled_passes(worker)
        cold += scaled[:1]
        warm += scaled[1:]
    cold = [t for t in cold if t is not None]
    warm = [t for t in warm if t is not None]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": statistics.fmean(warm) if warm else None,
        "cold_wall_s": statistics.fmean(cold) if cold else None,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"] and p["layers"]]
    untraced = [p["wall_s"] for p in passes[1:] if not p["traced"] and p["wall_s"] is not None]
    if not traced or not untraced:
        return {}
    # median_low picks a measured value, so counts stay whole numbers
    layers = {k: statistics.median_low(p["layers"][k] for p in traced)
              for k in traced[0]["layers"]}
    layers["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced) - statistics.median(untraced)
    )
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the worker is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "liepqc" / "__init__.py").is_file():
        print(f"no liepqc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    os.environ.update(PINNED_THREADS)  # before numpy loads here for calibration
    env = dict(os.environ)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        setup = [] if args.trace else time_setup(args, env, scratch, deadline)
        workers = measure(args, env, scratch, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    environment = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workers[0]["inputs"],
        "cal_ref_s": CAL_REF_S,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": PINNED_THREADS,
        "versions": workers[0]["versions"],
        "as_limit_mb": AS_LIMIT_MB,
    }
    print("env " + json.dumps(environment))
    passes = [p for w in workers for p in w["passes"]]
    for w, worker in enumerate(workers):
        for i, (p, scaled) in enumerate(zip(worker["passes"], scaled_passes(worker))):
            kind = "cold" if i == 0 else ("traced" if p["traced"] else "warm")
            wall = "timeout" if p["wall_s"] is None else f"{p['wall_s']:.4f} s raw"
            if scaled is not None:
                wall += f", {scaled:.4f} s scaled"
            ok = p["operations"] - len(p["failures"])
            print(f"worker {w} pass {i} {kind}: {wall}, {ok}/{p['operations']} operations correct")
            for failure in sorted(set(p["failures"])):
                print(f"  failed: {failure}")
            if p["error"]:
                print(p["error"], file=sys.stderr)

    values = per_layer(passes) if args.trace else end_to_end(workers, setup)
    attempted = sum(p["operations"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"{m['name']}: not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted} operations)")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, environment=environment, workers=[
        {"cal_s": w["cal_s"], "spans": (w.get("exit") or {}).get("spans"), "passes": [
            {k: p.get(k) for k in ("wall_s", "cal_s", "traced", "operations", "failures")}
            for p in w["passes"]
        ]} for w in workers
    ])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
