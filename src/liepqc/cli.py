"""Command-line entry point.

Subcommands: sweep, closure, metric, truncate, verify, plot.
Exit codes: 0 success, 1 cell or check failure, 2 configuration or input error.
Set LIEPQC_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path


def _setup_logging() -> None:
    level = os.environ.get("LIEPQC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_circuit(path: str):
    """The circuit in a JSON file, or None after an ``input error:`` line on stderr.

    A missing or unreadable file, malformed JSON and a document that
    ``circuit_from_json`` rejects are input errors (exit 2), not failures.
    """
    from .circuits import circuit_from_json

    try:
        with open(path) as fh:
            return circuit_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"input error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def _flag_error(flag: str, value, exc: ValueError) -> int:
    """Report a flag value the library rejects, or a path that cannot be
    written, as an input error (exit 2)."""
    print(f"input error: {flag} {value}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _load_config(path: str | None):
    """The sweep config in a JSON file (the default one without a path), or
    None after a ``config error:`` line on stderr.

    A missing or unreadable file, malformed JSON and a document that
    ``config_from_dict`` rejects are config errors (exit 2), not failures.
    """
    from .sweep import SweepConfig, load_config

    if path is None:
        return SweepConfig()
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:  # ConfigError and JSONDecodeError are ValueErrors
        print(f"config error: {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    if config is None:
        return 2
    try:
        overrides = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.qubits:
            overrides["qubit_range"] = [int(x) for x in args.qubits.split(",")]
        if args.depth is not None:
            overrides["depth"] = args.depth
        if args.methods:
            overrides["methods"] = args.methods.split(",")
        if args.samples is not None:
            overrides["sampling"] = {**config.to_json()["sampling"], "n_samples": args.samples}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if overrides:
            from .sweep import config_from_dict

            config = config_from_dict({**config.to_json(), **overrides})
    except ValueError as exc:  # a ConfigError, or a --qubits entry that is not an int
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from .sweep import ConfigError, run_sweep

    try:
        records, errors = run_sweep(config)
    except ConfigError as exc:  # an out_dir that cannot be a directory, before any cell
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(records)} records to {config.out_dir}")
    for err in errors:
        print(f"cell failure n={err['n']} method={err['method']}: {err['error']}",
              file=sys.stderr)
    return 1 if errors else 0


def _cmd_closure(args: argparse.Namespace) -> int:
    from .lie import lie_closure

    circuit = _load_circuit(args.circuit)
    if circuit is None:
        return 2
    try:
        basis = lie_closure(circuit.skew_generators(), max_dim=args.max_dim)
    except ValueError as exc:
        return _flag_error("--max-dim", args.max_dim, exc)
    print(json.dumps(basis.to_json(), indent=2))
    return 0


def _cmd_metric(args: argparse.Namespace) -> int:
    from .geometry import SamplingSpec, empirical_metric

    circuit = _load_circuit(args.circuit)
    if circuit is None:
        return 2
    try:
        sampling = SamplingSpec(n_samples=args.samples, seed=args.seed)
    except ValueError as exc:
        return _flag_error("--samples", args.samples, exc)
    rep = empirical_metric(circuit, sampling)
    print(json.dumps(rep.to_json(), indent=2))
    return 0


def _cmd_truncate(args: argparse.Namespace) -> int:
    from .circuits import circuit_to_json
    from .lie import apply_lie_trunc, apply_random_trunc, lie_closure

    circuit = _load_circuit(args.circuit)
    if circuit is None:
        return 2
    if args.mode == "random":
        try:
            model, basis, report = apply_random_trunc(circuit, keep=args.keep, seed=args.seed)
        except ValueError as exc:
            return _flag_error("--keep", args.keep, exc)
    else:
        # 0 is the automatic budget; a negative one is below every span
        closure = lie_closure(circuit.skew_generators())
        try:
            model, basis, report = apply_lie_trunc(
                circuit, closure, depth_cap=args.depth_cap, dim_budget=args.budget or None
            )
        except ValueError as exc:
            if args.depth_cap < 0:
                return _flag_error("--depth-cap", args.depth_cap, exc)
            return _flag_error("--budget", args.budget, exc)
    out = {
        "basis": basis.to_json(),
        "report": report.to_json(),
        "model": circuit_to_json(model),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_suite

    config = _load_config(args.config)
    if config is None:
        return 2
    if args.out is not None:
        try:  # an unusable report path, the empty one too, fails before any check runs
            open(args.out, "a").close()
        except OSError as exc:
            return _flag_error("--out", args.out, exc)
    report = verify_suite(config, include_invariants=not args.acceptance_only)
    print(f"shared sweep: {report['shared_sweep_s']:.2f}s")
    print(f"verify wall: {report['wall_s']:.2f}s")
    for chk in report["checks"]:
        status = "PASS" if chk["passed"] else "FAIL"
        print(f"[{status}] {chk['label']} ({chk['seconds']:.2f}s): {chk['detail']}")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report written to {args.out}")
    return 0 if report["passed"] else 1


def _cmd_plot(args: argparse.Namespace) -> int:
    from .geometry import read_spectrum_csv, spectrum_path
    from .plots import emit_plots
    from .sweep import CSV_HEADER, SweepRecord

    path = reading = Path(args.records)
    try:
        rows = path.read_text().strip().splitlines()
        if len(rows) < 2 or rows[0] != CSV_HEADER:
            raise ValueError("expected the records.csv header and at least one row")
        records = [SweepRecord.from_csv_row(line) for line in rows[1:]]
        spectra = {}
        for rec in records:
            reading = spectrum_path(path.parent, rec.method, rec.n)
            if reading.exists():
                spectra[(rec.method, rec.n)] = read_spectrum_csv(reading)
    except (OSError, ValueError) as exc:
        print(f"input error: {reading}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    out_dir = path.parent if args.out is None else args.out
    try:  # an unusable output path fails before any figure is drawn
        if not out_dir:  # Path("") would be the current directory
            raise FileNotFoundError("an empty path names no directory")
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _flag_error("--out", out_dir, exc)
    created = emit_plots(records, out_dir, spectra=spectra or None)
    print(f"wrote {len(created)} figures to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepqc",
        description="Lie-algebraic trainability lab for parameterized quantum circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the full experiment grid")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory (overrides config)")
    p.add_argument("--qubits", help="comma-separated qubit counts")
    p.add_argument("--depth", type=int)
    p.add_argument("--methods", help="comma-separated subset of full,random_trunc,lie_trunc")
    p.add_argument("--samples", type=int, help="metric/variance sample count")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--workers", type=int,
                   help="processes, 1 inside a multiprocessing child; "
                        "0 = one per qubit count, up to the usable CPUs")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("closure", help="Lie closure of a circuit's generators")
    p.add_argument("--circuit", required=True, help="circuit JSON file")
    p.add_argument("--max-dim", type=int, default=None)
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("metric", help="empirical Fubini-Study metric of a circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("truncate", help="structured or random generator truncation")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", choices=["lie", "random"], required=True)
    p.add_argument("--keep", type=int, default=2, help="directions kept (random mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth-cap", type=int, default=1)
    p.add_argument("--budget", type=int, default=0, help="0 = generator span dimension")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("verify", help="run acceptance and invariant checks")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="write JSON report here")
    p.add_argument("--acceptance-only", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("plot", help="re-emit figures from a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
