"""Top-level ``repro`` command: one subcommand registry, one parser.

Every subcommand — experiment runners, the declarative spec runner, the
scenario engine tools, the session server and the static-analysis pass — is a
:class:`Subcommand` entry in the string-keyed :data:`SUBCOMMANDS` registry,
mirroring how metrics, algorithms and scenarios are registered elsewhere in
the library.  ``repro --help`` is therefore always complete: the parser is
*derived* from the registry, so a subcommand cannot exist without appearing
in the help output, and third-party extensions can add their own before
calling :func:`main`.

Examples
--------
List the registered experiments::

    repro list

Run one experiment with the quick profile and print its table::

    repro run thm2-single-point --profile quick --seed 0

Run every experiment and write JSON results to a directory::

    repro run-all --profile full --output results/

Run experiments on the parallel engine with a persistent result store
(``--workers`` defaults to the ``REPRO_WORKERS`` environment variable;
previously computed grid cases are reused from the store by content
address)::

    repro experiments run thm4-pd-scaling thm19-rand-scaling \
        --workers 4 --store results/store

    repro experiments list

Run a declarative :class:`~repro.api.spec.RunSpec` from a JSON file (or
several — each produces one row) without writing any Python::

    repro spec scenario.json --seed 3 --csv rows.csv

Host durable named sessions over the JSON line protocol (one request and one
response per line, see :mod:`repro.service.protocol`); with a snapshot
directory, idle or shut-down sessions persist to disk and resume
bit-identically::

    printf '%s\n' \
      '{"op": "create", "name": "east", "spec": {"algorithm": "pd-omflp",
        "metric": {"kind": "uniform-line", "num_points": 8},
        "cost": {"kind": "power", "num_commodities": 4, "exponent_x": 1.0},
        "requests": [], "seed": 0}}' \
      '{"op": "submit", "name": "east", "point": 1, "commodities": [0, 2]}' \
      '{"op": "shutdown"}' | repro serve --snapshot-dir state/

Render a result-store sweep to self-contained markdown + HTML dashboards,
diffing per-task column means against a committed regression baseline
(nonzero exit on drift, so usable as a CI ratio gate)::

    repro report --store results/store --out report/ \
        --baseline benchmarks/baselines/report_quick.json

Check the tree for determinism hazards and registry-contract violations
(:mod:`repro.lint`; nonzero exit on findings, so usable as a CI gate)::

    repro lint src/ --format json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

from repro.api.record import records_to_csv
from repro.api.registry import Registry
from repro.api.run import run_many
from repro.api.spec import RunSpec
from repro.engine.store import ResultStore
from repro.exceptions import ExperimentError
from repro.experiments.registry import list_experiments, run_experiment

__all__ = ["SUBCOMMANDS", "Subcommand", "build_parser", "main", "register_subcommand"]


@dataclass(frozen=True)
class Subcommand:
    """One entry of the ``repro`` command: a parser section plus its handler.

    Attributes
    ----------
    name:
        The subcommand word on the command line (``repro <name> ...``).
    summary:
        One-line help shown by ``repro --help``.
    configure:
        Receives the subcommand's own ``ArgumentParser`` to add arguments to.
    run:
        Receives the parsed namespace; returns the process exit code.
    """

    name: str
    summary: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


#: The subcommand registry.  Builders are zero-argument factories returning a
#: :class:`Subcommand`, so ``SUBCOMMANDS.build(name)`` mirrors every other
#: component registry in the library.
SUBCOMMANDS = Registry("subcommand")


def register_subcommand(
    name: str,
    summary: str,
    *,
    configure: Optional[Callable[[argparse.ArgumentParser], None]] = None,
) -> Callable[[Callable[[argparse.Namespace], int]], Callable[[argparse.Namespace], int]]:
    """Decorator: register the decorated handler as ``repro <name>``."""

    def decorator(run: Callable[[argparse.Namespace], int]):
        entry = Subcommand(
            name=name,
            summary=summary,
            configure=configure if configure is not None else (lambda parser: None),
            run=run,
        )
        SUBCOMMANDS.add(name, lambda: entry)
        return run

    return decorator


# ----------------------------------------------------------------------
# Shared option helpers
# ----------------------------------------------------------------------
def _default_workers() -> int:
    """Worker-count default: the ``REPRO_WORKERS`` environment variable, else 1."""
    value = os.environ.get("REPRO_WORKERS", "").strip()
    if not value:
        return 1
    try:
        workers = int(value)
    except ValueError:
        raise ExperimentError(
            f"REPRO_WORKERS must be an integer, got {value!r}"
        ) from None
    if workers < 1:
        raise ExperimentError(f"REPRO_WORKERS must be >= 1, got {workers}")
    return workers


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        choices=("quick", "full"),
        default="quick",
        help="experiment size: 'quick' (seconds) or 'full' (the EXPERIMENTS.md sizes)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the engine plan (default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="content-addressed result-store directory (reuses computed cases)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="directory to write <experiment_id>.json result files to",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="print markdown tables instead of plain text"
    )


def _run_and_report(
    experiment_id: str, args: argparse.Namespace, store: Optional[ResultStore] = None
) -> None:
    result = run_experiment(
        experiment_id,
        profile=args.profile,
        rng=args.seed,
        workers=args.workers if args.workers is not None else _default_workers(),
        store=store,
    )
    print(result.to_markdown() if args.markdown else result.to_table())
    print()
    if args.output is not None:
        path = result.save(args.output)
        print(f"wrote {path}")


def _run_experiments(experiment_ids: List[str], args: argparse.Namespace) -> None:
    store = ResultStore(args.store) if args.store is not None else None
    for experiment_id in experiment_ids:
        _run_and_report(experiment_id, args, store=store)
    if store is not None:
        print(
            f"result store {store.directory}: {store.hits} case(s) reused, "
            f"{store.writes} computed and stored"
        )


# ----------------------------------------------------------------------
# repro list / run / run-all
# ----------------------------------------------------------------------
@register_subcommand("list", "list registered experiment ids")
def _cmd_list(args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(experiment_id)
    return 0


def _configure_run(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("experiment_id", help="experiment id (see 'list')")
    _add_run_options(parser)


@register_subcommand("run", "run a single experiment", configure=_configure_run)
def _cmd_run(args: argparse.Namespace) -> int:
    _run_experiments([args.experiment_id], args)
    return 0


@register_subcommand(
    "run-all", "run every registered experiment", configure=_add_run_options
)
def _cmd_run_all(args: argparse.Namespace) -> int:
    _run_experiments(list_experiments(), args)
    return 0


# ----------------------------------------------------------------------
# repro experiments (engine-backed)
# ----------------------------------------------------------------------
def _configure_experiments(parser: argparse.ArgumentParser) -> None:
    experiments_sub = parser.add_subparsers(dest="experiments_command", required=True)
    experiments_sub.add_parser("list", help="list registered experiment ids")
    experiments_run = experiments_sub.add_parser(
        "run",
        help="run experiments on the parallel engine (all of them when no id is given)",
    )
    experiments_run.add_argument(
        "experiment_ids",
        nargs="*",
        metavar="experiment_id",
        help="experiment ids (default: every registered experiment)",
    )
    _add_run_options(experiments_run)


@register_subcommand(
    "experiments",
    "engine-backed experiment operations (list, run with workers + store)",
    configure=_configure_experiments,
)
def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.experiments_command == "list":
        for experiment_id in list_experiments():
            print(experiment_id)
        return 0
    _run_experiments(args.experiment_ids or list_experiments(), args)
    return 0


# ----------------------------------------------------------------------
# repro spec
# ----------------------------------------------------------------------
def _configure_spec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="+", type=Path, help="JSON files, each holding one RunSpec dict"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the seed of every spec"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the spec batch (default: REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--csv", type=Path, default=None, help="also write the result rows to a CSV file"
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help=(
            "resolve every spec (including nested scenario dicts) and print "
            "the normalized form without running anything"
        ),
    )


@register_subcommand(
    "spec",
    "run declarative RunSpec JSON files (one result row each)",
    configure=_configure_spec,
)
def _run_specs(args: argparse.Namespace) -> int:
    specs: List[RunSpec] = []
    for path in args.paths:
        data = json.loads(Path(path).read_text())
        if args.seed is not None:
            data["seed"] = args.seed
        specs.append(RunSpec.from_dict(data))
    if args.validate_only:
        for path, spec in zip(args.paths, specs):
            print(
                json.dumps(
                    {"file": str(path), "mode": spec.mode(), "spec": spec.normalized()},
                    indent=2,
                )
            )
        return 0
    workers = args.workers if args.workers is not None else _default_workers()
    records = run_many(specs, workers=workers)
    for record in records:
        print(record.to_json())
    if args.csv is not None:
        path = records_to_csv(records, args.csv)
        print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# repro scenarios
# ----------------------------------------------------------------------
def _configure_scenarios(parser: argparse.ArgumentParser) -> None:
    scenarios_sub = parser.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser("list", help="list registered scenario kinds")
    describe_parser = scenarios_sub.add_parser(
        "describe",
        help="describe one scenario kind (or all) with its canonical parameters",
    )
    describe_parser.add_argument(
        "kind", nargs="?", default=None, help="scenario kind (default: all kinds)"
    )
    sample_parser = scenarios_sub.add_parser(
        "sample",
        help="stream requests from a scenario spec and print them as JSON lines",
    )
    sample_parser.add_argument(
        "scenario",
        help=(
            "a registered kind name (uses its catalog example spec), inline "
            "JSON, or the path of a JSON file holding a scenario spec"
        ),
    )
    sample_parser.add_argument(
        "--n", type=int, default=10, help="number of requests to sample (default 10)"
    )
    sample_parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    sample_parser.add_argument(
        "--batch-size", type=int, default=256, help="stream batch size (result-invariant)"
    )
    sample_parser.add_argument(
        "--describe",
        action="store_true",
        help="print the environment description before the requests",
    )
    smoke_parser = scenarios_sub.add_parser(
        "smoke",
        help=(
            "run every registered scenario's catalog example through a quick "
            "OnlineSession and print one result row each"
        ),
    )
    smoke_parser.add_argument(
        "--n", type=int, default=None, help="cap requests per scenario (default: full example)"
    )
    smoke_parser.add_argument("--seed", type=int, default=0, help="root seed")


def _load_scenario_argument(argument: str):
    """Resolve the ``scenarios sample`` target: kind name, JSON text or file."""
    from repro.scenarios import EXAMPLE_SPECS, SCENARIOS, scenario_from_dict

    if argument in SCENARIOS:
        spec = EXAMPLE_SPECS.get(argument, {"kind": argument})
        return scenario_from_dict(spec)
    text = argument
    if not argument.lstrip().startswith("{"):
        path = Path(argument)
        if not path.exists():
            # Not JSON and not a file: treat as a typo'd kind name so the
            # registry's did-you-mean error surfaces instead of a bare
            # FileNotFoundError.
            SCENARIOS.get(argument)
        text = path.read_text()
    return scenario_from_dict(json.loads(text))


@register_subcommand(
    "scenarios",
    "streaming scenario engine operations (list, describe, sample, smoke)",
    configure=_configure_scenarios,
)
def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import EXAMPLE_SPECS, SCENARIOS, catalog

    if args.scenarios_command == "list":
        for kind in SCENARIOS.names():
            print(kind)
        return 0
    if args.scenarios_command == "describe":
        rows = catalog()
        if args.kind is not None:
            rows = [row for row in rows if row["kind"] == args.kind]
            if not rows:
                # Unknown kind: fail with the registry's did-you-mean message.
                SCENARIOS.get(args.kind)
        for row in rows:
            print(json.dumps(row, indent=2))
        return 0
    if args.scenarios_command == "sample":
        scenario = _load_scenario_argument(args.scenario)
        stream = scenario.open(args.seed)
        if args.describe:
            print(json.dumps(stream.environment.describe()))
        remaining = args.n
        while remaining > 0:
            batch = stream.take(min(args.batch_size, remaining))
            if not batch:
                break
            for point, commodities in batch:
                print(json.dumps([point, sorted(commodities)]))
            remaining -= len(batch)
        return 0
    if args.scenarios_command == "smoke":
        # Each registered scenario's catalog example through a quick
        # OnlineSession run (the CI scenario smoke step).
        from repro.scenarios.run import ScenarioSession

        header = f"{'scenario':18s} {'n':>6s} {'facilities':>10s} {'total_cost':>12s}"
        print(header)
        print("-" * len(header))
        for kind in SCENARIOS.names():
            example = EXAMPLE_SPECS.get(kind)
            if example is None:
                # Third-party kinds registered without a catalog example.
                print(f"{kind:18s} (no catalog example; skipped)")
                continue
            session = ScenarioSession(
                {"algorithm": "pd-omflp", "scenario": dict(example), "seed": args.seed}
            )
            count = session.stream.length
            if args.n is not None:
                count = args.n if count is None else min(count, args.n)
            session.advance(count)
            record = session.finalize()
            print(
                f"{kind:18s} {record.num_requests:>6d} "
                f"{record.num_facilities:>10d} {record.total_cost:>12.4f}"
            )
        return 0
    raise ExperimentError(f"unknown scenarios command {args.scenarios_command!r}")


# ----------------------------------------------------------------------
# repro serve
# ----------------------------------------------------------------------
def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--snapshot-dir",
        type=Path,
        default=None,
        help="directory for evicted-session snapshots (enables durable sessions)",
    )
    parser.add_argument(
        "--max-live-sessions",
        type=int,
        default=None,
        help="LRU-evict sessions beyond this count to the snapshot dir",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help=(
            "write the service span trace (per-wire-op spans with session "
            "correlation ids) to this JSON file on shutdown/EOF"
        ),
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable service span tracing (drops the metrics op's latency block)",
    )


@register_subcommand(
    "serve",
    "host durable named sessions over the stdin/stdout JSON line protocol",
    configure=_configure_serve,
)
def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily so plain experiment commands do not pay for it.
    from repro.service import SessionManager, serve

    if args.no_trace and args.trace_out is not None:
        raise ExperimentError("--trace-out needs tracing; drop --no-trace")
    manager = SessionManager(
        snapshot_dir=args.snapshot_dir,
        max_live_sessions=args.max_live_sessions,
    )
    serve(
        manager,
        sys.stdin,
        sys.stdout,
        tracer=False if args.no_trace else None,
        trace_out=args.trace_out,
    )
    return 0


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------
def _configure_report(parser: argparse.ArgumentParser) -> None:
    from repro.telemetry.cli import configure_parser

    configure_parser(parser)


@register_subcommand(
    "report",
    "render a result store or RunRecord files to markdown/HTML dashboards",
    configure=_configure_report,
)
def _cmd_report(args: argparse.Namespace) -> int:
    from repro.telemetry.cli import run

    return run(args)


# ----------------------------------------------------------------------
# repro trace
# ----------------------------------------------------------------------
def _configure_trace(parser: argparse.ArgumentParser) -> None:
    from repro.trace.cli import configure_parser

    configure_parser(parser)


@register_subcommand(
    "trace",
    "record, export (Perfetto) and summarize deterministic span traces",
    configure=_configure_trace,
)
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.cli import run

    return run(args)


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
def _configure_lint(parser: argparse.ArgumentParser) -> None:
    from repro.lint.cli import configure_parser

    configure_parser(parser)


@register_subcommand(
    "lint",
    "check the tree for determinism hazards and registry-contract violations",
    configure=_configure_lint,
)
def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run

    return run(args)


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` parser, derived from :data:`SUBCOMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the figures and theorem-backed results of 'The Online "
            "Multi-Commodity Facility Location Problem' (SPAA 2020), and run "
            "declarative scenarios through the repro.api layer."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS.names():
        entry = SUBCOMMANDS.build(name)
        sub_parser = subparsers.add_parser(entry.name, help=entry.summary)
        entry.configure(sub_parser)
        sub_parser.set_defaults(_handler=entry.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args._handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
