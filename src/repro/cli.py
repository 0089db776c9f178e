"""Command-line interface: ``python -m repro <command>``.

Eight commands cover the everyday uses of the library:

* ``info``        — paper identity, module catalog, default scenario.
* ``reconfigure`` — run INOR once on a synthetic or CSV-described
  temperature profile and print the chosen configuration.
* ``simulate``    — run the closed-loop schemes over a drive trace and
  print the Table-I style comparison (optionally save the trace CSV).
* ``batch``       — fan a grid of named scenarios × schemes across
  workers through the batch experiment engine and print collated
  tables (``--list`` shows the scenario registry; ``--cache-dir``
  shares the physics precompute through an on-disk store).
* ``shard``       — the same grids across independent *hosts*:
  ``shard init`` writes a durable work-queue directory, any number of
  ``shard work`` processes (one per host/core, pointed at the shared
  directory) drain it crash-safely, ``shard status`` reports progress
  (``--watch`` for a live view with per-lease trouble detail) and
  ``shard collate`` reassembles the collation bit-identically to a
  serial run.
* ``serve``       — the layer-6 streaming decision service: a demo
  that drives concurrent asyncio vehicle sessions over a registry
  trace through the micro-batching hub (``--offline`` writes the
  byte-identical batch reference for diffing; ``--listen`` runs the
  TCP JSON-lines server for external clients).
* ``cache``       — inspect, warm or clear an on-disk physics cache
  directory.
* ``sweep-period``— the prior-work fixed-period trade-off table.

Every command is deterministic given its ``--seed``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro._about import PAPER_ARXIV, PAPER_TITLE, PAPER_VENUE, __version__
from repro.core.inor import INOR_KERNELS, inor
from repro.core.period_tradeoff import sweep_fixed_period
from repro.power.charger import TEGCharger
from repro.errors import TegkitError
from repro.sim.cache import PhysicsCache
from repro.sim.engine import (
    EXECUTORS,
    ExperimentCase,
    ExperimentRunner,
    grid_cases,
)
from repro.sim.results import comparison_table
from repro.sim.scenario import default_registry, default_scenario
from repro.sim.shard import (
    collate_shard,
    init_shard,
    shard_status,
    watch_shard,
    work_shard,
)
from repro.teg.array import TEGArray
from repro.teg.datasheet import MODULE_CATALOG, get_module
from repro.vehicle.trace_io import save_trace


def _add_kernel_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=INOR_KERNELS,
        default="batched",
        help="INOR candidate kernel (bit-identical results; batched is faster)",
    )


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"tegkit {__version__} — reproduction of:")
    print(f"  {PAPER_TITLE}")
    print(f"  {PAPER_VENUE}, arXiv:{PAPER_ARXIV}")
    print()
    print("Module catalog:")
    for name, module in sorted(MODULE_CATALOG.items()):
        mpp = module.mpp(35.0)
        print(
            f"  {name:28s} {module.n_couples:4d} couples, "
            f"R = {module.internal_resistance():5.2f} Ohm, "
            f"P_mpp(35 K) = {mpp.power_w:5.2f} W"
        )
    print()
    print("Default scenario: 100 x TGM-199-1.4-0.8, 800 s synthetic")
    print("Porter-II trace, 0.5 s control period, 13.8 V lead-acid bus.")
    return 0


def _profile(args: argparse.Namespace) -> np.ndarray:
    x = np.linspace(0.0, 1.0, args.modules)
    return args.dt_floor + (args.dt_peak - args.dt_floor) * np.exp(
        -args.steepness * x
    )


def _cmd_reconfigure(args: argparse.Namespace) -> int:
    module = get_module(args.module)
    array = TEGArray(module, args.modules)
    array.set_delta_t(_profile(args))
    charger = TEGCharger()
    result = inor(
        array.emf_vector(),
        array.resistance_vector(),
        charger=charger,
        kernel=args.kernel,
    )
    print(f"module:        {module.name} x {args.modules}")
    print(
        f"dT profile:    {args.dt_peak:.1f} K -> {args.dt_floor:.1f} K "
        f"(steepness {args.steepness:g})"
    )
    print(f"configuration: {result.config}")
    print(f"paper form:    {result.config.paper_form()}")
    print(f"group sizes:   {result.config.group_sizes}")
    print(
        f"array MPP:     {result.mpp.power_w:.2f} W at "
        f"{result.mpp.voltage_v:.2f} V / {result.mpp.current_a:.2f} A"
    )
    print(f"delivered:     {result.delivered_power_w:.2f} W (after converter)")
    print(f"P_ideal:       {array.ideal_power():.2f} W")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = dataclasses.replace(
        default_scenario(duration_s=args.duration, seed=args.seed),
        inor_kernel=args.kernel,
    )
    if args.save_trace:
        path = save_trace(scenario.trace, args.save_trace)
        print(f"trace saved to {path}")
    simulator = scenario.make_simulator()
    wanted = [s.strip() for s in args.schemes.split(",") if s.strip()]
    policies = scenario.make_policies()
    unknown = [s for s in wanted if s not in policies]
    if unknown:
        print(
            f"unknown schemes: {', '.join(unknown)} "
            f"(available: {', '.join(policies)})",
            file=sys.stderr,
        )
        return 2
    results = []
    for name in wanted:
        print(f"running {name} ...", file=sys.stderr)
        results.append(simulator.run(policies[name], scenario.make_charger()))
    print(comparison_table(results))
    return 0


def _parse_name_list(text: str) -> List[str]:
    """Split a comma list, de-duplicated but order-preserving.

    Repeating a name would otherwise produce duplicate case names
    downstream.
    """
    return list(dict.fromkeys(s.strip() for s in text.split(",") if s.strip()))


def _build_grid(args: argparse.Namespace) -> Optional[List[ExperimentCase]]:
    """Build the scenario × scheme case grid shared by batch and shard.

    Prints the offending names and returns ``None`` on unknown
    scenarios/schemes (callers exit 2).
    """
    registry = default_registry()
    wanted = _parse_name_list(args.scenarios)
    unknown = [s for s in wanted if s not in registry.names()]
    if unknown:
        print(
            f"unknown scenarios: {', '.join(unknown)} "
            f"(available: {', '.join(registry.names())})",
            file=sys.stderr,
        )
        return None
    schemes = _parse_name_list(args.schemes)
    known_schemes = ("DNOR", "INOR", "EHTR", "Baseline")
    bad_schemes = [s for s in schemes if s not in known_schemes]
    if bad_schemes:
        print(
            f"unknown schemes: {', '.join(bad_schemes)} "
            f"(available: {', '.join(known_schemes)})",
            file=sys.stderr,
        )
        return None
    scenarios = [
        dataclasses.replace(
            registry.build(
                name,
                duration_s=args.duration,
                seed=args.seed,
                n_modules=args.modules,
            ),
            inor_kernel=args.kernel,
        )
        for name in wanted
    ]
    return grid_cases(scenarios, schemes)


def _cmd_batch(args: argparse.Namespace) -> int:
    registry = default_registry()
    if args.list:
        print("Registered scenarios:")
        for name, description in registry.describe().items():
            scenario = registry.build(name, duration_s=20.0)
            tags = (
                f"{scenario.boundary.boundary_type}/"
                f"{scenario.module.model_type}"
            )
            print(f"  {name:20s} [{tags}] {description}")
        return 0

    cases = _build_grid(args)
    if cases is None:
        return 2
    print(
        f"running {len(cases)} cases on the {args.executor} executor ...",
        file=sys.stderr,
    )
    runner = ExperimentRunner(
        cases,
        executor=args.executor,
        max_workers=args.workers,
        cache_dir=args.cache_dir,
    )
    try:
        collation = runner.run()
    except TegkitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(collation.tables())
    stats = runner.cache.stats
    if stats.lookups:
        print(
            f"physics cache: {stats.hits}/{stats.lookups} hits "
            f"({stats.memory_hits} memory, {stats.disk_hits} disk), "
            f"{stats.misses} solves",
            file=sys.stderr,
        )
    if args.json:
        path = Path(args.json)
        path.write_text(
            collation.to_json(deterministic_only=args.json_deterministic)
        )
        print(f"summary JSON saved to {path}", file=sys.stderr)
    return 0


def _cmd_shard_init(args: argparse.Namespace) -> int:
    cases = _build_grid(args)
    if cases is None:
        return 2
    try:
        manifest = init_shard(
            args.dir, cases, warm=not args.no_warm,
            lease_ttl_s=args.lease_ttl,
        )
        status = shard_status(args.dir)
    except TegkitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"shard at {args.dir}: {len(manifest)} cases ({status.describe()})")
    if manifest.groups:
        fused = sum(len(members) for _, members in manifest.groups)
        print(
            f"fused groups: {len(manifest.groups)} "
            f"({fused} cases run grid-stacked)"
        )
    print(f"physics store: {manifest.cache_dir}")
    print(f"run 'repro shard work --dir {args.dir}' on each host to drain it")
    return 0


def _cmd_shard_work(args: argparse.Namespace) -> int:
    try:
        completed = work_shard(
            args.dir,
            worker_id=args.worker_id,
            lease_ttl_s=args.lease_ttl,
            max_cases=args.max_cases,
        )
        status = shard_status(args.dir)
    except TegkitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(
        f"worker finished {len(completed)} case(s); shard now "
        f"{status.describe()}"
    )
    return 0


def _cmd_shard_status(args: argparse.Namespace) -> int:
    try:
        if args.watch:
            status = watch_shard(args.dir, interval_s=args.interval)
            print(f"shard at {args.dir}: {status.describe()}")
            return 0 if status.complete else 1
        status = shard_status(args.dir)
    except TegkitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"shard at {args.dir}: {status.describe()}")
    for line in status.group_lines():
        print(f"  {line}")
    for line in status.detail_lines():
        print(f"  {line}")
    return 0


def _cmd_shard_collate(args: argparse.Namespace) -> int:
    try:
        collation = collate_shard(args.dir)
    except TegkitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(collation.tables())
    if args.json:
        path = Path(args.json)
        path.write_text(collation.to_json(deterministic_only=True))
        print(f"summary JSON saved to {path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_demo, run_offline_reference, serve_forever

    if args.listen:
        serve_forever(host=args.host, port=args.port)
        return 0
    try:
        if args.offline:
            counts = run_offline_reference(
                scenario_name=args.scenario,
                sessions=args.sessions,
                duration_s=args.duration,
                n_modules=args.modules,
                policy=args.policy,
                out_dir=args.decisions_dir,
                sensor_seed_base=args.seed,
            )
            total = sum(counts.values())
            print(
                f"offline reference: {len(counts)} session log(s), "
                f"{total} decision(s) -> {args.decisions_dir}"
            )
            return 0
        stats = run_demo(
            scenario_name=args.scenario,
            sessions=args.sessions,
            duration_s=args.duration,
            n_modules=args.modules,
            chunk=args.chunk,
            policy=args.policy,
            out_dir=args.decisions_dir,
            sensor_seed_base=args.seed,
        )
    except TegkitError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(
        f"served {stats['sessions']} concurrent session(s): "
        f"{stats['rows_decided']} decision(s) through "
        f"{stats['stacked_passes']} stacked kernel pass(es) "
        f"(max {stats['max_sessions_per_pass']} sessions / "
        f"{stats['max_rows_per_pass']} rows per pass)"
    )
    print(f"decision logs -> {args.decisions_dir}")
    if args.offline_check:
        import filecmp
        import tempfile

        with tempfile.TemporaryDirectory() as reference_dir:
            run_offline_reference(
                scenario_name=args.scenario,
                sessions=args.sessions,
                duration_s=args.duration,
                n_modules=args.modules,
                policy=args.policy,
                out_dir=reference_dir,
                sensor_seed_base=args.seed,
            )
            names = sorted(
                p.name for p in Path(reference_dir).glob("*.jsonl")
            )
            _, mismatch, errors = filecmp.cmpfiles(
                args.decisions_dir, reference_dir, names, shallow=False
            )
            if mismatch or errors:
                print(
                    f"ONLINE/OFFLINE MISMATCH: {mismatch or errors}",
                    file=sys.stderr,
                )
                return 1
        print(f"offline check: {len(names)} log(s) byte-identical")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = PhysicsCache(cache_dir=args.dir)
    if args.clear:
        count = len(cache.artifacts())
        cache.clear(disk=True)
        print(f"removed {count} artifact(s) from {args.dir}")
        return 0
    if args.warm:
        registry = default_registry()
        wanted = list(
            dict.fromkeys(s.strip() for s in args.warm.split(",") if s.strip())
        )
        unknown = [s for s in wanted if s not in registry.names()]
        if unknown:
            print(
                f"unknown scenarios: {', '.join(unknown)} "
                f"(available: {', '.join(registry.names())})",
                file=sys.stderr,
            )
            return 2
        scenarios = [
            registry.build(
                name,
                duration_s=args.duration,
                seed=args.seed,
                n_modules=args.modules,
            )
            for name in wanted
        ]
        solved = cache.warm(scenarios)
        stats = cache.stats
        print(
            f"warmed {len(scenarios)} scenario(s): {solved} solved, "
            f"{stats.disk_hits} loaded from disk"
        )
        for scenario, name in zip(scenarios, wanted):
            print(f"  {name:20s} {scenario.physics_fingerprint()[:16]}...")
        return 0
    artifacts = cache.artifacts()
    print(f"physics cache at {args.dir}: {len(artifacts)} artifact(s)")
    for path in artifacts:
        size_kib = path.stat().st_size / 1024.0
        print(f"  {path.stem[:16]}...  {size_kib:8.1f} KiB")
    return 0


def _cmd_sweep_period(args: argparse.Namespace) -> int:
    scenario = default_scenario(duration_s=args.duration, seed=args.seed)
    periods = [float(p) for p in args.periods.split(",")]
    tradeoff = sweep_fixed_period(scenario, periods)
    print("Fixed-period INOR trade-off (prior-work approach):")
    print(tradeoff.table())
    simulator = scenario.make_simulator()
    dnor = simulator.run(scenario.make_dnor_policy(), scenario.make_charger())
    best = tradeoff.best
    print()
    print(
        f"DNOR on the same trace: {dnor.energy_output_j:.1f} J "
        f"({dnor.switch_count} switches) vs best fixed period "
        f"{best.period_s:g} s: {best.energy_output_j:.1f} J"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Prediction-based fast TEG reconfiguration (DATE 2018 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="paper identity and module catalog").set_defaults(
        handler=_cmd_info
    )

    recon = sub.add_parser(
        "reconfigure", help="run INOR once on a synthetic gradient"
    )
    recon.add_argument("--module", default="TGM-199-1.4-0.8")
    recon.add_argument("--modules", type=int, default=100)
    recon.add_argument("--dt-peak", type=float, default=67.0, dest="dt_peak")
    recon.add_argument("--dt-floor", type=float, default=12.0, dest="dt_floor")
    recon.add_argument("--steepness", type=float, default=2.2)
    _add_kernel_arg(recon)
    recon.set_defaults(handler=_cmd_reconfigure)

    simulate = sub.add_parser(
        "simulate", help="closed-loop scheme comparison on a drive trace"
    )
    simulate.add_argument("--duration", type=float, default=120.0)
    simulate.add_argument("--seed", type=int, default=2018)
    simulate.add_argument(
        "--schemes",
        default="DNOR,INOR,Baseline",
        help="comma list from DNOR,INOR,EHTR,Baseline (EHTR is slow)",
    )
    simulate.add_argument(
        "--save-trace", default=None, help="also write the trace CSV here"
    )
    _add_kernel_arg(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    batch = sub.add_parser(
        "batch", help="multi-scenario scheme comparison via the batch engine"
    )
    batch.add_argument(
        "--list", action="store_true", help="list registered scenarios and exit"
    )
    batch.add_argument(
        "--scenarios",
        default="porter-ii",
        help="comma list of registry names (see --list)",
    )
    batch.add_argument(
        "--schemes",
        default="DNOR,INOR,Baseline",
        help="comma list from DNOR,INOR,EHTR,Baseline (EHTR is slow)",
    )
    batch.add_argument("--duration", type=float, default=None)
    batch.add_argument("--seed", type=int, default=None)
    batch.add_argument(
        "--modules", type=int, default=None, help="override chain length N"
    )
    batch.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="process",
        help=(
            "case scheduler; 'gridstack' fuses homogeneous INOR/DNOR/"
            "Baseline groups into stacked kernel passes (bit-identical "
            "to serial)"
        ),
    )
    batch.add_argument("--workers", type=int, default=None)
    batch.add_argument(
        "--json", default=None, help="also write the summary rows here"
    )
    batch.add_argument(
        "--json-deterministic",
        action="store_true",
        dest="json_deterministic",
        help="drop measured-runtime fields from --json so outputs of "
        "equal grids diff clean across hosts/executors",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        dest="cache_dir",
        help="on-disk physics cache shared across cases, workers and runs",
    )
    _add_kernel_arg(batch)
    batch.set_defaults(handler=_cmd_batch)

    shard = sub.add_parser(
        "shard",
        help="durable multi-host experiment grids over a shared directory",
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)

    shard_init = shard_sub.add_parser(
        "init", help="write the manifest + work queue and warm the physics store"
    )
    shard_init.add_argument(
        "--dir", required=True, help="shard directory (shared across hosts)"
    )
    shard_init.add_argument(
        "--scenarios",
        default="porter-ii",
        help="comma list of registry names (see batch --list)",
    )
    shard_init.add_argument(
        "--schemes",
        default="DNOR,INOR,Baseline",
        help="comma list from DNOR,INOR,EHTR,Baseline (EHTR is slow)",
    )
    shard_init.add_argument("--duration", type=float, default=None)
    shard_init.add_argument("--seed", type=int, default=None)
    shard_init.add_argument(
        "--modules", type=int, default=None, help="override chain length N"
    )
    _add_kernel_arg(shard_init)
    shard_init.add_argument(
        "--no-warm",
        action="store_true",
        dest="no_warm",
        help="skip precomputing the shared physics artifacts",
    )
    shard_init.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        dest="lease_ttl",
        help="configured lease TTL recorded in the manifest and used by "
        "every worker (default 900 s)",
    )
    shard_init.set_defaults(handler=_cmd_shard_init)

    shard_work = shard_sub.add_parser(
        "work", help="claim and run cases until the queue is drained"
    )
    shard_work.add_argument("--dir", required=True)
    shard_work.add_argument(
        "--worker-id",
        default=None,
        dest="worker_id",
        help="lease owner label (default: <hostname>-pid<pid>)",
    )
    shard_work.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        dest="lease_ttl",
        help="seconds before an unfinished claim is re-queued (crash "
        "safety); default: the shard's configured TTL from the manifest",
    )
    shard_work.add_argument(
        "--max-cases",
        type=int,
        default=None,
        dest="max_cases",
        help="stop after completing this many cases",
    )
    shard_work.set_defaults(handler=_cmd_shard_work)

    shard_state = shard_sub.add_parser(
        "status", help="done/pending/leased/expired accounting"
    )
    shard_state.add_argument("--dir", required=True)
    shard_state.add_argument(
        "--watch",
        action="store_true",
        help="poll and print progress until the shard completes",
    )
    shard_state.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch polls",
    )
    shard_state.set_defaults(handler=_cmd_shard_status)

    shard_collate = shard_sub.add_parser(
        "collate", help="reassemble the collation from a finished shard"
    )
    shard_collate.add_argument("--dir", required=True)
    shard_collate.add_argument(
        "--json",
        default=None,
        help="also write deterministic summary rows here (diffable "
        "against 'repro batch --json --json-deterministic')",
    )
    shard_collate.set_defaults(handler=_cmd_shard_collate)

    serve = sub.add_parser(
        "serve",
        help="streaming decision service (concurrent asyncio sessions)",
    )
    serve.add_argument(
        "--listen",
        action="store_true",
        help="run the TCP JSON-lines server instead of the demo",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7787)
    serve.add_argument(
        "--offline",
        action="store_true",
        help="write the offline batch reference logs instead of serving "
        "(same file names; byte-diffable against the demo output)",
    )
    serve.add_argument(
        "--scenario",
        default="porter-ii",
        help="registry scenario streamed by the demo sessions",
    )
    serve.add_argument(
        "--sessions", type=int, default=4, help="concurrent vehicle sessions"
    )
    serve.add_argument("--duration", type=float, default=30.0)
    serve.add_argument(
        "--modules", type=int, default=16, help="chain length N per session"
    )
    serve.add_argument(
        "--chunk", type=int, default=16, help="telemetry samples per feed"
    )
    serve.add_argument(
        "--policy",
        default="INOR",
        choices=("INOR", "DNOR", "EHTR", "Baseline"),
    )
    serve.add_argument(
        "--decisions-dir",
        default="serve-decisions",
        dest="decisions_dir",
        help="directory receiving one decision-log JSONL per session",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=777,
        help="sensor-seed base; session k streams with seed+k",
    )
    serve.add_argument(
        "--offline-check",
        action="store_true",
        dest="offline_check",
        help="after serving, recompute the offline reference and fail "
        "unless every session log is byte-identical",
    )
    serve.set_defaults(handler=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="inspect, warm or clear an on-disk physics cache"
    )
    cache.add_argument(
        "--dir", required=True, help="cache directory (see batch --cache-dir)"
    )
    cache.add_argument(
        "--warm",
        default=None,
        help="comma list of registry scenarios to precompute into the cache",
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete all cached artifacts"
    )
    cache.add_argument("--duration", type=float, default=None)
    cache.add_argument("--seed", type=int, default=None)
    cache.add_argument("--modules", type=int, default=None)
    cache.set_defaults(handler=_cmd_cache)

    sweep = sub.add_parser(
        "sweep-period", help="prior-work fixed-period trade-off vs DNOR"
    )
    sweep.add_argument("--duration", type=float, default=200.0)
    sweep.add_argument("--seed", type=int, default=2018)
    sweep.add_argument("--periods", default="0.5,1,2,4,8")
    sweep.set_defaults(handler=_cmd_sweep_period)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
