"""Command-line interface: ``repro-hc`` / ``python -m repro``.

Subcommands
-----------
``measures FILE``
    Compute MPH/TDH/TMA (and the comparison statistics) for an ETC CSV.
``dataset NAME``
    Print a bundled dataset's measures (``cint2006rate``,
    ``cfp2006rate``) or list them with ``--list``.
``generate``
    Emit an ETC CSV hitting requested (MPH, TDH, TMA) targets.
``whatif FILE``
    Per-task/per-machine removal impact table for an ETC CSV.
``schedule FILE``
    Run mapping heuristics on an ETC CSV workload and print makespans.
``cluster FILE``
    Extract the task/machine affinity groups (spectral co-clustering on
    the standard form).
``sensitivity FILE``
    Robustness of the measures under multiplicative estimation noise.
``report FILE``
    Full Markdown heterogeneity report (measures, regime, affinity
    groups, highest-impact removals).
``recommend FILE``
    Measure-driven mapping-heuristic recommendation (and optionally the
    measured makespan ranking to check it).
``profile FILE``
    Run the characterize + scheduling pipeline under the
    :mod:`repro.obs` recorder and print the span summary (Sinkhorn,
    SVD and heuristic hot paths), with each span's summed counts.
    ``FILE`` is an ETC CSV path or a bundled dataset name.
    ``--ensemble N`` adds a batched ensemble characterization stage
    (optionally with a robust ``--policy`` and injected
    ``--inject-faults``), whose ``batch.characterize_ensemble`` and
    ``robust.apply_policy`` spans carry the slice and fault counts.
``characterize FILE``
    Fault-tolerant ensemble characterization (``repro.robust``): draw a
    perturbation ensemble around an ETC CSV or bundled dataset, apply a
    quarantine/repair policy and print the per-member measures plus the
    quarantine report.  ``--inject-faults "nan=1,stall=2"`` runs a
    seeded chaos drill against the pipeline.  ``--store PATH`` streams
    an on-disk stack store (:mod:`repro.shard`) out-of-core instead,
    with ``--memory-budget MB`` / ``--chunk-size`` bounding the peak
    working set.
``serve``
    Run the characterization service (:mod:`repro.serve`): a
    JSON-over-HTTP API for ``characterize`` / ``standardize`` /
    ``recommend-heuristic`` with request coalescing, a
    content-addressed result cache, per-request quarantine/repair
    policy and a ``/metrics`` endpoint.  See ``docs/SERVING.md``.
``loadgen generate|replay``
    Seedable service traffic: ``generate`` writes a replayable JSONL
    trace (optionally chaos-corrupted via ``--inject-faults``);
    ``replay`` fires a trace at a running server and prints the
    latency/error digest.
``trace convert IN -o OUT``
    Convert a ``repro-hc profile -o trace.jsonl`` event stream into
    Chrome trace-event JSON (load in ``chrome://tracing`` / Perfetto).
``trace query FILE [--trace-id ID] [--slower-than MS] [--last N]``
    Inspect request traces from a ``repro-hc serve --trace`` span file:
    per-trace span trees with the stage-timing breakdown, filterable by
    trace id (prefix), total latency, or recency.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import __version__
from ._validation import weight_ecs
from .analysis.whatif import whatif_drop_machines, whatif_drop_tasks
from .core.environment import coerce_ecs_and_weights
from .core.io import load_etc_csv, save_etc_csv
from .exceptions import ReproError
from .generate.target_driven import from_targets
from .measures.report import characterize
from .scheduling.selection import compare_heuristics
from .spec.datasets import list_datasets, load_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-hc`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-hc",
        description="Heterogeneity measures for HC environments "
        "(MPH / TDH / TMA, IPDPS 2011 reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measures", help="characterize an ETC CSV file")
    p.add_argument("file", help="labelled ETC CSV (see repro.core.io)")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("dataset", help="characterize a bundled dataset")
    p.add_argument("name", nargs="?", help="dataset name")
    p.add_argument("--list", action="store_true", help="list dataset names")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="generate an ETC CSV with target measures")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--machines", type=int, required=True)
    p.add_argument("--mph", type=float, default=0.7)
    p.add_argument("--tdh", type=float, default=0.7)
    p.add_argument("--tma", type=float, default=0.2)
    p.add_argument("--jitter", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True, help="output CSV path")

    p = sub.add_parser("whatif", help="removal impact study for an ETC CSV")
    p.add_argument("file")
    p.add_argument(
        "--axis",
        choices=("tasks", "machines", "both"),
        default="both",
        help="which removals to study",
    )

    p = sub.add_parser("schedule", help="run mapping heuristics on an ETC CSV")
    p.add_argument("file")
    p.add_argument("--total", type=int, default=None,
                   help="task instances to draw (default: one per type)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--heuristics",
        default=None,
        help="comma-separated registry names (default: all but ga)",
    )

    p = sub.add_parser(
        "cluster", help="extract task/machine affinity groups"
    )
    p.add_argument("file")
    p.add_argument("--clusters", type=int, default=None,
                   help="group count (default: from the singular spectrum)")

    p = sub.add_parser(
        "sensitivity", help="measure robustness under estimation noise"
    )
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument(
        "--noise",
        default="0.01,0.05,0.1,0.2",
        help="comma-separated log-space sigma levels",
    )
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="full Markdown heterogeneity report")
    p.add_argument("file")
    p.add_argument("--name", default=None, help="report heading")
    p.add_argument("--no-whatif", action="store_true",
                   help="skip the removal-impact section")

    p = sub.add_parser(
        "recommend", help="measure-driven mapping-heuristic recommendation"
    )
    p.add_argument("file")
    p.add_argument("--check", action="store_true",
                   help="also run every heuristic and show the ranking")
    p.add_argument("--total", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "profile",
        help="trace the measure/scheduling hot paths (repro.obs)",
    )
    p.add_argument(
        "file",
        help="labelled ETC CSV, or a bundled dataset name "
        "(see `repro-hc dataset --list`)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="also stream the raw trace events to this JSONL file",
    )
    p.add_argument("--total", type=int, default=None,
                   help="task instances for the scheduling stage")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--ensemble",
        type=int,
        default=None,
        metavar="N",
        help="also profile an N-member perturbation-ensemble "
        "characterization (its spans count slices and faults)",
    )
    p.add_argument(
        "--policy",
        choices=("raise", "quarantine", "repair"),
        default="raise",
        help="fault policy for the --ensemble stage (repro.robust)",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="chaos spec for the --ensemble stage, e.g. 'nan=1,stall=2'",
    )
    p.add_argument("--fault-seed", type=int, default=0)

    p = sub.add_parser(
        "characterize",
        help="fault-tolerant ensemble characterization (repro.robust)",
    )
    p.add_argument(
        "file",
        nargs="?",
        default=None,
        help="labelled ETC CSV, or a bundled dataset name "
        "(see `repro-hc dataset --list`); omit when streaming --store",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="characterize an on-disk stack store out-of-core "
        "(repro.shard; see `docs/SHARDING.md`) instead of drawing an "
        "ensemble around FILE",
    )
    p.add_argument(
        "--memory-budget", type=float, default=None, metavar="MB",
        help="peak working-set budget in MiB for the --store path "
        "(the shard planner picks the chunk size)",
    )
    p.add_argument(
        "--chunk-size", type=int, default=None,
        help="members per shard chunk for the --store path "
        "(mutually exclusive with --memory-budget)",
    )
    p.add_argument(
        "--members", type=int, default=16,
        help="ensemble size drawn around the input matrix",
    )
    p.add_argument(
        "--noise", type=float, default=0.05,
        help="relative perturbation of each ensemble draw",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--policy",
        choices=("raise", "quarantine", "repair"),
        default="quarantine",
        help="fault handling: raise aborts on the first faulty member, "
        "quarantine isolates them, repair also retries them",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="seeded chaos drill: comma-separated kind=count, kinds: "
        "nan, zero-row, zero-col, decomposable, non-convergent, stall",
    )
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--severity", type=float, default=None,
        help="corner dynamic range for injected non-convergent members",
    )
    p.add_argument(
        "--stall-seconds", type=float, default=None,
        help="injected straggler sleep for stall faults",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-member worker timeout in seconds (straggler guard)",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="wall-clock budget for the whole run in seconds",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="repair-ladder attempts per quarantined member",
    )
    p.add_argument("--jobs", type=int, default=None,
                   help="process-pool width for the scalar/worker path")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser(
        "serve",
        help="run the characterization service (JSON over HTTP)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 picks a free ephemeral port)",
    )
    p.add_argument(
        "--linger-ms", type=float, default=2.0,
        help="coalescing cap: a same-shape batch flushes on the first "
        "loop turn that adds no member while no request is still being "
        "read, at --linger-ms at the latest, or at --max-batch",
    )
    p.add_argument(
        "--max-batch", type=int, default=64,
        help="flush a coalesced batch immediately at this size",
    )
    p.add_argument(
        "--cache-entries", type=int, default=1024,
        help="in-memory result-cache capacity (LRU)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="spill evicted cache entries to this directory",
    )
    p.add_argument(
        "--no-metrics", action="store_true",
        help="do not enable the process metrics registry",
    )
    p.add_argument(
        "--max-inflight", type=int, default=64,
        help="per-endpoint ceiling on concurrent compute admissions; "
        "overflow queues up to --queue-depth, then is shed with 503",
    )
    p.add_argument(
        "--queue-depth", type=int, default=256,
        help="bounded per-endpoint admission queue",
    )
    p.add_argument(
        "--no-adaptive", action="store_true",
        help="disable the AIMD capacity estimator (fixed admission "
        "limit of --max-inflight)",
    )
    p.add_argument(
        "--target-p99-ms", type=float, default=500.0,
        help="request-latency target the AIMD estimator steers the "
        "admission limit toward",
    )
    p.add_argument(
        "--default-deadline-ms", type=float, default=None,
        help="server-side deadline applied to requests that do not "
        "send their own deadline_ms",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="graceful-shutdown budget (seconds) for in-flight "
        "requests on SIGTERM/SIGINT",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="emit request/cache/kernel spans to this JSONL file "
        "(query with `repro-hc trace query`); responses carry "
        "X-Repro-Trace-Id regardless",
    )
    p.add_argument(
        "--slow-log", default=None, metavar="PATH",
        help="rotating JSONL log of requests slower than "
        "--slow-threshold-ms (trace id + stage breakdown per record)",
    )
    p.add_argument(
        "--slow-threshold-ms", type=float, default=500.0,
        help="slow-request threshold for --slow-log (default 500)",
    )

    p = sub.add_parser(
        "loadgen",
        help="generate / replay characterization-service traffic",
    )
    loadgen_sub = p.add_subparsers(dest="loadgen_command", required=True)
    p = loadgen_sub.add_parser(
        "generate", help="write a seedable, replayable request trace"
    )
    p.add_argument("-o", "--output", required=True, help="JSONL trace path")
    p.add_argument("--requests", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tasks", type=int, default=8)
    p.add_argument("--machines", type=int, default=8)
    p.add_argument("--rate", type=float, default=200.0,
                   help="mean arrival rate in requests/second")
    p.add_argument(
        "--duplicate-fraction", type=float, default=0.3,
        help="fraction of requests resubmitting a base matrix "
        "byte-for-byte (cache-hit material)",
    )
    p.add_argument(
        "--perturb-fraction", type=float, default=0.3,
        help="fraction submitting a perturbed base matrix (coalescing "
        "material)",
    )
    p.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="corrupt a seeded subset of request matrices, e.g. "
        "'nan=2,zero-row=1' (data kinds only)",
    )
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="stamp this per-request latency budget into the payloads",
    )
    p.add_argument(
        "--deadline-fraction", type=float, default=1.0,
        help="seeded fraction of requests that carry the deadline "
        "(default: all of them)",
    )
    p = loadgen_sub.add_parser(
        "replay", help="fire a trace at a running server"
    )
    p.add_argument("trace", help="JSONL trace from `loadgen generate`")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument(
        "--time-scale", type=float, default=1.0,
        help="stretch (>1) or compress (<1) recorded arrival gaps; "
        "0 releases every request at once",
    )
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="machine-readable digest")

    p = sub.add_parser(
        "trace",
        help="trace-file utilities (Chrome export, request-trace query)",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "convert",
        help="convert a repro.obs JSONL trace to Chrome trace JSON",
    )
    p.add_argument("input", help="JSONL trace from `repro-hc profile -o`")
    p.add_argument(
        "-o", "--output", required=True,
        help="Chrome trace-event JSON output path",
    )
    p = trace_sub.add_parser(
        "query",
        help="inspect request traces from a span JSONL file "
        "(`repro-hc serve --trace`)",
    )
    p.add_argument("input", help="span JSONL file from `serve --trace`")
    p.add_argument(
        "--trace-id", default=None,
        help="show only this trace (a unique id prefix suffices)",
    )
    p.add_argument(
        "--slower-than", type=float, default=None, metavar="MS",
        help="show only traces with total latency above this (ms)",
    )
    p.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="show only the N most recent matching traces",
    )
    return parser


def _address_in_use_error(exc: OSError, host: str, port: int) -> str | None:
    """An actionable one-liner when ``exc`` is EADDRINUSE, else None."""
    import errno

    if exc.errno != errno.EADDRINUSE:
        return None
    return (
        f"error: {host}:{port} is already in use — another process is "
        f"listening there; pass --port with a free port (or --port 0 "
        f"for an ephemeral one)"
    )


def _json_float(value) -> float | None:
    """NaN-safe float for JSON payloads (NaN rows become null)."""
    value = float(value)
    return None if value != value else value


def _load_env(file: str):
    """Load an ETC environment from a CSV path or bundled dataset name."""
    if file in list_datasets():
        return load_dataset(file)
    return load_etc_csv(file)


def _ensemble_stack(env, members: int, noise: float, seed: int):
    """An (N, T, M) perturbation ensemble around ``env``'s ECS matrix."""
    from .generate.ensembles import perturb_stack

    ecs = weight_ecs(*coerce_ecs_and_weights(env))
    return perturb_stack(ecs, noise, members, seed=seed)


def _build_fault_plan(args, n_members: int):
    """A seeded FaultPlan from --inject-faults, or None."""
    if args.inject_faults is None:
        return None
    from .robust import FaultPlan
    from .robust.chaos import DEFAULT_SEVERITY, DEFAULT_STALL_S

    severity = getattr(args, "severity", None)
    stall_s = getattr(args, "stall_seconds", None)
    return FaultPlan.random(
        n_members,
        faults=args.inject_faults,
        seed=args.fault_seed,
        severity=DEFAULT_SEVERITY if severity is None else severity,
        stall_s=DEFAULT_STALL_S if stall_s is None else stall_s,
    )


def _print_profile(profile, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "n_tasks": profile.n_tasks,
                    "n_machines": profile.n_machines,
                    "mph": profile.mph,
                    "tdh": profile.tdh,
                    "tma": profile.tma,
                    "tma_method": profile.tma_method,
                    "machine_r": profile.machine_r,
                    "machine_g": profile.machine_g,
                    "machine_cov": profile.machine_cov,
                    "task_r": profile.task_r,
                    "task_g": profile.task_g,
                    "task_cov": profile.task_cov,
                    "sinkhorn_iterations": profile.sinkhorn_iterations,
                },
                indent=2,
            )
        )
    else:
        print(profile.summary())


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "measures":
            _print_profile(characterize(load_etc_csv(args.file)), args.json)
        elif args.command == "dataset":
            if args.list or not args.name:
                for name in list_datasets():
                    print(name)
            else:
                _print_profile(characterize(load_dataset(args.name)), args.json)
        elif args.command == "generate":
            env = from_targets(
                args.tasks,
                args.machines,
                (args.mph, args.tdh, args.tma),
                jitter=args.jitter,
                seed=args.seed,
            )
            save_etc_csv(env.to_etc(), args.output)
            profile = characterize(env)
            print(f"wrote {args.output}")
            print(profile.summary())
        elif args.command == "whatif":
            env = load_etc_csv(args.file)
            entries = []
            if args.axis in ("tasks", "both"):
                entries += whatif_drop_tasks(env)
            if args.axis in ("machines", "both"):
                entries += whatif_drop_machines(env)
            for entry in entries:
                print(entry.summary())
        elif args.command == "schedule":
            env = load_etc_csv(args.file)
            names = (
                [n.strip() for n in args.heuristics.split(",")]
                if args.heuristics
                else None
            )
            comparison = compare_heuristics(
                env, heuristics=names, total=args.total, seed=args.seed
            )
            width = max(len(n) for n in comparison.makespans)
            for name, value in sorted(
                comparison.makespans.items(), key=lambda kv: kv[1]
            ):
                print(f"{name.ljust(width)}  makespan={value:.2f}")
            print(f"best: {comparison.best}")
        elif args.command == "cluster":
            from .measures.clusters import affinity_clusters

            env = load_etc_csv(args.file)
            clusters = affinity_clusters(env, n_clusters=args.clusters)
            print(
                f"{clusters.n_clusters} affinity group(s), "
                f"strength (TMA) = {clusters.strength:.4f}"
            )
            for cid in range(clusters.n_clusters):
                tasks = [
                    env.task_names[i] for i in clusters.task_groups()[cid]
                ]
                machines = [
                    env.machine_names[j]
                    for j in clusters.machine_groups()[cid]
                ]
                print(f"group {cid}: tasks={tasks} machines={machines}")
        elif args.command == "sensitivity":
            from .analysis.sensitivity import sensitivity_study

            env = load_etc_csv(args.file)
            levels = tuple(
                float(x) for x in args.noise.split(",") if x.strip()
            )
            result = sensitivity_study(
                env,
                noise_levels=levels,
                trials=args.trials,
                seed=args.seed,
            )
            print(result.table())
        elif args.command == "report":
            from .analysis.reporting import environment_report

            env = load_etc_csv(args.file)
            print(
                environment_report(
                    env,
                    name=args.name or args.file,
                    include_whatif=not args.no_whatif,
                )
            )
        elif args.command == "recommend":
            from .scheduling.selection import recommend_heuristic

            env = load_etc_csv(args.file)
            name, reason = recommend_heuristic(env)
            print(f"recommended: {name}")
            print(f"reason: {reason}")
            if args.check:
                comparison = compare_heuristics(
                    env, total=args.total, seed=args.seed
                )
                for h, ratio in sorted(
                    comparison.ratios.items(), key=lambda kv: kv[1]
                ):
                    marker = "  <- recommended" if h == name else ""
                    print(f"  {h:<10} ratio={ratio:.2f}{marker}")
        elif args.command == "profile":
            from .obs import recording

            env = _load_env(args.file)
            ensemble = None
            with recording(trace_path=args.output) as rec:
                profile = characterize(env)
                comparison = compare_heuristics(
                    env, total=args.total, seed=args.seed
                )
                if args.ensemble:
                    from .batch import characterize_ensemble

                    ensemble = characterize_ensemble(
                        _ensemble_stack(
                            env, args.ensemble, 0.05, args.seed
                        ),
                        policy=args.policy,
                        fault_plan=_build_fault_plan(args, args.ensemble),
                    )
                stats = rec.summary()
            if args.json:
                payload = {
                    "file": args.file,
                    "n_tasks": profile.n_tasks,
                    "n_machines": profile.n_machines,
                    "measures": {
                        "mph": profile.mph,
                        "tdh": profile.tdh,
                        "tma": profile.tma,
                    },
                    "best_heuristic": comparison.best,
                    **stats.to_dict(),
                }
                if ensemble is not None:
                    payload["ensemble"] = ensemble.summary()
                print(json.dumps(payload, indent=2))
            else:
                print(profile.summary())
                print(f"best heuristic: {comparison.best}")
                if ensemble is not None:
                    print(f"ensemble: {ensemble.summary()}")
                print()
                print(stats.table())
                if args.output:
                    print(f"\ntrace events written to {args.output}")
        elif args.command == "characterize":
            stack = shard_plan = None
            if args.store is not None:
                if args.file is not None:
                    print(
                        "error: pass FILE or --store, not both (a store "
                        "is already a full ensemble)",
                        file=sys.stderr,
                    )
                    return 2
                from .shard import StackStore, characterize_store, plan_shards

                store = StackStore(args.store)
                n_members = len(store)
                shard_plan = plan_shards(
                    store.n_members,
                    store.n_tasks,
                    store.n_machines,
                    memory_budget_bytes=(
                        int(args.memory_budget * 2**20)
                        if args.memory_budget is not None
                        else None
                    ),
                    chunk_size=args.chunk_size,
                )
            else:
                if args.file is None:
                    print(
                        "error: characterize needs an ETC FILE (or "
                        "--store PATH for an on-disk ensemble)",
                        file=sys.stderr,
                    )
                    return 2
                if (
                    args.memory_budget is not None
                    or args.chunk_size is not None
                ):
                    print(
                        "error: --memory-budget/--chunk-size only apply "
                        "to --store runs",
                        file=sys.stderr,
                    )
                    return 2
                env = _load_env(args.file)
                stack = _ensemble_stack(
                    env, args.members, args.noise, args.seed
                )
                n_members = args.members
            plan = _build_fault_plan(args, n_members)
            budget = None
            if args.policy != "raise":
                from .robust import Budget

                budget = Budget(
                    deadline_s=args.deadline,
                    member_timeout_s=args.timeout,
                    max_attempts=args.max_attempts,
                )
            if args.store is not None:
                result = characterize_store(
                    store,
                    memory_budget_mb=args.memory_budget,
                    chunk_size=args.chunk_size,
                    policy=args.policy,
                    budget=budget,
                    fault_plan=plan,
                    n_jobs=args.jobs,
                )
            else:
                from .batch import characterize_ensemble

                result = characterize_ensemble(
                    stack,
                    policy=args.policy,
                    budget=budget,
                    fault_plan=plan,
                    n_jobs=args.jobs,
                )
            report = result.report
            if args.json:
                payload = {
                    "file": args.file if args.store is None else args.store,
                    "members": len(result),
                    "policy": args.policy,
                    "mph": [_json_float(v) for v in result.mph],
                    "tdh": [_json_float(v) for v in result.tdh],
                    "tma": [_json_float(v) for v in result.tma],
                    "converged": result.converged.tolist(),
                }
                if shard_plan is not None:
                    payload["shards"] = {
                        "count": len(shard_plan.shards),
                        "chunk_size": shard_plan.chunk_size,
                        "memory_budget_bytes": (
                            shard_plan.memory_budget_bytes
                        ),
                        "estimated_peak_bytes": (
                            shard_plan.estimated_peak_bytes
                        ),
                    }
                if plan is not None:
                    payload["injected"] = {
                        str(k): v
                        for k, v in plan.expected_categories().items()
                    }
                if report is not None:
                    payload["quarantined"] = list(report.quarantined)
                    payload["repaired"] = list(report.repaired)
                    payload["categories"] = {
                        str(k): v for k, v in report.categories().items()
                    }
                print(json.dumps(payload, indent=2))
            else:
                if shard_plan is not None:
                    print(shard_plan.summary())
                if plan is not None:
                    print(plan.summary())
                print(result.summary())
                if report is not None:
                    print(report.summary())
        elif args.command == "serve":
            import asyncio
            import signal

            from .serve import CharacterizationServer, ServeConfig

            service = CharacterizationServer(
                ServeConfig(
                    host=args.host,
                    port=args.port,
                    linger_s=args.linger_ms / 1e3,
                    max_batch=args.max_batch,
                    cache_entries=args.cache_entries,
                    cache_dir=args.cache_dir,
                    enable_metrics=not args.no_metrics,
                    max_inflight=args.max_inflight,
                    queue_depth=args.queue_depth,
                    adaptive=not args.no_adaptive,
                    target_p99_ms=args.target_p99_ms,
                    default_deadline_ms=args.default_deadline_ms,
                    drain_timeout_s=args.drain_timeout,
                    trace_path=args.trace,
                    slow_log_path=args.slow_log,
                    slow_threshold_ms=args.slow_threshold_ms,
                )
            )

            async def _serve() -> None:
                await service.start()
                host, port = service.address
                print(
                    f"serving characterization API on "
                    f"http://{host}:{port}/v1/{{characterize,standardize,"
                    f"recommend-heuristic}} (GET /metrics, /healthz)",
                    flush=True,
                )
                loop = asyncio.get_running_loop()
                drain = asyncio.Event()
                received: dict[str, str] = {}

                def _on_signal(name: str) -> None:
                    received["signal"] = name
                    drain.set()

                for sig in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(sig, _on_signal, sig.name)
                    except (NotImplementedError, ValueError):
                        pass  # pragma: no cover - non-unix loop
                serve_task = asyncio.create_task(service.serve_forever())
                drain_task = asyncio.create_task(drain.wait())
                await asyncio.wait(
                    {serve_task, drain_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not drain.is_set():
                    drain_task.cancel()
                    await serve_task  # re-raise the server's error
                    return
                print(
                    f"received {received.get('signal', 'signal')}: "
                    f"draining (in-flight finishes, new work sheds, "
                    f"timeout {args.drain_timeout:.1f}s)",
                    flush=True,
                )
                clean = await service.shutdown(args.drain_timeout)
                serve_task.cancel()
                try:
                    await serve_task
                except asyncio.CancelledError:
                    pass
                print(
                    "drain complete"
                    if clean
                    else "drain timed out with work in flight",
                    flush=True,
                )

            try:
                asyncio.run(_serve())
            except KeyboardInterrupt:  # pragma: no cover - interactive
                pass
            except OSError as exc:
                message = _address_in_use_error(exc, args.host, args.port)
                if message is None:
                    raise
                print(message, file=sys.stderr)
                return 2
        elif args.command == "loadgen":
            from .serve import loadgen

            if args.loadgen_command == "generate":
                try:
                    trace = loadgen.generate_trace(
                        requests=args.requests,
                        seed=args.seed,
                        shape=(args.tasks, args.machines),
                        rate_hz=args.rate,
                        duplicate_fraction=args.duplicate_fraction,
                        perturb_fraction=args.perturb_fraction,
                        faults=args.inject_faults,
                        fault_seed=args.fault_seed,
                        deadline_ms=args.deadline_ms,
                        deadline_fraction=args.deadline_fraction,
                    )
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                loadgen.save_trace(trace, args.output)
                print(f"wrote {len(trace)} request(s) to {args.output}")
            else:
                try:
                    trace = loadgen.load_trace(args.trace)
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                try:
                    report = loadgen.replay_trace(
                        trace,
                        args.host,
                        args.port,
                        time_scale=args.time_scale,
                        timeout_s=args.timeout,
                    )
                except ConnectionRefusedError:
                    print(
                        f"error: nothing is listening on "
                        f"{args.host}:{args.port} — start the server "
                        f"with `repro-hc serve`",
                        file=sys.stderr,
                    )
                    return 2
                if args.json:
                    print(json.dumps(report.to_payload(), indent=2))
                else:
                    print(report.summary())
        elif args.command == "trace" and args.trace_command == "convert":
            from .obs import convert_trace_jsonl

            try:
                count = convert_trace_jsonl(args.input, args.output)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"wrote {count} trace event(s) to {args.output}")
        elif args.command == "trace" and args.trace_command == "query":
            from .obs import format_trace, load_spans, query_traces

            try:
                spans = load_spans(args.input)
                views = query_traces(
                    spans,
                    trace_id=args.trace_id,
                    slower_than_s=(
                        args.slower_than / 1e3
                        if args.slower_than is not None
                        else None
                    ),
                    last=args.last,
                )
            except (ValueError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if not views:
                print("no matching traces")
                return 1
            for view in views:
                print(format_trace(view))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
