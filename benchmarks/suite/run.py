"""Run the repository benchmark: one workload per fresh process.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload serve_mix --seed 1 \
        --seconds 30 --trace 0 [--scale full|smoke] [--out FILE]
    python3 benchmarks/suite/run.py --workload serve_mix --workload library_scalar \
        --seed 1 --runs 5 --out set.json
    python3 benchmarks/suite/run.py compare A.json B.json

A single run prints every metric with its unit, then, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  It exits 1 on a wrong answer.  ``--runs`` or
several ``--workload`` run each (workload, seed) in its own child
process and collect the records in ``--out``; ``compare`` reads two such
files.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# -- one run -------------------------------------------------------------


def first_line(proc: subprocess.Popen, timeout_s: float = 60.0) -> str:
    """The first line ``proc`` prints, or "" if none comes in time."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout_s)
    return proc.stdout.readline() if ready else ""


def probe_setups(workload: str, seed: int, scale_name: str, count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters, each minus the
    time it spent generating its inputs."""
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--probe", workload,
             "--seed", str(seed), "--scale", scale_name],
            stdout=subprocess.PIPE, text=True,
        )
        line = first_line(child)
        elapsed = perf_counter() - t0
        if not line:
            child.kill()
        child.communicate(timeout=60)
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(elapsed - json.loads(line)["input_s"])
    return samples


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            scale_name: str) -> dict:
    import spans
    import workloads

    names = declared()["end_to_end" if not trace else "per_layer"]
    units = {m["name"]: m["unit"] for m in names}
    scale = workloads.SCALES[scale_name]
    # One CPU for the run and the set-up probes it starts.  On a 2-vCPU
    # VM, handing work to a thread on the other vCPU costs milliseconds
    # that vary with the host's load, and migrations add to the tail.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not trace:
            setups = probe_setups(workload, seed, scale_name, scale["setups"])
        run = workloads.Run(
            workload=workload, seed=seed, seconds=seconds, scale=scale,
            work=work, src=SRC, tracer=spans.Tracer() if trace else None,
        )
        out = workloads.WORKLOADS[workload](run)
        if setups:
            workloads.put_setup(out, setups)
        if trace:
            run.tracer.write_jsonl(WORK / f"spans-{workload}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = set(out.metrics) - set(units)
    missing = [n for n in units if n not in out.metrics]
    if unknown or (missing and not trace):
        raise RuntimeError(f"{workload}: undeclared {sorted(unknown)}, missing {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale_name,
        "seconds": seconds,
        "trace": int(trace),
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        # A per-layer metric a workload never exercises reads 0.
        "metrics": {
            n: {"value": out.metrics.get(n, 0.0), "unit": u} for n, u in units.items()
        },
        "notes": out.notes,
        "extra": out.extra,
    }


def print_record(record: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} scale={record['scale']} "
          f"trace={record['trace']}")
    for name, metric in record["metrics"].items():
        note = record["notes"].get(name, "")
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} {note}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} {'':<6} "
          f"{failed} of {attempted} attempted")
    extra = record["extra"]
    if "latency_p99_ms" in extra:
        print(f"  {'latency_p99_ms (not gated)':<44} {extra['latency_p99_ms']:>14.6g} "
              f"{'ms':<6} same samples as latency_p50_ms")
        print(f"  {'host speed':<44} {extra['host_speed']:>14.6g} {'':<6} "
              "of the reference host; " + ("times above are x this, rates / this"
                                           if extra["scaled"] else "not applied"))
    for target, status in record["extra"].get("hooks", {}).items():
        if status != "wrapped":
            print(f"  hook {target}: {status}")


def result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


# -- several runs --------------------------------------------------------


def run_set(args) -> int:
    """Each (workload, seed) in a child process; records into ``--out``."""
    workloads_ = args.workload or [w["name"] for w in declared()["workloads"]]
    scratch = WORK / f"set-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runs, status = [], 0
    try:
        for r in range(args.runs):
            for workload in workloads_:
                seed = args.seed + r
                record_path = scratch / f"{workload}-{seed}.json"
                code = subprocess.call(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--scale", args.scale,
                     "--out", str(record_path)],
                )
                status = status or code
                if record_path.exists():
                    runs.append(json.loads(record_path.read_text())["runs"][0])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_runs(args.out, args.scale, runs)
    print(json.dumps({
        "correct": all(r["correct"] for r in runs) and status == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {},
    }))
    return status


def write_runs(path, scale: str, runs: list[dict]) -> None:
    if path is None:
        return
    document = {"schema": "repro-suite/1", "scale": scale,
                "environment": environment(), "runs": runs}
    Path(path).write_text(json.dumps(document, indent=1) + "\n")


# -- compare -------------------------------------------------------------


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def compare(path_a: str, path_b: str) -> int:
    """One row per workload and end-to-end metric; exit 1 on a regression.

    A row is ``regressed`` when B's median is worse than A's by more than
    the metric's bound, and ``unresolved`` when either side's quartile
    spread exceeds the bound, unless every B run beats every A run.
    """
    sides = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    if sides[0]["scale"] != sides[1]["scale"]:
        print(f"refusing to compare {sides[0]['scale']}-scale runs with "
              f"{sides[1]['scale']}-scale runs", file=sys.stderr)
        return 2
    metrics = declared()["end_to_end"]
    grouped = []
    for side in sides:
        by = {}
        for r in (r for r in side["runs"] if r["trace"] == 0):
            for name, m in r["metrics"].items():
                by.setdefault((r["workload"], name), []).append(m["value"])
        grouped.append(by)
    print(f"{'workload':<16}{'metric':<17}{'A median [q1, q3]':>30}"
          f"{'B median [q1, q3]':>30}{'bound':>7}  status")
    regressed = False
    for workload in dict.fromkeys(w for w, _ in grouped[0]):
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in grouped[0] or key not in grouped[1]:
                continue
            a, b = grouped[0][key], grouped[1][key]
            (ma, a1, a3), (mb, b1, b3) = _spread(a), _spread(b)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            spread = max((a3 - a1) / ma, (b3 - b1) / mb)
            b_wins = all(sign * (y - x) < 0 for x in a for y in b)
            bound = metric["bound"]
            if b_wins and -worse > bound:
                status = "better"
            elif spread > bound:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
            else:
                status = "ok"
            regressed |= status == "regressed"
            print(f"{workload:<16}{metric['name']:<17}"
                  f"{f'{ma:.4g} [{a1:.4g}, {a3:.4g}]':>30}"
                  f"{f'{mb:.4g} [{b1:.4g}, {b3:.4g}]':>30}{bound:>7.2f}  {status}")
    return 1 if regressed else 0


# -- entry point ---------------------------------------------------------


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared()["workloads"]],
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with per-layer metrics")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds seed .. seed+runs-1, each in a child process")
    parser.add_argument("--out", help="write the run records to this JSON file")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse(argv)
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.probe:
        import workloads

        work = WORK / f"probe-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            input_s = workloads.probe(
                args.probe, args.seed, workloads.SCALES[args.scale], work
            )
            print(json.dumps({"input_s": input_s}), flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0
    if args.runs > 1 or len(args.workload or ()) != 1:
        return run_set(args)
    record = run_one(args.workload[0], args.seed, args.seconds, bool(args.trace),
                     args.scale)
    print_record(record)
    write_runs(args.out, args.scale, [record])
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
