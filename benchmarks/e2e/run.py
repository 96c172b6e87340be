"""The whole-pursuit benchmark: one command, four workloads.

Three ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` -- one run,
  the driver contract: set up from the seed, repeat the workload's unit
  for S seconds with tracing off, check every unit against the
  byte-identity oracle, and print as the last line one JSON object with
  the end-to-end metrics (``--trace 0``) or, after one more unit behind
  the timing proxies, the per-layer metrics (``--trace 1``).
* ``run.py [--workload W] [--seed N]`` -- the report: an untraced and a
  traced run of every (or one) workload, every metric by name with its
  unit, spread and bound; ``RESULTS.json`` keeps the latest full report.
* ``run.py --check-repeat`` -- two complete untraced sets; fails if any
  bounded metric's medians differ by more than its bound.

Exits non-zero when any identity check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC}/repro not found: run from a checkout of the repository")
for entry in (str(SRC), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import metrics  # noqa: E402
from session import SCALES, Session, build_inputs  # noqa: E402
from tracing import Trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
UNITS = {n: u for n, u, *_ in metrics.END_TO_END + metrics.PHASE + metrics.LAYER}


def summarize(values: list[float], better: str = "lower") -> dict:
    """The best of *values*, with the median, the worst and the count
    beside it; an empty list is a metric this workload does not have.

    Best, not median: on a shared host slowdowns come in bursts that only
    ever add time, so a section's fastest repeat is the steadiest figure
    a run can report (README, "Noise").
    """
    if not values:
        return {"value": 0.0, "median": 0.0, "worst": 0.0, "n": 0}
    best, worst = (max, min) if better == "higher" else (min, max)
    return {
        "value": best(values),
        "median": statistics.median(values),
        "worst": worst(values),
        "n": len(values),
    }


def best_wall(units: list) -> float:
    """One unit's wall with every timed section at its fastest repeat."""
    return sum(
        len(passes) * min(w for unit in units for w in unit.walls[name])
        for name, passes in units[0].walls.items()
    )


def set_up(session: Session, scale: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Build the session's inputs *repeats* times; returns each build's wall."""
    setups = []
    for _ in range(repeats):
        session.inputs = None
        gc.collect()
        t0 = perf_counter()
        session.inputs = build_inputs(SCALES[scale], session.seed)
        setups.append(perf_counter() - t0)
    return setups


def measure(
    session: Session, workload: str, seconds: float, trace: bool, setups: list[float]
) -> dict:
    """Repeat *workload*'s unit for *seconds* (at least once), then one
    traced unit if asked; returns every metric with its spread."""
    unit_fn = WORKLOADS[workload]
    if workload != "scan_campaign":
        session.reference  # input generation, outside the measured window
    units = []
    deadline = perf_counter() + seconds
    while True:
        units.append(unit_fn(session, None))
        if perf_counter() >= deadline:
            break
    # Set-up reports its median (the driver contract's wording); every
    # other timing reports its fastest repeat.
    results = {"setup_s": dict(summarize(setups), value=statistics.median(setups))}
    results["ops_per_s"] = dict(
        summarize([u.ops / u.wall for u in units], "higher"),
        value=units[0].ops / best_wall(units),
    )
    for name, _, better, *_ in metrics.PHASE:
        results[name] = summarize(
            [u.figures[name] for u in units if name in u.figures], better
        )
    if trace:
        recorded = Trace(f"{workload}-{session.seed}")
        traced = unit_fn(session, recorded)
        OUT.mkdir(exist_ok=True)
        recorded.dump(OUT / f"trace-{workload}.json")
        wall = recorded.wall()
        untraced = statistics.median(u.wall for u in units)
        units.append(traced)
        layers = {name: 0.0 for name, *_ in metrics.LAYER}
        layers.update(traced.layers)
        layers["trace.wall_s"] = wall
        layers["trace.overhead_pct"] = 100.0 * (wall - untraced) / untraced
        layers["trace.unattributed_pct"] = (
            100.0 * recorded.budget().get("unattributed", 0.0) / wall
        )
        for name, value in layers.items():
            results[name] = summarize([value])
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    results["failed_ops_pct"] = summarize([100.0 * failed / attempted])
    results["peak_rss_mb"] = summarize(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    )
    for name, entry in results.items():
        entry["unit"] = UNITS[name]
    return {
        "workload": workload,
        "seed": session.seed,
        "seconds": seconds,
        "units": len(units) - bool(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": results,
    }


def print_metrics(detail: dict, names: list[str]) -> None:
    for name in names:
        entry = detail["metrics"][name]
        spread = ""
        if entry["n"] > 1:
            spread = (
                f"  [median {entry['median']:.6g}, worst {entry['worst']:.6g},"
                f" n={entry['n']}]"
            )
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}{spread}")


def single_run(args) -> int:
    """The driver contract: one workload, one JSON object last."""
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)  # nothing is written outside the checkout
    session = Session(args.seed, tmp)
    try:
        if args.workload in ("standby_chain", "live_service"):
            session.child  # boots (and imports) while set-up runs
        setups = set_up(session, args.scale, 1 if args.trace else SETUP_REPEATS)
        detail = measure(
            session, args.workload, args.seconds, bool(args.trace), setups
        )
    finally:
        session.close()
    if args.trace:
        names = [n for n, *_ in metrics.PHASE + metrics.LAYER]
    else:
        names = [n for n, *_ in metrics.END_TO_END]
    print(
        f"{args.workload} seed={args.seed} scale={args.scale}: {detail['units']} "
        f"units in {args.seconds}s, {detail['failed']}/{detail['attempted']} ops failed"
    )
    print_metrics(detail, names)
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-t{args.trace}.json").write_text(json.dumps(detail))
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": detail["correct"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {
                    name: {
                        "value": detail["metrics"][name]["value"],
                        "unit": detail["metrics"][name]["unit"],
                    }
                    for name in names
                },
            }
        )
    )
    return 0 if detail["correct"] else 1


# -- the report and --check-repeat: sets of single runs -----------------------------


def fingerprint() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    git = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git.stdout.strip() if git.returncode == 0 else "unknown",
    }


def child_run(workload: str, trace: int, args) -> dict:
    """One single run in a process of its own (fresh heap, own peak RSS)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace", str(trace), "--scale", args.scale]
    done = subprocess.run(command, stdout=subprocess.DEVNULL)
    detail = json.loads((OUT / f"run-{workload}-t{trace}.json").read_text())
    if done.returncode != 0:
        detail["correct"] = False
    return detail


def run_set(names: list[str], traces: tuple[int, ...], args) -> dict:
    """``{workload: {trace: detail}}`` for one pass over *names*."""
    return {
        name: {trace: child_run(name, trace, args) for trace in traces}
        for name in names
    }


def report(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    started = time.monotonic()
    results = run_set(names, (0, 1), args)
    correct = True
    for name, by_trace in results.items():
        plain, traced = by_trace[0], by_trace[1]
        correct &= plain["correct"] and traced["correct"]
        print(f"\n== {name} (seed {args.seed}, scale {args.scale}) ==")
        print(f"why: {metrics.WORKLOADS[name]}")
        print(f"one op: {metrics.OPS[name]}")
        print(
            f"{plain['units']} units, {plain['failed']}/{plain['attempted']} ops "
            f"failed, checks {'ok' if plain['correct'] else 'FAILED'}"
        )
        print(" end to end (tracing off):")
        print_metrics(plain, [n for n, *_ in metrics.END_TO_END])
        print_metrics(plain, [n for n, *_, on in metrics.PHASE if name in on])
        print(" per layer (one traced unit):")
        print_metrics(
            traced, [n for n, *_ in metrics.LAYER if traced["metrics"][n]["value"]]
        )
    elapsed = time.monotonic() - started
    if not args.workload:
        payload = {
            "host": fingerprint(),
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            "bounds": {
                n: bound for n, _, _, bound, *_ in metrics.END_TO_END + metrics.PHASE
            },
            "workloads": {
                name: {
                    "units": by_trace[0]["units"],
                    "end_to_end": {
                        n: by_trace[0]["metrics"][n]
                        for n in applicable(name)
                    },
                    "per_layer": {
                        n: by_trace[1]["metrics"][n] for n, *_ in metrics.LAYER
                    },
                }
                for name, by_trace in results.items()
            },
        }
        (HERE / "RESULTS.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"\ntotal wall-clock {elapsed:.1f} s; checks {'ok' if correct else 'FAILED'}")
    return 0 if correct else 1


def applicable(workload: str) -> list[str]:
    """The bounded metrics *workload* has: the end-to-end ones and its phases."""
    return [n for n, *_ in metrics.END_TO_END] + [
        n for n, *_, on in metrics.PHASE if workload in on
    ]


def check_repeat(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    started = time.monotonic()
    first, second = run_set(names, (0,), args), run_set(names, (0,), args)
    bounds = {n: bound for n, _, _, bound, *_ in metrics.END_TO_END + metrics.PHASE}
    bad = 0
    for name in names:
        a, b = first[name][0], second[name][0]
        bad += not (a["correct"] and b["correct"])
        print(f"\n== {name} ==")
        for metric in applicable(name):
            bound = bounds[metric]
            x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
            apart = abs(y - x) / x if x else abs(y)
            ok = apart <= bound
            bad += not ok
            print(
                f"  {metric:<28} {x:>14.6g} {y:>14.6g} {UNITS[metric]:<9}"
                f" {100 * apart:6.2f}% apart, bound {100 * bound:2.0f}%"
                f" {'ok' if ok else 'FAILED'}"
            )
    print(f"\ntotal wall-clock {time.monotonic() - started:.1f} s; {bad} failures")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=list(SCALES), default="tiny")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    # Noise protocol: a fixed hash seed and no ambient REPRO_* settings
    # (store backend, checkpoint format, replication) but a quiet log.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", REPRO_LOG_LEVEL="WARNING")
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single_run(args)
    if args.check_repeat:
        return check_repeat(args)
    return report(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
