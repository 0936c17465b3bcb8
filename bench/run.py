"""The benchmark's one command.

    python3 bench/run.py                      all four workloads, traced run, table
    python3 bench/run.py --smoke              the same, tiny (seconds, not minutes)
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one workload; last stdout line is the
                                              result object BENCHMARK.json describes
    python3 bench/run.py --compare A.json B.json

(``PYTHONPATH=src python -m bench.run`` is the same program.)  A run of a
workload is several sessions, each in a fresh interpreter, interleaved
round-robin across workloads so host drift hits all of them alike; a metric's
value is the median of the session values.  Results go to stdout and
``--out``; no tracked file is written.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench: the program under test is missing ({ROOT / 'src' / 'repro'})")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.workloads import WORKLOADS  # noqa: E402

SESSION_TIMEOUT_S = 150.0
#: Shapes: sessions per workload, then per session the timed seconds, the
#: untimed warm-up, the bare-loader baseline, the cold set-up cycles besides
#: the long session's own, and the budget of each isolated timing.
FULL = {"sessions": 3, "seconds": 9.0, "warmup": 3.0, "baseline": 2.0, "cycles": 3, "iso": 0.15}
SMOKE = {"sessions": 1, "seconds": 1.0, "warmup": 0.5, "baseline": 0.3, "cycles": 0, "iso": 0.02}
#: A --workload run must fit the driver's budget (92 runs in 3420 s), so it
#: trades session length for one more session: --seconds is split four ways.
DRIVER = {"sessions": 4, "warmup": 1.5, "baseline": 0.5, "cycles": 1, "iso": 0.15}


def spec() -> Dict[str, object]:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def adopt_orphans() -> None:
    """Make this process the reaper of everything below it.

    The program starts processes of its own (every posix pool brings up a
    ``multiprocessing`` resource tracker) that outlive the interpreter that
    started them.  As a child subreaper this process inherits them when their
    parent exits, so ``run_module`` can wait until each has ended instead of
    leaving them, running or as zombies, to whatever init the host has.
    Where the host refuses the call they go to its init, and ``run_module``
    watches their process group instead (``group_members``).
    """
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("bench: not a child subreaper, watching process groups instead", file=sys.stderr)


def signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def group_members(pgid: int) -> List[int]:
    """The processes of group ``pgid`` that /proc still lists, zombies too."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # ended between the listing and the read
            # "pid (comm) state ppid pgrp ...": comm may hold spaces and brackets.
            if int(stat.rpartition(") ")[2].split()[2]) == pgid:
                members.append(int(entry))
    return members


def reap_group(pgid: int, timeout_s: float) -> bool:
    """Wait for every child, adopted ones too, and until group ``pgid`` is
    empty; False if something outlives the timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            if not group_members(pgid):
                return True
            pid = 0
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)


def run_module(module: str, arguments: List[str], label: str) -> Dict[str, object]:
    """One of the benchmark's modules in a fresh interpreter, under a hard
    timeout; its last stdout line is a JSON object.

    The interpreter runs in its own process group.  On every exit path the
    whole group is stopped and every process in it is waited for (see
    ``adopt_orphans``), so neither it, its serving child nor a resource
    tracker is still there when this returns.  One module runs at a time, so
    every child this process has belongs to it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # One malloc arena (see README, "Hazards"): with per-thread arenas some
    # processes end up mapping and faulting in a fresh 12 MB collate buffer
    # for every batch, others never do, and throughput splits 240/290.
    env["MALLOC_ARENA_MAX"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", module, *arguments],
        cwd=str(ROOT), env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{label}: exceeded {SESSION_TIMEOUT_S:.0f}s") from None
    finally:
        # Interpreters die of SIGTERM; resource trackers ignore it, unlink what
        # the dead left in /dev/shm and exit by themselves.  What is still
        # there after that is killed.
        signal_group(proc.pid, signal.SIGTERM)
        if not reap_group(proc.pid, timeout_s=5.0):
            signal_group(proc.pid, signal.SIGKILL)
            reap_group(proc.pid, timeout_s=30.0)
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"{label}: failed (exit {proc.returncode})\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_session(workload: str, seed: int, shape: Dict[str, float], *, traced: bool,
                trace_out: Optional[str] = None) -> Dict[str, object]:
    """One ``bench.session`` of ``workload``."""
    arguments = [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(shape["seconds"]), "--warmup", str(shape["warmup"]),
        "--baseline", str(shape["baseline"]), "--cycles", str(shape["cycles"]),
        "--trace", str(int(traced)),
    ]
    if trace_out:
        arguments += ["--trace-out", trace_out]
    return run_module("bench.session", arguments, f"{workload}: session")


def run_isolated(workload: str, seed: int, budget_s: float) -> Dict[str, float]:
    """``bench.iso``'s timings of ``workload``: in an interpreter of their own
    too, because they create posix pools."""
    arguments = ["--workload", workload, "--seed", str(seed), "--budget", str(budget_s)]
    return run_module("bench.iso", arguments, f"{workload}: isolated timings")


def summarise(values: List[float]) -> Dict[str, object]:
    middle = statistics.median(values)
    return {
        "value": middle,
        "spread": (max(values) - min(values)) / middle if middle else 0.0,
        "sessions": values,
    }


def aggregate(untraced: List[dict], traced: Optional[dict], isolated: Dict[str, float]) -> dict:
    """Medians over the untraced sessions, plus the traced and isolated layers."""
    end_to_end = {
        name: summarise([s[name] for s in untraced])
        for name in ("batches_per_s", "wait_p99_us", "cpu_s_per_kbatch", "peak_shm_mb")
    }
    # A peak is the most any session saw, not the typical session.
    end_to_end["peak_shm_mb"]["value"] = max(end_to_end["peak_shm_mb"]["sessions"])
    cycles = [value for s in untraced for value in s["setup_s"]]
    end_to_end["setup_s"] = {**summarise([statistics.median(s["setup_s"]) for s in untraced]),
                             "value": statistics.median(cycles)}
    every = untraced + ([traced] if traced else [])
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    per_layer = {
        name: statistics.median(s["layers"][name] for s in untraced)
        for name in untraced[0]["layers"]
    }
    per_layer.update(isolated)
    if traced is not None:
        per_layer.update({k: v for k, v in traced["layers"].items() if k not in per_layer})
        per_layer["trace.overhead_share"] = (
            1.0 - traced["batches_per_s"] / end_to_end["batches_per_s"]["value"]
        )
    return {
        "end_to_end": end_to_end,
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for s in every for e in s["errors"]],
        "samples": {
            "sessions": len(untraced),
            "windows": sum(len(s["windows"]) for s in untraced),
            "wait": sum(s["wait_samples"] for s in untraced),
            "wait_q": min(s["wait_q"] for s in untraced),
            "setup_cycles": len(cycles),
        },
        "per_layer": per_layer,
    }


def measure(names: List[str], seed: int, shape: Dict[str, float], *, traced: bool,
            trace_out: Optional[str] = None) -> Dict[str, dict]:
    """Run every workload's sessions round-robin, then the traced and isolated passes."""
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    for _ in range(shape["sessions"]):
        for name in names:
            untraced[name].append(run_session(name, seed, shape, traced=False))
    results = {}
    for name in names:
        traced_session, isolated = None, {}
        if traced:
            path = f"{trace_out}.{name}.jsonl" if trace_out else None
            traced_session = run_session(name, seed, shape, traced=True, trace_out=path)
            isolated = run_isolated(name, seed, shape["iso"])
        results[name] = aggregate(untraced[name], traced_session, isolated)
    return results


def units() -> Dict[str, str]:
    described = spec()
    return {m["name"]: m["unit"] for m in described["end_to_end"] + described["per_layer"]}


def report(results: Dict[str, dict]) -> None:
    """Every metric by name, with its unit, sample counts and spread."""
    unit = units()
    for name, result in results.items():
        samples = result["samples"]
        print(f"\n== {name}: {WORKLOADS[name].why}")
        print(f"   {samples['sessions']} sessions, {samples['windows']} windows, "
              f"{samples['wait']} wait samples, {samples['setup_cycles']} set-up cycles")
        for metric, cell in result["end_to_end"].items():
            note = ""
            if metric == "wait_p99_us" and samples["wait_q"] < 0.99:
                note = f"  (too few samples for p99: p{100 * samples['wait_q']:.1f})"
            print(f"   {metric:<34}{cell['value']:>14.4f} {unit[metric]:<6}"
                  f" spread {100 * cell['spread']:5.1f}%{note}")
        print(f"   {'failed_share':<34}{result['failed_share']:>14.4f} ratio "
              f" ({result['failed']} of {result['attempted']} deliveries)")
        for metric in sorted(result["per_layer"]):
            print(f"   {metric:<34}{result['per_layer'][metric]:>14.4f} {unit.get(metric, '')}")
        for error in result["errors"]:
            print(f"   ERROR {error}")


def result_line(result: dict, traced: bool) -> str:
    """The object the driver reads: the end-to-end metrics, or with
    ``--trace 1`` every per-layer metric BENCHMARK.json names."""
    described = spec()
    if traced:
        metrics = {
            m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
            for m in described["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in described["end_to_end"]
        }
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed seconds of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--trace-out", help="prefix for the traced sessions' span JSONL")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from bench import compare

        return compare.main(args.compare[0], args.compare[1], spec())

    adopt_orphans()
    # A terminated run unwinds through run_module's clean-up like any other.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    if args.workload:
        # One workload for the driver.  The timed seconds are split over the
        # sessions; a traced run has one untraced reference session and one
        # traced session, each as long as an untraced run's sessions.
        shape = dict(DRIVER, seconds=max(1.0, args.seconds / DRIVER["sessions"]))
        if args.trace:
            shape["sessions"] = 1
        results = measure([args.workload], args.seed, shape, traced=bool(args.trace),
                          trace_out=args.trace_out)
    else:
        shape = SMOKE if args.smoke else FULL
        results = measure(list(WORKLOADS), args.seed, shape, traced=True,
                          trace_out=args.trace_out)
    report(results)
    print(f"\nfinished in {time.monotonic() - started:.1f}s")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"schema": 1, "seed": args.seed, "shape": shape, "workloads": results},
                       indent=1) + "\n",
            encoding="utf-8",
        )
    failed = sum(result["failed"] for result in results.values())
    if args.workload:
        print(result_line(results[args.workload], bool(args.trace)))
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
