"""End-to-end and per-layer benchmark of the test-and-check pipeline.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass, set-up spawn, corpus build
and service client runs in its own interpreter (``child.py``) and
process group; run.py kills each group when the child is done or
over time, so no pool worker or ``repro serve`` child outlives a run.
Temporary stores live under ``.layerbench_tmp/`` in the checkout and
are removed on exit.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from one traced pass (plus a plain pass for the tracing
overhead).  The last stdout line is the JSON result; on any verdict
mismatch, error or timeout it reads ``"correct": false`` with no
metrics and the exit code is 1.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import stats
from workloads import (END_TO_END, MIN_SETUP_SPAWNS, PER_LAYER,
                       RUN_DEADLINE_S, RUN_SECONDS, SETUP_SPAWNS_PER_PASS,
                       WORKLOADS, benchmark_json)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(Exception):
    pass


class Children:
    """Runs ``child.py`` modes one at a time under a run deadline."""

    def __init__(self, tmp: pathlib.Path, deadline: float,
                 common: list) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.common = common
        self.count = 0
        #: (attempted, failed) per child that checked verdicts; a child
        #: that crashed or timed out counts as one failed attempt.
        self.tally: list = []

    def totals(self) -> tuple:
        return (sum(a for a, _f in self.tally),
                sum(f for _a, f in self.tally))

    def run(self, mode: str, *extra: str) -> dict:
        self.count += 1
        out = self.tmp / f"{self.count:03d}-{mode}.json"
        err = self.tmp / f"{self.count:03d}-{mode}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        env["TMPDIR"] = str(self.tmp)
        argv = [sys.executable, str(HERE / "child.py"), mode,
                *self.common, "--tmp", str(self.tmp), "--out", str(out),
                *extra]
        remaining = self.deadline - mono()
        if remaining <= 1.0:
            raise ChildFailed(f"{mode}: run deadline reached")
        with err.open("wb") as err_fh:
            spawned = mono()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL,
                                    stderr=err_fh,
                                    start_new_session=True)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self.tally.append((1, 1))
                raise ChildFailed(f"{mode}: timed out") from None
            finally:
                reap_group(proc)
        if proc.returncode != 0:
            self.tally.append((1, 1))
            tail = err.read_text(errors="replace").strip()[-2000:]
            raise ChildFailed(f"{mode}: exit {proc.returncode}\n{tail}")
        result = json.loads(out.read_text())
        result["spawned"] = spawned
        if "check" in result:
            check = result["check"]
            self.tally.append((check["attempted"],
                               check["attempted"] - check["ok"]))
        elif "requests" in result:
            self.tally.append((result["requests"], result["failed"]))
        if result.get("problems"):
            raise ChildFailed(f"{mode}: " + "; ".join(result["problems"]))
        return result


def reap_group(proc: subprocess.Popen) -> None:
    """Kill the child's whole process group (pool workers, a serve
    child) and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    end = mono() + 5.0
    while mono() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def setup_seconds(probe: dict) -> float:
    """Spawn of a probe's interpreter to its first verdict."""
    return probe["first_verdict_at"] - probe["spawned"]


def measure(children: Children, spec: dict, seconds: float,
            trace: bool) -> tuple:
    """Run the workload; returns (metrics, notes)."""
    # An untimed spawn first, so every timed one finds compiled
    # bytecode and a warm page cache.
    children.run("probe")
    if trace:
        plain = children.run("pass")
        traced = children.run("pass", "--trace")
        layers = dict(traced["layers"])
        layers["startup.import_s"] = traced["imported_at"] - traced["spawned"]
        layers["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"]
                                         - 1.0)
        if spec["kind"] == "recheck":
            served = children.run("serve")
            layers.update(served["layers"])
        units = {name: unit for name, unit, _b in PER_LAYER}
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
        return metrics, [f"digest {traced['check']['digest']}",
                         f"rejected {traced['check']['rejected']}"]

    # Set-up spawns are taken a few before each pass, so set-up and
    # throughput sample the same stretch of host time.
    setups, rates, peaks, cycles = [], [], [], []
    started = mono()
    while True:
        cycle_start = mono()
        for _ in range(SETUP_SPAWNS_PER_PASS):
            setups.append(setup_seconds(children.run("probe")))
        result = children.run("pass")
        rates.append(result["traces"] / result["wall_s"])
        peaks.append(result["peak_rss_mib"])
        cycles.append(mono() - cycle_start)
        if mono() - started + stats.median(cycles) > seconds:
            break
    while len(setups) < MIN_SETUP_SPAWNS:
        setups.append(setup_seconds(children.run("probe")))
    attempted, failed = children.totals()
    values = {"setup_s": stats.median(setups),
              "traces_per_s": stats.median(rates),
              "peak_rss_mb": stats.median(peaks),
              "ok_frac": (attempted - failed) / attempted}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _b, _bound in END_TO_END}
    tail_pct, tail_value = stats.tail(setups)
    notes = [f"setup_s samples={len(setups)} "
             f"median={stats.median(setups):.4f} "
             + (f"p{tail_pct:g}={tail_value:.4f}" if tail_pct
                else "(too few samples for a tail percentile)")
             + " values=" + ",".join(f"{v:.3f}" for v in setups),
             f"passes={len(rates)} traces/s="
             + ",".join(f"{r:.1f}" for r in rates),
             f"digest {result['check']['digest']}",
             f"rejected {result['check']['rejected']}"]
    return metrics, notes


def _exit_on_signal(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository "
                             "root from workloads.py and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # A terminated run still reaps the running child's group and
    # removes its temporary files (the finally blocks below).
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _exit_on_signal)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"layerbench: no program under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    tmp = ROOT / ".layerbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if spec["kind"] == "recheck":
        common += ["--corpus", str(tmp / "corpus")]
    children = Children(tmp, mono() + RUN_DEADLINE_S, common)
    try:
        if spec["kind"] == "recheck":
            children.run("build")
        metrics, notes = measure(children, spec, args.seconds,
                                 bool(args.trace))
    except ChildFailed as exc:
        print(f"layerbench: {args.workload} failed: {exc}",
              file=sys.stderr)
        attempted, failed = children.totals()
        print(json.dumps({"correct": False,
                          "attempted": max(1, attempted),
                          "failed": max(1, failed), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for note in notes:
        print(f"# {args.workload}: {note}")
    for name, metric in metrics.items():
        print(f"# {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    attempted, failed = children.totals()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
