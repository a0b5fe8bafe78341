"""One benchmark process, started by ``run.py`` in a fresh interpreter.

Modes:

``probe``
    a set-up spawn: import, build the workload's pipeline, stop at the
    first verdict (checked against the pins).
``pass``
    one timed pass of a workload, plain or (``--trace``) with layer
    spans; every verdict is checked against the pins after the clock
    stops.
``build``
    survey a seeded default-plan sample into the recheck corpus store.
``serve``
    one closed-loop client sending a ``check`` per corpus trace to a
    ``repro serve --platforms all --backend serial`` child.

The result is written as JSON to ``--out``.  Timestamps that the parent
compares with its own spawn time are ``CLOCK_MONOTONIC`` readings,
which are system-wide on Linux.
"""

import argparse
import json
import multiprocessing
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.gen import TestPlan, default_plan  # noqa: E402
from repro.harness import backends as backends_mod  # noqa: E402
from repro.harness.backends import (ProcessPoolBackend,  # noqa: E402
                                    SerialBackend)
from repro.fsimpl.configs import config_by_name  # noqa: E402
from repro.oracle import get_oracle, oracle_name_for  # noqa: E402
from repro.oracle.verdict import ConformanceProfile  # noqa: E402
from repro.script.parser import parse_trace  # noqa: E402
from repro.script.printer import print_trace  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.store import CampaignStore, TraceRecord  # noqa: E402

from spans import Tracer  # noqa: E402
import stats  # noqa: E402
from verdicts import (PinTable, VerdictCheck, check_suite_pin,  # noqa: E402
                      expected_pin, load_pins)
from workloads import (ALL_PLATFORMS, CORPUS_CONFIGS,  # noqa: E402
                       CORPUS_SCRIPTS, WORKLOADS)

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)


def mono() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def vm_hwm_kb(pid="self") -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def tree_peak_mib() -> float:
    """Peak RSS of this process plus each live multiprocessing child
    (pool workers): the sum of per-process peaks."""
    total = vm_hwm_kb()
    for child in multiprocessing.active_children():
        try:
            total += vm_hwm_kb(child.pid)
        except OSError:
            pass
    return total / 1024.0


def oracle_engine_stats(oracle) -> dict:
    """Prefix-cache counters and memo sizes of one oracle instance."""
    cache = oracle.cache.stats() if oracle.cache is not None else {}
    table, memos = oracle.engine_snapshot()
    return {"prefix_hits": cache.get("hits", 0),
            "prefix_misses": cache.get("misses", 0),
            "memo_states": len(table),
            "memo_transitions": sum(m.stats()["transitions"]
                                    for m in memos)}


# -- pool workers (traced passes only) ----------------------------------------

_ORIGINAL_RUN_WORKER = backends_mod._run_worker
_WORKER_STATS_DIR = None


def traced_run_worker(args):
    """``_run_worker`` plus a per-worker engine-stats file.

    Installed in the parent before the pool forks, so workers inherit
    it; the file is rewritten after every task because pool workers are
    terminated, not asked to exit."""
    result = _ORIGINAL_RUN_WORKER(args)
    model = args[3]
    payload = oracle_engine_stats(get_oracle(model))
    path = pathlib.Path(_WORKER_STATS_DIR) / f"{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return result


# -- input-side counts ---------------------------------------------------------

def redundant_steps(scripts) -> int:
    """Executed steps whose script prefix (same configuration) already
    ran earlier in the pass: total steps minus distinct prefixes."""
    nodes: dict = {}
    redundant = 0
    for script in scripts:
        parent = 0
        for item in script.items:
            key = (parent, item)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = len(nodes) + 1
            else:
                redundant += 1
            parent = node
    return redundant


def repeat_traces(keys) -> int:
    """Checks whose exact (oracle, trace text) came earlier in the
    pass: what a verdict memo could answer at best."""
    seen: set = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats


class TimedPlan(TestPlan):
    """A plan whose generation is recorded as ``gen`` spans and whose
    scripts are kept for the input-side counts."""

    def __init__(self, plan: TestPlan, tracer: Tracer) -> None:
        self.plan = plan
        self.tracer = tracer
        self.seen: list = []
        self.first_at = None

    def scripts(self):
        index = self.tracer.begin("gen")
        source = iter(self.plan.scripts())
        self.tracer.end(index)
        for script in self.tracer.wrap_iter("gen", source):
            if self.first_at is None:
                self.first_at = time.perf_counter()
            self.seen.append(script)
            yield script

    def estimate(self) -> int:
        return self.plan.estimate()

    def cheap_estimate(self):
        return self.plan.cheap_estimate()

    def describe(self) -> str:
        return self.plan.describe()

    def seeds(self):
        return self.plan.seeds()


# -- suite workloads ------------------------------------------------------------

def suite_pass(spec: dict, seed: int, tmp: pathlib.Path,
               pins: dict, trace: bool, probe: bool) -> dict:
    plan = default_plan()
    if seed and not probe:
        plan = plan.shuffle(seed)
    tracer = Tracer() if trace else None
    if tracer is not None:
        plan = TimedPlan(plan, tracer)
    pool = spec["backend"] == "pool"
    backend = ProcessPoolBackend(nproc()) if pool else SerialBackend()
    store_dir = (pathlib.Path(tempfile.mkdtemp(prefix="store-", dir=tmp))
                 if spec["store"] else None)
    store = CampaignStore(store_dir) if store_dir is not None else None
    check_on = list(spec["check_on"]) or None
    primary = config_by_name(spec["config"]).platform
    oracle_name = oracle_name_for(
        [primary] + [p for p in spec["check_on"] if p != primary])
    worker_stats = tmp / "worker-stats"
    if tracer is not None:
        _patch_suite(tracer, backend, store, oracle_name, pool,
                     worker_stats)

    rows = []
    first_at = None
    artifact_bytes = 0
    t_start = mono()
    root = tracer.begin("pass") if tracer is not None else None
    session = Session(spec["config"], check_on=check_on, plan=plan,
                      backend=backend, store=store)
    try:
        for record in session.iter_records():
            if first_at is None:
                first_at = mono()
            rows.append(record)
            if probe:
                break
        if not probe and spec["artifact"]:
            render = session.run().to_json
            if tracer is not None:
                render = tracer.wrap("api.artifact", render)
            artifact_bytes = len(render().encode())
        peak = tree_peak_mib()
    finally:
        store_stats = {}
        # A probe leaves its pool and store behind: run.py kills its
        # process group, and terminating a pool whose workers are still
        # sending results can hang (see NOTES.md).  Shutdown is not
        # set-up.
        if not probe:
            session.close()
            backend.close()
            if store is not None:
                store_stats = store.stats()
                store.close()
                shutil.rmtree(store_dir)
    if root is not None:
        tracer.end(root)
    t_end = mono()
    wall = t_end - t_start

    table = PinTable(pins)
    check = VerdictCheck(table)
    for record in rows:
        check.add(spec["config"], record.outcome.checked.trace.name,
                  record.outcome.profiles)
    summary = check.summary()
    problems = [] if summary["correct"] else [
        f"verdicts differ from pins: {summary['mismatches']}"]
    if not probe:
        problems += check_suite_pin(summary, pins["suites"][spec["name"]])
    result = {"first_verdict_at": first_at, "imported_at": IMPORTED_AT,
              "wall_s": wall, "traces": len(rows),
              "peak_rss_mib": peak,
              "check": summary, "problems": problems}
    if tracer is not None:
        result["layers"] = _suite_layers(
            tracer, plan, rows, oracle_name, pool, worker_stats,
            store_stats, artifact_bytes, wall)
    return result


def _patch_suite(tracer, backend, store, oracle_name, pool,
                 worker_stats) -> None:
    import repro.api.artifact as artifact_mod
    import repro.api.session as session_mod
    session_mod.print_trace = tracer.wrap("script.print", print_trace)
    artifact_mod.print_trace = tracer.wrap("script.print", print_trace)
    backends_mod.execute_script = tracer.wrap(
        "executor", backends_mod.execute_script)
    backends_mod.parse_trace = tracer.wrap("script.parse", parse_trace)
    run_iter = backend.run_iter
    backend.run_iter = lambda *a, **k: tracer.wrap_iter(
        "backends", run_iter(*a, **k))
    if store is not None:
        store.append = tracer.wrap("store.append", store.append)
    if pool:
        global _WORKER_STATS_DIR
        worker_stats.mkdir(parents=True, exist_ok=True)
        _WORKER_STATS_DIR = str(worker_stats)
        backends_mod._run_worker = traced_run_worker
    else:
        oracle = get_oracle(oracle_name)
        oracle.check = tracer.wrap("oracle", oracle.check)


def _suite_layers(tracer, plan, rows, oracle_name, pool, worker_stats,
                  store_stats, artifact_bytes, wall) -> dict:
    self_all = tracer.self_times()
    counts = tracer.counts()
    scripts = plan.seen
    steps = sum(len(s.items) for s in scripts)
    exec_s = sum(r.exec_seconds for r in rows)
    check_s = sum(r.check_seconds for r in rows)
    if pool:
        engine = {}
        for path in worker_stats.glob("*.json"):
            for key, value in json.loads(path.read_text()).items():
                engine[key] = engine.get(key, 0) + value
        executor_s, oracle_s = exec_s, check_s
        workers = nproc()
        parent_wait = self_all.get("backends", 0.0)
    else:
        engine = oracle_engine_stats(get_oracle(oracle_name))
        executor_s = self_all.get("executor", 0.0)
        oracle_s = self_all.get("oracle", 0.0)
        workers = 1
        parent_wait = 0.0
    lookups = engine.get("prefix_hits", 0) + engine.get("prefix_misses", 0)
    redundant = redundant_steps(scripts)
    repeats = repeat_traces(
        (oracle_name, print_trace(r.outcome.checked.trace)) for r in rows)
    layers = _common_layers(tracer)
    layers.update({
        "gen.self_s": self_all.get("gen", 0.0),
        "gen.scripts": len(scripts),
        "gen.first_script_s": (plan.first_at - tracer.first("pass")[0]
                               if plan.first_at is not None else 0.0),
        "executor.self_s": executor_s,
        "executor.steps": steps,
        "executor.us_per_step": executor_s / steps * 1e6 if steps else 0.0,
        "executor.redundant_steps": redundant,
        "executor.redundant_step_frac": redundant / steps if steps else 0.0,
        "oracle.self_s": oracle_s,
        "oracle.traces": len(rows),
        "oracle.prefix_hit_frac": (engine.get("prefix_hits", 0) / lookups
                                   if lookups else 0.0),
        "oracle.repeat_traces": repeats,
        "oracle.repeat_trace_frac": repeats / len(rows) if rows else 0.0,
        "oracle.memo_states": engine.get("memo_states", 0),
        "oracle.memo_transitions": engine.get("memo_transitions", 0),
        "backends.self_s": self_all.get("backends", 0.0),
        "backends.worker_busy_frac": (exec_s + check_s) / (workers * wall),
        "backends.worker_exec_s": exec_s,
        "backends.worker_check_s": check_s,
        "backends.parent_wait_s": parent_wait,
        "backends.parent_busy_frac": 1.0 - parent_wait / wall,
        "store.append_s": self_all.get("store.append", 0.0),
        "store.rows": store_stats.get("rows", 0),
        "store.bytes": store_stats.get("bytes", 0),
        "store.dedup_hits": store_stats.get("dedup_hits", 0),
        "api.artifact_s": self_all.get("api.artifact", 0.0),
        "api.artifact_bytes": artifact_bytes,
    })
    parsed = counts.get("script.parse", 0)
    layers["script.parse_us_per_trace"] = (
        layers["script.parse_s"] / parsed * 1e6 if parsed else 0.0)
    return layers


def _common_layers(tracer: Tracer) -> dict:
    """Span self times shared by every workload, plus the wall-time
    identity: on the main thread, layer self times and the root's own
    (unaccounted) time add up to the traced wall."""
    main = threading.main_thread().ident
    self_main = tracer.self_times(main)
    self_all = tracer.self_times()
    unaccounted = self_main.get("pass", 0.0)
    layers_sum = sum(v for k, v in self_main.items() if k != "pass")
    start, end = tracer.first("pass")
    if abs(layers_sum + unaccounted - (end - start)) > 1e-6:
        raise AssertionError("span self times do not add up to the "
                             "traced wall time")
    return {
        "script.parse_s": self_all.get("script.parse", 0.0),
        "script.print_s": self_all.get("script.print", 0.0),
        "store.read_s": self_all.get("store.read", 0.0),
        "store.view_s": self_all.get("store.view", 0.0),
        "bench.compare_s": self_all.get("bench.compare", 0.0),
        "trace.wall_s": end - start,
        "trace.unaccounted_frac": unaccounted / (end - start),
        "trace.off_main_s": sum(v for k, v in self_all.items()
                                if k != "pass") - layers_sum,
    }


# -- recheck_store ------------------------------------------------------------

def expected_path(corpus: pathlib.Path) -> pathlib.Path:
    """Where the corpus build leaves the pin the recheck passes must
    match (beside the store, not in it)."""
    return corpus.with_name(corpus.name + "-expected.json")


def same_profiles(fresh, stored) -> bool:
    return ({p.platform: p for p in fresh}
            == {p.platform: p for p in stored})


def recheck_pass(corpus: pathlib.Path, pins: dict, trace: bool,
                 probe: bool) -> dict:
    for checkpoint in (corpus / "views").glob("*.json"):
        checkpoint.unlink()  # every pass folds its views from scratch
    tracer = Tracer() if trace else None
    oracle = get_oracle("all")
    open_store, parse, check_trace = CampaignStore, parse_trace, oracle.check
    same = same_profiles
    if tracer is not None:
        open_store = tracer.wrap("store.read", CampaignStore)
        parse = tracer.wrap("script.parse", parse_trace)
        check_trace = tracer.wrap("oracle", oracle.check)
        same = tracer.wrap("bench.compare", same_profiles)

    rows = []
    first_at = None
    t_start = mono()
    root = tracer.begin("pass") if tracer is not None else None
    store = open_store(corpus, create=False)
    try:
        records = store.records()
        if tracer is not None:
            records = tracer.wrap_iter("store.read", records)
        for _cursor, record in records:
            if not isinstance(record, TraceRecord):
                continue
            verdict = check_trace(parse(record.trace_text))
            equal = same(verdict.profiles, record.profiles)
            if first_at is None:
                first_at = mono()
            rows.append((record, verdict, equal))
            if probe:
                break
        if not probe:
            fold = store.refresh_view
            view = store.view
            if tracer is not None:
                fold = tracer.wrap("store.view", fold)
                view = tracer.wrap("store.view", view)
            fold("survey")
            view("merge")
        store_stats = store.stats()
    finally:
        store.close()
    peak = tree_peak_mib()
    if root is not None:
        tracer.end(root)
    t_end = mono()
    wall = t_end - t_start

    check = VerdictCheck(PinTable(pins))
    for record, verdict, equal in rows:
        check.add(record.partition.split(":", 1)[0], record.name,
                  verdict.profiles, extra_ok=equal)
    summary = check.summary()
    problems = [] if summary["correct"] else [
        f"re-checked verdicts differ from stored or pinned ones: "
        f"{summary['mismatches']}"]
    if not probe:
        # Every stored trace exactly once: a reader that skipped a
        # partition or repeated a row fails here.
        expected = json.loads(expected_path(corpus).read_text())
        problems += check_suite_pin(summary, expected)
    result = {"first_verdict_at": first_at, "imported_at": IMPORTED_AT,
              "wall_s": wall, "traces": len(rows),
              "peak_rss_mib": peak,
              "check": summary, "problems": problems}
    if tracer is not None:
        layers = _common_layers(tracer)
        engine = oracle_engine_stats(oracle)
        lookups = engine["prefix_hits"] + engine["prefix_misses"]
        repeats = repeat_traces(("all", r.trace_text) for r, _v, _e in rows)
        parsed = tracer.counts().get("script.parse", 0)
        layers.update({
            "script.parse_us_per_trace": (layers["script.parse_s"]
                                          / parsed * 1e6 if parsed
                                          else 0.0),
            "oracle.self_s": tracer.self_times().get("oracle", 0.0),
            "oracle.traces": len(rows),
            "oracle.prefix_hit_frac": (engine["prefix_hits"] / lookups
                                       if lookups else 0.0),
            "oracle.repeat_traces": repeats,
            "oracle.repeat_trace_frac": repeats / len(rows) if rows else 0.0,
            "oracle.memo_states": engine["memo_states"],
            "oracle.memo_transitions": engine["memo_transitions"],
            "store.rows": store_stats["rows"],
            "store.bytes": store_stats["bytes"],
            "store.dedup_hits": store_stats["dedup_hits"],
        })
        result["layers"] = layers
    return result


def build_corpus(corpus: pathlib.Path, seed: int, pins: dict) -> dict:
    """Survey a seeded default-plan sample on every corpus config, and
    write the pin the recheck passes must match: trace count,
    per-platform rejections and digest of the sample, from the pins."""
    plan = default_plan().sample(CORPUS_SCRIPTS, seed=seed).materialize()
    names = [script.name for script in plan.scripts()]
    expected = expected_pin(PinTable(pins), CORPUS_CONFIGS, names,
                            ALL_PLATFORMS)
    store = CampaignStore(corpus)
    try:
        with ProcessPoolBackend(nproc()) as backend:
            for config in CORPUS_CONFIGS:
                with Session(config, check_on=list(ALL_PLATFORMS),
                             plan=plan, backend=backend,
                             store=store) as session:
                    session.run()
        rows = store.stats()["rows"]
    finally:
        store.close()
    expected_path(corpus).write_text(json.dumps(expected))
    problems = ([] if rows == expected["traces"] else
                [f"corpus store holds {rows} rows, expected "
                 f"{expected['traces']}"])
    return {"rows": rows, "problems": problems}


# -- the service client ---------------------------------------------------------

def serve_client(corpus: pathlib.Path) -> dict:
    """Check every corpus trace through ``repro serve``, one request at
    a time, and require each served verdict to equal the stored one
    (which the re-check pass proved equal to the in-process verdict)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--platforms", "all",
         "--backend", "serial", "--port", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL)
    latencies = []
    nbytes = 0
    mismatched = []
    try:
        banner = server.stdout.readline().decode()
        if "listening on " not in banner:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        address = banner.split("listening on ", 1)[1].split()[0]
        store = CampaignStore(corpus, create=False)
        try:
            records = [r for _c, r in store.records()
                       if isinstance(r, TraceRecord)]
        finally:
            store.close()
        with ServiceClient(address, timeout=60.0) as client:
            t_start = time.perf_counter()
            for record in records:
                request = {"op": "check", "id": None,
                           "trace": record.trace_text}
                t0 = time.perf_counter()
                reply = client.check(record.trace_text)
                latencies.append(time.perf_counter() - t0)
                nbytes += (len(json.dumps(request).encode()) + 1
                           + len(json.dumps(reply).encode()) + 1)
                served = [ConformanceProfile.from_dict(row)
                          for row in reply["profiles"]]
                if not same_profiles(served, record.profiles):
                    mismatched.append(record.name)
            wall = time.perf_counter() - t_start
            client.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
    n = len(latencies)
    tail_pct, _tail = stats.tail(latencies)
    p99 = (stats.percentile(latencies, 99.0)
           if tail_pct is not None and tail_pct >= 99.0 else None)
    return {
        "problems": ([f"served verdicts differ: {mismatched[:5]}"]
                     if mismatched else []),
        "requests": n, "failed": len(mismatched),
        "layers": {
            "service.requests": n,
            "service.req_per_s": n / wall if wall else 0.0,
            "service.latency_ms_p50": stats.median(latencies) * 1e3,
            "service.latency_ms_p99": (p99 * 1e3 if p99 is not None
                                       else 0.0),
            "service.bytes_per_req": nbytes / n if n else 0.0,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["probe", "pass", "build",
                                         "serve"])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--corpus", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    tmp = pathlib.Path(args.tmp)
    pins = load_pins()
    spec = dict(WORKLOADS[args.workload], name=args.workload)
    corpus = pathlib.Path(args.corpus) if args.corpus else None
    if args.mode == "build":
        result = build_corpus(corpus, args.seed, pins)
    elif args.mode == "serve":
        result = serve_client(corpus)
    elif spec["kind"] == "recheck":
        result = recheck_pass(corpus, pins, args.trace,
                              probe=args.mode == "probe")
    else:
        result = suite_pass(spec, args.seed, tmp, pins,
                            args.trace, probe=args.mode == "probe")
    pathlib.Path(args.out).write_text(json.dumps(result))
    if args.mode == "probe":
        # Skip the interpreter's exit handlers too: they would
        # terminate the probe's pool just the same.
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
