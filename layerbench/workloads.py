"""Workload definitions and the metric catalogue (no program imports).

``run.py`` reads this module without importing the program; the child
processes read it for the workload details.  ``BENCHMARK.json`` is
generated from it (``python3 layerbench/run.py --write-benchmark-json``)
and a test keeps the committed file equal to the generated one.
"""

from __future__ import annotations

#: Platforms checked by the vectored passes, in the program's SPECS
#: order (the ``all`` oracle).
ALL_PLATFORMS = ("posix", "linux", "osx", "freebsd")

#: Configurations surveyed into the recheck corpus: clean Linux, quirky
#: Linux, OS X and FreeBSD.  The pin table covers exactly these.
CORPUS_CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs", "osx_hfsplus",
                  "freebsd_ufs")

#: Default-plan scripts sampled (per seed) into the recheck corpus;
#: every one is surveyed on each corpus configuration.
CORPUS_SCRIPTS = 750

#: Set-up spawns before each pass, and at least this many per run;
#: ``setup_s`` is their median.
SETUP_SPAWNS_PER_PASS = 3
MIN_SETUP_SPAWNS = 9

#: Wall-clock limit of one run; a run must end within 180 s.
RUN_DEADLINE_S = 170.0

WORKLOADS = {
    "suite_ext4": {
        "why": "the full default plan on clean linux_ext4, serial, "
               "checked on linux, ending with the artifact JSON; "
               "execution and generation dominate",
        "kind": "suite", "config": "linux_ext4", "check_on": (),
        "backend": "serial", "store": False, "artifact": True,
    },
    "suite_sshfs_pool": {
        "why": "the full default plan on quirky linux_sshfs_tmpfs over "
               "a process pool, checked on all four platforms, every "
               "verdict appended to a fresh store",
        "kind": "suite", "config": "linux_sshfs_tmpfs",
        "check_on": ALL_PLATFORMS, "backend": "pool", "store": True,
        "artifact": False,
    },
    "recheck_store": {
        "why": "re-check a stored four-config campaign on the all "
               "oracle and fold its views; parsing, checking and store "
               "reads dominate and nothing executes",
        "kind": "recheck",
    },
}

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("traces_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.01),
)

#: (name, unit, better)
PER_LAYER = (
    ("startup.import_s", "s", "lower"),
    ("gen.self_s", "s", "lower"),
    ("gen.scripts", "count", "higher"),
    ("gen.first_script_s", "s", "lower"),
    ("script.parse_s", "s", "lower"),
    ("script.print_s", "s", "lower"),
    ("script.parse_us_per_trace", "us", "lower"),
    ("executor.self_s", "s", "lower"),
    ("executor.steps", "count", "higher"),
    ("executor.us_per_step", "us", "lower"),
    ("executor.redundant_steps", "count", "lower"),
    ("executor.redundant_step_frac", "frac", "lower"),
    ("oracle.self_s", "s", "lower"),
    ("oracle.traces", "count", "higher"),
    ("oracle.prefix_hit_frac", "frac", "higher"),
    ("oracle.repeat_traces", "count", "higher"),
    ("oracle.repeat_trace_frac", "frac", "higher"),
    ("oracle.memo_states", "count", "lower"),
    ("oracle.memo_transitions", "count", "lower"),
    ("backends.self_s", "s", "lower"),
    ("backends.worker_busy_frac", "frac", "higher"),
    ("backends.worker_exec_s", "s", "lower"),
    ("backends.worker_check_s", "s", "lower"),
    ("backends.parent_wait_s", "s", "lower"),
    ("backends.parent_busy_frac", "frac", "lower"),
    ("store.append_s", "s", "lower"),
    ("store.rows", "count", "higher"),
    ("store.bytes", "B", "lower"),
    ("store.dedup_hits", "count", "lower"),
    ("store.read_s", "s", "lower"),
    ("store.view_s", "s", "lower"),
    ("api.artifact_s", "s", "lower"),
    ("api.artifact_bytes", "B", "lower"),
    ("service.requests", "count", "higher"),
    ("service.req_per_s", "1/s", "higher"),
    ("service.latency_ms_p50", "ms", "lower"),
    ("service.latency_ms_p99", "ms", "lower"),
    ("service.bytes_per_req", "B", "lower"),
    ("bench.compare_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.off_main_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unaccounted_frac", "frac", "lower"),
)

RUN_SECONDS = 30


def benchmark_json() -> dict:
    """The contents of the repository's ``BENCHMARK.json``."""
    return {
        "command": ["python3", "layerbench/run.py"],
        "paths": ["layerbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
