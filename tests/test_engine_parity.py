"""Cross-engine parity: every engine, one harness.

The scattered per-PR parity tests (interned vs uninterned in
``test_engine_intern``, vectored vs independent checkers in
``test_oracle_api``) are replaced by this single parametrized harness
over the :data:`helpers_parity.ENGINES` registry — {uninterned,
interned, vectored, sharded} today, one ``register_engine`` call for
whatever comes next.  Coverage is the handwritten suite on a clean and
a quirky configuration (deviations, recovery, pruning included) plus a
seeded randomized property sweep, and an end-to-end
:class:`~repro.harness.backends.ShardedBackend` pass against the
serial artifact.
"""

import dataclasses

import pytest

from helpers_parity import (ENGINES, EXECUTORS, PARITY_CONFIGS,
                            baseline_rows, handwritten_traces)
from repro.api import SerialBackend, Session, ShardedBackend
from repro.core.platform import SPECS
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.testgen.generator import gen_handwritten_tests
from repro.testgen.randomized import random_suite

ALL_PLATFORMS = tuple(SPECS)


def test_registry_covers_every_engine():
    """The acceptance criterion: all four engines register here, and
    new engines get parity coverage by registering too."""
    assert {"uninterned", "interned", "vectored",
            "sharded", "compiled"} <= set(ENGINES)


def test_profile_order_follows_oracle_platforms():
    """Verdict profiles come back in the oracle's platform order —
    every backend reads ``profiles[0]`` as the primary verdict, so
    ordering is load-bearing, not cosmetic."""
    from repro.oracle import VectoredOracle

    trace = handwritten_traces("linux_ext4")[0]
    for platforms in (ALL_PLATFORMS, ("osx", "linux")):
        verdict = VectoredOracle(platforms).check(trace)
        assert tuple(p.platform for p in verdict.profiles) == \
            tuple(platforms)


@pytest.mark.parametrize("config", PARITY_CONFIGS)
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_handwritten_suite_parity(engine, config):
    """Bit-for-bit identical rows on the handwritten suite, every
    platform, clean and quirky configurations."""
    traces = handwritten_traces(config)
    got = ENGINES[engine](ALL_PLATFORMS)(traces)
    want = baseline_rows(config, ALL_PLATFORMS)
    for trace, got_rows, want_rows in zip(traces, got, want):
        assert set(got_rows) == set(ALL_PLATFORMS), (engine, trace.name)
        for platform in ALL_PLATFORMS:
            assert got_rows[platform] == want_rows[platform], \
                (engine, config, trace.name, platform)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_randomized_property_sweep(engine):
    """Seeded random scripts: any future engine registered in the
    harness inherits this property sweep unchanged."""
    for config in ("linux_ext4", "osx_hfsplus"):
        quirks = config_by_name(config)
        traces = [execute_script(quirks, script)
                  for script in random_suite(10, base_seed=2026,
                                             length=25)]
        got = ENGINES[engine](ALL_PLATFORMS)(traces)
        want = ENGINES["uninterned"](ALL_PLATFORMS)(traces)
        for trace, got_rows, want_rows in zip(traces, got, want):
            assert got_rows == want_rows, (engine, config, trace.name)


@pytest.mark.parametrize("config", PARITY_CONFIGS)
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_executor_trace_parity(executor, config):
    """Every execution path yields the cold path's traces: the
    handwritten suite, scaffold-sharing generated scripts and seeded
    random scripts with prefix-sharing truncations."""
    from repro.gen import default_plan
    from repro.script.ast import Script

    randoms = random_suite(6, base_seed=2027, length=20)
    scripts = (gen_handwritten_tests()
               + list(default_plan().sample(20, seed=4).scripts())
               + randoms
               + [Script(s.name + "_cut", s.items[:9]) for s in randoms])
    quirks = config_by_name(config)
    got = EXECUTORS[executor](quirks, scripts)
    want = EXECUTORS["cold"](quirks, scripts)
    for script, got_trace, want_trace in zip(scripts, got, want):
        assert got_trace == want_trace, (executor, config, script.name)


def _strip_volatile(artifact):
    return dataclasses.replace(artifact, backend="-", exec_seconds=0.0,
                               check_seconds=0.0, engine_stats=())


class TestShardedBackendEndToEnd:
    """The sharded pool itself (warmup + arena + shard processes)
    against the serial backend, through the public Session surface."""

    SUITE_CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs")

    @pytest.mark.parametrize("config", SUITE_CONFIGS)
    def test_artifact_parity_with_serial(self, config):
        from repro.testgen.generator import gen_handwritten_tests

        suite = gen_handwritten_tests()[:24]
        with Session(config, suite=suite,
                     backend=SerialBackend()) as session:
            serial = session.run()
        with Session(config, suite=suite,
                     backend=ShardedBackend(2, warmup=4)) as session:
            sharded = session.run()
        assert _strip_volatile(serial) == _strip_volatile(sharded)
        stats = dict(sharded.engine_stats)
        assert stats["shards"] == 2
        assert stats["warmup_traces"] == 4
        assert stats["arena_hits"] > 0  # the pool really shared rows

    def test_check_on_parity_with_serial(self):
        from repro.testgen.generator import gen_handwritten_tests

        suite = gen_handwritten_tests()[:12]
        kwargs = dict(check_on=list(SPECS), suite=suite)
        with Session("linux_sshfs_tmpfs", backend=SerialBackend(),
                     **kwargs) as session:
            serial = session.run()
        with Session("linux_sshfs_tmpfs",
                     backend=ShardedBackend(2, warmup=2),
                     **kwargs) as session:
            sharded = session.run()
        assert serial.profiles == sharded.profiles
        assert serial.conformance_counts() == \
            sharded.conformance_counts()

    def test_dead_shard_raises_instead_of_hanging(self, monkeypatch):
        """A shard killed without posting its 'fatal' message (OOM
        kill, segfault) must surface as an error, not a parent that
        blocks forever on the result queue."""
        import os

        from repro.service import pool as pool_mod

        def dying_worker(shard_index, in_q, out_q):
            os._exit(3)

        monkeypatch.setattr(pool_mod, "_pool_worker", dying_worker)
        backend = ShardedBackend(2, warmup=0)
        traces = handwritten_traces("linux_ext4")[:4]
        try:
            with pytest.raises(RuntimeError, match="died"):
                list(backend.check_iter("linux", traces))
        finally:
            backend.close()

    def test_stream_error_propagates_not_truncates(self):
        """A lazy plan stream that raises mid-generation must fail the
        run — ending cleanly with partial results would make a broken
        campaign read as a short passing one."""
        from repro.testgen.generator import gen_handwritten_tests

        scripts = gen_handwritten_tests()[:6]

        def broken_stream():
            yield from scripts
            raise ValueError("generation failed")

        backend = ShardedBackend(2, warmup=2)
        quirks = config_by_name("linux_ext4")
        try:
            with pytest.raises(ValueError, match="generation failed"):
                list(backend.run_iter(quirks, "linux",
                                      broken_stream()))
        finally:
            backend.close()

    def test_make_backend_wires_sharded_flags(self):
        from repro.harness.backends import make_backend

        backend = make_backend(1, chunksize=3, backend="sharded",
                               shards=2)
        try:
            assert backend.shards == 2
            assert backend.chunk == 3
        finally:
            backend.close()

    def test_coverage_parity_with_serial(self):
        suite = handwritten_traces  # noqa: F841 - keep import-free
        from repro.script import parse_script

        small = [parse_script(
            '@type script\n# Test c%d\nmkdir "d%d" 0o755\n'
            'rmdir "d%d"\n' % (i, i, i)) for i in range(6)]
        with Session("linux_ext4", suite=small,
                     collect_coverage=True) as session:
            serial = session.run()
        with Session("linux_ext4", suite=small,
                     backend=ShardedBackend(2, warmup=2),
                     collect_coverage=True) as session:
            sharded = session.run()
        assert serial.covered_clauses == sharded.covered_clauses
