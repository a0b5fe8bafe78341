"""The cross-engine parity harness.

Every checking engine in the repo must produce *bit-for-bit* the same
per-platform results — deviations, ``max_state_set`` peaks,
``labels_checked``, pruning flags — as the original uninterned
frozenset-of-dataclass loop.  This module is the single place that
contract lives: each engine registers a factory in :data:`ENGINES`, and
``tests/test_engine_parity.py`` parametrizes every parity test
(handwritten suite on clean and quirky configurations, plus a seeded
randomized property sweep) over the registry.  A future engine gets
full parity coverage by adding **one** :func:`register_engine` call.

An engine factory takes a platform tuple and returns a checker
function: ``check(traces) -> [ {platform: row} per trace ]`` where a
row is the comparable ``(deviations, max_state_set, labels_checked,
pruned)`` tuple.  Factories may keep warm state across the traces of
one call — cross-trace memo reuse is deliberately under test.

The executor side has the same contract in :data:`EXECUTORS`: each
registered execution path maps ``(quirks, scripts)`` to traces, which
must equal the cold path's (every script from an empty file system)
trace for trace.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Sequence, Tuple

from repro.checker.checker import TraceChecker
from repro.engine import ArenaReader, MemoArena
from repro.executor import execute_script
from repro.executor.executor import ExecutionTrie
from repro.fsimpl import config_by_name
from repro.oracle import VectoredOracle
from repro.testgen.generator import gen_handwritten_tests

#: The comparable slice of a CheckedTrace / ConformanceProfile.
Row = Tuple[tuple, int, int, bool]

#: One clean and two quirky configurations: the quirky ones produce
#: deviations, recovery and pruning (freebsd_ufs adds the clobbering
#: rename semantics), so parity covers the unhappy paths too.
PARITY_CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs", "freebsd_ufs")


def checked_row(checked) -> Row:
    return (checked.deviations, checked.max_state_set,
            checked.labels_checked, checked.pruned)


def profile_row(profile) -> Row:
    return (profile.deviations, profile.max_state_set,
            profile.labels_checked, profile.pruned)


CheckFn = Callable[[Sequence], List[Dict[str, Row]]]
EngineFactory = Callable[[Tuple[str, ...]], CheckFn]

ENGINES: Dict[str, EngineFactory] = {}


def register_engine(name: str, factory: EngineFactory) -> None:
    """Register an engine for parity coverage (one entry per engine)."""
    if name in ENGINES:
        raise ValueError(f"engine {name!r} already registered")
    ENGINES[name] = factory


def _make_uninterned(platforms: Tuple[str, ...]) -> CheckFn:
    """The canonical baseline: the original frozenset state-set loop."""
    from repro.core.platform import spec_by_name
    checkers = {p: TraceChecker(spec_by_name(p), intern=False)
                for p in platforms}
    def check(traces):
        return [{p: checked_row(checkers[p].check(trace))
                 for p in platforms} for trace in traces]
    return check


def _make_interned(platforms: Tuple[str, ...]) -> CheckFn:
    """Hash-consed ids + warm per-platform transition memos."""
    from repro.core.platform import spec_by_name
    checkers = {p: TraceChecker(spec_by_name(p)) for p in platforms}
    def check(traces):
        return [{p: checked_row(checkers[p].check(trace))
                 for p in platforms} for trace in traces]
    return check


def _make_vectored(platforms: Tuple[str, ...]) -> CheckFn:
    """One masked exploration for all platforms, with prefix cache."""
    oracle = VectoredOracle(platforms)
    def check(traces):
        return [{profile.platform: profile_row(profile)
                 for profile in oracle.check(trace).profiles}
                for trace in traces]
    return check


def _make_sharded(platforms: Tuple[str, ...]) -> CheckFn:
    """The sharded backend's worker engine: check through a fresh
    oracle that adopted a shared memo arena packed by a warm one.

    A quarter of the traces warm the packing oracle (so the arena holds
    genuinely shared rows *and* genuine gaps — both the hit path and
    the local-derivation fallback are exercised), then every trace is
    checked through the adopting oracle.
    """
    def check(traces):
        warm = VectoredOracle(platforms)
        for trace in traces[:max(1, len(traces) // 4)]:
            warm.check(trace)
        table, memos = warm.engine_snapshot()
        with MemoArena.create(table, memos) as arena:
            with ArenaReader.attach(arena.handle()) as reader:
                oracle = VectoredOracle(platforms)
                oracle.adopt_shared_memo(reader)
                return [{profile.platform: profile_row(profile)
                         for profile in oracle.check(trace).profiles}
                        for trace in traces]
    return check


def _make_compiled(platforms: Tuple[str, ...]) -> CheckFn:
    """The compiled fast path in front of the vectored loop.

    ``compile_after=2`` freezes the automaton almost immediately, so
    most of the suite runs *after* compilation — exercising compiled
    hits, miss-driven fallback to the Python loop (quirky traces
    deviate, unseen states appear throughout) and periodic
    recompilation (``recompile_misses=8``) within one parity pass.
    """
    from repro.oracle import CompiledOracle
    oracle = CompiledOracle(platforms, compile_after=2,
                            recompile_misses=8)
    def check(traces):
        rows = [{profile.platform: profile_row(profile)
                 for profile in oracle.check(trace).profiles}
                for trace in traces]
        assert oracle.compilations > 0, \
            "compiled engine never froze an automaton"
        return rows
    return check


def _make_service(platforms: Tuple[str, ...]) -> CheckFn:
    """The full served path: traces travel as text through the asyncio
    line-JSON server and come back as ``ConformanceProfile.to_dict``
    rows — so this engine proves the wire format itself is lossless,
    on top of the checking parity every engine proves.

    Parent-only mode (``shards=0``): the serialization boundary is what
    is under test here, the pool engine has its own registry entry.
    """
    import threading

    from repro.oracle import ConformanceProfile, oracle_name_for
    from repro.script.printer import print_trace
    from repro.service import (CheckingService, ServiceClient,
                               run_server)

    def check(traces):
        service = CheckingService(oracle_name_for(platforms), shards=0)
        bound = threading.Event()
        address = {}

        def ready(server):
            address["addr"] = server.address()
            bound.set()

        thread = threading.Thread(
            target=run_server, args=(service,), kwargs={"ready": ready},
            daemon=True)
        thread.start()
        try:
            assert bound.wait(timeout=30), "server never bound"
            with ServiceClient(address["addr"]) as client:
                verdicts, _done = client.check_batch(
                    [print_trace(t) for t in traces])
                rows = [
                    {row["platform"]: profile_row(
                        ConformanceProfile.from_dict(row))
                     for row in verdict["profiles"]}
                    for verdict in verdicts]
                client.shutdown()
            thread.join(timeout=30)
            return rows
        finally:
            service.shutdown()
    return check


register_engine("uninterned", _make_uninterned)
register_engine("interned", _make_interned)
register_engine("vectored", _make_vectored)
register_engine("sharded", _make_sharded)
register_engine("compiled", _make_compiled)
register_engine("service", _make_service)


ExecFn = Callable[[object, Sequence], List]

EXECUTORS: Dict[str, ExecFn] = {}


def register_executor(name: str, execute: ExecFn) -> None:
    """Register an execution path for trace parity with ``cold``."""
    if name in EXECUTORS:
        raise ValueError(f"executor {name!r} already registered")
    EXECUTORS[name] = execute


def _execute_cold(quirks, scripts):
    """The baseline: a trie that stores nothing, so every script runs
    in full from an empty file system."""
    return [execute_script(quirks, script, trie=ExecutionTrie(max_nodes=0))
            for script in scripts]


def _execute_warm(quirks, scripts):
    """The prefix-trie path: one trie shared by the call's scripts,
    so each resumes after the longest prefix an earlier one ran."""
    trie = ExecutionTrie()
    return [execute_script(quirks, script, trie=trie)
            for script in scripts]


register_executor("cold", _execute_cold)
register_executor("warm", _execute_warm)
register_executor("process", lambda quirks, scripts: [
    execute_script(quirks, script) for script in scripts])


@functools.lru_cache(maxsize=None)
def handwritten_traces(config: str) -> tuple:
    """The handwritten suite executed on ``config`` (cached: every
    engine x config parametrization shares one execution pass)."""
    quirks = config_by_name(config)
    return tuple(execute_script(quirks, script)
                 for script in gen_handwritten_tests())


@functools.lru_cache(maxsize=None)
def baseline_rows(config: str, platforms: Tuple[str, ...]) -> tuple:
    """Uninterned rows for the handwritten suite (shared baseline)."""
    return tuple(_make_uninterned(platforms)(handwritten_traces(config)))
