"""The executor's script-prefix trie (:class:`ExecutionTrie`).

A trace executed from a warm trie — resuming from a stored kernel
snapshot after the longest already-executed prefix — must be identical
to the trace of a cold execution from an empty file system, on every
configuration, including the quirk paths that keep state outside the
model (posixovl's leaked bytes, killed and spinning processes, the
ZFS ``O_APPEND`` rewrite).  Cold traces come from
``ExecutionTrie(max_nodes=0)``, which stores nothing.
"""

import dataclasses
import random
import sys
import threading

import pytest

from repro.executor.executor import (EXECUTION_TRIE, ExecutionTrie,
                                     execute_script)
from repro.core.labels import OsReturn, OsSignal, OsSpin
from repro.fsimpl import KernelFS, config_by_name
from repro.fsimpl.configs import ALL_CONFIGS
from repro.gen import default_plan
from repro.script import parse_script
from repro.script.ast import Script
from repro.testgen.generator import (gen_handwritten_tests,
                                     gen_one_path_tests)
from repro.testgen.randomized import random_suite


def _cold(quirks, script, uid=0, gid=0):
    return execute_script(quirks, script, uid, gid,
                          trie=ExecutionTrie(max_nodes=0))


def _family(name, prefix, tails):
    """Scripts sharing ``prefix`` (script lines), one per tail — plus the
    bare prefix, so one sibling ends exactly on a shared node."""
    scripts = [parse_script("@type script\n" + prefix)]
    for i, tail in enumerate(tails):
        scripts.append(parse_script(
            f"@type script\n# Test {name}_{i}\n{prefix}{tail}"))
    return scripts


def _churn(rounds, first=0):
    """posixovl churn (§7.3.5), rounds ``first`` to ``first + rounds``:
    each round leaks 8000 bytes.  Descriptors are never reused, so
    round ``r`` opens descriptors ``3 + 2r`` and ``4 + 2r``."""
    lines = ""
    for r in range(first, first + rounds):
        lines += (f'open "victim" [O_CREAT;O_WRONLY] 0o644\n'
                  f'close {3 + 2 * r}\n'
                  'truncate "victim" 8000\n'
                  f'open "tmp" [O_CREAT;O_WRONLY] 0o644\n'
                  f'close {4 + 2 * r}\n'
                  'rename "tmp" "victim"\n'
                  'unlink "victim"\n')
    return lines


def _quirk_families():
    """Prefix-sharing families through every state the kernel keeps
    outside the model state."""
    pwrite_kill = ('open "f" [O_CREAT;O_WRONLY] 0o644\n'
                   'write 3 "abc"\n'
                   'pwrite 3 "x" -1\n')
    spin = ('mkdir "deserted" 0o700\n'
            'chdir "deserted"\n'
            'rmdir "../deserted"\n'
            'open "party" [O_CREAT;O_RDONLY] 0o600\n')
    append = ('open "f" [O_CREAT;O_RDWR;O_APPEND] 0o644\n'
              'write 3 "abcdef"\n'
              'lseek 3 2 SEEK_SET\n')
    return (
        _family("churn", _churn(4), [
            _churn(1, first=4), _churn(5, first=4),
            'open "late" [O_CREAT;O_WRONLY] 0o644\nwrite 11 "yy"\n'])
        + _family("churn_full", _churn(9), [
            'open "late" [O_CREAT;O_WRONLY] 0o644\n', 'truncate "d" 5\n'])
        + _family("kill", pwrite_kill, [
            'stat "f"\n',
            '@process destroy p1\nstat "f"\n',
            'p2: stat "f"\np2: mkdir "ok" 0o755\n',
            'pwrite 3 "y" -1\n'])
        + _family("spin", spin, [
            'stat "."\n',
            'p2: open "party2" [O_CREAT;O_RDONLY] 0o600\n',
            '@process destroy p1\nmkdir "after" 0o755\n'])
        + _family("append", append, [
            'write 3 "gh"\npread 3 20 0\n',
            'pwrite 3 "Z" 0\npread 3 20 0\n',
            'read 3 10\n']))


def _random_sweep(seed):
    """Seeded random scripts plus prefix-sharing mutants of them: each
    script's truncations and a splice onto another script's prefix."""
    rng = random.Random(seed)
    scripts = []
    base = random_suite(8, base_seed=seed, length=14) + \
        random_suite(4, base_seed=seed + 100, length=14,
                     multi_process=True)
    for i, script in enumerate(base):
        other = base[(i + 1) % len(base)]
        cut = rng.randrange(1, len(script.items))
        scripts.append(script)
        scripts.append(Script(f"{script.name}_cut",
                              script.items[:cut]))
        scripts.append(Script(f"{script.name}_splice",
                              script.items[:cut] + other.items[cut:]))
    return scripts


def _shuffled_corpus(seed=2026):
    scripts = (gen_handwritten_tests() + _quirk_families()
               + _random_sweep(seed)
               + list(default_plan().sample(12, seed=seed).scripts()))
    random.Random(seed).shuffle(scripts)
    return scripts


_CORPUS = _shuffled_corpus()


@pytest.mark.parametrize("config", [cfg.name for cfg in ALL_CONFIGS])
def test_warm_traces_equal_cold_traces(config):
    """Cold vs warm parity on every configuration, in shuffled order."""
    quirks = config_by_name(config)
    cold = [_cold(quirks, script) for script in _CORPUS]
    trie = ExecutionTrie()
    warm = [execute_script(quirks, script, trie=trie)
            for script in _CORPUS]
    # Second warm pass: every script is now a full-length hit.
    again = [execute_script(quirks, script, trie=trie)
             for script in _CORPUS]
    for script, want, got, got_again in zip(_CORPUS, cold, warm, again):
        assert got == want, (config, script.name)
        assert got_again == want, (config, script.name)
    stats = trie.stats()
    assert stats["hits"] > stats["misses"]


def test_quirk_paths_are_reached():
    """The families above really exercise the out-of-model state: a
    leak that fills the volume, a signal, a spin, the O_APPEND rewrite."""
    families = _quirk_families()
    by_name = {script.name: script for script in families}
    churn = execute_script(config_by_name("linux_posixovl_vfat"),
                           by_name["churn_full_0"])
    assert any("ENOSPC" in repr(label) for label in churn.labels())
    kill = execute_script(config_by_name("osx_hfsplus"), by_name["kill_0"])
    assert OsSignal(1, "SIGXFSZ") in kill.labels()
    spin = execute_script(config_by_name("osx_openzfs"), by_name["spin_0"])
    assert OsSpin(1) in spin.labels()
    zfs = config_by_name("linux_openzfs_trusty")
    assert execute_script(zfs, by_name["append_0"]) != \
        execute_script(config_by_name("linux_ext4"), by_name["append_0"])


def test_killed_process_does_not_leak_into_sibling():
    """A sibling resuming from the prefix its predecessor killed a
    process after must see that process alive."""
    quirks = config_by_name("osx_hfsplus")
    killer, sibling = _family("iso", 'open "f" [O_CREAT;O_WRONLY] 0o644\n', [
        'pwrite 3 "x" -1\nstat "f"\n', 'stat "f"\n'])[1:]
    trie = ExecutionTrie()
    assert OsSignal(1, "SIGXFSZ") in \
        execute_script(quirks, killer, trie=trie).labels()
    got = execute_script(quirks, sibling, trie=trie)
    assert trie.stats()["hits"] == 1
    assert got == _cold(quirks, sibling)
    assert isinstance(got.labels()[-1], OsReturn)


def test_snapshot_restore_copies_the_dead_set():
    kernel = KernelFS(config_by_name("osx_hfsplus"))
    kernel.create_process(1, 0, 0)
    kernel.create_process(2, 0, 0)
    kernel._dead.add(2)
    snapshot = kernel.snapshot()
    other = KernelFS(kernel.quirks)
    other.restore(snapshot)
    other.destroy_process(2)
    other._dead.add(1)
    assert snapshot[2] == frozenset({2})
    assert kernel.snapshot() == snapshot
    assert not other.process_alive(1)


def test_exhausted_budget_serves_hits_and_stops_growing():
    quirks = config_by_name("linux_ext4")
    scripts = gen_one_path_tests()[:6:2]  # all scaffolded
    trie = ExecutionTrie(max_nodes=10)
    first = [execute_script(quirks, s, trie=trie) for s in scripts]
    assert trie.stats()["nodes"] == 10
    hits = trie.stats()["hits"]
    second = [execute_script(quirks, s, trie=trie) for s in scripts]
    assert trie.stats()["nodes"] == 10
    # Every scaffolded script replays its first ten items from the trie.
    assert trie.stats()["hits"] - hits >= 10 * len(scripts)
    assert first == second == [_cold(quirks, s) for s in scripts]


def test_partitions_never_share_nodes():
    """Different quirks or default credentials get disjoint tries;
    equal quirks (even as distinct objects) share one."""
    ext4 = config_by_name("linux_ext4")
    script = next(iter(default_plan().sample(1, seed=5).scripts()))
    n = len(script.items)
    variants = [
        (ext4, 0, 0),
        (config_by_name("linux_sshfs_tmpfs"), 0, 0),
        (dataclasses.replace(ext4, dir_nlink_constant=1), 0, 0),
        (ext4, 1000, 0),
        (ext4, 0, 1000),
    ]
    trie = ExecutionTrie()
    for quirks, uid, gid in variants:
        before = trie.stats()["hits"]
        got = execute_script(quirks, script, uid, gid, trie=trie)
        assert trie.stats()["hits"] == before, (quirks.name, uid, gid)
        assert got == _cold(quirks, script, uid, gid)
    assert trie.stats()["nodes"] == n * len(variants)
    execute_script(dataclasses.replace(ext4), script, trie=trie)
    assert trie.stats()["hits"] == n
    assert trie.stats()["nodes"] == n * len(variants)


def test_clear_gives_a_cold_trie():
    quirks = config_by_name("linux_ext4")
    script = next(iter(default_plan().sample(1, seed=8).scripts()))
    trie = ExecutionTrie()
    execute_script(quirks, script, trie=trie)
    trie.clear()
    assert trie.stats() == {"nodes": 0, "hits": 0, "misses": 0}
    execute_script(quirks, script, trie=trie)
    assert trie.stats()["hits"] == 0


def test_process_wide_trie_is_the_default():
    quirks = config_by_name("linux_ext4")
    script = next(iter(default_plan().sample(1, seed=9).scripts()))
    execute_script(quirks, script)
    before = EXECUTION_TRIE.stats()["hits"]
    assert execute_script(quirks, script) == _cold(quirks, script)
    assert EXECUTION_TRIE.stats()["hits"] == before + len(script.items)


def test_threads_sharing_one_trie():
    """Four threads (more than the cores) executing one corpus through
    one trie, with rapid thread switching: every trace equals the cold
    one, and no counter or node update is lost."""
    quirks = config_by_name("osx_hfsplus")
    corpus = _CORPUS[:60]
    want = [_cold(quirks, script) for script in corpus]
    prefixes = {script.items[:n] for script in corpus
                for n in range(1, len(script.items) + 1)}
    trie = ExecutionTrie()
    results = {}
    start = threading.Barrier(4)

    def run(worker):
        # Same order everywhere: every new node is contended.
        start.wait(timeout=60)
        results[worker] = [execute_script(quirks, script, trie=trie)
                           for script in corpus]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,))
                   for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert len(results) == 4
    for got in results.values():
        assert got == want
    stats = trie.stats()
    assert stats["nodes"] == len(prefixes)
    assert stats["hits"] + stats["misses"] == \
        4 * sum(len(script.items) for script in corpus)
