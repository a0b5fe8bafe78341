"""Script execution against a file system under test.

The paper's executor forks an interpreter per script and dispatches
commands to worker processes in a chroot jail, each running with the
generated credentials of the scripted process (section 6.2).  Here the
system under test is an in-process :class:`~repro.fsimpl.kernel.KernelFS`
(see DESIGN.md's substitution note), so "execution" is a direct
interpretation loop — but the observable artefact is the same: a trace
interleaving the script's commands with the returns the implementation
produced, including the process-level ``!signal`` and ``!spin``
observations for the section 7.3.4-7.3.5 defects.

Generated suites share setup prefixes by construction (most scripts
open with the same 18-call scaffold), and a simulated kernel is
deterministic: the state after a script prefix depends only on the
configuration, the default credentials and the prefix itself.  So
:func:`execute_script` keeps an :class:`ExecutionTrie` — the execution
analogue of the checker's :class:`~repro.oracle.cache.PrefixCache` —
and replays only the part of each script no earlier script in the same
process has executed.  Each trie node holds a
:meth:`~repro.fsimpl.kernel.KernelFS.snapshot` plus the trace events
its item emitted; a miss is simply the cold path from the deepest node
that matched.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.labels import (OsCall, OsCreate, OsDestroy, OsReturn,
                               OsSignal, OsSpin)
from repro.fsimpl.kernel import (KernelFS, KernelSnapshot, SignalKill,
                                 SpinHang)
from repro.fsimpl.quirks import Quirks
from repro.script.ast import (CreateEvent, DestroyEvent, Script,
                              ScriptItem, ScriptStep, Trace, TraceEvent)


class _Node:
    """One trie node: children by script item, the kernel snapshot after
    the prefix ending here (None at a root), and the trace events the
    edge's own item emitted.  A walk from the root concatenates the
    edge events into the trace so far, so no node copies its prefix's
    events."""

    __slots__ = ("children", "snapshot", "events")

    def __init__(self, snapshot: Optional[KernelSnapshot] = None,
                 events: Tuple[TraceEvent, ...] = ()) -> None:
        self.children: Dict[ScriptItem, "_Node"] = {}
        self.snapshot = snapshot
        self.events = events


class ExecutionTrie:
    """A bounded script-prefix trie of kernel snapshots.

    Edges are :data:`~repro.script.ast.ScriptItem` values (frozen
    dataclasses, so each step hashes one item, never the whole prefix).
    The trie is partitioned by ``(quirks, default_uid, default_gid)``:
    everything besides the prefix that the executed state depends on.
    Once ``max_nodes`` nodes exist the trie stops growing but keeps
    serving hits, so long-running ``fuzz``/``serve`` processes stay
    bounded.
    """

    def __init__(self, max_nodes: int = 50_000) -> None:
        self.max_nodes = max_nodes
        self._roots: Dict[Hashable, _Node] = {}
        self._nodes = 0
        self._lock = threading.Lock()
        self.hits = 0        #: script items skipped via a stored prefix
        self.misses = 0      #: script items executed

    def walk(self, key: Hashable, items: Tuple[ScriptItem, ...]
             ) -> Tuple[_Node, int, List[TraceEvent]]:
        """Follow ``items`` from the root of partition ``key`` as far
        as the trie has them: the deepest node reached, how many items
        it covers, and the trace events they emitted."""
        with self._lock:
            node = self._roots.setdefault(key, _Node())
        events: List[TraceEvent] = []
        done = 0
        for item in items:
            child = node.children.get(item)
            if child is None:
                break
            node = child
            events.extend(child.events)
            done += 1
        with self._lock:
            self.hits += done
            self.misses += len(items) - done
        return node, done, events

    def extend(self, node: _Node, item: ScriptItem,
               snapshot: KernelSnapshot,
               events: Tuple[TraceEvent, ...]) -> Optional[_Node]:
        """Store the state after ``node -> item``; None when full.

        A fresh child is fully built before it is linked, so a
        concurrent walk never sees a half-initialised node.
        """
        with self._lock:
            child = node.children.get(item)
            if child is None:
                if self._nodes >= self.max_nodes:
                    return None
                child = node.children[item] = _Node(snapshot, events)
                self._nodes += 1
        return child

    def stats(self) -> Dict[str, int]:
        return {"nodes": self._nodes, "hits": self.hits,
                "misses": self.misses}

    def clear(self) -> None:
        with self._lock:
            self._roots = {}
            self._nodes = 0
            self.hits = 0
            self.misses = 0


#: The process-wide trie every :func:`execute_script` call shares by
#: default.  Pool workers each warm their own copy for life.
EXECUTION_TRIE = ExecutionTrie()


def execute_script(quirks: Quirks, script: Script,
                   default_uid: int = 0, default_gid: int = 0, *,
                   trie: Optional[ExecutionTrie] = None) -> Trace:
    """Run ``script`` on a fresh instance of the given configuration.

    Each script starts from an empty file system (the chroot-jail
    analogue).  Process 1 is created implicitly with ``default_uid`` /
    ``default_gid`` unless the script creates it explicitly.  A killed or
    spinning process terminates the script, mirroring the paper's
    fault-isolated interpreter.

    The longest prefix of the script already in ``trie`` (default: the
    process-wide :data:`EXECUTION_TRIE`) is restored rather than
    re-executed; the resulting trace is identical either way.
    """
    if trie is None:
        trie = EXECUTION_TRIE
    items = script.items
    node: Optional[_Node]
    node, done, events = trie.walk((quirks, default_uid, default_gid),
                                   items)
    kernel = KernelFS(quirks)
    if node.snapshot is not None:
        kernel.restore(node.snapshot)
    for item in items[done:]:
        before = len(events)
        _execute_item(kernel, item, events, default_uid, default_gid)
        if node is not None:
            node = trie.extend(node, item, kernel.snapshot(),
                               tuple(events[before:]))
    return Trace(name=script.name, events=tuple(events))


def _execute_item(kernel: KernelFS, item: ScriptItem,
                  events: List[TraceEvent],
                  default_uid: int, default_gid: int) -> None:
    """Execute one script item, appending what it emits to ``events``
    (numbered consecutively from 1)."""

    def emit(label) -> None:
        events.append(TraceEvent(len(events) + 1, label))

    if isinstance(item, CreateEvent):
        kernel.create_process(item.pid, item.uid, item.gid)
        emit(OsCreate(item.pid, item.uid, item.gid))
        return
    if isinstance(item, DestroyEvent):
        if kernel.process_alive(item.pid):
            kernel.destroy_process(item.pid)
            emit(OsDestroy(item.pid))
        return
    assert isinstance(item, ScriptStep)
    if not kernel.process_alive(item.pid):
        if item.pid in kernel.state.procs:
            # Killed or spinning: the worker is gone; skip its
            # remaining commands (the interpreter isolates the fault).
            return
        kernel.create_process(item.pid, default_uid, default_gid)
        emit(OsCreate(item.pid, default_uid, default_gid))
    emit(OsCall(item.pid, item.cmd))
    try:
        ret = kernel.call(item.pid, item.cmd)
    except SignalKill as sig:
        emit(OsSignal(item.pid, sig.signal))
        return
    except SpinHang:
        emit(OsSpin(item.pid))
        return
    emit(OsReturn(item.pid, ret))
