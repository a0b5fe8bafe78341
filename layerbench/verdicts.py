"""Pinned verdicts: canonical forms, order-independent digests, pins.

A verdict is pinned per ``(config, script, platform)`` as a short hash
of its deviation list ("ok" when the platform accepts the trace).  The
pin table (``pins.json``, written by ``make_pins.py``) stores only the
rejecting entries of the full default plan, so the expected verdicts
of *any* subset of the plan, such as a seeded recheck corpus, are known
without a second table per seed (``expected_pin``).

The digest is a sum of per-entry hashes modulo 2**128: a multiset
digest, so a permuted plan (every seed but 0) or a pool that completes
scripts out of order yields the same value.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.oracle.verdict import ConformanceProfile, deviation_to_dict

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")

_MOD = 1 << 128


def verdict_hash(profile: ConformanceProfile) -> str:
    """``"ok"`` for an accepting profile, else a 16-hex-digit hash of
    the canonical deviation list (line, kind, observed, allowed,
    message)."""
    if profile.accepted:
        return "ok"
    rows = [deviation_to_dict(d) for d in profile.deviations]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def entry_key(config: str, script: str, platform: str,
              vhash: str) -> str:
    return f"{config}|{script}|{platform}|{vhash}"


def entry_hash(entry: str) -> int:
    return int.from_bytes(hashlib.sha256(entry.encode()).digest()[:16],
                          "big")


def digest(entries: Iterable[str]) -> str:
    """Order-independent digest of a multiset of entry keys."""
    return f"{sum(map(entry_hash, entries)) % _MOD:032x}"


def load_pins(path: Optional[str] = None) -> dict:
    return json.loads(pathlib.Path(path or PINS_PATH).read_text())


class PinTable:
    """Expected verdict per (config, script, platform)."""

    def __init__(self, pins: Mapping) -> None:
        self._rejected: Dict[Tuple[str, str, str], str] = {}
        for config, platforms in pins["verdicts"].items():
            for platform, by_hash in platforms.items():
                for vhash, scripts in by_hash.items():
                    for script in scripts:
                        self._rejected[(config, script, platform)] = vhash

    def expected(self, config: str, script: str, platform: str) -> str:
        return self._rejected.get((config, script, platform), "ok")


class VerdictCheck:
    """Compares observed verdicts with the pins, trace by trace.

    ``ok`` counts traces whose every platform verdict equals its pin
    (and, where the workload demands it, whose re-checked profiles
    equal the stored ones); the two digests and the per-platform
    rejection counts are kept for observed and expected alike so a
    mismatch report can show both.
    """

    def __init__(self, table: PinTable) -> None:
        self.table = table
        self.attempted = 0
        self.ok = 0
        self.mismatches: list = []
        self._observed = 0  # digest sums, reduced in summary()
        self._expected = 0
        self.rejected: Dict[str, int] = {}
        self.expected_rejected: Dict[str, int] = {}

    def add(self, config: str, script: str,
            profiles: Sequence[ConformanceProfile],
            extra_ok: bool = True) -> bool:
        self.attempted += 1
        good = extra_ok and bool(profiles)
        for profile in profiles:
            observed = verdict_hash(profile)
            expected = self.table.expected(config, script,
                                           profile.platform)
            self._observed += entry_hash(entry_key(
                config, script, profile.platform, observed))
            self._expected += entry_hash(entry_key(
                config, script, profile.platform, expected))
            if observed != "ok":
                self.rejected[profile.platform] = \
                    self.rejected.get(profile.platform, 0) + 1
            if expected != "ok":
                self.expected_rejected[profile.platform] = \
                    self.expected_rejected.get(profile.platform, 0) + 1
            if observed != expected:
                good = False
        if good:
            self.ok += 1
        elif len(self.mismatches) < 5:
            self.mismatches.append(f"{config}/{script}")
        return good

    def summary(self) -> dict:
        observed = f"{self._observed % _MOD:032x}"
        expected = f"{self._expected % _MOD:032x}"
        return {"attempted": self.attempted, "ok": self.ok,
                "digest": observed, "expected_digest": expected,
                "rejected": dict(sorted(self.rejected.items())),
                "expected_rejected":
                    dict(sorted(self.expected_rejected.items())),
                "mismatches": self.mismatches,
                "correct": (self.ok == self.attempted
                            and observed == expected)}


def expected_pin(table: PinTable, configs: Sequence[str],
                 scripts: Sequence[str],
                 platforms: Sequence[str]) -> dict:
    """Trace count, per-platform rejections and digest that a pass over
    every (config, script) pair, checked on ``platforms``, must show."""
    entries, rejected = [], {}
    for config in configs:
        for script in scripts:
            for platform in platforms:
                vhash = table.expected(config, script, platform)
                entries.append(entry_key(config, script, platform, vhash))
                if vhash != "ok":
                    rejected[platform] = rejected.get(platform, 0) + 1
    return {"traces": len(configs) * len(scripts),
            "rejected": dict(sorted(rejected.items())),
            "digest": digest(entries)}


def check_suite_pin(summary: dict, pin: Mapping) -> list:
    """Problems with a pass over a whole workload against its pin
    (trace count, per-platform rejections, digest); empty when none."""
    problems = []
    if summary["attempted"] != pin["traces"]:
        problems.append(f"traces {summary['attempted']} != pinned "
                        f"{pin['traces']}")
    if summary["rejected"] != pin["rejected"]:
        problems.append(f"rejected {summary['rejected']} != pinned "
                        f"{pin['rejected']}")
    if summary["digest"] != pin["digest"]:
        problems.append(f"digest {summary['digest']} != pinned "
                        f"{pin['digest']}")
    return problems
