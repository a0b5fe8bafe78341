"""Regenerate ``pins.json``: the pinned verdicts every pass is checked
against.

Runs the full default plan on each corpus configuration, checked on all
four platforms, and records every rejecting ``(platform, script)`` with
its deviation hash; accepting entries are implicit.  The literal suite
pins (trace count, per-platform rejections, digest) are derived from
the same table.  Only regenerate when a change is *meant* to alter
verdicts, and say so in the change.

    python3 layerbench/make_pins.py [--processes N]
"""

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.api import Session  # noqa: E402
from repro.gen import default_plan  # noqa: E402
from repro.harness.backends import ProcessPoolBackend  # noqa: E402

from verdicts import (PINS_PATH, PinTable, expected_pin,  # noqa: E402
                      verdict_hash)
from workloads import ALL_PLATFORMS, CORPUS_CONFIGS, WORKLOADS  # noqa: E402


def survey(processes: int) -> tuple:
    plan = default_plan().materialize()
    names = [script.name for script in plan.scripts()]
    if len(set(names)) != len(names):
        raise SystemExit("default-plan script names are not unique")
    verdicts: dict = {}
    with ProcessPoolBackend(processes) as backend:
        for config in CORPUS_CONFIGS:
            by_platform = verdicts.setdefault(config, {})
            with Session(config, check_on=list(ALL_PLATFORMS), plan=plan,
                         backend=backend) as session:
                for record in session.iter_records():
                    name = record.outcome.checked.trace.name
                    for profile in record.outcome.profiles:
                        vhash = verdict_hash(profile)
                        if vhash != "ok":
                            by_platform.setdefault(profile.platform, {}) \
                                .setdefault(vhash, []).append(name)
            print(f"{config}: " + ", ".join(
                f"{p}={sum(len(v) for v in h.values())}"
                for p, h in sorted(by_platform.items())), flush=True)
    for by_platform in verdicts.values():
        for by_hash in by_platform.values():
            for scripts in by_hash.values():
                scripts.sort()
    return names, verdicts


def suite_pins(names, verdicts) -> dict:
    table = PinTable({"verdicts": verdicts})
    return {workload: expected_pin(table, [spec["config"]], names,
                                   spec["check_on"] or ("linux",))
            for workload, spec in WORKLOADS.items()
            if spec["kind"] == "suite"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--processes", type=int,
                        default=len(os.sched_getaffinity(0)))
    args = parser.parse_args()
    names, verdicts = survey(args.processes)
    pins = {"plan": "default", "scripts": len(names),
            "suites": suite_pins(names, verdicts),
            "verdicts": verdicts}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                         + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
