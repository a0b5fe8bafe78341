"""Tests of the benchmark's own machinery (not of the program).

Run with ``python -m pytest layerbench`` from the repository root.
"""

import json
import pathlib
import random
import shutil
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
from spans import Tracer  # noqa: E402
from verdicts import (PinTable, VerdictCheck, check_suite_pin,  # noqa: E402
                      digest, expected_pin, load_pins)
from workloads import benchmark_json  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "layerbench" / "run.py"),
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


# -- the percentile rule --------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(9999) == 99.0
    assert stats.tail_percentile(10000) == 99.9
    for n in (20, 57, 100, 999, 1000, 12345):
        pct = stats.tail_percentile(n)
        assert stats.beyond(n, pct) >= 10
        higher = [p for p in stats.TAIL_PERCENTILES if p > pct]
        assert all(stats.beyond(n, p) < 10 for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1000, 0, -1))
    assert stats.percentile(values, 99.0) == 990
    assert stats.percentile(values, 50.0) == 500
    assert stats.tail(values) == (99.0, 990)
    assert stats.tail([1.0] * 5) == (None, None)


# -- digests ----------------------------------------------------------------------

def test_digest_is_order_independent_but_counts_multiplicity():
    entries = [f"linux_ext4|s{i}|linux|{'ok' if i % 7 else 'ab12'}"
               for i in range(200)]
    shuffled = entries[:]
    random.Random(5).shuffle(shuffled)
    assert digest(entries) == digest(shuffled)
    assert digest(entries) != digest(entries[:-1])
    assert digest(entries) != digest(entries + entries[:1])
    changed = entries[:]
    changed[3] = changed[3].replace("|ok", "|ab12")
    assert digest(entries) != digest(changed)


# -- span folding ---------------------------------------------------------------------

def _span(tracer, layer, start, end, parent, ident=1):
    tracer.spans.append([layer, ident, start, end, parent])
    return len(tracer.spans) - 1


def test_self_times_subtract_direct_children_only():
    tracer = Tracer()
    root = _span(tracer, "pass", 0.0, 10.0, -1)
    backends = _span(tracer, "backends", 1.0, 7.0, root)
    _span(tracer, "executor", 2.0, 5.0, backends)
    _span(tracer, "oracle", 5.0, 6.5, backends)
    _span(tracer, "script.print", 7.5, 8.0, root)
    _span(tracer, "gen", 0.0, 4.0, -1, ident=2)  # another thread
    main = tracer.self_times(1)
    assert main == {"pass": 3.5, "backends": 1.5, "executor": 3.0,
                    "oracle": 1.5, "script.print": 0.5}
    assert sum(main.values()) == 10.0
    assert tracer.self_times()["gen"] == 4.0


def test_wrapped_calls_fold_to_wall_time():
    tracer = Tracer()
    inner = tracer.wrap("oracle", lambda x: x * 2)
    outer = tracer.wrap("backends", lambda xs: [inner(x) for x in xs])
    items = tracer.wrap_iter("gen", iter(range(50)))
    root = tracer.begin("pass")
    total = sum(outer(list(items)))
    tracer.end(root)
    assert total == 2 * sum(range(50))
    counts = tracer.counts()
    assert counts == {"pass": 1, "backends": 1, "oracle": 50, "gen": 51}
    start, end = tracer.first("pass")
    folded = tracer.self_times(threading.get_ident())
    assert abs(sum(folded.values()) - (end - start)) < 1e-9


# -- verdict checks and pins ---------------------------------------------------------

def test_pins_cover_the_suite_baselines():
    pins = load_pins()
    assert pins["suites"]["suite_ext4"]["rejected"] == {"linux": 10}
    assert pins["suites"]["suite_ext4"]["traces"] == pins["scripts"]


def test_verdict_check_flags_a_wrong_pin():
    from repro.checker.checker import Deviation
    from repro.oracle.verdict import ConformanceProfile

    ok = ConformanceProfile("linux", (), 1, 3)
    bad = ConformanceProfile(
        "linux", (Deviation(2, "return-mismatch", "RV_none",
                            ("EEXIST",), "m"),), 1, 3)
    pins = {"verdicts": {"cfg": {"linux": {"0123456789abcdef": ["b"]}}}}
    check = VerdictCheck(PinTable(pins))
    assert check.add("cfg", "a", [ok])
    assert not check.add("cfg", "b", [ok])
    assert not check.add("cfg", "c", [bad])
    summary = check.summary()
    assert (summary["attempted"], summary["ok"]) == (3, 1)
    assert not summary["correct"]
    assert summary["digest"] != summary["expected_digest"]


def test_whole_workload_pin_catches_lost_and_repeated_traces():
    from repro.oracle.verdict import ConformanceProfile

    pins = {"verdicts": {}}
    table = PinTable(pins)
    names = [f"s{i}" for i in range(6)]
    expected = expected_pin(table, ["c1", "c2"], names, ["linux"])
    assert expected["traces"] == 12

    def summary(pairs):
        check = VerdictCheck(table)
        for config, name in pairs:
            check.add(config, name, [ConformanceProfile("linux", (), 1, 3)])
        return check.summary()

    every = [(c, n) for c in ("c1", "c2") for n in names]
    whole = summary(reversed(every))
    assert whole["correct"] and check_suite_pin(whole, expected) == []
    # Each of these agrees with the pins trace by trace: one trace lost,
    # one repeated, and one lost while another repeats (count intact).
    for pairs in (every[1:], every + every[:1], every[1:] + every[2:3]):
        part = summary(pairs)
        assert part["correct"]
        assert check_suite_pin(part, expected) != []


def copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_planted_wrong_pin_fails_the_run(tmp_path):
    from repro.gen import default_plan

    # The first script of the plan is the first verdict of the run's
    # untimed probe; pin it to a verdict it does not have.
    first = next(iter(default_plan().scripts())).name
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    pins = load_pins()
    pins["verdicts"]["linux_ext4"].setdefault("linux", {}) \
        .setdefault("0000000000000000", []).append(first)
    (tmp_path / "layerbench" / "pins.json").write_text(json.dumps(pins))
    proc = run_bench("--workload", "suite_ext4", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert result["failed"] >= 1
    assert not (tmp_path / ".layerbench_tmp").exists()


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("--workload", "suite_ext4", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_catalogue():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()
