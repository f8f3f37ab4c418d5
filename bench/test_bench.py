"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types

import pytest

import compare
import run
import tracing
from harness import (
    FAILED_STATUSES,
    ROOT,
    Instance,
    call_with_limit,
    import_domchrom,
    min_samples_for,
    percentile,
    run_passes,
)
from workloads import DEFAULT_SEED, WORKLOADS, load_reference


@pytest.fixture(scope="module")
def dc():
    return import_domchrom()


# -- percentiles ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(list(reversed(samples)), 90) == 90


def test_percentile_needs_ten_samples_beyond():
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    percentile(list(range(100)), 90)
    with pytest.raises(ValueError, match="need 10"):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


# -- spans ----------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    t = tracing.Tracer()
    t.keep_spans = True
    t.wrap(mod, "inner", "inner")
    t.wrap(mod, "outer", "outer")
    mod.outer()
    t.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert t.calls("inner") == 2 and t.calls("outer") == 1
    assert t.self_ms("outer") == pytest.approx(t.ms("outer") - t.ms("inner"), abs=1e-6)
    assert 8 <= t.self_ms("outer") < 30
    assert t.self_ms("inner") == pytest.approx(t.ms("inner"))
    names = [s[0] for s in t.spans]
    outer_index = names.index("outer")
    assert t.spans[outer_index][1] is None
    assert [s[1] for s in t.spans if s[0] == "inner"] == [outer_index, outer_index]


def test_winning_term_ties_go_to_the_cheaper_term():
    assert tracing.winning_term({"count": 3, "clique": 3, "gamma_t": 3}) == "count"
    assert tracing.winning_term({"count": 2, "clique": 3, "gamma_t": 3}) == "clique"
    assert tracing.winning_term({"count": 2, "clique": 3, "gamma_t": 4}) == "gamma_t"


# -- correctness gate ----------------------------------------------------------------


def _first(dc, name, pred):
    workload = WORKLOADS[name]
    inst = next(i for i in workload.make_passes(dc, DEFAULT_SEED)[0] if pred(i))
    return workload, inst, workload.solve(dc, inst, None)


def test_reference_check_accepts_true_and_rejects_wrong_search_value(dc):
    ref = load_reference()["search"]
    workload, inst, (k, coloring) = _first(dc, "search", lambda i: i.name == "cliquestar:3x3")
    assert workload.check(dc, inst, (k, coloring), ref)[0] is None
    reason, _ = workload.check(dc, inst, (k + 1, coloring), ref)
    assert reason is not None
    # a pinned value that disagrees with a valid certificate is also caught
    reason, _ = workload.check(dc, inst, (k, coloring), {**ref, inst.ref_key: k - 1})
    assert "pinned" in reason


def test_reference_check_rejects_wrong_audit_row_and_sweep_result(dc):
    refs = load_reference()
    workload, inst, row = _first(dc, "audit", lambda i: i.name == "cycle:3")
    # a refuted printed value stays visible in the row ...
    assert row.status == "suspect" and row.predicted != row.solver
    assert workload.check(dc, inst, row, refs["audit"])[0] is None  # ... and passes
    bad = dataclasses.replace(row, solver=row.solver + 1)
    assert workload.check(dc, inst, bad, refs["audit"])[0] is not None

    workload, inst, result = _first(dc, "sweep", lambda i: i.name == "stability prism:7")
    assert workload.check(dc, inst, result, refs["sweep"])[0] is None
    bad = dataclasses.replace(result, size=result.size + 1)
    assert workload.check(dc, inst, bad, refs["sweep"])[0] is not None


def test_proved_table_is_enforced(dc):
    workload, inst, result = _first(dc, "sweep", lambda i: i.name == "bondage cycle:18")
    # a pinned copy that drifted from the proved bondage table is still refused
    drifted = dataclasses.asdict(dataclasses.replace(result, size=result.size + 1))
    ref = {inst.ref_key: json.loads(json.dumps(drifted))}
    bad = dataclasses.replace(result, size=result.size + 1)
    assert "proved table" in workload.check(dc, inst, bad, ref)[0]


# -- time limit --------------------------------------------------------------------


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_time_limit_aborts_and_counts_as_failed():
    status, result, seconds = call_with_limit(lambda: _spin(5), 0.05)
    assert status == "timeout" and result is None and seconds < 1
    inst = Instance("spin", None, 0, 0)
    samples = []
    run_passes([[inst, inst]], lambda i: _spin(5), 0.05, samples.append,
               seconds=0, pass_count=1)
    assert [s.status for s in samples] == ["timeout", "timeout"]
    assert all(s.status in FAILED_STATUSES for s in samples)


def test_uninterruptible_call_is_judged_after_it_returns():
    import signal

    def blocked():
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return _spin(0.2)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    status, _, seconds = call_with_limit(blocked, 0.05)
    assert status in FAILED_STATUSES and seconds >= 0.2


def test_fast_call_and_errors():
    assert call_with_limit(lambda: 7, 1.0)[:2] == ("ok", 7)
    status, exc, _ = call_with_limit(lambda: 1 // 0, 1.0)
    assert status == "raised" and isinstance(exc, ZeroDivisionError)
    time.sleep(0.05)  # no stray alarm fires after the limit is disarmed


# -- tracing does not change answers ----------------------------------------------


def test_traced_and_untraced_answers_are_identical(dc):
    picks = {
        "search": lambda i: not i.name.startswith("tchain:1"),
        "audit": lambda i: i.n <= 12,
        "sweep": lambda i: i.name == "stability prism:7",
    }
    for name, pred in picks.items():
        workload = WORKLOADS[name]
        instances = [i for i in workload.make_passes(dc, DEFAULT_SEED)[0] if pred(i)][:40]
        plain = [workload.solve(dc, i, None) for i in instances]
        t = tracing.install(dc)
        try:
            traced = [workload.solve(dc, i, None) for i in instances]
        finally:
            t.uninstall()
        assert traced == plain, name
        assert t.calls("kernel.find_coloring") > 0


def test_relabelled_copies_are_distinct_but_give_the_kernel_the_same_work(dc):
    import random

    from workloads import relabeller

    kernel = dc.solver._BACKENDS["python"]
    for text in ("tchain:9", "cliquestar:4x3"):
        g = dc.generate(dc.parse_family(text))
        relabel, rng = relabeller(dc, g), random.Random(5)
        copies = [relabel(rng) for _ in range(5)]
        assert len({h.adj for h in copies} | {g.adj}) == 6
        calls = []
        t = tracing.Tracer()
        t.wrap(kernel, "find_coloring", "kernel",
               lambda args, result, seconds: calls.append((tuple(args[0]), args[1])))
        try:
            value = dc.dom_chromatic(g, backend="python")[0]
            canonical = list(calls)
            for h in copies:
                calls.clear()
                assert dc.dom_chromatic(h, backend="python")[0] == value
                assert calls == canonical
        finally:
            t.uninstall()


# -- the command -------------------------------------------------------------------


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_keeps_the_sparse_draws_out_of_the_gated_workloads(dc):
    from workloads import EXTRA

    tail = EXTRA["tail"]
    names = [row[-1].name for row in tail.make_passes(dc, DEFAULT_SEED)[:44]]
    assert all(len(row) == 1 for row in tail.make_passes(dc, DEFAULT_SEED))
    assert {"gnp:30:0.15#32", "gnp:24:0.3#15"} <= set(names)
    assert all(row[-1].ref_key is None for row in tail.make_passes(dc, DEFAULT_SEED))
    gated = {row[-1].name.split("#")[0] for row in WORKLOADS["search"].make_passes(dc, 2)}
    assert {float(name.split(":")[2]) for name in gated} == {0.35, 0.4}
    assert len(gated) == 22


def test_command_prints_result_line(capsys):
    assert run.main(["--workload", "audit", "--seconds", "0.1", "--seed", "3"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_command_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_different_backends():
    base = {"workload": "search", "trace": 0, "env": {"backend": "python"}}
    assert compare.comparable(base, base) is None
    other = {**base, "env": {"backend": "compiled"}}
    assert "backend" in compare.comparable(base, other)
