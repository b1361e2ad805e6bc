"""Tests of the benchmark itself: its correctness gate, seeding and tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fishburn  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def build(name, seed=1, tmp_path=None):
    return workloads.WORKLOADS[name](random.Random(f"{name}/{seed}"), fishburn,
                                     str(tmp_path) if tmp_path else None)


def op_named(workload, prefix):
    return next(op for op in workload.ops() if op.name.startswith(prefix))


def test_wrong_value_drives_fail_ratio_above_zero(monkeypatch):
    op = op_named(build("oracle"), "count_ascent_sequences")
    tally = run.Tally()
    tally.run(op)
    assert (tally.attempted, tally.failed) == (1, 0)
    monkeypatch.setattr(fishburn, "count_ascent_sequences", lambda n: 5336)
    tally.run(op)
    assert tally.failed / tally.attempted > 0
    assert "5336" in tally.failures[0]["error"]


def test_wrong_series_coefficient_is_caught(monkeypatch):
    op = op_named(build("formal"), "expand_family F1")
    real = fishburn.expand_family

    def corrupted(family, order, **kw):
        series = real(family, order, **kw)
        series.terms[(2, 1)] += 1
        return series

    monkeypatch.setattr(fishburn, "expand_family", corrupted)
    tally = run.Tally()
    tally.run(op)
    assert tally.failed == 1


def test_expected_refusal_is_a_success_and_a_missing_one_a_failure(monkeypatch):
    op = op_named(build("roots"), "root_terminating_check refusal")
    tally = run.Tally()
    tally.run(op)
    assert tally.failed == 0
    monkeypatch.setattr(fishburn, "root_terminating_check", lambda *a, **k: None)
    tally.run(op)
    assert tally.failed == 1
    assert "instead of raising CertificateError" in tally.failures[0]["error"]


def test_unexpected_exception_is_a_failure(monkeypatch):
    op = op_named(build("formal"), "verify prop12@")

    def broken(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(fishburn, "verify", broken)
    tally = run.Tally()
    tally.run(op)
    assert tally.failed == 1 and "ZeroDivisionError" in tally.failures[0]["error"]


def test_cli_nonzero_exit_is_a_failure(tmp_path):
    workload = build("cli", tmp_path=tmp_path)
    ops = workload.ops(lambda argv: (2, ""))
    try:
        tally = run.Tally()
        tally.run(ops[0])
        assert tally.failed == 1 and "exit code 2" in tally.failures[0]["error"]
    finally:
        workload.end_pass()
    assert list(tmp_path.iterdir()) == []  # the pass's cache dir is gone


def test_seed_fixes_inputs_and_not_the_order():
    a, b = build("formal", seed=7), build("formal", seed=7)
    assert a.inputs == b.inputs and a.op_names() == b.op_names()
    others = [build("formal", seed=s) for s in range(8, 14)]
    assert any(w.inputs != a.inputs for w in others)
    assert all(w.op_names() == a.op_names() for w in others)
    for w in others:
        assert w.inputs["gamma1"] != "1" and w.inputs["r"] != "0"


def test_roots_points_use_unit_b_and_certified_terminating_points():
    w = build("roots", seed=3)
    for k, a, b in w.inputs["explore_points"]:
        assert b in workloads.units(k) and 0 <= a < k
    for k, family, p_exp, s in w.inputs["terminating_points"]:
        step = 1 if family == "comp1-left-vs-mid" else 2
        assert any((p_exp + step * s * j) % k == 0 for j in range(k))


def test_tracer_records_spans_and_restores_bindings():
    from fishburn import cli, hypergeom, identities, series
    mul = series.TruncatedSeries.__dict__["__mul__"]
    checker = cli._NUMERIC_IDS["rf"][2]
    with tracer.Tracer() as t:
        assert series.TruncatedSeries.__mul__ is series.TruncatedSeries.__rmul__
        assert series.TruncatedSeries.__mul__ is not mul
        assert cli._NUMERIC_IDS["rf"][2] is not checker
        assert identities.expand_family is fishburn.expand_family
        fishburn.verify("F1=F2", order=4)
    assert series.TruncatedSeries.__dict__["__mul__"] is mul
    assert series.TruncatedSeries.__dict__["__rmul__"] is mul
    assert cli._NUMERIC_IDS["rf"][2] is checker is hypergeom.rogers_fine_check
    names = [s[0] for s in t.spans]
    assert names[0] == "identities.verify"
    assert names.count("qseries.expand_family") == 2
    assert "series.mul" in names and "series.equal_up_to" in names
    metrics = tracer.layer_metrics(t.spans, t.counts, passes=1)
    assert metrics["identities.expand_s"] <= metrics["identities.verify.s"]
    assert metrics["qseries.mul_per_expand"] > 0
    assert metrics["rings.mul_s.ZZ"] == pytest.approx(metrics["series.mul.s"])


def test_layer_metrics_self_time_subtracts_children():
    spans = [["qseries.expand_family", 0.0, 10.0, -1],
             ["series.mul", 1.0, 4.0, 0],
             ["series.mul", 5.0, 6.0, 0]]
    m = tracer.layer_metrics(spans, {}, passes=2)
    assert m["qseries.expand_family.self_s"] == pytest.approx(3.0)
    assert m["series.mul.s"] == pytest.approx(2.0)
    assert m["series.mul.calls"] == 1
    assert m["qseries.mul_per_expand"] == 2


def test_benchmark_json_matches_metrics_and_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["metrics"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    derived = set(tracer.layer_metrics([], {}, passes=1)) | {"cli.spawn_s",
                                                             "trace.overhead_ratio"}
    assert sorted(per_layer) == sorted(derived) == sorted(layer_map)
    workload_names = {w["name"] for w in spec["workloads"]}
    assert workload_names == set(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e
        for names in [*entry["moves"].values(), entry["no_change_on"]]:
            assert set(names) <= workload_names


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "formal",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_times_are_scaled_by_the_kernel_around_each_operation():
    ref = run.REFERENCE_KERNEL_S
    assert run.at_reference_speed([1.0, 3.0], [ref, ref, ref]) == [1.0, 3.0]
    # the machine turned twice as slow during the second of four operations
    slow = [ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert run.at_reference_speed([1.0] * 4, slow) == pytest.approx([1.0, 1 / 1.5, 0.5, 0.5])
    # one slow kernel sample alone does not move the operations around it
    assert run.at_reference_speed([1.0] * 4, [ref, ref, 5 * ref, ref, ref]) == [1.0] * 4
    phase = {"seconds": [[1.0, 3.0], [1.0, 3.0]], "kernel_seconds": [2 * ref] * 5}
    assert run.pass_seconds(phase) == pytest.approx(2.0)
