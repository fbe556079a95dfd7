"""Self-tests of the benchmark's own rules and bookkeeping.

Run with ``python3 -m pytest perfbench`` from the repository root.  Nothing
here imports the program under test.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# percentile with a sample-count guard
# ----------------------------------------------------------------------
def test_percentile_matches_linear_interpolation():
    values = np.random.default_rng(0).exponential(size=2000)
    for q in (0.5, 0.9, 0.99):
        assert harness.percentile(values, q) == pytest.approx(
            float(np.percentile(values, q * 100)), rel=1e-12)


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(range(1000), 0.99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        harness.percentile(range(999), 0.99)
    with pytest.raises(ValueError):
        harness.percentile(range(19), 0.5)
    assert harness.percentile([3.0, 1.0, 2.0], 0.5, min_beyond=1) == 2.0
    with pytest.raises(ValueError):
        harness.percentile([], 0.5, min_beyond=0)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 1.5, min_beyond=0)


def test_blocked_percentile_is_median_of_block_tails():
    quiet = list(np.linspace(1.0, 2.0, 1000))
    spiky = quiet[:-20] + [50.0] * 20                # one disturbed block
    values = quiet + spiky + quiet + [99.0] * 10     # partial block dropped
    expected = harness.percentile(quiet, 0.99)
    assert harness.blocked_percentile(values, 0.99, 1000) == expected
    assert harness.percentile(values, 0.99) > expected
    with pytest.raises(ValueError):
        harness.blocked_percentile(values, 0.99, 999)   # guard per block
    with pytest.raises(ValueError):
        harness.blocked_percentile(quiet[:10], 0.5, 1000)


def test_tail_quantile_is_highest_supported():
    assert harness.tail_quantile(1000) == 0.99
    assert harness.tail_quantile(999) == 0.95
    assert harness.tail_quantile(200) == 0.95
    assert harness.tail_quantile(100) == 0.9
    assert harness.tail_quantile(42) == 0.75
    assert harness.tail_quantile(20) == 0.5
    with pytest.raises(ValueError):
        harness.tail_quantile(19)


# ----------------------------------------------------------------------
# fail_frac
# ----------------------------------------------------------------------
def test_fail_frac():
    assert harness.fail_frac(0, 10) == 0.0
    assert harness.fail_frac(3, 12) == 0.25
    assert harness.fail_frac(5, 5) == 1.0
    with pytest.raises(ValueError):
        harness.fail_frac(0, 0)
    with pytest.raises(ValueError):
        harness.fail_frac(11, 10)
    with pytest.raises(ValueError):
        harness.fail_frac(-1, 10)


# ----------------------------------------------------------------------
# capacity ladder
# ----------------------------------------------------------------------
def _rung(rate, p99, failed=0, backlog=False):
    return {"offered_qps": rate, "p99_ms": p99, "failed": failed,
            "backlog_growing": backlog}


def test_capacity_is_highest_passing_rung():
    rungs = [_rung(600, 5.0), _rung(1200, 20.0), _rung(2400, 80.0, backlog=True)]
    assert harness.capacity(rungs, 25.0)["offered_qps"] == 1200


def test_capacity_rule_needs_all_three_conditions():
    assert harness.rung_passes(_rung(1, 25.0), 25.0)
    assert not harness.rung_passes(_rung(1, 25.01), 25.0)
    assert not harness.rung_passes(_rung(1, 1.0, failed=1), 25.0)
    assert not harness.rung_passes(_rung(1, 1.0, backlog=True), 25.0)
    # a failed query disqualifies a rung even with a fast p99
    rungs = [_rung(600, 5.0), _rung(1200, 5.0, failed=2)]
    assert harness.capacity(rungs, 25.0)["offered_qps"] == 600
    assert harness.capacity([_rung(600, 30.0)], 25.0) is None


def test_backlog_grows():
    times = list(range(100))
    assert not harness.backlog_grows(times, [5.0] * 100, 25.0)
    climbing = [float(t) for t in times]            # +1 ms per query
    assert harness.backlog_grows(times, climbing, 25.0)
    # order is by schedule, not by the order samples were listed in
    assert harness.backlog_grows(times[::-1], climbing[::-1], 25.0)
    assert not harness.backlog_grows(times, [f % 2 * 10.0 for f in times],
                                     25.0)
    with pytest.raises(ValueError):
        harness.backlog_grows([0.0], [], 25.0)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class _Layer:
    def work(self, depth=0):
        if depth:
            return self.work(depth - 1) + 1
        return 0

    @staticmethod
    def helper(value):
        return value * 2


def test_tracer_accounts_outermost_calls_and_restores():
    original = _Layer.__dict__["work"]
    original_helper = _Layer.__dict__["helper"]
    tracer = Tracer()
    seen = []
    tracer.patch(_Layer, "work", "layer.work",
                 before=lambda *args, **kwargs: seen.append(args[1:]))
    tracer.patch(_Layer, "helper", "layer.helper")
    assert _Layer().work(3) == 3             # nested calls counted once
    assert _Layer.helper(4) == 8 and _Layer().helper(5) == 10
    assert tracer.calls["layer.work"] == 1
    assert tracer.calls["layer.helper"] == 2
    assert tracer.busy["layer.work"] > 0.0
    assert seen == [(3,)]
    tracer.restore()
    assert _Layer.__dict__["work"] is original
    assert _Layer.__dict__["helper"] is original_helper
    assert not tracer.active


def test_tracer_restores_inherited_attributes_by_deleting():
    class Child(_Layer):
        pass

    tracer = Tracer()
    tracer.patch(Child, "work", "child.work")
    assert "work" in vars(Child)
    tracer.restore()
    assert "work" not in vars(Child)


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the catalogue
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_catalogue():
    from perfbench.run import WORKLOADS, benchmark_spec

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_benchmark_spec_keeps_the_contract():
    from perfbench.run import benchmark_spec

    spec = benchmark_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in
                                            spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
