"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

import stats
from compare import judge
from tracer import Tracer, instrument, restore, self_times
from workloads import EVAL_EXPECTED, WORKLOADS, eval_check, verify_check

SOURCE = Path(__file__).resolve().parent.parent / "src"


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] overruns
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 4.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10 - 5 - 2)  # covered: [1, 6] and [8, 10]
    assert own[1:] == [3.0, 3.0, 4.0]


def test_grandchildren_do_not_count_against_the_grandparent():
    starts = [0.0, 2.0, 3.0]
    ends = [10.0, 6.0, 5.0]
    parents = [-1, 0, 1]
    assert self_times(starts, ends, parents) == [6.0, 2.0, 2.0]


def test_children_given_out_of_start_order():
    starts = [0.0, 5.0, 1.0]
    ends = [10.0, 7.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(4.0)


def test_tracer_records_nesting_and_counts():
    tracer = Tracer()

    def fib(n):
        return n if n < 2 else traced(n - 1) + traced(n - 2)

    traced = tracer.wrap("m.fib", fib)
    assert traced(5) == 5
    assert tracer.calls()["m.fib"] == 15
    assert list(tracer.parents).count(-1) == 1
    inclusive, exclusive = tracer.totals()
    assert exclusive["m.fib"] == pytest.approx(tracer.root_time())
    assert inclusive["m.fib"] >= exclusive["m.fib"]


# -- the percentile rule ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(1, 100)), 90) is None  # 99 samples
    assert stats.tail_percentile(list(range(1, 101)), 90) == 90  # 10 lie beyond
    assert stats.tail_percentile(list(range(1, 110)), 90) == 99  # ceil(98.1) = 99
    assert stats.tail_percentile(list(range(200, 0, -1)), 90) == 180


def test_rolling_median_ignores_one_outlier_but_follows_a_step():
    assert stats.rolling_median([1, 1, 9, 1, 1], 2) == [1, 1, 1, 1, 1]
    assert stats.rolling_median([1, 1, 1, 2, 2, 2], 1) == [1, 1, 1, 2, 2, 2]
    assert stats.rolling_median([3.0], 2) == [3.0]


def test_spread_is_interquartile_distance_over_median():
    assert stats.spread([1.0]) is None
    assert stats.spread([10.0] * 5) == 0.0
    q1, _, q3 = statistics.quantiles([8, 9, 10, 11, 12], n=4)
    assert stats.spread([8, 9, 10, 11, 12]) == pytest.approx((q3 - q1) / 10)


# -- the compare command ---------------------------------------------------------


STEADY_BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]


def test_regression_is_flagged_beyond_the_bound():
    head = [v * 1.2 for v in STEADY_BASE]
    assert judge(STEADY_BASE, head, "lower", 0.1)["status"] == "regression"
    assert judge(STEADY_BASE, head, "lower", 0.25)["status"] == "ok"


def test_direction_follows_better():
    head = [v * 0.8 for v in STEADY_BASE]
    assert judge(STEADY_BASE, head, "lower", 0.1)["status"] == "ok"
    assert judge(STEADY_BASE, head, "higher", 0.1)["status"] == "regression"


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2, 1.0]
    result = judge(noisy, list(noisy), "lower", 0.1)
    assert result["worse"] == 0 and result["status"] == "unresolved"


def test_wide_spread_with_every_run_better_is_resolved():
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2, 1.0]
    head = [v / 3 for v in noisy]
    assert judge(noisy, head, "lower", 0.1)["status"] == "ok"


def test_single_runs_are_unresolved():
    assert judge([1.0], [1.5], "lower", 0.1)["status"] == "unresolved"


# -- the oracle ------------------------------------------------------------------


def _verify_report(samples, step_samples, verdict="NotInduced"):
    steps = [{"name": "a", "inputs": {"samples": s}, "pass": True} for s in step_samples]
    return json.dumps({"verdict": verdict, "pass": True, "samples": samples, "steps": steps})


def test_vacuous_pass_is_a_failure():
    check = verify_check("NotInduced", 40)
    assert check(0, _verify_report(40, [40, 40])) is None
    assert check(0, _verify_report(40, [40, 0])) is not None
    assert check(0, _verify_report(0, [0])) is not None
    assert check(0, _verify_report(40, [])) is not None
    assert check(1, _verify_report(40, [40])) is not None
    assert check(0, _verify_report(40, [40], verdict="Induced")) is not None


def test_eval_oracle_compares_the_printed_value():
    check = eval_check("5/8")
    assert check(0, "5/8\n") is None
    assert check(0, "3/8\n") is not None
    assert check(2, "5/8\n") is not None


def test_workloads_are_reproducible_from_the_seed():
    for workload in WORKLOADS.values():
        a = [inv.describe() for inv in workload.build(random.Random(7))]
        b = [inv.describe() for inv in workload.build(random.Random(7))]
        assert a == b and len(a) >= workload.traced_invocations


# -- instrumenting the package ---------------------------------------------------


@pytest.fixture
def cli(monkeypatch):
    monkeypatch.syspath_prepend(str(SOURCE))
    import l0convex.cli

    return l0convex.cli


def test_instrument_traces_the_layers_and_restore_undoes_it(cli, capsys):
    l0 = sys.modules["l0convex.l0"]
    sets = sys.modules["l0convex.sets"]
    before = (sets.leq_everywhere, l0.EcRv.__init__, cli.gauge_closed_form)
    tracer = Tracer()
    patches = instrument(tracer)
    try:
        expr, expected = EVAL_EXPECTED[1]  # contains ball(...) {|1}
        assert cli.main(["eval", expr]) == 0
    finally:
        restore(patches)
    assert capsys.readouterr().out.strip() == expected
    calls = tracer.calls()
    assert calls["cli.main"] == 1
    assert calls["sets.contains"] >= 1 and calls["l0.leq_everywhere"] >= 1
    assert calls["l0.EcRv.new"] >= 1 and tracer.max_bits >= 1
    assert calls["syntax.Parser.set_descriptor"] == 1
    assert (sets.leq_everywhere, l0.EcRv.__init__, cli.gauge_closed_form) == before
