import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtmcloud import batchsim
from rtmcloud.batchsim import (
    CurveRow,
    JobSpec,
    PricingModel,
    RuntimeDistribution,
    apply_low_priority,
    fixed_cluster_bill,
    idle_cost_curve,
    parse_vm_counts,
    sample_runtimes,
    simulate_batch_pool,
    simulate_fixed_cluster,
)

from fcfs_oracle import fcfs_oracle

EXACT = PricingModel(1.0, billing_granularity=0)


def jobs_from(durations_h):
    return [JobSpec(i, d) for i, d in enumerate(durations_h)]


class TestSampleRuntimes:
    def test_zero_spread_is_degenerate(self):
        dist = RuntimeDistribution(119.28, spread=0.0, seed=1)
        durations = sample_runtimes(dist, 50)
        assert all(d == 119.28 / 60.0 for d in durations)

    def test_default_spread_mean_within_two_percent(self):
        dist = RuntimeDistribution(119.28, seed=42)
        durations = sample_runtimes(dist, 1500)
        mean_min = float(np.mean(durations)) * 60.0
        assert 116.9 <= mean_min <= 121.7

    def test_same_seed_identical(self):
        dist = RuntimeDistribution(119.28, seed=7)
        assert sample_runtimes(dist, 200) == sample_runtimes(dist, 200)

    def test_truncation_bounds_spread(self):
        dist = RuntimeDistribution(100.0, spread=0.16, seed=5)
        durations = sample_runtimes(dist, 5000)
        assert max(durations) / min(durations) <= np.exp(6 * 0.16) + 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RuntimeDistribution(-1.0)
        with pytest.raises(ValueError):
            sample_runtimes(RuntimeDistribution(10.0), 0)


class TestFixedCluster:
    def test_hand_traced_example(self):
        result = simulate_fixed_cluster(jobs_from([1.0, 1.0, 2.0]), 2, EXACT)
        assert result.makespan == 3.0
        assert result.busy_vm_hours == 4.0
        assert result.idle_vm_hours == 2.0
        assert result.cost == 6.0

    def test_single_vm_no_idle(self):
        result = simulate_fixed_cluster(jobs_from([0.5, 1.5, 0.25]), 1, EXACT)
        assert result.idle_vm_hours == pytest.approx(0.0, abs=1e-12)
        assert result.cost == pytest.approx(2.25)

    def test_perfect_packing(self):
        result = simulate_fixed_cluster(jobs_from([2.0] * 4), 4, EXACT)
        assert result.makespan == 2.0
        assert result.idle_vm_hours == pytest.approx(0.0, abs=1e-12)

    def test_too_few_vms_for_gang_job(self):
        with pytest.raises(ValueError):
            simulate_fixed_cluster([JobSpec(0, 1.0, vms_per_job=3)], 2, EXACT)

    def test_gang_scheduling_blocks_head_of_line(self):
        jobs = [JobSpec(0, 2.0), JobSpec(1, 1.0, vms_per_job=2), JobSpec(2, 0.5)]
        result = simulate_fixed_cluster(jobs, 2, EXACT)
        starts = {j: s for j, s, _ in result.job_times}
        assert starts[0] == 0.0
        assert starts[1] == 2.0  # waits for both VMs despite one being free
        assert starts[2] == 3.0  # FCFS: does not jump the queue

    def test_master_vm_billing(self):
        pricing = PricingModel(2.5, billing_granularity=60.0)
        plain = simulate_fixed_cluster(jobs_from([1.0, 0.7]), 2, pricing)
        billed, cost = fixed_cluster_bill(2, plain.makespan, pricing, extra_master_vm=True)
        assert billed == pytest.approx(3 * pricing.bill_hours(plain.makespan))
        assert cost == pytest.approx(3 * pricing.bill_hours(plain.makespan) * 2.5)


class TestBatchPool:
    def test_pay_only_for_work(self):
        result = simulate_batch_pool(jobs_from([1.0, 1.0, 2.0]), 2, EXACT, scale_latency=0.0)
        assert result.billed_vm_hours == 4.0
        assert result.cost == 4.0
        assert result.idle_vm_hours == pytest.approx(0.0, abs=1e-12)

    def test_scale_latency_charged_per_allocation(self):
        result = simulate_batch_pool(jobs_from([1.0, 1.0]), 2, EXACT, scale_latency=360.0)
        assert result.billed_vm_hours == pytest.approx(2.0 + 2 * 0.1)
        assert result.idle_vm_hours == pytest.approx(0.2)

    def test_reference_workload_cost(self):
        # 1500 jobs x 119.28 min at $3.629/h: within 1% of $10,821
        pricing = PricingModel(3.629, billing_granularity=1.0)
        jobs = jobs_from([119.28 / 60.0] * 1500)
        result = simulate_batch_pool(jobs, 100, pricing)
        assert result.cost == pytest.approx(10_821.678, rel=0.01)

    def test_reference_makespan_100_vms(self):
        pricing = PricingModel(3.629)
        jobs = jobs_from([119.28 / 60.0] * 1500)
        result = simulate_batch_pool(jobs, 100, pricing)
        assert result.makespan == pytest.approx(29.82, rel=0.02)


class TestLowPriority:
    def test_factor_two_halves_cost(self):
        result = simulate_fixed_cluster(jobs_from([1.0, 1.0, 2.0]), 2, EXACT)
        discounted = apply_low_priority(result, PricingModel(1.0, 2.0, 0))
        assert discounted.cost == pytest.approx(3.0)
        assert discounted.makespan == result.makespan

    def test_factor_out_of_range_rejected(self):
        result = simulate_fixed_cluster(jobs_from([1.0]), 1, EXACT)
        for bad in (1.5, 3.5):
            with pytest.raises(ValueError):
                apply_low_priority(result, PricingModel(1.0, bad, 0))

    def test_ratio_two_with_factor_three_gives_six(self):
        # fixed/batch ratio 2 combined with the 3x discount: 6x total savings
        fixed_cost, batch_cost = 12.0, 6.0
        assert fixed_cost / (batch_cost / 3.0) == pytest.approx(6.0)

    def test_discount_arithmetic(self):
        pricing = PricingModel(3.629, 2.5, billing_granularity=1.0)
        jobs = jobs_from([119.28 / 60.0] * 1500)
        batch = simulate_batch_pool(jobs, 100, pricing)
        assert apply_low_priority(batch, pricing).cost == pytest.approx(batch.cost / 2.5)


class TestIdleCostCurve:
    def test_ratio_is_one_at_single_vm(self):
        rows = idle_cost_curve(jobs_from([1.0, 2.0, 0.5]), [1], EXACT)
        assert rows[0].ratio == pytest.approx(1.0)

    def test_ratio_nondecreasing_small_counts(self):
        dist = RuntimeDistribution(119.28, seed=42)
        jobs = jobs_from(sample_runtimes(dist, 1500))
        rows = idle_cost_curve(jobs, [25, 50, 100, 200], PricingModel(3.629))
        ratios = [r.ratio for r in rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_ratio_band_reached_within_sweep(self):
        dist = RuntimeDistribution(119.28, seed=42)
        jobs = jobs_from(sample_runtimes(dist, 1500))
        rows = idle_cost_curve(jobs, [100, 400, 1200, 1400, 1500], PricingModel(3.629))
        peak = max(r.ratio for r in rows)
        assert 1.5 <= peak <= 2.2


durations_strategy = st.lists(
    st.floats(0.02, 8.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=12
)


def curve_row_by_size(jobs, n, pricing, scale_latency=0.0):
    """One curve row built from both placements at size ``n``."""
    fixed = simulate_fixed_cluster(jobs, n, pricing)
    batch = simulate_batch_pool(jobs, n, pricing, scale_latency)
    return CurveRow(
        n_vms=n,
        makespan_h=fixed.makespan,
        busy_vmh=fixed.busy_vm_hours,
        idle_vmh=fixed.idle_vm_hours,
        fixed_cost=fixed.cost,
        batch_cost=batch.cost,
        ratio=fixed.cost / batch.cost,
        low_priority_cost=apply_low_priority(batch, pricing).cost,
    )


class TestCurvePlacements:
    def test_batch_pool_placed_once_per_sweep(self, monkeypatch):
        calls = []
        place = batchsim._fcfs_schedule

        def counting(jobs, n_vms):
            calls.append(n_vms)
            return place(jobs, n_vms)

        monkeypatch.setattr(batchsim, "_fcfs_schedule", counting)
        sweep = [4, 1, 9, 2, 9]
        idle_cost_curve(jobs_from([1.0, 2.0, 0.5, 3.0]), sweep, EXACT)
        assert len(calls) == len(sweep) + 1
        assert sorted(calls) == sorted(sweep + [sweep[0]])

    @given(
        durations=durations_strategy,
        widths=st.lists(st.integers(1, 3), min_size=1),
        extra_sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
        scale_latency=st.sampled_from([0.0, 45.0, 600.0]),
        granularity=st.sampled_from([0.0, 1.0, 60.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_per_size_placement(
        self, durations, widths, extra_sizes, scale_latency, granularity
    ):
        jobs = [JobSpec(i, d, widths[i % len(widths)]) for i, d in enumerate(durations)]
        pricing = PricingModel(3.629, 2.5, billing_granularity=granularity)
        widest = max(j.vms_per_job for j in jobs)
        sweep = [widest + k for k in extra_sizes]
        rows = idle_cost_curve(jobs, sweep, pricing, scale_latency)
        assert rows == [curve_row_by_size(jobs, n, pricing, scale_latency) for n in sweep]

    @pytest.mark.parametrize("sweep", [[2, 5], [5, 2]])
    def test_size_below_widest_job_rejected(self, sweep):
        jobs = [JobSpec(0, 1.0, vms_per_job=3), JobSpec(1, 0.5)]
        with pytest.raises(ValueError, match="^2 VMs cannot run a job needing 3$"):
            idle_cost_curve(jobs, sweep, EXACT)

    def test_empty_sweep(self):
        assert idle_cost_curve(jobs_from([1.0]), [], EXACT) == []


class TestParseVmCounts:
    def test_list_and_default_sweep(self):
        assert parse_vm_counts("25, 50,100", 7, "--vm-counts") == [25, 50, 100]
        assert parse_vm_counts(None, 5) == [1, 2, 4, 5]
        assert parse_vm_counts(None, 8) == [1, 2, 4, 8]
        assert parse_vm_counts(None, 1) == [1]

    @pytest.mark.parametrize(
        "spec, reason",
        [("4,,8", "empty item"), ("4,", "empty item"), ("4,eight", "'eight' is not an integer"),
         ("2.5", "'2.5' is not an integer"), ("4,0", "0 is below 1"), ("-2", "-2 is below 1")],
    )
    def test_malformed_list_names_its_source(self, spec, reason):
        with pytest.raises(ValueError, match=f"^--vm-counts '{spec}': {reason}$"):
            parse_vm_counts(spec, 10, "--vm-counts")


class TestScheduleProperties:
    @given(durations=durations_strategy, n_vms=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_bounds(self, durations, n_vms):
        jobs = jobs_from(durations)
        fixed = simulate_fixed_cluster(jobs, n_vms, EXACT)
        batch = simulate_batch_pool(jobs, n_vms, EXACT)
        busy = sum(durations)
        assert fixed.busy_vm_hours == pytest.approx(busy)
        assert batch.busy_vm_hours == pytest.approx(busy)
        assert fixed.makespan >= max(durations) - 1e-12
        assert fixed.makespan >= busy / n_vms - 1e-9
        assert batch.cost <= fixed.cost + 1e-9  # dominance at exact billing
        assert fixed.billed_vm_hours == pytest.approx(
            fixed.busy_vm_hours + fixed.idle_vm_hours
        )

    @given(durations=durations_strategy, n_vms=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_event_oracle(self, durations, n_vms):
        fixed = simulate_fixed_cluster(jobs_from(durations), n_vms, EXACT)
        makespan, busy, idle = fcfs_oracle(durations, n_vms)
        assert fixed.makespan == pytest.approx(makespan, rel=1e-12)
        assert fixed.busy_vm_hours == pytest.approx(busy, rel=1e-12)
        assert fixed.idle_vm_hours == pytest.approx(idle, rel=1e-12, abs=1e-9)

    def test_deterministic(self):
        jobs = jobs_from(sample_runtimes(RuntimeDistribution(60.0, seed=3), 40))
        a = simulate_fixed_cluster(jobs, 7, EXACT)
        b = simulate_fixed_cluster(jobs, 7, EXACT)
        assert a == b

    def test_exhaustive_small_cases_match_oracle(self):
        for k in range(1, 5):
            for durations in itertools.product((1.0, 2.0, 3.0), repeat=k):
                for n_vms in (1, 2, 3):
                    fixed = simulate_fixed_cluster(jobs_from(durations), n_vms, EXACT)
                    makespan, busy, idle = fcfs_oracle(list(durations), n_vms)
                    assert fixed.makespan == makespan
                    assert fixed.busy_vm_hours == busy
                    assert fixed.idle_vm_hours == idle


class TestBillingGranularity:
    def test_per_second_rounding(self):
        pricing = PricingModel(1.0, billing_granularity=1.0)
        result = simulate_batch_pool([JobSpec(0, 100.4 / 3600.0)], 1, pricing)
        assert result.billed_vm_hours == pytest.approx(101.0 / 3600.0)

    def test_hourly_rounding_option(self):
        pricing = PricingModel(1.0, billing_granularity=3600.0)
        result = simulate_batch_pool([JobSpec(0, 0.25)], 1, pricing)
        assert result.billed_vm_hours == pytest.approx(1.0)

    def test_whole_hours_unaffected(self):
        pricing = PricingModel(1.0, billing_granularity=1.0)
        result = simulate_fixed_cluster(jobs_from([1.0, 1.0, 2.0]), 2, pricing)
        assert result.cost == pytest.approx(6.0)
