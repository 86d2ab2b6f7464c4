"""Coverage for gpusim helpers: TrafficReport, KernelCost, DeviceModel."""

import dataclasses

import pytest

from repro.gpusim import (
    A100,
    DeviceModel,
    SparsePattern,
    TrafficReport,
    cusparse_spmm_cost,
)


class TestTrafficReport:
    def test_add_and_total(self):
        report = TrafficReport()
        report.add("a", 100.0).add("b", 50.0).add("a", 25.0)
        assert report.categories["a"] == 125.0
        assert report.total == 175.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TrafficReport().add("a", -1.0)


class TestKernelCost:
    def test_invalid_cost_rejected(self):
        from repro.gpusim import KernelCost

        with pytest.raises(ValueError):
            KernelCost("x", TrafficReport(), flops=1.0, latency=0.0)
        with pytest.raises(ValueError):
            KernelCost("x", TrafficReport(), flops=-1.0, latency=1.0)


class TestDeviceModel:
    def test_memory_time_linear_in_bytes(self):
        one = A100.memory_time(1e9, 0.5)
        two = A100.memory_time(2e9, 0.5)
        assert two == pytest.approx(2 * one)

    def test_custom_device_changes_costs(self):
        slow_hbm = dataclasses.replace(A100, hbm_bandwidth=A100.hbm_bandwidth / 2)
        pattern = SparsePattern(1000, 1000, 100_000)
        assert (
            cusparse_spmm_cost(pattern, 256, slow_hbm).latency
            > cusparse_spmm_cost(pattern, 256, A100).latency
        )

    def test_gnnadvisor_slowdown_bounds(self):
        assert A100.gnnadvisor_slowdown(0.0) == pytest.approx(1.05)
        assert A100.gnnadvisor_slowdown(600.0) == pytest.approx(1.35)
        assert A100.gnnadvisor_slowdown(10_000.0) == pytest.approx(1.35)

    def test_compute_time_regular_vs_irregular(self):
        assert A100.compute_time(1e12, regular=True) < A100.compute_time(
            1e12, regular=False
        )

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            A100.hbm_bandwidth = 1.0

    def test_default_spec_is_a100(self):
        assert A100.name == "A100-80GB"
        assert DeviceModel().l2_bytes == 40 * 1024 * 1024


class TestBoundedLatencyGuards:
    def test_l2_boost_validation(self):
        from repro.gpusim.kernels.base import bounded_latency

        with pytest.raises(ValueError):
            bounded_latency(A100, TrafficReport({"x": 1.0}), 1.0, 0.5, 0.5)

    def test_launch_overhead_floor(self):
        from repro.gpusim.kernels.base import bounded_latency

        latency = bounded_latency(A100, TrafficReport({"x": 1.0}), 0.0, 0.5)
        assert latency >= A100.launch_overhead
