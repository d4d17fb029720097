"""Tests for the virtual GPU: device model, cost model, launch framework."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu.costmodel import KernelCostModel, TrafficEstimate, staging_time
from repro.machines import DeviceSpec, generic_gpu, v100
from repro.gpu.kernels import VirtualGPU


class TestDeviceSpec:
    def test_v100_published_numbers(self):
        dev = v100()
        assert dev.n_sms == 80  # Section V-A: "80 streaming multiprocessors"
        assert dev.hbm_bytes == 16 * 1024**3  # "16 GB of high-bandwidth memory"
        assert dev.l2_bytes == 6 * 1024**2  # "6 MB L2 cache"
        assert dev.host_link_bw == 25e9  # "peak bandwidth of 25 GB/s per link"

    def test_effective_bandwidths(self):
        dev = v100()
        assert dev.stream_bw == dev.hbm_bw * dev.streaming_efficiency
        assert dev.random_bw < dev.stream_bw

    def test_fits(self):
        dev = generic_gpu(hbm_gb=1)
        assert dev.fits(512 * 1024**2)
        assert not dev.fits(2 * 1024**3)

    def test_with_overrides(self):
        dev = v100().with_overrides(atomic_rate=1e9)
        assert dev.atomic_rate == 1e9
        assert dev.n_sms == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            v100().with_overrides(hbm_bw=-1)
        with pytest.raises(ValueError):
            v100().with_overrides(streaming_efficiency=0)
        with pytest.raises(ValueError):
            v100().with_overrides(n_sms=0)


class TestTrafficEstimate:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficEstimate(streaming_bytes=-1)
        with pytest.raises(ValueError):
            TrafficEstimate(atomic_hot_fraction=1.5)

    def test_combined(self):
        a = TrafficEstimate(streaming_bytes=10, atomic_ops=10, atomic_hot_fraction=1.0, thread_ops=5)
        b = TrafficEstimate(random_bytes=20, atomic_ops=30, atomic_hot_fraction=0.0)
        c = a.combined(b)
        assert c.streaming_bytes == 10 and c.random_bytes == 20
        assert c.atomic_ops == 40
        assert c.atomic_hot_fraction == pytest.approx(0.25)
        assert c.thread_ops == 5

    def test_combined_zero_atomics(self):
        c = TrafficEstimate().combined(TrafficEstimate())
        assert c.atomic_hot_fraction == 0.0


class TestKernelCostModel:
    def test_roofline_max_semantics(self):
        model = KernelCostModel(v100())
        t_stream = model.kernel_time(TrafficEstimate(streaming_bytes=1e9))
        t_both = model.kernel_time(TrafficEstimate(streaming_bytes=1e9, random_bytes=1))
        assert t_both == pytest.approx(t_stream)

    def test_random_slower_than_streaming(self):
        model = KernelCostModel(v100())
        t_s = model.kernel_time(TrafficEstimate(streaming_bytes=1e8))
        t_r = model.kernel_time(TrafficEstimate(random_bytes=1e8))
        assert t_r > t_s

    def test_hot_atomics_serialize(self):
        model = KernelCostModel(v100())
        cold = model.kernel_time(TrafficEstimate(atomic_ops=1e8, atomic_hot_fraction=0.0))
        hot = model.kernel_time(TrafficEstimate(atomic_ops=1e8, atomic_hot_fraction=1.0))
        assert hot > cold * 10

    def test_thread_ops_term(self):
        model = KernelCostModel(v100())
        t = model.kernel_time(TrafficEstimate(thread_ops=1e11))
        assert t == pytest.approx(v100().kernel_launch_overhead + 1.0)

    def test_launch_overhead_floor(self):
        model = KernelCostModel(v100())
        assert model.kernel_time(TrafficEstimate()) == v100().kernel_launch_overhead


class TestStaging:
    def test_both_directions_charged(self):
        dev = v100()
        t = staging_time(dev, 1e9, 2e9)
        assert t == pytest.approx(3e9 / dev.host_link_bw)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            staging_time(v100(), -1, 0)


class TestVirtualGPU:
    def test_launch_executes_body(self):
        gpu = VirtualGPU()
        out = gpu.launch("sq", 100, lambda tid: tid * tid, TrafficEstimate())
        assert out[9] == 81

    def test_elapsed_accumulates(self):
        gpu = VirtualGPU()
        gpu.launch("a", 10, lambda tid: None, TrafficEstimate(streaming_bytes=1e9))
        gpu.launch("b", 10, lambda tid: None, TrafficEstimate(streaming_bytes=1e9))
        assert gpu.elapsed == pytest.approx(2 * (gpu.device.kernel_launch_overhead + 1e9 / gpu.device.stream_bw))

    def test_traffic_callable(self):
        gpu = VirtualGPU()
        gpu.launch("n-dependent", 50, lambda tid: tid.sum(), lambda result: TrafficEstimate(thread_ops=float(result)))
        assert gpu.log[0].traffic.thread_ops == sum(range(50))

    def test_block_decomposition(self):
        gpu = VirtualGPU(block_size=32)
        gpu.launch("k", 100, lambda tid: None, TrafficEstimate())
        assert gpu.log[0].n_blocks == 4
        assert gpu.log[0].block_size == 32

    def test_zero_thread_launch(self):
        gpu = VirtualGPU()
        gpu.launch("empty", 0, lambda tid: tid, TrafficEstimate())
        assert gpu.log[0].n_blocks == 0
        assert gpu.elapsed == gpu.device.kernel_launch_overhead

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError):
            VirtualGPU().launch("x", -1, lambda tid: None, TrafficEstimate())

    def test_stage_tracks_bytes(self):
        gpu = VirtualGPU()
        t = gpu.stage(1000, 2000)
        assert gpu.staged_bytes == 3000
        assert gpu.elapsed == pytest.approx(t)

    def test_time_of(self):
        gpu = VirtualGPU()
        gpu.launch("a", 1, lambda tid: None, TrafficEstimate())
        gpu.launch("b", 1, lambda tid: None, TrafficEstimate(streaming_bytes=1e9))
        gpu.launch("a", 1, lambda tid: None, TrafficEstimate())
        assert gpu.time_of("a") == pytest.approx(2 * gpu.device.kernel_launch_overhead)

    def test_reset(self):
        gpu = VirtualGPU()
        gpu.launch("a", 1, lambda tid: None, TrafficEstimate())
        gpu.stage(10, 10)
        gpu.reset()
        assert gpu.elapsed == 0 and gpu.staged_bytes == 0 and not gpu.log

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            VirtualGPU(block_size=0)
        with pytest.raises(ValueError):
            VirtualGPU(block_size=99999)
