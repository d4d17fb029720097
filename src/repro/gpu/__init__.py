"""Virtual-GPU substrate: device model, kernels, cost model, hash table."""

from .blocks import (
    MappingAnalysis,
    analyze_thread_mapping,
    block_imbalance_factor,
    per_thread_work,
    tail_efficiency,
    warp_divergence_factor,
)
from .costmodel import KernelCostModel, TrafficEstimate, staging_time
from ..machines import DeviceSpec, generic_gpu, v100
from .hashtable import EMPTY_KEY, DeviceHashTable, InsertStats
from .kernels import KernelStats, VirtualGPU

__all__ = [
    "MappingAnalysis",
    "analyze_thread_mapping",
    "warp_divergence_factor",
    "block_imbalance_factor",
    "tail_efficiency",
    "per_thread_work",
    "DeviceSpec",
    "v100",
    "generic_gpu",
    "KernelCostModel",
    "TrafficEstimate",
    "staging_time",
    "VirtualGPU",
    "KernelStats",
    "DeviceHashTable",
    "InsertStats",
    "EMPTY_KEY",
]
