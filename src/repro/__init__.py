"""Harmonia: a high-throughput B+tree for GPUs — full reproduction.

Reproduces Yan, Lin, Peng & Zhang, *Harmonia: A High Throughput B+tree for
GPUs* (PPoPP 2019) as a pure-Python library: the two-region tree layout,
the PSA and NTG optimizations, batch updates with Algorithm 1 locking, the
HB+Tree comparator, and a simulated SIMT GPU substrate that regenerates
every figure of the paper's evaluation.

Quickstart::

    import numpy as np
    from repro import HarmoniaTree, SearchConfig

    keys = np.arange(0, 1_000_000, 2)
    tree = HarmoniaTree.from_sorted(keys, fanout=64)
    values = tree.search_batch(np.array([2, 4, 5]), SearchConfig.full())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.constants import DEFAULT_FANOUT, KEY_MAX, NOT_FOUND
from repro.core import (
    BatchQueryEngine,
    EngineStats,
    EpochManager,
    HarmoniaLayout,
    HarmoniaTree,
    SearchConfig,
    layout_stats,
    load_layout,
    load_tree,
    save_layout,
    save_tree,
)
from repro.core.update import OpBatch, Operation
from repro.obs import MetricsRegistry, TraceConfig
from repro.btree import ImplicitBPlusTree, RegularBPlusTree, bulk_load
from repro.baselines import CPUBTreeSearcher, HBTree
from repro.gpusim import DeviceSpec, TESLA_K80, TITAN_V

__version__ = "1.0.0"

__all__ = [
    "HarmoniaTree",
    "HarmoniaLayout",
    "BatchQueryEngine",
    "EngineStats",
    "SearchConfig",
    "MetricsRegistry",
    "TraceConfig",
    "EpochManager",
    "Operation",
    "OpBatch",
    "save_layout",
    "load_layout",
    "save_tree",
    "load_tree",
    "layout_stats",
    "RegularBPlusTree",
    "ImplicitBPlusTree",
    "bulk_load",
    "HBTree",
    "CPUBTreeSearcher",
    "DeviceSpec",
    "TITAN_V",
    "TESLA_K80",
    "DEFAULT_FANOUT",
    "KEY_MAX",
    "NOT_FOUND",
    "__version__",
]
