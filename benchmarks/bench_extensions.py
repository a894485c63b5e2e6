"""Benches for the extension experiments (range scans, pipeline modes,
persistence, epoch flushes)."""

import numpy as np
import pytest

from repro.core import EpochManager, HarmoniaTree, load_layout, save_layout
from repro.core.ntg import fanout_group_size
from repro.core.update import Operation
from repro.gpusim.kernels import SimConfig
from repro.gpusim.pipeline import compare_modes
from repro.gpusim.range_scan import simulate_range_scan
from repro.workloads.generators import range_query_bounds


@pytest.mark.parametrize("structure", ["harmonia", "regular_pointer"])
def test_ext_range_scan(benchmark, bench_tree, bench_keys, device, structure):
    los, his = range_query_bounds(bench_keys, 1_024, span_keys=256, rng=3)
    gs = fanout_group_size(bench_tree.fanout, device.warp_size)
    cfg = SimConfig(structure=structure, group_size=gs, early_exit=False,
                    cached_children=(structure == "harmonia"), device=device)
    metrics, scanned = benchmark.pedantic(
        simulate_range_scan, args=(bench_tree.layout, los, his, cfg),
        rounds=2, iterations=1,
    )
    benchmark.extra_info["gld_transactions"] = metrics.gld_transactions
    benchmark.extra_info["keys_scanned"] = int(scanned.sum())


def test_ext_pipeline_modes(benchmark, device):
    points = benchmark(compare_modes, 64, 1 << 16, 50e-6, device)
    for mode, p in points.items():
        benchmark.extra_info[f"{mode}_ms"] = round(p.total_s * 1e3, 3)
    assert points["pipeline"].total_s <= points["serial"].total_s


def test_ext_persistence_roundtrip(benchmark, bench_tree, tmp_path):
    path = tmp_path / "tree.npz"

    def roundtrip():
        save_layout(bench_tree.layout, path)
        return load_layout(path, validate=False)

    loaded = benchmark(roundtrip)
    assert loaded.n_keys == len(bench_tree)


def test_ext_fast_build(benchmark, bench_keys):
    from repro.core.fastbuild import build_layout_fast

    layout = benchmark(build_layout_fast, bench_keys, None, 64, 0.7)
    benchmark.extra_info["nodes"] = layout.n_nodes


@pytest.mark.parametrize("order", ["random", "sorted"])
def test_ext_sort_kernel(benchmark, bench_queries, order):
    import numpy as np

    from repro.gpusim.sort_kernel import simulate_radix_sort

    keys = np.sort(bench_queries) if order == "sorted" else bench_queries
    m = benchmark.pedantic(
        simulate_radix_sort, args=(keys, 16), kwargs={"key_bits": 40},
        rounds=2, iterations=1,
    )
    benchmark.extra_info["total_tx"] = m.total_transactions
    benchmark.extra_info["scatter_divergence"] = round(
        m.passes[0].scatter_divergence, 2
    )


def test_ext_epoch_flush(benchmark, bench_keys):
    ops = [Operation("update", int(k), 1) for k in bench_keys[:2_000]]

    def setup():
        tree = HarmoniaTree.from_sorted(bench_keys, fanout=64, fill=0.7)
        em = EpochManager(tree)
        em.submit_many(ops)
        return (em,), {}

    def flush_and_drain(em):
        res = em.flush()
        em.sync()
        return res

    res = benchmark.pedantic(flush_and_drain, setup=setup, rounds=3,
                             iterations=1)
    assert res.updated == 2_000
