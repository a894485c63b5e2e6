"""A miniature key-value service: epochs, concurrent readers, persistence.

Puts the operational pieces together the way a deployment would:

* an :class:`~repro.core.epoch.EpochManager` gives readers snapshot
  isolation while writers publish batches into its delta, which a
  background drain merges into the base;
* reader threads hammer the index during flushes and verify they never
  observe a half-applied batch;
* the visible state is persisted to disk and reloaded with full
  invariant validation.

Run:  python examples/kv_service.py
"""

import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import (
    EpochManager,
    HarmoniaTree,
    Operation,
    layout_stats,
    load_tree,
    save_tree,
)
from repro.workloads.generators import make_key_set

N_KEYS = 1 << 15
N_EPOCHS = 5
OPS_PER_EPOCH = 2_000

rng = np.random.default_rng(4242)
keys = make_key_set(N_KEYS, rng=rng)
tree = HarmoniaTree.from_sorted(keys, values=keys + 1, fanout=64, fill=0.7)
service = EpochManager(tree, batch_capacity=OPS_PER_EPOCH)

print(f"service up: {N_KEYS} keys, epoch {service.epoch}")
st = layout_stats(tree.layout)
print(f"  height {st.height}, leaf occupancy {st.mean_leaf_occupancy:.0%}, "
      f"child region {st.child_region_bytes / 1e3:.1f} KB "
      f"({st.const_resident_levels()} of {st.height} levels constant-resident)\n")

# ---- concurrent readers ------------------------------------------------
stop = threading.Event()
read_counts = [0, 0, 0]
anomalies = []


def reader(idx: int) -> None:
    probe = keys[:: 7]
    while not stop.is_set():
        out = service.search_batch(probe)
        # Values are k+1 initially and overwritten to -epoch later; a read
        # must never see anything else for a live key.
        live = out != np.iinfo(np.int64).min
        ok = (out[live] == probe[live] + 1) | (out[live] < 0)
        if not ok.all():
            anomalies.append(idx)
        read_counts[idx] += 1


threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
for t in threads:
    t.start()

# ---- writer epochs -----------------------------------------------------
for epoch in range(1, N_EPOCHS + 1):
    targets = rng.choice(keys, OPS_PER_EPOCH - 100, replace=False)
    ops = [Operation("update", int(k), -epoch) for k in targets]
    ops += [
        Operation("insert", int(k), -epoch)
        for k in rng.integers(0, 1 << 40, size=100)
    ]
    t0 = time.perf_counter()
    auto = service.submit_many(ops)  # may auto-flush at capacity
    manual = service.flush()
    dt = time.perf_counter() - t0
    for result in auto + ([manual] if manual else []):
        print(f"epoch {service.epoch}: {result.n_effective} effective ops "
              f"in {dt * 1e3:.0f} ms (delta {service.delta_size} entries)")

stop.set()
for t in threads:
    t.join()
print(f"\nreaders completed {sum(read_counts)} snapshot batches; "
      f"anomalies: {len(anomalies)} (must be 0)")
assert not anomalies

# ---- persistence -------------------------------------------------------
with tempfile.TemporaryDirectory() as d:
    path = Path(d) / "index.npz"
    save_tree(service.pin(), path)
    restored = load_tree(path, fill=0.7)  # validates invariants on load
    probe = keys[:1_000]
    assert np.array_equal(
        restored.search_batch(probe), service.search_batch(probe)
    )
    print(f"snapshot persisted ({path.stat().st_size / 1e6:.1f} MB) and "
          "restored identically — done.")
