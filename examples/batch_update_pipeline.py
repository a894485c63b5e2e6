"""Phase-based query/update pipeline (§3.2.2 end to end).

B+tree systems in lookup-intensive deployments batch their writes: long
query phases on an immutable snapshot, punctuated by update batches
(TPC-H-style read/write ratio ≈ 35:1).  This example drives several full
cycles and reports what the paper's Figure 14 measures — batch update
throughput, split into the resolve phase (each op checked against the
packed leaf block) and the movement phase (the merge into the next
block).

Run:  python examples/batch_update_pipeline.py
"""

import time

import numpy as np

from repro import HarmoniaTree, SearchConfig
from repro.workloads.generators import make_key_set, uniform_queries
from repro.workloads.mixes import PAPER_UPDATE_MIX, UpdateMix, make_update_batch

N_KEYS = 1 << 16
QUERIES_PER_PHASE = 1 << 15
OPS_PER_BATCH = 1 << 12
ROUNDS = 4

rng = np.random.default_rng(99)
keys = make_key_set(N_KEYS, rng=rng)
tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)

print(f"pipeline: {ROUNDS} rounds of "
      f"{QUERIES_PER_PHASE} queries + {OPS_PER_BATCH}-op update batch "
      f"(mix: {PAPER_UPDATE_MIX.insert:.0%} insert / "
      f"{PAPER_UPDATE_MIX.update:.0%} update)\n")

mix_with_deletes = UpdateMix(insert=0.05, update=0.90, delete=0.05)

for round_no in range(1, ROUNDS + 1):
    # ---- query phase (immutable snapshot) ---------------------------
    stored = tree.snapshot.keys
    queries = uniform_queries(stored, QUERIES_PER_PHASE, rng=rng)
    t0 = time.perf_counter()
    tree.search_batch(queries, SearchConfig.full())
    q_dt = time.perf_counter() - t0

    # ---- update phase (resolve + merge into the next block) ---------
    mix = PAPER_UPDATE_MIX if round_no % 2 else mix_with_deletes
    ops = make_update_batch(stored, OPS_PER_BATCH, mix=mix,
                            rng=rng.integers(1 << 30))
    t0 = time.perf_counter()
    res = tree.apply_batch(ops)
    u_dt = time.perf_counter() - t0
    tree.check_invariants()

    print(
        f"round {round_no}: "
        f"queries {QUERIES_PER_PHASE / q_dt / 1e6:6.2f} Mq/s | "
        f"updates {len(ops) / u_dt / 1e3:7.1f} Kops/s "
        f"(resolve {res.timer.get('apply') * 1e3:6.1f} ms, "
        f"merge {res.timer.get('movement') * 1e3:6.1f} ms) | "
        f"{res.n_effective} effective, {res.failed} failed | "
        f"size {len(tree)}"
    )

print("\npipeline done; final tree is consistent.")
