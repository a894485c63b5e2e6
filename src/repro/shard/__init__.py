"""Sharded multi-process service tier for the Harmonia tree.

Key-space partitioning (:class:`Partitioner`), per-shard worker
processes behind a pipe transport that moves numpy arrays as raw bytes
(:class:`ShardChannel`, :func:`worker_main`), and the
scatter/dispatch/gather front-end that runs every request on the
caller's thread (:class:`ShardedTree`).  See ``docs/sharding.md``.
"""

from repro.shard.partition import Partitioner
from repro.shard.router import ShardedTree
from repro.shard.transport import ShardChannel
from repro.shard.worker import worker_main

__all__ = [
    "Partitioner",
    "ShardedTree",
    "ShardChannel",
    "worker_main",
]
