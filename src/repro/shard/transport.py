"""Pipe transport for numpy arrays between the router and one worker.

Each router↔worker link is one duplex
:class:`~multiprocessing.connection.Connection` (a Unix socket pair).
Control tuples — command names, element counts, dtype codes, accounting
integers — go through ``Connection.send`` / ``recv``.  Key and value
arrays never cross the process boundary through pickle: an array is a
small ``("arr", n, dtype_code)`` header tuple followed by the array's
raw bytes, written with an ``os.write`` loop on the connection's file
descriptor and read straight into the freshly allocated output with an
``os.readv`` loop.

Mixing raw bytes with framed messages on one descriptor works because
CPython's Unix ``Connection`` reads exactly the sizes its frames
announce and never reads ahead: after ``recv`` returns the header, the
array's bytes are the next bytes on the descriptor.  The protocol is
request/reply (one request in flight per worker — the router holds a
per-worker lock across the exchange), so each side always knows whether
a tuple or an array comes next.  A peer that closes mid-array makes
``recv_array`` raise :class:`EOFError`, as a closed pipe does for
``recv``.

**Trace piggyback.**  Distributed tracing (docs/observability.md) rides
the same pipe without a protocol fork: a traced command tuple carries a
:class:`~repro.obs.trace.TraceContext` wire dict as its last element
(``("search", {"trace_id": ..., "shard": s})``), and the worker appends
one ``("trace", payload)`` tuple after its normal reply, where
``payload`` is its registry's
:meth:`~repro.obs.registry.MetricsRegistry.export_remote` dict.  The
request/reply discipline makes this safe: the router sent the context,
so it — and only it — knows to read the one extra tuple.  Untraced
commands (including restart op-log replay) stay wire-identical to the
pre-tracing protocol.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing.connection import Connection
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError

_DTYPES = (np.dtype(np.int64), np.dtype(np.int8), np.dtype(np.float64))
_DTYPE_CODE = {dt: i for i, dt in enumerate(_DTYPES)}


class ShardChannel:
    """One side of a router↔worker link: a duplex pipe.

    Constructed in the router (:meth:`pair`); the worker side travels to
    the worker process with its arguments.  ``send`` / ``recv`` pass
    small control tuples; ``send_array`` / ``recv_array`` move numpy
    arrays as a header tuple plus raw bytes.
    """

    def __init__(self, conn: Connection) -> None:
        self.conn = conn

    @classmethod
    def pair(cls) -> Tuple["ShardChannel", "ShardChannel"]:
        """A connected (router_side, worker_side) channel pair."""
        a, b = mp.Pipe(duplex=True)
        return cls(a), cls(b)

    # ------------------------------------------------------------- control

    def send(self, *msg) -> None:
        self.conn.send(msg)

    def recv(self, timeout: Optional[float] = None):
        """Receive one control tuple; ``None`` on timeout (when given)."""
        if timeout is not None and not self.conn.poll(timeout):
            return None
        return self.conn.recv()

    # -------------------------------------------------------------- arrays

    def send_array(self, arr: np.ndarray) -> None:
        """Send ``arr`` as a header tuple followed by its raw bytes."""
        arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODE.get(arr.dtype)
        if code is None:
            raise ConfigError(f"unsupported transport dtype {arr.dtype}")
        self.send("arr", int(arr.size), code)
        fd = self.conn.fileno()
        view = memoryview(arr).cast("B")
        while view:
            view = view[os.write(fd, view):]

    def recv_array(self) -> np.ndarray:
        """Receive one array announced by a peer :meth:`send_array`."""
        header = self.conn.recv()
        if not (isinstance(header, tuple) and header and header[0] == "arr"):
            raise ConfigError(f"bad transport header {header!r}")
        _, total, code = header
        out = np.empty(total, dtype=_DTYPES[code])
        fd = self.conn.fileno()
        view = memoryview(out).cast("B")
        while view:
            n = os.readv(fd, [view])
            if n == 0:
                raise EOFError("peer closed mid-array")
            view = view[n:]
        return out

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover — already torn down
            pass


__all__ = ["ShardChannel"]
