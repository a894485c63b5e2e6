"""Shared plumbing for the experiment harness."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.workloads.datasets import Scale, get_scale


@dataclass
class ExperimentResult:
    """A figure reproduction: rows of measurements plus provenance."""

    experiment: str  #: e.g. "fig11"
    title: str
    scale: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Paper-reported reference points, for side-by-side printing.
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def note(self, text: str) -> None:
        self.notes.append(text)

    # ------------------------------------------------------------ rendering

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_table(self) -> str:
        """GitHub-style markdown table of the rows."""
        cols = self.columns()
        if not cols:
            return "(no rows)"
        widths = {
            c: max(len(c), *(len(str(r.get(c, ""))) for r in self.rows))
            for c in cols
        }
        header = "| " + " | ".join(c.ljust(widths[c]) for c in cols) + " |"
        sep = "|-" + "-|-".join("-" * widths[c] for c in cols) + "-|"
        lines = [header, sep]
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(str(row.get(c, "")).ljust(widths[c]) for c in cols)
                + " |"
            )
        return "\n".join(lines)

    def render(self) -> str:
        parts = [f"## {self.experiment}: {self.title}", f"(scale: {self.scale})", ""]
        parts.append(self.to_table())
        if self.paper_reference:
            parts.append("")
            parts.append("Paper reference: " + ", ".join(
                f"{k}={v}" for k, v in self.paper_reference.items()
            ))
        for note in self.notes:
            parts.append(f"- {note}")
        return "\n".join(parts)

    def print(self) -> None:  # pragma: no cover — console convenience
        print(self.render())


@contextmanager
def gc_paused():
    """Time a block the way ``timeit`` does: collect first, then keep the
    cyclic collector off, so a pass over a large caller heap (a long test
    session) cannot land in whichever timed row it happens to hit."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def resolve_scale(scale) -> Scale:
    """Accept a Scale or a scale name."""
    if isinstance(scale, Scale):
        return scale
    return get_scale(scale)


def geomean(values: Sequence[float]) -> float:
    import math

    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def build_eval_point(n_keys: int, n_queries: int, seed: int, fanout: int = 64,
                     fill: float = 0.7):
    """The standard evaluation setup (§5.1 at configurable scale): a
    ``fanout``-64 tree of ``n_keys`` uniform keys and a uniform query batch.

    ``fill=0.7`` approximates insertion-built occupancy (ln 2 ≈ 0.69).
    Returns ``(HarmoniaTree, keys, queries)``.
    """
    import numpy as np

    from repro.core import HarmoniaTree
    from repro.workloads.generators import make_key_set, uniform_queries

    rng = np.random.default_rng(seed)
    keys = make_key_set(n_keys, rng=rng)
    tree = HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)
    queries = uniform_queries(keys, n_queries, rng=rng)
    return tree, keys, queries


__all__ = ["ExperimentResult", "resolve_scale", "geomean", "build_eval_point"]
