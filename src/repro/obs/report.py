"""Human-readable rendering of snapshots: ``repro obs report`` / ``diff``.

Plain fixed-width text (no terminal deps).  The report leads with the
paper-facing derived quantities — transactions per warp (Fig 2),
unique nodes per level (Figs 5-7 / 12), §4.1.3's sort/traverse ratio —
then lists every counter / gauge / histogram with its catalogued unit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.registry import bucket_quantile
from repro.obs.schema import SCHEMA_VERSION, lookup


def _unit(name: str) -> str:
    spec = lookup(name)
    return spec.unit if spec is not None else "?"


def _hist_quantile(hist: Dict[str, Any], q: float) -> Optional[float]:
    """``q``-quantile of a snapshot histogram dict (None when empty or
    malformed — rendering must not fail on a foreign snapshot)."""
    edges = hist.get("edges")
    counts = hist.get("counts")
    if not edges or not counts or len(counts) != len(edges) + 1:
        return None
    return bucket_quantile(edges, counts, q,
                           lo=hist.get("min"), hi=hist.get("max"))


def _percentile_cells(hist: Dict[str, Any]) -> str:
    cells = []
    for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        v = _hist_quantile(hist, q)
        cells.append(f"{label}={_fmt(v) if v is not None else '-'}")
    return " ".join(cells)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or 0 < abs(value) < 1e-3:
            return f"{value:.4g}"
        return f"{value:,.4f}".rstrip("0").rstrip(".")
    return str(value)


def _level_series(counters: Dict[str, Any], prefix: str) -> List[Tuple[int, int]]:
    """Collect a per-level counter family ``{prefix}l<N>`` sorted by level."""
    series = []
    for name, value in counters.items():
        if name.startswith(prefix):
            tail = name[len(prefix):]
            if tail.startswith("l") and tail[1:].isdigit():
                series.append((int(tail[1:]), value))
    return sorted(series)


def _bar(value: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1, round(width * value / peak)) if value > 0 else ""


def render_report(snapshot: Dict[str, Any]) -> str:
    """Render one snapshot as a text report."""
    lines: List[str] = []
    version = snapshot.get("schema_version")
    lines.append(f"== obs report (schema v{version}) ==")
    if version != SCHEMA_VERSION:
        lines.append(f"!! snapshot schema v{version} != supported "
                     f"v{SCHEMA_VERSION}; rendering best-effort")
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    spans = snapshot.get("spans", {})

    derived: List[str] = []
    degrees = _level_series(gauges, "ntg.level_degree.")
    if degrees:
        vec = "[" + ", ".join(str(int(v)) for _, v in degrees) + "]"
        derived.append(f"  NTG degrees (root->leaf, §4.2): {vec}")
        prof = gauges.get("ntg.profile_s")
        if prof is not None:
            derived.append(f"  NTG profiling time:             {_fmt(prof)} s")
    tpw = gauges.get("gpusim.transactions_per_warp")
    if tpw is not None:
        derived.append(f"  transactions/warp (Fig 2):      {_fmt(tpw)}")
    tpr = gauges.get("gpusim.transactions_per_request")
    if tpr is not None:
        derived.append(f"  transactions/request:           {_fmt(tpr)}  "
                       "(1.0 = fully coalesced)")
    coh = gauges.get("gpusim.warp_coherence")
    if coh is not None:
        derived.append(f"  warp coherence:                 {_fmt(coh)}")
    util = gauges.get("gpusim.utilization")
    if util is not None:
        derived.append(f"  lane utilization (Fig 9):       {_fmt(util)}")
    ups = gauges.get("update.throughput_ops")
    if ups is not None:
        derived.append(f"  batch-update throughput (§3.2.2): {_fmt(ups)} ops/s")
    flushes = counters.get("epoch.flushes")
    if flushes:
        drains = counters.get("epoch.drains", 0)
        derived.append(f"  epoch flush amortization:       {_fmt(flushes)} "
                       f"flushes folded by {_fmt(drains)} drains "
                       f"({flushes / max(drains, 1):.1f} flushes/rebuild)")
    req = histograms.get("shard.request_s")
    if req and req.get("count"):
        derived.append(
            f"  request latency (router):       n={_fmt(req['count'])}  "
            f"{_percentile_cells(req)} s"
        )
    njoins = counters.get("join.joins")
    if njoins:
        probes = counters.get("join.probes", 0)
        sel = gauges.get("join.selectivity")
        sel_txt = f"{sel:.1%}" if sel is not None else "n/a"
        derived.append(f"  dual-tree joins:                {_fmt(njoins)} "
                       f"joins over {_fmt(probes)} probes "
                       f"(last selectivity {sel_txt})")
    dsize = gauges.get("delta.size")
    if dsize is not None:
        druns = gauges.get("delta.runs", 0)
        age = gauges.get("epoch.snapshot_age", 0)
        derived.append(f"  delta residue:                  {_fmt(dsize)} "
                       f"entries from {_fmt(druns)} flushes; base snapshot "
                       f"{_fmt(age)} epochs behind")
    if derived:
        lines.append("")
        lines.append("-- derived (paper figures) --")
        lines.extend(derived)

    uniq = _level_series(counters, "engine.unique_nodes.")
    if uniq:
        lines.append("")
        lines.append("-- unique nodes per level (engine frontier, Figs 5-7) --")
        peak = max(v for _, v in uniq)
        for lvl, value in uniq:
            lines.append(f"  l{lvl:<3} {value:>12,}  {_bar(value, peak)}")
    keytx = _level_series(counters, "gpusim.key_transactions.")
    if keytx:
        lines.append("")
        lines.append("-- key transactions per level (gpusim, Fig 2) --")
        peak = max(v for _, v in keytx)
        for lvl, value in keytx:
            lines.append(f"  l{lvl:<3} {value:>12,}  {_bar(value, peak)}")

    if counters:
        lines.append("")
        lines.append("-- counters --")
        for name, value in counters.items():
            lines.append(f"  {name:<34} {_fmt(value):>16}  [{_unit(name)}]")
    if gauges:
        lines.append("")
        lines.append("-- gauges --")
        for name, value in gauges.items():
            lines.append(f"  {name:<34} {_fmt(value):>16}  [{_unit(name)}]")
    if histograms:
        lines.append("")
        lines.append("-- histograms --")
        for name, hist in histograms.items():
            lines.append(
                f"  {name} [{_unit(name)}]: n={_fmt(hist.get('count', 0))} "
                f"mean={_fmt(hist.get('mean', 0.0))} "
                f"{_percentile_cells(hist)} "
                f"min={_fmt(hist.get('min'))} max={_fmt(hist.get('max'))}"
            )
    if spans:
        lines.append("")
        lines.append("-- spans --")
        lines.append(f"  recorded={_fmt(spans.get('count', 0))} "
                     f"dropped={_fmt(spans.get('dropped', 0))}")
        for name, count in spans.get("names", {}).items():
            lines.append(f"  {name:<34} {_fmt(count):>16}")
        processes = spans.get("processes", {})
        if processes:
            lines.append("")
            lines.append("-- merged processes --")
            for pid, entry in processes.items():
                label = entry.get("label") or "?"
                lines.append(f"  pid {pid:<8} {label:<24} "
                             f"{_fmt(entry.get('spans', 0)):>10} spans")
    return "\n".join(lines) + "\n"


def _diff_number(a: Optional[float], b: Optional[float]) -> str:
    if a is None:
        return f"(added) {_fmt(b)}"
    if b is None:
        return f"{_fmt(a)} (removed)"
    delta = b - a
    sign = "+" if delta >= 0 else ""
    rel = f" ({sign}{delta / a:.1%})" if a else ""
    return f"{_fmt(a)} -> {_fmt(b)}  {sign}{_fmt(delta)}{rel}"


def render_diff(a: Dict[str, Any], b: Dict[str, Any],
                label_a: str = "A", label_b: str = "B") -> str:
    """Render counter/gauge/histogram deltas between two snapshots."""
    lines = [f"== obs diff: {label_a} -> {label_b} =="]
    va, vb = a.get("schema_version"), b.get("schema_version")
    if va != vb:
        lines.append(f"!! schema versions differ: {va} vs {vb}; "
                     "deltas may be meaningless")
    for key, title in (("counters", "counters"), ("gauges", "gauges")):
        fa: Dict[str, Any] = a.get(key, {})
        fb: Dict[str, Any] = b.get(key, {})
        names = sorted(set(fa) | set(fb))
        rows = []
        for name in names:
            xa, xb = fa.get(name), fb.get(name)
            if xa == xb:
                continue
            rows.append(f"  {name:<34} {_diff_number(xa, xb)}")
        if rows:
            lines.append("")
            lines.append(f"-- {title} --")
            lines.extend(rows)
    ha: Dict[str, Any] = a.get("histograms", {})
    hb: Dict[str, Any] = b.get("histograms", {})
    rows = []
    for name in sorted(set(ha) | set(hb)):
        xa, xb = ha.get(name), hb.get(name)
        ca = xa.get("count") if xa else None
        cb = xb.get("count") if xb else None
        ma = xa.get("mean") if xa else None
        mb = xb.get("mean") if xb else None
        if ca == cb and ma == mb:
            continue
        rows.append(f"  {name:<34} n: {_diff_number(ca, cb)}")
        if ma != mb:
            rows.append(f"  {'':<34} mean: {_diff_number(ma, mb)}")
        for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            pa = _hist_quantile(xa, q) if xa else None
            pb = _hist_quantile(xb, q) if xb else None
            if pa != pb:
                rows.append(f"  {'':<34} {label}: {_diff_number(pa, pb)}")
    if rows:
        lines.append("")
        lines.append("-- histograms --")
        lines.extend(rows)
    if len(lines) == 1 or (len(lines) == 2 and va != vb):
        lines.append("(no differences)")
    return "\n".join(lines) + "\n"


__all__ = ["render_report", "render_diff"]
