"""``repro top`` — a live terminal dashboard over the gateway.

Scrapes the gateway's Prometheus exposition (/metrics), queue counts,
and the /events feed, and renders the numbers a human steering an
SC98-style run actually watches: submissions/s, queue depth, per-site
delivered-vs-available utilisation, p50/p99 route latency, and the most
recent job-lifecycle events. Stdlib only; rendering is a pure function
of one sampled frame so tests never need a terminal (or a gateway).
"""

from __future__ import annotations

import math
import sys
import time
from typing import Optional

from .prom import parse_prometheus

__all__ = ["build_frame", "render_top", "run_top"]

_CLEAR = "\x1b[H\x1b[2J"
SUBMIT_ROUTE = "POST /jobs"
#: Site gauges shown per site, by exposition name.
_SITE_FIELDS = {"site_utilisation": "utilisation",
                "site_delivered_ops": "delivered",
                "site_available_ops": "available"}


def quantile_from_buckets(buckets: list[tuple[float, float]],
                          q: float) -> float:
    """The bucket upper bound at quantile ``q`` over cumulative
    ``(le, count)`` buckets, the last one ``+Inf`` (which clamps to the
    top finite bound)."""
    buckets = sorted(buckets)
    finite = [le for le, _ in buckets if not math.isinf(le)]
    top = finite[-1] if finite else 0.0
    total = buckets[-1][1] if buckets else 0
    if total <= 0:
        return 0.0
    for le, seen in buckets:
        if seen >= q * total:
            return min(le, top)
    return top


def build_frame(samples: list[dict], queue: Optional[dict] = None,
                events: Optional[list] = None,
                prev: Optional[dict] = None,
                now: Optional[float] = None) -> dict:
    """Distil one dashboard frame from a /metrics scrape, given as
    :func:`~repro.obs.prom.parse_prometheus` samples.

    ``prev`` is the previous frame (for rate deltas); rates are 0.0 on
    the first sample.
    """
    now = time.monotonic() if now is None else now
    submitted = requests = 0
    queue_depth = None
    sites: dict[str, dict] = {}
    buckets: dict[str, list[tuple[float, float]]] = {}
    counts: dict[str, int] = {}
    for sample in samples:
        name, labels, value = sample["name"], sample["labels"], sample["value"]
        if name == "http_requests":
            requests += int(value)
            if labels.get("route") == SUBMIT_ROUTE:
                submitted += int(value)
        elif name == "sch_queue_depth" and queue_depth is None:
            queue_depth = value
        elif name in _SITE_FIELDS and "site" in labels:
            sites.setdefault(labels["site"], {})[_SITE_FIELDS[name]] = value
        elif name == "http_latency_ms_bucket":
            buckets.setdefault(labels.get("route", "?"), []).append(
                (float(labels["le"]), value))
        elif name == "http_latency_ms_count":
            counts[labels.get("route", "?")] = int(value)
    routes = {route: {"count": counts.get(route, 0),
                      "p50_ms": quantile_from_buckets(rows, 0.50),
                      "p99_ms": quantile_from_buckets(rows, 0.99)}
              for route, rows in buckets.items()}
    frame = {
        "now": now,
        "submitted_total": submitted,
        "requests_total": requests,
        "submissions_per_s": 0.0,
        "requests_per_s": 0.0,
        "queue_depth": queue_depth,
        "queue": dict(queue or {}),
        "sites": sites,
        "routes": routes,
        "events": list(events or [])[-8:],
    }
    if prev is not None:
        dt = now - prev.get("now", now)
        if dt > 0:
            frame["submissions_per_s"] = (
                (submitted - prev.get("submitted_total", 0)) / dt)
            frame["requests_per_s"] = (
                (requests - prev.get("requests_total", 0)) / dt)
    return frame


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_top(frame: dict, width: int = 78) -> str:
    """Render one frame as plain text (no ANSI — the loop adds that)."""
    lines = ["repro top — gateway live view", "=" * width]
    depth = frame.get("queue_depth")
    queue = frame.get("queue") or {}
    depth = queue.get("depth", depth)
    lines.append(
        f"submissions/s {frame['submissions_per_s']:8.1f}   "
        f"requests/s {frame['requests_per_s']:8.1f}   "
        f"queue depth {('?' if depth is None else int(depth)):>6}")
    counts = {k: v for k, v in queue.items() if k != "depth"}
    if counts:
        lines.append("jobs: " + "  ".join(
            f"{k}={counts[k]}" for k in sorted(counts)))
    sites = frame.get("sites") or {}
    if sites:
        lines.append("-" * width)
        lines.append(f"{'site':<12} {'busy':<22} {'util':>6} "
                     f"{'delivered':>12} {'available':>12}")
        for site in sorted(sites):
            row = sites[site]
            util = float(row.get("utilisation", 0.0))
            lines.append(
                f"{site:<12} [{_bar(util)}] {util * 100:5.1f}% "
                f"{row.get('delivered', 0):>12,.0f} "
                f"{row.get('available', 0):>12,.0f}")
    routes = frame.get("routes") or {}
    if routes:
        lines.append("-" * width)
        lines.append(f"{'route':<24} {'count':>8} {'p50 ms':>8} "
                     f"{'p99 ms':>8}")
        for route in sorted(routes):
            row = routes[route]
            lines.append(f"{route:<24} {row['count']:>8} "
                         f"{row['p50_ms']:>8.1f} {row['p99_ms']:>8.1f}")
    events = frame.get("events") or []
    if events:
        lines.append("-" * width)
        for event in events:
            t = event.get("t", 0.0)
            lines.append(f"  t={t:9.2f}  {event.get('event', '?'):<10} "
                         f"{event.get('job', '')}")
    return "\n".join(lines)


def run_top(contact: str, interval: float = 1.0,
            duration: Optional[float] = None, once: bool = False,
            out=None) -> int:
    """Poll the gateway and repaint until interrupted (or --once)."""
    from ..control.client import GatewayClient, HttpError

    out = sys.stdout if out is None else out
    prev: Optional[dict] = None
    since = -1
    t0 = time.monotonic()
    try:
        with GatewayClient(contact, timeout=max(2.0, interval + 1.0)) \
                as client:
            while True:
                try:
                    samples = parse_prometheus(client.metrics_text())
                    queue = client.queue()
                    events = client.events(since=since)
                except (HttpError, ValueError) as exc:
                    print(f"gateway {contact} unreachable: {exc}",
                          file=out)
                    return 1
                if events:
                    since = max(e.get("seq", since) for e in events)
                frame = build_frame(samples, queue=queue, events=events,
                                    prev=prev)
                text = render_top(frame)
                if once:
                    print(text, file=out)
                    return 0
                print(_CLEAR + text, file=out, flush=True)
                prev = frame
                if (duration is not None
                        and time.monotonic() - t0 >= duration):
                    return 0
                time.sleep(interval)
    except KeyboardInterrupt:
        return 0
