"""Prometheus text exposition over the telemetry registry snapshot.

The gateway's /metrics endpoint speaks the Prometheus text format
(version 0.0.4) so any off-the-shelf scraper — or ``repro top`` — can
consume the same counters/gauges/histograms the simulated plane exports
as JSON. The renderer works on the exact dict shape
:meth:`~repro.core.telemetry.MetricsRegistry.snapshot` produces: metric
keys are ``name{k=v,...}`` strings (sorted labels), histogram values are
``{"bounds", "counts", "count", "total"}`` with the implicit +Inf
overflow bucket in ``counts[-1]``.

A strict :func:`parse_prometheus` rides along so tests and CI can
round-trip the exposition instead of eyeballing it: every sample line
must parse back to (name, labels, value) or the whole scrape is
rejected.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Optional

__all__ = [
    "CONTENT_TYPE",
    "split_metric_key",
    "render_prometheus",
    "parse_prometheus",
]

#: The content type a conforming text-format scrape is served under.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_BAD_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(?:\{(.*)\})?"                         # optional label block
    r"[ \t]+"
    r"([+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE = {"n": "\n", "\\": "\\", '"': '"'}


def split_metric_key(key: str) -> tuple[str, dict]:
    """Split a registry key ``name{k=v,...}`` into (name, labels).

    Inverse of the registry's ``_metric_key``: labels are ``,``-joined
    ``k=v`` pairs (values never contain commas or braces by
    construction — routes and site names don't).
    """
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name = key[:brace]
    labels: dict[str, str] = {}
    inner = key[brace + 1:key.rfind("}")]
    for pair in inner.split(","):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels


def _sanitize(name: str) -> str:
    """Coerce a registry name (dots, dashes) to a legal Prometheus one."""
    out = _BAD_CHARS.sub("_", name)
    if not out or not _NAME_OK.match(out):
        out = "_" + out
    return out


def _sanitize_label(name: str) -> str:
    out = _BAD_LABEL_CHARS.sub("_", name)
    if not out or not _LABEL_OK.match(out):
        out = "_" + out
    return out


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace("\n", "\\n")
                 .replace('"', '\\"'))


def _fmt(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - registries never do
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    f = float(value)
    if math.isinf(f):
        return "+Inf" if f > 0 else "-Inf"
    if math.isnan(f):
        return "NaN"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _label_block(labels: dict, extra: Optional[list[tuple[str, str]]] = None
                 ) -> str:
    pairs = [(_sanitize_label(k), _escape(str(v)))
             for k, v in sorted(labels.items())]
    if extra:
        pairs.extend((k, _escape(v)) for k, v in extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _families(section: dict) -> dict:
    """Group ``name{labels} -> value`` entries into exposition families."""
    fams: dict[str, list[tuple[dict, object]]] = {}
    for key in sorted(section):
        name, labels = split_metric_key(key)
        fams.setdefault(_sanitize(name), []).append((labels, section[key]))
    return fams


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    ``snapshot`` is the ``{"counters", "gauges", "histograms"}`` dict
    from :meth:`MetricsRegistry.snapshot`. Deterministic: families and
    label sets are emitted sorted, so identical snapshots render to
    identical bytes.
    """
    lines: list[str] = []
    for fam, rows in sorted(_families(snapshot.get("counters", {})).items()):
        lines.append(f"# TYPE {fam} counter")
        for labels, value in rows:
            lines.append(f"{fam}{_label_block(labels)} {_fmt(value)}")
    for fam, rows in sorted(_families(snapshot.get("gauges", {})).items()):
        lines.append(f"# TYPE {fam} gauge")
        for labels, value in rows:
            lines.append(f"{fam}{_label_block(labels)} {_fmt(value)}")
    for fam, rows in sorted(_families(
            snapshot.get("histograms", {})).items()):
        lines.append(f"# TYPE {fam} histogram")
        for labels, hist in rows:
            bounds = hist.get("bounds", [])
            counts = hist.get("counts", [])
            cumulative = 0
            for i, bound in enumerate(bounds):
                cumulative += counts[i] if i < len(counts) else 0
                lines.append(
                    f"{fam}_bucket"
                    f"{_label_block(labels, [('le', _fmt(float(bound)))])}"
                    f" {cumulative}")
            total_count = hist.get("count", 0)
            lines.append(
                f"{fam}_bucket{_label_block(labels, [('le', '+Inf')])}"
                f" {total_count}")
            lines.append(
                f"{fam}_sum{_label_block(labels)}"
                f" {_fmt(float(hist.get('total', 0.0)))}")
            lines.append(
                f"{fam}_count{_label_block(labels)} {total_count}")
    return "\n".join(lines) + "\n" if lines else ""


def _parse_labels(block: str) -> dict:
    labels: dict[str, str] = {}
    pos = 0
    block = block.strip()
    while pos < len(block):
        match = _LABEL_RE.match(block, pos)
        if match is None:
            raise ValueError(f"malformed label block at {block[pos:]!r}")
        # One left-to-right pass: replacing one escape at a time would
        # read the ``\\`` + ``n`` of an escaped ``\n`` as a newline.
        labels[match.group(1)] = _ESCAPE_RE.sub(
            lambda esc: _UNESCAPE.get(esc.group(1), esc.group(0)),
            match.group(2))
        pos = match.end()
        if pos < len(block):
            if block[pos] != ",":
                raise ValueError(f"expected ',' in label block at "
                                 f"{block[pos:]!r}")
            pos += 1
    return labels


def parse_prometheus(text: str) -> list[dict]:
    """Parse text exposition into ``{"name", "labels", "value"}`` samples.

    Strict on purpose: any line that is neither a comment, blank, nor a
    well-formed sample raises ``ValueError``. ``repro top`` reads scrapes
    with it, and the tests use it to assert the gateway's /metrics
    actually speaks the format it claims to.
    """
    samples: list[dict] = []
    # Lines end at "\n" only: str.splitlines would also cut at a "\r",
    # "\x1c" or "\u2028" inside a label value, which are not escaped.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        name, label_block, raw = match.groups()
        labels = _parse_labels(label_block) if label_block else {}
        if raw in ("+Inf", "Inf"):
            value: float = math.inf
        elif raw == "-Inf":
            value = -math.inf
        elif raw == "NaN":
            value = math.nan
        else:
            value = float(raw)
        samples.append({"name": name, "labels": labels, "value": value})
    return samples


def sample_value(samples: Iterable[dict], name: str,
                 **labels: str) -> Optional[float]:
    """The value of the first sample matching name + label subset."""
    for sample in samples:
        if sample["name"] != name:
            continue
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["value"]
    return None
