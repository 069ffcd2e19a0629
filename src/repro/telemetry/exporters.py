"""Snapshot exporters: JSON-lines and Prometheus-style text.

The JSONL format is the durable artifact: one self-describing record per
line (``{"kind": "counter", ...}``), round-trippable —
``parse_jsonl(export_jsonl(s)) == s`` exactly — and trivially streamable
into log pipelines. The Prometheus text format is the scrape-friendly
view for dashboards; it is one-way (histograms flatten into cumulative
``_bucket`` series).

:func:`validate_snapshot` is the schema check the CI smoke job runs
against exported files: structural (required keys, types) plus internal
consistency (bucket counts sum to the observation count, min <= max).
It deliberately uses no external schema library.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from .context import SCHEMA

__all__ = [
    "export_jsonl",
    "parse_jsonl",
    "prometheus_text",
    "validate_snapshot",
    "write_jsonl",
]


#: Record kinds after ``meta``, in export order: the snapshot section each
#: fills and the fields it must carry (key, then payload; spans are a list,
#: not keyed).
_RECORD_KINDS = {
    "counter": ("counters", ("name", "value")),
    "gauge": ("gauges", ("name", "value")),
    "histogram": ("histograms", ("name", "data")),
    "cache": ("caches", ("name", "data")),
    "span": ("spans", ("data",)),
    "span_total": ("span_totals", ("name", "data")),
}


def export_jsonl(snapshot: Dict[str, object]) -> str:
    """Serialize one snapshot to JSON-lines text (ends with a newline)."""
    lines = [json.dumps({"kind": "meta", "schema": snapshot.get("schema", SCHEMA)})]
    for kind, (section, fields) in _RECORD_KINDS.items():
        if kind == "span":
            for span in snapshot.get(section, []):
                lines.append(json.dumps({"kind": kind, "data": span}))
            continue
        for name, payload in snapshot.get(section, {}).items():
            lines.append(json.dumps({"kind": kind, "name": name, fields[1]: payload}))
    return "\n".join(lines) + "\n"


def write_jsonl(snapshot: Dict[str, object], path: str) -> int:
    """Write the JSONL export to ``path``; returns bytes written."""
    text = export_jsonl(snapshot)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return len(text.encode("utf-8"))


def parse_jsonl(text: str) -> Dict[str, object]:
    """Rebuild a snapshot dict from its JSONL export (exact round-trip).

    A line that is not a well-formed record (invalid JSON, JSON that is not
    an object, an unknown ``kind``, a missing field, a non-string ``name``)
    raises ``ValueError("line N: ...")``.
    """
    snapshot: Dict[str, object] = {"schema": SCHEMA}
    for kind, (section, _) in _RECORD_KINDS.items():
        snapshot[section] = [] if kind == "span" else {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {line_number}: invalid JSON: {error}") from None
        if not isinstance(record, dict):
            raise ValueError(
                f"line {line_number}: expected a JSON object, "
                f"got {type(record).__name__}"
            )
        kind = record.get("kind")
        if kind == "meta":
            snapshot["schema"] = record.get("schema", SCHEMA)
            continue
        if not isinstance(kind, str) or kind not in _RECORD_KINDS:
            raise ValueError(f"line {line_number}: unknown record kind {kind!r}")
        section, fields = _RECORD_KINDS[kind]
        missing = [field for field in fields if field not in record]
        if missing:
            raise ValueError(
                f"line {line_number}: {kind} record lacks {', '.join(missing)}"
            )
        if kind == "span":
            snapshot["spans"].append(record["data"])
        elif not isinstance(record["name"], str):
            raise ValueError(f"line {line_number}: {kind} name must be a string")
        else:
            snapshot[section][record["name"]] = record[fields[1]]
    return snapshot


# ---- Prometheus-style text ---------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    return prefix + _NAME_RE.sub("_", name)


def _split_key(key: str):
    """('name', 'labels-inner-or-empty') of one flat snapshot key."""
    match = _KEY_RE.match(key)
    if match is None:  # pragma: no cover - keys are generated, not typed
        return key, ""
    return match.group("name"), match.group("labels") or ""


def _merge_labels(inner: str, extra: str) -> str:
    parts = [p for p in (inner, extra) if p]
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(snapshot: Dict[str, object]) -> str:
    """Prometheus exposition-format view of a snapshot (one-way)."""
    lines: List[str] = []

    for key, value in snapshot.get("counters", {}).items():
        name, labels = _split_key(key)
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{_merge_labels(labels, '')} {value}")

    for key, value in snapshot.get("gauges", {}).items():
        name, labels = _split_key(key)
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}{_merge_labels(labels, '')} {value}")

    for key, data in snapshot.get("histograms", {}).items():
        name, labels = _split_key(key)
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for le, count in zip(data["bucket_le"], data["bucket_counts"]):
            cumulative += count
            le_label = 'le="%s"' % le
            lines.append(
                f"{prom}_bucket{_merge_labels(labels, le_label)} {cumulative}"
            )
        cumulative += data.get("overflow", 0)
        inf_label = 'le="+Inf"'
        lines.append(
            f"{prom}_bucket{_merge_labels(labels, inf_label)} {cumulative}"
        )
        lines.append(f"{prom}_sum{_merge_labels(labels, '')} {data['sum']}")
        lines.append(f"{prom}_count{_merge_labels(labels, '')} {data['count']}")

    for family, data in snapshot.get("caches", {}).items():
        for field in ("hits", "misses", "evictions"):
            prom = _prom_name(f"cache.{field}")
            lines.append(f'{prom}{{cache="{family}"}} {data[field]}')
        prom = _prom_name("cache.size")
        lines.append(f'{prom}{{cache="{family}"}} {data["size"]}')

    for name, data in snapshot.get("span_totals", {}).items():
        prom = _prom_name(f"span.{name}.total_seconds")
        lines.append(f"{prom} {data['total_s']}")
        prom = _prom_name(f"span.{name}.count")
        lines.append(f"{prom} {data['count']}")

    return "\n".join(lines) + "\n"


# ---- schema validation ---------------------------------------------------


def _check_histogram(name: str, data: object, problems: List[str]) -> None:
    if not isinstance(data, dict):
        problems.append(f"histogram {name!r}: not an object")
        return
    for field in ("count", "sum", "bucket_le", "bucket_counts", "overflow"):
        if field not in data:
            problems.append(f"histogram {name!r}: missing field {field!r}")
            return
    if len(data["bucket_le"]) != len(data["bucket_counts"]):
        problems.append(f"histogram {name!r}: bucket bound/count length mismatch")
        return
    bounds = data["bucket_le"]
    if list(bounds) != sorted(bounds):
        problems.append(f"histogram {name!r}: bucket bounds not ascending")
    total = sum(data["bucket_counts"]) + data["overflow"]
    if total != data["count"]:
        problems.append(
            f"histogram {name!r}: bucket counts sum to {total}, count is "
            f"{data['count']}"
        )
    low, high = data.get("min"), data.get("max")
    if low is not None and high is not None and low > high:
        problems.append(f"histogram {name!r}: min {low} > max {high}")
    if data["count"] > 0 and data.get("p50") is None:
        problems.append(f"histogram {name!r}: non-empty but p50 is null")


def _check_span(span: object, problems: List[str], path: str = "span") -> None:
    if not isinstance(span, dict):
        problems.append(f"{path}: not an object")
        return
    for field in ("name", "start_s", "end_s", "attrs", "children"):
        if field not in span:
            problems.append(f"{path}: missing field {field!r}")
            return
    if span["end_s"] is not None and span["end_s"] < span["start_s"]:
        problems.append(f"{path} {span['name']!r}: ends before it starts")
    for i, child in enumerate(span["children"]):
        _check_span(child, problems, path=f"{path}.{span['name']}[{i}]")


def validate_snapshot(snapshot: object) -> List[str]:
    """Structural + consistency check; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot is not an object"]
    if snapshot.get("schema") != SCHEMA:
        problems.append(
            f"schema is {snapshot.get('schema')!r}, expected {SCHEMA!r}"
        )
    for section in ("counters", "gauges", "histograms", "caches", "span_totals"):
        if not isinstance(snapshot.get(section), dict):
            problems.append(f"section {section!r} missing or not an object")
    if not isinstance(snapshot.get("spans"), list):
        problems.append("section 'spans' missing or not a list")
    if problems:
        return problems
    for name, value in snapshot["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"counter {name!r}: not a non-negative number")
    for name, value in snapshot["gauges"].items():
        if not isinstance(value, (int, float)):
            problems.append(f"gauge {name!r}: not a number")
    for name, data in snapshot["histograms"].items():
        _check_histogram(name, data, problems)
    for name, data in snapshot["caches"].items():
        if not isinstance(data, dict):
            problems.append(f"cache {name!r}: not an object")
            continue
        for field in ("hits", "misses", "evictions", "size"):
            if not isinstance(data.get(field), int) or data[field] < 0:
                problems.append(
                    f"cache {name!r}: field {field!r} not a non-negative int"
                )
    for i, span in enumerate(snapshot["spans"]):
        _check_span(span, problems, path=f"spans[{i}]")
    for name, data in snapshot["span_totals"].items():
        if not isinstance(data, dict) or "count" not in data or "total_s" not in data:
            problems.append(f"span_total {name!r}: missing count/total_s")
    return problems
