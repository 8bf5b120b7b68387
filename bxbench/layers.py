"""Per-layer metrics of a traced phase, from spans and public counters.

Times are medians of span durations (or self times) in milliseconds
over the measured rounds; ratios are deltas of the layers' public
counters over the same rounds.  A layer the workload does not run
reports 0.
"""

from __future__ import annotations

import statistics

from bxbench.tracing import Span, Tracer
from bxbench.workloads import OP_KINDS, Phase

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("client.get_self_ms", "ms"),
    ("client.query_self_ms", "ms"),
    ("client.batch_self_ms", "ms"),
    ("client.write_self_ms", "ms"),
    ("client.validation_hit_ratio", "ratio"),
    ("client.line_memo_hit_ratio", "ratio"),
    ("server.not_modified_ratio", "ratio"),
    ("server.gzip_sent_per_raw_byte", "B/B"),
    ("server.stream_lines", "lines/batch"),
    ("render_cache.wiki_page_ms", "ms"),
    ("render_cache.hit_ratio", "ratio"),
    ("service.get_ms", "ms"),
    ("service.lru_hit_ratio", "ratio"),
    ("service.execute_query_ms", "ms"),
    ("service.get_many_ms", "ms"),
    ("service.write_ms", "ms"),
    ("aservice.write_queue_wait_ms", "ms"),
    ("aservice.writes_per_group", "writes/group"),
    ("aservice.read_wait_ms", "ms"),
    ("query.matches_per_hit", "ratio"),
    ("backends.sqlite.get_ms", "ms"),
    ("backends.sqlite.get_many_ms", "ms"),
    ("backends.sqlite.execute_query_ms", "ms"),
    ("backends.sqlite.add_many_ms", "ms"),
    ("backends.sqlite.index_build_ms", "ms"),
    ("backends.sqlite.write_ms", "ms"),
    ("codec.decode_memo_hit_ratio", "ratio"),
    ("codec.decodes", "count/op"),
    ("backends.replicated.mirror_ms", "ms"),
    ("backends.replicated.lag_peak", "count"),
    ("backends.replicated.backpressure_syncs", "count"),
    ("backends.file.write_ms", "ms"),
    ("backends.file.add_many_ms", "ms"),
    ("wiki_sync.put_ms", "ms"),
) + tuple(
    (f"trace.overhead.{name}", unit) for name, unit in (
        ("read_p50_ms", "ms"), ("wiki_p50_ms", "ms"), ("query_p50_ms", "ms"),
        ("batch_p50_ms", "ms"), ("write_p50_ms", "ms"), ("ops_s", "1/s"))
) + tuple((f"trace.unattributed.{kind}_ms", "ms") for kind in OP_KINDS)

_WRITE_METHODS = ("add", "add_version", "replace_latest")


def _median_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1000.0 if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(phase: Phase, tracer: Tracer, before: dict, after: dict,
                  window: tuple[float, float],
                  untraced: dict[str, float]) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for one traced phase."""
    tracer.link()
    lo, hi = window
    by_name: dict[str, list[Span]] = {}
    setup: dict[str, list[Span]] = {}
    for span in tracer.spans:
        if lo <= span.start and span.end <= hi:
            by_name.setdefault(span.name, []).append(span)
        elif span.end <= lo:
            setup.setdefault(span.name, []).append(span)

    def spans(layer: str, *methods: str) -> list[Span]:
        return [span for method in methods
                for span in by_name.get(f"{layer}.{method}", ())]

    def durations(layer: str, *methods: str) -> float:
        return _median_ms(span.duration for span in spans(layer, *methods))

    def self_times(layer: str, *methods: str) -> float:
        return _median_ms(span.self_time() for span in spans(layer, *methods))

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def hit_ratio(prefix: str) -> float:
        hits = delta(f"{prefix}.hits")
        return _ratio(hits, hits + delta(f"{prefix}.misses"))

    def waits(method_names: tuple[str, ...]) -> float:
        """Start of the service call minus start of the async call."""
        found = []
        for span in spans("aservice", *method_names):
            inner = [child for child in span.children
                     if child.layer == "service"]
            if inner:
                found.append(min(child.start for child in inner) - span.start)
        return _median_ms(found)

    def mirror(span: Span) -> float:
        primary = [child for child in span.children
                   if child.layer == "backends.sqlite"]
        return span.duration - sum(child.duration for child in primary)

    ops = sum(len(values) for values in phase.recorder.samples.values())
    first_query = min(
        (span for span in tracer.spans
         if span.name == "backends.sqlite.execute_query"),
        key=lambda span: span.start, default=None)
    traced = phase.end_to_end()
    metrics = {
        "client.get_self_ms": self_times("client", "get"),
        "client.query_self_ms": self_times("client", "execute_query"),
        "client.batch_self_ms": self_times("client", "get_many"),
        "client.write_self_ms": self_times("client", *_WRITE_METHODS),
        "client.validation_hit_ratio": hit_ratio("client.validation"),
        "client.line_memo_hit_ratio": hit_ratio("client.line_memo"),
        "server.not_modified_ratio": _ratio(
            delta("server.not_modified"), delta("server.conditional")),
        "server.gzip_sent_per_raw_byte": _ratio(
            delta("server.gzip_sent"), delta("server.gzip_raw")),
        "server.stream_lines": _ratio(
            delta("server.stream_lines"), delta("server.stream_responses")),
        "render_cache.wiki_page_ms": durations("render_cache", "wiki_page"),
        "render_cache.hit_ratio": hit_ratio("render_cache"),
        "service.get_ms": durations("service", "get"),
        "service.lru_hit_ratio": hit_ratio("service.lru"),
        "service.execute_query_ms": durations("service", "execute_query"),
        "service.get_many_ms": durations("service", "get_many"),
        "service.write_ms": durations("service", *_WRITE_METHODS),
        "aservice.write_queue_wait_ms": waits(_WRITE_METHODS),
        "aservice.writes_per_group": _ratio(
            delta("aservice.grouped_writes"), delta("aservice.groups")),
        "aservice.read_wait_ms": waits(("get",)),
        "query.matches_per_hit": _ratio(*phase.query_totals),
        "backends.sqlite.get_ms": durations("backends.sqlite", "get"),
        "backends.sqlite.get_many_ms": durations("backends.sqlite",
                                                 "get_many"),
        "backends.sqlite.execute_query_ms": durations("backends.sqlite",
                                                      "execute_query"),
        "backends.sqlite.add_many_ms": 1000.0 * sum(
            span.duration
            for span in setup.get("backends.sqlite.add_many", ())),
        "backends.sqlite.index_build_ms": (
            first_query.duration * 1000.0 if first_query else 0.0),
        "backends.sqlite.write_ms": durations("backends.sqlite",
                                              *_WRITE_METHODS),
        "codec.decode_memo_hit_ratio": hit_ratio("codec.memo"),
        "codec.decodes": _ratio(delta("codec.memo.misses"), ops),
        "backends.replicated.mirror_ms": _median_ms(
            mirror(span)
            for span in spans("backends.replicated", *_WRITE_METHODS)),
        "backends.replicated.lag_peak": float(phase.lag_peak),
        "backends.replicated.backpressure_syncs": delta(
            "replicated.backpressure_syncs"),
        "backends.file.write_ms": durations("backends.file", *_WRITE_METHODS),
        "backends.file.add_many_ms": 1000.0 * sum(
            span.duration
            for span in setup.get("backends.file.add_many", ())),
        "wiki_sync.put_ms": durations("wiki_sync", "put"),
    }
    for name in ("read_p50_ms", "wiki_p50_ms", "query_p50_ms",
                 "batch_p50_ms", "write_p50_ms", "ops_s"):
        metrics[f"trace.overhead.{name}"] = traced[name] - untraced[name]
    op_spans: dict[str, list[Span]] = {kind: [] for kind in OP_KINDS}
    for span in tracer.spans:
        if span.layer == "op":
            op_spans[span.name[len("op."):]].append(span)
    for kind in OP_KINDS:
        metrics[f"trace.unattributed.{kind}_ms"] = _median_ms(
            span.self_time() for span in op_spans[kind])
    return metrics
