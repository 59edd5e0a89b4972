"""Traced-run mode: spans around calls into each harness layer.

The tracer wraps the layers' public functions from outside the package. A
module-level function is replaced under every name a ``hicot`` module binds
it to, so ``hicot.cli.scan_blocks`` and ``hicot.traces.extract_boxed`` are
traced along with their home modules. ``restore`` puts every original back.

Each span is (id, name, start_ns, end_ns, parent id, item key, thread id,
size). Spans of one grid item share its record key; a worker thread's item
span has the running ``cmd_*`` span as its parent. Self time is a span's
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

def _item_key(args) -> tuple:
    # cli._evaluate_one(config, client, model_id, strategy, problem)
    problem = args[4]
    return (problem.id, problem.benchmark, args[2], args[3].value)


# (module, attribute path, span name, options)
TARGETS = (
    ("hicot.prompts", "build_prompt", "prompts.build_prompt", {}),
    ("hicot.client", "ChatClient.complete", "client.complete", {}),
    ("hicot.client", "CompletionRequest.cache_key", "client.cache_key", {}),
    ("hicot.client", "ChatClient._read_cache", "client.read_cache", {}),
    ("hicot.client", "ChatClient._write_cache", "client.write_cache", {}),
    ("hicot.client", "ChatClient._complete_uncached", "client.http", {}),
    ("hicot.traces", "scan_blocks", "traces.scan_blocks", {"size": lambda a: len(a[0])}),
    ("hicot.traces", "validate_format", "traces.validate_format", {}),
    ("hicot.judge", "judge", "judge.judge", {}),
    ("hicot.judge", "extract_boxed", "judge.extract_boxed", {}),
    ("hicot.datasets", "load_dataset", "datasets.load_dataset", {}),
    ("hicot.datasets", "RecordWriter.append", "datasets.append", {"item": lambda a: a[1].key()}),
    ("hicot.datasets", "read_records", "datasets.read_records",
     {"size": lambda a: os.path.getsize(a[0])}),
    ("hicot.datasets", "load_resumable", "datasets.load_resumable", {}),
    ("hicot.metrics", "aggregate", "metrics.aggregate", {}),
    ("hicot.metrics", "macro_average", "metrics.macro_average", {}),
    ("hicot.metrics", "emit_table", "metrics.emit_table", {}),
    ("hicot.metrics", "emit_plot_data", "metrics.emit_plot_data", {}),
    ("hicot.cli", "cmd_run", "cli.cmd_run", {"root": True}),
    ("hicot.cli", "cmd_score", "cli.cmd_score", {"root": True}),
    ("hicot.cli", "cmd_report", "cli.cmd_report", {"root": True}),
    ("hicot.cli", "_evaluate_one", "cli.item", {"item": _item_key}),
    ("os", "fsync", "datasets.fsync", {}),
)


class Tracer:
    """Collects spans in memory while installed; ``restore`` undoes ``install``."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patched = []

    def install(self) -> None:
        for module_name, path, name, options in TARGETS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, owner.__dict__[attr], name, options)
                continue
            original = getattr(module, attr)
            wrapper = None
            owners = [module] if module_name == "os" else _hicot_modules()
            for owner in owners:
                for alias, value in list(vars(owner).items()):
                    if value is original:
                        wrapper = self._patch(owner, alias, original, name, options, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, name, options, wrapper=None):
        wrapper = wrapper or self._wrap(original, name, **options)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return wrapper

    def _wrap(self, fn, name, item=None, size=None, root=False):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent, key = stack[-1] if stack else (tracer._root, None)
            if item is not None:
                key = item(args)
            nbytes = size(args) if size is not None else None
            span_id = next(tracer._ids)
            stack.append((span_id, key))
            if root:
                tracer._root = span_id
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if root:
                    tracer._root = None
                tracer.spans.append(
                    (span_id, name, start, end, parent, key, threading.get_ident(), nbytes)
                )

        return wrapper

    def write(self, path, header: dict) -> None:
        """Write a header line naming the span fields, then one JSON array per span."""
        fields = ["id", "name", "start_ns", "end_ns", "parent", "item", "thread", "size"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _hicot_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "hicot" or name.startswith("hicot.")
    ]


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _covered(start: int, end: int, intervals) -> int:
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict:
    """span id -> self time in ns."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    return {
        span[0]: (span[3] - span[2]) - _covered(span[2], span[3], children.get(span[0], ()))
        for span in spans
    }


def layer_metrics(spans, passes: int, service, openings: dict) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    ``service`` lists the stub's (item key, start_ns, end_ns) per HTTP request
    in those passes; ``openings`` maps an item key to its count of unbalanced
    ``\\boxed{`` openings (absent for ordinary items).
    """
    passes = max(passes, 1)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
        if span[4] is not None:
            children[span[4]].append(span)

    def us(name):
        return [(s[3] - s[2]) / 1e3 for s in by_name[name]]

    def ms(name):
        return [(s[3] - s[2]) / 1e6 for s in by_name[name]]

    def total_ms(name):
        return sum(ms(name)) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    served = defaultdict(list)
    for key, start, end in service:
        served[key].append((start, end))
    misses, hits, overhead = [], [], []
    for span in by_name["client.complete"]:
        duration = (span[3] - span[2]) / 1e3
        if any(child[1] == "client.http" for child in children[span[0]]):
            misses.append(duration)
            stub = sum(
                end - start
                for start, end in served.get(span[5], ())
                if start >= span[2] and end <= span[3]
            )
            overhead.append(duration - stub / 1e3)
        else:
            hits.append(duration)
    completes = len(by_name["client.complete"])
    items = len(by_name["cli.item"])

    scans = by_name["traces.scan_blocks"]
    scan_kb = sum(s[7] for s in scans) / 1024
    extract = defaultdict(list)
    for span in by_name["judge.extract_boxed"]:
        extract[openings.get(span[5], 0)].append(span[3] - span[2])
    sizes = sorted(k for k in extract if k)
    growth = (
        ratio(_median(extract[sizes[-1]]), _median(extract[sizes[0]])) if len(sizes) > 1 else 0.0
    )
    reads = by_name["datasets.read_records"]
    read_s = sum(s[3] - s[2] for s in reads) / 1e9
    appends = {s[0] for s in by_name["datasets.append"]}
    fsyncs = sum(1 for s in by_name["datasets.fsync"] if s[4] in appends)

    self_ns = self_times(spans)
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span[1].split(".")[0]] += self_ns[span[0]] / 1e6 / passes

    metrics = {
        "client.miss_us_p50": (_pct(misses, 0.5), "us"),
        "client.miss_us_p99": (_pct(misses, 0.99), "us"),
        "client.overhead_us_p50": (_pct(overhead, 0.5), "us"),
        "client.http_requests": (len(service) / passes, "count"),
        "client.retry_ratio": (ratio(len(service) - len(misses), len(misses)), "ratio"),
        "client.cache_key_per_item": (ratio(len(by_name["client.cache_key"]), completes), "count"),
        "client.hit_ratio": (ratio(len(hits), completes), "ratio"),
        "client.hit_us_p50": (_pct(hits, 0.5), "us"),
        "client.hit_us_p99": (_pct(hits, 0.99), "us"),
        "traces.scan_blocks.us_p50": (_pct(us("traces.scan_blocks"), 0.5), "us"),
        "traces.scan_blocks.us_p99": (_pct(us("traces.scan_blocks"), 0.99), "us"),
        "traces.scan_blocks.total_ms": (total_ms("traces.scan_blocks"), "ms"),
        "traces.scan_blocks.us_per_kb": (ratio(sum(us("traces.scan_blocks")), scan_kb), "us/KB"),
        "traces.validate_format.us_p50": (_pct(us("traces.validate_format"), 0.5), "us"),
        "traces.validate_format.total_ms": (total_ms("traces.validate_format"), "ms"),
        "judge.judge.us_p50": (_pct(us("judge.judge"), 0.5), "us"),
        "judge.judge.us_p99": (_pct(us("judge.judge"), 0.99), "us"),
        "judge.judge.total_ms": (total_ms("judge.judge"), "ms"),
        "judge.extract_boxed.per_item": (
            ratio(len(by_name["judge.extract_boxed"]), items), "count"),
        "judge.extract_boxed.growth_4x": (growth, "ratio"),
        "datasets.append.us_p50": (_pct(us("datasets.append"), 0.5), "us"),
        "datasets.append.us_p99": (_pct(us("datasets.append"), 0.99), "us"),
        "datasets.append.total_ms": (total_ms("datasets.append"), "ms"),
        "datasets.fsync_per_record": (ratio(fsyncs, len(appends)), "count"),
        "datasets.read_records.ms": (_median(ms("datasets.read_records")), "ms"),
        "datasets.read_records.mb_per_s": (
            ratio(sum(s[7] for s in reads) / 1e6, read_s), "MB/s"),
        "datasets.load_dataset.ms": (_median(ms("datasets.load_dataset")), "ms"),
        "datasets.load_resumable.ms": (_median(ms("datasets.load_resumable")), "ms"),
        "metrics.aggregate.ms": (_median(ms("metrics.aggregate")), "ms"),
        "metrics.macro_average.ms": (_median(ms("metrics.macro_average")), "ms"),
        "metrics.emit_table.ms": (_median(ms("metrics.emit_table")), "ms"),
        "metrics.emit_plot_data.ms": (_median(ms("metrics.emit_plot_data")), "ms"),
        "prompts.build_prompt.us_p50": (_pct(us("prompts.build_prompt"), 0.5), "us"),
        "cli.runner.self_ms": (layer_self["cli"], "ms"),
    }
    for layer in ("prompts", "client", "traces", "judge", "datasets", "metrics"):
        metrics[f"{layer}.self_ms"] = (layer_self[layer], "ms")
    return metrics
