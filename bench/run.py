"""End-to-end and per-layer benchmark of the hicot-eval harness.

Usage, from the repository root::

    python3 bench/run.py --workload run_cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop at concurrency 2 (two worker threads, each
waiting for its reply) with one model and all five strategies, driven from
this process through the harness's public entry points: ``cli.load_run_config``,
``cli.cmd_run``, ``cli.cmd_score`` and ``cli.cmd_report``. Completions come
from the in-process stub ``tests/stub_server.py`` with no model delay, so the
harness's own cost dominates. The inputs come from ``--seed`` alone.

A run repeats the workload in passes until ``--seconds`` have gone by and
checks every pass against the generator's ground truth. With ``--trace 0`` it
reports the end-to-end metrics (medians over passes, each timed step scaled to
a reference host speed measured right before it, see ``host_speed.py``; the
raw medians go to standard error); with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics from
the spans (see ``bench_trace.py``). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Spans of a
traced run are written to ``.bench_work/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from http.server import ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import requests  # noqa: E402

import bench_inputs as gen  # noqa: E402
import host_speed  # noqa: E402
import stub_server  # noqa: E402
from bench_trace import Tracer, layer_metrics  # noqa: E402
from hicot import cli  # noqa: E402
from hicot.datasets import EvalRecord, read_records, write_records  # noqa: E402
from hicot.judge import JudgeReason, Judgment  # noqa: E402
from hicot.metrics import (  # noqa: E402
    PlotKind,
    TableFormat,
    aggregate,
    emit_plot_data,
    emit_table,
    macro_average,
)
from hicot.prompts import PromptStrategy, template_text  # noqa: E402
from hicot.traces import FormatReport  # noqa: E402

WORKLOADS = ("run_cold", "rescore_warm", "report")
CONCURRENCY = 2
# Set-up probes per untraced run, spread evenly over its measuring time.
SETUP_PROBES = 11
RUN_BENCHMARKS = ("aime24", "math500")
MODEL = "bench-model"
REPORT_MODELS = ("bench-alpha", "bench-beta", "bench-gamma")
# Unbalanced ``\boxed{`` openings in the repetition-loop items of rescore_warm:
# K and 4K, two items each. Extraction is quadratic in the openings and runs
# twice per record: at K = 60 one 4K extraction takes about 0.1 s on a 2-core
# x86 VM with Python 3.11 (0.44 s at 4K = 500), so the loop items are most of
# a pass's CPU at the parent commit while a pass stays under half a second.
LOOP_K = 60
# Problems per benchmark in one pass. Passes are kept short (well under a
# second) so that a run holds dozens of them and its medians sample the whole
# run: the speed of a shared 2-core VM drifts from second to second.
PROBLEMS = {"run_cold": 20, "rescore_warm": 6, "report": 8}
THROTTLE_SHARE = 0.01
# Realistic completion lengths: short for the flat strategies, longer for the
# hierarchical ones.
LENGTHS = {
    **{s: gen.SHORT for s in gen.FLAT},
    "hicotrelaxed": gen.MEDIUM,
    "hicot": gen.LONG,
}
READS_PER_PASS = 4  # report: cmd_score plus three cmd_report calls

class Responder:
    """Stub responder: finds the item from its tagged statement and strategy
    preamble, and answers its first request with HTTP 429 if it is throttled."""

    def __init__(self, items):
        self.by_key = {
            (item.problem.benchmark, item.problem.problem_id, item.strategy): item for item in items
        }
        self.templates = sorted(
            ((template_text(s), s.value) for s in PromptStrategy), key=lambda t: -len(t[0])
        )
        self.throttled = set()
        self.service = []  # (item key, start_ns, end_ns) per request served
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        with self._lock:
            self.throttled.clear()
            self.service = []

    def __call__(self, payload: dict) -> stub_server.StubReply:
        content = "\n".join(m["content"] for m in payload["messages"])
        strategy = next(value for template, value in self.templates if template in content)
        item = self.by_key[(*gen.find_tag(content), strategy)]
        self._local.key = item.key
        if item.throttle:
            with self._lock:
                first = item.key not in self.throttled
                self.throttled.add(item.key)
            if first:
                return stub_server.StubReply(status=429)
        return stub_server.StubReply(item.completion)

    def served(self, start_ns: int) -> None:
        self.service.append((getattr(self._local, "key", None), start_ns, time.perf_counter_ns()))


def start_stub(responder: Responder) -> stub_server.StubChatServer:
    """Start the stub with a server class that times each request it serves."""

    class TimedServer(ThreadingHTTPServer):
        def finish_request(self, request, client_address):
            start = time.perf_counter_ns()
            super().finish_request(request, client_address)
            responder.served(start)

    stub_server.ThreadingHTTPServer = TimedServer
    try:
        return stub_server.StubChatServer(responder).start()
    finally:
        stub_server.ThreadingHTTPServer = ThreadingHTTPServer


def emissions(summaries) -> dict:
    """Every table and plot emission of the given cell summaries."""
    macro = macro_average(summaries)
    out = {fmt.value: emit_table(summaries, macro, fmt) for fmt in TableFormat}
    out.update({kind.value: emit_plot_data(summaries, kind) for kind in PlotKind})
    return out


def cell_mismatches(summaries, expected: dict) -> set:
    """Cells whose n, pass@1 or compliance differ from the ground truth."""
    seen = {}
    for cell in summaries:
        key = (cell["model_id"], cell["strategy"], cell["benchmark"])
        seen[key] = (cell["n"], cell["pass_at_1"], cell["compliance_rate"])
    bad = set(expected) ^ set(seen)
    for key in set(expected) & set(seen):
        n, pass_at_1, compliance = expected[key]
        got = seen[key]
        if got[0] != n or not (
            math.isclose(got[1], pass_at_1, abs_tol=1e-9)
            and math.isclose(got[2], compliance, abs_tol=1e-9)
        ):
            bad.add(key)
    return bad


class RunGrid:
    """``run_cold`` and ``rescore_warm``: ``cmd_run`` over a stub-served grid.

    Cold passes start from an empty cache and output dir. Warm passes reuse a
    cache that set-up fills by running the grid once, so every item is a hit.
    """

    def __init__(self, work: Path, seed: int, warm: bool, problems: int, loop_k: int):
        rng = random.Random(seed)
        self.warm = warm
        rows = gen.make_problems(rng, RUN_BENCHMARKS, problems)
        if warm:
            loops = (loop_k, loop_k, 4 * loop_k, 4 * loop_k)
            self.items = gen.make_items(rng, rows, [MODEL], LENGTHS, think=True, loops=loops)
        else:
            lengths = {s: gen.SHORT for s in gen.STRATEGIES}
            self.items = gen.make_items(rng, rows, [MODEL], lengths, THROTTLE_SHARE)
        self.by_key = {item.key: item for item in self.items}
        self.openings = {item.key: item.openings for item in self.items if item.openings}
        self.expected = gen.expected_cells(self.items)
        self.reference = None
        self.items_per_pass = len(self.items)

        paths = gen.write_problem_files(rows, work)
        self.responder = Responder(self.items)
        self.stub = start_stub(self.responder)
        self.config_path = work / "run_config.json"
        self.config_path.write_text(json.dumps({
            "endpoint": {
                "base_url": self.stub.base_url,
                "max_attempts": 4,
                "backoff_base_s": 0.001,
                "timeout_s": 30,
            },
            "models": [MODEL],
            "strategies": list(gen.STRATEGIES),
            "benchmarks": {name: str(path) for name, path in paths.items()},
            "concurrency": CONCURRENCY,
            "output_dir": str(work / "out"),
            "cache_dir": str(work / "cache"),
        }), encoding="utf-8")
        self.config = cli.load_run_config(self.config_path)
        self.probe_args = [str(self.config_path)]
        if warm:
            cli.cmd_run(self.config)
            shutil.rmtree(self.config.output_dir)

    def run_pass(self, out: Path) -> int:
        """The timed part of one pass; returns the items it finished."""
        cache = self.config.cache_dir if self.warm else out / "cache"
        cli.cmd_run(dataclasses.replace(self.config, output_dir=out, cache_dir=cache))
        return self.items_per_pass

    def check(self, out: Path) -> int:
        """Items of the pass that fail the correctness gate."""
        failed = set()
        seen = set()
        records = read_records(out / "records.jsonl")
        for record in records:
            key = record.key()
            item = self.by_key.get(key)
            if (
                item is None
                or key in seen
                or record.client_error
                or record.judgment.reason.value != item.reason
                or record.judgment.correct != item.correct
                or record.compliant != item.compliant
            ):
                failed.add(key)
            seen.add(key)
        failed |= set(self.by_key) - seen

        summaries = aggregate(records)
        cells = cell_mismatches([s.to_dict() for s in summaries], self.expected)
        for model, strategy, benchmark in cells:
            failed |= {key for key in self.by_key if key[1:] == (benchmark, model, strategy)}
        tables = emissions(summaries)
        if self.reference is None:
            self.reference = emissions(summaries)
        if tables != self.reference:
            return self.items_per_pass
        return len(failed)

    def close(self) -> None:
        self.stub.stop()


class Report:
    """``report``: one ``cmd_score`` plus ``cmd_report`` in md, csv and json
    over a records file that set-up writes through ``datasets.write_records``."""

    def __init__(self, work: Path, seed: int, problems: int):
        rng = random.Random(seed)
        rows = gen.make_problems(rng, gen.REGISTRY, problems)
        items = gen.make_items(rng, rows, REPORT_MODELS, LENGTHS, think=True)
        self.records = len(items)
        self.items_per_pass = READS_PER_PASS * self.records
        self.expected = gen.expected_cells(items)
        self.records_path = work / "out" / "records.jsonl"
        self.records_path.parent.mkdir()
        write_records((_record(item) for item in items), self.records_path)
        del items
        reference = work / "reference"
        for fmt in TableFormat:
            cli.cmd_report(self.records_path, fmt, reference)
        self.reference = _read_dir(reference)
        self.payload = None
        self.responder = None
        self.openings = {}
        self.probe_args = []

    def run_pass(self, out: Path) -> int:
        self.payload = cli.cmd_score(self.records_path)
        for fmt in TableFormat:
            cli.cmd_report(self.records_path, fmt, out)
        return self.items_per_pass

    def check(self, out: Path) -> int:
        if _read_dir(out) != self.reference:
            return self.items_per_pass
        bad = cell_mismatches(self.payload["summaries"], self.expected)
        return READS_PER_PASS * sum(self.expected[key][0] for key in bad if key in self.expected)

    def close(self) -> None:
        pass


def _record(item) -> EvalRecord:
    boxed = item.reason != "no_boxed_answer"
    return EvalRecord(
        problem_id=item.problem.problem_id,
        benchmark=item.problem.benchmark,
        model_id=item.model,
        strategy=PromptStrategy(item.strategy),
        completion_text=item.completion,
        completion_tokens=len(item.completion.split()),
        token_source="api_usage",
        judgment=Judgment(None, None, item.correct, JudgeReason(item.reason)),
        format_report=FormatReport(
            item.compliant, item.compliant, boxed, item.compliant and boxed
        ),
        compliant=item.compliant,
        timestamp="2026-01-01T00:00:00+00:00",
    )


def _read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def make_workload(name: str, work: Path, seed: int, problems=None, loop_k: int = LOOP_K):
    problems = problems or PROBLEMS[name]
    if name == "report":
        return Report(work, seed, problems)
    return RunGrid(work, seed, name == "rescore_warm", problems, loop_k)


def setup_probe(probe_args) -> tuple:
    """Wall time from starting a fresh process to its ``ready`` line, raw and
    scaled to the reference host speed timed right before and after it (see
    ``host_speed.py``)."""
    command = [sys.executable, str(BENCH / "bench_probe.py"), *probe_args]
    ref_wall, _ = host_speed.measure()
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    ref_wall = (ref_wall + host_speed.measure()[0]) / 2
    return elapsed, elapsed * host_speed.REFERENCE_S / ref_wall


def environment() -> dict:
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        sha = sha if Path(top).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, ValueError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "requests": requests.__version__,
        "git_sha": sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 problems=None, loop_k: int = LOOP_K) -> dict:
    """Set up, run passes for ``seconds``, and return the result object."""
    work.mkdir(parents=True)
    with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
        workload = make_workload(name, work, seed, problems, loop_k)
    try:
        # Set-up probes run between untraced passes, SETUP_PROBES of them
        # spread evenly over the run, so that they sample all of it; the first
        # also compiles byte code and is not counted.
        probes = []
        if not trace:
            setup_probe(workload.probe_args)
        probe_every = seconds / SETUP_PROBES
        tracer = Tracer() if trace else None
        rates = {False: [], True: []}
        cpu_ms = []
        # Untraced passes' rate and CPU time scaled to the reference host
        # speed, timed right before each pass (see host_speed.py).
        scaled_rates, scaled_cpu_ms = [], []
        traced_passes = 0
        service = []
        attempted = failed = 0
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline or (trace and index < 2):
            traced = trace and index % 2 == 1
            out = work / f"pass{index}"
            if workload.responder:
                workload.responder.reset()
            attempted += workload.items_per_pass
            try:
                if not trace and time.perf_counter() >= start + len(probes) * probe_every:
                    probes.append(setup_probe(workload.probe_args))
                if traced:
                    tracer.install()
                try:
                    ref_wall, ref_cpu = host_speed.measure()
                    with open(os.devnull, "w") as null, contextlib.redirect_stderr(null):
                        cpu0, wall0 = time.process_time(), time.perf_counter()
                        items = workload.run_pass(out)
                        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                finally:
                    if traced:
                        tracer.restore()
                failed += workload.check(out)
            except Exception:  # a crashed pass fails all its items and ends the run
                traceback.print_exc()
                failed += workload.items_per_pass
                break
            rates[traced].append(items / wall)
            if traced:
                traced_passes += 1
                if workload.responder:
                    service += workload.responder.service
            else:
                cpu_ms.append(1000 * cpu / items)
                scaled_rates.append(items / wall * ref_wall / host_speed.REFERENCE_S)
                scaled_cpu_ms.append(1000 * cpu / items * host_speed.REFERENCE_S / ref_cpu)
            shutil.rmtree(out)
            index += 1
        while not trace and len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload.probe_args))
    finally:
        workload.close()

    if trace:
        metrics = layer_metrics(tracer.spans, traced_passes, service, workload.openings)
        overhead = _median(rates[True]) / _median(rates[False]) if rates[False] else 0.0
        metrics["cli.tracing_overhead"] = (overhead, "ratio")
        spans_path = work.parent / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path, {"workload": name, "seed": seed, **environment()})
    else:
        print(f"raw, unscaled: setup_s {_median(p[0] for p in probes):.6g} s, "
              f"items_per_s {_median(rates[False]):.6g} items/s, "
              f"cpu_ms_per_item {_median(cpu_ms):.6g} ms", file=sys.stderr)
        metrics = {
            "setup_s": (_median(p[1] for p in probes), "s"),
            "items_per_s": (_median(scaled_rates), "items/s"),
            "cpu_ms_per_item": (_median(scaled_cpu_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (1 - failed / attempted, "fraction"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _harness_present() -> bool:
    return Path(cli.__file__).resolve().is_relative_to(ROOT / "src") and Path(
        stub_server.__file__
    ).resolve().is_relative_to(ROOT / "tests")


def _run_all(args) -> int:
    """Run each workload in its own process and print every metric by name."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    for name, result in results.items():
        if result is None:
            print(f"{name:<13} FAILED")
            continue
        for metric, entry in result["metrics"].items():
            print(f"{name:<13} {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:<13} error_rate {result['failed'] / result['attempted']:.6g}")
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _harness_present():
        print("error: the harness sources (src/hicot, tests/stub_server.py) are missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}),
          file=sys.stderr)
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, entry in result["metrics"].items():
        print(f"{metric:<36} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
