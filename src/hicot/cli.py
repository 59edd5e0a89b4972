"""Command-line entry points: run, score, report, validate.

Progress and diagnostics go to standard error; machine-readable results go
to files or standard output, so output can be piped. Exit codes: 0 success,
1 validation failure (non-compliant trace), 2 invalid configuration or
usage, 3 file/schema errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import List, Optional, Tuple, get_args, get_origin, get_type_hints

from .client import (
    ChatClient,
    ClientError,
    CompletionRequest,
    Endpoint,
    SamplingParams,
    TokenSource,
)
from .datasets import (
    DatasetError,
    EvalRecord,
    Problem,
    RecordWriter,
    benchmark_spec,
    load_dataset,
    load_registry,
    load_resumable,
    now_timestamp,
    read_records,
)
from .judge import judge as judge_completion
from .metrics import (
    DuplicateKey,
    PlotKind,
    TableFormat,
    aggregate,
    emit_plot_data,
    emit_table,
    macro_average,
)
from .prompts import PromptStrategy, build_prompt
from .traces import (
    DEFAULT_THINK_CLOSE,
    DEFAULT_THINK_OPEN,
    FormatReport,
    compliance_mode,
    scan_blocks,
    validate_format,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigInvalid(Exception):
    """Run configuration is missing, malformed, or inconsistent."""


@dataclasses.dataclass
class ModelOverride:
    prompt_as_system: bool = False
    sampling: Optional[SamplingParams] = None
    extra_body: Optional[dict] = None

    def __post_init__(self):
        try:  # the request body cannot carry NaN or Infinity
            json.dumps(self.extra_body, allow_nan=False)
        except ValueError:
            raise ValueError("extra_body must hold only finite numbers") from None


@dataclasses.dataclass
class RunConfig:
    """The run config; its fields are the config file's keys."""

    endpoint: Endpoint
    models: List[str]
    strategies: List[PromptStrategy]
    benchmarks: dict  # name -> (path, BenchmarkSpec) once loaded
    registry: Optional[Path] = None
    output_dir: Path = Path("run_output")
    cache_dir: Optional[Path] = None
    sampling: SamplingParams = SamplingParams()
    concurrency: int = 4
    think_tags: Tuple[str, str] = (DEFAULT_THINK_OPEN, DEFAULT_THINK_CLOSE)
    model_overrides: dict = dataclasses.field(default_factory=dict)  # model id -> ModelOverride

    def __post_init__(self):
        for name in ("models", "strategies", "benchmarks"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if self.concurrency < 1:
            raise ValueError("concurrency must be a positive integer")
        unknown = self.model_overrides.keys() - set(self.models)
        if unknown:
            raise ValueError(f"model_overrides.{min(unknown)} is not one of the models")

    @property
    def records_path(self) -> Path:
        return self.output_dir / "records.jsonl"


_JSON_TYPES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    dict: "an object",
}

# Types read from a non-empty JSON string.
_FROM_STRING = {Path: Path, PromptStrategy: PromptStrategy.parse}


def _typed(value, annotation, where: str, base=None):
    """``value`` checked against the type ``annotation``; a dataclass type is
    loaded from its JSON object by ``_load``, a list or fixed-length tuple item
    by item. A JSON boolean is never a number, and a float field holds a finite float."""
    if type(None) in get_args(annotation):  # Optional[X]
        if value is None:
            return None
        annotation = get_args(annotation)[0]
    origin, args = get_origin(annotation), get_args(annotation)
    if dataclasses.is_dataclass(annotation):
        return _load(annotation, value, where, base)
    if origin in (list, tuple):
        if not isinstance(value, list) or (origin is tuple and len(value) != len(args)):
            count = f" of {len(args)} values" if origin is tuple else ""
            raise ConfigInvalid(f"{where} must be a list{count}")
        items = zip(value, args if origin is tuple else args * len(value))
        return origin(_typed(item, arg, f"{where}[{i}]") for i, (item, arg) in enumerate(items))
    if annotation in _FROM_STRING:
        if not isinstance(value, str) or not value:
            raise ConfigInvalid(f"{where} must be a non-empty string")
        try:
            return _FROM_STRING[annotation](value)
        except ValueError as exc:
            raise ConfigInvalid(f"{where}: {exc}") from exc
    accepted = (int, float) if annotation is float else annotation
    if isinstance(value, bool) is not (annotation is bool) or not isinstance(value, accepted):
        raise ConfigInvalid(f"{where} must be {_JSON_TYPES[annotation]}")
    if annotation is not float:
        return value
    try:
        value = float(value)
    except OverflowError as exc:
        raise ConfigInvalid(f"{where} is too large") from exc
    if not math.isfinite(value):  # JSON NaN, Infinity, or a literal like 1e400
        raise ConfigInvalid(f"{where} must be a finite number")
    return value


def _load(cls, data, where: str, base=None):
    """The dataclass ``cls`` from the JSON object ``data``, keyed by its field names.

    A missing key takes its value from ``base``, else the field default. An unknown
    key, a wrong type or a value ``cls`` refuses is ``ConfigInvalid`` naming the key;
    the ``ValueError`` of a ``__post_init__`` check begins with the field it refuses.
    """
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{where} must be an object")
    hints = get_type_hints(cls)
    values = {}
    for key, value in data.items():
        if key not in hints:
            raise ConfigInvalid(f"{where}.{key} is not a known key")
        values[key] = _typed(value, hints[key], f"{where}.{key}", getattr(base, key, None))
    try:
        return dataclasses.replace(base, **values) if base is not None else cls(**values)
    except TypeError as exc:  # a required key is missing
        raise ConfigInvalid(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"{where}.{exc}") from exc


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file (JSON)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    config = _load(RunConfig, raw, "config")

    try:
        registry = load_registry(config.registry)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"registry {config.registry}: {exc}") from exc

    benchmarks = {}
    for name, entry in config.benchmarks.items():
        if isinstance(entry, str):
            entry = {"path": entry}
        try:
            spec = benchmark_spec(name, entry, registry.get(name))
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        dataset_path = entry.get("path")
        if not dataset_path or not isinstance(dataset_path, str):
            raise ConfigInvalid(f"benchmark {name!r} has no dataset path")
        if not Path(dataset_path).exists():
            raise ConfigInvalid(f"dataset for benchmark {name!r} not found: {dataset_path}")
        benchmarks[name] = (Path(dataset_path), spec)

    inherited = ModelOverride(sampling=config.sampling)
    return dataclasses.replace(
        config,
        benchmarks=benchmarks,
        cache_dir=config.cache_dir or config.output_dir / "cache",
        model_overrides={
            model_id: _load(ModelOverride, entry, f"config.model_overrides.{model_id}", inherited)
            for model_id, entry in config.model_overrides.items()
        },
    )


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _evaluate_one(
    config: RunConfig,
    client: ChatClient,
    model_id: str,
    strategy: PromptStrategy,
    problem: Problem,
) -> EvalRecord:
    """The item's record. An exception while completing or scoring it (a
    ``ClientError``, or a fault such as a judge bug) makes it an error record
    scored as an empty completion, so one item never ends the grid. An
    ``OSError`` still ends it: the cache cannot be read or written, and the
    record would throw away a completion that a resumed run can fetch again."""
    override = config.model_overrides.get(model_id, ModelOverride())
    client_error = None
    try:
        request = CompletionRequest(
            model_id=model_id,
            prompt=build_prompt(strategy, problem),
            sampling=override.sampling or config.sampling,
            as_system=override.prompt_as_system,
            extra_body=override.extra_body,
        )
        result = client.complete(request)
        text, tokens, token_source = result.text, result.completion_tokens, result.token_source
        trace = scan_blocks(text, *config.think_tags)
        report = validate_format(trace)
        judgment = judge_completion(trace.boxed_answer, problem)
        compliant = compliance_mode(strategy, report)
    except OSError:
        raise
    except Exception as exc:
        if not isinstance(exc, ClientError):  # a fault in the harness: show where it arose
            _progress(
                f"item {problem.benchmark}/{problem.id} of {model_id}/{strategy.value} failed:\n"
                + traceback.format_exc().rstrip()
            )
        client_error = f"{type(exc).__name__}: {exc}"
        text, tokens, token_source = "", 0, TokenSource.APPROXIMATE
        report = validate_format(scan_blocks(text, *config.think_tags))
        judgment = judge_completion(None, problem)
        compliant = compliance_mode(strategy, report)

    return EvalRecord(
        problem_id=problem.id,
        benchmark=problem.benchmark,
        model_id=model_id,
        strategy=strategy,
        completion_text=text,
        completion_tokens=tokens,
        token_source=token_source.value,
        judgment=judgment,
        format_report=report,
        compliant=compliant,
        timestamp=now_timestamp(),
        client_error=client_error,
    )


def cmd_run(config: RunConfig) -> Path:
    """Run the (model x strategy x benchmark x problem) grid, resume-safe.

    Existing records (matched by their uniqueness key) are skipped, so an
    interrupted run picks up where it stopped. Per-item failures are
    recorded as incorrect rather than aborting the grid; a cache that cannot
    be read or written aborts it with the ``OSError``. Records are fsynced in
    groups, whenever the next item is not finished yet, and once at the end.
    """
    problems = {
        name: load_dataset(path, name, spec.field_map, spec.kind)
        for name, (path, spec) in config.benchmarks.items()
    }

    config.output_dir.mkdir(parents=True, exist_ok=True)
    records = load_resumable(config.records_path)
    existing = {record.key() for record in records}

    tasks = []
    for model_id in config.models:
        for strategy in config.strategies:
            for benchmark in config.benchmarks:
                for problem in problems[benchmark]:
                    key = (problem.id, benchmark, model_id, strategy.value)
                    if key not in existing:
                        tasks.append((model_id, strategy, problem))

    total = len(tasks)
    _progress(
        f"run grid: {len(config.models)} models x {len(config.strategies)} strategies x "
        f"{sum(len(p) for p in problems.values())} problems; "
        f"{len(existing)} records resumed, {total} to do"
    )

    client = ChatClient(config.endpoint, config.cache_dir, config.concurrency)

    ending = threading.Event()  # set by the first item that ends the grid

    def evaluate(task) -> Optional[EvalRecord]:
        # An item that ends the grid keeps the items queued behind it from
        # starting; the loop below never takes their results.
        if ending.is_set():
            return None
        try:
            return _evaluate_one(config, client, *task)
        except BaseException:
            ending.set()
            raise

    done = 0
    with client, RecordWriter(config.records_path) as writer:
        pool = ThreadPoolExecutor(max_workers=config.concurrency)
        try:
            futures = [pool.submit(evaluate, task) for task in tasks]
            for future in futures:
                if not future.done():  # idle until it is: make the records so far durable
                    writer.sync()
                record = future.result()
                writer.append(record)
                records.append(record)
                done += 1
                if done % 10 == 0 or done == total:
                    _progress(f"progress: {done}/{total}")
        finally:  # an early end (an error, Ctrl-C) cancels the queued items
            pool.shutdown(cancel_futures=True)

    for summary in aggregate(records):
        conditional = (
            "-"
            if summary.conditional_pass_at_1 is None
            else f"{summary.conditional_pass_at_1:.1f}"
        )
        _progress(
            f"cell model={summary.model_id} strategy={summary.strategy.value} "
            f"benchmark={summary.benchmark} n={summary.n} "
            f"pass@1={summary.pass_at_1:.1f} compliance={summary.compliance_rate:.1f} "
            f"conditional={conditional}"
        )
    return config.records_path


def cmd_score(records_path: str | Path) -> dict:
    """Aggregate a records file and return the summary payload."""
    records = read_records(records_path)
    summaries = aggregate(records)
    macro = macro_average(summaries)
    return {
        "summaries": [s.to_dict() for s in summaries],
        "macro": [m.to_dict() for m in macro],
    }


def cmd_report(records_path: str | Path, fmt: TableFormat, output_dir: str | Path) -> list:
    """Write the accuracy table and plot-data files; returns written paths."""
    records = read_records(records_path)
    summaries = aggregate(records)
    macro = macro_average(summaries)

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    outputs = {
        f"table_accuracy.{fmt.value}": emit_table(summaries, macro, fmt),
        "plot_tokens.csv": emit_plot_data(summaries, PlotKind.AVG_TOKENS_BY_BENCHMARK),
        "plot_format_conditional.csv": emit_plot_data(summaries, PlotKind.FORMAT_CONDITIONAL),
    }
    written = []
    for name, text in outputs.items():
        path = output_dir / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def cmd_validate(text: str, think_open: str, think_close: str) -> FormatReport:
    trace = scan_blocks(text, think_open, think_close)
    return validate_format(trace)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hicot",
        description="Prompting and evaluation harness for hierarchical reasoning traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the evaluation grid from a config file")
    run.add_argument("--config", required=True, help="path to the run config (JSON)")

    score = sub.add_parser("score", help="aggregate a records file to summaries")
    score.add_argument("records", help="path to a records JSONL file")

    report = sub.add_parser("report", help="emit the accuracy table and plot data")
    report.add_argument("records", help="path to a records JSONL file")
    report.add_argument("--format", choices=["md", "csv", "json"], default="md")
    report.add_argument("--output-dir", default=None, help="defaults to the records directory")

    validate = sub.add_parser("validate", help="validate one completion (file or stdin)")
    validate.add_argument("file", nargs="?", help="completion text file; stdin when omitted")
    validate.add_argument("--think-open", default=DEFAULT_THINK_OPEN)
    validate.add_argument("--think-close", default=DEFAULT_THINK_CLOSE)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK

    try:
        if args.command == "run":
            config = load_run_config(args.config)
            records_path = cmd_run(config)
            print(records_path)
            return EXIT_OK

        if args.command == "score":
            payload = cmd_score(args.records)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return EXIT_OK

        if args.command == "report":
            fmt = TableFormat(args.format)
            output_dir = args.output_dir or Path(args.records).parent
            for path in cmd_report(args.records, fmt, output_dir):
                print(path)
            return EXIT_OK

        if args.command == "validate":
            if args.file:
                try:
                    text = Path(args.file).read_text(encoding="utf-8")
                except OSError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return EXIT_IO
            else:
                text = sys.stdin.read()
            report = cmd_validate(text, args.think_open, args.think_close)
            print(json.dumps(report.as_json_dict()))
            return EXIT_OK if report.compliant else EXIT_VALIDATION

    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, DuplicateKey, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # e.g. reporting over an empty records file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
