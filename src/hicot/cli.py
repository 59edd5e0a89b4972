"""Command-line entry points: run, score, report, validate.

Progress and diagnostics go to standard error; machine-readable results go
to files or standard output, so output can be piped. Exit codes: 0 success,
1 validation failure (non-compliant trace), 2 invalid configuration or
usage, 3 file/schema errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .client import (
    ChatClient,
    ClientError,
    CompletionRequest,
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


@dataclass
class ModelOverride:
    prompt_as_system: bool = False
    sampling: Optional[SamplingParams] = None
    extra_body: Optional[dict] = None


@dataclass
class RunConfig:
    base_url: str
    models: list
    strategies: list
    benchmarks: dict  # name -> (path, BenchmarkSpec)
    output_dir: Path
    cache_dir: Path
    sampling: SamplingParams = field(default_factory=SamplingParams)
    concurrency: int = 4
    api_key_env: Optional[str] = None
    timeout_s: float = 120.0
    max_attempts: int = 4
    backoff_base_s: float = 0.5
    think_open: str = DEFAULT_THINK_OPEN
    think_close: str = DEFAULT_THINK_CLOSE
    model_overrides: dict = field(default_factory=dict)

    @property
    def records_path(self) -> Path:
        return self.output_dir / "records.jsonl"


_CHECKS = {
    "a positive integer": lambda value: isinstance(value, int) and value > 0,
    "a positive number": lambda value: isinstance(value, (int, float)) and value > 0,
    "a non-negative number": lambda value: isinstance(value, (int, float)) and value >= 0,
    "a number": lambda value: isinstance(value, (int, float)),
    "an integer or null": lambda value: value is None or isinstance(value, int),
    "a string or null": lambda value: value is None or isinstance(value, str),
}


def _value(section: dict, key: str, default, what: str, where: str = ""):
    """``section[key]``, or ``default`` when absent, checked against ``what``
    (a key of ``_CHECKS``); a JSON boolean is never a number."""
    value = section.get(key, default)
    if isinstance(value, bool) or not _CHECKS[what](value):
        raise ConfigInvalid(f"{where}{key} must be {what}")
    return value


def _sampling_from(data: dict, base: SamplingParams, where: str) -> SamplingParams:
    return SamplingParams(
        temperature=_value(data, "temperature", base.temperature, "a number", where),
        top_p=_value(data, "top_p", base.top_p, "a number", where),
        max_tokens=_value(data, "max_tokens", base.max_tokens, "a positive integer", where),
        seed=_value(data, "seed", base.seed, "an integer or null", where),
    )


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name) or {}
    if not isinstance(value, dict):
        raise ConfigInvalid(f"{name} must be an object")
    return value


def _string_list(raw: dict, name: str, default: list) -> list:
    value = raw.get(name) or default
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigInvalid(f"{name} must be a list of strings")
    return value


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file (JSON)."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"config {path} is not a JSON object")

    endpoint = _section(raw, "endpoint")
    base_url = _value(endpoint, "base_url", None, "a string or null", "endpoint.")
    if not base_url:
        raise ConfigInvalid("endpoint.base_url is required")

    models = _string_list(raw, "models", [])
    if not models:
        raise ConfigInvalid("at least one model is required")

    try:
        strategies = [PromptStrategy.parse(s) for s in _string_list(raw, "strategies", [])]
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if not strategies:
        raise ConfigInvalid("at least one strategy is required")

    registry_path = _value(raw, "registry", None, "a string or null")
    try:
        registry = load_registry(registry_path or None)
    except (OSError, ValueError) as exc:
        raise ConfigInvalid(f"registry {registry_path}: {exc}") from exc

    benchmarks = {}
    for name, entry in _section(raw, "benchmarks").items():
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
    if not benchmarks:
        raise ConfigInvalid("at least one benchmark is required")

    output_dir = Path(raw.get("output_dir") or "run_output")
    cache_dir = Path(raw.get("cache_dir") or output_dir / "cache")
    sampling = _sampling_from(_section(raw, "sampling"), SamplingParams(), "sampling.")

    think = _string_list(raw, "think_tags", [DEFAULT_THINK_OPEN, DEFAULT_THINK_CLOSE])
    if len(think) != 2:
        raise ConfigInvalid("think_tags must be a [open, close] pair")

    overrides = {}
    for model_id, entry in _section(raw, "model_overrides").items():
        if not isinstance(entry, dict):
            raise ConfigInvalid(f"model_overrides entry {model_id!r} must be an object")
        override_sampling = _section(entry, "sampling")
        overrides[model_id] = ModelOverride(
            prompt_as_system=entry.get("prompt_as_system", False),
            sampling=(
                _sampling_from(override_sampling, sampling, f"model_overrides.{model_id}.sampling.")
                if "sampling" in entry
                else None
            ),
            extra_body=entry.get("extra_body"),
        )

    return RunConfig(
        base_url=base_url,
        models=list(models),
        strategies=strategies,
        benchmarks=benchmarks,
        output_dir=output_dir,
        cache_dir=cache_dir,
        sampling=sampling,
        concurrency=_value(raw, "concurrency", 4, "a positive integer"),
        api_key_env=_value(endpoint, "api_key_env", None, "a string or null", "endpoint."),
        timeout_s=_value(endpoint, "timeout_s", 120.0, "a positive number", "endpoint."),
        max_attempts=_value(endpoint, "max_attempts", 4, "a positive integer", "endpoint."),
        backoff_base_s=_value(
            endpoint, "backoff_base_s", 0.5, "a non-negative number", "endpoint."
        ),
        think_open=think[0],
        think_close=think[1],
        model_overrides=overrides,
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
    override = config.model_overrides.get(model_id, ModelOverride())
    bundle = build_prompt(strategy, problem)
    request = CompletionRequest(
        model_id=model_id,
        prompt=bundle,
        sampling=override.sampling or config.sampling,
        as_system=override.prompt_as_system,
        extra_body=override.extra_body,
    )

    client_error = None
    try:
        result = client.complete(request)
        text = result.text
        tokens = result.completion_tokens
        token_source = result.token_source.value
    except ClientError as exc:
        client_error = f"{type(exc).__name__}: {exc}"
        text = ""
        tokens = 0
        token_source = TokenSource.APPROXIMATE.value

    trace = scan_blocks(text, config.think_open, config.think_close)
    report = validate_format(trace)
    return EvalRecord(
        problem_id=problem.id,
        benchmark=problem.benchmark,
        model_id=model_id,
        strategy=strategy,
        completion_text=text,
        completion_tokens=tokens,
        token_source=token_source,
        judgment=judge_completion(trace.boxed_answer, problem),
        format_report=report,
        compliant=compliance_mode(strategy, report),
        timestamp=now_timestamp(),
        client_error=client_error,
    )


def cmd_run(config: RunConfig) -> Path:
    """Run the (model x strategy x benchmark x problem) grid, resume-safe.

    Existing records (matched by their uniqueness key) are skipped, so an
    interrupted run picks up where it stopped. Per-item client failures are
    recorded as incorrect rather than aborting the grid.
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

    client = ChatClient(
        base_url=config.base_url,
        cache_dir=config.cache_dir,
        api_key=os.environ.get(config.api_key_env) if config.api_key_env else None,
        concurrency=config.concurrency,
        max_attempts=config.max_attempts,
        backoff_base_s=config.backoff_base_s,
        timeout_s=config.timeout_s,
    )

    done = 0
    with RecordWriter(config.records_path) as writer:
        if tasks:
            with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
                futures = [
                    pool.submit(_evaluate_one, config, client, model_id, strategy, problem)
                    for model_id, strategy, problem in tasks
                ]
                for future in futures:
                    record = future.result()
                    writer.append(record)
                    records.append(record)
                    done += 1
                    if done % 10 == 0 or done == total:
                        _progress(f"progress: {done}/{total}")

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

    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
