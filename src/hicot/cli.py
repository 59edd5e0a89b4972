"""Command-line entry points: run, score, report, validate.

Progress and diagnostics go to standard error; machine-readable results go
to files or standard output, so output can be piped. Exit codes: 0 success,
1 validation failure (non-compliant trace), 2 invalid configuration or
usage, 3 file/schema errors.

``argparse``, ``concurrent.futures`` and ``traceback`` are imported by the
functions that use them (the parser, ``cmd_run`` and a harness fault), so a
program that imports this module to score or report does not load them.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path
from typing import Optional, Tuple, TYPE_CHECKING

from .client import (
    ChatClient,
    ClientError,
    CompletionRequest,
    CompletionResult,
    TokenSource,
    replace_lone_surrogates,
)
from .config import NO_OVERRIDE, ConfigInvalid, RunConfig, load_run_config
from .datasets import (
    EvalRecord,
    Problem,
    RecordWriter,
    iter_records,
    load_dataset,
    load_resumable,
    now_timestamp,
    record_key,
)
from .judge import Judgment, judge as judge_completion
from .metrics import (
    PlotKind,
    TableFormat,
    Tally,
    aggregate,
    emit_plot_data,
    emit_table,
    macro_average,
    summary_payload,
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

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _request(
    config: RunConfig, model_id: str, strategy: PromptStrategy, problem: Problem
) -> CompletionRequest:
    override = config.model_overrides.get(model_id, NO_OVERRIDE)
    return CompletionRequest(
        model_id=model_id,
        prompt=build_prompt(strategy, problem),
        sampling=override.sampling or config.sampling,
        as_system=override.prompt_as_system,
        extra_body=override.extra_body,
    )


def score_completion(
    text: str, problem: Problem, strategy: PromptStrategy, think_tags: Tuple[str, str]
) -> Tuple[Judgment, FormatReport, bool]:
    """The judgment, the format report and the compliance flag of one completion."""
    trace = scan_blocks(text, *think_tags)
    report = validate_format(trace)
    return judge_completion(trace.boxed_answer, problem), report, compliance_mode(strategy, report)


def _evaluate_one(
    config: RunConfig,
    completion: CompletionResult | Exception,
    model_id: str,
    strategy: PromptStrategy,
    problem: Problem,
) -> EvalRecord:
    """The item's record, scored from its completion or from the exception that
    building or fetching its request raised. That exception (a ``ClientError``,
    or a fault such as a prompt bug), or one raised while scoring (a judge
    bug), makes it an error record scored as an empty completion, so one item
    never ends the grid."""
    error = completion if isinstance(completion, Exception) else None
    if error is None:
        text, tokens, token_source = (
            completion.text, completion.completion_tokens, completion.token_source
        )
        try:
            scored = score_completion(text, problem, strategy, config.think_tags)
        except Exception as exc:
            error = exc
    if error is not None:
        if not isinstance(error, ClientError):  # a fault in the harness: show where it arose
            import traceback

            _progress(
                f"item {problem.benchmark}/{problem.id} of {model_id}/{strategy.value} failed:\n"
                + "".join(traceback.format_exception(error)).rstrip()
            )
        text, tokens, token_source = "", 0, TokenSource.APPROXIMATE
        scored = score_completion(text, problem, strategy, config.think_tags)
    judgment, report, compliant = scored

    return EvalRecord(
        problem_id=problem.id,
        benchmark=problem.benchmark,
        model_id=model_id,
        strategy=strategy,
        completion_text=text,
        completion_tokens=tokens,
        token_source=token_source,
        judgment=judgment,
        format_report=report,
        compliant=compliant,
        timestamp=now_timestamp(),
        # An exception's text may spell a lone surrogate (an endpoint's error
        # message, say), which no UTF-8 record line can hold.
        client_error=(
            None if error is None
            else replace_lone_surrogates(f"{type(error).__name__}: {error}")
        ),
    )


def cmd_run(config: RunConfig) -> Path:
    """Run the (model x strategy x benchmark x problem) grid, resume-safe.

    Existing records (matched by their uniqueness key) are skipped, so an
    interrupted run picks up where it stopped. They are folded into a
    ``Tally``, as is each new record when it is appended, so the run keeps
    keys and per-cell counts, not records; a key the records file repeats
    raises DuplicateKey before any request is sent. The main thread builds
    each item's request in task order and hands one fetch per cache key with
    no entry to a pool of ``config.concurrency`` workers, which only send
    requests: the pool alone bounds the requests in flight. It then makes the
    records in task order, each from its key's fetch, else from its key's entry,
    read then (a hit is pure Python work, so it is never pooled), else from a
    late fetch. A key's later items read the entry its fetch wrote, or share
    its failure. A record line copies the text's JSON literal from either.

    Per-item failures are recorded as incorrect rather than aborting the
    grid; a cache that cannot be read or written aborts it with the
    ``OSError``. Records are fsynced in groups, whenever the next miss is not
    fetched yet, and once at the end.
    """
    from concurrent.futures import CancelledError, Future, ThreadPoolExecutor

    problems = {
        name: load_dataset(path, name, spec.field_map, spec.kind)
        for name, (path, spec) in config.benchmarks.items()
    }

    config.output_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally(load_resumable(config.records_path))

    tasks = []
    for model_id in config.models:
        for strategy in config.strategies:
            for benchmark in config.benchmarks:
                for problem in problems[benchmark]:
                    if record_key(problem.id, benchmark, model_id, strategy) not in tally.keys:
                        tasks.append((model_id, strategy, problem))

    total = len(tasks)
    _progress(
        f"run grid: {len(config.models)} models x {len(config.strategies)} strategies x "
        f"{sum(len(p) for p in problems.values())} problems; "
        f"{len(tally.keys)} records resumed, {total} to do"
    )

    client = ChatClient(config.endpoint, config.cache_dir)

    ending = threading.Event()  # set once the grid ends: a fetch not yet started sends nothing

    def fetch(request: CompletionRequest, key: str) -> tuple:
        if ending.is_set():
            raise CancelledError  # the loop below skips it, then raises the failure at its item
        try:
            return client.fetch(request, key)
        except OSError:
            ending.set()
            raise

    done = 0
    with client, RecordWriter(config.records_path) as writer:
        pool = ThreadPoolExecutor(max_workers=config.concurrency)
        try:
            # Per task: ``(request, key)``, or the exception that building its request raised.
            lookups = []
            fetches = {}  # cache key -> its pending fetch until taken, then its failure
            for task in tasks:
                try:
                    request = _request(config, *task)
                    key = request.cache_key()
                except Exception as exc:
                    lookups.append(exc)
                    continue
                if key not in fetches and not client.has_entry(request, key):
                    fetches[key] = pool.submit(fetch, request, key)
                lookups.append((request, key))

            for i, task in enumerate(tasks):
                completion, lookups[i] = lookups[i], None  # not held past its record
                if type(completion) is tuple:
                    request, key = completion
                    # Its key's pending fetch or failure, else its entry, else a late
                    # miss: the entry existed at lookup but cannot be read now.
                    completion = (
                        fetches.pop(key, None)
                        or client.cached(request, key)
                        or pool.submit(fetch, request, key)
                    )
                    if isinstance(completion, Future):
                        if not completion.done():  # idle until it is: make the records durable
                            writer.sync()
                        try:
                            completion = completion.result()
                        except CancelledError:  # not sent: a later item's fetch ended the grid
                            continue
                        except OSError:
                            raise
                        except Exception as exc:
                            completion = exc
                    if isinstance(completion, Exception):
                        fetches[key] = completion  # the key's later items share it
                    else:
                        completion, text_json = completion
                record = _evaluate_one(config, completion, *task)
                tally.add(record)
                writer.append(record, None if record.client_error else text_json)
                done += 1
                if done % 10 == 0 or done == total:
                    _progress(f"progress: {done}/{total}")
        finally:  # an early end (an error, Ctrl-C) cancels the queued fetches
            ending.set()
            pool.shutdown(cancel_futures=True)

    for summary in tally.summaries():
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
    summaries = aggregate(iter_records(records_path))
    return summary_payload(summaries, macro_average(summaries))


def cmd_report(records_path: str | Path, fmt: TableFormat, output_dir: str | Path) -> list:
    """Write the accuracy table and plot-data files; returns written paths."""
    summaries = aggregate(iter_records(records_path))
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
    import argparse

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
    formats = [fmt.value for fmt in TableFormat]
    report.add_argument("--format", choices=formats, default=TableFormat.MARKDOWN.value)
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
            text = Path(args.file).read_text(encoding="utf-8") if args.file else sys.stdin.read()
            report = cmd_validate(text, args.think_open, args.think_close)
            print(json.dumps(report.as_json_dict()))
            return EXIT_OK if report.compliant else EXIT_VALIDATION

    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:  # a file that cannot be read or written, or bad data
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
