"""Dataset loading and evaluation-record persistence."""

import copy
import dataclasses
import json
import os
import re
import time
import types
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import get_type_hints
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hicot.cli import EXIT_IO, main
from hicot.client import ChatClient, CompletionResult, Endpoint, SamplingParams, TokenSource
from hicot import codec
from hicot.codec import JsonMismatch, from_json_dict, parse_json, to_json_dict
from hicot.config import BenchmarkEntry, ModelOverride, RunConfig, load_run_config
from hicot.datasets import (
    BenchmarkSpec,
    EvalRecord,
    FieldMap,
    MalformedLine,
    Problem,
    RecordWriter,
    load_dataset,
    load_registry,
    load_resumable,
    now_timestamp,
    _record_line,
    read_records,
    write_records,
)
from hicot.judge import AnswerKind, JudgeReason, Judgment, normalize_math, parse_int
from hicot.metrics import MetricsSummary
from hicot.prompts import PromptStrategy
from hicot.traces import FormatReport

from grid_fixture import write_config
from json_faults import key_paths, swap_one

FIELDS = FieldMap(statement="problem", answer="answer")


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + ("\n" if rows else ""), "utf-8")
    return path


class TestLoadDataset:
    def test_aime_style_file(self, tmp_path):
        rows = [{"problem": f"Find x in problem {i}.", "answer": str(i % 1000)} for i in range(30)]
        path = _write_jsonl(tmp_path / "aime24.jsonl", rows)
        problems = load_dataset(path, "aime24", FIELDS, AnswerKind.INTEGER_EXACT)
        assert len(problems) == 30
        assert all(p.kind is AnswerKind.INTEGER_EXACT for p in problems)
        assert all(p.benchmark == "aime24" for p in problems)
        # Sequential ids, order preserving.
        assert [p.id for p in problems] == [str(i + 1) for i in range(30)]
        assert [p.statement for p in problems] == [r["problem"] for r in rows]

    def test_empty_file(self, tmp_path):
        path = _write_jsonl(tmp_path / "empty.jsonl", [])
        assert load_dataset(path, "b", FIELDS, AnswerKind.MATH_EXPRESSION) == []

    def test_missing_answer_field_reports_line(self, tmp_path):
        rows = [
            {"problem": "p1", "answer": "1"},
            {"problem": "p2"},
        ]
        path = _write_jsonl(tmp_path / "bad.jsonl", rows)
        with pytest.raises(MalformedLine, match="missing field 'answer'") as excinfo:
            load_dataset(path, "b", FIELDS, AnswerKind.MATH_EXPRESSION)
        assert excinfo.value.line_no == 2

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"problem": "p", "answer": "1"}\nnot json\n', "utf-8")
        with pytest.raises(MalformedLine) as excinfo:
            load_dataset(path, "b", FIELDS, AnswerKind.MATH_EXPRESSION)
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize("key", ["problem", "answer", "id"])
    @pytest.mark.parametrize(
        "value", [None, True, ["42"], {"value": "42"}], ids=["null", "bool", "list", "object"]
    )
    def test_value_that_is_not_text_is_malformed_line(self, tmp_path, key, value):
        # A number stays valid text: the first line loads, and its answer reads "42".
        rows = [{"id": 7, "problem": "p", "answer": 42}, {"id": "q", "problem": "q", "answer": "1"}]
        rows[1][key] = value
        path = _write_jsonl(tmp_path / "typed.jsonl", rows)
        fields = FieldMap("problem", "answer", id="id")
        with pytest.raises(MalformedLine, match=f"typed.jsonl:2: .*'{key}'") as excinfo:
            load_dataset(path, "b", fields, AnswerKind.INTEGER_EXACT)
        assert excinfo.value.line_no == 2
        path = _write_jsonl(path, rows[:1])
        [problem] = load_dataset(path, "b", fields, AnswerKind.INTEGER_EXACT)
        assert (problem.id, problem.gold_answer) == ("7", "42")

    def test_duplicate_id_rejected(self, tmp_path):
        rows = [
            {"id": "a", "problem": "p1", "answer": "1"},
            {"id": "a", "problem": "p2", "answer": "2"},
        ]
        path = _write_jsonl(tmp_path / "dup.jsonl", rows)
        with pytest.raises(MalformedLine, match="duplicate problem id 'a'") as excinfo:
            load_dataset(
                path, "b", FieldMap("problem", "answer", id="id"), AnswerKind.MATH_EXPRESSION
            )
        assert excinfo.value.line_no == 2

    def test_source_ids_used_when_mapped(self, tmp_path):
        rows = [{"id": "q7", "problem": "p", "answer": "1"}]
        path = _write_jsonl(tmp_path / "ids.jsonl", rows)
        problems = load_dataset(
            path, "b", FieldMap("problem", "answer", id="id"), AnswerKind.MATH_EXPRESSION
        )
        assert problems[0].id == "q7"

    def test_numeric_answers_coerced_to_strings(self, tmp_path):
        rows = [{"problem": "p", "answer": 204}]
        path = _write_jsonl(tmp_path / "num.jsonl", rows)
        problems = load_dataset(path, "b", FIELDS, AnswerKind.INTEGER_EXACT)
        assert problems[0].gold_answer == "204"

    def test_line_not_utf8_reports_line(self, tmp_path, capsys):
        config_path = write_config(tmp_path, "http://127.0.0.1:1", benchmarks=("toy_int",))
        path = tmp_path / "toy_int.jsonl"
        path.write_bytes(b'{"problem": "p", "answer": "1"}\n{"problem": "caf\xe9", "answer": "2"}\n')
        with pytest.raises(MalformedLine) as excinfo:
            load_dataset(path, "b", FIELDS, AnswerKind.MATH_EXPRESSION)
        assert excinfo.value.line_no == 2
        assert main(["run", "--config", str(config_path)]) == EXIT_IO
        assert f"{path}:2: not UTF-8" in capsys.readouterr().err

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"problem": "p", "answer": "1"}\n\n{"problem": "q", "answer": "2"}\n')
        problems = load_dataset(path, "b", FIELDS, AnswerKind.MATH_EXPRESSION)
        assert [p.statement for p in problems] == ["p", "q"]

    @pytest.mark.parametrize(
        "gold,loads",
        [(100.0, False), ("\\boxed{5}", False), (100, True), ("042", True), ("$42$", True),
         ("9" * 5000, False)],
        ids=["float", "boxed", "int", "leading_zero", "dollars", "past_the_digit_limit"],
    )
    def test_integer_gold_must_read_as_an_integer(self, tmp_path, capsys, gold, loads):
        # The judge's own rule decides: normalize, then parse a base-10 integer.
        assert (parse_int(normalize_math(str(gold))) is not None) == loads
        config_path = write_config(tmp_path, "http://127.0.0.1:1", benchmarks=("toy_int",))
        rows = [{"problem": "p", "answer": 1}, {"problem": "q", "answer": gold}]
        path = _write_jsonl(tmp_path / "toy_int.jsonl", rows)
        load_dataset(path, "b", FIELDS, AnswerKind.MATH_EXPRESSION)  # any gold is an expression
        if loads:
            problems = load_dataset(path, "b", FIELDS, AnswerKind.INTEGER_EXACT)
            assert problems[1].gold_answer == str(gold)
            return
        detail = "field 'answer' is not an integer"
        with pytest.raises(MalformedLine, match=f":2: {re.escape(detail)}") as excinfo:
            load_dataset(path, "b", FIELDS, AnswerKind.INTEGER_EXACT)
        assert excinfo.value.line_no == 2
        message = str(excinfo.value)
        assert message.startswith(f"{path}:2: {detail}") and len(message) < 200, message
        assert main(["run", "--config", str(config_path)]) == EXIT_IO
        assert f"{path}:2: {detail}" in capsys.readouterr().err


class TestBadLine:
    """Benchmark and records files are read by one loop: a bad line reads the same in both."""

    @pytest.mark.parametrize(
        "bad,count,at,detail",
        [
            (b'{"problem": "caf\xe9"}', 2, 2, "not UTF-8: "),
            (b'{"problem": "caf\xe9"}', 300, 257, "not UTF-8: "),
            (b"not json", 2, 2, "not JSON: "),
            (b"[1, 2]", 2, 2, "not a JSON object"),
            (b"[" * 100_000 + b"]" * 100_000, 2, 2, "not JSON: "),
        ],
        ids=["not_utf8", "not_utf8_past_first_chunk", "not_json", "not_an_object", "too_deep"],
    )
    def test_both_loaders_name_the_line(self, tmp_path, capsys, bad, count, at, detail):
        config_path = write_config(tmp_path, "http://127.0.0.1:1", benchmarks=("toy_int",))
        benchmark, records = tmp_path / "toy_int.jsonl", tmp_path / "records.jsonl"
        cases = [
            (benchmark, ["run", "--config", str(config_path)],
             lambda: load_dataset(benchmark, "b", FIELDS, AnswerKind.INTEGER_EXACT),
             [{"problem": f"Problem number {i}: find x.", "answer": i} for i in range(count)]),
            (records, ["score", str(records)], lambda: read_records(records),
             [to_json_dict(make_record(i)) for i in range(count)]),
        ]
        messages = []
        for path, argv, load, rows in cases:
            lines = [json.dumps(row).encode() for row in rows]
            lines[at - 1] = bad
            path.write_bytes(b"\n".join(lines) + b"\n")
            with pytest.raises(MalformedLine) as excinfo:
                load()
            assert excinfo.value.line_no == at
            capsys.readouterr()
            assert main(argv) == EXIT_IO
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}:{at}: {detail}")
            messages.append(err.replace(str(path), "PATH"))
        assert messages[0] == messages[1]

    def test_blank_lines_and_crlf_load(self, tmp_path):
        benchmark, records = tmp_path / "b.jsonl", tmp_path / "records.jsonl"
        benchmark.write_bytes(
            b'{"problem": "p", "answer": "1"}\r\n\r\n  \n{"problem": "q", "answer": "2"}\r\n'
        )
        problems = load_dataset(benchmark, "b", FIELDS, AnswerKind.INTEGER_EXACT)
        assert [(p.statement, p.gold_answer) for p in problems] == [("p", "1"), ("q", "2")]
        lines = [json.dumps(to_json_dict(make_record(i))).encode() for i in range(2)]
        records.write_bytes(lines[0] + b"\r\n\r\n  \n" + lines[1] + b"\r\n")
        assert read_records(records) == [make_record(0), make_record(1)]


class TestRegistry:
    def test_default_registry_covers_the_five_benchmarks(self):
        registry = load_registry()
        assert set(registry) == {"aime24", "amc", "math500", "minerva", "olympiadbench"}
        assert registry["aime24"].kind is AnswerKind.INTEGER_EXACT
        for name in ("amc", "math500", "minerva", "olympiadbench"):
            assert registry[name].kind is AnswerKind.MATH_EXPRESSION

    def test_registry_from_file(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(
            json.dumps({"toy": {"statement_field": "q", "answer_field": "a", "kind": "integer_exact"}})
        )
        registry = load_registry(path)
        assert registry["toy"].field_map.statement == "q"
        assert registry["toy"].kind is AnswerKind.INTEGER_EXACT

    def test_registry_entry_takes_config_defaults(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"toy": {"answer_field": "a"}}))
        spec = load_registry(path)["toy"]
        assert (spec.field_map, spec.kind) == (
            FieldMap(statement="problem", answer="a"), AnswerKind.MATH_EXPRESSION
        )

    @pytest.mark.parametrize(
        "entry",
        [["q", "a"], {"kind": "bogus"}, {"statement_field": 3}, {"id_field": ["id"]}],
        ids=["list", "unknown_kind", "number_field", "list_id_field"],
    )
    def test_bad_registry_entry_names_the_benchmark(self, tmp_path, entry):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"toy": entry}))
        with pytest.raises(ValueError, match="'toy'"):
            load_registry(path)

    def test_registry_nested_too_deep_is_a_value_error(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="not JSON: "):
            load_registry(path)


def make_record(i=0, **overrides):
    fields = dict(
        problem_id=str(i + 1),
        benchmark="toy",
        model_id="m1",
        strategy=PromptStrategy.HICOT,
        completion_text=f"\\boxed{{{i}}}",
        completion_tokens=10 + i,
        token_source=TokenSource.API_USAGE,
        judgment=Judgment(str(i), str(i), True, JudgeReason.MATCH),
        format_report=FormatReport(True, True, True, True, 2, 2),
        compliant=True,
        timestamp="2026-08-08T00:00:00+00:00",
    )
    fields.update(overrides)
    return EvalRecord(**fields)


_judgments = st.builds(
    Judgment,
    predicted_raw=st.one_of(st.none(), st.text(max_size=30)),
    predicted_normalized=st.one_of(st.none(), st.text(max_size=30)),
    correct=st.booleans(),
    reason=st.sampled_from(list(JudgeReason)),
    out_of_range=st.booleans(),
)

_reports = st.builds(
    FormatReport,
    alternation_ok=st.booleans(),
    step_alignment_ok=st.booleans(),
    boxed_present=st.booleans(),
    compliant=st.booleans(),
    instruction_count=st.integers(min_value=0, max_value=20),
    execution_count=st.integers(min_value=0, max_value=20),
)

_records = st.builds(
    EvalRecord,
    problem_id=st.text(min_size=1, max_size=10),
    benchmark=st.text(min_size=1, max_size=10),
    model_id=st.text(min_size=1, max_size=20),
    strategy=st.sampled_from(list(PromptStrategy)),
    completion_text=st.text(max_size=200),
    completion_tokens=st.integers(min_value=0, max_value=10**6),
    token_source=st.sampled_from(list(TokenSource)),
    judgment=_judgments,
    format_report=_reports,
    compliant=st.booleans(),
    timestamp=st.text(max_size=30),
    client_error=st.one_of(st.none(), st.text(max_size=50)),
)


_results = st.builds(
    CompletionResult,
    text=st.text(max_size=200),
    completion_tokens=st.integers(min_value=0, max_value=10**6),
    token_source=st.sampled_from(list(TokenSource)),
    latency_ms=st.integers(min_value=0, max_value=10**6),
    from_cache=st.booleans(),
)

_percent = st.floats(min_value=0, max_value=100)
_summaries = st.builds(
    MetricsSummary,
    model_id=st.text(min_size=1, max_size=20),
    strategy=st.sampled_from(list(PromptStrategy)),
    benchmark=st.text(min_size=1, max_size=10),
    n=st.integers(min_value=1, max_value=10**4),
    pass_at_1=_percent,
    avg_completion_tokens=st.one_of(st.none(), st.floats(min_value=0, max_value=1e6)),
    compliance_rate=_percent,
    conditional_pass_at_1=st.one_of(st.none(), _percent),
    conditional_avg_tokens=st.one_of(st.none(), st.floats(min_value=0, max_value=1e6)),
)

# A record line with every optional value set. A version of another type is an
# unknown version, refused before any field is read, so it is not swapped.
_FULL_ROW = to_json_dict(make_record(0, client_error="EndpointUnreachable: x"))
_ROW_PATHS = key_paths(_FULL_ROW, skip={("schema_version",)})
_NULL = (type(None),)
_ROW_NULLABLE = {
    ("client_error",): _NULL,
    ("judgment", "predicted_raw"): _NULL,
    ("judgment", "predicted_normalized"): _NULL,
}


class TestRecordsRoundTrip:
    def test_timestamp_is_utc_iso_to_the_second(self):
        # The form records have always carried: that of
        # ``datetime.now(timezone.utc).isoformat(timespec="seconds")``.
        reference = datetime.now(timezone.utc)
        stamp = now_timestamp()
        form = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"
        assert re.fullmatch(form, reference.isoformat(timespec="seconds"))
        assert re.fullmatch(form, stamp)
        parsed = datetime.fromisoformat(stamp)
        assert parsed.utcoffset() == timedelta(0)
        assert timedelta(0) <= parsed - reference.replace(microsecond=0) <= timedelta(seconds=5)

    def test_timestamp_is_the_second_of_the_clock_datetime_reads(self, monkeypatch):
        # ``time.gmtime()`` with no argument reads a coarser clock, which can lag
        # ``time.time()`` by a tick just after a second boundary.
        instant = datetime(2026, 8, 8, 12, 34, 56, 900000, tzinfo=timezone.utc).timestamp()
        monkeypatch.setattr(time, "time", lambda: instant)
        assert now_timestamp() == "2026-08-08T12:34:56+00:00"

    def test_hundred_records_round_trip(self, tmp_path):
        records = [make_record(i) for i in range(100)]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        assert read_records(path) == records

    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(_records, max_size=6))
    def test_round_trip_is_lossless(self, records):
        lines = [json.dumps(to_json_dict(r), ensure_ascii=False) for r in records]
        back = [from_json_dict(EvalRecord, json.loads(line), "record") for line in lines]
        assert back == records

    @settings(max_examples=60, deadline=None)
    @given(results=st.lists(_results, max_size=4), summaries=st.lists(_summaries, max_size=4))
    def test_cache_entries_and_summaries_round_trip(self, results, summaries):
        for item in [*results, *summaries]:
            line = json.dumps(to_json_dict(item), ensure_ascii=False, allow_nan=False)
            assert from_json_dict(type(item), json.loads(line), "item") == item

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_value_of_another_json_type_is_schema_mismatch(self, tmp_path, capsys, data):
        key, spoiled = swap_one(data, _FULL_ROW, _ROW_PATHS, _ROW_NULLABLE)
        named = f"record.{'.'.join(key)}"
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(_FULL_ROW) + "\n" + json.dumps(spoiled) + "\n")
        with pytest.raises(MalformedLine, match=re.escape(f":2: {named}") + r"\b"):
            read_records(path)
        capsys.readouterr()
        assert main(["score", str(path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{path}:2: {named}" in err and "Traceback" not in err

    def test_corrupted_line_raises_schema_mismatch(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([make_record(0), make_record(1)], path)
        text = path.read_text().splitlines()
        text[1] = text[1][: len(text[1]) // 2]  # corrupt the middle of line 2
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(MalformedLine, match=":2: not JSON") as excinfo:
            read_records(path)
        assert excinfo.value.line_no == 2

    def test_record_line_is_pinned(self, tmp_path):
        # The v1 on-disk form: keys are the field names, sorted, non-ASCII kept.
        golden = (
            '{"benchmark": "toy", "client_error": "EndpointUnreachable: é", '
            '"completion_text": "x = 7 → \\\\boxed{7}", "completion_tokens": 10, '
            '"compliant": true, "format_report": {"alternation_ok": true, '
            '"boxed_present": true, "compliant": true, "execution_count": 2, '
            '"instruction_count": 2, "step_alignment_ok": true}, "judgment": '
            '{"correct": false, "out_of_range": true, "predicted_normalized": "7", '
            '"predicted_raw": "7", "reason": "mismatch"}, "model_id": "m1", '
            '"problem_id": "1", "schema_version": 1, "strategy": "hicot", '
            '"timestamp": "2026-08-08T00:00:00+00:00", "token_source": "api_usage"}\n'
        )
        record = make_record(
            0,
            completion_text="x = 7 → \\boxed{7}",
            judgment=Judgment("7", "7", False, JudgeReason.MISMATCH, out_of_range=True),
            client_error="EndpointUnreachable: é",
        )
        path = tmp_path / "records.jsonl"
        write_records([record], path)
        assert path.read_text(encoding="utf-8") == golden
        assert read_records(path) == [record]

    def test_minimal_v1_line_reads_with_defaults(self, tmp_path):
        row = to_json_dict(make_record(0))
        for key in ("timestamp", "client_error"):
            del row[key]
        del row["judgment"]["out_of_range"]
        del row["format_report"]["instruction_count"]
        del row["format_report"]["execution_count"]
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert read_records(path) == [
            make_record(
                0,
                timestamp="",
                client_error=None,
                judgment=Judgment("0", "0", True, JudgeReason.MATCH, out_of_range=False),
                format_report=FormatReport(True, True, True, True, 0, 0),
            )
        ]

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda row: {**row, "judgment": None},
            lambda row: {**row, "format_report": [1]},
            lambda row: {**row, "judgment": {**row["judgment"], "reason": "close"}},
            lambda row: {**row, "grade": "A"},
            lambda row: {**row, "format_report": {**row["format_report"], "depth": 2}},
            lambda row: {**row, "judgment": {**row["judgment"], "correct": "false"}},
            lambda row: {**row, "compliant": "false"},
            lambda row: {**row, "completion_tokens": "5"},
        ],
        ids=["null_judgment", "list_format_report", "unknown_reason", "unknown_key",
             "unknown_nested_key", "string_correct", "string_compliant", "string_tokens"],
    )
    def test_bad_record_is_schema_mismatch(self, tmp_path, capsys, spoil):
        path = tmp_path / "records.jsonl"
        lines = [json.dumps(to_json_dict(make_record(0))), json.dumps(spoil(to_json_dict(make_record(1))))]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:2: record")) as excinfo:
            read_records(path)
        assert excinfo.value.line_no == 2
        assert main(["score", str(path)]) == EXIT_IO
        assert f"{path}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("count,bad", [(2, 2), (300, 257)], ids=["line_2", "past_first_chunk"])
    def test_line_not_utf8_is_schema_mismatch(self, tmp_path, capsys, count, bad):
        path = tmp_path / "records.jsonl"
        records = [make_record(i) for i in range(count)]
        records[bad - 1] = make_record(bad - 1, completion_text="café = \\boxed{1}")
        write_records(records, path)
        path.write_bytes(path.read_bytes().replace("é".encode(), b"\xe9"))  # Latin-1
        with pytest.raises(MalformedLine, match="not UTF-8") as excinfo:
            read_records(path)
        assert excinfo.value.line_no == bad
        assert main(["score", str(path)]) == EXIT_IO
        assert f"{path}:{bad}: not UTF-8" in capsys.readouterr().err

    def test_unknown_version_raises_schema_mismatch(self, tmp_path):
        path = tmp_path / "records.jsonl"
        row = to_json_dict(make_record(0))
        row["schema_version"] = 99
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(MalformedLine, match=":1: unknown record version 99"):
            read_records(path)

    def test_token_count_no_float_holds_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([make_record(0, completion_tokens=2**53 - 1), make_record(1)], path)
        assert [r.completion_tokens for r in read_records(path)] == [2**53 - 1, 11]
        write_records([make_record(0), make_record(1, completion_tokens=2**53)], path)
        with pytest.raises(MalformedLine, match=re.escape(":2: record.completion_tokens")):
            read_records(path)

    def test_unknown_token_source_is_schema_mismatch(self, tmp_path, capsys):
        # The client sets one of two token sources: any other is a bad line, not a third.
        path = tmp_path / "records.jsonl"
        row = to_json_dict(make_record(1))
        path.write_text(
            json.dumps(to_json_dict(make_record(0))) + "\n"
            + json.dumps({**row, "token_source": "bogus"}) + "\n"
        )
        with pytest.raises(MalformedLine, match=re.escape(":2: record.token_source")):
            read_records(path)
        assert main(["score", str(path)]) == EXIT_IO
        assert f"{path}:2: record.token_source" in capsys.readouterr().err
        path.write_text(json.dumps(row) + "\n")
        assert read_records(path)[0].token_source is TokenSource.API_USAGE


class TestResume:
    def test_writer_appends_and_resume_reads(self, tmp_path):
        path = tmp_path / "records.jsonl"
        with RecordWriter(path) as writer:
            writer.append(make_record(0))
            writer.append(make_record(1))
        with RecordWriter(path) as writer:
            writer.append(make_record(2))
        records = list(load_resumable(path))
        assert [r.problem_id for r in records] == ["1", "2", "3"]

    def test_missing_file_is_empty(self, tmp_path):
        assert list(load_resumable(tmp_path / "absent.jsonl")) == []

    @pytest.mark.parametrize("tail", ["half_record", "cut_character", "no_newline"])
    def test_torn_tail_is_repaired(self, tmp_path, tail):
        path = tmp_path / "records.jsonl"
        write_records([make_record(0), make_record(1)], path)
        whole = path.read_bytes()
        # The next record's line, as an append writes it: non-ASCII text stays UTF-8.
        write_records([make_record(2, completion_text="π = \\boxed{3}")], tmp_path / "next")
        line = (tmp_path / "next").read_bytes()
        torn = {
            "half_record": line[:40],  # ASCII, up to the completion text
            "cut_character": line[: line.index("π".encode()) + 1],
            "no_newline": line[:-1],  # a whole record; only its newline is missing
        }[tail]
        path.write_bytes(whole + torn)
        records = list(load_resumable(path))
        assert [r.problem_id for r in records] == ["1", "2"]
        # File was truncated back to the durable prefix.
        assert path.read_bytes() == whole
        # A file that ends in a newline is left as it is.
        os.utime(path, ns=(0, 0))
        assert list(load_resumable(path)) == records
        assert path.stat().st_mtime_ns == 0
        # Appending after repair yields a clean, strictly readable file.
        with RecordWriter(path) as writer:
            writer.append(make_record(2))
        assert [r.problem_id for r in read_records(path)] == ["1", "2", "3"]

    def test_file_without_a_newline_is_truncated_to_empty(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([make_record(0)], path)
        path.write_bytes(path.read_bytes()[:-1])
        assert list(load_resumable(path)) == []
        assert path.read_bytes() == b""

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records([make_record(0), make_record(1)], path)
        lines = path.read_text().splitlines()
        lines[0] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedLine, match=":1: not JSON"):
            list(load_resumable(path))

    def test_problem_dataclass_fields(self):
        problem = Problem("1", "toy", "what?", "42", AnswerKind.MATH_EXPRESSION)
        assert problem.id and problem.statement and problem.gold_answer


class TestGroupCommit:
    def test_append_flushes_but_never_fsyncs(self, tmp_path, fsync_sizes):
        path = tmp_path / "records.jsonl"
        with RecordWriter(path) as writer:
            for i in range(3):
                writer.append(make_record(i))
            assert len(read_records(path)) == 3  # each line is flushed as it is appended
            assert fsync_sizes == []

    def test_sync_fsyncs_once_then_is_a_no_op(self, tmp_path, fsync_sizes):
        path = tmp_path / "records.jsonl"
        with RecordWriter(path) as writer:
            writer.append(make_record(0))
            writer.append(make_record(1))
            writer.sync()
            assert fsync_sizes == [path.stat().st_size]
            writer.sync()
            assert len(fsync_sizes) == 1
            writer.append(make_record(2))
            writer.sync()
            assert fsync_sizes[1:] == [path.stat().st_size]

    def test_close_syncs_only_what_is_unsynced(self, tmp_path, fsync_sizes):
        path = tmp_path / "records.jsonl"
        RecordWriter(path).close()
        assert fsync_sizes == []
        writer = RecordWriter(path)
        writer.append(make_record(0))
        writer.sync()
        writer.close()
        assert len(fsync_sizes) == 1
        with RecordWriter(path) as writer:
            writer.append(make_record(1))
        assert fsync_sizes[1:] == [path.stat().st_size]

    def test_exit_on_interrupt_syncs(self, tmp_path, fsync_sizes):
        path = tmp_path / "records.jsonl"
        with pytest.raises(KeyboardInterrupt):
            with RecordWriter(path) as writer:
                writer.append(make_record(0))
                raise KeyboardInterrupt
        assert fsync_sizes == [path.stat().st_size] and len(read_records(path)) == 1


# Text weighted to what a JSON string literal must escape or may spell in more
# than one way: a backslash, a quote, a slash and ``u``, control characters,
# non-ASCII, U+2028 and astral characters.
_literal_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('\\"/u'),
        st.characters(max_codepoint=0x1F),
        st.characters(min_codepoint=0x7F, max_codepoint=0xFFFF, exclude_categories=("Cs",)),
        st.just("\u2028"),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=40,
)


def _other_spellings(entry: dict) -> dict:
    """Cache entries holding ``entry``'s values, spelled as ``_write_cache`` does not."""
    written = json.dumps(entry, ensure_ascii=False)
    ascii_only = json.dumps(entry)
    return {
        "ensure_ascii": ascii_only,
        "escaped_slash": written.replace("/", "\\/"),
        "uppercase_hex": re.sub(
            r"\\u[0-9a-f]{4}", lambda m: "\\u" + m[0][2:].upper(), ascii_only
        ),
        "keys_reordered": json.dumps(dict(reversed(entry.items())), ensure_ascii=False),
        "repeated_text_first": '{"text": "decoy", ' + written[1:],
        "repeated_text_last": written[:-1] + ', "text": "last"}',
        "extra_whitespace": json.dumps(entry, ensure_ascii=False, separators=(" ,  ", " :  ")),
        "spaced_members": json.dumps(entry, ensure_ascii=False, separators=(",  ", ": ")),
    }


class TestCacheHitLine:
    """A cache hit's text, and the record line that copies its JSON literal."""

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(text=_literal_texts, record=_records)
    def test_hit_reads_as_parsed_and_its_line_as_encoded(self, tmp_path, text, record):
        client = ChatClient(Endpoint("http://127.0.0.1:1"), tmp_path / "cache")
        entry_path = tmp_path / "entry.json"
        result = CompletionResult(text, 5, TokenSource.API_USAGE, 12)
        # The entry as earlier versions wrote it, so their entries stay hits, and
        # the text's literal as ``json.dumps`` spells it.
        written = json.dumps(text, ensure_ascii=False)
        assert client._write_cache(entry_path, result) == written
        assert entry_path.read_text(encoding="utf-8") == json.dumps(
            to_json_dict(result), ensure_ascii=False
        )
        entries = {
            "written": entry_path.read_text(encoding="utf-8"),
            **_other_spellings(to_json_dict(result)),
        }
        records, literals = [], {}
        for name, raw in entries.items():
            entry_path.write_text(raw, encoding="utf-8")
            hit, literals[name] = client._read_cache(entry_path)
            assert hit.text == parse_json(raw)["text"], name
            if literals[name] is not None:
                assert literals[name] == json.dumps(hit.text, ensure_ascii=False), name
            records.append(dataclasses.replace(record, completion_text=hit.text))
        # An error record, like any line of ``write_records``, has its text encoded.
        records.append(dataclasses.replace(record, completion_text=text, client_error="HTTP 503"))
        literals["error_record"] = None

        # As written, only a literal holding ``\\u`` or ``\\/`` is encoded again.
        assert (literals["written"] is None) == bool(re.search(r"\\[u/]", written))
        out = tmp_path / "records.jsonl"
        out.unlink(missing_ok=True)
        with RecordWriter(out) as writer:
            for line_record, text_json in zip(records, literals.values()):
                writer.append(line_record, text_json)
        assert out.read_text(encoding="utf-8") == "".join(
            json.dumps(to_json_dict(r), ensure_ascii=False, sort_keys=True) + "\n" for r in records
        )

    def test_line_copies_the_literal_past_a_lookalike_member(self, tmp_path):
        lookalike = '"completion_text": ""'
        record = make_record(
            0,
            problem_id=lookalike,
            completion_text='say "hi"\n',
            judgment=Judgment(lookalike, lookalike, False, JudgeReason.MISMATCH),
        )
        out = tmp_path / "records.jsonl"
        with RecordWriter(out) as writer:
            writer.append(record, json.dumps(record.completion_text, ensure_ascii=False))
        line = json.dumps(to_json_dict(record), ensure_ascii=False, sort_keys=True)
        assert out.read_text(encoding="utf-8") == line + "\n"


_entries = st.builds(
    BenchmarkEntry,
    statement_field=st.text(max_size=20),
    answer_field=st.text(max_size=20),
    id_field=st.one_of(st.none(), st.text(max_size=20)),
    kind=st.sampled_from(list(AnswerKind)),
    path=st.text(alphabet="ab/.", min_size=1, max_size=20).map(Path),
)

_specs = st.builds(
    BenchmarkSpec,
    statement_field=st.text(max_size=20),
    answer_field=st.text(max_size=20),
    id_field=st.one_of(st.none(), st.text(max_size=20)),
    kind=st.sampled_from(list(AnswerKind)),
)


def _nested(depth: int) -> list:
    """A list nested ``depth`` deep: more than ``json.dumps`` can encode."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def _required(cls, where=()) -> list:
    """The key path of every required field of ``cls`` and of its nested dataclasses."""
    paths = []
    hints = get_type_hints(cls)
    for field in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[field.name]):
            paths.extend(_required(hints[field.name], where + (field.name,)))
        if field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING:
            paths.append(where + (field.name,))
    return paths


class TestDecoder:
    """``from_json_dict`` fills plain dataclasses without their ``__init__`` and
    calls the classes that check their fields."""

    @settings(max_examples=60, deadline=None)
    @given(item=st.one_of(_records, _judgments, _reports, _results, _entries))
    def test_round_trip_keeps_the_fields_in_order(self, item):
        data = to_json_dict(item)
        if isinstance(item, BenchmarkEntry):
            data["path"] = str(item.path)  # a Path is written as text
        back = from_json_dict(type(item), data, "x")
        assert back == item
        assert list(vars(back).items()) == list(vars(item).items())

    @pytest.mark.parametrize("key", _required(EvalRecord), ids=".".join)
    def test_missing_required_key_is_named(self, tmp_path, key):
        row = to_json_dict(make_record(1))
        *parents, name = key
        parent = row
        for step in parents:
            parent = parent[step]
        del parent[name]
        path = _write_jsonl(tmp_path / "records.jsonl", [to_json_dict(make_record(0)), row])
        named = "record." + ".".join(key)
        with pytest.raises(MalformedLine, match=re.escape(f":2: {named} is missing")):
            read_records(path)

    @pytest.mark.parametrize(
        "cls, data, refused",
        [
            (Endpoint, {"base_url": "ftp://x"}, "base_url"),
            (SamplingParams, {"max_tokens": 0}, "max_tokens"),
            (ModelOverride, {"extra_body": {"x": float("nan")}}, "extra_body"),
            (ModelOverride, {"extra_body": {"x": _nested(100_000)}}, "extra_body"),
            (
                RunConfig,
                {
                    "endpoint": {"base_url": "http://h"},
                    "models": ["m"],
                    "strategies": ["cot"],
                    "benchmarks": {"b": "b.jsonl"},
                    "concurrency": 0,
                },
                "concurrency",
            ),
        ],
        ids=["Endpoint", "SamplingParams", "ModelOverride", "ModelOverride_deep", "RunConfig"],
    )
    def test_post_init_check_still_refuses(self, cls, data, refused):
        with pytest.raises(JsonMismatch, match=re.escape(f"config.{refused} ")):
            from_json_dict(cls, data, "config")


def _decoded(cls, data):
    """``from_json_dict(cls, data, "x")`` with its fields in ``__dict__`` order,
    or the message of the JsonMismatch it raises."""
    try:
        obj = from_json_dict(cls, data, "x")
    except JsonMismatch as exc:
        return f"JsonMismatch: {exc}"
    return obj, list(vars(obj).items())


def _decoded_by_the_loop(cls, data):
    """``_decoded`` with every compiled reader taken away, so that each class,
    nested ones too, is read by the loop over the object's keys alone."""
    with mock.patch.dict(codec._COMPILED, dict.fromkeys(codec._COMPILED)):
        return _decoded(cls, data)


def _json_form(item) -> dict:
    data = to_json_dict(item)
    if isinstance(data.get("path"), Path):
        data["path"] = str(data["path"])  # a Path is written as text
    return data


# Another spelling of each Enum value, which the compiled reader leaves to the loop.
_OTHER_SPELLINGS = st.sampled_from(
    ["CoT", "HICOT", "Hi-CoT", "plan_and_solve", "API_USAGE", "Match"]
)


@st.composite
def _mutated(draw, document: dict) -> dict:
    """``document`` as it is, or with one fault of ``tests/json_faults.py`` or one
    key dropped, added, moved or spelled otherwise, at any depth."""
    paths = key_paths(document)
    kind = draw(st.sampled_from(["none", "swap", "drop", "add", "move", "spelling", "not_object"]))
    if kind == "swap":
        return swap_one(draw(st.data()), document, paths, {})[1]
    if kind == "not_object":
        return draw(st.one_of(st.none(), st.lists(st.integers(), max_size=2), st.text(max_size=3)))
    spoiled = copy.deepcopy(document)
    path = draw(st.sampled_from(paths))
    node = spoiled
    for key in path[:-1]:
        node = node[key]
    if kind == "drop":
        del node[path[-1]]
    elif kind == "add":
        node[draw(st.text(max_size=3).filter(lambda k: k not in node))] = 1
    elif kind == "move":  # the same keys in another order: the loop names the first bad one
        node[path[-1]] = node.pop(path[-1])
    elif kind == "spelling":
        node[path[-1]] = draw(_OTHER_SPELLINGS)
    return spoiled


class _OrderedRow(dict):
    """A dict of another type, which only the loop reads."""


# The classes that ``build`` fills without their ``__init__``.
_PLAIN = (EvalRecord, Judgment, FormatReport, CompletionResult, BenchmarkSpec, BenchmarkEntry)


class TestCompiledReader:
    """A plain record class is read by a reader compiled once per class; any object
    it does not take is read by the loop, with the same outcome as the loop alone."""

    @pytest.fixture(autouse=True, scope="class")
    def compiled_now(self):
        """Every plain class's reader compiled before any case here, so that each
        has a table entry for ``_decoded_by_the_loop`` to take away."""
        for cls in _PLAIN:
            if cls not in codec._COMPILED:
                codec._prepare(cls)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), item=st.one_of(_records, _results, _entries, _specs))
    def test_reads_as_the_loop_alone(self, data, item):
        cls = type(item)
        document = data.draw(_mutated(_json_form(item)), label="document")
        compiled = _decoded(cls, copy.deepcopy(document))
        assert compiled == _decoded_by_the_loop(cls, copy.deepcopy(document))

    def test_only_plain_classes_are_compiled(self):
        checked = (Endpoint, SamplingParams, ModelOverride, RunConfig)
        with mock.patch.dict(codec._COMPILED, clear=True):
            assert all(isinstance(codec._prepare(cls), types.FunctionType) for cls in _PLAIN)
            assert all(codec._prepare(cls) is None for cls in checked)

    def test_class_is_compiled_at_its_first_read(self):
        data = _json_form(make_record(0))
        with mock.patch.dict(codec._COMPILED, clear=True):
            assert from_json_dict(EvalRecord, data, "x") == make_record(0)
            # The nested classes are compiled with it.
            for cls in (EvalRecord, Judgment, FormatReport):
                assert isinstance(codec._COMPILED[cls], types.FunctionType)
            assert codec._COMPILED[EvalRecord](data) == make_record(0)

    def test_well_formed_record_is_read_by_the_compiled_reader(self):
        record = make_record(3)
        assert from_json_dict(EvalRecord, to_json_dict(record), "record") == record
        assert codec._COMPILED[EvalRecord](to_json_dict(record)) == record

    @pytest.mark.parametrize(
        "cls, change, expected",
        [
            pytest.param(
                EvalRecord, lambda d: [d], "JsonMismatch: x must be an object", id="not_a_dict"
            ),
            pytest.param(
                EvalRecord,
                lambda d: _OrderedRow(d),
                make_record(0),
                id="dict_subclass",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {k: v for k, v in d.items() if k != "timestamp"},
                make_record(0, timestamp=""),
                id="absent_key_takes_its_default",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "extra": 1},
                "JsonMismatch: x.extra is not a known key",
                id="unknown_key",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {"extra": 1, **{k: v for k, v in d.items() if k != "compliant"}},
                "JsonMismatch: x.extra is not a known key",
                id="unknown_key_for_an_absent_one",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "completion_tokens": True},
                "JsonMismatch: x.completion_tokens must be an integer",
                id="wrong_type",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "client_error": None, "timestamp": None},
                "JsonMismatch: x.timestamp must be a string",
                id="none_for_a_required_string",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "strategy": "CoT"},
                make_record(0, strategy=PromptStrategy.COT),
                id="other_enum_spelling",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "token_source": ["api_usage"]},
                "JsonMismatch: x.token_source: ['api_usage'] is not a valid TokenSource",
                id="unhashable_enum_value",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "judgment": {**d["judgment"], "reason": "nope"}},
                "JsonMismatch: x.judgment.reason: 'nope' is not a valid JudgeReason",
                id="nested_miss",
            ),
            pytest.param(
                EvalRecord,
                lambda d: {**d, "format_report": {
                    k: v for k, v in d["format_report"].items() if k != "execution_count"
                }},
                make_record(0, format_report=FormatReport(True, True, True, True, 2, 0)),
                id="nested_absent_key",
            ),
            pytest.param(
                BenchmarkEntry,
                lambda d: {**d, "path": ""},
                "JsonMismatch: x.path must be a non-empty string",
                id="field_of_its_own_reader",
            ),
        ],
    )
    def test_object_it_does_not_take_is_read_by_the_loop(self, cls, change, expected):
        item = make_record(0) if cls is EvalRecord else BenchmarkEntry(path=Path("b.jsonl"))
        data = change(_json_form(item))
        assert _decoded(cls, data) == _decoded_by_the_loop(cls, data)
        assert codec._COMPILED[cls](data) is codec._MISS
        if isinstance(expected, str):
            assert _decoded(cls, data) == expected
        else:
            assert from_json_dict(cls, data, "x") == expected



def _dumped(obj) -> str:
    """``obj`` as ``to_json_dict`` and ``json.dumps`` write it, a newline after it."""
    return json.dumps(to_json_dict(obj), ensure_ascii=False, sort_keys=True) + "\n"


class _Str(str):
    """A str of another type, which only the fallback writes."""


_WRITER_KEY = (EvalRecord, "completion_text")

_written_records = st.builds(
    EvalRecord,
    problem_id=_literal_texts,
    benchmark=_literal_texts,
    model_id=_literal_texts,
    strategy=st.sampled_from(list(PromptStrategy)),
    completion_text=_literal_texts,
    completion_tokens=st.integers(min_value=0, max_value=10**12),
    token_source=st.sampled_from(list(TokenSource)),
    judgment=st.builds(
        Judgment,
        predicted_raw=st.one_of(st.none(), _literal_texts),
        predicted_normalized=st.one_of(st.none(), _literal_texts),
        correct=st.booleans(),
        reason=st.sampled_from(list(JudgeReason)),
        out_of_range=st.booleans(),
    ),
    format_report=_reports,
    compliant=st.booleans(),
    timestamp=_literal_texts,
    client_error=st.one_of(st.none(), _literal_texts),
)


class TestCompiledWriter:
    """A record line is written by a writer compiled once per class, byte for byte
    as ``to_json_dict`` and ``json.dumps`` write it; any record it does not take is
    written by those two."""

    @pytest.fixture(autouse=True, scope="class")
    def compiled_now(self):
        """The record writer compiled before any case here, which calls it directly."""
        if _WRITER_KEY not in codec._WRITERS:
            codec._prepare_writer(_WRITER_KEY)

    @settings(deadline=None)
    @given(record=_written_records)
    def test_line_is_byte_identical_to_the_json_dumps_one(self, record):
        expected = _dumped(record)
        literal = json.dumps(record.completion_text, ensure_ascii=False)
        assert codec._WRITERS[_WRITER_KEY](record, None) == expected
        assert _record_line(record) == expected
        assert _record_line(record, literal) == expected
        assert _record_line(record).encode("utf-8") == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "record",
        [
            # As ``bench/run.py`` builds the records of its report workload.
            pytest.param(make_record(0, token_source="api_usage"), id="str_in_an_enum_field"),
            pytest.param(make_record(0, completion_tokens=True), id="bool_in_an_int_field"),
            pytest.param(make_record(0, model_id=_Str("m1")), id="str_subclass"),
            pytest.param(
                make_record(0, judgment=Judgment("1", "1", 1, JudgeReason.MATCH)),
                id="int_in_a_nested_bool_field",
            ),
        ],
    )
    def test_record_it_does_not_take_is_written_by_json_dumps(self, record):
        assert codec._WRITERS[_WRITER_KEY](record, None) is codec._MISS
        with mock.patch.object(codec, "to_json_dict", wraps=codec.to_json_dict) as fallback:
            line = _record_line(record, json.dumps(record.completion_text, ensure_ascii=False))
        assert fallback.called
        assert line == _dumped(record)

    def test_writer_is_compiled_at_its_first_line(self):
        record = make_record(0)
        with mock.patch.dict(codec._WRITERS, clear=True):
            assert _record_line(record) == _dumped(record)
            assert isinstance(codec._WRITERS[_WRITER_KEY], types.FunctionType)
            assert codec._WRITERS[_WRITER_KEY](record, None) == _dumped(record)

    def test_class_with_a_field_it_cannot_write_has_no_writer(self):
        summary = MetricsSummary("m", PromptStrategy.COT, "b", 3, 50.0, None, 100.0, None, 1.5)
        with mock.patch.dict(codec._WRITERS, clear=True):
            assert codec._prepare_writer((MetricsSummary, None)) is None
            assert codec.to_json_line(summary) == _dumped(summary)
