"""Aggregation, macro averaging, and table/plot emission."""

import csv
import io
import json
import random
import re
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hicot.cli import cmd_report, cmd_score
from hicot.codec import from_json_dict
from hicot.datasets import EvalRecord, write_records
from hicot.judge import JudgeReason, Judgment
from hicot.metrics import (
    DuplicateKey,
    MetricsSummary,
    PlotKind,
    SHORT_MARK,
    TableFormat,
    Tally,
    aggregate,
    cell_order,
    display_round,
    emit_plot_data,
    emit_table,
    macro_average,
)
from hicot.prompts import PromptStrategy
from hicot.traces import FormatReport

DATA = Path(__file__).parent / "data"


def record(
    problem_id,
    correct,
    compliant=True,
    tokens=100,
    benchmark="toy",
    model="m1",
    strategy=PromptStrategy.HICOT,
    client_error=None,
):
    reason = JudgeReason.MATCH if correct else JudgeReason.MISMATCH
    return EvalRecord(
        problem_id=str(problem_id),
        benchmark=benchmark,
        model_id=model,
        strategy=strategy,
        completion_text="\\boxed{1}",
        completion_tokens=tokens,
        token_source="api_usage",
        judgment=Judgment("1", "1", correct, reason),
        format_report=FormatReport(compliant, compliant, True, compliant, 2, 2),
        compliant=compliant,
        timestamp="2026-08-08T00:00:00+00:00",
        client_error=client_error,
    )


class TestDisplayRound:
    @pytest.mark.parametrize(
        "value,shown",
        [
            (41.88, "41.9"),
            (36.04, "36.0"),
            (3.3333333, "3.3"),
            (0.25, "0.3"),  # halves round away from zero
            (0.15, "0.2"),
            (-0.15, "-0.2"),
            (100.0, "100.0"),
            (0.0, "0.0"),
        ],
    )
    def test_half_away_from_zero(self, value, shown):
        assert display_round(value) == shown


class TestAggregate:
    def test_three_of_five_correct(self):
        records = [record(i, correct=i < 3) for i in range(5)]
        (summary,) = aggregate(records)
        assert summary.pass_at_1 == 60.0
        assert summary.n == 5

    def test_one_of_thirty_displays_aime_step(self):
        records = [record(i, correct=i == 0) for i in range(30)]
        (summary,) = aggregate(records)
        assert display_round(summary.pass_at_1) == "3.3"

    def test_conditional_metrics_over_compliant_subset(self):
        records = [
            record(0, correct=True, compliant=True, tokens=50),
            record(1, correct=True, compliant=True, tokens=70),
            record(2, correct=False, compliant=False, tokens=200),
            record(3, correct=False, compliant=False, tokens=180),
        ]
        (summary,) = aggregate(records)
        assert summary.pass_at_1 == 50.0
        assert summary.conditional_pass_at_1 == 100.0
        assert summary.compliance_rate == 50.0
        assert summary.conditional_avg_tokens == 60.0
        assert summary.avg_completion_tokens == 125.0

    def test_no_compliant_records_gives_absent_conditionals(self):
        records = [record(i, correct=False, compliant=False) for i in range(3)]
        (summary,) = aggregate(records)
        assert summary.conditional_pass_at_1 is None
        assert summary.conditional_avg_tokens is None

    def test_duplicate_key_rejected(self):
        records = [record(1, True), record(1, True)]
        with pytest.raises(DuplicateKey):
            aggregate(records)

    def test_error_records_count_in_denominator(self):
        records = [
            record(0, correct=True),
            record(1, correct=False, compliant=False, tokens=0,
                   client_error="ContextOverflow: too long"),
        ]
        (summary,) = aggregate(records)
        assert summary.n == 2
        assert summary.pass_at_1 == 50.0

    def test_error_records_leave_the_token_mean(self):
        timeout = "EndpointUnreachable: gave up after 4 attempts (TimeoutError: timed out)"
        records = [record(i, correct=True, tokens=1000) for i in range(2)] + [
            record(i, correct=False, compliant=False, tokens=0, client_error=timeout)
            for i in range(2, 4)
        ]
        (summary,) = aggregate(records)
        assert summary.avg_completion_tokens == 1000.0
        assert summary.pass_at_1 == 50.0

    @settings(max_examples=60, deadline=None)
    @given(
        tokens=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
        error_tokens=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
    )
    def test_adding_error_records_never_moves_the_token_mean(self, tokens, error_tokens):
        scored = [record(i, correct=i % 2 == 0, tokens=t) for i, t in enumerate(tokens)]
        errors = [
            record(len(tokens) + i, correct=False, compliant=False, tokens=t,
                   client_error="ContextOverflow: too long")
            for i, t in enumerate(error_tokens)
        ]
        (before,) = aggregate(scored)
        (after,) = aggregate(scored + errors)
        assert after.avg_completion_tokens == before.avg_completion_tokens
        assert after.n == len(tokens) + len(error_tokens)

    def test_cell_of_error_records_has_no_token_mean(self):
        records = [
            record(i, correct=False, compliant=False, tokens=0, client_error="AuthFailure: 401")
            for i in range(3)
        ]
        (summary,) = aggregate(records)
        assert summary.avg_completion_tokens is None
        assert summary.pass_at_1 == 0.0

    def test_partition_complement(self):
        rng = random.Random(5)
        records = [record(i, correct=rng.random() < 0.4) for i in range(50)]
        flipped = [
            record(i, correct=not r.judgment.correct) for i, r in enumerate(records)
        ]
        (summary,) = aggregate(records)
        (complement,) = aggregate(flipped)
        assert summary.pass_at_1 + complement.pass_at_1 == 100.0


class TestMacroAverage:
    def _summaries(self, values, model="qwen-sim-14b", strategy=PromptStrategy.HICOT):
        return [
            MetricsSummary(
                model_id=model,
                strategy=strategy,
                benchmark=f"b{i}",
                n=30,
                pass_at_1=v,
                avg_completion_tokens=100.0,
                compliance_rate=50.0,
                conditional_pass_at_1=None,
                conditional_avg_tokens=None,
            )
            for i, v in enumerate(values)
        ]

    def test_five_benchmark_row_rounds_to_41_9(self):
        macros = macro_average(self._summaries([23.3, 42.2, 76.6, 33.8, 33.5]))
        assert display_round(macros[0].avg_over_benchmarks) == "41.9"
        assert abs(macros[0].avg_over_benchmarks - 41.88) < 1e-9

    def test_rounding_boundary_row(self):
        macros = macro_average(self._summaries([13.3, 36.1, 72.2, 29.0, 29.6]))
        # Unrounded mean is 36.04, displayed as 36.0; averaging values that
        # were themselves produced unrounded can legitimately land on 36.1.
        assert display_round(macros[0].avg_over_benchmarks) in ("36.0", "36.1")

    def test_single_benchmark_mean_is_identity(self):
        macros = macro_average(self._summaries([42.2]))
        assert macros[0].avg_over_benchmarks == 42.2

    def test_symmetric_mean(self):
        macros = macro_average(self._summaries([0.0, 100.0]))
        assert macros[0].avg_over_benchmarks == 50.0

    def test_invariant_under_benchmark_reordering(self):
        summaries = self._summaries([10.0, 20.0, 30.0, 70.0])
        shuffled = list(summaries)
        random.Random(3).shuffle(shuffled)
        assert (
            macro_average(summaries)[0].avg_over_benchmarks
            == macro_average(shuffled)[0].avg_over_benchmarks
        )

    def test_missing_benchmarks_flagged(self):
        summaries = self._summaries([10.0, 20.0]) + self._summaries(
            [30.0], strategy=PromptStrategy.COT
        )
        macros = {m.strategy: m for m in macro_average(summaries)}
        assert macros[PromptStrategy.COT].benchmarks == ("b0",)
        assert macros[PromptStrategy.COT].missing == ("b1",)
        assert macros[PromptStrategy.HICOT].missing == ()


def small_fixture():
    cells = [
        ("toy_a", PromptStrategy.STANDARD, 40.0),
        ("toy_b", PromptStrategy.STANDARD, 55.0),
        ("toy_a", PromptStrategy.HICOT, 62.5),
        ("toy_b", PromptStrategy.HICOT, 70.0),
    ]
    summaries = [
        MetricsSummary(
            model_id="qwen-sim-8b",
            strategy=strategy,
            benchmark=benchmark,
            n=20,
            pass_at_1=value,
            avg_completion_tokens=150.0,
            compliance_rate=80.0,
            conditional_pass_at_1=value + 5.0,
            conditional_avg_tokens=120.0,
        )
        for benchmark, strategy, value in cells
    ]
    return summaries, macro_average(summaries)


class TestEmitTable:
    def test_markdown_matches_golden_fixture(self):
        summaries, macro = small_fixture()
        emitted = emit_table(summaries, macro, TableFormat.MARKDOWN)
        golden = (DATA / "golden_small_table.md").read_text(encoding="utf-8")
        assert emitted == golden

    def test_markdown_is_byte_deterministic(self):
        summaries, macro = small_fixture()
        first = emit_table(summaries, macro, TableFormat.MARKDOWN).encode()
        second = emit_table(list(summaries), list(macro), TableFormat.MARKDOWN).encode()
        assert first == second

    def test_strategy_order_is_fixed_regardless_of_input_order(self):
        summaries, macro = small_fixture()
        reordered = list(reversed(summaries))
        assert emit_table(reordered, macro, TableFormat.MARKDOWN) == emit_table(
            summaries, macro, TableFormat.MARKDOWN
        )

    def test_json_cell_round_trips(self):
        summaries, macro = small_fixture()
        payload = json.loads(emit_table(summaries[:1], macro[:1], TableFormat.JSON))
        back = from_json_dict(MetricsSummary, payload["summaries"][0], "summary")
        assert back == summaries[0]

    def test_csv_keeps_full_precision(self):
        summaries, macro = small_fixture()
        text = emit_table(summaries, macro, TableFormat.CSV)
        lines = text.strip().splitlines()
        assert lines[0] == "model,strategy,toy_a,toy_b,avg,best"
        hicot_row = next(l for l in lines if ",hicot," in l)
        assert "66.25" in hicot_row  # unrounded macro average
        assert hicot_row.endswith("toy_a;toy_b;avg")

    def test_ties_flag_all_maxima(self):
        summaries = [
            MetricsSummary("m", s, "b", 10, 50.0, 1.0, 1.0, None, None)
            for s in (PromptStrategy.STANDARD, PromptStrategy.COT)
        ]
        table = emit_table(summaries, macro_average(summaries), TableFormat.MARKDOWN)
        # Both strategies tie in the benchmark column and in Avg.
        assert table.count("**50.0**") == 4

    def test_partial_coverage_avg_is_not_compared(self):
        # Hi-CoT runs only the easy benchmark; its 100.0 Avg must not beat the
        # 50.0 Avg of CoT, which covers both.
        summaries = [
            MetricsSummary("m", PromptStrategy.COT, "easy", 10, 100.0, 1.0, 1.0, None, None),
            MetricsSummary("m", PromptStrategy.COT, "hard", 10, 0.0, 1.0, 1.0, None, None),
            MetricsSummary("m", PromptStrategy.HICOT, "easy", 10, 100.0, 1.0, 1.0, None, None),
        ]
        macro = macro_average(summaries)
        table = emit_table(summaries, macro, TableFormat.MARKDOWN)
        assert "| m | CoT | **100.0** | **0.0** | **50.0** |" in table
        assert "| m | Hi-CoT | **100.0** | - | 100.0† |" in table
        best = json.loads(emit_table(summaries, macro, TableFormat.JSON))["best"]
        assert ["m", "avg", "hicot"] not in best and ["m", "avg", "cot"] in best
        rows = emit_table(summaries, macro, TableFormat.CSV).splitlines()
        assert rows[1].endswith(",easy;hard;avg") and rows[2].endswith(",easy")

    def test_short_cell_is_not_compared(self):
        # Hi-CoT has run 3 of aime24's 30 items; its 100.0 there must not beat
        # the 50.0 of CoT, which has run all 30, in aime24 or in Avg.
        summaries = [
            MetricsSummary("m", strategy, benchmark, n, value, 1.0, 1.0, None, None)
            for strategy, benchmark, n, value in (
                (PromptStrategy.COT, "aime24", 30, 50.0),
                (PromptStrategy.COT, "math500", 10, 40.0),
                (PromptStrategy.HICOT, "aime24", 3, 100.0),
                (PromptStrategy.HICOT, "math500", 10, 60.0),
            )
        ]
        macro = macro_average(summaries)
        table = emit_table(summaries, macro, TableFormat.MARKDOWN)
        assert "| m | CoT | **50.0** | 40.0 | **45.0** |" in table
        assert f"| m | Hi-CoT | 100.0{SHORT_MARK} | **60.0** | 80.0 |" in table
        best = json.loads(emit_table(summaries, macro, TableFormat.JSON))["best"]
        assert best == [["m", "aime24", "cot"], ["m", "avg", "cot"], ["m", "math500", "hicot"]]
        rows = emit_table(summaries, macro, TableFormat.CSV).splitlines()
        assert rows[1].endswith(",aime24;avg") and rows[2].endswith(",math500")

    def test_sparse_grid_row_is_empty_in_every_format(self):
        # m2 lacks the Hi-CoT strategy that m1 has; its Hi-CoT row is shown
        # but holds no value and no flag.
        summaries = [
            MetricsSummary("m1", strategy, benchmark, 4, value, 1.0, 1.0, None, None)
            for strategy, value in ((PromptStrategy.COT, 25.0), (PromptStrategy.HICOT, 75.0))
            for benchmark in ("a", "b")
        ] + [
            MetricsSummary("m2", PromptStrategy.COT, benchmark, 4, 50.0, 1.0, 1.0, None, None)
            for benchmark in ("a", "b")
        ]
        macro = macro_average(summaries)
        table = emit_table(summaries, macro, TableFormat.MARKDOWN)
        assert "| m2 | Hi-CoT | - | - | - |" in table.splitlines()
        rows = list(csv.reader(io.StringIO(emit_table(summaries, macro, TableFormat.CSV))))
        assert ["m2", "hicot", "", "", "", ""] in rows
        best = json.loads(emit_table(summaries, macro, TableFormat.JSON))["best"]
        assert not [entry for entry in best if entry[0] == "m2" and entry[2] == "hicot"]
        assert ["m2", "avg", "cot"] in best

    def test_markdown_escapes_pipes_in_names(self):
        summaries = [
            MetricsSummary(model, PromptStrategy.COT, benchmark, 4, 50.0, 1.0, 1.0, None, None)
            for model in ("org|m", "plain")
            for benchmark in ("a|b", "c")
        ]
        table = emit_table(summaries, macro_average(summaries), TableFormat.MARKDOWN)
        # Model, Prompting, two benchmarks and Avg. on every line.
        assert {len(re.findall(r"(?<!\\)\|", line)) for line in table.splitlines()} == {6}
        assert "| org\\|m | CoT |" in table

    def test_empty_summaries_rejected(self):
        with pytest.raises(ValueError):
            emit_table([], [], TableFormat.MARKDOWN)


class TestEmitPlotData:
    def test_token_plot_row_count(self):
        summaries, _ = small_fixture()  # 2 strategies x 2 benchmarks
        text = emit_plot_data(summaries, PlotKind.AVG_TOKENS_BY_BENCHMARK)
        rows = text.strip().splitlines()[1:]
        assert len(rows) == 2 * 2 + 2  # cells plus one macro row per strategy
        assert sum(1 for r in rows if ",macro_avg," in r) == 2

    def test_token_plot_leaves_out_cells_without_a_token_mean(self):
        error = dict(correct=False, compliant=False, tokens=0, client_error="AuthFailure: 401")
        records = [
            record(0, correct=True, tokens=300, benchmark="a"),
            record(0, benchmark="b", **error),
            record(0, benchmark="a", model="m2", **error),
        ]
        text = emit_plot_data(aggregate(records), PlotKind.AVG_TOKENS_BY_BENCHMARK)
        # Both macros average fewer cells than a full row has, so both are marked.
        assert text.splitlines()[1:] == [
            "m1,hicot,a,300.0",
            "m1,hicot,b,",
            "m1,hicot,macro_avg†,300.0",
            "m2,hicot,a,",
            "m2,hicot,macro_avg†,",
        ]

    def test_token_macro_of_a_row_missing_a_benchmark_is_marked(self):
        # Hi-CoT's macro is its one math500 cell; CoT's averages both benchmarks.
        summaries = [
            MetricsSummary("m", strategy, benchmark, 10, accuracy, tokens, 100.0, None, None)
            for strategy, benchmark, accuracy, tokens in [
                (PromptStrategy.COT, "aime24", 20.0, 900.0),
                (PromptStrategy.COT, "math500", 60.0, 300.0),
                (PromptStrategy.HICOT, "math500", 82.0, 250.0),
            ]
        ]
        text = emit_plot_data(summaries, PlotKind.AVG_TOKENS_BY_BENCHMARK)
        assert text.splitlines()[1:] == [
            "m,cot,aime24,900.0",
            "m,cot,math500,300.0",
            "m,cot,macro_avg,600.0",
            "m,hicot,math500,250.0",
            "m,hicot,macro_avg†,250.0",
        ]
        # The Markdown table marks the same row.
        table = emit_table(summaries, macro_average(summaries), TableFormat.MARKDOWN)
        assert "| m | Hi-CoT | - | **82.0** | 82.0† |" in table.splitlines()

    def test_conditional_columns_empty_when_no_compliant_records(self):
        records = [record(i, correct=False, compliant=False) for i in range(4)]
        summaries = aggregate(records)
        text = emit_plot_data(summaries, PlotKind.FORMAT_CONDITIONAL)
        row = text.strip().splitlines()[1].split(",")
        header = text.strip().splitlines()[0].split(",")
        assert row[header.index("conditional_pass_at_1")] == ""
        assert row[header.index("conditional_avg_tokens")] == ""
        assert row[header.index("pass_at_1")] == "0.0"

    def test_conditional_tokens_below_aggregate_when_compliant_traces_shorter(self):
        # Compliant traces are built shorter, mirroring the reported pattern.
        records = [
            record(0, correct=True, compliant=True, tokens=40),
            record(1, correct=True, compliant=True, tokens=60),
            record(2, correct=False, compliant=False, tokens=400),
            record(3, correct=False, compliant=False, tokens=500),
        ]
        (summary,) = aggregate(records)
        assert summary.conditional_avg_tokens <= summary.avg_completion_tokens
        text = emit_plot_data([summary], PlotKind.FORMAT_CONDITIONAL)
        row = text.strip().splitlines()[1].split(",")
        header = text.strip().splitlines()[0].split(",")
        conditional = float(row[header.index("conditional_avg_tokens")])
        aggregate_tokens = float(row[header.index("avg_completion_tokens")])
        assert conditional <= aggregate_tokens

    def test_plot_output_deterministic(self):
        summaries, _ = small_fixture()
        assert emit_plot_data(summaries, PlotKind.AVG_TOKENS_BY_BENCHMARK) == emit_plot_data(
            list(reversed(summaries)), PlotKind.AVG_TOKENS_BY_BENCHMARK
        )


@pytest.mark.parametrize("model", ["org,model", 'say "hi"', "two\nlines"])
def test_csv_emissions_read_back_with_header_width(model):
    summaries = [
        MetricsSummary(model, strategy, benchmark, 4, 50.0, 10.0, 25.0, conditional, 8.0)
        for strategy, conditional in ((PromptStrategy.COT, None), (PromptStrategy.HICOT, 75.0))
        for benchmark in ("a", "b")
    ]
    emissions = [emit_table(summaries, macro_average(summaries), TableFormat.CSV)]
    emissions += [emit_plot_data(summaries, kind) for kind in PlotKind]
    for text in emissions:
        header, *rows = csv.reader(io.StringIO(text))
        assert rows
        for row in rows:
            assert len(row) == len(header)
            assert row[0] == model


def seeded_records():
    rng = random.Random(11)
    return [
        record(
            i,
            correct=rng.random() < 0.5,
            compliant=rng.random() < 0.7,
            tokens=rng.randrange(10, 500),
            benchmark=rng.choice(["a", "b"]),
            model=rng.choice(["m1", "m2"]),
            strategy=rng.choice(list(PromptStrategy)),
        )
        for i in range(60)
    ]


@pytest.mark.parametrize("name", ["avg", "macro_avg", "macro_avg†", "model", "strategy", "best"])
def test_benchmark_named_as_a_report_label_is_refused(name):
    summaries = [
        MetricsSummary("m", PromptStrategy.COT, benchmark, 4, 50.0, 10.0, 100.0, 50.0, 10.0)
        for benchmark in ("toy", name)
    ]
    macro = macro_average(summaries)
    for fmt in TableFormat:
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            emit_table(summaries, macro, fmt)
    for kind in PlotKind:
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            emit_plot_data(summaries, kind)


class TestEndToEndDeterminism:
    def test_same_records_same_bytes(self):
        records = seeded_records()
        summaries = aggregate(records)
        macro = macro_average(summaries)
        for fmt in TableFormat:
            assert emit_table(summaries, macro, fmt) == emit_table(
                aggregate(list(records)), macro_average(aggregate(list(records))), fmt
            )

    def test_formats_flag_the_same_cells(self):
        summaries = aggregate(seeded_records())
        macro = macro_average(summaries)
        strategy_of = {s.label: s.value for s in PromptStrategy}

        header, _, *lines = emit_table(summaries, macro, TableFormat.MARKDOWN).splitlines()
        columns = header.strip("| ").split(" | ")[2:-1] + ["avg"]
        md_best = set()
        for line in lines:
            model, label, *shown = line.strip("| ").split(" | ")
            for column, cell in zip(columns, shown):
                if cell.startswith("**"):
                    md_best.add((model, column, strategy_of[label]))

        _, *rows = csv.reader(io.StringIO(emit_table(summaries, macro, TableFormat.CSV)))
        csv_best = {
            (row[0], column, row[1]) for row in rows for column in row[-1].split(";") if column
        }

        payload = json.loads(emit_table(summaries, macro, TableFormat.JSON))
        json_best = {tuple(entry) for entry in payload["best"]}
        assert md_best and md_best == csv_best == json_best


@dataclass(slots=True)
class ReferenceCellCounts:
    """The per-cell counters that ``metrics.Tally`` folded records into before
    it kept each key's outcome, verbatim: the reference its summaries must equal."""

    n: int = 0
    correct: int = 0
    scored: int = 0
    tokens: int = 0
    compliant: int = 0
    compliant_correct: int = 0
    compliant_tokens: int = 0

    def add(self, record: EvalRecord) -> None:
        self.n += 1
        self.correct += record.judgment.correct
        if record.client_error is None:
            self.scored += 1
            self.tokens += record.completion_tokens
        if record.compliant:  # an error record never is: an empty completion has no boxed answer
            self.compliant += 1
            self.compliant_correct += record.judgment.correct
            self.compliant_tokens += record.completion_tokens

    def summary(self, model_id: str, strategy: PromptStrategy, benchmark: str) -> MetricsSummary:
        """The cell's metrics; each mean is one division."""
        compliant = self.compliant
        return MetricsSummary(
            model_id=model_id,
            strategy=strategy,
            benchmark=benchmark,
            n=self.n,
            pass_at_1=100.0 * self.correct / self.n,
            avg_completion_tokens=self.tokens / self.scored if self.scored else None,
            compliance_rate=100.0 * compliant / self.n,
            conditional_pass_at_1=100.0 * self.compliant_correct / compliant if compliant else None,
            conditional_avg_tokens=self.compliant_tokens / compliant if compliant else None,
        )


def reference_aggregate(records) -> list:
    """The summaries of ``records`` as the per-cell counters fold them."""
    cells = defaultdict(ReferenceCellCounts)
    for r in records:
        cells[r.model_id, r.strategy, r.benchmark].add(r)
    return sorted((counts.summary(*cell) for cell, counts in cells.items()), key=cell_order)


@st.composite
def _drawn_record(draw):
    """A record as ``cli._evaluate_one`` writes it: an error record is scored as
    an empty completion, so it is incorrect and not compliant."""
    error = draw(st.booleans())
    return record(
        draw(st.integers(0, 5)),
        correct=not error and draw(st.booleans()),
        compliant=not error and draw(st.booleans()),
        tokens=draw(st.integers(0, 300) | st.integers(0, 2**53 - 1)),
        benchmark=draw(st.sampled_from(["a", "b", "c"])),
        model=draw(st.sampled_from(["m1", "m2"])),
        strategy=draw(st.sampled_from(list(PromptStrategy))),
        client_error="EndpointUnreachable: gave up" if error else None,
    )


_drawn_records = st.lists(_drawn_record(), min_size=1, max_size=40, unique_by=lambda r: r.key())


class TestFoldAgainstReference:
    @given(records=_drawn_records)
    def test_summaries_equal_the_reference(self, records):
        assert Tally(records).summaries() == reference_aggregate(records)

    @settings(max_examples=40, deadline=None)
    @given(records=_drawn_records, data=st.data())
    def test_emissions_do_not_depend_on_the_line_order(self, records, data):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            write_records(records, root / "records.jsonl")
            lines = (root / "records.jsonl").read_text(encoding="utf-8").splitlines(True)
            shuffled = data.draw(st.permutations(lines))
            (root / "shuffled.jsonl").write_text("".join(shuffled), encoding="utf-8")
            emitted = {}
            for name in ("records", "shuffled"):
                path = root / f"{name}.jsonl"
                score = json.dumps(cmd_score(path), indent=2, sort_keys=True)
                files = [
                    written.read_bytes()
                    for fmt in TableFormat
                    for written in cmd_report(path, fmt, root / name / fmt.value)
                ]
                emitted[name] = score, files
            assert emitted["records"] == emitted["shuffled"]
