"""Aggregation of evaluation records into per-cell and macro metrics.

One cell is a (model, strategy, benchmark) group: Pass@1 percentage, mean
completion tokens over its scored records (those without a client error),
compliance rate, and the same two metrics restricted to the compliant
subset. Macro summaries average per-benchmark Pass@1 without
weighting, on unrounded values.

Display rounding is half-away-from-zero to one decimal; CSV and JSON
emissions keep raw full-precision values. Emission output is byte
deterministic for identical input.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Tuple, TYPE_CHECKING

from .codec import to_json_dict
from .prompts import TABLE_ORDER, PromptStrategy

if TYPE_CHECKING:
    from .datasets import EvalRecord

# Marks, in the Markdown table, the Avg. of a row that misses a benchmark.
PARTIAL_MARK = "†"


class DuplicateKey(ValueError):
    """A (problem, benchmark, model, strategy) tuple appeared twice."""


class TableFormat(Enum):
    MARKDOWN = "md"
    CSV = "csv"
    JSON = "json"


class PlotKind(Enum):
    AVG_TOKENS_BY_BENCHMARK = "avg_tokens_by_benchmark"
    FORMAT_CONDITIONAL = "format_conditional"


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate metrics for one (model, strategy, benchmark) cell."""

    model_id: str
    strategy: PromptStrategy
    benchmark: str
    n: int
    pass_at_1: float
    avg_completion_tokens: Optional[float]  # None when every record is an error record
    compliance_rate: float
    conditional_pass_at_1: Optional[float]
    conditional_avg_tokens: Optional[float]

    def to_dict(self) -> dict:
        return to_json_dict(self)


@dataclass(frozen=True)
class MacroSummary:
    """Unweighted mean of per-benchmark Pass@1 for one (model, strategy).

    ``benchmarks`` lists the cells averaged over; ``missing`` flags
    benchmarks that other (model, strategy) pairs cover but this one lacks.
    """

    model_id: str
    strategy: PromptStrategy
    avg_over_benchmarks: float
    benchmarks: Tuple[str, ...]
    missing: Tuple[str, ...] = ()


def display_round(value: float) -> str:
    """One-decimal display string, rounding halves away from zero."""
    import decimal

    tenth = decimal.Decimal("0.1")
    return str(decimal.Decimal(repr(value)).quantize(tenth, rounding=decimal.ROUND_HALF_UP))


def cell_order(summary: MetricsSummary) -> tuple:
    """The report order of cells: by model, by strategy as in ``TABLE_ORDER``, then by benchmark."""
    return (summary.model_id, TABLE_ORDER.index(summary.strategy), summary.benchmark)


_row = attrgetter("model_id", "strategy")  # the cells of one table row are adjacent in cell order


class Tally:
    """Per-cell counts of records, folded in one record at a time; no record is kept.

    ``keys`` holds the uniqueness key of every record folded, and a repeat
    raises DuplicateKey. Each (model, strategy, benchmark) cell holds integer
    counts: n and correct over its records, the scored records (those without
    a client error) and their token sum, then n, correct and the token sum
    over its compliant ones. Error records count toward n like any other
    record (they are simply incorrect), so accuracy denominators never shrink;
    their tokens are no trace length, so token means leave them out.
    """

    def __init__(self, records: Iterable[EvalRecord] = ()):
        self.keys: set = set()
        self._cells: dict = {}
        for record in records:
            self.add(record)

    def add(self, record: EvalRecord) -> None:
        key = record.key()
        if key in self.keys:
            raise DuplicateKey(f"duplicate record for {key}")
        self.keys.add(key)
        cell = (record.model_id, record.strategy, record.benchmark)
        counts = self._cells.get(cell)
        if counts is None:
            counts = self._cells[cell] = [0] * 7
        correct, tokens = record.judgment.correct, record.completion_tokens
        counts[0] += 1
        counts[1] += correct
        if record.client_error is None:
            counts[2] += 1
            counts[3] += tokens
        if record.compliant:  # an error record never is: an empty completion has no boxed answer
            counts[4] += 1
            counts[5] += correct
            counts[6] += tokens

    def summaries(self) -> list:
        """One MetricsSummary per cell, in cell order; each mean is one division."""
        summaries = [
            MetricsSummary(
                model_id=model_id,
                strategy=strategy,
                benchmark=benchmark,
                n=n,
                pass_at_1=100.0 * correct / n,
                avg_completion_tokens=tokens / scored if scored else None,
                compliance_rate=100.0 * compliant / n,
                conditional_pass_at_1=100.0 * compliant_correct / compliant if compliant else None,
                conditional_avg_tokens=compliant_tokens / compliant if compliant else None,
            )
            for (model_id, strategy, benchmark), (
                n, correct, scored, tokens, compliant, compliant_correct, compliant_tokens
            ) in self._cells.items()
        ]
        return sorted(summaries, key=cell_order)


def aggregate(records: Iterable[EvalRecord]) -> list:
    """Per-cell metrics of ``records``, any iterable, folded by a ``Tally``.

    Raises DuplicateKey if the record uniqueness tuple repeats.
    """
    return Tally(records).summaries()


def macro_average(summaries: Sequence[MetricsSummary]) -> list:
    """Per-(model, strategy) unweighted mean of per-benchmark Pass@1.

    Computed on unrounded values; rounding happens only at display time.
    """
    all_benchmarks = sorted({s.benchmark for s in summaries})
    macros = []
    for (model_id, strategy), group in groupby(sorted(summaries, key=cell_order), key=_row):
        cells = list(group)
        present = [c.benchmark for c in cells]
        macros.append(
            MacroSummary(
                model_id=model_id,
                strategy=strategy,
                avg_over_benchmarks=sum(c.pass_at_1 for c in cells) / len(cells),
                benchmarks=tuple(present),
                missing=tuple(b for b in all_benchmarks if b not in present),
            )
        )
    return macros


def _table_rows(summaries, macros):
    """Columns (the benchmarks, then ``"avg"``) and one row per (model, strategy).

    Each row is ``(model, strategy, values, best)``: ``values`` holds Pass@1
    per benchmark, then the macro Avg, with ``None`` for an absent cell;
    ``best`` lists the columns holding the model's best shown value. Best is
    decided on displayed (rounded) values so flags match what the table
    shows; all tied maxima are flagged. The Avg of a row that misses a
    benchmark averages over fewer columns, so it takes no part in the Avg
    comparison.
    """
    models = sorted({s.model_id for s in summaries})
    benchmarks = sorted({s.benchmark for s in summaries})
    strategies = [s for s in TABLE_ORDER if any(x.strategy is s for x in summaries)]
    columns = benchmarks + ["avg"]
    cells = {(s.model_id, s.strategy, s.benchmark): s.pass_at_1 for s in summaries}
    macro_cells = {(m.model_id, m.strategy): m for m in macros}
    rows = []
    for model in models:
        block = []
        for strategy in strategies:
            values = [cells.get((model, strategy, benchmark)) for benchmark in benchmarks]
            macro = macro_cells.get((model, strategy))
            values.append(macro.avg_over_benchmarks if macro else None)
            shown = [None if value is None else float(display_round(value)) for value in values]
            if macro and macro.missing:
                shown[-1] = None
            block.append((strategy, values, shown))
        by_column = zip(*(shown for _, _, shown in block))
        tops = [max((v for v in column if v is not None), default=None) for column in by_column]
        for strategy, values, shown in block:
            best = [
                column
                for column, value, top in zip(columns, shown, tops)
                if value is not None and value == top
            ]
            rows.append((model, strategy, values, best))
    return columns, rows


def emit_table(
    summaries: Sequence[MetricsSummary],
    macro: Sequence[MacroSummary],
    format: TableFormat,
) -> str:
    """Render the accuracy table: one row per strategy, grouped by model.

    Markdown shows one-decimal values with the best value per (model, column)
    in bold, and escapes ``|`` in model ids and benchmark names; the Avg of a
    row that misses a benchmark carries ``PARTIAL_MARK``. CSV keeps
    full precision and lists flagged columns in a ``best`` column. JSON
    carries the summary and macro dicts verbatim (round-trip safe) plus the
    flagged cells.
    """
    if not summaries:
        raise ValueError("no summaries to tabulate")
    columns, rows = _table_rows(summaries, macro)

    if format is TableFormat.MARKDOWN:
        partial = {(m.model_id, m.strategy) for m in macro if m.missing}
        header = ["Model", "Prompting"] + [b.replace("|", "\\|") for b in columns[:-1]] + ["Avg."]
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join(["---", "---"] + ["---:"] * len(columns)) + " |",
        ]
        for model, strategy, values, best in rows:
            row = [model.replace("|", "\\|"), strategy.label]
            for column, value in zip(columns, values):
                shown = "-" if value is None else display_round(value)
                row.append(f"**{shown}**" if column in best else shown)
            if (model, strategy) in partial:
                row[-1] += PARTIAL_MARK
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"

    if format is TableFormat.CSV:
        table = [["model", "strategy"] + columns + ["best"]]
        for model, strategy, values, best in rows:
            table.append([model, strategy.value] + values + [";".join(best)])
        return _csv_text(table)

    payload = {
        "summaries": [to_json_dict(s) for s in summaries],
        "macro": [to_json_dict(m) for m in macro],
        "best": sorted(
            [model, column, strategy.value]
            for model, strategy, _, best in rows
            for column in best
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _csv_text(rows) -> str:
    """CSV with ``\\n`` line ends; ``None`` is written as an empty field and
    floats at full precision (``repr``)."""
    import csv

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def emit_plot_data(summaries: Sequence[MetricsSummary], kind: PlotKind) -> str:
    """CSV series for token-length and format-conditional plots.

    Token plots get one row per (model, strategy, benchmark) plus a macro
    average row per (model, strategy), over the cells that have a token mean;
    a cell with none leaves its field empty. Conditional plots carry aggregate and
    compliant-subset accuracy/tokens side by side; when a cell has no
    compliant records the conditional columns are left empty, not zero.
    """
    if not summaries:
        raise ValueError("no summaries to plot")
    cells = sorted(summaries, key=cell_order)

    if kind is PlotKind.AVG_TOKENS_BY_BENCHMARK:
        rows = [["model", "strategy", "benchmark", "avg_completion_tokens"]]
        for (model, strategy), group in groupby(cells, key=_row):
            present = []
            for cell in group:
                if cell.avg_completion_tokens is not None:
                    present.append(cell.avg_completion_tokens)
                rows.append([model, strategy.value, cell.benchmark, cell.avg_completion_tokens])
            macro = sum(present) / len(present) if present else None
            rows.append([model, strategy.value, "macro_avg", macro])
        return _csv_text(rows)

    header = (
        "model,strategy,benchmark,n,pass_at_1,conditional_pass_at_1,"
        "avg_completion_tokens,conditional_avg_tokens,compliance_rate"
    )
    rows = [header.split(",")]
    for cell in cells:
        rows.append(
            [
                cell.model_id,
                cell.strategy.value,
                cell.benchmark,
                cell.n,
                cell.pass_at_1,
                cell.conditional_pass_at_1,
                cell.avg_completion_tokens,
                cell.conditional_avg_tokens,
                cell.compliance_rate,
            ]
        )
    return _csv_text(rows)
