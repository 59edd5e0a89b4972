"""Aggregation of evaluation records into per-cell and macro metrics.

One cell is a (model, strategy, benchmark) group: Pass@1 percentage, mean
completion tokens, compliance rate, and the same two metrics restricted to
the compliant subset. Macro summaries average per-benchmark Pass@1 without
weighting, on unrounded values.

Display rounding is half-away-from-zero to one decimal; CSV and JSON
emissions keep raw full-precision values. Emission output is byte
deterministic for identical input.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from typing import Optional, Sequence, Tuple

from .datasets import EvalRecord
from .prompts import TABLE_ORDER, PromptStrategy


class DuplicateKey(Exception):
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
    avg_completion_tokens: float
    compliance_rate: float
    conditional_pass_at_1: Optional[float]
    conditional_avg_tokens: Optional[float]

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "strategy": self.strategy.value,
            "benchmark": self.benchmark,
            "n": self.n,
            "pass_at_1": self.pass_at_1,
            "avg_completion_tokens": self.avg_completion_tokens,
            "compliance_rate": self.compliance_rate,
            "conditional_pass_at_1": self.conditional_pass_at_1,
            "conditional_avg_tokens": self.conditional_avg_tokens,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSummary":
        return cls(
            model_id=data["model_id"],
            strategy=PromptStrategy(data["strategy"]),
            benchmark=data["benchmark"],
            n=data["n"],
            pass_at_1=data["pass_at_1"],
            avg_completion_tokens=data["avg_completion_tokens"],
            compliance_rate=data["compliance_rate"],
            conditional_pass_at_1=data["conditional_pass_at_1"],
            conditional_avg_tokens=data["conditional_avg_tokens"],
        )


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

    def to_dict(self) -> dict:
        return {
            "model_id": self.model_id,
            "strategy": self.strategy.value,
            "avg_over_benchmarks": self.avg_over_benchmarks,
            "benchmarks": list(self.benchmarks),
            "missing": list(self.missing),
        }


def display_round(value: float) -> str:
    """One-decimal display string, rounding halves away from zero."""
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _strategy_rank(strategy: PromptStrategy) -> int:
    return TABLE_ORDER.index(strategy)


def aggregate(records: Sequence[EvalRecord]) -> list:
    """Group records by (model, strategy, benchmark) and compute cell metrics.

    Raises DuplicateKey if the record uniqueness tuple repeats. Error records
    count toward n like any other record (they are simply incorrect), so
    accuracy denominators never shrink.
    """
    seen = set()
    groups: dict = {}
    for record in records:
        key = record.key()
        if key in seen:
            raise DuplicateKey(f"duplicate record for {key}")
        seen.add(key)
        groups.setdefault((record.model_id, record.strategy, record.benchmark), []).append(record)

    summaries = []
    for (model_id, strategy, benchmark), cell in sorted(
        groups.items(), key=lambda kv: (kv[0][0], _strategy_rank(kv[0][1]), kv[0][2])
    ):
        n = len(cell)
        correct = sum(1 for r in cell if r.judgment.correct)
        compliant = [r for r in cell if r.compliant]
        summaries.append(
            MetricsSummary(
                model_id=model_id,
                strategy=strategy,
                benchmark=benchmark,
                n=n,
                pass_at_1=100.0 * correct / n,
                avg_completion_tokens=sum(r.completion_tokens for r in cell) / n,
                compliance_rate=100.0 * len(compliant) / n,
                conditional_pass_at_1=(
                    100.0 * sum(1 for r in compliant if r.judgment.correct) / len(compliant)
                    if compliant
                    else None
                ),
                conditional_avg_tokens=(
                    sum(r.completion_tokens for r in compliant) / len(compliant)
                    if compliant
                    else None
                ),
            )
        )
    return summaries


def macro_average(summaries: Sequence[MetricsSummary]) -> list:
    """Per-(model, strategy) unweighted mean of per-benchmark Pass@1.

    Computed on unrounded values; rounding happens only at display time.
    """
    all_benchmarks = sorted({s.benchmark for s in summaries})
    groups: dict = {}
    for summary in summaries:
        groups.setdefault((summary.model_id, summary.strategy), []).append(summary)

    macros = []
    for (model_id, strategy), cells in sorted(
        groups.items(), key=lambda kv: (kv[0][0], _strategy_rank(kv[0][1]))
    ):
        present = sorted(c.benchmark for c in cells)
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


def _cell_index(summaries: Sequence[MetricsSummary]) -> dict:
    return {(s.model_id, s.strategy, s.benchmark): s for s in summaries}


def _macro_index(macros: Sequence[MacroSummary]) -> dict:
    return {(m.model_id, m.strategy): m for m in macros}


def _layout(summaries: Sequence[MetricsSummary]):
    models = sorted({s.model_id for s in summaries})
    benchmarks = sorted({s.benchmark for s in summaries})
    strategies = [s for s in TABLE_ORDER if any(x.strategy is s for x in summaries)]
    return models, benchmarks, strategies


def _best_flags(summaries, macros) -> set:
    """(model, column, strategy) triples to flag; columns are benchmarks or 'avg'.

    Best is decided on displayed (rounded) values so flags match what the
    table shows; all tied maxima are flagged. The Avg of a row that misses a
    benchmark averages over fewer columns, so it takes no part in the Avg
    comparison.
    """
    cells = _cell_index(summaries)
    macro_cells = _macro_index(macros)
    models, benchmarks, strategies = _layout(summaries)
    flagged = set()
    for model in models:
        for column in benchmarks + ["avg"]:
            shown = {}
            for strategy in strategies:
                if column == "avg":
                    macro = macro_cells.get((model, strategy))
                    value = macro.avg_over_benchmarks if macro and not macro.missing else None
                else:
                    cell = cells.get((model, strategy, column))
                    value = cell.pass_at_1 if cell else None
                if value is not None:
                    shown[strategy] = float(display_round(value))
            if not shown:
                continue
            top = max(shown.values())
            for strategy, value in shown.items():
                if value == top:
                    flagged.add((model, column, strategy))
    return flagged


def emit_table(
    summaries: Sequence[MetricsSummary],
    macro: Sequence[MacroSummary],
    format: TableFormat,
) -> str:
    """Render the accuracy table: one row per strategy, grouped by model.

    Markdown shows one-decimal values with the best value per (model, column)
    in bold. CSV keeps full precision and lists flagged columns in a ``best``
    column. JSON carries the summary and macro dicts verbatim (round-trip
    safe) plus the flagged cells.
    """
    if not summaries:
        raise ValueError("no summaries to tabulate")
    if format is TableFormat.MARKDOWN:
        return _emit_markdown(summaries, macro)
    if format is TableFormat.CSV:
        return _emit_csv(summaries, macro)
    return _emit_json(summaries, macro)


def _emit_markdown(summaries, macro) -> str:
    cells = _cell_index(summaries)
    macro_cells = _macro_index(macro)
    models, benchmarks, strategies = _layout(summaries)
    flagged = _best_flags(summaries, macro)

    header = ["Model", "Prompting"] + benchmarks + ["Avg."]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join(["---", "---"] + ["---:"] * (len(benchmarks) + 1)) + " |",
    ]
    for model in models:
        for strategy in strategies:
            row = [model, strategy.label]
            for benchmark in benchmarks:
                cell = cells.get((model, strategy, benchmark))
                if cell is None:
                    row.append("-")
                    continue
                shown = display_round(cell.pass_at_1)
                if (model, benchmark, strategy) in flagged:
                    shown = f"**{shown}**"
                row.append(shown)
            macro_cell = macro_cells.get((model, strategy))
            if macro_cell is None:
                row.append("-")
            else:
                shown = display_round(macro_cell.avg_over_benchmarks)
                if (model, "avg", strategy) in flagged:
                    shown = f"**{shown}**"
                row.append(shown)
            lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _emit_csv(summaries, macro) -> str:
    cells = _cell_index(summaries)
    macro_cells = _macro_index(macro)
    models, benchmarks, strategies = _layout(summaries)
    flagged = _best_flags(summaries, macro)

    rows = [["model", "strategy"] + benchmarks + ["avg", "best"]]
    for model in models:
        for strategy in strategies:
            row = [model, strategy.value]
            for benchmark in benchmarks:
                cell = cells.get((model, strategy, benchmark))
                row.append(cell.pass_at_1 if cell else None)
            macro_cell = macro_cells.get((model, strategy))
            row.append(macro_cell.avg_over_benchmarks if macro_cell else None)
            best = [c for c in benchmarks + ["avg"] if (model, c, strategy) in flagged]
            row.append(";".join(best))
            rows.append(row)
    return _csv_text(rows)


def _csv_text(rows) -> str:
    """CSV with ``\\n`` line ends; ``None`` is written as an empty field and
    floats at full precision (``repr``)."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _emit_json(summaries, macro) -> str:
    flagged = _best_flags(summaries, macro)
    payload = {
        "summaries": [s.to_dict() for s in summaries],
        "macro": [m.to_dict() for m in macro],
        "best": sorted(
            [model, column, strategy.value] for model, column, strategy in flagged
        ),
    }
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def emit_plot_data(summaries: Sequence[MetricsSummary], kind: PlotKind) -> str:
    """CSV series for token-length and format-conditional plots.

    Token plots get one row per (model, strategy, benchmark) plus a macro
    average row per (model, strategy). Conditional plots carry aggregate and
    compliant-subset accuracy/tokens side by side; when a cell has no
    compliant records the conditional columns are left empty, not zero.
    """
    if not summaries:
        raise ValueError("no summaries to plot")
    models, benchmarks, strategies = _layout(summaries)
    cells = _cell_index(summaries)

    if kind is PlotKind.AVG_TOKENS_BY_BENCHMARK:
        rows = [["model", "strategy", "benchmark", "avg_completion_tokens"]]
        for model in models:
            for strategy in strategies:
                present = []
                for benchmark in benchmarks:
                    cell = cells.get((model, strategy, benchmark))
                    if cell is None:
                        continue
                    present.append(cell.avg_completion_tokens)
                    rows.append([model, strategy.value, benchmark, cell.avg_completion_tokens])
                if present:
                    macro_tokens = sum(present) / len(present)
                    rows.append([model, strategy.value, "macro_avg", macro_tokens])
        return _csv_text(rows)

    header = (
        "model,strategy,benchmark,n,pass_at_1,conditional_pass_at_1,"
        "avg_completion_tokens,conditional_avg_tokens,compliance_rate"
    )
    rows = [header.split(",")]
    for model in models:
        for strategy in strategies:
            for benchmark in benchmarks:
                cell = cells.get((model, strategy, benchmark))
                if cell is None:
                    continue
                rows.append(
                    [
                        model,
                        strategy.value,
                        benchmark,
                        cell.n,
                        cell.pass_at_1,
                        cell.conditional_pass_at_1,
                        cell.avg_completion_tokens,
                        cell.conditional_avg_tokens,
                        cell.compliance_rate,
                    ]
                )
    return _csv_text(rows)
