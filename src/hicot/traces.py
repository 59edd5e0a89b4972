"""Tokenizing completions into instruction/execution blocks and validating them.

A completion is split at every occurrence of the two markers; each marker
starts a block whose body runs to the next marker or end of text. The scan
records one mark per block, ``(kind, marker offset, step)``, and copies no
text; validation reads the marks alone. The parse is lossless by
construction: ``scan_start`` and the mark offsets partition the raw text
into the think span ``raw[:scan_start]``, the preamble up to the first
offset, and one marker plus body from each offset to the next.

Validation covers three dimensions: strict instruction/execution alternation,
step-number alignment, and presence of a boxed final answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .judge import extract_boxed, to_int
from .prompts import PromptStrategy

INSTRUCTION_MARKER = "<|instruction|>"
EXECUTION_MARKER = "<|execution|>"

DEFAULT_THINK_OPEN = "<think>"
DEFAULT_THINK_CLOSE = "</think>"

# A marker and the step label at the head of its body, if any: optional
# whitespace, the case-sensitive word "Step", one space, digits, then a colon.
# Anything else leaves the step unset. No character of a label can be the
# ``<`` that opens the next marker, so a label never runs past its body.
_MARK_RE = re.compile(r"<\|(instruction|execution)\|>(?:\s*Step (\d+):)?")


class BlockKind(Enum):
    INSTRUCTION = "instruction"
    EXECUTION = "execution"


_KIND_OF_MARKER = {kind.value: kind for kind in BlockKind}


@dataclass(frozen=True)
class ReasoningTrace:
    """A completion plus the offsets of its parsed block structure.

    ``marks`` holds one ``(kind, marker offset, step)`` per block, in text
    order. ``scan_start`` is where block scanning began: the end of one
    leading tag-delimited think span, or 0 when there is none. The offsets
    partition ``raw``: the think span is ``raw[:scan_start]``, the preamble
    runs from ``scan_start`` to the first offset (or the end), and each body
    runs from the end of its marker to the next offset (or the end).
    """

    raw: str
    marks: Tuple[Tuple[BlockKind, int, Optional[int]], ...]
    boxed_answer: Optional[str]
    scan_start: int = 0


@dataclass(frozen=True)
class FormatReport:
    """Per-dimension compliance verdicts for the hierarchical format.

    ``compliant`` is always the conjunction of the three dimension booleans.
    The block-kind counts are carried so strategy-specific compliance rules
    (which may waive dimensions) can be evaluated from the report alone.
    """

    alternation_ok: bool
    step_alignment_ok: bool
    boxed_present: bool
    compliant: bool
    instruction_count: int = 0
    execution_count: int = 0

    def as_json_dict(self) -> dict:
        """The four-boolean wire form printed by the validate command."""
        return {
            "alternation_ok": self.alternation_ok,
            "step_alignment_ok": self.step_alignment_ok,
            "boxed_present": self.boxed_present,
            "compliant": self.compliant,
        }


def _split_think(raw: str, open_tag: str, close_tag: str) -> int:
    """The offset where block scanning begins: the end of one leading think
    span, or 0 when there is none.

    The span is recognized only when the open tag is the first
    non-whitespace text and the close tag appears later; the leading
    whitespace is part of the span. Otherwise nothing is skipped.
    """
    if not open_tag or not close_tag:
        return 0
    lead = len(raw) - len(raw.lstrip())
    if not raw.startswith(open_tag, lead):
        return 0
    end = raw.find(close_tag, lead + len(open_tag))
    if end < 0:
        return 0
    return end + len(close_tag)


def scan_blocks(
    raw: str,
    think_open: str = DEFAULT_THINK_OPEN,
    think_close: str = DEFAULT_THINK_CLOSE,
) -> ReasoningTrace:
    """Mark each marker-delimited block of a completion: its kind, the offset
    of its marker and its step.

    Scanning never fails; text without markers yields zero marks. The boxed
    answer is extracted from the full raw text (including any think span)
    so a boxed value is never lost to skipping it.
    """
    start = _split_think(raw, think_open, think_close)
    # The step is unset for no label, a step of 0, or more digits than
    # ``to_int`` converts.
    marks = tuple(
        (
            _KIND_OF_MARKER[match[1]],
            match.start(),
            (to_int(match[2]) or None) if match[2] else None,
        )
        for match in _MARK_RE.finditer(raw, start)
    )
    return ReasoningTrace(raw=raw, marks=marks, boxed_answer=extract_boxed(raw), scan_start=start)


def validate_format(trace: ReasoningTrace) -> FormatReport:
    """Check the three compliance dimensions for a parsed trace.

    Alternation requires a non-empty block list starting with an instruction,
    strictly alternating kinds, and an even count (a trailing unmatched
    instruction fails). Step alignment requires every block to carry a step
    number and the k-th instruction/execution pair to both carry k, starting
    at 1. Text after the final block is ignored.
    """
    marks = trace.marks
    kinds, _, steps = zip(*marks) if marks else ((), (), ())
    pairs = len(marks) // 2
    paired = bool(marks) and len(marks) % 2 == 0
    instructions = kinds.count(BlockKind.INSTRUCTION)
    # Blocks 0, 2, 4, ... open the pairs and 1, 3, 5, ... close them. With an
    # even count, alternation holds when the openers are all instructions and
    # no other block is; alignment, when both halves of pair k carry step k.
    alternation_ok = paired and kinds[0::2].count(BlockKind.INSTRUCTION) == pairs == instructions
    step_alignment_ok = paired and steps[0::2] == steps[1::2] == tuple(range(1, pairs + 1))

    boxed_present = trace.boxed_answer is not None

    return FormatReport(
        alternation_ok=alternation_ok,
        step_alignment_ok=step_alignment_ok,
        boxed_present=boxed_present,
        compliant=alternation_ok and step_alignment_ok and boxed_present,
        instruction_count=instructions,
        execution_count=len(marks) - instructions,
    )


def compliance_mode(strategy: PromptStrategy, report: FormatReport) -> bool:
    """Strategy-specific compliance verdict used for conditional metrics.

    The strict hierarchical strategy requires all three dimensions. The
    format-relaxed variant waives step alignment (its prompt carries no step
    scaffold) and requires only that both block kinds occur plus a boxed
    answer. All other strategies require only the boxed answer.
    """
    if strategy is PromptStrategy.HICOT:
        return report.compliant
    if strategy is PromptStrategy.HICOT_RELAXED:
        alternation_present = report.instruction_count >= 1 and report.execution_count >= 1
        return alternation_present and report.boxed_present
    return report.boxed_present
