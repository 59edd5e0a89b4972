"""Tokenizing completions into instruction/execution blocks and validating them.

A completion is split at every occurrence of the two markers; each marker
starts a block whose body runs to the next marker or end of text. The scan
records one mark per block, ``(kind, marker offset, step)``, and copies no
body: ``ReasoningTrace.blocks`` builds the ``Block`` objects from the raw
text and the marks the first time it is read. Validation reads the marks
alone. The parse is lossless: think segment + preamble + markers + bodies
reconstruct the raw input byte for byte.

Validation covers three dimensions: strict instruction/execution alternation,
step-number alignment, and presence of a boxed final answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
class Block:
    """One marker-delimited segment of a completion.

    ``span`` is the half-open [start, end) character range in the raw
    completion covering the marker and the body; ``body`` excludes the
    marker itself.
    """

    kind: BlockKind
    body: str
    span: Tuple[int, int]
    step: Optional[int] = None


@dataclass(frozen=True)
class ReasoningTrace:
    """A completion plus its parsed block structure.

    ``marks`` holds one ``(kind, marker offset, step)`` per block, in text
    order; ``blocks`` are built from them on first read. ``think_segment``
    holds one leading tag-delimited think span (stripped before block
    scanning, kept so ``reconstruct`` is lossless); ``preamble`` is the text
    between the think segment and the first marker.
    """

    raw: str
    preamble: str
    marks: Tuple[Tuple[BlockKind, int, Optional[int]], ...]
    boxed_answer: Optional[str]
    think_segment: str = ""

    @cached_property
    def blocks(self) -> Tuple[Block, ...]:
        """One ``Block`` per mark, built from ``raw`` on first read."""
        raw = self.raw
        ends = [offset for _, offset, _ in self.marks[1:]] + [len(raw)]
        return tuple(
            Block(kind, raw[start + len(_MARKER_TEXT[kind]) : end], (start, end), step)
            for (kind, start, step), end in zip(self.marks, ends)
        )

    def reconstruct(self) -> str:
        """Reassemble the raw completion from the parse (lossless check)."""
        parts = [self.think_segment, self.preamble]
        for block in self.blocks:
            parts.append(_MARKER_TEXT[block.kind])
            parts.append(block.body)
        return "".join(parts)


_MARKER_TEXT = {
    BlockKind.INSTRUCTION: INSTRUCTION_MARKER,
    BlockKind.EXECUTION: EXECUTION_MARKER,
}


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


def _split_think(raw: str, open_tag: str, close_tag: str) -> Tuple[str, int]:
    """Return (think_segment, scan_start) for one leading think span.

    The segment is recognized only when the open tag is the first
    non-whitespace text and the close tag appears later; the leading
    whitespace is folded into the segment. Otherwise nothing is stripped.
    """
    if not open_tag or not close_tag:
        return "", 0
    lead = len(raw) - len(raw.lstrip())
    if not raw.startswith(open_tag, lead):
        return "", 0
    end = raw.find(close_tag, lead + len(open_tag))
    if end < 0:
        return "", 0
    cut = end + len(close_tag)
    return raw[:cut], cut


def scan_blocks(
    raw: str,
    think_open: str = DEFAULT_THINK_OPEN,
    think_close: str = DEFAULT_THINK_CLOSE,
) -> ReasoningTrace:
    """Mark each marker-delimited block of a completion: its kind, the offset
    of its marker and its step.

    Scanning never fails; text without markers yields zero marks. The boxed
    answer is extracted from the full raw text (including any think segment)
    so a boxed value is never lost to tag stripping.
    """
    think_segment, start = _split_think(raw, think_open, think_close)
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
    preamble = raw[start : marks[0][1]] if marks else raw[start:]

    return ReasoningTrace(
        raw=raw,
        preamble=preamble,
        marks=marks,
        boxed_answer=extract_boxed(raw),
        think_segment=think_segment,
    )


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
