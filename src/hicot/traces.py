"""Tokenizing completions into instruction/execution blocks and validating them.

A completion is split at every occurrence of the two markers; each marker
starts a block whose body runs to the next marker or end of text. The parse
is lossless: think segment + preamble + markers + bodies reconstruct the raw
input byte for byte.

Validation covers three dimensions: strict instruction/execution alternation,
step-number alignment, and presence of a boxed final answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .judge import extract_boxed
from .prompts import PromptStrategy

INSTRUCTION_MARKER = "<|instruction|>"
EXECUTION_MARKER = "<|execution|>"

DEFAULT_THINK_OPEN = "<think>"
DEFAULT_THINK_CLOSE = "</think>"

_MARKER_RE = re.compile(r"<\|(instruction|execution)\|>")

# Step labels must sit at the head of a block body: optional whitespace, the
# case-sensitive word "Step", one space, digits, then a colon. Anything else
# leaves the step unset.
_STEP_RE = re.compile(r"^\s*Step (\d+):")


class BlockKind(Enum):
    INSTRUCTION = "instruction"
    EXECUTION = "execution"


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

    ``think_segment`` holds one leading tag-delimited think span (stripped
    before block scanning, kept for token accounting); ``preamble`` is the
    text between the think segment and the first marker.
    """

    raw: str
    preamble: str
    blocks: Tuple[Block, ...]
    boxed_answer: Optional[str]
    think_segment: str = ""

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
    """Split a completion into marker-delimited blocks.

    Scanning never fails; text without markers yields zero blocks. The boxed
    answer is extracted from the full raw text (including any think segment)
    so a boxed value is never lost to tag stripping.
    """
    think_segment, start = _split_think(raw, think_open, think_close)
    matches = list(_MARKER_RE.finditer(raw, start))

    if matches:
        preamble = raw[start : matches[0].start()]
    else:
        preamble = raw[start:]

    blocks = []
    for i, match in enumerate(matches):
        body_start = match.end()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(raw)
        body = raw[body_start:end]
        step_match = _STEP_RE.match(body)
        step = None
        if step_match:
            value = int(step_match.group(1))
            if value > 0:
                step = value
        blocks.append(
            Block(
                kind=BlockKind(match.group(1)),
                body=body,
                span=(match.start(), end),
                step=step,
            )
        )

    return ReasoningTrace(
        raw=raw,
        preamble=preamble,
        blocks=tuple(blocks),
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
    blocks = trace.blocks

    alternation_ok = bool(blocks) and len(blocks) % 2 == 0
    if alternation_ok:
        for i, block in enumerate(blocks):
            expected = BlockKind.INSTRUCTION if i % 2 == 0 else BlockKind.EXECUTION
            if block.kind is not expected:
                alternation_ok = False
                break

    step_alignment_ok = bool(blocks) and len(blocks) % 2 == 0
    if step_alignment_ok:
        for i, block in enumerate(blocks):
            if block.step != i // 2 + 1:
                step_alignment_ok = False
                break

    boxed_present = trace.boxed_answer is not None

    return FormatReport(
        alternation_ok=alternation_ok,
        step_alignment_ok=step_alignment_ok,
        boxed_present=boxed_present,
        compliant=alternation_ok and step_alignment_ok and boxed_present,
        instruction_count=sum(1 for b in blocks if b.kind is BlockKind.INSTRUCTION),
        execution_count=sum(1 for b in blocks if b.kind is BlockKind.EXECUTION),
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
