"""Block scanning and format validation."""

import random
import re
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from hicot import traces
from hicot.judge import extract_boxed
from hicot.prompts import PromptStrategy
from hicot.traces import (
    BlockKind,
    EXECUTION_MARKER,
    FormatReport,
    INSTRUCTION_MARKER,
    ReasoningTrace,
    compliance_mode,
    scan_blocks,
    validate_format,
)

from trace_samples import RELAXED_OUTPUT, WORKED_HICOT_OUTPUT

_MARKER_OF_KIND = {BlockKind.INSTRUCTION: INSTRUCTION_MARKER, BlockKind.EXECUTION: EXECUTION_MARKER}


@dataclass(frozen=True)
class Block:
    """One marker-delimited block: ``span`` is the half-open range of the marker
    and the body in the raw completion; ``body`` excludes the marker."""

    kind: BlockKind
    body: str
    span: Tuple[int, int]
    step: Optional[int] = None


def _blocks(trace):
    """Each mark as a Block, with the body and span that its offset and the next give."""
    raw = trace.raw
    ends = [offset for _, offset, _ in trace.marks[1:]] + [len(raw)]
    return [
        Block(kind, raw[start + len(_MARKER_OF_KIND[kind]) : end], (start, end), step)
        for (kind, start, step), end in zip(trace.marks, ends)
    ]


def _preamble(trace):
    """The text from ``scan_start`` to the first marker, or to the end."""
    end = trace.marks[0][1] if trace.marks else len(trace.raw)
    return trace.raw[trace.scan_start : end]


def _assert_partition(trace):
    """The offsets partition ``raw`` into think span, preamble and blocks: they
    strictly increase from ``scan_start``, each starts its kind's marker, and
    every marker after ``scan_start`` has its mark, so no body holds one."""
    raw, offsets = trace.raw, [offset for _, offset, _ in trace.marks]
    assert 0 <= trace.scan_start <= len(raw)
    assert all(a < b for a, b in zip(offsets, offsets[1:]))
    assert all(offset >= trace.scan_start for offset in offsets)
    assert all(raw.startswith(_MARKER_OF_KIND[kind], offset) for kind, offset, _ in trace.marks)
    scanned = raw[trace.scan_start :]
    assert scanned.count(INSTRUCTION_MARKER) + scanned.count(EXECUTION_MARKER) == len(offsets)


class TestScanBlocks:
    def test_worked_output(self):
        trace = scan_blocks(WORKED_HICOT_OUTPUT)
        assert len(trace.marks) == 8
        kinds = [kind for kind, _, _ in trace.marks]
        assert kinds == [BlockKind.INSTRUCTION, BlockKind.EXECUTION] * 4
        assert [step for _, _, step in trace.marks] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert trace.boxed_answer == "\\$22"
        assert trace.scan_start == 0 and _preamble(trace) == ""
        _assert_partition(trace)

    def test_empty_input(self):
        trace = scan_blocks("")
        assert trace.marks == ()
        assert trace.boxed_answer is None
        assert trace.scan_start == 0 and _preamble(trace) == ""
        _assert_partition(trace)

    def test_mixed_order_with_preamble(self):
        raw = "abc <|execution|> x <|instruction|> y"
        trace = scan_blocks(raw)
        assert _preamble(trace) == "abc "
        assert [(b.kind, b.body) for b in _blocks(trace)] == [
            (BlockKind.EXECUTION, " x "),
            (BlockKind.INSTRUCTION, " y"),
        ]
        assert all(step is None for _, _, step in trace.marks)
        _assert_partition(trace)

    def test_reference_scanner_agreement(self):
        # Independent left-to-right split on marker substrings.
        raw = "abc <|execution|> x <|instruction|> y"
        marker_re = re.compile(r"(<\|instruction\|>|<\|execution\|>)")
        pieces = marker_re.split(raw)
        assert pieces[0] == "abc "
        assert pieces[1::2] == [EXECUTION_MARKER, INSTRUCTION_MARKER]
        assert pieces[2::2] == [" x ", " y"]

    def test_spans_cover_marker_and_body(self):
        raw = "pre<|instruction|>one<|execution|>two"
        blocks = _blocks(scan_blocks(raw))
        for block in blocks:
            start, end = block.span
            assert start < end
            assert raw[start:end].startswith("<|")
            assert raw[start:end].endswith(block.body)
        spans = [b.span for b in blocks]
        assert spans == sorted(spans)
        # Blocks tile the text from the first marker to the end.
        assert spans[0][0] == len("pre")
        assert spans[-1][1] == len(raw)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_empty_body_block(self):
        raw = "x<|instruction|>"
        trace = scan_blocks(raw)
        (block,) = _blocks(trace)
        assert block.body == ""
        start, end = block.span
        assert start < end
        _assert_partition(trace)

    def test_think_segment_stripped_and_recorded(self):
        raw = "<think>inner <|instruction|> ignored</think><|instruction|> Step 1: go"
        trace = scan_blocks(raw)
        assert raw[: trace.scan_start] == "<think>inner <|instruction|> ignored</think>"
        assert [step for _, _, step in trace.marks] == [1]
        _assert_partition(trace)

    def test_think_segment_allows_leading_whitespace(self):
        raw = "  \n<think>hm</think>tail"
        trace = scan_blocks(raw)
        assert raw[: trace.scan_start] == "  \n<think>hm</think>"
        assert _preamble(trace) == "tail"

    def test_unterminated_think_tag_is_plain_text(self):
        raw = "<think>never closes <|execution|> x"
        trace = scan_blocks(raw)
        assert trace.scan_start == 0
        assert _preamble(trace) == "<think>never closes "
        assert len(trace.marks) == 1

    def test_think_tags_configurable(self):
        raw = "[[reason]]hidden[[/reason]]<|instruction|> Step 1: a"
        trace = scan_blocks(raw, think_open="[[reason]]", think_close="[[/reason]]")
        assert raw[: trace.scan_start] == "[[reason]]hidden[[/reason]]"
        assert len(trace.marks) == 1

    def test_boxed_answer_found_inside_think_segment(self):
        raw = "<think>\\boxed{41}</think>no visible answer"
        assert scan_blocks(raw).boxed_answer == "41"

    @pytest.mark.parametrize(
        "body,step",
        [
            (" Step 1: x", 1),
            ("Step 12: x", 12),
            ("\n  Step 3: x", 3),
            (" step 1: x", None),  # case-sensitive
            (" Step one: x", None),
            (" Step 1 : x", None),  # colon must follow the integer
            (" Step  2: x", None),  # exactly one space before the integer
            (" Step 0: x", None),  # steps are positive
            ("x Step 1: y", None),  # label must sit at the body head
        ],
    )
    def test_step_label_grammar(self, body, step):
        ((_, _, parsed),) = scan_blocks(INSTRUCTION_MARKER + body).marks
        assert parsed == step

    def test_step_label_past_the_digit_limit_is_unset(self):
        # int() refuses more than 4,300 digits; the step is left unset, not raised.
        raw = INSTRUCTION_MARKER + "Step " + "1" * 5000 + ": go" + EXECUTION_MARKER + "Step 1: x"
        trace = scan_blocks(raw)
        assert [step for _, _, step in trace.marks] == [None, 1]
        _assert_partition(trace)
        assert not validate_format(trace).step_alignment_ok

    def test_losslessness_over_randomized_strings(self):
        rng = random.Random(20260808)
        atoms = [
            INSTRUCTION_MARKER,
            EXECUTION_MARKER,
            "<think>",
            "</think>",
            "Step 1:",
            "Step 23:",
            " ",
            "\n",
            "text",
            "\\boxed{7}",
            "{",
            "}",
            "<|",
            "|>",
            "<|instr",
        ]
        for _ in range(10_000):
            raw = "".join(rng.choice(atoms) for _ in range(rng.randrange(0, 12)))
            _assert_partition(scan_blocks(raw))


def _synthetic_trace(kinds, steps=None, boxed=None):
    """Build a ReasoningTrace from a kind sequence (for validator tests)."""
    marks = []
    pieces = []
    cursor = 0
    for i, kind in enumerate(kinds):
        marker = INSTRUCTION_MARKER if kind == "I" else EXECUTION_MARKER
        body = f" Step {steps[i]}: x " if steps else " x "
        marks.append(
            (
                BlockKind.INSTRUCTION if kind == "I" else BlockKind.EXECUTION,
                cursor,
                steps[i] if steps else None,
            )
        )
        pieces.append(marker + body)
        cursor += len(marker) + len(body)
    return ReasoningTrace(raw="".join(pieces), marks=tuple(marks), boxed_answer=boxed)


class TestValidateFormat:
    def test_worked_output_fully_compliant(self):
        report = validate_format(scan_blocks(WORKED_HICOT_OUTPUT))
        assert (report.alternation_ok, report.step_alignment_ok, report.boxed_present) == (
            True,
            True,
            True,
        )
        assert report.compliant

    def test_empty_trace(self):
        report = validate_format(scan_blocks(""))
        assert (report.alternation_ok, report.step_alignment_ok, report.boxed_present) == (
            False,
            False,
            False,
        )
        assert not report.compliant

    def test_double_instruction_breaks_alternation(self):
        trace = _synthetic_trace("IIE", steps=[1, 2, 2], boxed="4")
        report = validate_format(trace)
        assert not report.alternation_ok

    def test_trailing_unmatched_instruction_fails(self):
        trace = _synthetic_trace("IEI", steps=[1, 1, 2], boxed="4")
        assert not validate_format(trace).alternation_ok

    def test_execution_first_fails(self):
        trace = _synthetic_trace("EI", steps=[1, 1], boxed="4")
        assert not validate_format(trace).alternation_ok

    def test_step_alignment_requires_paired_numbers(self):
        ok = _synthetic_trace("IEIE", steps=[1, 1, 2, 2], boxed="4")
        assert validate_format(ok).step_alignment_ok
        skipped = _synthetic_trace("IEIE", steps=[1, 1, 3, 3], boxed="4")
        assert not validate_format(skipped).step_alignment_ok
        mismatched = _synthetic_trace("IEIE", steps=[1, 2, 2, 3], boxed="4")
        assert not validate_format(mismatched).step_alignment_ok
        zero_start = _synthetic_trace("IEIE", steps=[0, 0, 1, 1], boxed="4")
        assert not validate_format(zero_start).step_alignment_ok

    def test_missing_step_label_fails_alignment(self):
        trace = scan_blocks(
            "<|instruction|> Step 1: a<|execution|> no label here \\boxed{1}"
        )
        report = validate_format(trace)
        assert report.alternation_ok
        assert not report.step_alignment_ok

    def test_step_alignment_true_implies_paired_multiset(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(0, 8)
            steps = [rng.randrange(1, 4) for _ in range(n)]
            kinds = "".join(rng.choice("IE") for _ in range(n))
            trace = _synthetic_trace(kinds, steps=steps if n else None, boxed="1")
            report = validate_format(trace)
            if report.step_alignment_ok:
                expected = [i // 2 + 1 for i in range(n)]
                assert steps == expected and n > 0 and n % 2 == 0

    def test_compliant_is_conjunction(self):
        cases = [
            scan_blocks(WORKED_HICOT_OUTPUT),
            scan_blocks(RELAXED_OUTPUT),
            scan_blocks(""),
            scan_blocks("just text \\boxed{1}"),
            _synthetic_trace("IE", steps=[1, 1]),
        ]
        for trace in cases:
            report = validate_format(trace)
            assert report.compliant == (
                report.alternation_ok and report.step_alignment_ok and report.boxed_present
            )

    def test_text_after_final_block_is_ignored(self):
        raw = WORKED_HICOT_OUTPUT + "\n\nSo the final answer is 22."
        report = validate_format(scan_blocks(raw))
        assert report.compliant

    def test_alternation_matches_reference_acceptor(self):
        # (IE)+ acceptor vs dimension-1 verdict over all short kind sequences.
        accepts = re.compile(r"(?:IE)+")
        for n in range(0, 7):
            for bits in range(2**n):
                kinds = "".join("I" if bits >> i & 1 == 0 else "E" for i in range(n))
                trace = _synthetic_trace(kinds, boxed="1")
                assert validate_format(trace).alternation_ok == bool(
                    accepts.fullmatch(kinds)
                ), kinds


class TestComplianceMode:
    def test_hicot_requires_full_compliance(self):
        full = FormatReport(True, True, True, True, 2, 2)
        assert compliance_mode(PromptStrategy.HICOT, full)
        partial = FormatReport(True, False, True, False, 2, 2)
        assert not compliance_mode(PromptStrategy.HICOT, partial)

    def test_relaxed_accepts_unnumbered_blocks(self):
        report = validate_format(scan_blocks(RELAXED_OUTPUT))
        assert not report.compliant  # step alignment fails without labels
        assert compliance_mode(PromptStrategy.HICOT_RELAXED, report)

    def test_relaxed_requires_both_kinds(self):
        only_instructions = validate_format(
            scan_blocks("<|instruction|> a <|instruction|> b \\boxed{1}")
        )
        assert not compliance_mode(PromptStrategy.HICOT_RELAXED, only_instructions)
        no_markers = validate_format(scan_blocks("plain \\boxed{1}"))
        assert not compliance_mode(PromptStrategy.HICOT_RELAXED, no_markers)

    def test_relaxed_tolerates_broken_alternation(self):
        report = validate_format(
            scan_blocks("<|execution|> x <|instruction|> y <|execution|> z \\boxed{1}")
        )
        assert not report.alternation_ok
        assert compliance_mode(PromptStrategy.HICOT_RELAXED, report)

    @pytest.mark.parametrize(
        "strategy",
        [PromptStrategy.STANDARD, PromptStrategy.COT, PromptStrategy.PLAN_AND_SOLVE],
    )
    def test_flat_strategies_only_need_boxed(self, strategy):
        boxed_only = FormatReport(False, False, True, False, 0, 0)
        assert compliance_mode(strategy, boxed_only)
        nothing = FormatReport(False, False, False, False, 0, 0)
        assert not compliance_mode(strategy, nothing)


# Reference: the block scan and validation as first written, kept verbatim as
# the oracle for the leaner ``scan_blocks`` and ``validate_format``. Only the
# container ``_reference_scan_blocks`` returns is new: ``ReasoningTrace`` holds
# marks, not blocks. The ``Block`` it builds is the one defined above, and it
# reads the think split in its first form, the span and the offset after it.
def _split_think(raw, think_open, think_close):
    start = traces._split_think(raw, think_open, think_close)
    return raw[:start], start


_MARKER_RE = re.compile(r"<\|(instruction|execution)\|>")
_REFERENCE_STEP_RE = re.compile(r"^\s*Step (\d+):")


def _reference_scan_blocks(raw, think_open="<think>", think_close="</think>"):
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
        step_match = _REFERENCE_STEP_RE.match(body)
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

    return SimpleNamespace(
        raw=raw,
        preamble=preamble,
        blocks=tuple(blocks),
        boxed_answer=extract_boxed(raw),
        think_segment=think_segment,
    )


def _reference_validate_format(trace):
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


_WHITESPACE = st.text(alphabet=" \t\n\r\u3000\x0b", max_size=3)
_STEP_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=4), st.integers(min_value=-(10**30), max_value=10**30)
)
_STEP_HEADS = st.builds(
    lambda lead, word, k, colon: f"{lead}{word}{k}{colon}",
    _WHITESPACE,
    st.sampled_from(["Step ", "step ", "Step  ", "Step", "STEP "]),
    _STEP_NUMBERS,
    st.sampled_from([":", "", " :"]),
)
_PIECES = st.one_of(
    st.sampled_from(
        [
            INSTRUCTION_MARKER,
            EXECUTION_MARKER,
            "<think>",
            "</think>",
            "\\boxed{",
            "{",
            "}",
            "<|",
            "|>",
            "<|instruction",
        ]
    ),
    _STEP_HEADS,
    st.text(alphabet="ab 7\n:", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(
    lead=_WHITESPACE,
    pairs=st.integers(min_value=0, max_value=4),
    pieces=st.lists(_PIECES, max_size=24),
    tail=st.text(max_size=8),
)
def test_scan_and_validate_match_the_reference(lead, pairs, pieces, tail):
    # ``pairs`` aligned blocks first, so compliant traces are drawn too; ``tail``
    # is text after the last block; ``lead`` lets a think span open after whitespace.
    aligned = "".join(
        f"{marker} Step {k}: x" for k in range(1, pairs + 1)
        for marker in (INSTRUCTION_MARKER, EXECUTION_MARKER)
    )
    raw = lead + aligned + "".join(pieces) + tail
    trace, reference = scan_blocks(raw), _reference_scan_blocks(raw)
    assert trace.marks == tuple((b.kind, b.span[0], b.step) for b in reference.blocks)
    assert tuple(_blocks(trace)) == reference.blocks  # kind, body, span and step of each block
    _assert_partition(trace)
    assert raw[: trace.scan_start] == reference.think_segment
    assert _preamble(trace) == reference.preamble
    assert (trace.raw, trace.boxed_answer) == (reference.raw, reference.boxed_answer)
    assert validate_format(trace) == _reference_validate_format(reference)
