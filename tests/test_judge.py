"""Boxed extraction, normalization, and answer comparison."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from hicot.datasets import Problem
from hicot.judge import (
    AnswerKind,
    JudgeReason,
    Judgment,
    _normalized_equal,
    answers_equal,
    extract_boxed,
    judge,
    normalize_math,
    parse_int,
)

from judge_vectors import VECTORS
from trace_samples import WORKED_HICOT_OUTPUT


def oracle_extract_boxed(text):
    """Brute force: scan every occurrence, match braces with an explicit
    stack, keep the last balanced one."""
    best = None
    for match in re.finditer(re.escape("\\boxed{"), text):
        start = match.end()
        stack = ["{"]
        for i in range(start, len(text)):
            c = text[i]
            if c == "{":
                stack.append(c)
            elif c == "}":
                stack.pop()
                if not stack:
                    best = text[start:i]
                    break
    return best


def reference_normalize_math(s):
    """``normalize_math`` as it was while every pass ran on the whole string,
    kept verbatim (its helpers renamed) as the reference."""
    current = s
    previous = None
    while current != previous:
        previous = current
        current = _reference_normalize_pass(current)
    return current


def _reference_normalize_pass(s):
    s = s.strip()
    while len(s) >= 2 and s.startswith("$") and s.endswith("$"):
        s = s[1:-1]
    s = s.replace("\\left", "").replace("\\right", "")
    s = _reference_unwrap_text_like(s)
    if re.fullmatch(r"[+-]?\d{1,3}(?:,\d{3})+", s):
        s = s.replace(",", "")
    if s.endswith("."):
        s = s[:-1]
    s = "".join(s.split())
    s = s.replace("\\dfrac", "\\frac")
    if s.startswith("\\$"):
        s = s[2:]
    elif s.startswith("$"):
        s = s[1:]
    return s


def _reference_unwrap_text_like(s):
    for prefix in ("\\text{", "\\mathrm{"):
        if s.startswith(prefix) and s.endswith("}"):
            inner = _reference_balanced_content(s, len(prefix))
            if inner is not None and len(prefix) + len(inner) + 1 == len(s):
                return inner
    return s


def _reference_balanced_content(text, start):
    depth = 1
    for i in range(start, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return text[start:i]
    return None


# Answers drawn from the pieces the normalization rules look at, as cores
# wrapped in layers that each take one pass to peel, and side by side, so most
# need three passes or more. A split layer is \left, \right or \dfrac cut in
# two: once what lies between its halves is gone, they join into an occurrence
# that the next pass removes.
_ANSWER_PIECES = st.one_of(
    st.sampled_from([
        "$", "\\$", "\\", "{", "}", "text", "mathrm", "left", "right", "le", "ft",
        "dfrac", "\\text{", "\\mathrm{", "\\left", "\\right", "\\le", "\\dfrac", "\\d",
        "frac", ",", ".", ",000", " ", "\t", "\n", "0", "1", "234", "+", "-",
    ]),
    st.characters(),
)
_PATTERNS = ["\\left", "\\right", "\\dfrac"]
_SPLIT_LAYERS = [(p[:cut], p[cut:]) for p in _PATTERNS for cut in range(1, len(p))]
_PEEL_LAYERS = [
    ("$", "$"), ("\\text{", "}"), ("\\mathrm{", "}"), ("\\$", ""), ("$", ""), ("", "."),
    ("", "$"), (" ", " "), ("{", ""), ("", "}"), ("1,", ""), ("", ",000"),
]


def _nested(core, layers):
    return st.recursive(
        core,
        lambda inner: st.one_of(
            st.builds(lambda core, layer: layer[0] + core + layer[1], inner, st.sampled_from(layers)),
            st.lists(inner, min_size=2, max_size=3).map("".join),
        ),
        max_leaves=16,
    )


# A chain of split layers ends the answer, and leading "$" race it: one "$"
# goes in each pass, and the enclosing pair goes only in a pass that begins
# after the chain is gone, so the answer shows in which pass each layer joins.
_RACES = st.builds(
    lambda dollars, chain: "$" * dollars + "5$" + chain,
    st.integers(1, 4),
    _nested(st.sampled_from(_PATTERNS), _SPLIT_LAYERS),
)
_ANSWERS = _nested(
    st.one_of(st.sampled_from(_PATTERNS), st.lists(_ANSWER_PIECES, max_size=4).map("".join)),
    _SPLIT_LAYERS + _PEEL_LAYERS,
) | _RACES
# The output of a pass has no whitespace and no \dfrac: an answer that starts in
# a later pass of the reference.
_PASS_OUTPUTS = _ANSWERS.map(lambda s: "".join(s.split()).replace("\\dfrac", "\\frac"))


# A run of unclosed openings, and a lone "}" just before or after it: where the
# search jumps from one "}" back to the last opening before it.
_BOX_RUNS = st.builds(
    lambda before, k, after: before + "\\boxed{ " * k + after,
    st.sampled_from(["", "}"]), st.integers(1, 12), st.sampled_from(["", "}"]),
)
_BOX_PIECES = st.one_of(
    _BOX_RUNS,
    st.sampled_from(["\\boxed{", "}", "{}", "{", "\\boxed", "boxed{", "\\boxed}", "x", " "]),
)
_BOX_TEXTS = st.one_of(
    st.lists(_BOX_PIECES, max_size=12).map("".join),
    st.lists(_BOX_PIECES, max_size=12).map(lambda pieces: "".join(pieces).replace("}", "")),
)


class TestExtractBoxed:
    def test_dollar_answer(self):
        assert extract_boxed("The total amount Alice pays is \\boxed{\\$22}.") == "\\$22"

    def test_absent(self):
        assert extract_boxed("no answer here") is None
        assert extract_boxed("") is None

    def test_last_occurrence_wins(self):
        assert extract_boxed("a \\boxed{x_{1}+\\frac{1}{2}} b \\boxed{3}") == "3"

    def test_nested_braces_kept_intact(self):
        assert extract_boxed("\\boxed{\\frac{a_{1}}{b_{2}}}") == "\\frac{a_{1}}{b_{2}}"

    def test_unbalanced_last_falls_back_to_earlier(self):
        assert extract_boxed("\\boxed{ok} and \\boxed{never closes") == "ok"

    def test_all_unbalanced_is_absent(self):
        assert extract_boxed("\\boxed{never \\boxed{closes") is None

    def test_empty_content(self):
        assert extract_boxed("\\boxed{}") == ""

    def test_inner_boxed_is_the_later_occurrence(self):
        assert extract_boxed("\\boxed{a \\boxed{b}}") == "b"

    def test_agrees_with_oracle_on_random_strings(self):
        rng = random.Random(1234)
        atoms = ["\\boxed{", "{", "}", "x", "y", " ", "\\", "$", "1", "\\frac{1}{2}", "boxed"]
        for _ in range(10_000):
            text = "".join(rng.choice(atoms) for _ in range(rng.randrange(0, 14)))
            assert extract_boxed(text) == oracle_extract_boxed(text), repr(text)

    def test_agrees_with_oracle_on_opening_dense_strings(self):
        # Dense in openings and stray braces: exercises a stray "}" before a
        # box, nested boxes and surpluses that drop back to zero.
        rng = random.Random(4321)
        atoms = ["\\boxed{", "{", "}", "\\boxed", "x}", "x"]
        for _ in range(10_000):
            text = "".join(rng.choice(atoms) for _ in range(rng.randrange(0, 20)))
            assert extract_boxed(text) == oracle_extract_boxed(text), repr(text)

    @settings(deadline=None)
    @given(text=_BOX_TEXTS)
    @example(text="")
    @example(text="\\boxed{a}" + "\\boxed{ " * 3)
    @example(text="\\boxed{a}}" + "\\boxed{ " * 3)
    @example(text="\\boxed{" + "\\boxed{ " * 3 + "}")
    @example(text="\\boxed{a}\\boxed{ ")  # the "}" the search jumps to is next to the opening
    def test_agrees_with_oracle_around_the_skip(self, text):
        assert extract_boxed(text) == oracle_extract_boxed(text)


class TestNormalizeMath:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("\\$22", "22"),
            ("42", "42"),
            (" \\left( \\dfrac{1}{2} \\right) ", "(\\frac{1}{2})"),
            ("$1{,}000$", "1{,}000"),  # braced comma is not a thousands separator
            ("1,234,567", "1234567"),
            ("\\text{ok}", "ok"),
            ("\\mathrm{m}", "m"),
            ("\\text{a}b", "\\text{a}b"),  # unwraps only a whole-string wrapper
            ("  spaced   out  ", "spacedout"),
            ("42.", "42"),
            ("$", ""),
            ("$$", ""),
            ("\\$\\$5", "5"),  # repeated passes reach the idempotent fixpoint
        ],
    )
    def test_vectors(self, raw, expected):
        assert normalize_math(raw) == expected

    def test_idempotent_on_vectors(self):
        for pred, gold, _, _ in VECTORS:
            for side in (pred, gold):
                once = normalize_math(side)
                assert normalize_math(once) == once

    def test_idempotent_on_random_strings(self):
        rng = random.Random(99)
        atoms = [
            "$", "\\$", " ", ".", ",", "123", "\\left", "\\right", "\\text{", "}",
            "\\mathrm{", "\\dfrac", "\\frac", "{", "x", "\n", "1,000",
        ]
        for _ in range(10_000):
            s = "".join(rng.choice(atoms) for _ in range(rng.randrange(0, 10)))
            once = normalize_math(s)
            assert normalize_math(once) == once, repr(s)

    @settings(deadline=None)
    @given(s=_ANSWERS)
    @example(s="\\$" * 5 + "5")
    @example(s="\\text{" * 4 + "x" + "}" * 4)
    @example(s="\\le" * 3 + "\\left" + "ft" * 3)
    @example(s="\\le " * 3 + "ft" * 3)
    @example(s="$\\$5$\\le\\leftft")  # the \left joined in the first pass goes in the second
    @example(s="$$5$\\le ft")  # and so does one that whitespace joins
    @example(s=" $5$ ")  # the trim goes before the enclosing "$" at both ends
    @example(s="\\$$5$")  # one leading dollar goes per pass
    def test_matches_the_reference(self, s):
        assert normalize_math(s) == reference_normalize_math(s)

    @settings(deadline=None)
    @given(t=_PASS_OUTPUTS)
    # Which "$" a pass peels depends on when a \left goes: a \left that a
    # \left removal joins goes in the next pass, and one joined by two
    # removals goes after the later, whichever lies between which of its
    # characters; it depends too on how many periods are left at the end. A \text{ whose brace closes early wraps nothing;
    # thousands separators go once nothing but the numeral is left.
    @example(t="$5$\\le\\leftft")
    @example(t="$$5$\\le\\leftft")
    @example(t="$$$5$\\lef\\le\\leftft\\leftt")
    @example(t="$$$5$\\\\le\\leftftle\\leftft")
    @example(t="$$5$..")
    @example(t="\\text{a}{b}")
    @example(t="1,000\\le\\leftft")
    def test_later_passes_match_the_reference(self, t):
        assert normalize_math(t) == reference_normalize_math(t)


class TestAnswersEqual:
    @pytest.mark.parametrize("pred,gold,kind,expected", VECTORS)
    def test_vectors(self, pred, gold, kind, expected):
        assert answers_equal(pred, gold, kind) is expected

    def test_symmetric_for_math_expression(self):
        for pred, gold, kind, _ in VECTORS:
            if kind is AnswerKind.MATH_EXPRESSION:
                assert answers_equal(pred, gold, kind) == answers_equal(gold, pred, kind)

    def test_reflexive_for_math_expression(self):
        # Integer-exact comparison is intentionally not reflexive for strings
        # that fail to parse as integers, so reflexivity is checked under the
        # expression rules.
        for pred, gold, _, _ in VECTORS:
            for side in (pred, gold):
                assert answers_equal(side, side, AnswerKind.MATH_EXPRESSION)


def _problem(gold, kind):
    return Problem(id="p", benchmark="b", statement="s?", gold_answer=gold, kind=kind)


class TestJudge:
    def test_worked_output_is_correct(self):
        verdict = judge(
            extract_boxed(WORKED_HICOT_OUTPUT), _problem("22", AnswerKind.MATH_EXPRESSION)
        )
        assert verdict.correct
        assert verdict.reason is JudgeReason.MATCH
        assert verdict.predicted_raw == "\\$22"
        assert verdict.predicted_normalized == "22"

    def test_empty_completion(self):
        verdict = judge(extract_boxed(""), _problem("7", AnswerKind.INTEGER_EXACT))
        assert not verdict.correct
        assert verdict.reason is JudgeReason.NO_BOXED_ANSWER
        assert verdict.predicted_raw is None

    def test_unparseable_integer(self):
        verdict = judge(extract_boxed("\\boxed{seven}"), _problem("7", AnswerKind.INTEGER_EXACT))
        assert not verdict.correct
        assert verdict.reason is JudgeReason.UNPARSEABLE_INTEGER

    def test_integer_mismatch(self):
        verdict = judge(extract_boxed("\\boxed{22}"), _problem("23", AnswerKind.INTEGER_EXACT))
        assert not verdict.correct
        assert verdict.reason is JudgeReason.MISMATCH

    def test_out_of_range_is_flagged_not_failed(self):
        verdict = judge(extract_boxed("\\boxed{1500}"), _problem("1500", AnswerKind.INTEGER_EXACT))
        assert verdict.correct
        assert verdict.out_of_range
        in_range = judge(extract_boxed("\\boxed{500}"), _problem("500", AnswerKind.INTEGER_EXACT))
        assert in_range.correct and not in_range.out_of_range

    @pytest.mark.parametrize(
        "numeral",
        ["9" * 5000, "0." + "9" * 5000, "\\frac{" + "9" * 5000 + "}{7}"],
        ids=["integer", "decimal", "frac"],
    )
    def test_numeral_past_the_digit_limit_is_no_number(self, numeral):
        # int() refuses more than 4,300 digits: such a numeral is judged, not raised.
        verdict = judge(numeral, _problem("42", AnswerKind.INTEGER_EXACT))
        assert verdict.reason is JudgeReason.UNPARSEABLE_INTEGER
        for predicted, gold in ((numeral, "1"), ("1", numeral)):
            verdict = judge(predicted, _problem(gold, AnswerKind.MATH_EXPRESSION))
            assert verdict.reason is JudgeReason.MISMATCH
        assert judge(numeral, _problem(numeral, AnswerKind.MATH_EXPRESSION)).correct

    def test_correct_implies_match(self):
        for pred, gold, kind, _ in VECTORS:
            verdict = judge(extract_boxed(f"\\boxed{{{pred}}}"), _problem(gold, kind))
            if verdict.correct:
                assert verdict.reason is JudgeReason.MATCH

    def test_never_correct_without_boxed_answer(self):
        for text in ("", "answer: 22", "\\boxed{unclosed", "the \\box{22}"):
            verdict = judge(extract_boxed(text), _problem("22", AnswerKind.MATH_EXPRESSION))
            assert not verdict.correct
            assert verdict.reason is JudgeReason.NO_BOXED_ANSWER

    def test_gold_normalized_once_judges_as_per_call(self):
        def judge_normalizing_gold_per_call(predicted, problem):
            # The judge as first written, kept verbatim as the reference.
            if predicted is None:
                return Judgment(None, None, False, JudgeReason.NO_BOXED_ANSWER)

            normalized = normalize_math(predicted)
            out_of_range = False
            if problem.kind is AnswerKind.INTEGER_EXACT:
                value = parse_int(normalized)
                if value is None:
                    return Judgment(predicted, normalized, False, JudgeReason.UNPARSEABLE_INTEGER)
                out_of_range = not 0 <= value <= 999

            if _normalized_equal(normalized, normalize_math(problem.gold_answer), problem.kind):
                return Judgment(predicted, normalized, True, JudgeReason.MATCH, out_of_range)
            return Judgment(predicted, normalized, False, JudgeReason.MISMATCH, out_of_range)

        for pred, gold, kind, _ in VECTORS:
            problem = _problem(gold, kind)
            for predicted in (pred, None):
                expected = judge_normalizing_gold_per_call(predicted, problem)
                # Twice: the first call works the normalized gold out, the second reuses it.
                assert judge(predicted, problem) == judge(predicted, problem) == expected
            assert problem.gold_normalized == normalize_math(gold)

    def test_vectors_through_judge(self):
        # Wrapping the prediction in a box must reproduce the vector verdicts,
        # except for predictions the wrapper itself changes (unbalanced braces).
        for pred, gold, kind, expected in VECTORS:
            if pred.count("{") != pred.count("}"):
                continue
            verdict = judge(extract_boxed(f"so \\boxed{{{pred}}} done"), _problem(gold, kind))
            assert verdict.correct is expected, (pred, gold, kind)
