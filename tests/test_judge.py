"""Boxed extraction, normalization, and answer comparison."""

import random
import re

import pytest

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
