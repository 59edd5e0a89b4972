"""Boxed-answer extraction and correctness judging against gold labels.

Judging is deliberately conservative: exact string equality after a fixed
normalization pipeline, plus exact-rational comparison for plain numeric
forms. No computer-algebra simplification is attempted, so symbolically
equal but textually different answers count as mismatches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

    from .datasets import Problem

_BOX = "\\boxed{"
_BRACES = re.compile(r"[{}]")


class AnswerKind(Enum):
    INTEGER_EXACT = "integer_exact"
    MATH_EXPRESSION = "math_expression"


class JudgeReason(Enum):
    MATCH = "match"
    MISMATCH = "mismatch"
    NO_BOXED_ANSWER = "no_boxed_answer"
    UNPARSEABLE_INTEGER = "unparseable_integer"


@dataclass(frozen=True)
class Judgment:
    """One scored prediction.

    ``out_of_range`` flags integer predictions outside [0, 999]; the value
    still compares by plain equality.
    """

    predicted_raw: Optional[str]
    predicted_normalized: Optional[str]
    correct: bool
    reason: JudgeReason
    out_of_range: bool = False


def extract_boxed(raw: str) -> Optional[str]:
    """Content of the last balanced ``\\boxed{...}`` in ``raw``, if any.

    Braces are matched by depth counting so nested groups stay intact; an
    occurrence whose braces never balance before end of text is skipped in
    favor of the nearest earlier balanced one.

    Occurrences are visited from the last one back, and each folds in only
    the braces between it and the later one, so the cost is linear in the text
    after the answer. ``surplus`` is the largest amount by which ``}``
    outnumbers ``{`` in any prefix of the text after the current occurrence;
    the occurrence closes exactly when it is positive.
    """
    if not raw:
        return None
    surplus = 0
    folded = len(raw)
    pos = raw.rfind(_BOX)
    while pos >= 0:
        start = pos + len(_BOX)
        for brace in reversed(_BRACES.findall(raw, start, folded)):
            surplus = surplus + 1 if brace == "}" else max(surplus - 1, 0)
        if surplus > 0:
            return _balanced_content(raw, start)
        folded = start
        pos = raw.rfind(_BOX, 0, pos)
    return None


def _balanced_content(text: str, start: int) -> Optional[str]:
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


def normalize_math(s: str) -> str:
    """Canonicalize an answer string for comparison.

    Single pass, in order: trim; strip enclosing ``$``; drop ``\\left`` and
    ``\\right``; unwrap one whole-string ``\\text{}``/``\\mathrm{}``; drop
    thousands separators in integers; drop a trailing period; remove
    whitespace; rewrite ``\\dfrac`` to ``\\frac``; strip a leading currency
    dollar. The pass repeats until the string is stable, which makes the
    whole function idempotent by construction.
    """
    current = s
    previous = None
    while current != previous:
        previous = current
        current = _normalize_pass(current)
    return current


def _normalize_pass(s: str) -> str:
    s = s.strip()
    while len(s) >= 2 and s.startswith("$") and s.endswith("$"):
        s = s[1:-1]
    s = s.replace("\\left", "").replace("\\right", "")
    s = _unwrap_text_like(s)
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


def _unwrap_text_like(s: str) -> str:
    for prefix in ("\\text{", "\\mathrm{"):
        if s.startswith(prefix) and s.endswith("}"):
            inner = _balanced_content(s, len(prefix))
            if inner is not None and len(prefix) + len(inner) + 1 == len(s):
                return inner
    return s


_INT_RE = re.compile(r"[+-]?\d+")
_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+)")
_FRAC_RE = re.compile(r"([+-]?)\\frac\{(-?\d+)\}\{(-?\d+)\}")


def parse_int(s: str) -> Optional[int]:
    """The base-10 integer that the normalized answer ``s`` spells, or None."""
    if _INT_RE.fullmatch(s):
        return int(s)
    return None


def _parse_rational(s: str) -> Optional[Fraction]:
    """Exact rational value of an integer, decimal, or ``\\frac{a}{b}``."""
    import fractions  # only math-expression answers that differ get here

    match = _FRAC_RE.fullmatch(s)
    if match:
        sign, num, den = match.group(1), int(match.group(2)), int(match.group(3))
        if den == 0:
            return None
        value = fractions.Fraction(num, den)
        return -value if sign == "-" else value
    if _INT_RE.fullmatch(s):
        return fractions.Fraction(int(s))
    if _DECIMAL_RE.fullmatch(s):
        return fractions.Fraction(s)
    return None


def answers_equal(pred: str, gold: str, kind: AnswerKind) -> bool:
    """Decide equality of prediction and gold under benchmark rules.

    Integer-exact: both sides must parse as base-10 integers after
    normalization and be equal. Math-expression: normalized strings equal,
    or both parse as exact rationals with equal value.
    """
    return _normalized_equal(normalize_math(pred), normalize_math(gold), kind)


def _normalized_equal(p: str, g: str, kind: AnswerKind) -> bool:
    """``answers_equal`` on already normalized answers."""
    if kind is AnswerKind.INTEGER_EXACT:
        pi = parse_int(p)
        gi = parse_int(g)
        return pi is not None and gi is not None and pi == gi
    if p == g:
        return True
    pr = _parse_rational(p)
    gr = _parse_rational(g)
    return pr is not None and gr is not None and pr == gr


def judge(predicted: Optional[str], problem: "Problem") -> Judgment:
    """Normalize and compare an extracted boxed answer with the gold label.

    ``predicted`` is the content of the completion's last balanced
    ``\\boxed{...}`` (``ReasoningTrace.boxed_answer``); ``None`` means the
    completion has no boxed answer.
    """
    if predicted is None:
        return Judgment(None, None, False, JudgeReason.NO_BOXED_ANSWER)

    normalized = normalize_math(predicted)
    out_of_range = False
    if problem.kind is AnswerKind.INTEGER_EXACT:
        value = parse_int(normalized)
        if value is None:
            return Judgment(predicted, normalized, False, JudgeReason.UNPARSEABLE_INTEGER)
        out_of_range = not 0 <= value <= 999

    if _normalized_equal(normalized, problem.gold_normalized, problem.kind):
        return Judgment(predicted, normalized, True, JudgeReason.MATCH, out_of_range)
    return Judgment(predicted, normalized, False, JudgeReason.MISMATCH, out_of_range)
