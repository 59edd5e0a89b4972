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
from itertools import compress
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
    the braces between it and the later one. ``surplus`` is the largest
    amount by which ``}`` outnumbers ``{`` in any prefix of the text after the
    current occurrence; the occurrence closes exactly when it is positive.
    When it is 0, only ``{`` lie between the last ``}`` before the occurrence
    and the occurrence, so no occurrence after that ``}`` can close either:
    the search jumps back to it. A loop of unclosed openings therefore costs
    one ``rfind`` of ``}`` and one of ``\\boxed{``, and the whole search is
    linear in the text after the answer.
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
        folded = raw.rfind("}", 0, pos) + 1
        pos = raw.rfind(_BOX, 0, folded)
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

    The first two passes run on whole strings, and real answers are stable
    by then: on the benchmark's generated completions none needs a third.
    Only an answer that peels one layer per pass, the worst case, reaches
    ``_later_passes``, where each pass costs time in proportion to what it
    removes, so the whole function is linear in the answer in that case too.
    """
    once = _normalize_pass(s)
    if once == s:
        return once
    twice = _normalize_pass(once)
    if twice == once:
        return twice
    return _later_passes(twice)


_THOUSANDS_RE = re.compile(r"[+-]?\d{1,3}(?:,\d{3})+")
# A character that no string matching _THOUSANDS_RE holds.
_NOT_THOUSANDS_RE = re.compile(r"[^\d,+-]")


def _normalize_pass(s: str) -> str:
    s = s.strip()
    while len(s) >= 2 and s.startswith("$") and s.endswith("$"):
        s = s[1:-1]
    s = s.replace("\\left", "").replace("\\right", "")
    s = _unwrap_text_like(s)
    if _THOUSANDS_RE.fullmatch(s):
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


def _later_passes(t: str) -> str:
    """``_normalize_pass`` repeated on ``t``, the output of a pass, until stable.

    Such a string has no whitespace and no ``\\dfrac``. What is left are
    rewrites anywhere (drop ``\\left`` and ``\\right``, which can join a new
    occurrence for a later pass, and ``\\dfrac`` to ``\\frac``) and peels at
    the ends (enclosing ``$``, a whole-string ``\\text{}``/``\\mathrm{}``,
    the trailing period, the leading dollar). A peel joins no neighbours and
    takes no character a rewrite could take: ``$``, ``.`` and braces are in
    no pattern, and the ``\\`` and letters of a leading ``\\$``, ``\\text{``
    or ``\\mathrm{`` could only go in one after a neighbour there went
    first. So the rewrites go as if no peel ran: ``_drop_passes`` finds the
    pass that drops each character up front, and ``\\dfrac``, which no peel
    looks at, is rewritten once at the end.

    The passes run on a linked list over the characters, and a peel looks
    only at the ends. ``closing`` maps each ``{`` to its matching ``}``,
    which stays so while both are left, as no step takes a brace from
    inside. No step takes a digit, comma or sign, so the length falls to
    their count in ``t`` exactly when nothing else is left: only then can
    thousands separators go, and the string is final. Each pass that changes
    the string takes at least one character and looks at a fixed number of
    others, so all the passes together are linear in ``t``.
    """
    text = f"\0{t}\0"  # a sentinel at each end; no step matches "\0"
    head, tail = 0, len(text) - 1
    nxt = list(range(1, len(text) + 1))
    prv = list(range(-1, len(text) - 1))
    nxt[tail], prv[head] = tail, head
    alive = bytearray([1]) * len(text)
    alive[head] = alive[tail] = 0
    size = len(t)
    numeral_chars = len(_NOT_THOUSANDS_RE.sub("", t))
    closing = {}
    opened = []
    for brace in _BRACES.finditer(text):
        if brace[0] == "{":
            opened.append(brace.start())
        elif opened:
            closing[opened.pop()] = brace.start()
    drops = _drop_passes(t)

    def drop(node: int) -> None:
        nonlocal size
        before, after = prv[node], nxt[node]
        nxt[before], prv[after] = after, before
        alive[node] = 0
        size -= 1

    p = 0
    while True:
        p += 1
        before = size
        while size >= 2 and text[nxt[head]] == "$" == text[prv[tail]]:
            drop(nxt[head])
            drop(prv[tail])
        for i in drops.get(p, ()):
            drop(i + 1)  # t[i] is node i + 1, after the sentinel
        if text[nxt[head]] == "\\" and text[prv[tail]] == "}":
            for prefix in ("\\text{", "\\mathrm{"):
                nodes = [nxt[head]]
                while len(nodes) < len(prefix):
                    nodes.append(nxt[nodes[-1]])
                if (
                    "".join([text[node] for node in nodes]) == prefix
                    and closing.get(nodes[-1]) == prv[tail]
                ):
                    for node in (prv[tail], *nodes):
                        drop(node)
                    break
        if size == numeral_chars:
            s = "".join(compress(text, alive))
            return s.replace(",", "") if _THOUSANDS_RE.fullmatch(s) else s
        if text[prv[tail]] == ".":
            drop(prv[tail])
        first = nxt[head]
        if text[first] == "\\" and text[nxt[first]] == "$":
            drop(first)
            drop(nxt[head])
        elif text[first] == "$":
            drop(first)
        if size == before:
            return "".join(compress(text, alive)).replace("\\dfrac", "\\frac")


def _drop_passes(t: str) -> dict:
    """The indices of the characters of ``t`` that each pass of
    ``_later_passes`` drops in a ``\\left`` or ``\\right``, by pass.

    Pass p drops every ``\\left`` there is at step 2p, then every ``\\right``
    at step 2p + 1. Neither pattern overlaps itself or the other, so once
    the characters of an occurrence are neighbours, the next step of its kind
    drops it. The stack holds the characters read so far that no drop takes,
    each with the step from which it neighbours the one below: 0, or one past
    the step that dropped the last character between them.
    """
    passes = {}
    stack, joined = [], []  # indices into t, and the step each joined the one below
    since = 0
    for i, c in enumerate(t):
        stack.append(i)
        joined.append(since)
        since = 0
        if c != "t":  # both patterns end in "t"
            continue
        for pattern, parity in (("\\left", 0), ("\\right", 1)):
            n = len(pattern)
            if "".join([t[j] for j in stack[-n:]]) == pattern:
                ready = max(2, *joined[-n + 1:])
                step = ready + (parity - ready) % 2
                passes.setdefault(step // 2, []).extend(stack[-n:])
                since = max(joined[-n], step + 1)
                del stack[-n:], joined[-n:]
                break
    return passes


_INT_RE = re.compile(r"[+-]?\d+")
# An integer or a decimal: its sign, the digits before the point and, after a
# point, those after it. The lookahead asks for a digit on one side.
_NUMBER_RE = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?")
_FRAC_RE = re.compile(r"([+-]?)\\frac\{(-?\d+)\}\{(-?\d+)\}")


def to_int(numeral: str) -> Optional[int]:
    """``int(numeral)`` for a numeral that ``int`` reads, or None when it has more
    digits than ``int`` converts (``sys.get_int_max_str_digits()``, 4,300 by default)."""
    try:
        return int(numeral)
    except ValueError:
        return None


def parse_int(s: str) -> Optional[int]:
    """The base-10 integer that the normalized answer ``s`` spells, or None."""
    return to_int(s) if _INT_RE.fullmatch(s) else None


def _parse_rational(s: str) -> Optional[Fraction]:
    """Exact rational value of an integer, decimal, or ``\\frac{a}{b}``; None for
    any other answer, or one with more digits than ``to_int`` converts."""
    from fractions import Fraction  # only math-expression answers that differ get here

    match = _FRAC_RE.fullmatch(s)
    if match:
        num, den = to_int(match[2]), to_int(match[3])
        if num is None or not den:
            return None
        return Fraction(-num if match[1] == "-" else num, den)
    match = _NUMBER_RE.fullmatch(s)
    if match:
        sign, whole, decimals = match[1], match[2], match[3] or ""
        value = to_int(sign + whole + decimals)
        return None if value is None else Fraction(value, 10 ** len(decimals))
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
