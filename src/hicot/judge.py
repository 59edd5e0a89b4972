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
from itertools import chain, compress
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

    Each pass applies these rules, in order: trim; strip enclosing ``$``;
    drop ``\\left`` and ``\\right``; unwrap one whole-string
    ``\\text{}``/``\\mathrm{}``; drop thousands separators in integers; drop a
    trailing period; remove whitespace; rewrite ``\\dfrac`` to ``\\frac``;
    strip a leading currency dollar. The pass repeats until the string is
    stable, which makes the whole function idempotent by construction.

    Every pass runs on one doubly linked list over the characters, so a pass
    costs time in proportion to what it takes, and the whole function is
    linear in the answer even when each pass peels only one layer; an answer
    that no rule changes leaves after one pass. Some rules drop characters
    from anywhere: ``\\left`` and ``\\right``, which can join a new
    occurrence for a later pass, and whitespace, all of which goes in the
    first pass. The others peel at the ends. A peel joins no neighbours and
    takes no character a drop could take: ``$``, ``.`` and braces are in no
    pattern, the trim takes only whitespace, and the ``\\`` and letters of a
    leading ``\\$``, ``\\text{`` or ``\\mathrm{`` could only go in a pattern
    after a neighbour there went first. So ``_drop_passes`` finds up front
    the pass that drops each character. Each drop keeps its pass, as drops
    and peels do not commute: in ``$\\$5$\\le\\leftft`` the first pass joins
    a ``\\left`` and peels a ``$``, and the second drops the ``\\left`` and
    then peels ``\\$``, which leaves ``5$``.

    Two rules apply once, to the final string. No other rule looks at the
    letters of ``\\dfrac``. Thousands separators go only from a string of
    nothing but digits, commas and signs, on which no other rule acts, so
    the string is final by then either way. ``closing`` maps each ``{`` to
    its matching ``}``, which stays so while both are left, as no rule takes
    a brace from inside.
    """
    text = f"\0{s}\0"  # a sentinel at each end; no rule matches "\0"
    head, tail = 0, len(text) - 1
    # The links of a doubly linked list over text, where they differ from i + 1 and i - 1.
    nxt, prv = {head: 1, tail: tail}, {head: head, tail: tail - 1}
    drops, spaces = _drop_passes(text)
    taken = 0
    closing = None  # built when a wrapper's prefix first shows at the start
    p = 0
    while True:
        p += 1
        before = taken
        while text[nxt[head]].isspace():
            taken += _unlink(nxt, prv, nxt[head])
        while text[prv[tail]].isspace():
            taken += _unlink(nxt, prv, prv[tail])
        while nxt[head] < prv[tail] and text[nxt[head]] == "$" == text[prv[tail]]:
            taken += _unlink(nxt, prv, nxt[head]) + _unlink(nxt, prv, prv[tail])
        for node in drops.get(p, ()):
            taken += _unlink(nxt, prv, node)
        for prefix in _WRAPPERS:
            node = nxt[head]
            for c in prefix:
                if text[node] != c:
                    break
                node = nxt.get(node, node + 1)
            else:  # the prefix is there, and node follows its "{"
                if closing is None:
                    closing = _closing_braces(text)
                if closing.get(prv.get(node, node - 1)) == prv[tail]:
                    while nxt[head] != node:
                        taken += _unlink(nxt, prv, nxt[head])
                    taken += _unlink(nxt, prv, prv[tail])
                break
        if text[prv[tail]] == ".":
            taken += _unlink(nxt, prv, prv[tail])
        for node in spaces if p == 1 else ():  # no whitespace outlives the first pass
            if nxt[head] <= node <= prv[tail]:  # not taken by the trim
                taken += _unlink(nxt, prv, node)
        first = nxt[head]
        if text[first] == "\\" and text[nxt.get(first, first + 1)] == "$":
            taken += _unlink(nxt, prv, first) + _unlink(nxt, prv, nxt[head])
        elif text[first] == "$":
            taken += _unlink(nxt, prv, first)
        if taken == before:
            break
    s = text[nxt[head]:prv[tail] + 1]
    if drops or spaces:
        kept = bytearray([1]) * len(text)
        for node in chain(spaces, *drops.values()):
            kept[node] = 0
        s = "".join(compress(s, kept[nxt[head]:prv[tail] + 1]))
    s = s.replace("\\dfrac", "\\frac")
    return s.replace(",", "") if _THOUSANDS_RE.fullmatch(s) else s


def _unlink(nxt: dict, prv: dict, node: int) -> int:
    """Take ``node`` out of the linked list; 1, the count of nodes taken."""
    before, after = prv.get(node, node - 1), nxt.get(node, node + 1)
    nxt[before], prv[after] = after, before
    return 1


_THOUSANDS_RE = re.compile(r"[+-]?\d{1,3}(?:,\d{3})+")
_WRAPPERS = ("\\text{", "\\mathrm{")
_DROPPED = ("\\left", "\\right")
_SPACE_RE = re.compile(r"\s")  # the characters str.split splits at and str.strip trims
_DROPPED_OR_SPACE_RE = re.compile("|".join([_SPACE_RE.pattern, *map(re.escape, _DROPPED)]))


def _closing_braces(text: str) -> dict:
    """The index of the ``}`` that closes each ``{`` of ``text`` that closes."""
    closing = {}
    opened = []
    for brace in _BRACES.finditer(text):
        if brace[0] == "{":
            opened.append(brace.start())
        elif opened:
            closing[opened.pop()] = brace.start()
    return closing


def _drop_passes(s: str) -> tuple:
    """The indices of the characters of ``s`` that ``normalize_math`` drops in a
    ``\\left`` or ``\\right``, by pass, and those of its whitespace.

    Pass p drops every ``\\left`` there is at step 3p, then every ``\\right``
    at step 3p + 1, then whitespace at step 3p + 2, all of it in the first
    pass (step 5). Neither pattern overlaps itself or the other, so once the
    characters of an occurrence are neighbours, the next step of its kind
    drops it. A pattern forms only from an occurrence in ``s`` with its
    whitespace gone. The stack holds the characters read so far that no drop
    takes, each with the step from which it neighbours the one below: 0, or
    one past the step that dropped the last character between them.
    """
    if not _DROPPED_OR_SPACE_RE.search(s):
        return {}, ()
    passes = {}
    spaces = [space.start() for space in _SPACE_RE.finditer(s)]
    if not _DROPPED_OR_SPACE_RE.search("".join(s.split())):
        return passes, spaces
    stack, joined = [], []  # indices into s, and the step each joined the one below
    since = 0
    for i, c in enumerate(s):
        if c.isspace():
            since = max(since, 6)  # one past the whitespace step
            continue
        stack.append(i)
        joined.append(since)
        since = 0
        if c != "t":  # both patterns end in "t"
            continue
        for kind, pattern in enumerate(_DROPPED):
            n = len(pattern)
            if "".join([s[j] for j in stack[-n:]]) == pattern:
                ready = max(3, *joined[-n + 1:])
                step = ready + (kind - ready) % 3
                passes.setdefault(step // 3, []).extend(stack[-n:])
                since = max(joined[-n], step + 1)
                del stack[-n:], joined[-n:]
                break
    return passes, spaces


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
