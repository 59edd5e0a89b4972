"""Seeded input generator for the benchmark: problem files, completion scripts,
the transient-429 schedule and the ground truth of every item.

The generator does not import the harness. The ground truth (judge reason,
correctness and compliance) follows from how each completion is built, so it
checks the harness instead of echoing it:

- flat strategies are compliant when a balanced ``\\boxed{}`` is present;
- ``hicotrelaxed`` also needs at least one instruction and one execution block;
- ``hicot`` needs strict alternation, ``Step k:`` labels on the k-th pair and a
  balanced box.

A repetition-loop completion ends in ``openings`` unbalanced ``\\boxed{``
openings, cut mid-loop; the answer is the nearest earlier balanced box, or
none.

Null ``message.content`` is never generated: it aborts the whole grid at
this commit (ROADMAP item 3), and the change that fixes it adds that input.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

STRATEGIES = ("standard", "cot", "planandsolve", "hicotrelaxed", "hicot")
FLAT = ("standard", "cot", "planandsolve")

# The five registry benchmarks: name -> (statement field, answer field, kind).
REGISTRY = {
    "aime24": ("problem", "answer", "integer_exact"),
    "amc": ("problem", "answer", "math_expression"),
    "math500": ("problem", "answer", "math_expression"),
    "minerva": ("problem", "answer", "math_expression"),
    "olympiadbench": ("question", "final_answer", "math_expression"),
}

# Completion length ranges in bytes.
SHORT = (300, 3_000)
MEDIUM = (2_000, 10_000)
LONG = (10_000, 100_000)

_TAG_RE = re.compile(r"\[(\w+)#(\d+)\]")

_SHAPES = ("well_formed",) * 5 + ("misnumbered", "odd", "plain")

LOOP_UNIT = " Let me verify that once more: \\boxed{"

_SENTENCES = (
    "We substitute $x = 3$ into the expression and simplify.",
    "Expanding gives $(x+1)^2 = x^2 + 2x + 1$, which we compare term by term.",
    "By the triangle inequality, $|a + b| \\le |a| + |b|$ for the two sides.",
    "The sum telescopes: $\\sum_{k=1}^{n} \\left(\\frac{1}{k} - \\frac{1}{k+1}\\right)$.",
    "Note that $\\gcd(12, 18) = 6$, so both counts share a factor of six.",
    "Let $S = \\{n : 1 \\le n \\le 100\\}$ be the set of admissible values.",
    "Since the discriminant is positive, the quadratic has two real roots.",
    "Multiplying both sides by $2$ keeps the inequality direction unchanged.",
    "The area of the triangle is $\\frac{1}{2} b h = \\frac{1}{2} \\cdot 6 \\cdot 4$.",
    "Counting the cases separately avoids double counting the overlap.",
    "Working modulo $7$, the powers of $3$ cycle with period $6$.",
    "This matches the value found for the smaller case, a useful check.",
)


@dataclass(frozen=True)
class Problem:
    benchmark: str
    problem_id: str
    statement: str
    gold: str


@dataclass(frozen=True)
class Item:
    """One grid item with its scripted completion and expected outcome."""

    model: str
    strategy: str
    problem: Problem
    completion: str
    reason: str
    correct: bool
    compliant: bool
    openings: int = 0
    throttle: bool = False

    @property
    def key(self) -> tuple:
        """The harness's record key: (problem_id, benchmark, model_id, strategy)."""
        return (self.problem.problem_id, self.problem.benchmark, self.model, self.strategy)


def tag(benchmark: str, problem_id: str) -> str:
    """Marker placed in every statement so the stub can find the item."""
    return f"[{benchmark}#{problem_id}]"


def find_tag(text: str) -> tuple:
    """(benchmark, problem_id) of the first marker in ``text``."""
    match = _TAG_RE.search(text)
    return match.group(1), match.group(2)


def _filler(rng: random.Random, nbytes: int) -> str:
    count = max(1, nbytes // 60)
    return " ".join(rng.choices(_SENTENCES, k=count))


def _gold(rng: random.Random, kind: str) -> str:
    if kind == "integer_exact":
        return str(rng.randint(0, 999))
    form = rng.randrange(3)
    if form == 0:
        return str(rng.randint(1, 5000))
    if form == 1:
        num, den = rng.randint(1, 40), rng.randint(2, 40)
        while gcd(num, den) != 1:
            num, den = rng.randint(1, 40), rng.randint(2, 40)
        return f"\\frac{{{num}}}{{{den}}}"
    return f"{rng.randint(2, 9)}\\sqrt{{{rng.choice((2, 3, 5, 7))}}}"


def _correct_form(rng: random.Random, gold: str) -> str:
    """A rendering of ``gold`` that the judge's normalization maps back to it."""
    if gold.startswith("\\frac"):
        return rng.choice((gold, gold.replace("\\frac", "\\dfrac"), f"${gold}$"))
    if "\\sqrt" in gold:
        return rng.choice((gold, f"\\text{{{gold}}}", f"${gold}$"))
    return rng.choice((gold, f"${gold}$", f"{gold}."))


def _wrong_form(rng: random.Random, gold: str, kind: str) -> str:
    if kind == "integer_exact":
        return str((int(gold) + rng.randint(1, 999)) % 1000)
    if gold.startswith("\\frac"):
        value = Fraction(gold[6:-1].replace("}{", "/"))
        return f"\\frac{{{value.numerator}}}{{{value.denominator + 1}}}"
    if "\\sqrt" in gold:
        return f"{int(gold[0]) + 1}\\sqrt{{{gold[-2]}}}"
    return str(int(gold) + rng.randint(1, 50))


def _outcomes(kind: str) -> tuple:
    outcomes = ("correct",) * 5 + ("wrong",) * 3 + ("unboxed",)
    return outcomes + ("unparseable",) if kind == "integer_exact" else outcomes


def _answer(rng: random.Random, outcome: str, gold: str, kind: str) -> tuple:
    """(final sentence, judge reason, correct) for an outcome."""
    if outcome == "correct":
        return f"The answer is $\\boxed{{{_correct_form(rng, gold)}}}$.", "match", True
    if outcome == "wrong":
        return f"The answer is $\\boxed{{{_wrong_form(rng, gold, kind)}}}$.", "mismatch", False
    if outcome == "unparseable":
        return "The answer is $\\boxed{n + 1}$.", "unparseable_integer", False
    return "I could not finish the computation in time.", "no_boxed_answer", False


def _relaxed(rng, size, final, shape: str) -> tuple:
    """Unlabelled pairs, or plain text when ``shape`` is plain."""
    if shape == "plain":
        return f"{_filler(rng, size)} {final}", False
    pairs = 1 + size // 2_500
    per_block = size // (2 * pairs)
    parts = []
    for index in range(pairs):
        parts.append(f"<|instruction|> {_filler(rng, per_block)}\n")
        body = _filler(rng, per_block)
        if index == pairs - 1:
            body += " " + final
        parts.append(f"<|execution|> {body}\n")
    return "".join(parts), True


def _hicot(rng, size, final, shape: str) -> tuple:
    """Step-labelled pairs; ``shape`` is well_formed, misnumbered, odd or plain."""
    if shape == "plain":
        return f"{_filler(rng, size)} {final}", False
    pairs = max(2, min(60, size // 1_500))
    per_block = size // (2 * pairs)
    skip = rng.randint(2, pairs) if shape == "misnumbered" else None
    parts = []
    for step in range(1, pairs + 1):
        label = step + 1 if skip is not None and step >= skip else step
        parts.append(f"<|instruction|> Step {label}: {_filler(rng, per_block)}\n")
        body = _filler(rng, per_block)
        if step == pairs:
            body += " " + final
        parts.append(f"<|execution|> Step {label}: {body}\n\n")
    if shape == "odd":
        parts.append(f"<|instruction|> Step {pairs + 1}: Double-check the result.\n")
    return "".join(parts), shape == "well_formed"


def _script(rng, strategy, problem, kind, size, outcome, shape, think) -> tuple:
    """(completion, judge reason, correct, compliant) for one ordinary item."""
    final, reason, correct = _answer(rng, outcome, problem.gold, kind)
    if strategy in FLAT:
        text, structured = f"{_filler(rng, size)} {final}", True
    elif strategy == "hicotrelaxed":
        text, structured = _relaxed(rng, size, final, shape)
    elif think:
        text, structured = _hicot(rng, size - size // 4, final, shape)
        text = f"<think>\n{_filler(rng, size // 4)}\n</think>\n{text}"
    else:
        text, structured = _hicot(rng, size, final, shape)
    return text, reason, correct, structured and outcome != "unboxed"


def _loop_script(rng, problem, kind, openings) -> tuple:
    """A hicot trace cut off inside a repetition loop of unbalanced boxes."""
    outcome = rng.choice(("correct", "wrong", "unboxed"))
    final, reason, correct = _answer(rng, outcome, problem.gold, kind)
    text, _ = _hicot(rng, LONG[0], final, "well_formed")
    text = text.rstrip("\n") + LOOP_UNIT * openings + LOOP_UNIT[: len(LOOP_UNIT) // 2]
    return text, reason, correct, outcome != "unboxed"


def make_problems(rng: random.Random, benchmarks, count: int) -> dict:
    """benchmark -> list of Problems with unique, tagged statements."""
    problems = {}
    for benchmark in benchmarks:
        kind = REGISTRY[benchmark][2]
        problems[benchmark] = [
            Problem(
                benchmark,
                str(i),
                f"{tag(benchmark, str(i))} {_filler(rng, rng.randint(120, 600))} "
                f"What is the value asked for?",
                _gold(rng, kind),
            )
            for i in range(1, count + 1)
        ]
    return problems


def write_problem_files(problems: dict, root: Path) -> dict:
    """Write one JSONL file per benchmark with its registry field names."""
    paths = {}
    for benchmark, rows in problems.items():
        statement_field, answer_field, _ = REGISTRY[benchmark]
        path = root / f"{benchmark}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for problem in rows:
                row = {statement_field: problem.statement, answer_field: problem.gold}
                fh.write(json.dumps(row) + "\n")
        paths[benchmark] = path
    return paths


def make_items(
    rng: random.Random,
    problems: dict,
    models,
    lengths: dict,
    throttle_share: float = 0.0,
    think: bool = False,
    loops=(),
) -> list:
    """Items for every (model, strategy, problem), in a fixed order.

    ``lengths`` maps strategy -> (min, max) bytes. Within each (model,
    strategy, benchmark) cell the sizes are spread evenly over that range and
    the outcomes, trace shapes and think segments cycle through fixed mixes;
    the seed only decides which item gets which. So every seed gives the same
    amount of work. ``throttle_share`` of all items get one HTTP 429, and each
    count in ``loops`` replaces one hicot item by a repetition loop with that
    many unbalanced openings; the shortest hicot items are replaced, so the
    amount of work stays the same across seeds.
    """
    items = []
    for model in models:
        for strategy in STRATEGIES:
            lo, hi = lengths[strategy]
            for benchmark, rows in problems.items():
                kind = REGISTRY[benchmark][2]
                n = len(rows)
                sizes = _mix(rng, [lo + (hi - lo) * (2 * i + 1) // (2 * n) for i in range(n)])
                outcomes = _mix(rng, _cycle(_outcomes(kind), n))
                shapes = _mix(rng, _cycle(_SHAPES, n))
                thinks = _mix(rng, [think and i % 10 < 3 for i in range(n)])
                for problem, *mix in zip(rows, sizes, outcomes, shapes, thinks):
                    script = _script(rng, strategy, problem, kind, *mix)
                    items.append(Item(model, strategy, problem, *script))
    for slot in rng.sample(range(len(items)), round(throttle_share * len(items))):
        items[slot] = dataclasses.replace(items[slot], throttle=True)
    hicot_slots = [i for i, item in enumerate(items) if item.strategy == "hicot"]
    hicot_slots.sort(key=lambda i: len(items[i].completion))
    for slot, openings in zip(hicot_slots, loops):
        old = items[slot]
        script = _loop_script(rng, old.problem, REGISTRY[old.problem.benchmark][2], openings)
        items[slot] = Item(old.model, "hicot", old.problem, *script, openings=openings)
    return items


def _cycle(values, n: int) -> list:
    return [values[i % len(values)] for i in range(n)]


def _mix(rng: random.Random, values: list) -> list:
    rng.shuffle(values)
    return values


def expected_cells(items) -> dict:
    """(model, strategy, benchmark) -> (n, pass@1 %, compliance %), from the ground truth."""
    counts = {}
    for item in items:
        key = (item.model, item.strategy, item.problem.benchmark)
        n, correct, compliant = counts.get(key, (0, 0, 0))
        counts[key] = (n + 1, correct + item.correct, compliant + item.compliant)
    return {
        key: (n, 100.0 * correct / n, 100.0 * compliant / n)
        for key, (n, correct, compliant) in counts.items()
    }
