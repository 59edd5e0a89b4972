"""Prompt construction for the five prompting strategies.

Each strategy pairs a fixed instruction preamble with the problem statement.
The preambles are frozen text: golden copies live in the test suite's
``data/templates/`` directory (one UTF-8 file per strategy, named after the
lowercase variant name) and a test guards byte-for-byte equality between
those files and the constants used here. Problem text is never escaped or
rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union


class EmptyProblem(ValueError):
    """Raised when a problem statement is empty after trimming."""


class PromptStrategy(Enum):
    """The five prompting regimes compared by the harness."""

    STANDARD = "standard"
    COT = "cot"
    PLAN_AND_SOLVE = "planandsolve"
    HICOT = "hicot"
    HICOT_RELAXED = "hicotrelaxed"

    @property
    def label(self) -> str:
        """Human-readable name used in report tables."""
        return _LABELS[self]

    @classmethod
    def _missing_(cls, value):
        """Other spellings: any case, with ``-``, ``_`` or spaces, and ``hicot-format-relaxed``."""
        if not isinstance(value, str):
            return None
        key = value.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
        if key == "hicotformatrelaxed":
            return cls.HICOT_RELAXED
        return next((member for member in cls if member.value == key), None)


_LABELS = {
    PromptStrategy.STANDARD: "Standard",
    PromptStrategy.COT: "CoT",
    PromptStrategy.PLAN_AND_SOLVE: "Plan-and-Solve",
    PromptStrategy.HICOT_RELAXED: "Hi-CoT (format-relaxed)",
    PromptStrategy.HICOT: "Hi-CoT",
}


# Fixed strategy order for report rows.
TABLE_ORDER = (
    PromptStrategy.STANDARD,
    PromptStrategy.COT,
    PromptStrategy.PLAN_AND_SOLVE,
    PromptStrategy.HICOT_RELAXED,
    PromptStrategy.HICOT,
)


STANDARD_TEMPLATE = (
    "Answer the question directly and put your final answer within \\boxed{}."
)

COT_TEMPLATE = (
    "Please reason step by step, and put your final answer within \\boxed{}."
)

PLAN_AND_SOLVE_TEMPLATE = (
    "Let’s first understand the problem, extract relevant variables and their "
    "corresponding numerals, and make a complete plan. Then, let’s carry out the "
    "plan, calculate intermediate variables (pay attention to correct numerical "
    "calculation and common sense), solve the problem step by step, and finally put "
    "your final answer within \\boxed{}."
)

HICOT_TEMPLATE = (
    "Please reason hierarchically by alternating between <|instruction|> (planning "
    "what to do next) and <|execution|> (executing that plan).\n"
    "\n"
    "Each <|instruction|> describes the reasoning step or plan, and each <|execution|> "
    "performs the corresponding reasoning or computation.\n"
    "\n"
    "You should start with an instruction and follow this format strictly:\n"
    "\n"
    "<|instruction|> Step 1: ...\n"
    "\n"
    "<|execution|> Step 1: ...\n"
    "\n"
    "<|instruction|> Step 2: ...\n"
    "\n"
    "<|execution|> Step 2: ...\n"
    "\n"
    "...\n"
    "\n"
    "Finally, put your final answer within \\boxed{}."
)

HICOT_RELAXED_TEMPLATE = (
    "You are a reasoning assistant that solves problems by alternating between "
    "<|instruction|> (planning what to do next) and <|execution|> (executing that "
    "plan). Each <|instruction|> describes the reasoning step or plan, and each "
    "<|execution|> performs the corresponding reasoning or computation. Finally, put "
    "your final answer within \\boxed{}."
)

TEMPLATES = {
    PromptStrategy.STANDARD: STANDARD_TEMPLATE,
    PromptStrategy.COT: COT_TEMPLATE,
    PromptStrategy.PLAN_AND_SOLVE: PLAN_AND_SOLVE_TEMPLATE,
    PromptStrategy.HICOT: HICOT_TEMPLATE,
    PromptStrategy.HICOT_RELAXED: HICOT_RELAXED_TEMPLATE,
}


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt: strategy preamble, problem text, and their join.

    ``rendered`` is always ``instruction_text`` + one blank line +
    ``problem_text``, with no trailing newline. Deterministic bytes so the
    rendered prompt can serve as a cache key component.
    """

    instruction_text: str
    problem_text: str
    rendered: str


def template_text(strategy: PromptStrategy) -> str:
    """Return the frozen preamble for ``strategy``."""
    return TEMPLATES[strategy]


def build_prompt(strategy: PromptStrategy, problem: Union[str, "object"]) -> PromptBundle:
    """Render the full prompt for ``strategy`` and a problem.

    ``problem`` may be a Problem or a raw statement string. The statement is
    inserted verbatim; markers or template-like text inside it are not
    escaped (parsing applies only to model completions, never to prompts).

    Raises EmptyProblem if the statement is empty after trimming.
    """
    statement = problem if isinstance(problem, str) else problem.statement
    if not statement or not statement.strip():
        raise EmptyProblem("problem statement is empty")
    preamble = TEMPLATES[strategy]
    return PromptBundle(
        instruction_text=preamble,
        problem_text=statement,
        rendered=f"{preamble}\n\n{statement}",
    )
