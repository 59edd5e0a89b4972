"""Prompt construction for the five prompting strategies.

Each strategy pairs a fixed instruction preamble with the problem statement.
One table holds each strategy's report label and preamble, and the order in
which ``PromptStrategy`` declares the strategies is the order of the report's
rows. The preambles are frozen text: golden copies live in the test suite's
``data/templates/`` directory (one UTF-8 file per strategy, named after the
lowercase variant name) and a test guards byte-for-byte equality between
those files and the table. Problem text is never escaped or rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Union


class EmptyProblem(ValueError):
    """Raised when a problem statement is empty after trimming."""


class PromptStrategy(Enum):
    """The five prompting regimes compared by the harness, declared in the order
    of the report's rows."""

    STANDARD = "standard"
    COT = "cot"
    PLAN_AND_SOLVE = "planandsolve"
    HICOT_RELAXED = "hicotrelaxed"
    HICOT = "hicot"

    @property
    def label(self) -> str:
        """Human-readable name used in report tables."""
        return _STRATEGY_TEXT[self][0]

    @classmethod
    def _missing_(cls, value):
        """Other spellings: any case, with ``-``, ``_`` or spaces, and ``hicot-format-relaxed``."""
        if not isinstance(value, str):
            return None
        key = value.strip().lower().replace("-", "").replace("_", "").replace(" ", "")
        if key == "hicotformatrelaxed":
            return cls.HICOT_RELAXED
        return next((member for member in cls if member.value == key), None)


# Each strategy's report label and its frozen preamble.
_STRATEGY_TEXT = {
    PromptStrategy.STANDARD: (
        "Standard",
        "Answer the question directly and put your final answer within \\boxed{}.",
    ),
    PromptStrategy.COT: (
        "CoT",
        "Please reason step by step, and put your final answer within \\boxed{}.",
    ),
    PromptStrategy.PLAN_AND_SOLVE: (
        "Plan-and-Solve",
        "Let’s first understand the problem, extract relevant variables and their "
        "corresponding numerals, and make a complete plan. Then, let’s carry out the "
        "plan, calculate intermediate variables (pay attention to correct numerical "
        "calculation and common sense), solve the problem step by step, and finally put "
        "your final answer within \\boxed{}.",
    ),
    PromptStrategy.HICOT_RELAXED: (
        "Hi-CoT (format-relaxed)",
        "You are a reasoning assistant that solves problems by alternating between "
        "<|instruction|> (planning what to do next) and <|execution|> (executing that "
        "plan). Each <|instruction|> describes the reasoning step or plan, and each "
        "<|execution|> performs the corresponding reasoning or computation. Finally, put "
        "your final answer within \\boxed{}.",
    ),
    PromptStrategy.HICOT: (
        "Hi-CoT",
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
        "Finally, put your final answer within \\boxed{}.",
    ),
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
    return _STRATEGY_TEXT[strategy][1]


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
    preamble = _STRATEGY_TEXT[strategy][1]
    return PromptBundle(
        instruction_text=preamble,
        problem_text=statement,
        rendered=f"{preamble}\n\n{statement}",
    )
