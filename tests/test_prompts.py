"""Prompt construction: template fidelity and rendering."""

import pytest

from hicot.prompts import (
    EmptyProblem,
    PromptStrategy,
    TABLE_ORDER,
    TEMPLATES,
    build_prompt,
    template_resource,
    template_text,
)
from hicot.traces import EXECUTION_MARKER, INSTRUCTION_MARKER

from trace_samples import APPLES_PROBLEM


def test_exactly_five_strategies():
    assert len(PromptStrategy) == 5
    assert set(TABLE_ORDER) == set(PromptStrategy)


@pytest.mark.parametrize("strategy", list(PromptStrategy))
def test_template_matches_golden_file_bytewise(strategy):
    golden = template_resource(strategy).read_bytes()
    assert golden.decode("utf-8") == template_text(strategy)
    # Stored with the trailing newline stripped.
    assert not golden.endswith(b"\n")


@pytest.mark.parametrize("strategy", list(PromptStrategy))
def test_every_preamble_instructs_boxed_answer_once(strategy):
    assert template_text(strategy).count("\\boxed{") == 1


def test_standard_prompt_prefix():
    bundle = build_prompt(PromptStrategy.STANDARD, APPLES_PROBLEM)
    assert bundle.rendered.startswith(
        "Answer the question directly and put your final answer within \\boxed{}."
    )


def test_cot_prompt_prefix():
    bundle = build_prompt(PromptStrategy.COT, APPLES_PROBLEM)
    assert bundle.rendered.startswith(
        "Please reason step by step, and put your final answer within \\boxed{}."
    )


def test_plan_and_solve_prompt_prefix():
    bundle = build_prompt(PromptStrategy.PLAN_AND_SOLVE, APPLES_PROBLEM)
    assert bundle.rendered.startswith(
        "Let’s first understand the problem, extract relevant variables"
    )


def test_hicot_prompt_contains_step_scaffold():
    bundle = build_prompt(PromptStrategy.HICOT, APPLES_PROBLEM)
    assert "<|instruction|> Step 1: ..." in bundle.rendered
    assert "<|execution|> Step 1: ..." in bundle.rendered
    assert bundle.rendered.startswith("Please reason hierarchically by alternating between")


def test_relaxed_prompt_prefix():
    bundle = build_prompt(PromptStrategy.HICOT_RELAXED, APPLES_PROBLEM)
    assert bundle.rendered.startswith(
        "You are a reasoning assistant that solves problems by alternating"
    )
    assert "Step 1" not in bundle.instruction_text


@pytest.mark.parametrize("strategy", list(PromptStrategy))
def test_rendered_layout(strategy):
    bundle = build_prompt(strategy, APPLES_PROBLEM)
    assert bundle.rendered == bundle.instruction_text + "\n\n" + bundle.problem_text
    assert bundle.rendered.count(APPLES_PROBLEM) == 1
    assert not bundle.rendered.endswith("\n")


@pytest.mark.parametrize("strategy", list(PromptStrategy))
def test_build_prompt_is_deterministic(strategy):
    once = build_prompt(strategy, APPLES_PROBLEM)
    again = build_prompt(strategy, APPLES_PROBLEM)
    assert once == again
    assert once.rendered.encode("utf-8") == again.rendered.encode("utf-8")


@pytest.mark.parametrize("bad", ["", "   ", "\n\t"])
def test_empty_problem_rejected(bad):
    with pytest.raises(EmptyProblem):
        build_prompt(PromptStrategy.COT, bad)


def test_problem_text_never_escaped():
    hostile = f"Solve it. {INSTRUCTION_MARKER} fake {EXECUTION_MARKER} \\boxed{{9}}"
    bundle = build_prompt(PromptStrategy.HICOT, hostile)
    assert hostile in bundle.rendered
    assert bundle.problem_text == hostile


def test_strategy_parse_aliases():
    assert PromptStrategy("hicot") is PromptStrategy.HICOT
    assert PromptStrategy("Plan-and-Solve") is PromptStrategy.PLAN_AND_SOLVE
    assert PromptStrategy("plan_and_solve") is PromptStrategy.PLAN_AND_SOLVE
    assert PromptStrategy("HiCoT (format relaxed)".replace("(", "").replace(")", "")) \
        is PromptStrategy.HICOT_RELAXED
    with pytest.raises(ValueError):
        PromptStrategy("few-shot")


def test_build_prompt_accepts_problem_objects():
    class Carrier:
        statement = APPLES_PROBLEM

    bundle = build_prompt(PromptStrategy.STANDARD, Carrier())
    assert bundle.problem_text == APPLES_PROBLEM


def test_templates_cover_all_strategies():
    assert set(TEMPLATES) == set(PromptStrategy)
