"""Synthetic 2-benchmark grid and deterministic stub scripting for e2e tests.

Six problems across two toy benchmarks, with one scripted completion per
(strategy, problem). Correctness quotas per strategy are fixed so the
expected table values are hand-checkable:

    standard        1/3 correct per benchmark  -> 33.3
    cot             2/3                        -> 66.7
    planandsolve    1/3                        -> 33.3
    hicotrelaxed    2/3                        -> 66.7
    hicot           3/3                        -> 100.0

Compliance is also scripted: the strict hierarchical strategy answers its
third problem without structure (correct but non-compliant), the relaxed one
drops its markers on problem 2, and the flat strategies omit the box
entirely on a wrong problem 3.
"""

import json

from hicot.prompts import PromptStrategy, template_text

from stub_server import StubReply

TOY_INT_PROBLEMS = [
    ("Compute 6 times 7.", "42"),
    ("What is 100 minus 58?", "42"),
    ("How many sides does a hexagon have?", "6"),
]

TOY_EXPR_PROBLEMS = [
    ("Halve the number one.", "\\frac{1}{2}"),
    ("Add the decimals 0.2 and 0.3.", "0.5"),
    ("Name the circle constant often written as a Greek letter.", "\\pi"),
]

# problem ids each strategy answers correctly (out of 1..3)
QUOTA = {
    "standard": {1},
    "cot": {1, 2},
    "planandsolve": {2},
    "hicotrelaxed": {1, 3},
    "hicot": {1, 2, 3},
}

_STATEMENT_INDEX = {}
for i, (statement, gold) in enumerate(TOY_INT_PROBLEMS, start=1):
    _STATEMENT_INDEX[statement] = ("toy_int", i, gold)
for i, (statement, gold) in enumerate(TOY_EXPR_PROBLEMS, start=1):
    _STATEMENT_INDEX[statement] = ("toy_expr", i, gold)

_PREAMBLES = sorted(
    ((template_text(strategy), strategy) for strategy in PromptStrategy),
    key=lambda pair: -len(pair[0]),
)


def scripted_completion(strategy: PromptStrategy, benchmark: str, problem_id: int, gold: str) -> str:
    correct = problem_id in QUOTA[strategy.value]
    answer = gold if correct else "0"

    if strategy is PromptStrategy.HICOT:
        if problem_id == 3:
            return f"Direct answer without structure: \\boxed{{{answer}}}"
        trace = (
            "<|instruction|> Step 1: Identify the required quantity.\n"
            "<|execution|> Step 1: The problem asks for a single value.\n"
            "<|instruction|> Step 2: State the final answer.\n"
            f"<|execution|> Step 2: The answer is \\boxed{{{answer}}}."
        )
        if benchmark == "toy_expr" and problem_id == 1:
            trace = "<think>silent planning that should be stripped</think>" + trace
        return trace

    if strategy is PromptStrategy.HICOT_RELAXED:
        if problem_id == 2:
            return f"No structure at all here. \\boxed{{{answer}}}"
        return (
            "<|instruction|> Find the requested value.\n"
            f"<|execution|> It equals \\boxed{{{answer}}}."
        )

    if not correct and problem_id == 3:
        return "I cannot decide on an answer."
    return f"The answer is \\boxed{{{answer}}}."


def grid_responder(payload: dict) -> StubReply:
    """Map a chat request back to its (strategy, problem) scripted reply."""
    content = payload["messages"][-1]["content"]
    strategy = next(
        (s for template, s in _PREAMBLES if content.startswith(template)), None
    )
    located = next(
        (info for statement, info in _STATEMENT_INDEX.items() if statement in content),
        None,
    )
    if strategy is None or located is None:
        return StubReply(status=500, error_body={"error": {"message": "unscripted request"}})
    benchmark, problem_id, gold = located
    return StubReply(scripted_completion(strategy, benchmark, problem_id, gold))


def write_datasets(root) -> dict:
    """Write the two toy benchmark files; returns name -> path."""
    paths = {}
    for name, rows in (("toy_int", TOY_INT_PROBLEMS), ("toy_expr", TOY_EXPR_PROBLEMS)):
        path = root / f"{name}.jsonl"
        path.write_text(
            "".join(
                json.dumps({"problem": statement, "answer": gold}) + "\n"
                for statement, gold in rows
            ),
            encoding="utf-8",
        )
        paths[name] = path
    return paths


def write_config(
    root,
    base_url: str,
    models=("sim-alpha", "sim-beta"),
    strategies=("standard", "cot", "planandsolve", "hicotrelaxed", "hicot"),
    benchmarks=("toy_int", "toy_expr"),
    concurrency: int = 4,
    name: str = "run_config.json",
):
    dataset_paths = write_datasets(root)
    config = {
        "endpoint": {
            "base_url": base_url,
            "max_attempts": 3,
            "backoff_base_s": 0.01,
            "timeout_s": 30,
        },
        "models": list(models),
        "strategies": list(strategies),
        "benchmarks": {
            name_: {
                "path": str(dataset_paths[name_]),
                "kind": "integer_exact" if name_ == "toy_int" else "math_expression",
            }
            for name_ in benchmarks
        },
        "sampling": {"temperature": 0.0, "top_p": 1.0, "max_tokens": 2048},
        "concurrency": concurrency,
        "output_dir": str(root / "out"),
        "cache_dir": str(root / "out" / "cache"),
    }
    path = root / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path
