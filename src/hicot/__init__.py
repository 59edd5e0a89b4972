"""Harness for hierarchical instruction/execution prompting and evaluation.

Builds prompts for five prompting strategies, parses model completions into
alternating ``<|instruction|>``/``<|execution|>`` blocks, validates format
compliance, judges boxed math answers against gold labels, and aggregates
accuracy, token-length, and compliance metrics into tables and plot data.
"""

from .judge import (
    AnswerKind,
    JudgeReason,
    Judgment,
    answers_equal,
    extract_boxed,
    judge,
    normalize_math,
)
from .prompts import (
    EmptyProblem,
    PromptBundle,
    PromptStrategy,
    build_prompt,
    template_text,
)
from .traces import (
    Block,
    BlockKind,
    EXECUTION_MARKER,
    FormatReport,
    INSTRUCTION_MARKER,
    ReasoningTrace,
    compliance_mode,
    scan_blocks,
    validate_format,
)

__version__ = "0.1.0"

__all__ = [
    "AnswerKind",
    "Block",
    "BlockKind",
    "EmptyProblem",
    "EXECUTION_MARKER",
    "FormatReport",
    "INSTRUCTION_MARKER",
    "JudgeReason",
    "Judgment",
    "PromptBundle",
    "PromptStrategy",
    "ReasoningTrace",
    "answers_equal",
    "build_prompt",
    "compliance_mode",
    "extract_boxed",
    "judge",
    "normalize_math",
    "scan_blocks",
    "template_text",
    "validate_format",
]
