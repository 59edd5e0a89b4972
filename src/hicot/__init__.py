"""Harness for hierarchical instruction/execution prompting and evaluation.

Builds prompts for five prompting strategies, parses model completions into
alternating ``<|instruction|>``/``<|execution|>`` blocks, validates format
compliance, judges boxed math answers against gold labels, and aggregates
accuracy, token-length, and compliance metrics into tables and plot data.
"""

__version__ = "0.1.0"
