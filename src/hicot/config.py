"""The run configuration: its schema, as dataclasses, and its one loader.

A run config is a JSON file whose keys are the fields of ``RunConfig``; its
``endpoint``, ``sampling`` and each ``model_overrides`` entry are read from
the fields of their dataclasses, and each benchmark entry from those of
``BenchmarkEntry``. Only the loader inherits: it merges a benchmark entry
over its registry entry, and an override's ``sampling`` over the top level,
before ``from_json_dict`` reads either."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import List, Optional, Tuple

from .client import CLIENT_KEYS, LONE_SURROGATE, Endpoint, SamplingParams
from .codec import JsonMismatch, from_json_dict, parse_json, to_json_dict
from .datasets import BenchmarkSpec, load_registry
from .metrics import RESERVED_BENCHMARKS
from .prompts import PromptStrategy
from .traces import DEFAULT_THINK_CLOSE, DEFAULT_THINK_OPEN


class ConfigInvalid(Exception):
    """Run configuration is missing, malformed, or inconsistent."""


@dataclasses.dataclass
class ModelOverride:
    prompt_as_system: bool = False
    sampling: Optional[SamplingParams] = None
    extra_body: Optional[dict] = None

    def __post_init__(self):
        try:  # the request body cannot carry NaN or Infinity, nor nest too deep to encode
            json.dumps(self.extra_body, allow_nan=False)
        except ValueError:
            raise ValueError("extra_body must hold only finite numbers") from None
        except RecursionError:
            raise ValueError("extra_body is nested too deeply") from None
        refused = CLIENT_KEYS.intersection(self.extra_body or ())
        if refused:  # the client sets these from the request, which the record describes
            raise ValueError(f"extra_body.{min(refused)} may not be set: the client sets it")


# What a model without an entry in model_overrides gets; built once, not per item.
NO_OVERRIDE = ModelOverride()


@dataclasses.dataclass(frozen=True)
class BenchmarkEntry(BenchmarkSpec):
    """A config benchmark entry: a registry entry's keys and the dataset path."""

    path: Path = dataclasses.field(kw_only=True)


@dataclasses.dataclass
class RunConfig:
    """The run config; its fields are the config file's keys."""

    endpoint: Endpoint
    models: List[str]
    strategies: List[PromptStrategy]
    benchmarks: dict  # name -> (path, BenchmarkEntry) once loaded
    registry: Optional[Path] = None
    output_dir: Path = Path("run_output")
    cache_dir: Optional[Path] = None
    sampling: SamplingParams = SamplingParams()
    concurrency: int = 4
    think_tags: Tuple[str, str] = (DEFAULT_THINK_OPEN, DEFAULT_THINK_CLOSE)
    model_overrides: dict = dataclasses.field(default_factory=dict)  # model id -> ModelOverride

    def __post_init__(self):
        for name in ("models", "strategies", "benchmarks"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("models", "strategies"):  # strategies as parsed: "cot" and "CoT" collide
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} must not list an entry twice")
        for name in ("models", "benchmarks"):  # a name no UTF-8 record line can hold
            if any(LONE_SURROGATE.search(entry) for entry in getattr(self, name)):
                raise ValueError(f"{name} must not name an entry with a lone surrogate")
        if self.concurrency < 1:
            raise ValueError("concurrency must be a positive integer")
        reserved = RESERVED_BENCHMARKS.intersection(self.benchmarks)
        if reserved:
            raise ValueError(f"benchmarks.{min(reserved)} is reserved for a report label")
        unknown = self.model_overrides.keys() - set(self.models)
        if unknown:
            raise ValueError(f"model_overrides.{min(unknown)} is not one of the models")

    @property
    def records_path(self) -> Path:
        return self.output_dir / "records.jsonl"


def load_run_config(path: str | Path) -> RunConfig:
    """Parse and validate a run configuration file (JSON)."""
    try:
        raw = parse_json(Path(path).read_text(encoding="utf-8"), unique=True)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc

    try:
        config = from_json_dict(RunConfig, raw, "config")
        try:
            registry = load_registry(config.registry)
        except (OSError, ValueError) as exc:
            raise ConfigInvalid(f"registry {config.registry}: {exc}") from exc

        benchmarks = {}
        for name, entry in config.benchmarks.items():
            entry = {"path": entry} if isinstance(entry, str) else entry
            entry = _inherit(entry, registry.get(name))
            spec = from_json_dict(BenchmarkEntry, entry, f"config.benchmarks.{name}")
            if not spec.path.exists():
                raise ConfigInvalid(f"dataset for benchmark {name!r} not found: {spec.path}")
            benchmarks[name] = (spec.path, spec)

        model_overrides = {}
        for model_id, entry in config.model_overrides.items():
            if isinstance(entry, dict):  # an absent ``sampling`` inherits as ``{}`` does
                entry = {**entry, "sampling": _inherit(entry.get("sampling", {}), config.sampling)}
            where = f"config.model_overrides.{model_id}"
            model_overrides[model_id] = from_json_dict(ModelOverride, entry, where)
    except JsonMismatch as exc:
        raise ConfigInvalid(str(exc)) from exc
    return dataclasses.replace(
        config,
        benchmarks=benchmarks,
        cache_dir=config.cache_dir or config.output_dir / "cache",
        model_overrides=model_overrides,
    )


def _inherit(entry, base):
    """A JSON object ``entry`` with the keys it lacks taken from ``to_json_dict(base)``."""
    if isinstance(entry, dict) and base is not None:
        return {**entry, **{k: v for k, v in to_json_dict(base).items() if k not in entry}}
    return entry  # ``null`` or a non-object, for ``from_json_dict`` to take or refuse
