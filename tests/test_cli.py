"""Command-line behavior: subcommands, exit codes, run/resume semantics."""

import concurrent.futures
import dataclasses
import errno
import io
import json
import os
import re
import shutil
import sys
import threading
import time
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hicot import cli
from hicot.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, cmd_run, main
from hicot.client import (
    ChatClient,
    CompletionRequest,
    CompletionResult,
    Endpoint,
    SamplingParams,
    TokenSource,
    approximate_tokens,
)
from hicot.codec import to_json_dict
from hicot.config import ConfigInvalid, ModelOverride, RunConfig, load_run_config
from hicot.datasets import BenchmarkSpec, Problem, RecordWriter, load_dataset, read_records
from hicot.judge import AnswerKind, JudgeReason
from hicot.prompts import PromptStrategy, build_prompt
from hicot.traces import scan_blocks, validate_format

from grid_fixture import TOY_INT_PROBLEMS, grid_responder, write_config
from json_faults import key_paths, swap_one
from stub_server import StubReply
from trace_samples import WORKED_HICOT_OUTPUT


# A step label of more digits than int() reads (4,300), with a boxed answer.
LONG_STEP_LABEL = "<|instruction|>Step " + "1" * 5000 + ": go<|execution|>Step 1: \\boxed{42}"


class TestValidateCommand:
    def test_compliant_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text(WORKED_HICOT_OUTPUT, encoding="utf-8")
        code = main(["validate", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert payload == {
            "alternation_ok": True,
            "step_alignment_ok": True,
            "boxed_present": True,
            "compliant": True,
        }

    def test_empty_stdin_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["validate"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_VALIDATION
        assert payload["compliant"] is False

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        assert main(["validate", str(path)]) == EXIT_IO
        assert str(path) in capsys.readouterr().err

    def test_step_label_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text(LONG_STEP_LABEL, encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert json.loads(out)["step_alignment_ok"] is False
        assert err == ""

    def test_think_tags_option(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        path.write_text("[[r]]hidden[[/r]]" + WORKED_HICOT_OUTPUT, encoding="utf-8")
        code = main(
            ["validate", str(path), "--think-open", "[[r]]", "--think-close", "[[/r]]"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["compliant"] is True


# Config faults that must be refused with a message naming the offending key.
_KEYED_FAULTS = {
    "extra_body_string": (
        lambda config: {**config, "model_overrides": {"sim-alpha": {"extra_body": "x"}}},
        "model_overrides.sim-alpha.extra_body",
    ),
    "prompt_as_system_string": (
        lambda config: {**config, "model_overrides": {"sim-alpha": {"prompt_as_system": "no"}}},
        "model_overrides.sim-alpha.prompt_as_system",
    ),
    "output_dir_number": (lambda config: {**config, "output_dir": 5}, "output_dir"),
    "cache_dir_number": (lambda config: {**config, "cache_dir": 5}, "cache_dir"),
    "sampling_unknown_key": (
        lambda config: {**config, "sampling": {"max_token": 100}},
        "sampling.max_token",
    ),
    "endpoint_unknown_key": (
        lambda config: {**config, "endpoint": {**config["endpoint"], "timeout": 5}},
        "endpoint.timeout",
    ),
    "override_unknown_key": (
        lambda config: {**config, "model_overrides": {"sim-alpha": {"temprature": 0.5}}},
        "model_overrides.sim-alpha.temprature",
    ),
    "top_level_unknown_key": (lambda config: {**config, "concurency": 8}, "concurency"),
    "temperature_nan": (
        lambda config: {**config, "sampling": {"temperature": float("nan")}},
        "sampling.temperature",
    ),
    "temperature_infinity": (
        lambda config: {**config, "sampling": {"temperature": float("inf")}},
        "sampling.temperature",
    ),
    "timeout_inf": (
        lambda config: {**config, "endpoint": {**config["endpoint"], "timeout_s": float("inf")}},
        "endpoint.timeout_s",
    ),
    "timeout_too_large": (  # a socket refuses it, so every request would fail
        lambda config: {**config, "endpoint": {**config["endpoint"], "timeout_s": 1e10}},
        "endpoint.timeout_s",
    ),
    "backoff_too_large": (  # its wait would pass the cap on the first retry
        lambda config: {**config, "endpoint": {**config["endpoint"], "backoff_base_s": 1e300}},
        "endpoint.backoff_base_s",
    ),
    "override_unknown_model": (
        lambda config: {**config, "model_overrides": {"sim-Alpha": {"prompt_as_system": True}}},
        "model_overrides.sim-Alpha",
    ),
    "extra_body_nan": (
        lambda config: {
            **config, "model_overrides": {"sim-alpha": {"extra_body": {"x": [float("nan")]}}}
        },
        "config.model_overrides.sim-alpha.extra_body",
    ),
    "base_url_no_scheme": (
        lambda config: {**config, "endpoint": {**config["endpoint"], "base_url": "localhost:1"}},
        "config.endpoint.base_url",
    ),
    "base_url_ftp": (
        lambda config: {**config, "endpoint": {**config["endpoint"], "base_url": "ftp://x"}},
        "config.endpoint.base_url",
    ),
    "base_url_bad_port": (
        lambda config: {**config, "endpoint": {**config["endpoint"], "base_url": "http://h:x"}},
        "config.endpoint.base_url",
    ),
    # A name written into records, which no UTF-8 line can hold with a lone surrogate.
    "model_lone_surrogate": (
        lambda config: {**config, "models": ["sim-alpha", "m\ud800"]},
        "config.models",
    ),
    "benchmark_lone_surrogate": (
        lambda config: {
            **config,
            "benchmarks": {**config["benchmarks"], "b\ud800": config["benchmarks"]["toy_int"]},
        },
        "config.benchmarks",
    ),
    "benchmark_answer_feild": (
        lambda config: _with_entry(config, answer_feild="solution"),
        "config.benchmarks.toy_int.answer_feild",
    ),
    "benchmark_knd": (
        lambda config: _with_entry(config, knd="integer_exact"),
        "config.benchmarks.toy_int.knd",
    ),
    "benchmark_statement_field_number": (
        lambda config: _with_entry(config, statement_field=3),
        "config.benchmarks.toy_int.statement_field",
    ),
    "registry_knd": (
        lambda config: _with_registry(config, {"toy_int": {"knd": "integer_exact"}}),
        "'toy_int'.knd",
    ),
    "registry_path": (
        lambda config: _with_registry(config, {"toy_int": {"path": "toy_int.jsonl"}}),
        "'toy_int'.path",
    ),
    # A key the client sets from the request: the record would misstate what was sent.
    **{
        f"extra_body_{key}": (
            lambda config, key=key: {
                **config, "model_overrides": {"sim-alpha": {"extra_body": {key: "other-model"}}}
            },
            f"config.model_overrides.sim-alpha.extra_body.{key}",
        )
        for key in ("model", "messages", *(f.name for f in dataclasses.fields(SamplingParams)))
    },
    # A benchmark named as the report's own column or row.
    **{
        f"benchmark_{label}": (
            lambda config, name=name: {
                **config,
                "benchmarks": {**config["benchmarks"], name: config["benchmarks"]["toy_int"]},
            },
            f"config.benchmarks.{name}",
        )
        for label, name in (
            ("avg", "avg"), ("macro_avg", "macro_avg"), ("macro_avg_marked", "macro_avg†"),
            ("model", "model"), ("strategy", "strategy"), ("best", "best"),
        )
    },
}


def _with_entry(config, **keys) -> dict:
    """``config`` with ``keys`` added to its ``toy_int`` benchmark entry."""
    benchmarks = config["benchmarks"]
    return {**config, "benchmarks": {**benchmarks, "toy_int": {**benchmarks["toy_int"], **keys}}}


def _with_registry(config, entries) -> dict:
    """``config`` naming a registry of ``entries``, written beside its datasets."""
    path = Path(config["benchmarks"]["toy_int"]["path"]).with_name("registry.json")
    path.write_text(json.dumps(entries), encoding="utf-8")
    return {**config, "registry": str(path)}


# A subset of a ``BenchmarkSpec``'s keys and of a ``SamplingParams``'s keys, each
# with a value of its field's type.
_field_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_spec_keys = st.fixed_dictionaries({}, optional={
    "statement_field": _field_name,
    "answer_field": _field_name,
    "id_field": st.one_of(st.none(), _field_name),
    "kind": st.sampled_from([kind.value for kind in AnswerKind]),
})
_sampling_keys = st.fixed_dictionaries({}, optional={
    "temperature": st.floats(min_value=0, max_value=2),
    "top_p": st.floats(min_value=0, max_value=1),
    "max_tokens": st.integers(min_value=1, max_value=10**6),
    "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
})


class TestConfigValidation:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_unknown_strategy_rejected(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, strategies=("few_shot",))
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG

    def test_missing_dataset_rejected(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        config = json.loads(config_path.read_text())
        config["benchmarks"]["toy_int"]["path"] = str(tmp_path / "gone.jsonl")
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG

    def test_config_fields_parse(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, concurrency=2)
        config = load_run_config(config_path)
        assert config.concurrency == 2
        assert [s.value for s in config.strategies] == [
            "standard",
            "cot",
            "planandsolve",
            "hicotrelaxed",
            "hicot",
        ]
        assert set(config.benchmarks) == {"toy_int", "toy_expr"}

    @pytest.mark.parametrize(
        "spoil",
        [lambda entry: {**entry, "kind": "bogus"}, lambda entry: [entry["path"]]],
        ids=["unknown_kind", "list_entry"],
    )
    def test_bad_benchmark_entry_is_config_error(self, tmp_path, make_stub, spoil):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        config = json.loads(config_path.read_text())
        config["benchmarks"]["toy_int"] = spoil(config["benchmarks"]["toy_int"])
        config_path.write_text(json.dumps(config))
        with pytest.raises(ConfigInvalid):
            load_run_config(config_path)
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda config: [config],
            lambda config: {**config, "endpoint": config["endpoint"]["base_url"]},
            lambda config: {**config, "benchmarks": list(config["benchmarks"])},
            lambda config: {**config, "sampling": [0.0]},
            lambda config: {**config, "model_overrides": ["sim-alpha"]},
            lambda config: {**config, "model_overrides": {"sim-alpha": "system"}},
            lambda config: {**config, "model_overrides": {"sim-alpha": {"sampling": 0.5}}},
            lambda config: {**config, "models": "gpt-x"},
            lambda config: {**config, "models": ["gpt-x", 7]},
            lambda config: {**config, "strategies": "cot"},
            lambda config: {**config, "think_tags": "ab"},
            lambda config: {**config, "think_tags": ["<think>", None]},
            lambda config: {**config, "think_tags": ["a", "b", "c"]},
            lambda config: {**config, "endpoint": {**config["endpoint"], "max_attempts": "3"}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "max_attempts": 0}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "max_attempts": True}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "timeout_s": "5"}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "timeout_s": 0}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "backoff_base_s": -1}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "api_key_env": 7}},
            lambda config: {**config, "endpoint": {**config["endpoint"], "base_url": 5}},
            lambda config: {**config, "sampling": {"temperature": "0.7"}},
            lambda config: {**config, "sampling": {"top_p": None}},
            lambda config: {**config, "sampling": {"max_tokens": 1.5}},
            lambda config: {**config, "sampling": {"seed": True}},
            lambda config: {
                **config,
                "model_overrides": {"sim-alpha": {"sampling": {"seed": "1"}}},
            },
            lambda config: {**config, "concurrency": True},
            lambda config: {**config, "registry": 7},
            lambda config: {**config, "sampling": None},
            lambda config: {**config, "think_tags": None},
            lambda config: {**config, "output_dir": ""},
            lambda config: {**config, "sampling": {"temperature": 10**400}},
            *(spoil for spoil, _ in _KEYED_FAULTS.values()),
        ],
        ids=[
            "config_list",
            "endpoint_string",
            "benchmarks_list",
            "sampling_list",
            "overrides_list",
            "override_entry_string",
            "override_sampling_number",
            "models_string",
            "models_non_string_item",
            "strategies_string",
            "think_tags_string",
            "think_tags_non_string_item",
            "think_tags_three",
            "max_attempts_string",
            "max_attempts_zero",
            "max_attempts_bool",
            "timeout_string",
            "timeout_zero",
            "backoff_negative",
            "api_key_env_number",
            "base_url_number",
            "temperature_string",
            "top_p_null",
            "max_tokens_float",
            "seed_bool",
            "override_seed_string",
            "concurrency_bool",
            "registry_number",
            "sampling_null",
            "think_tags_null",
            "output_dir_empty",
            "temperature_too_large",
            *_KEYED_FAULTS,
        ],
    )
    def test_wrong_json_type_is_config_error(self, tmp_path, make_stub, spoil):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        config_path.write_text(json.dumps(spoil(json.loads(config_path.read_text()))))
        with pytest.raises(ConfigInvalid):
            load_run_config(config_path)
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("spoil, key", list(_KEYED_FAULTS.values()), ids=list(_KEYED_FAULTS))
    def test_config_error_names_the_key(self, tmp_path, make_stub, capsys, spoil, key):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        config_path.write_text(json.dumps(spoil(json.loads(config_path.read_text()))))
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_value_of_another_json_type_names_the_key(self, tmp_path, capsys, data):
        config = json.loads(write_config(tmp_path, "http://127.0.0.1:1").read_text())
        config["endpoint"]["api_key_env"] = "HICOT_API_KEY"
        config["sampling"]["seed"] = 1
        config.update(
            registry=None,
            think_tags=["<think>", "</think>"],
            model_overrides={
                "sim-alpha": {
                    "prompt_as_system": True,
                    "sampling": {"seed": 3},
                    "extra_body": {"enable_thinking": False},
                }
            },
        )
        load_run_config(_dump(tmp_path, config))  # the unspoiled config loads
        number = (int, float)
        optional = (type(None),)
        also_accepted = {
            ("endpoint", "timeout_s"): number,
            ("endpoint", "backoff_base_s"): number,
            ("endpoint", "api_key_env"): optional,
            ("sampling", "temperature"): number,
            ("sampling", "top_p"): number,
            ("sampling", "seed"): optional,
            ("registry",): (str,),
            ("cache_dir",): optional,
            ("benchmarks", "toy_int"): (str,),  # a path alone
            ("benchmarks", "toy_expr"): (str,),
            ("model_overrides", "sim-alpha", "sampling"): optional,
            ("model_overrides", "sim-alpha", "sampling", "seed"): optional,
            ("model_overrides", "sim-alpha", "extra_body"): optional,
        }
        paths = key_paths(config, opaque={("model_overrides", "sim-alpha", "extra_body")})
        key, spoiled = swap_one(data, config, paths, also_accepted)
        config_path = _dump(tmp_path, spoiled)
        with pytest.raises(ConfigInvalid, match=re.escape(".".join(key))):
            load_run_config(config_path)
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert ".".join(key) in capsys.readouterr().err

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Run configuration", 1)[1]
        config = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert list(config) == [f.name for f in dataclasses.fields(RunConfig)]
        for name, entry in config["benchmarks"].items():
            if isinstance(entry, str):
                entry = config["benchmarks"][name] = {"path": entry}
            dataset = tmp_path / entry["path"]
            dataset.parent.mkdir(parents=True, exist_ok=True)
            dataset.write_text(json.dumps({"problem": "1 + 1?", "answer": "2"}) + "\n")
            entry["path"] = str(dataset)
        config["output_dir"] = str(tmp_path / config["output_dir"])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        loaded = load_run_config(config_path)
        assert set(loaded.benchmarks) == set(config["benchmarks"])
        assert loaded.models == config["models"]
        # The example shows the defaults of every key but these.
        endpoint = config["endpoint"]
        assert loaded.endpoint == Endpoint(endpoint["base_url"], endpoint["api_key_env"])
        assert loaded.sampling == SamplingParams()
        for model_id, override in config["model_overrides"].items():
            assert loaded.model_overrides[model_id] == ModelOverride(
                sampling=loaded.sampling, extra_body=override["extra_body"]
            )

    @pytest.mark.parametrize(
        "registry, reported",
        [
            ('{"toy_int": ["problem", "answer"]}', "'toy_int'"),
            ('{"toy_int": {"kind": "bogus"}}', "'toy_int'"),
            ("[]", "JSON object"),
            ("{oops", "registry.json"),
            ('{"toy_int": {"kind": "integer_exact"}, "toy_int": {}}', "'toy_int'"),
        ],
        ids=["list_entry", "unknown_kind", "not_an_object", "not_json", "repeated_name"],
    )
    def test_bad_registry_is_config_error(self, tmp_path, make_stub, capsys, registry, reported):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        registry_path = tmp_path / "registry.json"
        registry_path.write_text(registry)
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**config, "registry": str(registry_path)}))
        with pytest.raises(ConfigInvalid):
            load_run_config(config_path)
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert reported in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, entries",
        [("models", ["sim-alpha", "sim-alpha"]), ("strategies", ["cot", "CoT"])],
        ids=["model", "strategy_spelled_twice"],
    )
    def test_repeated_entry_is_config_error(self, tmp_path, make_stub, capsys, key, entries):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, benchmarks=("toy_int",))
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps({**config, key: entries}))
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert f"config.{key}" in capsys.readouterr().err
        assert stub.total_requests == 0

    @pytest.mark.parametrize(
        "opening, repeated",
        [
            ('{"concurrency": 64, ', "'concurrency'"),
            ('{"sampling": {"max_tokens": 9, "max_tokens": 2048}, ', "'max_tokens'"),
        ],
        ids=["top_level", "nested"],
    )
    def test_repeated_key_is_config_error(self, tmp_path, make_stub, capsys, opening, repeated):
        # json.loads alone keeps the last value of a repeated key, silently.
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, concurrency=1)
        text = config_path.read_text()
        config_path.write_text(opening + text.lstrip()[1:])
        assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
        assert repeated in capsys.readouterr().err
        assert stub.total_requests == 0

    def test_keys_load_as_their_field_types(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        config = json.loads(config_path.read_text())
        del config["cache_dir"]
        config.update(strategies=["Plan-and-Solve"], think_tags=["[[r]]", "[[/r]]"], registry=None)
        config_path.write_text(json.dumps(config))
        loaded = load_run_config(config_path)
        assert loaded.strategies == [PromptStrategy.PLAN_AND_SOLVE]
        assert loaded.think_tags == ("[[r]]", "[[/r]]")
        assert loaded.output_dir == tmp_path / "out"
        assert loaded.cache_dir == tmp_path / "out" / "cache"
        assert loaded.endpoint.timeout_s == 30.0 and type(loaded.endpoint.timeout_s) is float

    def test_integer_and_float_spellings_share_a_cache_key(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        config = json.loads(config_path.read_text())
        keys = set()
        for temperature in (1, 1.0):
            config["sampling"] = {"temperature": temperature, "top_p": 1}
            config_path.write_text(json.dumps(config))
            sampling = load_run_config(config_path).sampling
            prompt = build_prompt(PromptStrategy.COT, "What is 2 + 2?")
            keys.add(CompletionRequest("sim-alpha", prompt, sampling).cache_key())
        assert len(keys) == 1

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        registry_entry=_spec_keys,
        config_entry=st.one_of(st.none(), _spec_keys),  # None: the entry is a path string
        sampling=_sampling_keys,
        # An override without ``sampling``, or with a null one or a subset of its keys.
        override=st.one_of(
            st.just({}), st.fixed_dictionaries({"sampling": st.one_of(st.none(), _sampling_keys)})
        ),
    )
    def test_inherited_values_come_from_the_config_then_the_registry_or_top_level(
        self, tmp_path, registry_entry, config_entry, sampling, override
    ):
        # Each loaded value is the config's own, else the inherited one, else the default.
        dataset = tmp_path / "bench.jsonl"
        dataset.write_text(json.dumps({"problem": "1 + 1?", "answer": "2"}) + "\n")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"bench": registry_entry}))
        config = {
            "endpoint": {"base_url": "http://127.0.0.1:1"},
            "models": ["m"],
            "strategies": ["hicot"],
            "benchmarks": {
                "bench": str(dataset) if config_entry is None
                else {**config_entry, "path": str(dataset)},
            },
            "registry": str(registry),
            "sampling": sampling,
            "model_overrides": {"m": override},
        }
        loaded = load_run_config(_dump(tmp_path, config))

        path, spec = loaded.benchmarks["bench"]
        expected_spec = {**to_json_dict(BenchmarkSpec()), **registry_entry, **(config_entry or {})}
        assert path == dataset
        assert to_json_dict(spec) == {**expected_spec, "path": dataset}
        top = {**to_json_dict(SamplingParams()), **sampling}
        assert to_json_dict(loaded.sampling) == top
        override_sampling = override.get("sampling", {})  # absent counts as {}
        expected_sampling = {**top, **(override_sampling or {})}
        if override_sampling is None:
            assert loaded.model_overrides["m"].sampling is None
        else:
            assert to_json_dict(loaded.model_overrides["m"].sampling) == expected_sampling

        problem = Problem("1", "bench", "1 + 1?", "2", AnswerKind(expected_spec["kind"]))
        strategy = PromptStrategy.HICOT
        prompt = build_prompt(strategy, problem)
        by_hand = CompletionRequest("m", prompt, SamplingParams(**expected_sampling))
        assert cli._request(loaded, "m", strategy, problem).cache_key() == by_hand.cache_key()

    def test_bad_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        # The second is nested deeper than json.loads can parse: a RecursionError.
        for text in ("{not json", "[" * 100_000 + "]" * 100_000):
            path.write_text(text)
            with pytest.raises(ConfigInvalid):
                load_run_config(path)
            assert main(["run", "--config", str(path)]) == EXIT_CONFIG
            assert "is not valid JSON" in capsys.readouterr().err


def _dump(root, config) -> Path:
    path = root / "run_config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _task_keys(config) -> list:
    """The record keys of ``config``'s grid, in task order."""
    return [
        (problem.id, benchmark, model_id, strategy.value)
        for model_id in config.models
        for strategy in config.strategies
        for benchmark, (path, spec) in config.benchmarks.items()
        for problem in load_dataset(path, benchmark, spec.field_map, spec.kind)
    ]


def _shared_key_config(tmp_path, base_url) -> RunConfig:
    """A one-model, one-strategy grid over ``toy_int`` and a copy of it: each of
    its three cache keys is shared by two items, one per benchmark."""
    config_path = write_config(
        tmp_path, base_url, models=("sim-alpha",), strategies=("cot",), benchmarks=("toy_int",)
    )
    raw = json.loads(config_path.read_text())
    raw["benchmarks"]["toy_copy"] = raw["benchmarks"]["toy_int"]
    config_path.write_text(json.dumps(raw))
    return load_run_config(config_path)


class TestRunCommand:
    def test_small_grid_record_count(self, tmp_path, make_stub, capsys):
        stub = make_stub(grid_responder)
        config_path = write_config(
            tmp_path,
            stub.base_url,
            models=("sim-alpha", "sim-beta"),
            strategies=("standard", "hicot"),
            benchmarks=("toy_int",),
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records_path = capsys.readouterr().out.strip()
        records = read_records(records_path)
        assert len(records) == 2 * 2 * 3
        assert stub.total_requests == 12

    def test_hicot_records_compliant_and_correct_on_worked_output(
        self, tmp_path, make_stub, capsys
    ):
        stub = make_stub(lambda payload: StubReply(WORKED_HICOT_OUTPUT))
        dataset = tmp_path / "apples.jsonl"
        dataset.write_text(
            json.dumps({"problem": "Apples and oranges, total cost?", "answer": "22"}) + "\n"
        )
        config = {
            "endpoint": {"base_url": stub.base_url},
            "models": ["sim-alpha"],
            "strategies": ["hicot"],
            "benchmarks": {"apples": str(dataset)},
            "concurrency": 2,
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records = read_records(capsys.readouterr().out.strip())
        assert records and all(r.compliant and r.judgment.correct for r in records)

    def test_step_label_past_the_digit_limit_is_scored(self, tmp_path, make_stub, capsys):
        stub = make_stub(lambda payload: StubReply(LONG_STEP_LABEL))
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("hicot",),
            benchmarks=("toy_int",),
        )
        records = read_records(cmd_run(load_run_config(config_path)))
        assert len(records) == 3
        for record in records:
            assert record.client_error is None
            assert record.completion_text == LONG_STEP_LABEL
            assert record.judgment.correct == (record.problem_id in ("1", "2"))  # gold 42
            assert not record.format_report.step_alignment_ok and not record.compliant
        progress = ("run grid:", "progress:", "cell ")  # no item failed, so no traceback
        assert all(line.startswith(progress) for line in capsys.readouterr().err.splitlines())

    def test_answer_past_the_digit_limit_is_judged(self, tmp_path, make_stub, capsys):
        # int() refuses more than 4,300 digits: the answer is no number, and no fault.
        text = "The answer is \\boxed{" + "9" * 5000 + "}"
        stub = make_stub(lambda payload: StubReply(text))
        config_path = write_config(tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",))
        records = read_records(cmd_run(load_run_config(config_path)))
        assert len(records) == 6
        reasons = {"toy_int": JudgeReason.UNPARSEABLE_INTEGER, "toy_expr": JudgeReason.MISMATCH}
        for record in records:
            assert record.client_error is None
            assert record.completion_text == text
            assert record.judgment.reason is reasons[record.benchmark]
        progress = ("run grid:", "progress:", "cell ")
        assert all(line.startswith(progress) for line in capsys.readouterr().err.splitlines())

    def test_model_override_is_applied(self, tmp_path, make_stub):
        seen = []

        def responder(payload):
            seen.append(payload)
            return StubReply("The answer is \\boxed{42}.")

        stub = make_stub(responder)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = json.loads(config_path.read_text())
        config["sampling"] = {"temperature": 0.7, "max_tokens": 100}
        config["model_overrides"] = {
            "sim-alpha": {
                "sampling": {"seed": 3},
                "prompt_as_system": True,
                "extra_body": {"enable_thinking": False},
            }
        }
        config_path.write_text(json.dumps(config))
        loaded = load_run_config(config_path)
        assert loaded.model_overrides["sim-alpha"].sampling == SamplingParams(0.7, 1.0, 100, 3)
        assert len(read_records(cmd_run(loaded))) == 3
        assert len(seen) == 3
        for payload in seen:
            assert [m["role"] for m in payload["messages"]] == ["system", "user"]
            assert payload["enable_thinking"] is False
            assert payload["temperature"] == 0.7
            assert payload["max_tokens"] == 100
            assert payload["seed"] == 3

    def test_rerun_is_fully_resumed(self, tmp_path, make_stub, capsys):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, models=("sim-alpha",))
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        first = stub.total_requests
        assert first == 5 * 6
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records = read_records(capsys.readouterr().out.strip())
        assert stub.total_requests == first  # no new network traffic
        assert len(records) == 30

    def test_repeated_key_on_resume_ends_the_run_before_any_request(
        self, tmp_path, make_stub, capsys
    ):
        stub = make_stub(grid_responder)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = load_run_config(config_path)
        first, second, _ = cmd_run(config).read_bytes().splitlines(keepends=True)
        # The first record twice and the third gone, with no cache: one item to fetch.
        config.records_path.write_bytes(first + first + second)
        shutil.rmtree(config.cache_dir)
        stub.reset_counters()
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == EXIT_IO
        assert "duplicate record for ('1', 'toy_int', 'sim-alpha', 'cot')" in capsys.readouterr().err
        assert stub.total_requests == 0
        assert config.records_path.read_bytes() == first + first + second

    def test_warm_cache_needs_no_network(self, tmp_path, make_stub, capsys):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, models=("sim-alpha",))
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records_path = capsys.readouterr().out.strip()
        baseline = read_records(records_path)

        # Drop the records but keep the response cache: the rerun rebuilds the
        # identical record set with zero requests reaching the server.
        os.unlink(records_path)
        stub.reset_counters()
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        rebuilt = read_records(capsys.readouterr().out.strip())
        assert stub.total_requests == 0
        strip = lambda r: {**to_json_dict(r), "timestamp": ""}
        assert sorted(map(json.dumps, map(strip, rebuilt))) == sorted(
            map(json.dumps, map(strip, baseline))
        )

    def test_endpoint_failures_recorded_not_fatal(self, tmp_path, make_stub, capsys):
        def flaky(payload):
            if "hexagon" in payload["messages"][-1]["content"]:
                return StubReply(
                    status=400,
                    error_body={
                        "error": {"message": "maximum context length exceeded",
                                  "code": "context_length_exceeded"}
                    },
                )
            return grid_responder(payload)

        stub = make_stub(flaky)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records = read_records(capsys.readouterr().out.strip())
        assert len(records) == 3
        failed = [r for r in records if r.client_error]
        assert len(failed) == 1
        assert "ContextOverflow" in failed[0].client_error
        assert not failed[0].judgment.correct

    def test_unknown_model_becomes_error_records(self, tmp_path, make_stub, capsys):
        stub = make_stub(
            lambda payload: StubReply(status=404, error_body={"error": "model not found"})
        )
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records = read_records(capsys.readouterr().out.strip())
        assert len(records) == 3
        assert all("HTTP 404: model not found" in r.client_error for r in records)
        assert stub.total_requests == 3

    def test_lone_surrogate_in_an_error_message_becomes_a_replacement_character(
        self, tmp_path, make_stub, capsys
    ):
        # The escape as JSON text: the client decodes it to a lone surrogate.
        refusal = StubReply(status=400, error_body='{"error": {"message": "bad \\ud83d input"}}')
        stub = make_stub(
            lambda payload: refusal
            if "first" in payload["messages"][0]["content"]
            else StubReply("\\boxed{42}")
        )
        dataset = tmp_path / "two.jsonl"
        rows = [{"problem": "the first", "answer": "42"}, {"problem": "the second", "answer": "42"}]
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = {
            "endpoint": {"base_url": stub.base_url, "max_attempts": 1},
            "models": ["sim-alpha"],
            "strategies": ["cot"],
            "benchmarks": {"two": str(dataset)},
            "output_dir": str(tmp_path / "out"),
        }
        config_path = _dump(tmp_path, config)
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        failed, judged = read_records(capsys.readouterr().out.strip())
        assert failed.client_error == "EndpointUnreachable: HTTP 400: bad \ufffd input"
        assert not failed.judgment.correct
        assert judged.client_error is None and judged.judgment.correct

    def test_token_count_no_float_holds_is_approximated(self, tmp_path, make_stub, capsys):
        stub = make_stub(lambda payload: StubReply("\\boxed{42}", completion_tokens=10**400))
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records_path = capsys.readouterr().out.strip()
        records = read_records(records_path)
        assert [r.token_source for r in records] == [TokenSource.APPROXIMATE] * 3
        assert [r.completion_tokens for r in records] == [approximate_tokens("\\boxed{42}")] * 3
        assert main(["score", records_path]) == EXIT_OK
        assert main(["report", records_path]) == EXIT_OK

    def test_lone_surrogate_becomes_a_replacement_character(self, tmp_path, make_stub, capsys):
        # A server that cuts an emoji's surrogate pair at max_tokens sends half of
        # it; a whole pair (the leading emoji) decodes to one character.
        stub = make_stub(lambda payload: StubReply("\U0001f600 x \ud83d then \\boxed{42}"))
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = load_run_config(config_path)
        records = read_records(cmd_run(config))
        assert len(records) == 3
        for record in records:
            assert record.client_error is None
            assert record.completion_text == "\U0001f600 x \ufffd then \\boxed{42}"
            assert record.judgment.correct == (record.problem_id in ("1", "2"))  # gold 42
        assert len(list(config.cache_dir.rglob("*.json"))) == 3
        progress = ("run grid:", "progress:", "cell ")  # no item failed, so no traceback
        assert all(line.startswith(progress) for line in capsys.readouterr().err.splitlines())

    def test_escaped_lone_surrogate_in_a_cache_entry_becomes_a_replacement_character(
        self, tmp_path, make_stub, capsys
    ):
        # ``json.dumps`` escapes a lone surrogate by default, so an entry written by
        # another tool can hold one where ``_write_cache`` never would.
        stub = make_stub(grid_responder)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = load_run_config(config_path)
        cmd_run(config)
        entries = sorted(config.cache_dir.rglob("*.json"))
        assert len(entries) == 3
        for entry in entries:
            data = json.loads(entry.read_text(encoding="utf-8"))
            entry.write_text(json.dumps({**data, "text": "x \ud83d \\boxed{42}"}), "utf-8")
        config.records_path.unlink()
        stub.reset_counters()
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records = read_records(capsys.readouterr().out.strip())
        assert stub.total_requests == 0
        assert [r.completion_text for r in records] == ["x \ufffd \\boxed{42}"] * 3
        assert [r.judgment.correct for r in records] == [True, True, False]  # gold 42, 42, 6

    @pytest.mark.parametrize("field", ["problem", "answer", "id"])
    def test_lone_surrogate_in_a_benchmark_field_is_a_malformed_line(
        self, tmp_path, make_stub, capsys, field
    ):
        stub = make_stub(grid_responder)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["benchmarks"]["toy_int"]["id_field"] = "id"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        rows = [{"problem": "What is 6 * 7?", "answer": "42", "id": f"p{i}"} for i in range(3)]
        rows[1][field] += "\ud800"
        dataset = Path(config["benchmarks"]["toy_int"]["path"])
        dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"{dataset}:2: field {field!r} holds a lone surrogate" in err
        assert stub.total_requests == 0
        assert not Path(config["output_dir"], "records.jsonl").exists()

    def test_null_content_becomes_error_record_and_is_not_cached(self, tmp_path, make_stub):
        stub = make_stub(lambda payload: StubReply(None, completion_tokens=5))
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = load_run_config(config_path)
        records = read_records(cmd_run(config))
        assert len(records) == 3
        assert all("EndpointUnreachable" in r.client_error for r in records)
        assert not any(r.judgment.correct for r in records)
        assert not list(config.cache_dir.rglob("*.json"))

    def test_boolean_token_count_is_approximated(self, tmp_path, make_stub, capsys):
        # "completion_tokens": true is not a count: score, a resumed run and a
        # re-run from the cache all read what run wrote.
        stub = make_stub(lambda payload: StubReply("\\boxed{42}", completion_tokens=True))
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records_path = Path(capsys.readouterr().out.strip())
        records = read_records(records_path)
        assert [r.token_source for r in records] == [TokenSource.APPROXIMATE] * 3
        assert main(["score", str(records_path)]) == EXIT_OK
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        records_path.unlink()
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        assert len(read_records(records_path)) == 3
        assert stub.total_requests == 3  # the cache entries were read back

    def test_broken_response_bodies_become_error_records(self, tmp_path, make_stub):
        stub = make_stub(lambda payload: StubReply("cut short", cut_body=True))
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        records = read_records(cmd_run(load_run_config(config_path)))
        assert len(records) == 3
        assert all("EndpointUnreachable" in r.client_error for r in records)
        assert all("IncompleteRead" in r.client_error for r in records)
        assert stub.total_requests == 3 * 3  # every attempt of every item

    def test_item_that_raises_becomes_its_error_record(
        self, tmp_path, make_stub, monkeypatch, capsys
    ):
        stub = make_stub(grid_responder)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = load_run_config(config_path)
        fault_free = read_records(
            cmd_run(dataclasses.replace(config, output_dir=tmp_path / "fault_free"))
        )
        judge = cli.judge_completion

        def faulty_judge(predicted, problem):
            if predicted is not None and problem.id == fault_free[0].problem_id:
                raise RuntimeError("judge bug")
            return judge(predicted, problem)

        monkeypatch.setattr(cli, "judge_completion", faulty_judge)
        capsys.readouterr()
        records = read_records(cmd_run(config))
        assert len(records) == 3
        assert "in faulty_judge" in capsys.readouterr().err  # the traceback is shown
        failed = [r for r in records if r.client_error]
        assert [r.client_error for r in failed] == ["RuntimeError: judge bug"]
        assert failed[0].problem_id == fault_free[0].problem_id
        # A cache hit here: its record holds the empty text it was scored as,
        # not the entry's literal.
        assert failed[0].completion_text == ""
        assert failed[0].format_report == validate_format(scan_blocks(""))
        assert not failed[0].judgment.correct and not failed[0].compliant
        strip = lambda r: {**to_json_dict(r), "timestamp": ""}
        judged = {r.problem_id: strip(r) for r in records if not r.client_error}
        assert judged == {r.problem_id: strip(r) for r in fault_free[1:]}

        requests_sent = stub.total_requests
        assert read_records(cmd_run(config)) == records  # resuming adds nothing
        assert stub.total_requests == requests_sent

    @pytest.mark.parametrize("fault", ["write", "read"])
    def test_cache_io_error_ends_the_grid(self, tmp_path, make_stub, monkeypatch, fault):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url, concurrency=2)  # 60 items
        config = load_run_config(config_path)
        if fault == "write":

            def disk_full(self, path, result):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr(ChatClient, "_write_cache", disk_full)
        else:  # the model's cache directory is a file: every read is NotADirectoryError
            config.cache_dir.mkdir(parents=True)
            (config.cache_dir / "sim-alpha").write_text("")
        assert main(["run", "--config", str(config_path)]) == EXIT_IO
        assert not read_records(config.records_path)
        assert not list(config.cache_dir.rglob("*.json"))
        # The queued items are cancelled: only those already started send a request.
        assert stub.total_requests <= 2 * config.concurrency

    def test_workers_write_one_cache_entry_at_a_time(self, tmp_path, make_stub, monkeypatch):
        # Every latency is 0 ms, so two runs of the grid write the same bytes.
        monkeypatch.setattr("hicot.client.time", types.SimpleNamespace(
            monotonic=lambda: 0.0, sleep=time.sleep,
        ))
        counter = threading.Lock()
        writes = {"open": 0, "most_open": 0, "done": 0}
        real_replace = os.replace

        def counted_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            if str(file).endswith(".tmp"):
                with counter:
                    writes["open"] += 1
                    writes["most_open"] = max(writes["most_open"], writes["open"])
                time.sleep(0.002)  # room for another worker's write to begin
            return fh

        def counted_replace(src, dst):
            real_replace(src, dst)
            if str(src).endswith(".tmp"):
                with counter:
                    writes["open"] -= 1
                    writes["done"] += 1

        stub = make_stub(grid_responder)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=4))
        serial = dataclasses.replace(
            config, concurrency=1, output_dir=tmp_path / "serial",
            cache_dir=tmp_path / "serial" / "cache",
        )
        serial_records = read_records(cmd_run(serial))
        monkeypatch.setattr("hicot.client.open", counted_open, raising=False)
        monkeypatch.setattr("hicot.client.os.replace", counted_replace)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # 4 workers on fewer cores, switched often
        try:
            records = read_records(cmd_run(config))
        finally:
            sys.setswitchinterval(switch_interval)

        entries = sorted(path for path in config.cache_dir.rglob("*") if path.is_file())
        assert writes == {"open": 0, "most_open": 1, "done": len(entries)} and entries
        assert [path.relative_to(config.cache_dir) for path in entries] == sorted(
            path.relative_to(serial.cache_dir)
            for path in serial.cache_dir.rglob("*") if path.is_file()
        )
        for path in entries:
            twin = serial.cache_dir / path.relative_to(config.cache_dir)
            assert path.read_bytes() == twin.read_bytes()
        strip = lambda r: {**to_json_dict(r), "timestamp": ""}
        assert list(map(strip, records)) == list(map(strip, serial_records))
        assert not list(config.cache_dir.rglob("*.tmp"))

    def test_item_that_ends_the_grid_starts_no_later_item(self, tmp_path, monkeypatch):
        # The grid's first fetch takes a while and succeeds; every other sim-alpha
        # fetch fails, as with a cache that cannot be written. Once one has failed,
        # the other worker must not race on through the queue into the sim-beta
        # fetches, and the items whose fetch it skips write no record.
        config = load_run_config(write_config(tmp_path, "http://127.0.0.1:1", concurrency=2))
        first_prompt = build_prompt(PromptStrategy.STANDARD, TOY_INT_PROBLEMS[0][0]).rendered
        started = []

        def fetch(self, request, key):
            started.append(request.model_id)
            if (request.model_id, request.prompt.rendered) != ("sim-alpha", first_prompt):
                raise OSError(errno.ENOSPC, "No space left on device")
            time.sleep(0.05)
            return CompletionResult("\\boxed{42}", 3, TokenSource.API_USAGE, 0), None

        monkeypatch.setattr(ChatClient, "fetch", fetch)
        with pytest.raises(OSError, match="No space left"):
            cmd_run(config)
        assert started and set(started) == {"sim-alpha"}
        assert [record.key() for record in read_records(config.records_path)] == [
            ("1", "toy_int", "sim-alpha", "standard")
        ]

    def test_fetch_skipped_before_a_failed_one_writes_no_record(self, tmp_path, monkeypatch):
        # The grid's second fetch starts only once its third has failed, so the
        # grid is ending when it starts: it sends nothing and writes no record,
        # and the run ends with the third fetch's error.
        config = load_run_config(write_config(tmp_path, "http://127.0.0.1:1", concurrency=2))
        third_ended = threading.Event()

        class StaggeredPool(concurrent.futures.ThreadPoolExecutor):
            submitted = 0

            def submit(self, fn, *args):
                self.submitted += 1
                number = self.submitted

                def staggered():
                    if number == 2:
                        third_ended.wait(timeout=10)
                    try:
                        return fn(*args)
                    finally:
                        if number == 3:
                            third_ended.set()

                return super().submit(staggered)

        def fetch(self, request, key):
            fetched.append(request.prompt.problem_text)
            if len(fetched) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return CompletionResult("\\boxed{42}", 3, TokenSource.API_USAGE, 0), None

        fetched = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", StaggeredPool)
        monkeypatch.setattr(ChatClient, "fetch", fetch)
        with pytest.raises(OSError, match="No space left"):
            cmd_run(config)
        assert fetched == [TOY_INT_PROBLEMS[0][0], TOY_INT_PROBLEMS[2][0]]
        assert [record.key() for record in read_records(config.records_path)] == [
            ("1", "toy_int", "sim-alpha", "standard")
        ]

    def test_interrupt_sends_no_queued_request(self, tmp_path, make_stub, monkeypatch):
        # The grid's first item is answered at once and every other request is
        # held until the interrupt, so no worker can run ahead through the queue.
        first_prompt = build_prompt(PromptStrategy.STANDARD, TOY_INT_PROBLEMS[0][0]).rendered
        interrupting = threading.Event()

        def gated(payload):
            first = payload["messages"][-1]["content"] == first_prompt
            if not (first and payload["model"] == "sim-alpha"):
                interrupting.wait(timeout=10)
            return grid_responder(payload)

        stub = make_stub(gated)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=2))

        def interrupted(self, record, text_json=None):
            interrupting.set()
            raise KeyboardInterrupt

        monkeypatch.setattr(RecordWriter, "append", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cmd_run(config)
        assert not read_records(config.records_path)
        assert stub.total_requests <= 2 * config.concurrency

    def test_warm_rerun_fetches_nothing_and_keeps_the_order(
        self, tmp_path, make_stub, monkeypatch
    ):
        # One model's completions end in text whose JSON literal the warm run
        # copies; the other's literals hold a ``\u`` (ESC, and ``\underline``'s
        # escaped backslash), so the warm run encodes their text again.
        suffixes = {"sim-alpha": ' é / \u2028 😀 "q" \\ \t', "sim-beta": " \\underline{x} \x1b"}

        def responder(payload):
            reply = grid_responder(payload)
            return dataclasses.replace(reply, content=reply.content + suffixes[payload["model"]])

        stub = make_stub(responder)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=2))
        cold_path = cmd_run(config)
        assert [record.key() for record in read_records(cold_path)] == _task_keys(config)

        def fetch(self, request, key):
            raise AssertionError("a warm run fetched")

        monkeypatch.setattr(ChatClient, "fetch", fetch)
        warm_path = cmd_run(dataclasses.replace(config, output_dir=tmp_path / "warm"))
        mask = lambda path: re.sub(rb'"timestamp": "[^"]*"', b"", path.read_bytes())
        assert mask(warm_path) == mask(cold_path)

    @pytest.mark.parametrize("answered", [True, False], ids=["answered", "failed"])
    @pytest.mark.parametrize("spoil", ["null_text", "byte_order_mark", "deleted"])
    def test_entry_unreadable_when_scored_is_one_late_fetch_through_the_pool(
        self, tmp_path, make_stub, monkeypatch, spoil, answered
    ):
        failing = set()  # prompts the stub answers with HTTP 503

        def responder(payload):
            if payload["messages"][-1]["content"] in failing:
                return StubReply(status=503)
            return grid_responder(payload)

        stub = make_stub(responder, delay_s=0.01)
        config = dataclasses.replace(_shared_key_config(tmp_path, stub.base_url), concurrency=1)
        cold = read_records(cmd_run(config))
        client = ChatClient(config.endpoint, config.cache_dir)
        path, spec = config.benchmarks["toy_int"]
        requests = [  # one per toy_int problem, whose copy in toy_copy shares its key
            cli._request(config, "sim-alpha", PromptStrategy.COT, problem)
            for problem in load_dataset(path, "toy_int", spec.field_map, spec.kind)
        ]
        late, gone = (Path(client._cache_path(r, r.cache_key())) for r in requests[::2])
        written = json.loads(late.read_text(encoding="utf-8"))
        gone.unlink()  # a miss at lookup, queued first: the late fetch waits behind it
        if spoil == "null_text":
            late.write_text(json.dumps({**written, "text": None}), encoding="utf-8")
        elif spoil == "byte_order_mark":
            late.write_bytes(b"\xef\xbb\xbf" + late.read_bytes())
        else:  # deleted after the lookup found it, before the first read
            cached = ChatClient.cached

            def deleting(self, request, key):
                late.unlink(missing_ok=True)
                monkeypatch.setattr(ChatClient, "cached", cached)
                return cached(self, request, key)

            monkeypatch.setattr(ChatClient, "cached", deleting)
        if not answered:
            failing.add(requests[0].prompt.rendered)

        stub.reset_counters()
        warm = read_records(cmd_run(dataclasses.replace(config, output_dir=tmp_path / "warm")))
        # Each key is fetched once for its two items: the miss, then the late one.
        late_attempts = 1 if answered else config.endpoint.max_attempts
        assert stub.total_requests == 1 + late_attempts
        assert stub.high_water <= config.concurrency
        strip = lambda r: {**to_json_dict(r), "timestamp": ""}
        if answered:
            assert list(map(strip, warm)) == list(map(strip, cold))
            rewritten = json.loads(late.read_text(encoding="utf-8"))  # UTF-8 JSON, no mark
            assert {**rewritten, "latency_ms": 0} == {**written, "latency_ms": 0}
        else:
            failed = [record for record in warm if record.client_error]
            assert [(r.benchmark, r.problem_id) for r in failed] == [
                ("toy_int", "1"), ("toy_copy", "1")
            ]
            assert "HTTP 503" in failed[0].client_error
            assert failed[0].client_error == failed[1].client_error
            assert [strip(r) for r in warm if not r.client_error] == [
                strip(r) for r in cold if r.problem_id != "1"
            ]

    def test_half_cached_grid_fetches_each_miss_once_in_task_order(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=2))
        # Fill the cache for two of the five strategies of one model: hits and
        # misses alternate through the grid.
        partial = dataclasses.replace(
            config,
            models=["sim-alpha"],
            strategies=[PromptStrategy.COT, PromptStrategy.HICOT],
            output_dir=tmp_path / "partial",
        )
        cmd_run(partial)
        assert stub.total_requests == 12
        stub.reset_counters()
        records = read_records(cmd_run(config))
        assert stub.total_requests == 60 - 12
        assert [record.key() for record in records] == _task_keys(config)
        assert not any(record.client_error for record in records)

    def test_items_that_share_a_cache_key_share_one_request(self, tmp_path, make_stub):
        # Paced replies: every copy is looked up while its key's fetch is in flight.
        stub = make_stub(grid_responder, delay_s=0.01)
        config = _shared_key_config(tmp_path, stub.base_url)
        records = read_records(cmd_run(config))
        assert [record.key() for record in records] == _task_keys(config)
        assert stub.total_requests == 3  # one per distinct key
        assert not any(record.client_error for record in records)
        originals, copies = records[:3], records[3:]
        for original, copy in zip(originals, copies):
            assert (original.benchmark, copy.benchmark) == ("toy_int", "toy_copy")
            assert original.problem_id == copy.problem_id
            assert original.completion_text == copy.completion_text

    def test_items_that_share_a_failing_key_share_its_error_record(self, tmp_path, make_stub):
        def hexagon_unavailable(payload):
            if "hexagon" in payload["messages"][-1]["content"]:
                return StubReply(status=503)
            return grid_responder(payload)

        stub = make_stub(hexagon_unavailable)
        config = _shared_key_config(tmp_path, stub.base_url)
        records = read_records(cmd_run(config))
        failed = [record for record in records if record.client_error]
        assert [(record.benchmark, record.problem_id) for record in failed] == [
            ("toy_int", "3"), ("toy_copy", "3")
        ]
        assert failed[0].client_error == failed[1].client_error
        assert "gave up after 3 attempts (HTTP 503)" in failed[0].client_error
        # One request each for the two keys that succeed, and one request's
        # worth of attempts for the failing key.
        assert stub.total_requests == 2 + config.endpoint.max_attempts

    def test_request_that_cannot_be_built_is_its_error_record(
        self, tmp_path, make_stub, monkeypatch, capsys
    ):
        stub = make_stub(grid_responder)
        config_path = write_config(
            tmp_path, stub.base_url, models=("sim-alpha",), strategies=("cot",),
            benchmarks=("toy_int",),
        )
        config = load_run_config(config_path)
        prompt = cli.build_prompt

        def faulty_prompt(strategy, problem):
            if problem.id == "2":
                raise RuntimeError("template bug")
            return prompt(strategy, problem)

        monkeypatch.setattr(cli, "build_prompt", faulty_prompt)
        records = read_records(cmd_run(config))
        assert "in faulty_prompt" in capsys.readouterr().err  # the traceback is shown
        assert [record.problem_id for record in records] == ["1", "2", "3"]
        assert [record.client_error for record in records] == [
            None, "RuntimeError: template bug", None
        ]
        assert records[1].format_report == validate_format(scan_blocks(""))
        assert stub.total_requests == 2

    def test_many_workers_on_a_mixed_grid_write_each_record_once(self, tmp_path, make_stub):
        stub = make_stub(grid_responder)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=8))
        # Two of the five strategies cached: hits and misses alternate.
        partial = dataclasses.replace(
            config,
            strategies=[PromptStrategy.COT, PromptStrategy.HICOT],
            output_dir=tmp_path / "partial",
        )
        cmd_run(partial)
        stub.reset_counters()
        outcome = {}

        def run():
            try:
                outcome["path"] = cmd_run(config)
            except Exception as exc:
                outcome["error"] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread = threading.Thread(target=run)
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert "error" not in outcome
        records = read_records(outcome["path"])
        assert [record.key() for record in records] == _task_keys(config)
        assert stub.total_requests == 60 - 24

    def test_group_commit_leaves_every_record_fsynced(self, tmp_path, make_stub, fsync_sizes):
        # Paced replies: the run waits on the endpoint, and syncs while it waits.
        stub = make_stub(grid_responder, delay_s=0.005)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=2))
        records = read_records(cmd_run(config))
        assert len(records) == 60
        assert 1 < len(fsync_sizes) <= len(records)
        assert fsync_sizes == sorted(set(fsync_sizes))  # each fsync covers new records
        assert fsync_sizes[-1] == config.records_path.stat().st_size

    def test_interrupt_fsyncs_the_records_written(
        self, tmp_path, make_stub, monkeypatch, fsync_sizes
    ):
        stub = make_stub(grid_responder)
        config = load_run_config(write_config(tmp_path, stub.base_url, concurrency=2))
        append = RecordWriter.append
        appended = []

        def interrupted(self, record, text_json=None):
            if len(appended) == 5:
                raise KeyboardInterrupt
            append(self, record, text_json)
            appended.append(record)

        monkeypatch.setattr(RecordWriter, "append", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cmd_run(config)
        assert read_records(config.records_path) == appended
        assert fsync_sizes[-1] == config.records_path.stat().st_size


class TestScoreAndReport:
    @pytest.fixture
    def records_path(self, tmp_path, make_stub, capsys):
        stub = make_stub(grid_responder)
        config_path = write_config(tmp_path, stub.base_url)
        assert main(["run", "--config", str(config_path)]) == EXIT_OK
        return capsys.readouterr().out.strip()

    def test_score_prints_summaries(self, records_path, capsys):
        assert main(["score", records_path]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert {s["strategy"] for s in payload["summaries"]} == set(
            s.value for s in PromptStrategy
        )
        hicot_cells = [
            s
            for s in payload["summaries"]
            if s["strategy"] == "hicot" and s["model_id"] == "sim-alpha"
        ]
        assert all(cell["pass_at_1"] == 100.0 for cell in hicot_cells)
        macro = {
            (m["model_id"], m["strategy"]): m["avg_over_benchmarks"]
            for m in payload["macro"]
        }
        assert macro[("sim-alpha", "hicot")] == 100.0

    def test_score_missing_file_is_io_error(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        # The second path's parent is a regular file: open raises NotADirectoryError.
        for path in (tmp_path / "none.jsonl", tmp_path / "file" / "records.jsonl"):
            assert main(["score", str(path)]) == EXIT_IO
            assert str(path) in capsys.readouterr().err

    def test_report_writes_three_files(self, records_path, tmp_path, capsys):
        out_dir = tmp_path / "report"
        assert (
            main(["report", records_path, "--format", "md", "--output-dir", str(out_dir)])
            == EXIT_OK
        )
        printed = capsys.readouterr().out.strip().splitlines()
        assert [p.split("/")[-1] for p in printed] == [
            "table_accuracy.md",
            "plot_tokens.csv",
            "plot_format_conditional.csv",
        ]
        table = (out_dir / "table_accuracy.md").read_text()
        assert "| sim-alpha | Hi-CoT |" in table
        assert "**100.0**" in table

    def test_report_json_round_trips(self, records_path, tmp_path, capsys):
        out_dir = tmp_path / "report_json"
        assert (
            main(["report", records_path, "--format", "json", "--output-dir", str(out_dir)])
            == EXIT_OK
        )
        payload = json.loads((out_dir / "table_accuracy.json").read_text())
        assert payload["summaries"] and payload["macro"] and payload["best"]

    def test_report_format_is_a_table_format(self, records_path, tmp_path):
        out_dir = tmp_path / "report_csv"
        assert main(["report", records_path, "--format", "csv", "--output-dir", str(out_dir)]) == 0
        assert (out_dir / "table_accuracy.csv").read_text().startswith("model,strategy,")
        assert main(["report", records_path, "--format", "xml"]) == EXIT_CONFIG

    def test_benchmark_named_as_a_report_label_is_io_error(self, records_path, tmp_path, capsys):
        # The average column, and the CSV header names, which ``csv.DictReader``
        # would read in place of the benchmark's column.
        for name in ("avg", "model", "strategy", "best"):
            path = tmp_path / f"{name}.jsonl"
            with open(records_path, encoding="utf-8") as lines, open(path, "w") as out:
                for line in lines:
                    record = json.loads(line)
                    record["benchmark"] = record["benchmark"].replace("toy_int", name)
                    out.write(json.dumps(record) + "\n")
            capsys.readouterr()
            assert main(["report", str(path), "--output-dir", str(tmp_path / "out")]) == EXIT_IO
            assert f"benchmark {name!r} is reserved" in capsys.readouterr().err
            assert main(["score", str(path)]) == EXIT_OK

    def test_token_count_no_float_holds_is_a_malformed_line(self, records_path, capsys):
        path = Path(records_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        lines[1] = json.dumps({**record, "completion_tokens": 2**53}) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["score", records_path]) == EXIT_IO
        assert f"{records_path}:2: record.completion_tokens is not below 2**53" in (
            capsys.readouterr().err
        )

    def test_corrupt_records_is_io_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main(["score", str(path)]) == EXIT_IO
        assert main(["report", str(path)]) == EXIT_IO
