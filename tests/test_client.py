"""Chat client: caching, retries, token accounting, concurrency bound."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from hicot.client import (
    AuthFailure,
    ChatClient,
    CompletionRequest,
    ContextOverflow,
    Endpoint,
    EndpointUnreachable,
    SamplingParams,
    TokenSource,
    approximate_tokens,
)
from hicot.prompts import PromptStrategy, build_prompt

from stub_server import StubReply
from trace_samples import APPLES_PROBLEM, WORKED_HICOT_OUTPUT


def _request(model="stub-model", problem=APPLES_PROBLEM, **sampling):
    return CompletionRequest(
        model_id=model,
        prompt=build_prompt(PromptStrategy.HICOT, problem),
        sampling=SamplingParams(**sampling),
    )


def _client(stub, tmp_path, concurrency=4, **endpoint):
    endpoint.setdefault("backoff_base_s", 0.001)
    return ChatClient(Endpoint(stub.base_url, **endpoint), tmp_path / "cache", concurrency)


class TestApproximateTokens:
    def test_empty(self):
        assert approximate_tokens("") == 0

    def test_plain_words(self):
        assert approximate_tokens("a b c") == 3

    def test_words_plus_symbols(self):
        text = "4 × 3 = 12"
        # Oracle: 5 whitespace-delimited tokens, plus the two characters
        # ("×", "=") that are neither alphanumeric nor whitespace.
        words = len(text.split())
        symbols = sum(1 for c in text if not c.isalnum() and not c.isspace())
        assert (words, symbols) == (5, 2)
        assert approximate_tokens(text) == 7

    def test_punctuation_counts_as_symbols(self):
        assert approximate_tokens("hi!") == 2
        # One word plus the three symbol characters backslash, "{", "}".
        assert approximate_tokens("\\boxed{22}") == 4


class TestComplete:
    def test_returns_scripted_text_verbatim(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply(WORKED_HICOT_OUTPUT, completion_tokens=120))
        client = _client(stub, tmp_path)
        result = client.complete(_request())
        assert result.text == WORKED_HICOT_OUTPUT
        assert result.completion_tokens == 120
        assert result.token_source is TokenSource.API_USAGE
        assert not result.from_cache
        assert result.latency_ms >= 0

    def test_cache_hit_returns_identical_text(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply(WORKED_HICOT_OUTPUT, completion_tokens=120))
        client = _client(stub, tmp_path)
        first = client.complete(_request())
        second = client.complete(_request())
        assert stub.total_requests == 1
        assert second.from_cache
        assert second.text == first.text
        assert second.completion_tokens == first.completion_tokens

    def test_cache_survives_new_client(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("hello"))
        _client(stub, tmp_path).complete(_request())
        result = _client(stub, tmp_path).complete(_request())
        assert result.from_cache
        assert stub.total_requests == 1

    def test_retries_transient_failures(self, make_stub, tmp_path):
        statuses = [429, 429, 200]

        def responder(payload):
            status = statuses.pop(0)
            if status != 200:
                return StubReply(status=status)
            return StubReply("recovered")

        stub = make_stub(responder)
        client = _client(stub, tmp_path, max_attempts=4)
        result = client.complete(_request())
        assert result.text == "recovered"
        assert stub.total_requests == 3
        assert result.latency_ms >= 0

    def test_retries_server_errors(self, make_stub, tmp_path):
        statuses = [503, 200]
        stub = make_stub(
            lambda payload: StubReply("ok")
            if statuses.pop(0) == 200
            else StubReply(status=503)
        )
        assert _client(stub, tmp_path).complete(_request()).text == "ok"
        assert stub.total_requests == 2

    @pytest.mark.parametrize(
        "failure",
        [requests.exceptions.ChunkedEncodingError, requests.exceptions.ContentDecodingError],
    )
    def test_retries_broken_response_bodies(self, make_stub, tmp_path, failure):
        class BrokenOnceSession(requests.Session):
            failures = [failure("body cut off")]

            def post(self, *args, **kwargs):
                if self.failures:
                    raise self.failures.pop()
                return super().post(*args, **kwargs)

        stub = make_stub(lambda payload: StubReply("recovered"))
        client = _client(stub, tmp_path)
        with BrokenOnceSession() as session:
            client._session_for_thread = lambda: session
            assert client.complete(_request()).text == "recovered"
        assert stub.total_requests == 1
        assert not session.failures

    def test_exhausted_retries_raise(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply(status=429))
        client = _client(stub, tmp_path, max_attempts=3)
        with pytest.raises(EndpointUnreachable):
            client.complete(_request())
        assert stub.total_requests == 3

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_failure_is_not_retried(self, make_stub, tmp_path, status):
        stub = make_stub(lambda payload: StubReply(status=status))
        with pytest.raises(AuthFailure):
            _client(stub, tmp_path).complete(_request())
        assert stub.total_requests == 1

    def test_context_overflow_is_not_retried(self, make_stub, tmp_path):
        stub = make_stub(
            lambda payload: StubReply(
                status=400,
                error_body={
                    "error": {
                        "message": "This model's maximum context length is 8192 tokens.",
                        "code": "context_length_exceeded",
                    }
                },
            )
        )
        with pytest.raises(ContextOverflow):
            _client(stub, tmp_path).complete(_request())
        assert stub.total_requests == 1

    def test_other_400_is_endpoint_error_without_retry(self, make_stub, tmp_path):
        stub = make_stub(
            lambda payload: StubReply(status=400, error_body={"error": {"message": "bad"}})
        )
        with pytest.raises(EndpointUnreachable):
            _client(stub, tmp_path).complete(_request())
        assert stub.total_requests == 1

    @pytest.mark.parametrize("status", [400, 404])
    @pytest.mark.parametrize(
        "body",
        [{"error": "model not found"}, ["x"], "<html>not found</html>"],
        ids=["string_error", "list", "not_json"],
    )
    def test_error_body_of_any_shape_is_endpoint_error(self, make_stub, tmp_path, status, body):
        stub = make_stub(lambda payload: StubReply(status=status, error_body=body))
        with pytest.raises(EndpointUnreachable, match=f"HTTP {status}"):
            _client(stub, tmp_path).complete(_request())
        assert stub.total_requests == 1

    def test_failed_requests_are_not_cached(self, make_stub, tmp_path):
        calls = {"n": 0}

        def responder(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                return StubReply(status=401)
            return StubReply("fine")

        stub = make_stub(responder)
        client = _client(stub, tmp_path)
        with pytest.raises(AuthFailure):
            client.complete(_request())
        assert client.complete(_request()).text == "fine"

    def test_null_content_is_rejected_and_not_cached(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply(None, completion_tokens=5))
        client = _client(stub, tmp_path)
        with pytest.raises(EndpointUnreachable, match="malformed completion response"):
            client.complete(_request())
        assert stub.total_requests == 1  # a malformed 200 is not retried
        assert not list((tmp_path / "cache").rglob("*.json"))

    @pytest.mark.parametrize(
        "entry",
        [
            '{"text": null, "completion_tokens": 5, "token_source": "api_usage", "latency_ms": 1}',
            '{"text": "torn',
            '{"completion_tokens": 5, "token_source": "api_usage", "latency_ms": 1}',
        ],
        ids=["null_text", "broken_json", "missing_key"],
    )
    def test_unreadable_cache_entry_is_fetched_again(self, make_stub, tmp_path, entry):
        stub = make_stub(lambda payload: StubReply("fresh"))
        client = _client(stub, tmp_path)
        request = _request()
        path = tmp_path / "cache" / "stub-model" / f"{request.cache_key()}.json"
        path.parent.mkdir(parents=True)
        path.write_text(entry, encoding="utf-8")
        assert client.complete(request).text == "fresh"
        assert stub.total_requests == 1
        assert json.loads(path.read_text(encoding="utf-8"))["text"] == "fresh"
        assert client.complete(request).from_cache
        assert stub.total_requests == 1

    def test_token_fallback_when_usage_missing(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("4 × 3 = 12", include_usage=False))
        result = _client(stub, tmp_path).complete(_request())
        assert result.token_source is TokenSource.APPROXIMATE
        assert result.completion_tokens == approximate_tokens(result.text)

    def test_sends_single_user_message_by_default(self, make_stub, tmp_path):
        seen = {}

        def responder(payload):
            seen.update(payload)
            return StubReply("ok")

        stub = make_stub(responder)
        request = _request()
        _client(stub, tmp_path).complete(request)
        assert seen["model"] == "stub-model"
        assert [m["role"] for m in seen["messages"]] == ["user"]
        assert seen["messages"][0]["content"] == request.prompt.rendered
        assert seen["temperature"] == 0.0
        assert seen["top_p"] == 1.0
        assert seen["max_tokens"] == 16384

    def test_system_split_override(self, make_stub, tmp_path):
        seen = {}

        def responder(payload):
            seen.update(payload)
            return StubReply("ok")

        stub = make_stub(responder)
        bundle = build_prompt(PromptStrategy.COT, APPLES_PROBLEM)
        request = CompletionRequest(model_id="m", prompt=bundle, as_system=True)
        _client(stub, tmp_path).complete(request)
        assert [m["role"] for m in seen["messages"]] == ["system", "user"]
        assert seen["messages"][0]["content"] == bundle.instruction_text
        assert seen["messages"][1]["content"] == bundle.problem_text

    def test_api_key_comes_from_the_named_variable(self, make_stub, tmp_path, monkeypatch):
        sent = []

        class RecordingSession(requests.Session):
            def post(self, *args, **kwargs):
                sent.append(kwargs["headers"])
                return super().post(*args, **kwargs)

        monkeypatch.setenv("HICOT_TEST_KEY", "sk-test")
        stub = make_stub(lambda payload: StubReply("ok"))
        client = _client(stub, tmp_path, api_key_env="HICOT_TEST_KEY")
        with RecordingSession() as session:
            client._session_for_thread = lambda: session
            assert client.complete(_request()).text == "ok"
        assert sent[0]["Authorization"] == "Bearer sk-test"

    def test_extra_body_passthrough(self, make_stub, tmp_path):
        seen = {}

        def responder(payload):
            seen.update(payload)
            return StubReply("ok")

        stub = make_stub(responder)
        request = CompletionRequest(
            model_id="m",
            prompt=build_prompt(PromptStrategy.COT, APPLES_PROBLEM),
            extra_body={"enable_thinking": False},
        )
        _client(stub, tmp_path).complete(request)
        assert seen["enable_thinking"] is False


class TestCacheKey:
    def test_deterministic(self):
        assert _request().cache_key() == _request().cache_key()

    def test_distinct_inputs_distinct_keys(self):
        base = _request()
        assert base.cache_key() != _request(model="other").cache_key()
        assert base.cache_key() != _request(problem="other problem?").cache_key()
        assert base.cache_key() != _request(temperature=0.7).cache_key()
        assert base.cache_key() != _request(top_p=0.9).cache_key()
        assert base.cache_key() != _request(max_tokens=64).cache_key()
        assert base.cache_key() != _request(seed=11).cache_key()
        with_extra = CompletionRequest(
            model_id="stub-model",
            prompt=build_prompt(PromptStrategy.HICOT, APPLES_PROBLEM),
            extra_body={"enable_thinking": False},
        )
        assert base.cache_key() != with_extra.cache_key()

    def test_cache_layout_uses_model_directory(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("ok"))
        client = _client(stub, tmp_path)
        request = _request(model="org/model-x")
        client.complete(request)
        entry = tmp_path / "cache" / "org_model-x" / f"{request.cache_key()}.json"
        assert entry.exists()
        assert json.loads(entry.read_text())["text"] == "ok"


class TestConcurrency:
    def test_inflight_never_exceeds_bound(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("ok"), delay_s=0.005)
        client = _client(stub, tmp_path, concurrency=3)
        requests = [_request(problem=f"problem {i}?") for i in range(40)]
        with ThreadPoolExecutor(max_workers=12) as pool:
            list(pool.map(client.complete, requests))
        assert stub.total_requests == 40
        assert stub.high_water <= 3

    def test_concurrent_misses_on_one_key_are_single_flight(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("ok"), delay_s=0.01)
        client = _client(stub, tmp_path, concurrency=8)
        request = _request()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(client.complete, [request] * 8))
        assert stub.total_requests == 1
        assert all(r.text == "ok" for r in results)

    def test_key_locks_are_dropped_once_released(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("ok"), delay_s=0.002)
        client = _client(stub, tmp_path, concurrency=4)
        shared = [_request(problem=f"shared {i % 4}?") for i in range(64)]
        distinct = [_request(problem=f"distinct {i}?") for i in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                results = list(pool.map(client.complete, shared + distinct, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(r.text == "ok" for r in results)
        assert stub.total_requests == 4 + 64  # still one request per key
        assert client._key_locks == {}

    def test_partial_cache_entries_never_observable(self, make_stub, tmp_path):
        stub = make_stub(lambda payload: StubReply("x" * 50_000))
        client = _client(stub, tmp_path)
        request = _request()
        path = tmp_path / "cache" / "stub-model" / f"{request.cache_key()}.json"

        seen_bad = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    json.loads(path.read_text(encoding="utf-8"))
                except FileNotFoundError:
                    pass  # a miss is fine; only a torn entry is a failure
                except ValueError:
                    seen_bad.append(True)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(30):
                client.complete(request)
                path.unlink()
        finally:
            stop.set()
            thread.join()
        assert not seen_bad
