"""Chat-completions client with caching and retries.

Speaks the OpenAI-compatible ``POST /v1/chat/completions`` wire protocol
through the standard library's ``http.client``, and persists one JSON file
per request hash so interrupted runs resume without re-querying the endpoint.
Cache writes go through a temp-file + atomic rename, so a partially written
entry is never observable. The network modules (``http.client``, ``ssl``,
``urllib.request``) and ``hashlib`` are imported by the methods that use them:
a command that builds no client loads none of them, and a run whose every item
is a cache hit loads only ``hashlib``.
"""

from __future__ import annotations

import collections
import json
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from json.decoder import scanstring
from pathlib import Path
from typing import Mapping, Optional, TYPE_CHECKING
from urllib.parse import unquote, urlsplit

from . import __version__
from .codec import from_json_dict, parse_json, to_json_dict
from .prompts import PromptBundle

if TYPE_CHECKING:
    import http.client

CHAT_COMPLETIONS_PATH = "/v1/chat/completions"
# Some API fronts refuse a request with no agent or a library's default one.
USER_AGENT = f"hicot-eval/{__version__}"

_TRANSIENT_STATUSES = frozenset({429}) | frozenset(range(500, 600))
# The statuses whose delta-seconds ``Retry-After`` header sets the wait before the
# next attempt, and the longest wait before any retry, asked for or backed off.
_RETRY_AFTER_STATUSES = frozenset({429, 503})
RETRY_AFTER_CAP_S = 60.0
_DELTA_SECONDS = re.compile(r"[0-9]+")
_CONTEXT_OVERFLOW_HINTS = ("context_length", "maximum context length", "prompt is too long")
# A surrogate code point that is not half of a pair, as a server that cuts an
# emoji's pair at ``max_tokens`` may send; no UTF-8 file can hold it.
LONE_SURROGATE = re.compile(r"[\ud800-\udfff]")
# Every token count is below this bound, 2**53, so that a float holds it exactly:
# a reply's count at or above it is not taken, and a record holding one is refused.
TOKEN_COUNT_BOUND = 2**53
# How ``_write_cache`` begins an entry: its text's JSON literal comes first.
_ENTRY_HEAD = '{"text": '
# An escape that ``json.dumps(text, ensure_ascii=False)`` may not have written:
# ``\uXXXX`` (it writes all but control characters raw) or ``\/``. An escaped
# backslash before ``u`` or ``/`` matches too, which costs only an encode.
_FOREIGN_ESCAPE = re.compile(r"\\[u/]")
# The longest ``Endpoint.timeout_s``: a socket refuses a timeout past about 9.2e9 s
# (2**63 ns), and would fail every request.
MAX_TIMEOUT_S = 1e9


class ClientError(Exception):
    """Base class for completion-endpoint failures."""


class EndpointUnreachable(ClientError):
    """All retries exhausted, or a non-retriable endpoint failure."""


class AuthFailure(ClientError):
    """401/403 from the endpoint; never retried."""


class ContextOverflow(ClientError):
    """Endpoint-reported prompt-too-long; never retried."""


class TokenSource(Enum):
    API_USAGE = "api_usage"
    APPROXIMATE = "approximate"


@dataclass(frozen=True)
class Endpoint:
    """The chat-completions endpoint; the API key comes from the variable ``api_key_env``."""

    base_url: str
    api_key_env: Optional[str] = None
    timeout_s: float = 120.0
    max_attempts: int = 4
    backoff_base_s: float = 0.5

    def __post_init__(self):
        try:
            parts = urlsplit(self.base_url)
            parts.port  # a port that is not a number from 0 to 65535 is a ValueError
        except ValueError:
            parts = None
        if not parts or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError("base_url must be an absolute http:// or https:// URL with a host")
        if not 0 < self.timeout_s <= MAX_TIMEOUT_S:
            raise ValueError(f"timeout_s must be a positive number of at most {MAX_TIMEOUT_S:g}")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be a positive integer")
        if not 0 <= self.backoff_base_s <= RETRY_AFTER_CAP_S:
            raise ValueError(
                f"backoff_base_s must be a non-negative number of at most {RETRY_AFTER_CAP_S:g}"
            )


@dataclass(frozen=True)
class SamplingParams:
    """The sampling settings of a request. Each field is sent in the request body
    under its name (left out when None) and is part of the cache key."""

    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 16384
    seed: Optional[int] = None

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be a positive integer")


# The request-body keys set from a ``CompletionRequest``, which ``extra_body`` may not name.
CLIENT_KEYS = frozenset({"model", "messages", *(f.name for f in fields(SamplingParams))})

@dataclass(frozen=True)
class CompletionRequest:
    """One chat completion to perform.

    ``as_system`` sends the prompt preamble as a system message with the
    problem as the user turn; the default sends the whole rendered prompt as
    a single user message. ``extra_body`` is merged verbatim into the request
    payload (vendor flags such as thinking-mode switches go here). Both are
    part of the cache key, as are the model id, the rendered prompt bytes,
    and every sampling field.
    """

    model_id: str
    prompt: PromptBundle
    sampling: SamplingParams = field(default_factory=SamplingParams)
    as_system: bool = False
    extra_body: Optional[Mapping] = None

    def cache_key(self) -> str:
        """The SHA-256 hex digest of the key material below, encoded as JSON with
        sorted keys and non-ASCII text kept, in UTF-8."""
        import hashlib

        material = {
            "model_id": self.model_id,
            "rendered": self.prompt.rendered,
            **to_json_dict(self.sampling),
            "as_system": self.as_system,
            "extra_body": dict(self.extra_body) if self.extra_body else None,
        }
        blob = json.dumps(material, sort_keys=True, ensure_ascii=False).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def messages(self) -> list:
        if self.as_system:
            return [
                {"role": "system", "content": self.prompt.instruction_text},
                {"role": "user", "content": self.prompt.problem_text},
            ]
        return [{"role": "user", "content": self.prompt.rendered}]


@dataclass(frozen=True)
class CompletionResult:
    text: str
    completion_tokens: int
    token_source: TokenSource
    latency_ms: int
    from_cache: bool = False


# How a client's requests reach its endpoint: the ``(host, port)`` to connect to,
# the request target, the headers, the TLS context (None for http) and the
# CONNECT tunnel through a proxy, if any.
_Route = collections.namedtuple("_Route", "address target headers tls tunnel")


def approximate_tokens(text: str) -> int:
    """Crude token estimate: whitespace-delimited words plus symbol chars.

    Symbol chars are the non-alphanumeric, non-whitespace characters. This is
    an APPROXIMATION used only when the endpoint omits usage data; results
    carry token_source=APPROXIMATE so the two paths are never conflated.
    """
    words = len(text.split())
    symbols = sum(1 for c in text if not c.isalnum() and not c.isspace())
    return words + symbols


def _sanitize_for_path(name: str) -> str:
    """``name`` as one directory name inside the cache: each run of characters
    outside ``[A-Za-z0-9._-]`` becomes ``_``, and so does each dot of a name of
    dots alone, which would name the cache directory itself or its parent."""
    name = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    return name if name.strip(".") else "_" * len(name) or "_"


class ChatClient:
    """A fetch-and-cache client that threads may share.

    Cache layout: ``<cache_dir>/<model_id>/<hex-hash>.json`` (model ids are
    sanitized for the filesystem). The caller decides which requests go out
    and how many at once: the client neither bounds concurrent requests nor
    merges concurrent fetches of one key. ``has_entry`` looks a key up without
    reading it; ``cached`` reads a hit with its text's JSON literal as the
    entry holds it, so a record line can copy the text without encoding it.

    A client writes one cache entry at a time: creating a file locks its
    directory in the kernel, and a thread that waited there would spin, where
    one that waits on the client's lock sleeps. An entry is encoded before the
    lock is taken. A model's cache directory is made by its first entry, and
    again by the next entry after it was removed; no other write makes one.
    """

    def __init__(self, endpoint: Endpoint, cache_dir: str | Path):
        self.endpoint = endpoint
        self.url = endpoint.base_url.rstrip("/") + CHAT_COMPLETIONS_PATH
        self.cache_dir = Path(cache_dir)
        self._route = None  # how requests reach the endpoint, from the first connection on
        self._route_lock = threading.Lock()
        # Open connections that no request is using: at most one per calling thread.
        self._idle = collections.deque()
        self._model_dirs = {}  # model id -> its cache directory, worked out once
        self._write_lock = threading.Lock()  # held to create and rename an entry's file

    def _resolve_route(self) -> _Route:
        """The route of every request, worked out once, at the first connection,
        under a lock, so that threads connecting at once share one; a client
        whose every lookup is a cache hit loads no network module and reads no
        proxy setting."""
        with self._route_lock:
            if self._route is None:
                self._route = self._route_from_environment()
        return self._route

    def _route_from_environment(self) -> _Route:
        import base64
        import ssl
        from urllib.request import getproxies, proxy_bypass

        api_key = self.endpoint.api_key_env and os.environ.get(self.endpoint.api_key_env)
        headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        target = urlsplit(self.url)
        https = target.scheme == "https"
        address = (target.hostname, target.port)
        request_target = target.path
        tunnel = None
        # The proxy urllib would use: HTTP(S)_PROXY, unless NO_PROXY names the host.
        proxy = getproxies().get(target.scheme)
        if proxy and not proxy_bypass(target.netloc):
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            proxy_headers = {}
            if via.username:
                login = f"{unquote(via.username)}:{unquote(via.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(login.encode("utf-8")).decode("ascii")
                )
            if https:  # a CONNECT tunnel through the proxy, TLS inside it
                tunnel = (target.hostname, target.port, proxy_headers)
            else:  # the proxy forwards the request, which names the whole URL
                request_target = self.url
                headers.update(proxy_headers)
            address = (via.hostname, via.port)
        # One TLS context for every connection: a new context loads the CA store
        # again, which takes tens of milliseconds of CPU.
        tls = ssl.create_default_context() if https else None
        return _Route(address, request_target, headers, tls, tunnel)

    def close(self) -> None:
        """Close the connections kept open for later requests; call it once no
        request is in flight."""
        while self._idle:
            self._idle.pop().close()

    def __enter__(self) -> "ChatClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connect(self, route: _Route) -> http.client.HTTPConnection:
        import http.client

        host, port = route.address
        if route.tls is None:
            return http.client.HTTPConnection(host, port, timeout=self.endpoint.timeout_s)
        conn = http.client.HTTPSConnection(
            host, port, timeout=self.endpoint.timeout_s, context=route.tls
        )
        if route.tunnel:
            tunnel_host, tunnel_port, proxy_headers = route.tunnel
            conn.set_tunnel(tunnel_host, tunnel_port, proxy_headers)
        return conn

    def _post(self, body: bytes) -> tuple:
        """``(status, response body, Retry-After header or None)`` of one POST to the
        endpoint; an error status is returned like a success, not raised.

        The connection stays open for a later request unless the server closes it.
        A request that finds a kept-open connection closed by the server since is
        sent again on another connection: that is not a failed attempt.
        """
        route = self._route or self._resolve_route()
        while True:
            try:
                conn = self._idle.pop()
            except IndexError:
                conn = self._connect(route)
            reused = conn.sock is not None
            try:
                conn.request("POST", route.target, body, route.headers)
                with conn.getresponse() as response:
                    reply = response.status, response.read(), response.getheader("Retry-After")
            except ConnectionError:
                conn.close()
                if reused:
                    continue
                raise
            except BaseException:
                conn.close()
                raise
            self._idle.append(conn)
            return reply

    def _cache_path(self, req: CompletionRequest, key: str) -> str:
        model_dir = self._model_dirs.get(req.model_id)
        if model_dir is None:
            model_dir = os.path.join(self.cache_dir, _sanitize_for_path(req.model_id))
            self._model_dirs[req.model_id] = model_dir
        return os.path.join(model_dir, f"{key}.json")

    def _read_cache(self, path: str) -> Optional[tuple]:
        """``(result, text_json)`` of the cached result, or None on a miss.
        ``text_json`` is the JSON literal of its text (see ``_parse_entry``), or None.

        An entry that is not UTF-8 JSON (one with a byte-order mark, say) or not a
        ``CompletionResult`` (a missing key, a wrongly typed value such as an
        earlier version's null text) is a miss too: the item is fetched again and
        the atomic write replaces the entry.
        """
        try:
            with open(path, "rb") as fh:
                data, text_json = _parse_entry(fh.read().decode("utf-8"))
            if isinstance(data, dict) and type(data.get("from_cache", False)) is bool:
                data["from_cache"] = True  # a stored flag of another type is refused below
            result = from_json_dict(CompletionResult, data, "cache entry")
        except (FileNotFoundError, ValueError):  # ValueError: not UTF-8, not JSON, a JsonMismatch
            return None
        if not 0 <= result.completion_tokens < TOKEN_COUNT_BOUND:
            return None  # as ``_parse_success`` would not take that count
        # Only an escaped literal, which ``_parse_entry`` does not keep, can spell a
        # lone surrogate; it is replaced as in a fetched completion.
        if text_json is None:
            text = replace_lone_surrogates(result.text)
            if text is not result.text:
                result = replace(result, text=text)
        return result, text_json

    def _write_cache(self, path: str, result: CompletionResult) -> str:
        """Write ``result`` as the entry at ``path`` and return its text's JSON literal,
        which the entry holds first, where ``_parse_entry`` looks for it."""
        data = to_json_dict(result)
        text_json = json.dumps(data.pop("text"), ensure_ascii=False)
        entry = f"{_ENTRY_HEAD}{text_json}, {json.dumps(data, ensure_ascii=False)[1:]}".encode()
        model_dir, name = os.path.split(path)
        tmp = os.path.join(model_dir, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
        with self._write_lock:
            try:
                fh = open(tmp, "wb")
            except FileNotFoundError:  # the model's first entry, or its directory was removed
                os.makedirs(model_dir, exist_ok=True)
                fh = open(tmp, "wb")
            try:
                with fh:
                    fh.write(entry)
                os.replace(tmp, path)
            except BaseException:  # a full disk, say: leave no temp file behind
                try:
                    os.unlink(tmp)
                except FileNotFoundError:
                    pass
                raise
        return text_json

    def complete(self, req: CompletionRequest) -> CompletionResult:
        """Return the completion for ``req``, from cache when available."""
        key = req.cache_key()
        return (self.cached(req, key) or self.fetch(req, key))[0]

    def has_entry(self, req: CompletionRequest, key: str) -> bool:
        """Whether the cache holds a file for ``req`` under ``key``, which is not read:
        ``cached`` may still find it unreadable, a miss."""
        return os.path.isfile(self._cache_path(req, key))

    def cached(self, req: CompletionRequest, key: str) -> Optional[tuple]:
        """``(result, text_json)`` of the cached completion for ``req``, whose cache
        key is ``key``, or None on a miss; sends no request. ``text_json`` is
        ``json.dumps(result.text, ensure_ascii=False)`` as the entry holds it, or
        None where the entry's literal is spelled otherwise."""
        return self._read_cache(self._cache_path(req, key))

    def fetch(self, req: CompletionRequest, key: str) -> tuple:
        """``(result, text_json)``, as ``cached`` returns them, of the completion for
        ``req`` from the endpoint, which is written to the cache under ``key``; the
        cache is not read. ``text_json`` is the literal the entry holds."""
        result = self._complete_uncached(req)
        return result, self._write_cache(self._cache_path(req, key), result)

    def _complete_uncached(self, req: CompletionRequest) -> CompletionResult:
        import http.client

        # A refused or dropped connection, a timeout, and a body cut off in transit
        # (``IncompleteRead``). An error status is never one of these: ``_post``
        # returns it.
        retriable_errors = (OSError, http.client.HTTPException)
        payload = {"model": req.model_id, "messages": req.messages()}
        # A sampling field that is None, an unset seed, is not sent.
        payload.update((k, v) for k, v in to_json_dict(req.sampling).items() if v is not None)
        if req.extra_body:
            payload.update(req.extra_body)
        body = json.dumps(payload, allow_nan=False).encode("utf-8")

        started = time.monotonic()
        last_failure = "no attempt made"
        wait_s = None  # the wait the server asked for before the next attempt
        for attempt in range(self.endpoint.max_attempts):
            if attempt:
                if wait_s is None:  # full jitter: workers that failed together spread out
                    # At most the cap; 2.0 ** 1024 would overflow a float.
                    ceiling = self.endpoint.backoff_base_s * 2.0 ** min(attempt - 1, 1023)
                    wait_s = random.uniform(0, min(ceiling, RETRY_AFTER_CAP_S))
                time.sleep(wait_s)
            wait_s = None
            try:
                status, reply, retry_after = self._post(body)
            except retriable_errors as exc:
                last_failure = f"{type(exc).__name__}: {exc}"
                continue

            if status in (401, 403):
                raise AuthFailure(f"endpoint returned {status}")
            if status in _TRANSIENT_STATUSES:
                last_failure = f"HTTP {status}"
                if status in _RETRY_AFTER_STATUSES:
                    wait_s = _retry_after_s(retry_after)
                continue
            if status != 200:
                code, message = _error_detail(reply)
                probe = f"{code} {message}".lower()
                if status == 400 and any(hint in probe for hint in _CONTEXT_OVERFLOW_HINTS):
                    raise ContextOverflow(message)
                raise EndpointUnreachable(f"HTTP {status}: {message}")

            return self._parse_success(reply, started)

        raise EndpointUnreachable(
            f"gave up after {self.endpoint.max_attempts} attempts ({last_failure})"
        )

    def _parse_success(self, reply: bytes, started: float) -> CompletionResult:
        latency_ms = int((time.monotonic() - started) * 1000)
        try:
            body = parse_json(reply)
            text = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointUnreachable(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise EndpointUnreachable(
                f"malformed completion response: content is {type(text).__name__}"
            )
        text = replace_lone_surrogates(text)
        usage = body.get("usage")
        tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
        if type(tokens) is int and 0 <= tokens < TOKEN_COUNT_BOUND:  # a JSON true is not a count
            return CompletionResult(text, tokens, TokenSource.API_USAGE, latency_ms)
        return CompletionResult(
            text, approximate_tokens(text), TokenSource.APPROXIMATE, latency_ms
        )


def replace_lone_surrogates(text: str) -> str:
    """``text`` with each lone surrogate replaced by U+FFFD, the replacement
    character; ``text`` itself where it holds none, as ASCII text never does."""
    return text if text.isascii() else LONE_SURROGATE.sub("\ufffd", text)


def _parse_entry(raw: str) -> tuple:
    """``(data, text_json)`` of the cache entry ``raw``: the entry as a dict, and its
    ``"text"`` literal, sliced from ``raw``, where that is byte for byte what
    ``json.dumps(text, ensure_ascii=False)`` writes, else None.

    An entry laid out as ``_write_cache`` writes it, ``{"text": "`` then the string
    then ``, ``, has its text decoded once, by the strict ``scanstring`` that
    ``json.loads`` uses, and the rest parsed as an object on its own. Any other
    entry, and one whose rest repeats ``"text"`` (JSON keeps the last value), is
    parsed whole. A strict string holds no raw control character, so a literal
    without ``\\u`` or ``\\/`` is spelled as ``json.dumps`` spells it.
    """
    start = len(_ENTRY_HEAD)  # the opening quote of the text
    if raw.startswith(_ENTRY_HEAD) and raw.startswith('"', start):
        text, end = scanstring(raw, start + 1, True)
        if raw.startswith(", ", end):
            data = parse_json("{" + raw[end + 2:])
            if "text" not in data:
                data["text"] = text
                literal = raw[start:end]
                return data, None if _FOREIGN_ESCAPE.search(literal) else literal
    return parse_json(raw), None


def _retry_after_s(value: Optional[str]) -> Optional[float]:
    """The wait a delta-seconds ``Retry-After`` value asks for, at most
    ``RETRY_AFTER_CAP_S``; None when there is no such value (an HTTP date is not read)."""
    if value is None or not _DELTA_SECONDS.fullmatch(value.strip()):
        return None
    return min(float(value), RETRY_AFTER_CAP_S)


def _error_detail(reply: bytes) -> tuple:
    """``(code, message)`` of an error response body; it may be any JSON, or none."""
    try:
        error = parse_json(reply)["error"]
    except (ValueError, KeyError, TypeError):  # not JSON, or no "error" member
        error = None
    code = ""
    if isinstance(error, dict):
        code, error = str(error.get("code") or ""), error.get("message")
    return code, str(error or reply.decode("utf-8", "replace")[:200])
