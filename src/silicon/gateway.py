"""LLM annotation gateway: prompt assembly, transport, response parsing, and a
replayable response cache.

Prompts combine three strategies (base, persona, chain-of-thought) with two
guideline placements (system or user message); the guideline text is inserted
verbatim, never rewritten.  Every raw model response is appended to a JSONL
cache as soon as it arrives, keyed by a digest of (model, messages,
temperature, sample index), so a run can be replayed bit-for-bit later without
network access: with SILICON_REPLAY=1 (or replay=True) the gateway answers from
the cache alone and a missing key is an error rather than a network call.  The
digest of one prompt's messages is computed once and shared by its samples.

Requests go out through the standard library's http.client, one kept-alive
connection per annotate worker (see HttpTransport).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import json
import math
import os
import re
import selectors
import ssl
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from importlib import resources
from typing import Callable, Mapping, Sequence
from urllib.parse import unquote, urlsplit

from .core import LabelValue, Role, SiliconError, SourceId, TaskKind, TaskSpec, ValidationError
from .core import _JSONL_ENCODER, Dataset

__all__ = [
    "GatewayError",
    "TransportError",
    "AuthError",
    "ReplayCacheMiss",
    "Strategy",
    "Placement",
    "RetryPolicy",
    "ModelEndpoint",
    "PromptConfig",
    "ParseFailure",
    "CacheEntry",
    "AnnotationCache",
    "HttpTransport",
    "ScriptedTransport",
    "SampleResult",
    "ItemAnnotation",
    "assemble_prompt",
    "cache_key",
    "parse_response",
    "annotate",
    "annotations_to_dataset",
    "load_endpoint",
    "load_prompt_config",
    "REPLAY_ENV",
]

REPLAY_ENV = "SILICON_REPLAY"
_DIGEST = "sha256"


class GatewayError(SiliconError):
    """Gateway failure (transport, auth, replay miss)."""


class TransportError(GatewayError):
    """A failed request.  retryable says whether sending it again may succeed;
    retry_after is the server's minimum wait in seconds before doing so, if given.
    """

    def __init__(self, message: str, retryable: bool = True, retry_after: float | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class AuthError(GatewayError):
    pass


class ReplayCacheMiss(GatewayError):
    pass


class _Aborted(Exception):
    """Raised inside a worker when another part of annotate() has already failed."""


class Strategy(str, Enum):
    BASE = "base"
    PERSONA = "persona"
    COT = "cot"


class Placement(str, Enum):
    SYSTEM = "system"
    USER = "user"


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    backoff: tuple[float, ...] = (1.0, 2.0, 4.0)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        object.__setattr__(self, "backoff", tuple(float(b) for b in self.backoff))


@dataclass(frozen=True)
class ModelEndpoint:
    """An OpenAI-compatible chat-completions endpoint.

    The API key is read from the environment variable named by api_key_env,
    never stored.  base_url is http(s)://host[:port][/path], without
    credentials, query or fragment.  supports_n=False issues one request per
    sample instead of a single request with n choices.
    """

    name: str
    base_url: str
    api_key_env: str
    max_in_flight: int = 4
    timeout: float = 60.0
    supports_n: bool = True
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self):
        if not self.name or not self.base_url or not self.api_key_env:
            raise ValidationError("endpoint needs name, base_url, and api_key_env")
        try:
            url = urlsplit(self.base_url)
            url.port  # raises on a port that is not a number in range
        except (TypeError, AttributeError, ValueError):
            url = None
        if (url is None or url.scheme not in ("http", "https") or not url.hostname
                or "@" in url.netloc or url.query or url.fragment):
            raise ValidationError(
                f"base_url must be http(s)://host[:port][/path], got {self.base_url!r}")
        if self.max_in_flight < 1:
            raise ValidationError("max_in_flight must be >= 1")
        if not 0 < self.timeout < math.inf:
            raise ValidationError(
                f"timeout must be a positive number of seconds, got {self.timeout}")


@dataclass(frozen=True)
class PromptConfig:
    task: TaskSpec
    guideline_text: str
    strategy: Strategy = Strategy.BASE
    placement: Placement = Placement.SYSTEM
    persona_text: str | None = None
    temperature: float = 1.0
    n_samples: int = 5

    def __post_init__(self):
        object.__setattr__(self, "strategy", Strategy(self.strategy))
        object.__setattr__(self, "placement", Placement(self.placement))
        if not self.guideline_text:
            raise ValidationError("guideline_text must be non-empty")
        if self.strategy is Strategy.PERSONA and not self.persona_text:
            raise ValidationError("persona strategy requires persona_text")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
        if not self.temperature >= 0:  # also NaN, which no request body can carry
            raise ValidationError("temperature must be >= 0")


@functools.lru_cache(maxsize=None)
def _template(name: str) -> str:
    """A bundled prompt template, read once per process."""
    return (resources.files("silicon.templates") / name).read_text(encoding="utf-8").rstrip("\n")


def assemble_prompt(cfg: PromptConfig, item_text: str) -> list[dict[str, str]]:
    """Deterministic chat messages for one item.

    The guideline appears verbatim as its own block.  placement=system puts
    persona/guideline/instructions in the system message and the item alone in
    the user message; placement=user moves all of it into the user message
    above the item, leaving a minimal fixed system message.
    """
    blocks = []
    if cfg.strategy is Strategy.PERSONA:
        blocks.append(cfg.persona_text)
    blocks.append(cfg.guideline_text)
    if cfg.strategy is Strategy.COT:
        blocks.append(_template("cot_instruction.txt"))
    fmt_name = (
        "format_multilabel.txt" if cfg.task.kind is TaskKind.MULTILABEL else "format_single.txt"
    )
    blocks.append(_template(fmt_name).format(labels="; ".join(cfg.task.label_universe)))
    instructions = "\n\n".join(blocks)
    if cfg.placement is Placement.SYSTEM:
        return [
            {"role": "system", "content": instructions},
            {"role": "user", "content": item_text},
        ]
    return [
        {"role": "system", "content": _template("minimal_system.txt")},
        {"role": "user", "content": instructions + "\n\n" + item_text},
    ]


# Canonical key JSON: sorted keys, ASCII, no spaces; one encoder for every key.
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def _prompt_hash(model: str, messages: Sequence[Mapping[str, str]]):
    """sha256 state after the part of the key JSON shared by every sample of a prompt.

    With sorted keys the JSON reads {"messages":..,"model":..,"sample_index":..,
    "temperature":..}, so everything up to `"sample_index":` depends on the
    prompt alone; _key_tail supplies the rest.
    """
    head = _KEY_ENCODER.encode({
        "messages": [{"role": m["role"], "content": m["content"]} for m in messages],
        "model": model,
    })
    return hashlib.sha256(head[:-1].encode("ascii") + b',"sample_index":')


def _key_tail(sample_index: int, temperature: float) -> bytes:
    return (f"{_KEY_ENCODER.encode(sample_index)},"
            f'"temperature":{_KEY_ENCODER.encode(temperature)}}}').encode("ascii")


def cache_key(model: str, messages: Sequence[Mapping[str, str]], temperature: float,
              sample_index: int) -> str:
    """Digest identifying one sample of one prompt; stable across runs and machines.

    It is the sha256 of json.dumps({"model", "messages", "temperature",
    "sample_index"}, sort_keys=True, ensure_ascii=True, separators=(",", ":")).
    """
    digest = _prompt_hash(model, messages)
    digest.update(_key_tail(sample_index, temperature))
    return digest.hexdigest()


@dataclass(frozen=True)
class ParseFailure:
    """Total-function stand-in for an unparseable response."""

    reason: str


def _resolve_name(token: str, spec: TaskSpec) -> int | None:
    if token in spec.label_universe:
        return spec.label_universe.index(token)
    folded = [i for i, name in enumerate(spec.label_universe) if name.lower() == token.lower()]
    return folded[0] if len(folded) == 1 else None


_LABELS_BLOCK = re.compile(r"labels\s*:\s*\[([^\]]*)\]", re.IGNORECASE)


def parse_response(raw: str, spec: TaskSpec) -> LabelValue | ParseFailure:
    """Extract a label from model text; never raises.

    Ladder: (1) a line that is exactly a universe label (or, for multilabel
    tasks, exactly a comma-separated list of them); (2) a `labels: [...]`
    block; (3) a case-insensitive substring match that is unique across the
    universe.  Anything else, including ambiguity and empty label sets, is a
    ParseFailure value.
    """
    if not raw or not raw.strip():
        return ParseFailure("empty response")

    for line in raw.splitlines():
        token = line.strip()
        if not token:
            continue
        if token in spec.label_universe:
            return LabelValue.single(spec.label_universe.index(token))
        if spec.kind is TaskKind.MULTILABEL and "," in token:
            parts = [p.strip() for p in token.split(",")]
            if parts and all(p in spec.label_universe for p in parts):
                return LabelValue.of(spec.label_universe.index(p) for p in parts)

    match = _LABELS_BLOCK.search(raw)
    if match:
        inner = match.group(1).strip()
        if not inner:
            return ParseFailure("empty label set")
        indices = []
        for part in inner.split(","):
            token = part.strip().strip("'\"")
            resolved = _resolve_name(token, spec)
            if resolved is None:
                return ParseFailure(f"unknown label {token!r}")
            indices.append(resolved)
        if spec.kind is not TaskKind.MULTILABEL and len(set(indices)) > 1:
            return ParseFailure("multiple labels for a single-label task")
        return LabelValue.of(indices)

    lowered = raw.lower()
    hits = [i for i, name in enumerate(spec.label_universe) if name.lower() in lowered]
    if len(hits) == 1:
        return LabelValue.single(hits[0])
    if not hits:
        return ParseFailure("no label found")
    names = [spec.label_universe[i] for i in hits]
    return ParseFailure(f"ambiguous: matches {names!r}")


@dataclass(frozen=True)
class CacheEntry:
    key: str
    model: str
    temperature: float
    sample_index: int
    raw_response: str
    parsed: tuple[str, ...] | None
    failure: str | None
    created: str

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "model": self.model,
            "temperature": self.temperature,
            "sample_index": self.sample_index,
            "raw_response": self.raw_response,
            "parsed": list(self.parsed) if self.parsed is not None else None,
            "failure": self.failure,
            "created": self.created,
        }


class AnnotationCache:
    """Append-only JSONL response cache.

    The first line is a header naming the digest algorithm; each following
    line is one CacheEntry.  Writes are serialized through one lock; existing
    entries are never rewritten (duplicate keys keep the first occurrence).

    A final line that has no newline and does not decode is what a kill
    mid-append leaves behind: it is skipped on load, kept in dropped_tail,
    and cut off the file before the next append.  Any other undecodable line
    is an error naming its line number.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        self._header_written = False
        self.dropped_tail = b""
        self._torn_at: int | None = None     # file offset of dropped_tail, until cut off
        self._unterminated = False           # last line is complete but lacks its newline
        if os.path.exists(self.path):
            self._load()

    def _load(self):
        offset = 0
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                start, offset = offset, offset + len(raw)
                if not raw.strip():
                    continue
                terminated = raw.endswith(b"\n")
                try:
                    obj = json.loads(raw.decode("utf-8"))
                except ValueError as exc:
                    if terminated:
                        what = "cache entry" if self._header_written else "cache header"
                        raise ValidationError(f"{self.path}:{lineno}: bad {what} ({exc})") from exc
                    self.dropped_tail, self._torn_at = raw, start
                    return
                self._unterminated = not terminated
                if not self._header_written:
                    if (not isinstance(obj, dict) or obj.get("cache_format") != 1
                            or obj.get("digest") != _DIGEST):
                        raise ValidationError(f"{self.path}: unsupported cache header {obj!r}")
                    self._header_written = True
                    continue
                try:
                    key, model, raw = obj["key"], obj["model"], obj["raw_response"]
                    parsed, failure = obj.get("parsed"), obj.get("failure")
                    if not (isinstance(key, str) and isinstance(model, str)
                            and isinstance(raw, str)):
                        name = next(n for n in ("key", "model", "raw_response")
                                    if not isinstance(obj[n], str))
                        raise TypeError(f"{name} must be a string, not "
                                        f"{type(obj[name]).__name__}")
                    if parsed is not None:
                        if not isinstance(parsed, list):
                            raise TypeError(f"parsed must be null or a list of strings: "
                                            f"{parsed!r}")
                        for label in parsed:
                            if not isinstance(label, str):
                                raise TypeError(f"parsed must be null or a list of strings: "
                                                f"{parsed!r}")
                    if failure is not None and not isinstance(failure, str):
                        raise TypeError(f"failure must be null or a string: {failure!r}")
                    # float() and int() would coerce a bool, a fraction or a string
                    temperature, index = obj["temperature"], obj["sample_index"]
                    if type(temperature) not in (float, int):
                        raise TypeError(f"temperature must be a number, not "
                                        f"{type(temperature).__name__}")
                    if type(index) is not int:
                        raise TypeError(f"sample_index must be an integer, not "
                                        f"{type(index).__name__}")
                    created = obj.get("created", "")
                    if not isinstance(created, str):
                        raise TypeError(f"created must be a string, not "
                                        f"{type(created).__name__}")
                    entry = CacheEntry(
                        key=key,
                        model=model,
                        temperature=float(temperature),
                        sample_index=index,
                        raw_response=raw,
                        parsed=tuple(parsed) if parsed is not None else None,
                        failure=failure,
                        created=created,
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValidationError(f"{self.path}:{lineno}: bad cache entry ({exc})") from exc
                self._entries.setdefault(entry.key, entry)

    def __len__(self):
        return len(self._entries)

    def get(self, key: str) -> CacheEntry | None:
        return self._entries.get(key)

    def put(self, *entries: CacheEntry) -> None:
        """Append the entries whose keys are new, with one open of the file."""
        with self._lock:
            new = {}
            for entry in entries:
                if entry.key not in self._entries:
                    new.setdefault(entry.key, entry)
            if not new:
                return
            if self._torn_at is not None:
                os.truncate(self.path, self._torn_at)
                self._torn_at = None
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._unterminated:
                    fh.write("\n")
                    self._unterminated = False
                if not self._header_written:
                    fh.write(json.dumps({"cache_format": 1, "digest": _DIGEST}) + "\n")
                    self._header_written = True
                for entry in new.values():
                    fh.write(_JSONL_ENCODER.encode(entry.to_json()) + "\n")
            self._entries.update(new)


class HttpTransport:
    """POSTs to {base_url}/v1/chat/completions with a bearer token, over one
    kept-alive connection per calling thread (RFC 9112 section 9.3).

    A thread opens its connection on its first request and reuses it for the
    next ones.  The connection is reopened when the server closed it: after an
    HTTP/1.0 or `Connection: close` response, after an idle close found before
    the next request is written, and after any failed request.  A request is
    sent once: a failure after its bytes went out is a TransportError for the
    endpoint's RetryPolicy to handle, never a silent resend.  close() closes
    every connection; annotate calls it before it returns.

    The proxy settings urllib reads (http_proxy, https_proxy and no_proxy in
    the environment) are honoured: an http URL is sent to the proxy in
    absolute form, an https URL through a CONNECT tunnel, with basic
    credentials from the proxy URL.  TLS is verified against the system trust
    store (ssl.create_default_context(), so SSL_CERT_FILE and SSL_CERT_DIR
    apply).  Redirects are not followed.

    HTTP 429 and 5xx are retryable TransportErrors, carrying a numeric
    Retry-After header as retry_after; any other 3xx or 4xx is not retried.
    """

    def __init__(self, endpoint: ModelEndpoint):
        self.endpoint = endpoint
        key = os.environ.get(endpoint.api_key_env, "")
        if not key:
            raise AuthError(f"environment variable {endpoint.api_key_env} is not set")
        self._headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        url = endpoint.base_url.rstrip("/") + "/v1/chat/completions"
        parts = urlsplit(url)
        https = parts.scheme == "https"
        self._address = (parts.hostname, parts.port or (443 if https else 80))
        self._target = parts.path
        self._tunnel = None
        self._context = ssl.create_default_context() if https else None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(parts.netloc):
            try:
                proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
                proxy_at = (proxy.hostname, proxy.port or 80)
            except ValueError:
                proxy_at = (None, 0)
            if not proxy_at[0]:
                raise GatewayError(f"the {parts.scheme} proxy set in the environment is not a URL")
            auth = {}
            if proxy.username is not None:
                user_pass = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(user_pass.encode()).decode("ascii"))
            tunnel_to, self._address = self._address, proxy_at
            if https:
                self._tunnel = (*tunnel_to, auth)
            else:
                self._target = url
                self._headers.update(auth)
        self._lock = threading.Lock()
        self._conns: dict[int, http.client.HTTPConnection] = {}  # thread ident -> connection

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, closed first if the server closed it.

        An idle connection that reads as ready holds the server's close (or
        bytes nobody asked for), so it is not written to; http.client opens a
        new one on the next request.
        """
        me = threading.get_ident()
        conn = self._conns.get(me)
        if conn is None:
            if self._context is not None:
                conn = http.client.HTTPSConnection(*self._address, timeout=self.endpoint.timeout,
                                                   context=self._context)
            else:
                conn = http.client.HTTPConnection(*self._address, timeout=self.endpoint.timeout)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
            with self._lock:
                self._conns[me] = conn
        elif conn.sock is not None:
            with selectors.DefaultSelector() as sel:
                sel.register(conn.sock, selectors.EVENT_READ)
                if sel.select(0):
                    conn.close()
        return conn

    def close(self) -> None:
        """Close every connection; a later request opens a new one."""
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()

    def post(self, payload: dict) -> dict:
        conn = self._connection()
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            conn.close()  # its state is unknown; the next request opens a new one
            raise TransportError(f"request failed: {exc}") from exc
        except BaseException:
            conn.close()
            raise
        status = resp.status
        if status in (401, 403):
            raise AuthError(f"authentication rejected (HTTP {status})")
        if status >= 300:
            retryable = status == 429 or status >= 500
            raise TransportError(
                f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}", retryable=retryable,
                retry_after=_seconds(resp.getheader("Retry-After")) if retryable else None,
            )
        try:
            return json.loads(data)
        except ValueError as exc:
            raise TransportError(
                f"non-JSON response: {data.decode('utf-8', 'replace')[:200]}") from exc


def _seconds(value: str | None) -> float | None:
    """A Retry-After header given in seconds; None when absent or an HTTP date."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


class ScriptedTransport:
    """Offline stand-in for HttpTransport; also the fault-injection hook in tests.

    script(messages, call_index, choice_index) -> response text.
    """

    def __init__(self, script: Callable[[list, int, int], str]):
        self.script = script
        self.calls = 0

    def post(self, payload: dict) -> dict:
        n = int(payload.get("n", 1))
        contents = [self.script(payload["messages"], self.calls, i) for i in range(n)]
        self.calls += 1
        return {"choices": [{"message": {"content": c}} for c in contents]}


@dataclass(frozen=True)
class SampleResult:
    sample_index: int
    raw: str
    label: LabelValue | None
    failure: str | None
    from_cache: bool


@dataclass(frozen=True)
class ItemAnnotation:
    item_id: str
    samples: tuple[SampleResult, ...]

    def labels(self) -> list[LabelValue]:
        return [s.label for s in self.samples if s.label is not None]


def _call_with_retries(transport, payload: dict, policy: RetryPolicy,
                       abort: threading.Event) -> dict:
    """transport.post(payload), sent again after each retryable TransportError.

    The wait before a retry is the policy's backoff for that attempt, raised to
    the server's Retry-After when that is longer; it ends early when abort is
    set.  No attempt starts once abort is set.
    """
    attempt = 0
    while True:
        if abort.is_set():
            raise _Aborted
        try:
            return transport.post(payload)
        except TransportError as exc:
            attempt += 1
            if not exc.retryable or attempt == policy.max_attempts:
                raise
            delay = policy.backoff[min(attempt, len(policy.backoff)) - 1] if policy.backoff else 0.0
            if exc.retry_after is not None:
                delay = max(delay, exc.retry_after)
            if delay > 0:
                _backoff_wait(abort, delay)


def _backoff_wait(abort: threading.Event, delay: float) -> None:
    """Wait delay seconds before a retry, or until abort is set (tests replace it)."""
    abort.wait(delay)


def _choice_texts(resp: dict, n: int) -> list[str]:
    try:
        texts = [c["message"]["content"] for c in resp["choices"]]
    except (KeyError, TypeError) as exc:
        raise TransportError(f"malformed response shape: {exc}") from exc
    if len(texts) != n:
        raise TransportError(f"asked for {n} choices, got {len(texts)}")
    return texts


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def annotate(
    endpoint: ModelEndpoint,
    cfg: PromptConfig,
    items: Sequence[tuple[str, str]],
    cache: AnnotationCache,
    transport=None,
    replay: bool | None = None,
) -> list[ItemAnnotation]:
    """Collect cfg.n_samples labels per (item_id, text), cache-first.

    Each prompt's messages are hashed once; a sample's key extends that hash
    with its index and temperature.  Cache misses go to the endpoint with at
    most max_in_flight concurrent requests, sent before the cache hits are
    parsed.  The worker that receives a response parses it and appends its
    entries to the cache at once, so a response that arrived is kept whatever
    happens to the rest of the run.  Each distinct response text is parsed
    once per call.  In replay mode (replay=True or SILICON_REPLAY=1) a miss
    raises ReplayCacheMiss and no transport is ever constructed.  A request
    whose transport failure survives the retry policy marks its samples (and
    any later ones of its item) as failures and the run continues.  An
    authentication error or an interrupt aborts: queued requests are dropped,
    a backoff wait ends, no request starts after the abort, and the ones in
    flight are waited for and cached before the error is raised.  The
    connections of an HttpTransport are closed before annotate returns.
    """
    if replay is None:
        replay = os.environ.get(REPLAY_ENV, "") == "1"
    ids = [item_id for item_id, _ in items]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate item_ids in annotate input")

    prompts = {item_id: assemble_prompt(cfg, text) for item_id, text in items}
    tails = [_key_tail(s, cfg.temperature) for s in range(cfg.n_samples)]
    results: dict[str, list[SampleResult | None]] = {}
    hits: list[tuple[str, int, str]] = []
    missing: dict[str, list[tuple[int, str]]] = {}  # item_id -> [(sample index, key)]
    for item_id, messages in prompts.items():
        prompt_hash = _prompt_hash(endpoint.name, messages)
        for s, tail in enumerate(tails):
            digest = prompt_hash.copy()
            digest.update(tail)
            key = digest.hexdigest()
            entry = cache.get(key)
            if entry is None:
                missing.setdefault(item_id, []).append((s, key))
            else:
                hits.append((item_id, s, entry.raw_response))
        results[item_id] = [None] * cfg.n_samples

    if missing and replay:
        item_id = next(iter(missing))
        raise ReplayCacheMiss(
            f"{sum(len(v) for v in missing.values())} samples absent from cache "
            f"(first: item={item_id!r} sample={missing[item_id][0][0]}); "
            f"replay mode refuses network calls"
        )

    outcomes: dict[str, tuple[LabelValue | None, str | None]] = {}

    def outcome(raw: str) -> tuple[LabelValue | None, str | None]:
        """(label, failure reason) of one response text; parse_response is pure."""
        known = outcomes.get(raw)
        if known is None:
            parsed = parse_response(raw, cfg.task)
            known = outcomes[raw] = (
                (parsed, None) if isinstance(parsed, LabelValue) else (None, parsed.reason)
            )
        return known

    abort = threading.Event()

    def fetch(item_id: str, wanted: list[tuple[int, str]]):
        batches = [wanted] if endpoint.supports_n else [[w] for w in wanted]
        fetched: list[SampleResult] = []
        for batch in batches:
            payload = {
                "model": endpoint.name,
                "messages": prompts[item_id],
                "temperature": cfg.temperature,
                "n": len(batch),
            }
            try:
                resp = _call_with_retries(transport, payload, endpoint.retry, abort)
                texts = _choice_texts(resp, len(batch))
            except _Aborted:
                break  # annotate is raising already; these results are never read
            except TransportError as exc:
                fetched += [
                    SampleResult(sample_index=s, raw="", label=None,
                                 failure=f"transport: {exc}", from_cache=False)
                    for s, _ in wanted[len(fetched):]
                ]
                break
            except BaseException:  # AuthError, or anything else that ends the run
                abort.set()
                raise
            entries = []
            for (s, key), text in zip(batch, texts):
                label, failure = outcome(text)
                entries.append(CacheEntry(
                    key=key,
                    model=endpoint.name,
                    temperature=cfg.temperature,
                    sample_index=s,
                    raw_response=text,
                    parsed=tuple(label.to_names(cfg.task)) if label is not None else None,
                    failure=failure,
                    created=_now(),
                ))
                fetched.append(SampleResult(
                    sample_index=s, raw=text, label=label, failure=failure, from_cache=False,
                ))
            cache.put(*entries)
        return item_id, fetched

    pool, futures = None, []
    try:
        if missing:
            if transport is None:
                transport = HttpTransport(endpoint)
            pool = ThreadPoolExecutor(max_workers=endpoint.max_in_flight)
            futures = [pool.submit(fetch, item_id, missing[item_id]) for item_id in missing]
        for item_id, s, raw in hits:
            label, failure = outcome(raw)
            results[item_id][s] = SampleResult(
                sample_index=s, raw=raw, label=label, failure=failure, from_cache=True,
            )
        for future in as_completed(futures):
            item_id, fetched = future.result()
            for sample in fetched:
                results[item_id][sample.sample_index] = sample
    except BaseException:
        abort.set()
        raise
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if isinstance(transport, HttpTransport):
            transport.close()

    return [
        ItemAnnotation(item_id=item_id, samples=tuple(samples))
        for item_id, samples in results.items()
    ]


def annotations_to_dataset(
    annotations: Sequence[ItemAnnotation], model_name: str, spec: TaskSpec
):
    """Successful samples as a Dataset (run = sample index) plus a failure list."""
    source = SourceId(role=Role.MODEL, name=model_name)
    rows, failures = [], []
    for ann in annotations:
        for sample in ann.samples:
            if sample.label is not None:
                rows.append((ann.item_id, source, sample.label, sample.sample_index))
            else:
                failures.append({
                    "item_id": ann.item_id,
                    "sample_index": sample.sample_index,
                    "reason": sample.failure or "unparseable",
                    "raw_response": sample.raw,
                })
    return Dataset.from_rows(spec, rows), failures


# the keys an endpoint or prompt config may hold; any other is an error, so a
# misspelt field is never silently left at its default
_ENDPOINT_KEYS = frozenset({"name", "base_url", "api_key_env", "max_in_flight", "timeout",
                            "supports_n", "retry"})
_RETRY_KEYS = frozenset({"max_attempts", "backoff"})
_PROMPT_KEYS = frozenset({"guideline_text", "guideline_file", "strategy", "placement",
                          "persona_text", "temperature", "n_samples"})


def _check_keys(obj, known: frozenset, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"bad {what}: expected a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValidationError(f"bad {what}: unknown keys {unknown}; "
                              f"expected some of {sorted(known)}")


def load_endpoint(path) -> ModelEndpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    _check_keys(obj, _ENDPOINT_KEYS, "endpoint config")
    retry = obj.get("retry", {})
    _check_keys(retry, _RETRY_KEYS, "endpoint config retry")
    supports_n = obj.get("supports_n", True)
    if not isinstance(supports_n, bool):
        raise ValidationError(
            f"bad endpoint config: supports_n must be true or false, got {supports_n!r}")
    try:
        return ModelEndpoint(
            name=obj["name"],
            base_url=obj["base_url"],
            api_key_env=obj["api_key_env"],
            max_in_flight=int(obj.get("max_in_flight", 4)),
            timeout=float(obj.get("timeout", 60.0)),
            supports_n=supports_n,
            retry=RetryPolicy(
                max_attempts=int(retry.get("max_attempts", 3)),
                backoff=tuple(retry.get("backoff", (1.0, 2.0, 4.0))),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad endpoint config: {exc}") from exc


def load_prompt_config(path, spec: TaskSpec) -> PromptConfig:
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    _check_keys(obj, _PROMPT_KEYS, "prompt config")
    guideline = obj.get("guideline_text")
    if guideline is None and "guideline_file" in obj:
        gpath = os.path.join(os.path.dirname(os.path.abspath(path)), obj["guideline_file"])
        with open(gpath, encoding="utf-8") as fh:
            guideline = fh.read()
    if guideline is None:
        raise ValidationError(f"{path}: needs guideline_text or guideline_file")
    try:
        return PromptConfig(
            task=spec,
            guideline_text=guideline,
            strategy=Strategy(obj.get("strategy", "base")),
            placement=Placement(obj.get("placement", "system")),
            persona_text=obj.get("persona_text"),
            temperature=float(obj.get("temperature", 1.0)),
            n_samples=int(obj.get("n_samples", 5)),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad prompt config: {exc}") from exc
