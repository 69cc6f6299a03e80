"""LLM annotation gateway: prompt assembly, transport, response parsing, and a
replayable response cache.

Prompts combine three strategies (base, persona, chain-of-thought) with two
guideline placements (system or user message); the guideline text is inserted
verbatim, never rewritten.  Every raw model response is appended to a JSONL
cache as soon as it arrives, keyed by a digest of (model, messages,
temperature, sample index), so a run can be replayed bit-for-bit later without
network access: with SILICON_REPLAY=1 (or replay=True) the gateway answers from
the cache alone and a missing key is an error rather than a network call.
annotate's unit of work is the distinct prompt, which is what a key names:
items that share a text share one fetch and its samples.

annotate runs one worker thread per in-flight slot.  Requests go out through
the standard library's http.client, one kept-alive connection per worker (see
HttpTransport).
"""

from __future__ import annotations

import base64
import functools
import hashlib
import http.client
import json
import math
import operator
import os
import re
import selectors
import ssl
import threading
import urllib.request
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from json.decoder import scanstring
from typing import Callable, Mapping, Sequence
from urllib.parse import unquote, urlsplit

try:
    import fcntl
except ImportError:  # no flock (Windows): appends from several processes are not serialized
    fcntl = None

from .core import LabelValue, Role, SiliconError, SourceId, TaskKind, TaskSpec, ValidationError
from .core import (_JSONL_ENCODER, _TAIL_MEMO_SIZE, Dataset, _decode_line, _json_object,
                   _json_value, _now, _open_text, _read_json)

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
# the first line of every response cache
_HEADER = json.dumps({"cache_format": 1, "digest": _DIGEST}, sort_keys=True)


class GatewayError(SiliconError):
    """Gateway failure (transport, auth, replay miss)."""


class TransportError(GatewayError):
    """A failed request.  retryable says whether sending it again may succeed;
    retry_after is the server's minimum wait in seconds before doing so, if given.
    A retry_after past threading.TIMEOUT_MAX, the longest wait a thread can
    make, leaves the error non-retryable.
    """

    def __init__(self, message: str, retryable: bool = True, retry_after: float | None = None):
        super().__init__(message)
        self.retryable = retryable and (retry_after is None
                                        or retry_after <= threading.TIMEOUT_MAX)
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
        # a wait is one Event.wait, which takes at most threading.TIMEOUT_MAX
        if not all(0 <= b <= threading.TIMEOUT_MAX for b in self.backoff):  # also NaN
            raise ValidationError(
                f"backoff must be numbers of seconds from 0 to {threading.TIMEOUT_MAX:g}, "
                f"got {list(self.backoff)}")


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
        if type(self.name) is not str:  # each cache entry's model: refused before a paid request
            raise ValidationError(f"name must be a string, not {type(self.name).__name__}")
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
        if type(self.temperature) not in (float, int):  # a cache line's: refused before a request
            raise ValidationError(
                f"temperature must be a number, not {type(self.temperature).__name__}")
        if not 0 <= self.temperature < math.inf:  # no request body can carry NaN or inf
            raise ValidationError(f"temperature must be >= 0 and finite, got {self.temperature}")


@functools.lru_cache(maxsize=None)
def _template(name: str) -> str:
    """A bundled prompt template, read once per process."""
    return (resources.files("silicon.templates") / name).read_text(encoding="utf-8").rstrip("\n")


def assemble_prompt(cfg: PromptConfig, item_text: str) -> list[dict[str, str]]:
    """Deterministic chat messages for one item; the item changes only the
    last message's content.

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
_encode_ascii = json.encoder.encode_basestring_ascii  # how _KEY_ENCODER writes a str


def _content_hasher(model: str, messages: Sequence[Mapping[str, str]]):
    """content -> sha256 state after the key JSON of `messages`, with `content`
    as the last message's content, up to and including `"sample_index":`.

    With sorted keys the key JSON reads {"messages":..,"model":..,
    "sample_index":..,"temperature":..}, so only _key_tail depends on the
    sample.  The last message reads {"content":C,"role":..}, so only C
    depends on the content: the JSON before C is hashed once, and each call
    hashes C, escaped as _KEY_ENCODER escapes a str, and the JSON after it.
    An empty list has no C, and every content gives its one state.
    """
    shown = [{"role": m["role"], "content": m["content"]} for m in messages]
    if shown:
        shown[-1]["content"] = ""
    head = _KEY_ENCODER.encode({"messages": shown, "model": model})[:-1] + ',"sample_index":'
    if not shown:
        state = hashlib.sha256(head.encode("ascii"))
        return lambda content: state.copy()
    # with every '"' inside a string escaped, this text marks only the last message's content
    cut = head.rindex('{"content":""') + len('{"content":')
    before = hashlib.sha256(head[:cut].encode("ascii"))
    after = head[cut + 2:].encode("ascii")

    def content_hash(content: str):
        digest = before.copy()
        digest.update(_encode_ascii(content).encode("ascii"))
        digest.update(after)
        return digest
    return content_hash


def _key_tail(sample_index: int, temperature: float) -> bytes:
    return (f"{_KEY_ENCODER.encode(sample_index)},"
            f'"temperature":{_KEY_ENCODER.encode(temperature)}}}').encode("ascii")


def cache_key(model: str, messages: Sequence[Mapping[str, str]], temperature: float,
              sample_index: int) -> str:
    """Digest identifying one sample of one prompt; stable across runs and machines.

    It is the sha256 of json.dumps({"model", "messages", "temperature",
    "sample_index"}, sort_keys=True, ensure_ascii=True, separators=(",", ":")),
    hashed by the one hasher annotate uses.
    """
    digest = _content_hasher(model, messages)(messages[-1]["content"] if messages else "")
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


# The type of each CacheEntry field in a cache line, in field order.  A line
# may leave out parsed and failure (null) and created ("").
_ENTRY_KINDS = {"key": str, "model": str, "temperature": float, "sample_index": int,
                "raw_response": str, "parsed": list, "failure": str, "created": str}
_ENTRY_DEFAULTS = {"parsed": None, "failure": None, "created": ""}
_entry_values = operator.itemgetter(*_ENTRY_KINDS)
_entry_fields = operator.attrgetter(*_ENTRY_KINDS)  # a CacheEntry's, in the same order
_STR = {str}
_encode_str = json.encoder.encode_basestring  # how _JSONL_ENCODER writes a str


def _check_entry(values) -> float:
    """The temperature, as a float, of cache entry fields `values` (_ENTRY_KINDS order) that
    a line may hold; else a TypeError or ValueError naming a field, or an OverflowError."""
    key, model, temperature, index, raw, parsed, failure, created = values
    if not (type(key) is str and type(model) is str and type(raw) is str
            and type(created) is str and type(temperature) in (float, int)
            and type(index) is int and (failure is None or type(failure) is str)
            and (parsed is None or type(parsed) in (list, tuple)
                 and {*map(type, parsed)} <= _STR)):
        for (name, kind), value in zip(_ENTRY_KINDS.items(), values):
            if not (name == "parsed" and type(value) is tuple):  # a CacheEntry's parsed
                _json_value(value, kind, name, null=name in ("parsed", "failure"))
        for label in parsed:
            _json_value(label, str, "parsed")
    return float(temperature)


def _entry_line(entry: CacheEntry) -> str:
    """The cache line of an `entry` _check_entry accepts, _JSONL_ENCODER.encode(
    entry.to_json()) + "\n", joined from the JSON text of each field in sorted-key
    order.  A NaN or infinite temperature reads NaN, Infinity or -Infinity, as the
    encoder writes it and the loader reads it back."""
    temperature, parsed, failure = entry.temperature, entry.parsed, entry.failure
    if not math.isfinite(temperature):
        temperature = _JSONL_ENCODER.encode(temperature)
    names = "null" if parsed is None else "[" + ", ".join(map(_encode_str, parsed)) + "]"
    return (f'{{"created": {_encode_str(entry.created)}, "failure": '
            f'{"null" if failure is None else _encode_str(failure)}, '
            f'"key": {_encode_str(entry.key)}, "model": {_encode_str(entry.model)}, '
            f'"parsed": {names}, '
            f'"raw_response": {_encode_str(entry.raw_response)}, '
            f'"sample_index": {entry.sample_index!r}, "temperature": {temperature}}}\n')


_O_BINARY = getattr(os, "O_BINARY", 0)  # Windows: no newline translation
# How every _entry_line starts, and what follows the failure member; _scan reads
# the created and key string tokens of such a line on their own.
_CREATED_FIRST = b'{"created": "'
_KEY_NEXT = ', "key": "'


class AnnotationCache:
    """Append-only JSONL response cache.

    The first line is a header naming the digest algorithm; each following
    line is one CacheEntry.  Existing entries are never rewritten, and a key
    is written once (a file that holds one twice keeps the first occurrence).

    put() appends under one lock per cache and, across processes, an
    exclusive flock on the file (where the platform has one), with one raw
    open, fstat, write and close.  Under the flock it compares the file's
    size with where this cache's own last load or append ended.  Unless they
    match, another writer has been at the file since: put reads the bytes
    after that point and checks each line as loading does.  It adds the
    entries found there, so get() serves them, and writes only the entries
    whose keys are still new.  It writes a header if the file has none, and
    a newline first if the file does not end with one.

    A final line that has no newline and does not decode is what a kill
    mid-append leaves behind.  Loading skips it and keeps it in
    dropped_tail.  put cuts such a line off the file before it appends,
    whether it was there at load or another writer left it since.  Any other
    undecodable line is an error naming its line number.
    """

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        self._texts: dict[str, str] = {}     # one copy of each field text _scan has read
        self._header_written = False         # the file is known to start with a header
        self.dropped_tail = b""
        self._end = 0       # file offset after the last line read or written that has a newline
        self._lines = 0     # the number of lines before _end
        if os.path.exists(self.path):
            self._load()

    def _load(self):
        with open(self.path, "rb") as fh:
            self.dropped_tail = self._scan(fh)

    def _scan(self, fh) -> bytes:
        """Add the entries of binary file fh, read from offset _end on (the
        first occurrence of a key wins), and move _end and _lines past its
        last line that has a newline.  Returns the line after that one if it
        is a torn tail (it does not decode), else b"".

        Each line is decoded at most once, by core._decode_line.  Equal model,
        raw_response, failure and created texts are kept as one str, shared
        by every entry this cache reads them in.

        Lines that differ only in their key and created texts are decoded
        once.  A line that starts as _entry_line writes one, `{"created": "`,
        has its created token, and the key token after the first `, "key": "`,
        read with json's own scanner (as strict as json.loads).  The text
        between the two tokens and the text after the key, its newline
        included, are looked up in a memo of the other fields of lines already
        read.  A hit adds an entry with those fields and its own parsed tuple,
        without decoding the line: swapping one valid JSON string token for
        another leaves a line valid and every other member unchanged.  A line
        enters the memo only after it decoded and checked cleanly, and only if
        neither text holds `"key"`, `"created"` or a `\\u` escape, so no other
        member can be named key or created (a `\\n` escape may stay).  Every
        other line, and every error, takes the full decode.  The memo holds
        at most core._TAIL_MEMO_SIZE pairs of texts; once it is full and has
        missed more lines than it served, the rest of fh skips it.
        """
        offset, lineno, line = self._end, self._lines, b"\n"
        texts, entries = self._texts, self._entries
        memo: dict | None = {}   # (text between, text after) -> (model, ..., failure)
        served = missed = 0
        for lineno, line in enumerate(fh, start=lineno + 1):
            start, offset = offset, offset + len(line)
            if not line.strip():
                continue
            text = between = None
            if memo is not None and line.startswith(_CREATED_FIRST):
                try:
                    text = line.decode("utf-8")
                    created, end = scanstring(text, len(_CREATED_FIRST), True)
                    at = text.index(_KEY_NEXT, end)
                    key, key_end = scanstring(text, at + len(_KEY_NEXT), True)
                except ValueError:
                    pass                  # the full decode words it
                else:
                    between, after = text[end:at], text[key_end:]
                    fields = memo.get((between, after))
                    if fields is not None:
                        model, temperature, index, raw, parsed, failure = fields
                        entries.setdefault(key, CacheEntry(
                            key, model, temperature, index, raw,
                            None if parsed is None else tuple(parsed), failure,
                            texts.setdefault(created, created)))
                        served += 1
                        continue
                    missed += 1
            try:
                obj = _decode_line(line.decode("utf-8") if text is None else text)
            except ValueError as exc:
                if line.endswith(b"\n"):
                    what = "cache entry" if self._header_written else "cache header"
                    raise ValidationError(f"{self.path}:{lineno}: bad {what} ({exc})") from exc
                self._end, self._lines = start, lineno - 1
                return line
            if not self._header_written:
                if json.dumps(obj, sort_keys=True) != _HEADER:
                    raise ValidationError(f"{self.path}: unsupported cache header {obj!r}")
                self._header_written = True
                continue
            try:
                try:  # eight keys that all look up are the fields, as put() writes them
                    if len(obj) != len(_ENTRY_KINDS):
                        raise KeyError
                    values = _entry_values(obj)
                except (KeyError, TypeError):
                    _json_object(obj, _ENTRY_KINDS.keys(), "cache entry")
                    values = _entry_values({**_ENTRY_DEFAULTS, **obj})
                temperature = _check_entry(values)
                key, model, _, index, raw, parsed, failure, created = values
                entry = CacheEntry(key, texts.setdefault(model, model), temperature, index,
                                   texts.setdefault(raw, raw),
                                   None if parsed is None else tuple(parsed),
                                   failure and texts.setdefault(failure, failure),
                                   texts.setdefault(created, created))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{self.path}:{lineno}: bad cache entry ({exc})") from exc
            except ValidationError as exc:  # not an object, or an unknown key
                raise ValidationError(f"{self.path}:{lineno}: {exc}") from exc
            entries.setdefault(key, entry)
            if between is not None:
                if len(memo) < _TAIL_MEMO_SIZE:
                    if not ('"key"' in between or '"created"' in between or "\\u" in between
                            or '"key"' in after or '"created"' in after or "\\u" in after):
                        memo[between, after] = (entry.model, temperature, index,
                                                entry.raw_response, parsed, entry.failure)
                elif missed > served:
                    memo = None
        if line.endswith(b"\n"):
            self._end, self._lines = offset, lineno
        else:
            self._end, self._lines = start, lineno - 1
        return b""

    def _catch_up(self, fd: int, size: int) -> int:
        """Read what other writers left after _end in the file open on fd,
        and cut off a torn tail; returns the file's size after that."""
        if size < self._end:  # replaced or cut outside this protocol: read all of it again
            self._end = self._lines = 0
            self._header_written = False
        with os.fdopen(fd, "rb", closefd=False) as fh:
            fh.seek(self._end)
            tail = self._scan(fh)
        if tail:
            os.ftruncate(fd, self._end)
            self.dropped_tail, size = tail, self._end
        return size

    def __len__(self):
        return len(self._entries)

    def get(self, key: str) -> CacheEntry | None:
        return self._entries.get(key)

    def put(self, *entries: CacheEntry) -> None:
        """Append the entries whose keys are new, with one open of the file.

        An entry no cache line may hold (see _check_entry) is a ValidationError
        naming its field, and nothing is written.  Which keys are new is decided
        once, under the flock after catch-up, and only those entries are encoded.
        """
        for entry in entries:
            try:
                _check_entry(_entry_fields(entry))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{self.path}: bad cache entry, not written ({exc})") from exc
        with self._lock:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND | _O_BINARY, 0o666)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)  # released when the file closes
                size = os.fstat(fd).st_size
                if size != self._end:
                    size = self._catch_up(fd, size)
                new = {}
                for entry in entries:
                    if entry.key not in self._entries:
                        new.setdefault(entry.key, entry)
                if not new:
                    return
                data = b"\n" if size != self._end else b""  # ends in a line that decodes
                if not self._header_written:
                    data += _HEADER.encode() + b"\n"
                data += "".join(map(_entry_line, new.values())).encode("utf-8", "backslashreplace")
                written = 0
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)
            self._end = size + len(data)
            self._lines += data.count(b"\n")
            self._header_written = True
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

    script(messages, call_index, choice_index) -> response text.  calls counts
    the posts made so far, those whose script raised included.  Each post
    takes the next call index once, so all its choices see the same one and
    no two posts share one, whichever threads post.
    """

    def __init__(self, script: Callable[[list, int, int], str]):
        self.script = script
        self.calls = 0
        self._lock = threading.Lock()

    def post(self, payload: dict) -> dict:
        with self._lock:
            call, self.calls = self.calls, self.calls + 1
        n = int(payload.get("n", 1))
        contents = [self.script(payload["messages"], call, i) for i in range(n)]
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
    if not {*map(type, texts)} <= _STR:  # a null content would make an entry put refuses
        raise TransportError("malformed response shape: a choice's content is not a string")
    return texts


def annotate(
    endpoint: ModelEndpoint,
    cfg: PromptConfig,
    items: Sequence[tuple[str, str]],
    cache: AnnotationCache,
    transport=None,
    replay: bool | None = None,
) -> list[ItemAnnotation]:
    """Collect cfg.n_samples labels per (item_id, text), cache-first.

    The unit of work is the distinct prompt.  An item changes only the last
    message's content, so items with one text share one prompt and its cache
    keys: each distinct text is assembled, hashed, looked up and fetched once,
    and every item with it gets that prompt's samples.  The key JSON before
    the last message's content is hashed once per call, and each prompt's
    content once; a sample's key extends that hash with its index and
    temperature.  Cache misses go to the endpoint from min(max_in_flight,
    prompts with a miss) worker threads, started before the cache hits are
    parsed.  Each worker takes the next such prompt, in the order of its first
    item, from one shared iterator until none is left.  The worker that
    receives a response parses it and puts its entries, which share one
    timestamp, in the cache, and takes its next prompt only once they are in
    the file; so at most max_in_flight received responses are unwritten at
    any time, and a response that arrived is kept whatever happens to the
    rest of the run.  Each distinct response text is parsed once per call,
    and results come back in item order.  A sample's from_cache says whether
    its prompt's sample was read from the cache or fetched by this call; an
    item that shares another item's fetch reads False, with the same
    SampleResult.  In replay mode (replay=True or SILICON_REPLAY=1) a miss
    raises ReplayCacheMiss, which counts the missing samples of distinct
    prompts and names the first item whose prompt misses, and no transport
    is ever constructed.  A request whose transport failure survives the
    retry policy marks its samples (and any later ones of its prompt) as
    failures and the run continues.  An authentication error or an interrupt aborts: the
    prompts not yet taken are dropped, a backoff wait ends, no request starts
    after the abort, and the ones in flight are waited for and cached before
    the error is raised.  The connections of an HttpTransport are closed
    before annotate returns.
    """
    if replay is None:
        replay = os.environ.get(REPLAY_ENV, "") == "1"
    ids = [item_id for item_id, _ in items]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate item_ids in annotate input")

    prompts = {text: assemble_prompt(cfg, text) for text in dict.fromkeys(t for _, t in items)}
    content_hash = _content_hasher(endpoint.name, assemble_prompt(cfg, ""))
    tails = [_key_tail(s, cfg.temperature) for s in range(cfg.n_samples)]
    results: dict[str, list[SampleResult | None]] = {}  # text -> its prompt's samples
    hits: list[tuple[str, int, str]] = []
    missing: dict[str, list[tuple[int, str]]] = {}  # text -> [(sample index, key)]
    for text, messages in prompts.items():
        prompt_hash = content_hash(messages[-1]["content"])
        for s, tail in enumerate(tails):
            digest = prompt_hash.copy()
            digest.update(tail)
            key = digest.hexdigest()
            entry = cache.get(key)
            if entry is None:
                missing.setdefault(text, []).append((s, key))
            else:
                hits.append((text, s, entry.raw_response))
        results[text] = [None] * cfg.n_samples

    if missing and replay:
        text = next(iter(missing))
        raise ReplayCacheMiss(
            f"{sum(len(v) for v in missing.values())} samples absent from cache "
            f"(first: item={next(i for i, t in items if t == text)!r} "
            f"sample={missing[text][0][0]}); replay mode refuses network calls"
        )

    outcomes: dict[str, tuple[LabelValue | None, str | None, tuple[str, ...] | None]] = {}

    def outcome(raw: str) -> tuple[LabelValue | None, str | None, tuple[str, ...] | None]:
        """(label, failure reason, label names) of one response text; parse_response is pure."""
        known = outcomes.get(raw)
        if known is None:
            parsed = parse_response(raw, cfg.task)
            known = outcomes[raw] = (
                (parsed, None, tuple(parsed.to_names(cfg.task)))
                if isinstance(parsed, LabelValue) else (None, parsed.reason, None)
            )
        return known

    abort = threading.Event()

    def fetch(item_text: str, wanted: list[tuple[int, str]]) -> None:
        samples = results[item_text]
        batches = [wanted] if endpoint.supports_n else [[w] for w in wanted]
        done = 0
        for batch in batches:
            payload = {
                "model": endpoint.name,
                "messages": prompts[item_text],
                "temperature": cfg.temperature,
                "n": len(batch),
            }
            try:
                resp = _call_with_retries(transport, payload, endpoint.retry, abort)
                texts = _choice_texts(resp, len(batch))
            except _Aborted:
                return  # annotate is raising already; these results are never read
            except TransportError as exc:
                for s, _ in wanted[done:]:
                    samples[s] = SampleResult(sample_index=s, raw="", label=None,
                                              failure=f"transport: {exc}", from_cache=False)
                return
            entries, now = [], _now()
            for (s, key), text in zip(batch, texts):
                label, failure, names = outcome(text)
                entries.append(CacheEntry(
                    key=key,
                    model=endpoint.name,
                    temperature=cfg.temperature,
                    sample_index=s,
                    raw_response=text,
                    parsed=names,
                    failure=failure,
                    created=now,
                ))
                samples[s] = SampleResult(
                    sample_index=s, raw=text, label=label, failure=failure, from_cache=False,
                )
            cache.put(*entries)
            done += len(batch)

    todo = iter(missing.items())  # shared by the workers
    take = threading.Lock()  # one worker at a time advances todo
    errors: list[BaseException] = []

    def work() -> None:
        """Fetch the next prompt with a miss until none is left or the run aborts."""
        try:
            while not abort.is_set():
                with take:
                    prompt = next(todo, None)
                if prompt is None:
                    return
                fetch(*prompt)
        except BaseException as exc:  # AuthError, or anything else that ends the run
            abort.set()
            errors.append(exc)

    workers: list[threading.Thread] = []
    try:
        if missing:
            if transport is None:
                transport = HttpTransport(endpoint)
            for _ in range(min(endpoint.max_in_flight, len(missing))):
                worker = threading.Thread(target=work)
                worker.start()
                workers.append(worker)
        for text, s, raw in hits:
            label, failure, _ = outcome(raw)
            results[text][s] = SampleResult(
                sample_index=s, raw=raw, label=label, failure=failure, from_cache=True,
            )
        for worker in workers:
            worker.join()
        if errors:
            raise errors[0]
    except BaseException:
        abort.set()
        raise
    finally:
        for worker in workers:  # the requests in flight end, and their responses are cached
            worker.join()
        if isinstance(transport, HttpTransport):
            transport.close()

    return [ItemAnnotation(item_id=item_id, samples=tuple(results[text]))
            for item_id, text in items]


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


_ENDPOINT_KEYS = frozenset({"name", "base_url", "api_key_env", "max_in_flight", "timeout",
                            "supports_n", "retry"})
_RETRY_KEYS = frozenset({"max_attempts", "backoff"})
_PROMPT_KEYS = frozenset({"guideline_text", "guideline_file", "strategy", "placement",
                          "persona_text", "temperature", "n_samples"})


def load_endpoint(path) -> ModelEndpoint:
    """The endpoint config at `path`, read as core reads every JSON config."""
    with _read_json(path) as obj:
        _json_object(obj, _ENDPOINT_KEYS, "endpoint config")
        retry = obj.get("retry", {})
        _json_object(retry, _RETRY_KEYS, "endpoint config retry")
        try:
            return ModelEndpoint(
                name=_json_value(obj["name"], str, "name"),
                base_url=_json_value(obj["base_url"], str, "base_url"),
                api_key_env=_json_value(obj["api_key_env"], str, "api_key_env"),
                max_in_flight=_json_value(obj.get("max_in_flight", 4), int, "max_in_flight"),
                timeout=_json_value(obj.get("timeout", 60.0), float, "timeout"),
                supports_n=_json_value(obj.get("supports_n", True), bool, "supports_n"),
                retry=RetryPolicy(
                    max_attempts=_json_value(retry.get("max_attempts", 3), int,
                                             "retry.max_attempts"),
                    backoff=tuple(_json_value(b, float, "retry.backoff") for b in _json_value(
                        retry.get("backoff", [1.0, 2.0, 4.0]), list, "retry.backoff")),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad endpoint config: {exc}") from exc


def load_prompt_config(path, spec: TaskSpec) -> PromptConfig:
    """The prompt config at `path`, read as core reads every JSON config; a
    guideline_file is read relative to it."""
    path = str(path)
    with _read_json(path) as obj:
        _json_object(obj, _PROMPT_KEYS, "prompt config")
        try:
            guideline = _json_value(obj.get("guideline_text"), str, "guideline_text", null=True)
            if guideline is None and "guideline_file" in obj:
                gpath = os.path.join(os.path.dirname(os.path.abspath(path)),
                                     _json_value(obj["guideline_file"], str, "guideline_file"))
                with _open_text(gpath) as fh:
                    guideline = fh.read()
            if guideline is None:
                raise ValidationError("needs guideline_text or guideline_file")
            return PromptConfig(
                task=spec,
                guideline_text=guideline,
                strategy=Strategy(_json_value(obj.get("strategy", "base"), str, "strategy")),
                placement=Placement(_json_value(obj.get("placement", "system"), str,
                                                "placement")),
                persona_text=_json_value(obj.get("persona_text"), str, "persona_text", null=True),
                temperature=_json_value(obj.get("temperature", 1.0), float, "temperature"),
                n_samples=_json_value(obj.get("n_samples", 5), int, "n_samples"),
            )
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad prompt config: {exc}") from exc
