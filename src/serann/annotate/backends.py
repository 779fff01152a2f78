"""Chat-completion backends: a rate-limited HTTP client with retry and
backoff, plus deterministic mock policies for offline runs and tests.

The wire protocol is a JSON POST of {model, temperature, messages} with
system and user messages; the reply is read from the first choice's message
content. The API key comes from the environment variable named in the
config and is never logged. ``requests`` is imported on the first HTTP
request, so a mock or cache-only run never loads it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol, Sequence

from ..corpus import LABELS, UtteranceRecord
from ..synthetic import KEYWORD_LEXICON


class BackendError(RuntimeError):
    pass


class AuthenticationError(BackendError):
    pass


class RequestTimeoutError(BackendError):
    pass


class RetriesExhaustedError(BackendError):
    pass


@dataclass(frozen=True)
class CompletionRequest:
    system: str
    user: str


class Backend(Protocol):
    backend_id: str

    def complete(self, request: CompletionRequest) -> str: ...


@dataclass
class BackendConfig:
    endpoint: str
    model: str
    api_key_env: str = "SERANN_API_KEY"
    timeout_s: float = 30.0
    max_retries: int = 3
    requests_per_minute: int = 60
    temperature: float = 0.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.requests_per_minute <= 0:
            raise ValueError("requests_per_minute must be positive")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout_s must be a positive finite number, got {self.timeout_s}")
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be a finite number, got {self.temperature}")


Transport = Callable[[str, dict, Mapping[str, str], float], tuple[int, str]]


def _requests_transport(url: str, payload: dict, headers: Mapping[str, str], timeout: float):
    import requests

    try:
        response = requests.post(url, json=payload, headers=dict(headers), timeout=timeout)
    except requests.Timeout as exc:
        raise RequestTimeoutError(f"request to {url} timed out after {timeout}s") from exc
    except requests.RequestException as exc:
        raise BackendError(f"request to {url} failed: {exc}") from exc
    return response.status_code, response.text


class ChatCompletionBackend:
    """HTTP backend with exponential backoff (2 s base) on 429/5xx/timeouts
    and a minimum spacing between request starts from the rpm cap."""

    def __init__(
        self,
        config: BackendConfig,
        transport: Transport | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self.backend_id = f"http:{config.model}@t{config.temperature}"
        self._transport = transport or _requests_transport
        self._sleep = sleeper
        self._clock = clock
        self._lock = threading.Lock()
        self._last_start: float | None = None

    def _throttle(self) -> None:
        interval = 60.0 / self.config.requests_per_minute
        with self._lock:
            now = self._clock()
            if self._last_start is not None:
                wait = self._last_start + interval - now
                if wait > 0:
                    self._sleep(wait)
                    now = self._clock()
            self._last_start = now

    def complete(self, request: CompletionRequest) -> str:
        cfg = self.config
        api_key = os.environ.get(cfg.api_key_env)
        if not api_key:
            raise AuthenticationError(
                f"environment variable {cfg.api_key_env} is not set"
            )
        payload = {
            "model": cfg.model,
            "temperature": cfg.temperature,
            "messages": [
                {"role": "system", "content": request.system},
                {"role": "user", "content": request.user},
            ],
        }
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        last_failure = ""
        timed_out = False
        for attempt in range(cfg.max_retries + 1):
            if attempt > 0:
                self._sleep(2.0 * (2 ** (attempt - 1)))
            self._throttle()
            try:
                status, body = self._transport(cfg.endpoint, payload, headers, cfg.timeout_s)
            except RequestTimeoutError as exc:
                last_failure = str(exc)
                timed_out = True
                continue
            if status in (401, 403):
                raise AuthenticationError(f"backend rejected credentials (HTTP {status})")
            if status == 429 or status >= 500:
                last_failure = f"HTTP {status}"
                timed_out = False
                continue
            if status != 200:
                raise BackendError(f"backend returned HTTP {status}: {body[:200]}")
            try:
                doc = json.loads(body)
                return doc["choices"][0]["message"]["content"]
            except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion response: {exc}") from exc
        if timed_out:
            raise RequestTimeoutError(
                f"no response after {cfg.max_retries + 1} attempts: {last_failure}"
            )
        raise RetriesExhaustedError(
            f"transient failures exhausted {cfg.max_retries} retries: {last_failure}"
        )


class MockBackend:
    """Offline stand-in with deterministic reply policies."""

    def __init__(self, policy: str, reply: Callable[[CompletionRequest], str]):
        self.backend_id = f"mock:{policy}"
        self._reply = reply

    def complete(self, request: CompletionRequest) -> str:
        return self._reply(request)


def _last_transcript(user: str) -> str:
    """The text of the prompt's last ``Transcript: "..."`` line (the
    target's, after any exemplars), without the template's pair of quotes."""
    line = ""
    for candidate in user.splitlines():
        if candidate.startswith("Transcript:"):
            line = candidate
    text = line.partition(":")[2].strip()
    if len(text) >= 2 and text[0] == text[-1] == '"':
        text = text[1:-1]
    return text


def mock_backend(
    policy: str,
    records: Sequence[UtteranceRecord] | None = None,
    seed: int = 0,
    label: str | None = None,
) -> MockBackend:
    """Build a mock: ``oracle`` answers the gold label of the records whose
    transcript is the prompt's target transcript (it needs gold-labelled
    ``records``), ``random`` hashes (seed, prompt) to a uniform label,
    ``fixed`` always answers ``label``, ``keyword`` matches the target
    transcript against a lexicon and falls back to neutral."""
    if policy == "oracle":
        gold: dict[str, str] = {}
        for record in records or ():
            if not record.gold_label:
                continue
            known = gold.setdefault(record.transcript, record.gold_label)
            if known != record.gold_label:
                raise ValueError(
                    f"oracle cannot answer transcript {record.transcript!r}: "
                    f"its records are labelled {known!r} and {record.gold_label!r}"
                )
        if not gold:
            raise ValueError("oracle policy requires gold labels")

        def reply(request: CompletionRequest) -> str:
            transcript = _last_transcript(request.user)
            try:
                return gold[transcript]
            except KeyError:
                raise ValueError(
                    f"oracle has no gold label for transcript {transcript!r}"
                ) from None

        return MockBackend("oracle", reply)

    if policy == "random":
        def reply(request: CompletionRequest) -> str:
            digest = hashlib.sha256(f"{seed}:{request.user}".encode("utf-8")).digest()
            return LABELS[int.from_bytes(digest[:8], "little") % len(LABELS)]

        return MockBackend(f"random-{seed}", reply)

    if policy == "fixed":
        if label not in LABELS:
            raise ValueError(f"fixed policy needs a label from {LABELS}, got {label!r}")
        return MockBackend(f"fixed-{label}", lambda request: label)

    if policy == "keyword":
        def reply(request: CompletionRequest) -> str:
            transcript = _last_transcript(request.user).lower()
            for emotion in LABELS:
                for keyword in KEYWORD_LEXICON.get(emotion, ()):
                    if keyword in transcript:
                        return emotion
            return "neutral"

        return MockBackend("keyword", reply)

    raise ValueError(f"unknown mock policy {policy!r}")
