import json
import math
import re
import sys
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serann.annotate import (
    AnnotationCache,
    AnnotationRunError,
    AuthenticationError,
    BackendConfig,
    BackendError,
    ChatCompletionBackend,
    CompletionRequest,
    ContextVariant,
    MissingContextFileError,
    PromptContextError,
    RequestTimeoutError,
    RetriesExhaustedError,
    annotate_corpus,
    build_prompt,
    few_shot_block,
    load_annotations,
    mock_backend,
    parse_label,
    select_few_shot,
    write_annotations,
)
from serann.annotate.backends import _requests_transport
from serann.corpus import LABELS, UNPARSEABLE, UtteranceRecord
from serann.coremath.rng import Rng
from serann.dsp import UtteranceFeatures
from serann.fileio import JsonlError

TEXT = ContextVariant.TEXT_ONLY
FULL = ContextVariant.TEXT_ENERGY_F0_GENDER_CODES


def make_record(uid, transcript="the meeting is at noon", gold="neutral", gender="female"):
    return UtteranceRecord(
        utterance_id=uid,
        audio_path=f"{uid}.wav",
        transcript=transcript,
        speaker_id="spk00",
        gender=gender,
        corpus="synthetic",
        gold_label=gold,
    )


def features_for(records):
    return {r.utterance_id: UtteranceFeatures(0.25, 180.0, r.gender) for r in records}


def codes_for(records):
    return {r.utterance_id: list(range(64)) for r in records}


@pytest.fixture()
def pool():
    labels = list(LABELS) * 5
    return [
        make_record(f"u{i:02d}", transcript=f"sample number {i} about the weather", gold=labels[i])
        for i in range(20)
    ]


class TestVariants:
    def test_parse_canonical_and_alias(self):
        assert ContextVariant.parse("text") is TEXT
        assert ContextVariant.parse("full") is FULL
        assert ContextVariant.parse("text-energy-f0-gender-codes") is FULL
        with pytest.raises(ValueError, match="unknown context variant"):
            ContextVariant.parse("audio")

    def test_requirement_ladder(self):
        assert not TEXT.needs_features
        assert ContextVariant.TEXT_ENERGY_F0.needs_features
        assert not ContextVariant.TEXT_ENERGY_F0.needs_gender
        assert ContextVariant.TEXT_ENERGY_F0_GENDER.needs_gender
        assert FULL.needs_codes


class TestSelectFewShot:
    def test_deterministic_per_seed(self, pool):
        a = select_few_shot(pool, rng=Rng(7))
        b = select_few_shot(pool, rng=Rng(7))
        assert [r.utterance_id for r in a] == [r.utterance_id for r in b]

    def test_ten_distinct_ids(self, pool):
        chosen = select_few_shot(pool, rng=Rng(3))
        ids = [r.utterance_id for r in chosen]
        assert len(ids) == 10 and len(set(ids)) == 10

    def test_population_too_small(self, pool):
        with pytest.raises(ValueError, match="10 required"):
            select_few_shot(pool[:5], rng=Rng(0))

    def test_ten_from_full_size_training_pool(self):
        # pool sized like a real four-class training manifest (5531 records)
        labels = list(LABELS)
        big = [make_record(f"r{i:05d}", gold=labels[i % 4]) for i in range(5531)]
        chosen = select_few_shot(big, rng=Rng(12))
        ids = {r.utterance_id for r in chosen}
        assert len(ids) == 10

    def test_balanced_draw(self, pool):
        chosen = select_few_shot(pool, rng=Rng(1), balanced=True)
        by_label = {label: 0 for label in LABELS}
        for record in chosen:
            by_label[record.gold_label] += 1
        # 10 across 4 classes: 3, 3, 2, 2 in label order
        assert sorted(by_label.values()) == [2, 2, 3, 3]


class TestBuildPrompt:
    def test_text_only_zero_shot(self):
        record = make_record("u1", transcript="please close the door")
        spec = build_prompt(record, TEXT)
        user = spec.user
        assert 'Transcript: "please close the door"' in user
        assert "Average energy" not in user
        assert "Audio codes" not in user
        assert "Examples:" not in user  # zero-shot means an empty exemplar block
        assert "angry, happy, neutral, sad" in spec.system

    def test_few_shot_has_exactly_ten_blocks(self, pool):
        block = few_shot_block(pool[:10], TEXT)
        spec = build_prompt(make_record("t"), TEXT, few_shot=block)
        assert spec.user.count("Label:") == 11  # 10 exemplars + target stub
        assert block.count("Transcript:") == 10

    def test_partial_few_shot_rejected(self, pool):
        with pytest.raises(ValueError, match="must contain 10"):
            few_shot_block(pool[:3], TEXT)

    def test_full_variant_has_64_code_tokens(self):
        record = make_record("u1")
        spec = build_prompt(
            record, FULL, features=UtteranceFeatures(0.5, 200.0, "female"),
            codes=list(range(64)),
        )
        user = spec.user
        code_line = next(line for line in user.splitlines() if line.startswith("Audio codes:"))
        assert len(code_line.split()[2:]) == 64
        assert "Average energy (0-1 RMS): 0.500" in user
        assert "Average pitch: 200 Hz" in user
        assert "Speaker gender: female" in user

    def test_missing_feature_names_field(self):
        with pytest.raises(PromptContextError, match="avg_energy"):
            build_prompt(make_record("u1"), ContextVariant.TEXT_ENERGY_F0)

    def test_wrong_code_count_rejected(self):
        with pytest.raises(PromptContextError, match="64"):
            build_prompt(
                make_record("u1"), FULL,
                features=UtteranceFeatures(0.5, 200.0, "male"), codes=[1, 2, 3],
            )

    def test_gold_label_never_in_target_block(self, pool):
        record = make_record("u1", transcript="the shipment arrives on tuesday", gold="angry")
        spec = build_prompt(record, TEXT, few_shot=few_shot_block(pool[:10], TEXT))
        target = spec.user.split("Now classify this utterance.")[1]
        assert "angry" not in target

    def test_serialization_is_byte_deterministic(self, pool):
        def build():
            block = few_shot_block(
                select_few_shot(pool, rng=Rng(7)), FULL, features_for(pool), codes_for(pool)
            )
            spec = build_prompt(
                make_record("t"), FULL,
                few_shot=block,
                features=UtteranceFeatures(0.123456, 207.3, "male"),
                codes=list(range(64)),
            )
            return spec.prompt_text(), spec.prompt_hash()

        (text_a, hash_a), (text_b, hash_b) = build(), build()
        assert text_a.encode() == text_b.encode()
        assert hash_a == hash_b


# SHA-256 of each prompt as template v1 serializes it. The hashes are the
# cache keys, so a change here orphans every cache written before it.
PINNED_HASHES = {
    ("text", "zero"): "ff4b0d1fcc7243ad4acf4ec77c72607f406585dc2de0862ec4da1e9556de999c",
    ("text", "few"): "e134b422a6506200c1d5670532e4422d896fc45569ca18474034a4070eb0026c",
    ("text-energy-f0", "zero"): "49acf6bba00b525e7dc6d2c7d90b36f932f3e6b4179f6420a0e79db948d5517d",
    ("text-energy-f0", "few"): "a9e8216f0180681713753d86441223c6d4d48df922ec14e2393fced53b0388b4",
    ("text-energy-f0-gender", "zero"):
        "409700da23e9f41f5aaf9d6b203b37b6a502db0d822af2697028f224f06ca730",
    ("text-energy-f0-gender", "few"):
        "2e5dfa4c687b7b0bb291a9eb98b8ba7c14ea867f39397137e3c5a3b70b6141fc",
    ("text-energy-f0-gender-codes", "zero"):
        "3b7122d509350574ec78755173c5c9cef863d0ed547dc100cbd1366e61a9bcde",
    ("text-energy-f0-gender-codes", "few"):
        "45b4a3a674369d05b5376680829414a0f29f856f661e9d293eaa091e575516ec",
}


class TestPinnedPromptHashes:
    """Zero-shot: the target's features say gender "unknown", so the prompt
    states the manifest's. Few-shot: the target's features name a gender
    other than its manifest's, and so does every exemplar's; the target
    states its features' gender, each exemplar its manifest's."""

    exemplars = [
        make_record(f"x{i}", transcript=f"exemplar {i} says the bus is late",
                    gold=LABELS[i % 4], gender="female" if i % 2 else "male")
        for i in range(10)
    ]
    exemplar_features = {
        r.utterance_id: UtteranceFeatures(
            0.05 * i + 0.0125, 110.5 + 17.25 * i, "male" if r.gender == "female" else "female"
        )
        for i, r in enumerate(exemplars)
    }
    exemplar_codes = {
        r.utterance_id: [(37 * i + 5 * j) % 512 for j in range(64)]
        for i, r in enumerate(exemplars)
    }
    codes = [(11 * j) % 512 for j in range(64)]

    @pytest.mark.parametrize("variant", list(ContextVariant), ids=lambda v: v.value)
    def test_zero_shot(self, variant):
        target = make_record("t0", transcript='she said "no" twice', gold="angry")
        spec = build_prompt(target, variant,
                            features=UtteranceFeatures(0.123456, 207.5, "unknown"), codes=self.codes)
        assert spec.prompt_hash() == PINNED_HASHES[variant.value, "zero"]
        assert ("Speaker gender: female" in spec.user) == variant.needs_gender

    @pytest.mark.parametrize("variant", list(ContextVariant), ids=lambda v: v.value)
    def test_few_shot(self, variant):
        target = make_record("t1", transcript="what a delightful morning", gold="happy")
        block = few_shot_block(self.exemplars, variant, self.exemplar_features,
                               self.exemplar_codes)
        spec = build_prompt(target, variant, block,
                            features=UtteranceFeatures(0.9995, 94.49, "male"), codes=self.codes)
        assert spec.prompt_hash() == PINNED_HASHES[variant.value, "few"]
        if variant.needs_gender:
            stated = re.findall(r"Speaker gender: (\w+)", spec.user)
            assert stated == [r.gender for r in self.exemplars] + ["male"]

    def test_through_annotate_corpus(self, pool):
        """The seeded exemplar draw as well as the rendering."""
        features = {r.utterance_id: UtteranceFeatures(0.25, 180.0, "unknown" if i % 2 else "male")
                    for i, r in enumerate(pool)}
        results, _ = annotate_corpus(
            pool[:2], FULL, mock_backend("keyword"), shots="few", seed=3,
            features_by_id=features, codes_by_id=codes_for(pool), few_shot_pool=pool,
        )
        assert [r.prompt_hash for r in results] == [
            "79e8c747c18f0ed5c8ee14eb78c9390f9005b23a52e5d7d1fd981ede4686ed14",
            "84f39561eaf83ae3a2f3bc5533b32a25059d1ec8a775890aea8d7cf1c06e58b6",
        ]


class TestParseLabel:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("The emotion is Happy.", "happy"),
            ("Could be sad or angry", UNPARSEABLE),
            ("Joy", "happy"),
            ("SADNESS", "sad"),
            ("anger", "angry"),
            ("neutral", "neutral"),
            ("", UNPARSEABLE),
            ("nothing relevant here", UNPARSEABLE),
            ("sad, sad, and sadness again", "sad"),
            ("unhappy", UNPARSEABLE),  # word boundaries, not substrings
        ],
    )
    def test_examples(self, raw, expected):
        assert parse_label(raw) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_total_over_arbitrary_strings(self, raw):
        assert parse_label(raw) in set(LABELS) | {UNPARSEABLE}


class FakeTransport:
    """Scripted (status, body) responses; records every payload."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, url, payload, headers, timeout):
        self.calls.append((url, payload, headers, timeout))
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_body(content):
    import json

    return 200, json.dumps({"choices": [{"message": {"content": content}}]})


def http_backend(script, **overrides):
    config = BackendConfig(
        endpoint="https://llm.example/v1/chat", model="test-model",
        requests_per_minute=100000, **overrides,
    )
    transport = FakeTransport(script)
    backend = ChatCompletionBackend(config, transport=transport, sleeper=lambda s: None)
    return backend, transport


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("SERANN_API_KEY", "test-key-not-a-secret")


class TestHttpBackend:
    def test_payload_shape(self):
        backend, transport = http_backend([ok_body("happy")])
        backend.complete(CompletionRequest(system="sys", user="usr"))
        _, payload, headers, timeout = transport.calls[0]
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.0
        assert payload["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "usr"},
        ]
        assert headers["Authorization"] == "Bearer test-key-not-a-secret"

    def test_backend_id_names_model_and_temperature(self):
        backend, _ = http_backend([], temperature=0.7)
        assert backend.backend_id == "http:test-model@t0.7"

    def test_429_then_success_retries_once(self):
        backend, transport = http_backend([(429, "slow down"), ok_body("neutral")])
        reply = backend.complete(CompletionRequest("s", "u"))
        assert reply == "neutral"
        assert len(transport.calls) == 2

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("SERANN_API_KEY")
        backend, _ = http_backend([ok_body("x")])
        with pytest.raises(AuthenticationError, match="SERANN_API_KEY"):
            backend.complete(CompletionRequest("s", "u"))

    def test_401_is_auth_error_without_retry(self):
        backend, transport = http_backend([(401, "no")])
        with pytest.raises(AuthenticationError):
            backend.complete(CompletionRequest("s", "u"))
        assert len(transport.calls) == 1

    def test_retries_exhausted(self):
        backend, transport = http_backend([(500, "boom")] * 4)
        with pytest.raises(RetriesExhaustedError):
            backend.complete(CompletionRequest("s", "u"))
        assert len(transport.calls) == 4  # initial + 3 retries

    def test_timeout_surfaces_distinctly(self):
        backend, _ = http_backend([RequestTimeoutError("slow")] * 4)
        with pytest.raises(RequestTimeoutError):
            backend.complete(CompletionRequest("s", "u"))

    def test_rate_limit_spaces_request_starts(self):
        clock = {"now": 0.0}
        sleeps = []

        def fake_clock():
            return clock["now"]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        config = BackendConfig(endpoint="https://x/y", model="m", requests_per_minute=60)
        transport = FakeTransport([ok_body("a"), ok_body("b")])
        backend = ChatCompletionBackend(config, transport=transport, sleeper=fake_sleep, clock=fake_clock)
        backend.complete(CompletionRequest("s", "u1"))
        backend.complete(CompletionRequest("s", "u2"))
        assert sleeps and abs(sleeps[0] - 1.0) < 1e-9  # 60 rpm -> 1 s spacing

    @pytest.mark.parametrize("timeout", [0.0, -1.0, math.nan, math.inf])
    def test_config_refuses_a_timeout_that_is_not_positive_and_finite(self, timeout):
        with pytest.raises(ValueError, match="timeout_s must be a positive finite number"):
            BackendConfig(endpoint="https://x/y", model="m", timeout_s=timeout)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
    def test_config_refuses_a_temperature_that_is_not_finite(self, temperature):
        with pytest.raises(ValueError, match="temperature must be a finite number"):
            BackendConfig(endpoint="https://x/y", model="m", temperature=temperature)


@pytest.fixture
def stub_requests(monkeypatch):
    """A ``requests`` stand-in whose ``post`` records its call and returns or
    raises ``stub.outcome``."""
    stub = types.ModuleType("requests")

    class RequestException(OSError):
        pass

    class Timeout(RequestException):
        pass

    def post(url, **kwargs):
        stub.calls.append((url, kwargs))
        if isinstance(stub.outcome, Exception):
            raise stub.outcome
        return stub.outcome

    stub.RequestException, stub.Timeout, stub.post, stub.calls = RequestException, Timeout, post, []
    monkeypatch.setitem(sys.modules, "requests", stub)
    return stub


class TestRequestsTransport:
    def test_returns_status_and_text(self, stub_requests):
        stub_requests.outcome = types.SimpleNamespace(status_code=503, text="busy")
        assert _requests_transport("https://x/y", {"a": 1}, {"H": "v"}, 5.0) == (503, "busy")
        assert stub_requests.calls == [
            ("https://x/y", {"json": {"a": 1}, "headers": {"H": "v"}, "timeout": 5.0})]

    def test_timeout_is_a_request_timeout_error(self, stub_requests):
        stub_requests.outcome = stub_requests.Timeout("read timed out")
        with pytest.raises(RequestTimeoutError, match="timed out after 5.0s"):
            _requests_transport("https://x/y", {}, {}, 5.0)

    def test_other_request_failure_is_a_backend_error(self, stub_requests):
        stub_requests.outcome = stub_requests.RequestException("connection refused")
        with pytest.raises(BackendError, match="failed: connection refused") as raised:
            _requests_transport("https://x/y", {}, {}, 5.0)
        assert not isinstance(raised.value, RequestTimeoutError)

    def test_is_the_http_backend_default(self, stub_requests):
        stub_requests.outcome = types.SimpleNamespace(status_code=200, text=ok_body("sad")[1])
        config = BackendConfig(endpoint="https://x/y", model="m", timeout_s=7.5)
        assert ChatCompletionBackend(config).complete(CompletionRequest("s", "u")) == "sad"
        (url, kwargs), = stub_requests.calls
        assert url == "https://x/y" and kwargs["timeout"] == 7.5


class TestMockBackends:
    def test_oracle_requires_and_uses_gold(self, pool):
        backend = mock_backend("oracle", records=pool)
        few_shot = few_shot_block(pool[10:20], TEXT)
        for record in pool[:4]:  # the target's transcript, not an exemplar's
            spec = build_prompt(record, TEXT, few_shot)
            assert backend.complete(CompletionRequest(spec.system, spec.user)) == record.gold_label
        with pytest.raises(ValueError, match="oracle"):
            mock_backend("oracle")

    def test_oracle_refuses_a_transcript_with_two_gold_labels(self):
        records = [make_record("u0", "I see.", "sad"), make_record("u1", "I see.", "angry")]
        with pytest.raises(ValueError, match=re.escape("'I see.'")):
            mock_backend("oracle", records=records)
        same = [make_record("u0", "I see.", "sad"), make_record("u1", "I see.", "sad")]
        assert mock_backend("oracle", records=same).backend_id == "mock:oracle"

    def test_oracle_keeps_quotes_that_belong_to_the_transcript(self):
        records = [make_record("u0", 'she said "no"', "angry"), make_record("u1", "she said", "sad")]
        backend = mock_backend("oracle", records=records)
        for record in records:
            spec = build_prompt(record, TEXT)
            assert backend.complete(CompletionRequest(spec.system, spec.user)) == record.gold_label

    def test_fixed_label(self):
        backend = mock_backend("fixed", label="sad")
        assert backend.complete(CompletionRequest("s", "whatever")) == "sad"
        with pytest.raises(ValueError):
            mock_backend("fixed", label="bored")

    def test_random_is_deterministic_sequence(self):
        prompts = [CompletionRequest("s", f"prompt {i}") for i in range(20)]
        a = [mock_backend("random", seed=5).complete(p) for p in prompts]
        b = [mock_backend("random", seed=5).complete(p) for p in prompts]
        c = [mock_backend("random", seed=6).complete(p) for p in prompts]
        assert a == b
        assert a != c
        assert set(a) <= set(LABELS)

    def test_fixed_label_scores_quarter_uar_on_balanced_gold(self, pool):
        from serann.corpus import LABEL_INDEX, ConfusionMatrix, uar

        results, _ = annotate_corpus(pool, TEXT, mock_backend("fixed", label="sad"))
        by_id = {r.utterance_id: r for r in pool}
        gold = [LABEL_INDEX[by_id[r.utterance_id].gold_label] for r in results]
        pred = [LABEL_INDEX[r.label] for r in results]
        assert uar(ConfusionMatrix.from_pairs(gold, pred)) == 0.25

    def test_keyword_heuristic_reads_target_transcript(self):
        backend = mock_backend("keyword")
        record = make_record("u1", transcript="what a delightful morning")
        spec = build_prompt(record, TEXT)
        req = CompletionRequest(spec.system, spec.user)
        assert backend.complete(req) == "happy"
        bland = build_prompt(make_record("u2", transcript="nothing notable"), TEXT)
        assert backend.complete(CompletionRequest(bland.system, bland.user)) == "neutral"


class TestAnnotateAndCache:
    def test_cache_hit_skips_backend(self, pool, tmp_path):
        calls = {"n": 0}

        class Counting:
            backend_id = "mock:counting"

            def complete(self, request):
                calls["n"] += 1
                return "happy"

        record = pool[0]
        with AnnotationCache(tmp_path / "cache.jsonl") as cache:
            [first], summary1 = annotate_corpus([record], TEXT, Counting(), cache=cache)
            [second], summary2 = annotate_corpus([record], TEXT, Counting(), cache=cache)
        assert (summary1.cache_hits, summary2.cache_hits) == (0, 1)
        assert calls["n"] == 1
        assert second.raw_response == first.raw_response
        assert second.label == "happy"

    def test_cache_survives_reload(self, pool, tmp_path):
        path = tmp_path / "cache.jsonl"
        backend = mock_backend("fixed", label="angry")
        with AnnotationCache(path) as cache:
            annotate_corpus([pool[0]], TEXT, backend, cache=cache)
        with AnnotationCache(path) as cache:
            [result], summary = annotate_corpus([pool[0]], TEXT, backend, cache=cache)
        assert summary.cache_hits == 1
        assert result.label == "angry"

    def test_mock_echo_parses(self, pool):
        [result], _ = annotate_corpus([pool[0]], TEXT, mock_backend("fixed", label="neutral"))
        assert result.label == "neutral"
        assert result.prompt_hash

    def test_annotations_file_roundtrip(self, pool, tmp_path):
        backend = mock_backend("oracle", records=pool)
        results, _ = annotate_corpus(pool, TEXT, backend)
        path = tmp_path / "ann.jsonl"
        write_annotations(path, results)
        loaded = load_annotations(path)
        assert len(loaded) == len(pool)
        assert loaded[pool[0].utterance_id].label == pool[0].gold_label

    def test_cache_answers_only_its_own_backend(self, pool, tmp_path):
        path = tmp_path / "cache.jsonl"
        records = pool[:3]
        keyword, sad = mock_backend("keyword"), mock_backend("fixed", label="sad")
        with AnnotationCache(path) as cache:
            annotate_corpus(records, TEXT, keyword, cache=cache)
        with AnnotationCache(path) as cache:
            results, summary = annotate_corpus(records, TEXT, sad, cache=cache)
        assert summary.cache_hits == 0
        assert [(r.label, r.backend_id) for r in results] == [("sad", sad.backend_id)] * 3
        cache = AnnotationCache(path)
        for backend in (keyword, sad):
            fresh, _ = annotate_corpus(records, TEXT, backend)
            replayed, summary = annotate_corpus(records, TEXT, backend, cache=cache)
            assert summary.cache_hits == 3
            assert [r.to_json() for r in replayed] == [r.to_json() for r in fresh]

    def test_resume_from_torn_last_record(self, pool, tmp_path):
        path = tmp_path / "cache.jsonl"
        oracle = mock_backend("oracle", records=pool)
        with AnnotationCache(path) as cache:
            annotate_corpus(pool, TEXT, oracle, cache=cache)
        whole = path.read_bytes()
        last_start = whole.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(whole[: last_start + (len(whole) - last_start) // 2])
        calls = []

        class Counting:
            backend_id = oracle.backend_id

            def complete(self, request):
                calls.append(request.user)
                return oracle.complete(request)

        with AnnotationCache(path) as cache:
            assert cache.dropped == 1
            results, _ = annotate_corpus(pool, TEXT, Counting(), cache=cache)
        assert len(calls) == 1
        assert [r.label for r in results] == [r.gold_label for r in pool]
        assert path.read_bytes() == whole

    def test_open_cache_is_visible_to_a_second_reader(self, pool, tmp_path):
        path = tmp_path / "cache.jsonl"
        with AnnotationCache(path) as writer:
            annotate_corpus(pool[:5], TEXT, mock_backend("keyword"), cache=writer)
            reader = AnnotationCache(path)
            assert len(reader) == 5
            _, summary = annotate_corpus(pool[:5], TEXT, mock_backend("keyword"), cache=reader)
            assert summary.cache_hits == 5
        assert len(AnnotationCache(path)) == 5

    @pytest.mark.parametrize("load", [load_annotations, AnnotationCache],
                             ids=["annotations", "cache"])
    @pytest.mark.parametrize("field", ["label", "backend_id"])
    def test_record_missing_a_field_names_line_and_field(self, pool, tmp_path, load, field):
        results, _ = annotate_corpus(pool[:3], TEXT, mock_backend("keyword"))
        path = tmp_path / "records.jsonl"
        write_annotations(path, results)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        del record[field]
        path.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n")
        with pytest.raises(JsonlError, match=re.escape(f"{path}:2: missing field {field!r}")):
            load(path)

    @pytest.mark.parametrize("field, value, expected", [
        ("utterance_id", 7, "expected a string, got int"),
        ("label", 7, "expected a string, got int"),
        ("label", "joy", "expected one of angry, happy, neutral, sad or unparseable, got 'joy'"),
        ("label", "Angry", "expected one of angry, happy, neutral, sad or unparseable, got 'Angry'"),
        ("label", None, "expected a string, got NoneType"),
        ("raw_response", ["angry"], "expected a string, got list"),
        ("backend_id", 1.5, "expected a string, got float"),
        ("prompt_hash", {"sha": "x"}, "expected a string, got dict"),
        ("template_version", True, "expected a string, got bool"),
    ])
    def test_annotations_refuse_a_bad_field(self, pool, tmp_path, field, value, expected):
        results, _ = annotate_corpus(pool[:3], TEXT, mock_backend("keyword"))
        path = tmp_path / "ann.jsonl"
        write_annotations(path, results)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = value
        path.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n")
        with pytest.raises(JsonlError, match=re.escape(f"{path}:2: field {field!r}: {expected}")):
            load_annotations(path)

    def test_corrupt_middle_line_raises(self, pool, tmp_path):
        path = tmp_path / "cache.jsonl"
        with AnnotationCache(path) as cache:
            annotate_corpus(pool[:3], TEXT, mock_backend("keyword"), cache=cache)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            AnnotationCache(path)


class TestAnnotateCorpus:
    def test_oracle_reaches_full_agreement(self, pool):
        backend = mock_backend("oracle", records=pool)
        results, summary = annotate_corpus(pool, TEXT, backend)
        agreement = np.mean(
            [r.label == record.gold_label for r, record in zip(results, pool)]
        )
        assert agreement == 1.0
        assert summary.unparseable == 0

    def test_uniform_random_near_chance(self):
        labels = list(LABELS) * 100
        records = [make_record(f"r{i:03d}", transcript=f"utterance number {i}", gold=labels[i])
                   for i in range(400)]
        backend = mock_backend("random", seed=11)
        results, _ = annotate_corpus(records, TEXT, backend)
        agreement = np.mean([r.label == rec.gold_label for r, rec in zip(results, records)])
        assert 0.20 <= agreement <= 0.30

    def test_resume_only_hits_uncached(self, pool, tmp_path):
        calls = []

        class Logging:
            backend_id = "mock:logging"

            def complete(self, request):
                calls.append(request.user)
                return "sad"

        with AnnotationCache(tmp_path / "cache.jsonl") as cache:
            annotate_corpus(pool[:6], TEXT, Logging(), cache=cache)
            assert len(calls) == 6
            _, summary = annotate_corpus(pool, TEXT, Logging(), cache=cache)
        assert len(calls) == len(pool)  # only the 14 new records hit the backend
        assert summary.cache_hits == 6

    def test_few_shot_prompts_carry_context(self, pool):
        captured = []

        class Capturing:
            backend_id = "mock:capture"

            def complete(self, request):
                captured.append(request.user)
                return "neutral"

        annotate_corpus(
            pool[:2], FULL, Capturing(), shots="few", seed=3,
            features_by_id=features_for(pool), codes_by_id=codes_for(pool),
            few_shot_pool=pool,
        )
        assert captured[0].count("Audio codes:") == 11  # 10 exemplars + target
        assert captured[0].count("Average pitch:") == 11

    def test_missing_features_fail_fast(self, pool):
        with pytest.raises(MissingContextFileError, match="features"):
            annotate_corpus(pool, ContextVariant.TEXT_ENERGY_F0, mock_backend("fixed", label="sad"))

    def test_failure_budget(self, pool):
        from serann.annotate import BackendError

        class Flaky:
            backend_id = "mock:flaky"

            def __init__(self):
                self.n = 0

            def complete(self, request):
                self.n += 1
                if self.n <= 2:
                    raise BackendError("boom")
                return "happy"

        with pytest.raises(AnnotationRunError, match="failed"):
            annotate_corpus(pool, TEXT, Flaky(), failure_budget=0)
        results, summary = annotate_corpus(pool, TEXT, Flaky(), failure_budget=2)
        assert len(results) == len(pool) - 2
        assert len(summary.failures) == 2

    def test_failure_text_names_each_record_once(self):
        from serann.annotate import BackendError

        class Raising:
            backend_id = "mock:raising"

            def complete(self, request):
                raise BackendError("boom")

        records = [make_record("u0"), make_record("u1")]  # one shared prompt
        with pytest.raises(AnnotationRunError) as info:
            annotate_corpus(records, TEXT, Raising())
        assert str(info.value) == "2 records failed (budget 0): u0: boom; u1: boom"
        _, summary = annotate_corpus(records, TEXT, Raising(), failure_budget=2)
        assert summary.failures == [
            {"utterance_id": "u0", "error": "boom"},
            {"utterance_id": "u1", "error": "boom"},
        ]

    def test_negative_failure_budget_rejected_before_any_call(self, pool):
        class Counting:
            backend_id = "mock:counting"
            calls = 0

            def complete(self, request):
                Counting.calls += 1
                return "sad"

        with pytest.raises(ValueError, match="failure_budget"):
            annotate_corpus(pool, TEXT, Counting(), failure_budget=-1)
        assert Counting.calls == 0

    def test_concurrent_workers_share_one_call_per_prompt(self, tmp_path):
        records = [make_record(f"s{i}") for i in range(8)]  # one shared prompt
        calls = []

        class Slow:
            backend_id = "mock:slow"

            def complete(self, request):
                calls.append(request.user)
                time.sleep(0.05)
                return "neutral"

        with AnnotationCache(tmp_path / "c.jsonl") as cache:
            results, summary = annotate_corpus(records, TEXT, Slow(), cache=cache, concurrency=4)
        assert len(calls) == 1
        assert summary.cache_hits == 7
        assert [r.utterance_id for r in results] == [r.utterance_id for r in records]
        assert {r.label for r in results} == {"neutral"}

    def test_one_call_per_prompt_under_thread_switch_stress(self, tmp_path):
        transcripts = [f"prompt number {k}" for k in range(5)]
        records = [make_record(f"r{i:02d}", transcript=transcripts[i % 5]) for i in range(60)]
        calls = []

        class Counting:
            backend_id = "mock:counting"

            def complete(self, request):
                calls.append(request.user)
                return "sad"

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with AnnotationCache(tmp_path / "c.jsonl") as cache:
                _, summary = annotate_corpus(records, TEXT, Counting(), cache=cache, concurrency=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == len(set(calls)) == 5
        assert summary.cache_hits == 55

    @staticmethod
    def repeated_prompts(n=24, distinct=6):
        return [make_record(f"r{i:02d}", transcript=f"prompt number {(i * 7) % distinct}")
                for i in range(n)]

    def test_concurrency_changes_no_result_hit_or_cache_line(self, tmp_path):
        records = self.repeated_prompts()
        runs = {}
        for workers in (1, 4):
            path = tmp_path / f"c{workers}.jsonl"
            with AnnotationCache(path) as cache:
                # Two prompts answered by an earlier run.
                annotate_corpus(records[:2], TEXT, mock_backend("random", seed=3), cache=cache)
                results, summary = annotate_corpus(
                    records, TEXT, mock_backend("random", seed=3), cache=cache,
                    concurrency=workers,
                )
            runs[workers] = ([r.to_json() for r in results], summary.to_json(),
                             path.read_text().splitlines())
        (serial, serial_summary, serial_lines), (parallel, parallel_summary, parallel_lines) = (
            runs[1], runs[4])
        assert serial == parallel
        assert serial_summary == parallel_summary
        assert serial_summary["cache_hits"] == 24 - 4
        assert sorted(serial_lines) == sorted(parallel_lines)
        # Serially, the cache gains prompts in order of first occurrence.
        firsts = {}
        for result in serial:
            firsts.setdefault(result["prompt_hash"], result["utterance_id"])
        assert [json.loads(line)["utterance_id"] for line in serial_lines] == list(firsts.values())

    @pytest.mark.parametrize("workers", [1, 4])
    def test_failed_prompt_fails_every_record_sharing_it(self, workers, tmp_path):
        from serann.annotate import BackendError

        records = self.repeated_prompts(n=12, distinct=3)
        calls = []

        class FailsOne:
            backend_id = "mock:fails-one"

            def complete(self, request):
                calls.append(request.user)
                if "prompt number 0" in request.user:
                    raise BackendError("boom")
                return "sad"

        sharing = [r.utterance_id for r in records if r.transcript == "prompt number 0"]
        with pytest.raises(AnnotationRunError, match=f"{len(sharing)} records failed"):
            annotate_corpus(records, TEXT, FailsOne(), failure_budget=len(sharing) - 1,
                            concurrency=workers)
        calls.clear()
        with AnnotationCache(tmp_path / "c.jsonl") as cache:
            results, summary = annotate_corpus(records, TEXT, FailsOne(), cache=cache,
                                               failure_budget=len(sharing), concurrency=workers)
        assert len(calls) == 3
        assert sum("prompt number 0" in c for c in calls) == 1
        assert [f["utterance_id"] for f in summary.failures] == sharing
        assert all("boom" in f["error"] for f in summary.failures)
        assert len(results) == len(records) - len(sharing)
        assert len(cache) == 2

    def test_run_without_cache_asks_once_per_distinct_prompt(self):
        records = self.repeated_prompts(n=12, distinct=3)
        calls = []

        class Counting:
            backend_id = "mock:counting"

            def complete(self, request):
                calls.append(request.user)
                return "happy"

        results, summary = annotate_corpus(records, TEXT, Counting())
        assert len(calls) == len(set(calls)) == 3
        assert summary.cache_hits == 9
        assert [r.utterance_id for r in results] == [r.utterance_id for r in records]

    def test_concurrent_annotation_matches_serial(self, pool, tmp_path):
        serial, _ = annotate_corpus(pool, TEXT, mock_backend("oracle", records=pool))
        with AnnotationCache(tmp_path / "c.jsonl") as cache:
            parallel, _ = annotate_corpus(
                pool, TEXT, mock_backend("oracle", records=pool), cache=cache, concurrency=4,
            )
        assert [r.label for r in serial] == [r.label for r in parallel]
