import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    WAV_DAMAGE,
    reference_average_energy,
    reference_average_pitch,
    reference_frame_autocorr,
)
from serann import dsp
from serann.corpus import resolve_audio_path
from serann.dsp import (
    AudioClip,
    AudioFormatError,
    InsufficientAudioError,
    average_energy,
    average_pitch,
    mel_spectrogram,
    read_wav,
    write_wav,
)
from serann.fileio import JsonlError

SR = dsp.SAMPLE_RATE


def tone(freq, seconds, amp=1.0, kind="sine"):
    t = np.arange(int(seconds * SR)) / SR
    if kind == "saw":
        return amp * (2.0 * ((freq * t) % 1.0) - 1.0)
    if kind == "square":
        return amp * np.sign(np.sin(2.0 * np.pi * freq * t) + 1e-12)
    return amp * np.sin(2.0 * np.pi * freq * t)


# -- independent reference pipeline (naive O(n^2) DFT, no FFT) ----------


def oracle_melspec(samples):
    n_bins = dsp.N_FFT // 2 + 1
    # explicit DFT matrix
    k = np.arange(n_bins)[:, None]
    n = np.arange(dsp.N_FFT)[None, :]
    cos_m = np.cos(-2.0 * np.pi * k * n / dsp.N_FFT)
    sin_m = np.sin(-2.0 * np.pi * k * n / dsp.N_FFT)

    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(dsp.WIN) / dsp.WIN)
    n_frames = 1 + (len(samples) - dsp.WIN) // dsp.HOP
    power = np.empty((n_frames, n_bins))
    for i in range(n_frames):
        frame = samples[i * dsp.HOP : i * dsp.HOP + dsp.WIN] * window
        padded = np.zeros(dsp.N_FFT)
        padded[: dsp.WIN] = frame
        re = cos_m @ padded
        im = sin_m @ padded
        power[i] = re * re + im * im

    # triangular filters on the HTK mel scale, built pointwise
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = [inv_mel(mel(0.0) + (mel(dsp.FMAX_HZ) - mel(0.0)) * i / (dsp.N_MELS + 1))
             for i in range(dsp.N_MELS + 2)]
    mel_power = np.zeros((n_frames, dsp.N_MELS))
    for b in range(dsp.N_MELS):
        lo, center, hi = edges[b], edges[b + 1], edges[b + 2]
        for j in range(n_bins):
            f = j * SR / dsp.N_FFT
            if lo < f < hi:
                weight = (f - lo) / (center - lo) if f <= center else (hi - f) / (hi - center)
                mel_power[:, b] += weight * power[:, j]

    logmel = np.log(mel_power + dsp.LOG_FLOOR).T
    if logmel.shape[1] >= dsp.N_FRAMES:
        logmel = logmel[:, : dsp.N_FRAMES]
    else:
        pad = np.full((dsp.N_MELS, dsp.N_FRAMES - logmel.shape[1]), logmel.min())
        logmel = np.concatenate([logmel, pad], axis=1)
    lo_v, hi_v = logmel.min(), logmel.max()
    if hi_v - lo_v < 1e-12:
        return np.zeros((dsp.N_MELS, dsp.N_FRAMES)), mel_power
    return 2.0 * (logmel - lo_v) / (hi_v - lo_v) - 1.0, mel_power


class TestWavIO:
    def test_roundtrip(self, tmp_path):
        samples = tone(440, 0.2, amp=0.5)
        path = tmp_path / "t.wav"
        write_wav(path, samples)
        clip = read_wav(path)
        assert clip.sample_rate == SR
        np.testing.assert_allclose(clip.samples, samples, atol=1.0 / 32000)

    def test_rejects_stereo(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(SR)
            handle.writeframes(b"\x00" * 4 * 2000)
        with pytest.raises(AudioFormatError, match="mono"):
            read_wav(path)

    def test_rejects_wrong_rate(self, tmp_path):
        import wave

        path = tmp_path / "wrong.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(44100)
            handle.writeframes(b"\x00" * 2 * 2000)
        with pytest.raises(AudioFormatError, match="44100"):
            read_wav(path)

    def test_rejects_8bit(self, tmp_path):
        import wave

        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(1)
            handle.setframerate(SR)
            handle.writeframes(b"\x00" * 2000)
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_wav(path)

    @pytest.mark.parametrize("damage, message", WAV_DAMAGE.values(), ids=WAV_DAMAGE.keys())
    def test_unreadable_file_names_the_path(self, tmp_path, damage, message):
        path = tmp_path / "bad.wav"
        write_wav(path, tone(440, 0.2, amp=0.5))
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(AudioFormatError, match=message) as caught:
            read_wav(path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_short_clip_insufficient(self):
        with pytest.raises(InsufficientAudioError):
            AudioClip(np.zeros(512))

    def test_out_of_range_samples_rejected(self):
        with pytest.raises(AudioFormatError, match=r"\[-1, 1\]"):
            AudioClip(2.0 * np.ones(2048))


class TestMelSpectrogram:
    def test_output_shape_and_range(self):
        mel = mel_spectrogram(AudioClip(tone(440, 0.5, 0.5)))
        assert mel.shape == (80, 256)
        assert mel.dtype == np.float32
        assert mel.min() >= -1.0 and mel.max() <= 1.0

    def test_digital_silence_is_all_zeros(self):
        mel = mel_spectrogram(AudioClip(np.zeros(SR)))
        np.testing.assert_array_equal(mel, np.zeros((80, 256), dtype=np.float32))

    def test_matches_naive_dft_oracle(self):
        samples = tone(1000, 4.0, 0.8)
        ours = mel_spectrogram(AudioClip(samples))
        reference, _ = oracle_melspec(samples)
        assert np.max(np.abs(ours - reference)) < 1e-3

    def test_tone_energy_concentrated_near_1khz(self):
        samples = tone(1000, 4.0, 0.8)
        _, mel_power = oracle_melspec(samples)
        centers = dsp.mel_to_hz(
            np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(dsp.FMAX_HZ), dsp.N_MELS + 2)
        )[1:-1]
        band = int(np.argmin(np.abs(centers - 1000.0)))
        window = mel_power[:, max(band - 1, 0) : band + 2].sum(axis=1)
        ratio = window / mel_power.sum(axis=1)
        assert ratio.min() >= 0.90

    def test_deterministic(self):
        samples = tone(333, 0.7, 0.6)
        a = mel_spectrogram(AudioClip(samples))
        b = mel_spectrogram(AudioClip(samples.copy()))
        assert a.tobytes() == b.tobytes()

    def test_truncation_keeps_first_frames(self):
        # 5 s exceeds the 256-frame horizon (66304 samples); altering the
        # signal beyond that horizon must not change the output, and the
        # output must equal that of the horizon-length prefix alone.
        base = tone(500, 5.0, 0.5)
        head_len = (dsp.N_FRAMES - 1) * dsp.HOP + dsp.WIN
        altered = base.copy()
        altered[head_len:] = tone(2000, 5.0, 0.5)[head_len:]
        a = mel_spectrogram(AudioClip(base))
        b = mel_spectrogram(AudioClip(altered))
        c = mel_spectrogram(AudioClip(base[:head_len]))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
        long = tone(500, 8.0, 0.5)
        np.testing.assert_array_equal(
            mel_spectrogram(AudioClip(long)), mel_spectrogram(AudioClip(long[:head_len]))
        )

    def test_gain_invariance(self):
        rng = np.random.default_rng(3)
        samples = 0.4 * np.sin(2 * np.pi * 220 * np.arange(int(1.2 * SR)) / SR)
        samples = samples + 0.02 * rng.standard_normal(len(samples))
        samples = np.clip(samples, -0.5, 0.5)
        base = mel_spectrogram(AudioClip(samples))
        for gain in (0.5, 2.0):
            scaled = mel_spectrogram(AudioClip(np.clip(gain * samples, -1.0, 1.0)))
            np.testing.assert_allclose(scaled, base, atol=1e-4)


class TestEnergy:
    def test_silence(self):
        assert average_energy(AudioClip(np.zeros(SR))) == 0.0

    def test_full_scale_square_wave(self):
        clip = AudioClip(tone(100, 1.0, 1.0, kind="square"))
        np.testing.assert_allclose(average_energy(clip), 1.0, atol=1e-9)

    def test_half_scale_sine(self):
        clip = AudioClip(tone(1000, 1.0, 0.5))
        np.testing.assert_allclose(average_energy(clip), 0.5 / np.sqrt(2.0), atol=1e-3)

    def test_proportional_to_gain(self):
        samples = tone(250, 0.8, 0.4)
        base = average_energy(AudioClip(samples))
        np.testing.assert_allclose(average_energy(AudioClip(2.0 * samples)), 2.0 * base, rtol=1e-9)

    def test_corpus_clips_keep_the_bits(self, corpus_dir, corpus_records):
        manifest = corpus_dir / "manifest.jsonl"
        for record in corpus_records:
            clip = dsp.read_wav(resolve_audio_path(manifest, record))
            assert bits(average_energy(clip)) == bits(reference_average_energy(clip.samples))

    @pytest.mark.parametrize("frames", [1, dsp.PITCH_CHUNK, dsp.PITCH_CHUNK + 1, 3 * dsp.PITCH_CHUNK])
    def test_chunk_edges_keep_the_bits(self, frames):
        samples = noisy_clip(frames, 3.0)[: dsp.ENERGY_WIN + (frames - 1) * dsp.ENERGY_HOP]
        clip = SimpleNamespace(samples=samples)
        assert bits(average_energy(clip)) == bits(reference_average_energy(samples))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(dsp.ENERGY_WIN, 20 * SR))
    def test_random_clips_keep_the_bits(self, seed, length):
        # From one 25 ms frame up: the energy framing itself allows clips
        # shorter than the pitch window that ``AudioClip`` asks for.
        samples = noisy_clip(seed, length / SR)[:length]
        clip = SimpleNamespace(samples=samples)
        assert bits(average_energy(clip)) == bits(reference_average_energy(samples))

    def test_memory_flat_in_clip_length(self):
        clip = AudioClip(noisy_clip(3, 60.0))
        tracemalloc.start()
        try:
            average_energy(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The clip itself is 7.7 MB; all frames at once took 38 MB.
        assert peak < 1_000_000, f"peak {peak} bytes"


class TestPitch:
    def test_silence_unvoiced(self):
        assert average_pitch(AudioClip(np.zeros(SR))) == 0.0

    def test_200hz_sawtooth(self):
        clip = AudioClip(tone(200, 2.0, 0.5, kind="saw"))
        assert abs(average_pitch(clip) - 200.0) <= 3.0

    def test_low_vs_high_tones_ordered(self):
        low = average_pitch(AudioClip(tone(120, 1.0, 0.5)))
        high = average_pitch(AudioClip(tone(300, 1.0, 0.5)))
        assert abs(low - 120.0) <= 3.0
        assert abs(high - 300.0) <= 3.0
        assert low < high

    def test_amplitude_invariance(self):
        samples = tone(180, 1.0, 1.0)
        base = average_pitch(AudioClip(0.1 * samples))
        for gain in (0.25, 0.5, 1.0):
            np.testing.assert_allclose(
                average_pitch(AudioClip(gain * samples)), base, atol=1e-6
            )

    def test_quiet_frames_gated_by_rms(self):
        assert average_pitch(AudioClip(tone(200, 1.0, 0.005))) == 0.0


def pitch_branch(frame):
    """Which way the one-frame tracker leaves ``frame``; a voiced frame also
    names a peak next to a window edge and a zero curvature."""
    if np.sqrt(np.mean(frame * frame)) < dsp.VOICING_RMS:
        return "quiet"
    lag_min = int(SR / dsp.PITCH_MAX_HZ)
    window = reference_frame_autocorr(frame, int(SR / dsp.PITCH_MIN_HZ) + 1)[lag_min:-1]
    best = window.max(initial=0.0)
    if best < dsp.VOICING_CORR:
        return "weak"
    peaks = [i for i in range(1, len(window) - 1)
             if window[i - 1] <= window[i] >= window[i + 1]
             and window[i] >= max(0.9 * best, dsp.VOICING_CORR)]
    if not peaks:
        return "no-peak"
    i = peaks[0]
    if abs(window[i - 1] - 2.0 * window[i] + window[i + 1]) <= 1e-12:
        return "flat"
    return "edge-peak" if i in (1, len(window) - 2) else "voiced"


def noisy_clip(seed, seconds):
    """A wavering tone in noise with silent and near-silent stretches."""
    rng = np.random.default_rng(seed)
    n = max(int(seconds * SR), dsp.WIN)
    t = np.arange(n) / SR
    phase = 2.0 * np.pi * rng.uniform(40.0, 600.0) * t + rng.uniform(0, 3) * np.sin(2 * np.pi * 4 * t)
    samples = rng.uniform(0.01, 0.7) * np.sin(phase) + rng.uniform(0, 0.3) * rng.standard_normal(n)
    for _ in range(rng.integers(0, 5)):
        start = rng.integers(0, n)
        samples[start : start + rng.integers(100, 3 * dsp.PITCH_CHUNK * dsp.HOP)] *= rng.choice(
            [0.0, 0.001, 0.03])
    return np.clip(samples, -1.0, 1.0)


def bits(value):
    return np.float64(value).tobytes()


# Clips all of whose frames leave the one-frame tracker the same way.
PITCH_BRANCH_CLIPS = {
    "quiet": ("quiet", tone(200, 1.0, 0.005)),
    "weak": ("weak", 0.05 * np.random.default_rng(0).standard_normal(SR)),
    # 20 Hz is below the search range: r falls across the whole lag window.
    "no-peak": ("no-peak", tone(20, 1.0, 0.5)),
    # Periods of 33 and 319 samples: the first peak is next to a window edge.
    "edge-peak-33": ("edge-peak", tone(SR / 33, 1.0, 0.5)),
    "edge-peak-319": ("edge-peak", tone(SR / 319, 1.0, 0.5)),
    # A constant: r is 1 at every lag up to rounding, so the peak is flat.
    "flat": ("flat", np.full(SR, 0.5)),
    # 500 Hz: the period is the window's first lag (32), so the first
    # interior peak is at twice the period.
    "voiced": ("voiced", tone(500, 1.0, 0.5)),
}


class TestBatchedPitch:
    """``average_pitch`` has the bits of the one-frame-at-a-time tracker."""

    @pytest.mark.parametrize("branch, samples", PITCH_BRANCH_CLIPS.values(),
                             ids=PITCH_BRANCH_CLIPS.keys())
    def test_each_branch_keeps_the_bits(self, branch, samples):
        frames = np.lib.stride_tricks.sliding_window_view(samples, dsp.WIN)[::dsp.HOP]
        assert {pitch_branch(frame) for frame in frames} == {branch}
        assert bits(average_pitch(AudioClip(samples))) == bits(reference_average_pitch(samples))

    def test_one_window_clip(self):
        samples = tone(220, dsp.WIN / SR, 0.5)
        assert len(samples) == dsp.WIN
        assert average_pitch(AudioClip(samples)) > 0.0
        assert bits(average_pitch(AudioClip(samples))) == bits(reference_average_pitch(samples))

    def test_clip_longer_than_one_chunk(self):
        # Three chunks; the middle one is all silence.
        chunk = dsp.PITCH_CHUNK * dsp.HOP
        samples = tone(180, 3 * chunk / SR, 0.4)
        samples[chunk - dsp.WIN : 2 * chunk + dsp.WIN] = 0.0
        samples += 0.001 * np.random.default_rng(2).standard_normal(len(samples))
        assert 1 + (len(samples) - dsp.WIN) // dsp.HOP > 2 * dsp.PITCH_CHUNK
        assert bits(average_pitch(AudioClip(samples))) == bits(reference_average_pitch(samples))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.064, 8.0))
    def test_random_clips_keep_the_bits(self, seed, seconds):
        samples = noisy_clip(seed, seconds)
        assert bits(average_pitch(AudioClip(samples))) == bits(reference_average_pitch(samples))


class TestFeatureFiles:
    def test_features_roundtrip(self, tmp_path):
        feats = {
            "a": dsp.UtteranceFeatures(0.25, 190.0, "female"),
            "b": dsp.UtteranceFeatures(0.5, 0.0, "male"),
        }
        path = tmp_path / "features.jsonl"
        dsp.write_features(path, feats)
        loaded = dsp.load_features(path)
        assert loaded.keys() == feats.keys()
        assert loaded["a"].avg_pitch_hz == 190.0
        assert loaded["b"].gender == "male"

    @pytest.mark.parametrize("field", ["avg_energy", "avg_pitch_hz"])
    def test_non_numeric_field_names_line_and_field(self, tmp_path, field):
        path = tmp_path / "features.jsonl"
        dsp.write_features(path, {
            "a": dsp.UtteranceFeatures(0.25, 190.0, "female"),
            "b": dsp.UtteranceFeatures(0.5, 0.0, "male"),
        })
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record[field] = "loud"
        path.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        with pytest.raises(JsonlError, match=re.escape(f"{path}:2: field {field!r}")):
            dsp.load_features(path)

    def test_mel_cache_roundtrip_and_determinism(self, tmp_path, rng):
        mels = {f"utt{i}": rng.normal(0, 1, (80, 256), np.float32) for i in range(3)}
        a, b = tmp_path / "a.mels", tmp_path / "b.mels"
        dsp.save_mel_cache(a, mels)
        dsp.save_mel_cache(b, mels)
        assert a.read_bytes() == b.read_bytes()
        loaded = dsp.load_mel_cache(a)
        np.testing.assert_array_equal(loaded["utt1"], mels["utt1"])
