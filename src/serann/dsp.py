"""Audio front end: 16 kHz mono clips to normalized log-mel spectrograms plus
the scalar prompt features (average energy, average pitch).

Fixed encoding:
- Audio: 16-bit PCM WAV, mono, 16 kHz; no resampling, other formats rejected.
- STFT: 1024-point FFT, hop 256, periodic Hann window of 1024.
- Mel: 80 triangular bands, 0 to 8000 Hz, HTK mel scale, log(x + 1e-6).
- Output: exactly 80 bands x 256 frames, min-max scaled to [-1, 1]. Longer
  clips keep the first 256 frames; shorter clips are padded with the
  utterance's log-mel minimum, which lands at -1 after scaling.
- Energy: mean over 25 ms / 10 ms frames of per-frame RMS, linear 0..1.
- Pitch: per-frame normalized autocorrelation, 50..500 Hz search; frames
  count as voiced when the peak correlation reaches 0.3 and frame RMS 0.01.

The pitch tracker is batched per clip: it takes up to ``PITCH_CHUNK``
frames at a time, gates them by RMS, and runs the autocorrelation, the
peak pick and the parabolic interpolation over all loud frames at once.
Its bits equal a one-frame-at-a-time tracker's. Batched ``rfft`` and
``irfft`` keep the bits of per-row calls, and so does the power spectrum,
formed as ``np.multiply(spectrum, conj, out=conj)``. The operand order
matters: the complex product's imaginary part rounds differently with the
operands swapped, and ``spectrum * np.conjugate(spectrum)`` swaps them once
the array is large enough for numpy to elide the temporary (it then
computes ``conj *= spectrum``).
"""

from __future__ import annotations

import wave
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .fileio import json_finite_number, json_string, read_records, write_jsonl

SAMPLE_RATE = 16_000
N_FFT = 1024
HOP = 256
WIN = 1024
N_MELS = 80
FMAX_HZ = 8000.0
N_FRAMES = 256
LOG_FLOOR = 1e-6

ENERGY_WIN = int(0.025 * SAMPLE_RATE)  # 400
ENERGY_HOP = int(0.010 * SAMPLE_RATE)  # 160

PITCH_MIN_HZ = 50.0
PITCH_MAX_HZ = 500.0
VOICING_CORR = 0.3
VOICING_RMS = 0.01
PITCH_CHUNK = 64  # frames per batched autocorrelation: about 1 MB per buffer, so it stays in cache
_LAG_MIN = int(SAMPLE_RATE / PITCH_MAX_HZ)  # 32 samples
_LAG_MAX = int(SAMPLE_RATE / PITCH_MIN_HZ)  # 320 samples


class AudioFormatError(ValueError):
    """Audio that is not a readable 16-bit PCM mono WAV at 16 kHz."""


class InsufficientAudioError(ValueError):
    """Clip is shorter than one analysis window."""


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate != SAMPLE_RATE:
            raise AudioFormatError(
                f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate}"
            )
        if self.samples.ndim != 1:
            raise AudioFormatError(f"expected mono samples, got shape {self.samples.shape}")
        if len(self.samples) < WIN:
            raise InsufficientAudioError(
                f"clip has {len(self.samples)} samples; at least {WIN} required"
            )
        if not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("samples contain non-finite values")
        peak = float(np.abs(self.samples).max(initial=0.0))
        if peak > 1.0 + 1e-9:
            raise AudioFormatError(f"samples exceed [-1, 1] (peak {peak:.4f})")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class UtteranceFeatures:
    avg_energy: float
    avg_pitch_hz: float
    gender: str = "unknown"


def read_wav(path) -> AudioClip:
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            if channels != 1:
                raise AudioFormatError(f"{path}: expected mono audio, got {channels} channels")
            if width != 2:
                raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
            if rate != SAMPLE_RATE:
                raise AudioFormatError(
                    f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz (resampling is not performed)"
                )
            raw = handle.readframes(handle.getnframes())
    except (EOFError, wave.Error) as exc:
        raise AudioFormatError(f"{path}: not a WAV file ({str(exc) or 'header cut short'})") from exc
    if len(raw) % 2:
        raise AudioFormatError(f"{path}: data chunk ends inside a sample ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return AudioClip(samples)


def write_wav(path, samples: np.ndarray) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    quantized = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(quantized.tobytes())


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """(N_MELS, N_FFT // 2 + 1) triangular filters, unit peak, HTK spacing."""
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(FMAX_HZ), N_MELS + 2))
    bin_hz = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    bank = np.zeros((N_MELS, N_FFT // 2 + 1))
    for b in range(N_MELS):
        lo, center, hi = edges_hz[b], edges_hz[b + 1], edges_hz[b + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mel_spectrogram(clip: AudioClip) -> np.ndarray:
    """80 x 256 log-mel matrix, min-max scaled to [-1, 1], float32."""
    # Only the samples under the first N_FRAMES windows reach the output.
    samples = clip.samples[: (N_FRAMES - 1) * HOP + WIN]
    frames = np.lib.stride_tricks.sliding_window_view(samples, WIN)[::HOP] * _hann_periodic(WIN)
    power = np.abs(np.fft.rfft(frames, n=N_FFT, axis=1)) ** 2  # (frames, N_FFT // 2 + 1)
    mel_power = power @ mel_filterbank().T
    logmel = np.log(mel_power + LOG_FLOOR).T  # (bands, frames)
    n = logmel.shape[1]
    if n >= N_FRAMES:
        logmel = logmel[:, :N_FRAMES]
    else:
        pad = np.full((N_MELS, N_FRAMES - n), logmel.min())
        logmel = np.concatenate([logmel, pad], axis=1)
    lo, hi = logmel.min(), logmel.max()
    if hi - lo < 1e-12:
        return np.zeros((N_MELS, N_FRAMES), dtype=np.float32)
    scaled = 2.0 * (logmel - lo) / (hi - lo) - 1.0
    return scaled.astype(np.float32)


def average_energy(clip: AudioClip) -> float:
    """Mean frame RMS; frames are squared ``PITCH_CHUNK`` at a time, so
    memory stays flat however long the clip."""
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, ENERGY_WIN)[::ENERGY_HOP]
    chunks = (frames[i : i + PITCH_CHUNK] for i in range(0, len(frames), PITCH_CHUNK))
    rms = np.concatenate([np.sqrt(np.mean(chunk * chunk, axis=1)) for chunk in chunks])
    return float(rms.mean())


def average_pitch(clip: AudioClip) -> float:
    """Mean F0 over voiced frames in Hz; 0.0 when nothing is voiced."""
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, WIN)[::HOP]
    pitches = np.concatenate(
        [_voiced_pitches(frames[i : i + PITCH_CHUNK]) for i in range(0, len(frames), PITCH_CHUNK)]
    )
    return float(np.mean(pitches)) if len(pitches) else 0.0


def _voiced_pitches(frames: np.ndarray) -> np.ndarray:
    """F0 in Hz of each voiced row of ``frames``, in row order."""
    squares = frames * frames
    loud = np.sqrt(np.mean(squares, axis=1)) >= VOICING_RMS
    frames, squares = frames[loud], squares[loud]

    # Normalized autocorrelation r(tau) for tau in _LAG_MIN.._LAG_MAX.
    spectrum = np.fft.rfft(frames, n=2 * WIN, axis=1)
    power = np.conjugate(spectrum)
    np.multiply(spectrum, power, out=power)  # operand order: see the module docstring
    raw = np.fft.irfft(power, axis=1)[:, _LAG_MIN : _LAG_MAX + 1]
    energy = np.cumsum(squares, axis=1)  # energy[:, j] = sum x[0..j]^2
    head = energy[:, WIN - 1 - _LAG_MIN : WIN - 2 - _LAG_MAX : -1]  # sum x[0..n-tau-1]^2
    tail = energy[:, -1:] - energy[:, _LAG_MIN - 1 : _LAG_MAX]  # sum x[tau..n-1]^2
    denom = np.sqrt(head * tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        window = np.where(denom > 0, raw / denom, 0.0)

    # Local maxima only; among those near the global peak take the smallest
    # lag, which resolves period multiples toward the true fundamental. A
    # row whose maximum is below VOICING_CORR has no such peak.
    best = window.max(axis=1, initial=0.0)[:, None]
    inner = window[:, 1:-1]
    peaks = (
        (inner >= window[:, :-2])
        & (inner >= window[:, 2:])
        & (inner >= 0.9 * best)
        & (inner >= VOICING_CORR)
    )
    voiced = peaks.any(axis=1)
    rows = np.flatnonzero(voiced)
    i = peaks[voiced].argmax(axis=1) + 1
    left, mid, right = window[rows, i - 1], window[rows, i], window[rows, i + 1]
    curvature = left - 2.0 * mid + right
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(curvature) > 1e-12, 0.5 * (left - right) / curvature, 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    f0 = SAMPLE_RATE / (_LAG_MIN + i + delta)
    return np.clip(f0, PITCH_MIN_HZ, PITCH_MAX_HZ)


def extract_features(clip: AudioClip, gender: str = "unknown") -> UtteranceFeatures:
    return UtteranceFeatures(
        avg_energy=average_energy(clip),
        avg_pitch_hz=average_pitch(clip),
        gender=gender,
    )


# -- on-disk caches ------------------------------------------------------
#
# Mels go into the binary parameter container (deterministic bytes, one blob
# per utterance id); scalar features go into a JSONL file.


def save_mel_cache(path, mels_by_id: dict) -> None:
    from .coremath.checkpoint import save_checkpoint

    save_checkpoint(path, {uid: np.asarray(m, dtype=np.float32) for uid, m in mels_by_id.items()})


def load_mel_cache(path) -> dict:
    from .coremath.checkpoint import load_checkpoint

    return load_checkpoint(path)


def write_features(path, features_by_id: dict) -> None:
    write_jsonl(
        path,
        ({"utterance_id": uid, **asdict(features_by_id[uid])} for uid in sorted(features_by_id)),
    )


_FEATURE_FIELDS = {"utterance_id": json_string, "avg_energy": json_finite_number,
                   "avg_pitch_hz": json_finite_number, "gender": json_string}


def load_features(path) -> dict:
    """Features by utterance id; a record whose id or gender is not a string,
    or whose energy or pitch is not a finite JSON number, is a JsonlError
    naming ``path:line`` and the field. A missing gender is "unknown"."""
    return {
        uid: UtteranceFeatures(energy, pitch, gender)
        for _, (uid, energy, pitch, gender)
        in read_records(path, _FEATURE_FIELDS, {"gender": "unknown"})
    }
