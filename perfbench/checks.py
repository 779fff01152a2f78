"""Correctness checks for the benchmark's outputs.

Each check compares a program output with a value computed here, apart
from the program, or with a property the method must have. A check raises
``CheckFailed`` with a message naming what differed. ``selftest.py`` feeds
every check a deliberately wrong output and shows that it fails.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

N_MELS = 80
N_FRAMES = 256
ENERGY_WIN = 400  # 25 ms at 16 kHz
ENERGY_HOP = 160  # 10 ms at 16 kHz
LABELS = ("angry", "happy", "neutral", "sad")


class CheckFailed(AssertionError):
    pass


def _fail(message: str) -> None:
    raise CheckFailed(message)


def read_pcm(path) -> np.ndarray:
    """16-bit mono PCM samples scaled to [-1, 1), read with the stdlib."""
    with wave.open(str(Path(path)), "rb") as handle:
        raw = handle.readframes(handle.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def check_mel(uid: str, mel) -> None:
    mel = np.asarray(mel)
    if mel.shape != (N_MELS, N_FRAMES) or mel.dtype != np.float32:
        _fail(f"{uid}: mel is {mel.shape} {mel.dtype}, expected ({N_MELS}, {N_FRAMES}) float32")
    if not np.all(np.isfinite(mel)) or mel.min() < -1.0 or mel.max() > 1.0:
        _fail(f"{uid}: mel leaves [-1, 1] (min {mel.min()}, max {mel.max()})")


def check_window_cut(uid: str, mel, mel_of_cut) -> None:
    """A clip longer than the mel window must give the mel of the clip cut
    to the window."""
    if not np.array_equal(np.asarray(mel), np.asarray(mel_of_cut)):
        diff = float(np.abs(np.asarray(mel, np.float64) - np.asarray(mel_of_cut, np.float64)).max())
        _fail(f"{uid}: mel differs from the mel of the clip cut to the window (max diff {diff})")


def rms_energy(samples: np.ndarray) -> float:
    """Mean over 25 ms / 10 ms frames of per-frame RMS."""
    n = 1 + (len(samples) - ENERGY_WIN) // ENERGY_HOP
    rms = [
        np.sqrt(np.mean(samples[i * ENERGY_HOP : i * ENERGY_HOP + ENERGY_WIN] ** 2))
        for i in range(n)
    ]
    return float(np.mean(rms))


def check_energy(uid: str, reported: float, samples: np.ndarray) -> None:
    expected = rms_energy(samples)
    if abs(reported - expected) > 1e-9 * max(1.0, expected):
        _fail(f"{uid}: energy {reported} but RMS of the WAV samples is {expected}")


def check_pitch(uid: str, reported: float, f0_low: float, f0_high: float, tol: float = 0.03) -> None:
    """Pitch must lie in the generator's f0 range, widened by ``tol``."""
    if not (f0_low * (1.0 - tol) <= reported <= f0_high * (1.0 + tol)):
        _fail(f"{uid}: pitch {reported:.2f} Hz outside the generated f0 range "
              f"[{f0_low:.2f}, {f0_high:.2f}] Hz")


def brute_force_codes(latents: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Nearest codebook row per latent in float64, lowest index on ties."""
    z = np.asarray(latents, dtype=np.float64)
    e = np.asarray(codebook, dtype=np.float64)
    out = np.empty(len(z), dtype=np.int64)
    for i, row in enumerate(z):
        diff = e - row
        out[i] = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    return out


def check_codes(uid: str, codes, latents: np.ndarray, codebook: np.ndarray) -> None:
    expected = brute_force_codes(latents, codebook)
    got = np.asarray(codes, dtype=np.int64)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        bad = int(np.sum(got != expected)) if got.shape == expected.shape else len(expected)
        _fail(f"{uid}: {bad} of {len(expected)} codes differ from the float64 brute-force argmin")


def check_labels(labels_by_id: dict, gold_by_id: dict, what: str) -> None:
    wrong = sorted(uid for uid, gold in gold_by_id.items() if labels_by_id.get(uid) != gold)
    if wrong:
        _fail(f"{what}: {len(wrong)} labels differ from gold (first {wrong[0]!r})")


def check_resume(cold: list, resumed: list, backend_calls: int, hits: int) -> None:
    """A resume from a full cache makes no backend calls and returns the
    cold pass's results."""
    if backend_calls != 0:
        _fail(f"resume made {backend_calls} backend calls")
    if hits != len(resumed):
        _fail(f"resume served {hits} of {len(resumed)} prompts from the cache")
    key = lambda r: (r.utterance_id, r.label, r.raw_response, r.prompt_hash, r.backend_id)
    if sorted(map(key, cold)) != sorted(map(key, resumed)):
        _fail("resume results differ from the cold pass")


def check_loso(fold_names: list, speakers: list) -> None:
    if sorted(fold_names) != sorted(speakers) or len(set(fold_names)) != len(fold_names):
        _fail(f"LOSO folds {sorted(fold_names)} do not test each of {sorted(speakers)} once")


def recall_uar(gold: np.ndarray, predicted: np.ndarray) -> float:
    """Unweighted mean over the classes in ``gold`` of per-class recall."""
    gold = np.asarray(gold)
    predicted = np.asarray(predicted)
    recalls = [np.count_nonzero(predicted[gold == c] == c) / np.count_nonzero(gold == c)
               for c in sorted(set(gold.tolist()))]
    return float(sum(recalls) / len(recalls))


def check_uar(reported: float, folds: list, above_chance: bool) -> None:
    """``folds`` holds (gold, predicted) index arrays, one pair per fold;
    the reported UAR must be their mean recall to 1e-12."""
    expected = float(np.mean([recall_uar(g, p) for g, p in folds]))
    if abs(reported - expected) > 1e-12:
        _fail(f"reported UAR {reported!r} but checkpoint predictions give {expected!r}")
    if above_chance and not reported > 1.0 / len(LABELS):
        _fail(f"UAR {reported} is not above chance ({1.0 / len(LABELS)})")


def check_recon_falls(initial: float, final: float) -> None:
    if not final < initial:
        _fail(f"reconstruction error {final} did not fall from {initial}")


def check_report(document: dict) -> None:
    from serann import reports

    try:
        reports.validate_report(document)
    except reports.ReportValidationError as exc:
        raise CheckFailed(f"report fails schema validation: {exc}") from exc
