"""Self-test of the benchmark's correctness checks.

Each check must accept a correct output and reject the same output with one
deliberate fault: a perturbed code, a swapped label, a mis-set UAR and so
on. Run from the root of a checkout:

    python3 perfbench/selftest.py

It exits 0 when every check behaves, and names the first that does not.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from serann import dsp  # noqa: E402
from serann.annotate import AnnotationResult  # noqa: E402


def accepts(name, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        sys.exit(f"selftest: {name} rejected a correct output: {exc}")


def rejects(name, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed:
        return
    sys.exit(f"selftest: {name} accepted a faulty output")


def main() -> int:
    rng = np.random.default_rng(0)
    count = 0

    mel = rng.uniform(-1.0, 1.0, (80, 256)).astype(np.float32)
    accepts("mel", checks.check_mel, "u", mel)
    bad = mel.copy()
    bad[3, 7] = 1.5
    rejects("mel out of range", checks.check_mel, "u", bad)
    rejects("mel shape", checks.check_mel, "u", mel[:, :255])
    rejects("mel dtype", checks.check_mel, "u", mel.astype(np.float64))
    count += 3

    accepts("window cut", checks.check_window_cut, "u", mel, mel.copy())
    bad = mel.copy()
    bad[40, 200] += 1e-3
    rejects("window cut", checks.check_window_cut, "u", mel, bad)
    count += 1

    t = np.arange(16_000) / 16_000
    samples = np.round(0.4 * np.sin(2 * np.pi * 150.0 * t) * 32767) / 32768
    clip = dsp.AudioClip(samples)
    reported = dsp.average_energy(clip)
    accepts("energy", checks.check_energy, "u", reported, samples)
    rejects("energy", checks.check_energy, "u", reported * 1.001, samples)
    count += 1

    pitch = dsp.average_pitch(clip)
    accepts("pitch", checks.check_pitch, "u", pitch, 145.0, 155.0)
    rejects("pitch", checks.check_pitch, "u", 2.0 * pitch, 145.0, 155.0)
    count += 1

    codebook = rng.normal(0.0, 1.0, (64, 8))
    latents = rng.normal(0.0, 1.0, (32, 8))
    codes = checks.brute_force_codes(latents, codebook)
    accepts("codes", checks.check_codes, "u", codes, latents, codebook)
    bad = codes.copy()
    bad[5] = (bad[5] + 1) % 64
    rejects("one perturbed code", checks.check_codes, "u", bad, latents, codebook)
    tie_book = np.array([[1.0, 0.0], [-1.0, 0.0]])
    tie = np.array([[0.0, 1.0]])
    accepts("tie to lowest index", checks.check_codes, "u", [0], tie, tie_book)
    rejects("tie to a higher index", checks.check_codes, "u", [1], tie, tie_book)
    count += 2

    gold = {"a": "angry", "b": "sad", "c": "happy"}
    accepts("labels", checks.check_labels, dict(gold), gold, "t")
    rejects("swapped labels", checks.check_labels, {**gold, "a": "sad", "b": "angry"}, gold, "t")
    count += 1

    cold = [AnnotationResult(u, lab, lab, "mock:keyword", f"h{u}", "v1") for u, lab in gold.items()]
    resumed = [AnnotationResult(**r.to_json()) for r in cold]
    accepts("resume", checks.check_resume, cold, resumed, 0, 3)
    rejects("resume with a backend call", checks.check_resume, cold, resumed, 1, 3)
    rejects("resume with a cache miss", checks.check_resume, cold, resumed, 0, 2)
    changed = resumed[:-1] + [AnnotationResult(**{**resumed[-1].to_json(), "label": "sad"})]
    rejects("resume with another answer", checks.check_resume, cold, changed, 0, 3)
    count += 3

    speakers = ["s0", "s1", "s2"]
    accepts("loso", checks.check_loso, ["s2", "s0", "s1"], speakers)
    rejects("loso with a speaker twice", checks.check_loso, ["s0", "s0", "s1"], speakers)
    rejects("loso missing a speaker", checks.check_loso, ["s0", "s1"], speakers)
    count += 2

    folds = [(np.array([0, 1, 2, 3, 0, 1]), np.array([0, 1, 2, 0, 0, 3])),
             (np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]))]
    reported = float(np.mean([checks.recall_uar(g, p) for g, p in folds]))
    accepts("uar", checks.check_uar, reported, folds, True)
    rejects("mis-set uar", checks.check_uar, reported + 1e-9, folds, True)
    chance = [(np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0]))]
    rejects("uar at chance", checks.check_uar, 0.25, chance, True)
    count += 2

    accepts("reconstruction", checks.check_recon_falls, 0.8, 0.5)
    rejects("reconstruction that does not fall", checks.check_recon_falls, 0.8, 0.8)
    count += 1

    doc = {"schema_version": 1, "kind": "annotation_summary", "total": 3,
           "label_counts": {"sad": 3}, "unparseable_rate": 0.0}
    accepts("report", checks.check_report, doc)
    rejects("report out of schema", checks.check_report, {**doc, "unparseable_rate": 2.0})
    count += 1

    print(f"selftest: all {count} faulty outputs rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
