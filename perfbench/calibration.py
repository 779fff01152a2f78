"""Interpreter-speed probe for the Python-bound stages.

The machines this benchmark runs on drift in speed by tens of percent,
whatever runs on them: a fixed pure-Python loop measured in 5 s windows
over one minute took 42 ms in some windows and 77 ms in others, in CPU
time and wall time alike, and back-to-back passes of the same annotation
work differ by up to 40 %. The annotation stages run nothing but Python
(prompt strings, SHA-256, JSON, the cache file), and a short pure-Python
probe run next to each of their passes follows their speed (correlation
0.8 over 100 pairs). The features stage spends most of its time in the
pitch tracker's per-frame Python loop over small numpy arrays; over 96
back-to-back pairs on the desk corpus the probe followed it with
correlation 0.6, and dividing by the probe cut the spread of medians of
eight consecutive passes from 0.16 to 0.07.

So the probe runs, untimed, before every timed stage sample, and each
sample of those stages is divided by the probe's slowdown around it: the
median probe time nearby over ``REFERENCE_S``. Stages that spend their
time in BLAS do not follow a Python probe (dividing the paper-size
predict stage by one tripled its run-to-run spread), so they stay as
measured.
"""

from __future__ import annotations

import hashlib
import json
import time

# Median probe time on the reference machine (2 vCPU Xeon, Python 3.11).
REFERENCE_S = 0.022
CORRECTED_STAGES = ("features", "annotate_cold", "annotate_resume")

_TEXTS = [f"Transcript: utterance {i} with some words " * 3 for i in range(64)]


def probe() -> float:
    """Seconds taken by one pass of the fixed probe work."""
    start = time.perf_counter()
    for i, text in enumerate(_TEXTS * 36):
        doc = json.dumps({"prompt_hash": hashlib.sha256(text.encode()).hexdigest(),
                          "utterance_id": f"u{i:04d}", "label": "neutral"}, sort_keys=True)
        json.loads(doc)["label"].upper()
    return time.perf_counter() - start
