"""Stage timing and layer spans for the benchmark.

Stage timings are always taken: they are the end-to-end measurement. Layer
spans are taken only in a traced run. They come from wrappers that this
file installs around serann's public functions and methods; serann itself
is not changed. Every span has a name, a start, an end and the index of its
parent span. Spans stay in memory and are written out once, when the run
ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    """Times benchmark stages between runs of a speed probe; with
    ``traced`` set it also records spans for the layers wrapped by
    ``install_layer_spans``."""

    def __init__(self, traced: bool, probe):
        self.traced = traced
        self.probe = probe
        self.probes: list[tuple[float, float]] = []  # (mid time, seconds)
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.first_counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._round_samples: dict[str, list[tuple[float, float]]] = {}

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _stage_of(self, index: int | None) -> str | None:
        """Name of the benchmark stage span at or above span ``index``."""
        while index is not None:
            name, _, _, parent = self.spans[index]
            if name.startswith("stage."):
                return name[len("stage."):]
            index = parent
        return None

    def stage_of_current(self) -> str | None:
        """Name of the innermost enclosing benchmark stage, if any."""
        return self._stage_of(self._stack[-1] if self._stack else None)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    # -- stages ----------------------------------------------------------

    def begin_round(self) -> None:
        self._round_samples = {}

    @contextmanager
    def stage(self, name: str):
        """Time the body as one sample of stage ``name`` in the current
        round. The speed probe runs, untimed, first; the sample is stored
        as its start and end time."""
        self._run_probe()
        start = time.perf_counter()
        if self.traced:
            with self.span(f"stage.{name}"):
                yield
        else:
            yield
        self._round_samples.setdefault(name, []).append((start, time.perf_counter()))

    def _run_probe(self) -> None:
        start = time.perf_counter()
        seconds = self.probe()
        self.probes.append((start + seconds / 2.0, seconds))

    def end_probes(self) -> None:
        """One last probe, after the last sample."""
        self._run_probe()

    def slowdown(self, start: float, end: float, reference_s: float) -> float:
        """Slowdown around a sample from ``start`` to ``end``: the median
        time of the probes within 2 s of it (or the sample's own length, if
        longer) over the probe's reference time."""
        margin = max(2.0, end - start)
        window = [s for t, s in self.probes if start - margin <= t <= end + margin]
        return statistics.median(window) / reference_s

    def round_samples(self) -> dict[str, list[tuple[float, float]]]:
        return {name: list(samples) for name, samples in self._round_samples.items()}

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner, attr: str, span_name: str | None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span (unless
        ``span_name`` is None) and then calls ``after(recorder, args,
        result)`` to record counts. When the target is a plain function,
        every serann module that imported it by name gets the wrapper too."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span_name is None:
                result = original(*args, **kwargs)
            else:
                with recorder.span(span_name):
                    result = original(*args, **kwargs)
            if after is not None:
                after(recorder, args, result)
            return result

        targets = [(owner, attr)]
        if not isinstance(owner, type):
            for name, module in list(sys.modules.items()):
                if module is None or module is owner or not name.startswith("serann"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        targets.append((module, alias))
        for target, alias in targets:
            self._patches.append((target, alias, getattr(target, alias)))
            setattr(target, alias, wrapper)

    def uninstall(self) -> None:
        for target, alias, original in reversed(self._patches):
            setattr(target, alias, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def seconds_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            if end is not None:
                out[name] += end - start
        return out

    def seconds_by_name_and_stage(self, name: str) -> dict[str, float]:
        """Total time of spans called ``name``, split by enclosing stage."""
        out: dict[str, float] = defaultdict(float)
        for span_name, start, end, parent in self.spans:
            if span_name == name and end is not None:
                out[self._stage_of(parent) or "none"] += end - start
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n")


def tape_nodes(root) -> int:
    """Number of tensors reachable from ``root`` through recorded parents:
    the set ``Tensor.backward`` visits."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install_layer_spans(rec: Recorder) -> None:
    """Wrap the public serann calls whose time the per-layer metrics report."""
    from serann import dsp, experiments, vqvae
    from serann import classifier as clf
    from serann.annotate import backends, prompts, runner
    from serann.coremath import checkpoint, layers, optim, tensor

    def audio_seconds(r, args, clip):
        r.count("dsp.audio_seconds", clip.duration_s)

    def latents(r, args, codes):
        r.count("vqvae.nearest_codes_latents", len(codes))

    def backend_call(r, args, result):
        r.count("annotate.backend_calls")

    def cache_get(r, args, hit):
        if hit is not None:
            r.count("annotate.cache_hits")

    rec.wrap(dsp, "read_wav", "dsp.read_wav", audio_seconds)
    rec.wrap(dsp, "mel_spectrogram", "dsp.mel_spectrogram")
    rec.wrap(dsp, "extract_features", "dsp.extract_features")
    rec.wrap(vqvae, "nearest_codes", "vqvae.nearest_codes", latents)
    rec.wrap(vqvae.VqVae, "encode", "vqvae.encode")
    rec.wrap(vqvae.VqVae, "decode", "vqvae.decode")
    rec.wrap(vqvae, "extract_codes", "vqvae.extract_codes")
    rec.wrap(clf.EmotionClassifier, "forward", "classifier.forward")
    rec.wrap(layers.BiLstm, "__call__", "classifier.blstm")
    rec.wrap(clf, "train_epoch", "classifier.train_epoch")
    rec.wrap(clf, "predict", "classifier.predict")
    rec.wrap(experiments, "run_fold", "experiments.run_fold")
    rec.wrap(checkpoint, "save_checkpoint", "checkpoint.save")
    rec.wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    rec.wrap(optim.Adam, "step", "coremath.adam_step")
    rec.wrap(prompts, "build_prompt", "annotate.build_prompt")
    rec.wrap(backends.MockBackend, "complete", "annotate.backend_complete", backend_call)
    rec.wrap(runner.AnnotationCache, "put", "annotate.cache_put")
    rec.wrap(runner.AnnotationCache, "__init__", "annotate.cache_load")
    rec.wrap(runner.AnnotationCache, "get", None, cache_get)

    original_backward = tensor.Tensor.backward

    def backward(self):
        stage = rec.stage_of_current() or "none"
        key = f"tape_nodes.{stage}"
        if key not in rec.first_counts:
            rec.first_counts[key] = tape_nodes(self)
        with rec.span("coremath.backward"):
            return original_backward(self)

    rec._patches.append((tensor.Tensor, "backward", original_backward))
    tensor.Tensor.backward = backward
