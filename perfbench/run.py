"""Benchmark for serann: one workload per run, driven through serann's
public functions from the source tree of the checkout it runs in.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, and the spans go to
``perfbench_out/trace-<workload>-seed<seed>.json``. Work files live under
``.perfbench_work/`` and are removed when the run ends.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# One process generates all load; BLAS gets at most the two threads this
# machine class has, fixed before numpy loads.
BLAS_THREADS = str(max(1, min(2, len(os.sched_getaffinity(0)))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 5

RATE_OF_STAGE = {
    "features": "features_utt_per_s",
    "train_vqvae": "vqvae_train_samples_per_s",
    "encode": "encode_utt_per_s",
    "annotate_cold": "annotate_cold_prompts_per_s",
    "annotate_resume": "annotate_resume_prompts_per_s",
    "classifier_train": "classifier_train_samples_per_s",
    "predict": "predict_utt_per_s",
}
# Spans whose total seconds per round are per-layer metrics "<span>_s".
SPAN_METRICS = (
    "vqvae.nearest_codes", "vqvae.encode", "vqvae.decode", "vqvae.extract_codes",
    "classifier.forward", "classifier.blstm", "classifier.train_epoch", "classifier.predict",
    "checkpoint.save", "checkpoint.load", "experiments.run_fold",
    "dsp.read_wav", "dsp.mel_spectrogram", "dsp.extract_features",
    "annotate.build_prompt", "annotate.backend_complete", "annotate.cache_put",
    "annotate.cache_load",
)
COUNT_METRICS = ("vqvae.nearest_codes_latents", "annotate.backend_calls",
                 "annotate.cache_hits", "dsp.audio_seconds")
TRAIN_STAGES = ("train_vqvae", "classifier_train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import serann."""
    src = ROOT / "src"
    if not (src / "serann" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'serann'} not found; run from a serann checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import serann  # noqa: F401


def per_layer_metrics(rec, rounds: int, quality: dict) -> dict:
    seconds = rec.seconds_by_name()
    out = {f"{name}_s": (seconds.get(name, 0.0) / rounds, "s") for name in SPAN_METRICS}
    for name in COUNT_METRICS:
        unit = "s" if name == "dsp.audio_seconds" else "count"
        out[name] = (rec.counts.get(name, 0.0) / rounds, unit)
    for layer, span in (("backward", "coremath.backward"), ("adam_step", "coremath.adam_step")):
        by_stage = rec.seconds_by_name_and_stage(span)
        for stage in TRAIN_STAGES:
            out[f"coremath.{layer}_s.{stage}"] = (by_stage.get(stage, 0.0) / rounds, "s")
    out["vqvae.tape_nodes_per_step"] = (rec.first_counts["tape_nodes.train_vqvae"], "count")
    out["classifier.tape_nodes_per_step"] = (rec.first_counts["tape_nodes.classifier_train"], "count")
    out["experiments.uar"] = (quality["experiments.uar"], "1")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import calibration
    import checks
    import opbench
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    imports_s = time.perf_counter() - PROCESS_START

    work = ROOT / ".perfbench_work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workloads.make_inputs(w, work / "inputs", args.seed)
            workloads.warm_up(w, inputs, work / "warm_up")
            setups.append(time.perf_counter() - start)

        rec = tracing.Recorder(traced=bool(args.trace), probe=calibration.probe)
        if args.trace:
            tracing.install_layer_spans(rec)
        rounds = []
        started = time.perf_counter()
        while True:
            out = work / f"round{len(rounds) + 1}"
            rounds.append(workloads.run_round(w, inputs, out, rec))
            if len(rounds) > 1:
                shutil.rmtree(out)  # the checks read the first round's files
            # Whole rounds only: start another only if it should end in time.
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
        measured_s = time.perf_counter() - started
        rec.end_probes()
        rec.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # A stage's time is the median over its samples in the run; an
        # annotation sample is first divided by the interpreter slowdown the
        # probe saw around it (see calibration.py).
        def at_reference_speed(stage, start, end):
            if stage in calibration.CORRECTED_STAGES:
                return (end - start) / rec.slowdown(start, end, calibration.REFERENCE_S)
            return end - start

        stage_seconds = {
            stage: statistics.median(at_reference_speed(stage, *sample)
                                     for r in rounds for sample in r.stage_samples[stage])
            for stage in rounds[0].stage_samples
        }
        measured_seconds = {
            stage: statistics.median(end - start for r in rounds for start, end in r.stage_samples[stage])
            for stage in rounds[0].stage_samples
        }
        slowdown = statistics.median(s for _, s in rec.probes) / calibration.REFERENCE_S
        quality = workloads.quality(w, inputs, rounds[0])
        correct = True
        try:
            workloads.check_round(w, inputs, rounds[0], quality)
            for later in rounds[1:]:
                workloads.check_same_outputs(rounds[0], later)
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False

        if args.trace:
            metrics = per_layer_metrics(rec, len(rounds), quality)
            metrics["calibration.slowdown"] = (slowdown, "1")
            for name, value in opbench.op_timings(w, inputs).items():
                metrics[name] = (value, "s")
            out_dir = ROOT / "perfbench_out"
            rec.write(out_dir / f"trace-{w.name}-seed{args.seed}.json",
                      {"workload": w.name, "seed": args.seed, "rounds": len(rounds),
                       "measured_s": measured_s})
        else:
            metrics = {
                "setup_s": (imports_s + statistics.median(setups), "s"),
                "wall_s": (sum(stage_seconds.values()), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "uar": (quality["uar"], "1"),
                "vqvae_recon_mse": (quality["vqvae_recon_mse"], "1"),
            }
            for stage, metric in RATE_OF_STAGE.items():
                metrics[metric] = (rounds[0].work[stage] / stage_seconds[stage], "1/s")
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    print(f"{w.name} seed {args.seed}: {len(rounds)} rounds in {measured_s:.2f} s, "
          f"BLAS threads {BLAS_THREADS}, numpy {np.__version__}", file=sys.stderr)
    print("median stage seconds as measured: "
          + json.dumps({stage: round(t, 4) for stage, t in measured_seconds.items()}), file=sys.stderr)
    print(f"slowdown {slowdown:.3f}; median stage seconds at reference speed: "
          + json.dumps({stage: round(t, 4) for stage, t in stage_seconds.items()}), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
