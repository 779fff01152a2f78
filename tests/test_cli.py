import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WAV_DAMAGE
from serann import annotate, corpus, dsp, experiments, reports, vqvae
from serann.cli import main
from serann.fileio import read_config


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full pipeline pass over a small synthetic corpus."""
    root = tmp_path_factory.mktemp("pipeline")
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(main, list(args), catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return result

    run("synth-corpus", "--out", str(root / "corpus"), "--speakers", "5",
        "--per-speaker", "4", "--seed", "3")
    manifest = root / "corpus" / "manifest.jsonl"
    run("features", "--manifest", str(manifest), "--out", str(root / "features.jsonl"),
        "--mels-out", str(root / "mels.serann"))
    run("train-vqvae", "--manifest", str(manifest), "--mels", str(root / "mels.serann"),
        "--out", str(root / "vq.serann"), "--desk-scale", "--epochs", "2", "--seed", "1",
        "--history-out", str(root / "vq-history.jsonl"))
    run("encode", "--manifest", str(manifest), "--mels", str(root / "mels.serann"),
        "--checkpoint", str(root / "vq.serann"), "--out", str(root / "codes.jsonl"))
    run("annotate", "--manifest", str(manifest), "--variant", "full", "--shots", "few",
        "--backend", "mock:oracle", "--features", str(root / "features.jsonl"),
        "--codes", str(root / "codes.jsonl"), "--seed", "5",
        "--out", str(root / "annotations.jsonl"))
    run("train-classifier", "--manifest", str(manifest), "--mels", str(root / "mels.serann"),
        "--labels-source", "llm", "--annotations", str(root / "annotations.jsonl"),
        "--folds", "fixed", "--repeats", "2", "--seed", "9", "--desk-scale",
        "--max-epochs", "2", "--out", str(root / "report.json"))
    return root


class TestPipeline:
    def test_features_outputs(self, pipeline_dir):
        lines = (pipeline_dir / "features.jsonl").read_text().strip().splitlines()
        assert len(lines) == 20
        record = json.loads(lines[0])
        assert {"utterance_id", "avg_energy", "avg_pitch_hz", "gender"} <= record.keys()

    def test_codes_outputs(self, pipeline_dir):
        lines = (pipeline_dir / "codes.jsonl").read_text().strip().splitlines()
        assert len(lines) == 20
        for line in lines:
            codes = json.loads(line)["codes"]
            assert len(codes) == 64
            assert all(0 <= c < 256 for c in codes)

    def test_annotations_match_oracle(self, pipeline_dir):
        lines = (pipeline_dir / "annotations.jsonl").read_text().strip().splitlines()
        assert len(lines) == 20
        summary = json.loads((pipeline_dir / "annotations.jsonl.summary.json").read_text())
        assert summary["kind"] == "annotation_summary"
        assert summary["unparseable"] == 0

    def test_report_is_schema_valid(self, pipeline_dir):
        runner = CliRunner()
        result = runner.invoke(
            main, ["report", "--in", str(pipeline_dir / "report.json"), "--validate"]
        )
        assert result.exit_code == 0
        assert "valid" in result.output
        doc = json.loads((pipeline_dir / "report.json").read_text())
        assert doc["kind"] == "classifier_run"
        assert doc["aggregate"]["repeats"] == 2
        assert doc["seeds"] == [9, 10]

    def test_report_summary_prints_uar(self, pipeline_dir):
        runner = CliRunner()
        result = runner.invoke(main, ["report", "--in", str(pipeline_dir / "report.json")])
        assert result.exit_code == 0
        assert "UAR" in result.output

    def test_report_summarizes_an_annotation_summary(self, pipeline_dir):
        result = CliRunner().invoke(
            main, ["report", "--in", str(pipeline_dir / "annotations.jsonl.summary.json")])
        assert result.exit_code == 0, result.output
        assert "kind: annotation_summary" in result.output
        assert "total: 20  unparseable rate: 0.000" in result.output

    def test_cross_corpus_run(self, pipeline_dir, tmp_path):
        """Speakers 0-2 train and speakers 3-4 are the held-out corpus."""
        lines = (pipeline_dir / "corpus" / "manifest.jsonl").read_text().splitlines(keepends=True)
        by_speaker = {}
        for line in lines:
            by_speaker.setdefault(json.loads(line)["speaker_id"], []).append(line)
        speakers = sorted(by_speaker)
        train, held_out = tmp_path / "train.jsonl", tmp_path / "eval.jsonl"
        train.write_text("".join(line for s in speakers[:3] for line in by_speaker[s]))
        held_out.write_text("".join(line for s in speakers[3:] for line in by_speaker[s]))
        report = tmp_path / "r.json"
        mels = str(pipeline_dir / "mels.serann")
        result = CliRunner().invoke(main, [
            "train-classifier", "--manifest", str(train), "--mels", mels, "--folds", "cross",
            "--eval-manifest", str(held_out), "--eval-mels", mels, "--desk-scale",
            "--max-epochs", "1", "--repeats", "1", "--out", str(report),
        ])
        assert result.exit_code == 0, result.output
        assert CliRunner().invoke(main, ["report", "--in", str(report), "--validate"]).output == "valid\n"
        summary = CliRunner().invoke(main, ["report", "--in", str(report)]).output
        assert "protocol: cross_corpus  labels: gold" in summary
        assert "fold cross_corpus:" in summary

    def test_per_run_artifacts_written(self, pipeline_dir):
        artifacts = pipeline_dir / "report.json.artifacts"
        checkpoints = sorted(p.name for p in artifacts.glob("*.serann"))
        histories = sorted(p.name for p in artifacts.glob("*.history.jsonl"))
        assert checkpoints == ["fixed_seed10.serann", "fixed_seed9.serann"]
        assert histories == ["fixed_seed10.history.jsonl", "fixed_seed9.history.jsonl"]
        first = json.loads((artifacts / "fixed_seed9.history.jsonl").read_text().splitlines()[0])
        assert {"epoch", "train_loss", "val_uar", "lr"} == set(first)

    def test_vqvae_history_lines(self, pipeline_dir):
        lines = (pipeline_dir / "vq-history.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert {"epoch", "reconstruction", "codebook", "commitment", "total"} <= entry.keys()


class TestIdempotence:
    def test_features_rerun_identical_bytes(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        manifest = pipeline_dir / "corpus" / "manifest.jsonl"
        result = runner.invoke(main, [
            "features", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.jsonl"), "--mels-out", str(tmp_path / "m.serann"),
        ])
        assert result.exit_code == 0
        assert (tmp_path / "f.jsonl").read_bytes() == (pipeline_dir / "features.jsonl").read_bytes()
        assert (tmp_path / "m.serann").read_bytes() == (pipeline_dir / "mels.serann").read_bytes()

    def test_encode_rerun_identical_bytes(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        manifest = pipeline_dir / "corpus" / "manifest.jsonl"
        result = runner.invoke(main, [
            "encode", "--manifest", str(manifest), "--mels", str(pipeline_dir / "mels.serann"),
            "--checkpoint", str(pipeline_dir / "vq.serann"), "--out", str(tmp_path / "codes.jsonl"),
        ])
        assert result.exit_code == 0
        assert (tmp_path / "codes.jsonl").read_bytes() == (pipeline_dir / "codes.jsonl").read_bytes()

    def test_annotate_resume_uses_cache(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        manifest = pipeline_dir / "corpus" / "manifest.jsonl"
        result = runner.invoke(main, [
            "annotate", "--manifest", str(manifest), "--variant", "full", "--shots", "few",
            "--backend", "mock:oracle", "--features", str(pipeline_dir / "features.jsonl"),
            "--codes", str(pipeline_dir / "codes.jsonl"), "--seed", "5",
            "--out", str(tmp_path / "ann.jsonl"),
            "--cache", str(pipeline_dir / "annotations.jsonl.cache.jsonl"),
        ])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "ann.jsonl.summary.json").read_text())
        assert summary["cache_hits"] == summary["total"]

    def test_annotate_resumes_from_torn_cache(self, pipeline_dir, tmp_path):
        whole = (pipeline_dir / "annotations.jsonl.cache.jsonl").read_bytes()
        last_start = whole.rstrip(b"\n").rfind(b"\n") + 1
        cache = tmp_path / "torn.cache.jsonl"
        cache.write_bytes(whole[: last_start + 10])
        manifest = pipeline_dir / "corpus" / "manifest.jsonl"
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(manifest), "--variant", "full", "--shots", "few",
            "--backend", "mock:oracle", "--features", str(pipeline_dir / "features.jsonl"),
            "--codes", str(pipeline_dir / "codes.jsonl"), "--seed", "5",
            "--out", str(tmp_path / "ann.jsonl"), "--cache", str(cache),
        ])
        assert result.exit_code == 0, result.output
        assert "dropped 1 torn record" in result.output
        summary = json.loads((tmp_path / "ann.jsonl.summary.json").read_text())
        assert summary["cache_hits"] == summary["total"] - 1
        assert cache.read_bytes() == whole


class TestFailures:
    def test_missing_wav_names_id_and_exits_nonzero(self, pipeline_dir, tmp_path):
        manifest = pipeline_dir / "corpus" / "manifest.jsonl"
        lines = manifest.read_text().strip().splitlines()
        doctored = [json.loads(line) for line in lines[:3]]
        doctored[1]["audio_path"] = "audio/not_there.wav"
        bad_manifest = tmp_path / "bad.jsonl"
        bad_manifest.write_text("\n".join(json.dumps(d) for d in doctored))
        # audio paths resolve relative to the manifest location
        (tmp_path / "audio").mkdir()
        for doc in (doctored[0], doctored[2]):
            src = pipeline_dir / "corpus" / doc["audio_path"]
            dst = tmp_path / doc["audio_path"]
            dst.parent.mkdir(parents=True, exist_ok=True)
            dst.write_bytes(src.read_bytes())
        runner = CliRunner()
        result = runner.invoke(main, [
            "features", "--manifest", str(bad_manifest),
            "--out", str(tmp_path / "f.jsonl"), "--mels-out", str(tmp_path / "m.serann"),
        ])
        assert result.exit_code == 1
        assert doctored[1]["utterance_id"] in result.output

    def test_bad_vqvae_config_rejected(self, pipeline_dir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vqvae": {"codebook_size": 0}}))
        runner = CliRunner()
        result = runner.invoke(main, [
            "train-vqvae", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(pipeline_dir / "mels.serann"), "--out", str(tmp_path / "x.serann"),
            "--desk-scale", "--config", str(config),
        ])
        assert result.exit_code == 1
        assert "config" in result.output

    def test_annotate_requires_features_for_contextual_variants(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--variant", "text-energy-f0", "--backend", "mock:keyword",
            "--out", str(tmp_path / "a.jsonl"),
        ])
        assert result.exit_code == 1
        assert "--features" in result.output

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_train_vqvae_rejects_epochs_below_one(self, pipeline_dir, tmp_path, epochs):
        out = tmp_path / "vq.serann"
        result = CliRunner().invoke(main, [
            "train-vqvae", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(pipeline_dir / "mels.serann"), "--out", str(out),
            "--desk-scale", "--epochs", epochs,
        ])
        assert result.exit_code == 2, result.output
        assert "--epochs" in result.output
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, inputs", [
        ("train-classifier", ("--manifest", "corpus/manifest.jsonl", "--mels", "mels.serann")),
        ("augment-eval", ("--base-manifest", "corpus/manifest.jsonl", "--base-mels", "mels.serann",
                          "--extra-manifest", "corpus/manifest.jsonl", "--extra-mels", "mels.serann",
                          "--extra-annotations", "annotations.jsonl")),
    ])
    def test_training_commands_reject_zero_repeats(self, pipeline_dir, tmp_path, command, inputs):
        paths = [str(pipeline_dir / arg) if not arg.startswith("--") else arg for arg in inputs]
        result = CliRunner().invoke(main, [
            command, *paths, "--repeats", "0", "--desk-scale", "--out", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 2, result.output
        assert "'--repeats'" in result.output
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec, message", [
        ("mock:fixed", "fixed policy needs a label"),
        ("mock:bogus", "unknown mock policy 'bogus'"),
    ])
    def test_annotate_rejects_bad_mock_spec(self, pipeline_dir, tmp_path, spec, message):
        out = tmp_path / "a.jsonl"
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", spec, "--out", str(out),
        ])
        assert result.exit_code == 1, result.output
        assert f"error: {message}" in result.output
        assert "Traceback" not in result.output
        assert list(tmp_path.iterdir()) == []


def container_header_offsets(raw):
    """Offsets of every byte of a ``.serann`` container that is not blob data."""
    offsets = list(range(12))  # magic, version, blob count
    off = 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        (name_len,) = struct.unpack_from("<H", raw, off)
        code, ndim = struct.unpack_from("<BB", raw, off + 2 + name_len)
        end = off + 4 + name_len + 4 * ndim
        dims = struct.unpack_from(f"<{ndim}I", raw, end - 4 * ndim)
        offsets += range(off, end)
        off = end + math.prod(dims) * (4, 8)[code]
    return offsets


def assert_error_line(result, *fragments):
    """Exit status 1 with an ``error:`` line naming ``fragments``, and no
    exception escaping the command (which would print a traceback)."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    [line] = [line for line in result.output.splitlines() if line.startswith("error: ")]
    for fragment in fragments:
        assert fragment in line


def edited_first_record(name, **fields):
    """The text of the fixture's JSONL file ``name`` with ``fields`` set in
    its first record."""
    def text(root):
        first, *rest = (root / name).read_text().splitlines(keepends=True)
        return json.dumps({**json.loads(first), **fields}) + "\n" + "".join(rest)
    return text


_JSON_KINDS = {type(None): "null", bool: "boolean", int: "number", float: "number",
               str: "string", list: "array", dict: "object"}


def damaged_jsonl(raw: bytes, damage: str, rng: random.Random) -> bytes:
    """``raw`` cut at a seeded byte, with one byte flipped, or with one
    record edited: a field dropped, retyped or added, or the record wrapped
    in a list."""
    if damage in ("truncate", "flip"):
        return damaged_bytes(raw, damage, rng)
    lines = raw.decode().splitlines()
    i = rng.randrange(len(lines))
    lines[i] = json.dumps(edited_record(json.loads(lines[i]), damage, rng))
    return ("\n".join(lines) + "\n").encode()


def damaged_json(raw: bytes, damage: str, rng: random.Random) -> bytes:
    """The JSON document ``raw`` damaged as ``damaged_jsonl`` damages a
    file, where the edited record is any non-empty object in the document,
    nested ones included."""
    if damage in ("truncate", "flip"):
        return damaged_bytes(raw, damage, rng)
    holder = {"document": json.loads(raw)}
    slots, stack = [], [(holder, "document")]
    while stack:
        container, key = stack.pop()
        value = container[key]
        if isinstance(value, dict) and value:
            slots.append((container, key))
        if isinstance(value, (dict, list)):
            stack.extend((value, k) for k in (value if isinstance(value, dict) else range(len(value))))
    container, key = rng.choice(slots)
    container[key] = edited_record(container[key], damage, rng)
    return json.dumps(holder["document"], indent=2).encode()


def damaged_bytes(raw: bytes, damage: str, rng: random.Random) -> bytes:
    if damage == "truncate":
        return raw[: rng.randrange(len(raw))]
    out = bytearray(raw)
    out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
    return bytes(out)


def edited_record(record: dict, damage: str, rng: random.Random):
    key = rng.choice(sorted(record))
    if damage == "drop":
        del record[key]
    elif damage == "retype":
        kind = _JSON_KINDS[type(record[key])]
        record[key] = rng.choice([v for v in (None, True, 7, "x", [1], {"a": 1})
                                  if _JSON_KINDS[type(v)] != kind])
    elif damage == "add":
        record[f"extra_{rng.randrange(100)}"] = rng.choice([None, 1, "x"])
    else:
        return [record]
    return record


def read_vqvae_config(path):
    """The desk VQ-VAE config with the ``vqvae`` section of ``path`` laid over it."""
    return read_config(vqvae.VqVaeConfig, path, "vqvae", vqvae.VqVaeConfig.desk())


# The quick start's JSONL files, each with its reader and a command that
# reads it; DAMAGED is the damaged copy and OUT an empty directory.
JSONL_READERS = {
    "corpus/manifest.jsonl": (corpus.load_manifest, [
        "annotate", "--manifest", "DAMAGED", "--out", "OUT/a.jsonl"]),
    "features.jsonl": (dsp.load_features, [
        "annotate", "--manifest", "MANIFEST", "--variant", "full",
        "--features", "DAMAGED", "--codes", "CODES", "--out", "OUT/a.jsonl"]),
    "codes.jsonl": (vqvae.load_codes, [
        "annotate", "--manifest", "MANIFEST", "--variant", "full",
        "--features", "FEATURES", "--codes", "DAMAGED", "--out", "OUT/a.jsonl"]),
    "annotations.jsonl.cache.jsonl": (annotate.AnnotationCache, [
        "annotate", "--manifest", "MANIFEST", "--variant", "full", "--shots", "few",
        "--backend", "mock:oracle", "--features", "FEATURES", "--codes", "CODES",
        "--seed", "5", "--cache", "DAMAGED", "--out", "OUT/a.jsonl"]),
    "annotations.jsonl": (annotate.load_annotations, [
        "train-classifier", "--manifest", "MANIFEST", "--mels", "MELS", "--labels-source", "llm",
        "--annotations", "DAMAGED", "--folds", "fixed", "--repeats", "1", "--desk-scale",
        "--max-epochs", "1", "--out", "OUT/r.json"]),
}


# The JSON documents, a desk VQ-VAE config, the fixture's report and its
# VQ-VAE's sidecar, each with its reader and a command that reads it;
# CHECKPOINT is a copy of the VQ-VAE container beside the damaged sidecar.
JSON_READERS = {
    "config.json": (read_vqvae_config, [
        "train-vqvae", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale", "--epochs", "1",
        "--config", "DAMAGED", "--out", "OUT/vq.serann"]),
    "report.json": (lambda path: reports.validate_report(reports.read_report(path)), [
        "report", "--in", "DAMAGED"]),
    "vq.serann.config.json": (lambda path: read_config(vqvae.VqVaeConfig, path), [
        "encode", "--manifest", "MANIFEST", "--mels", "MELS", "--checkpoint", "CHECKPOINT",
        "--out", "OUT/codes.jsonl"]),
}


class TestMalformedInputs:
    @pytest.mark.parametrize("command, cut_name, size", [
        ("encode", "vq.serann", 20),
        ("train-vqvae", "mels.serann", 30),
        ("train-classifier", "mels.serann", 30),
    ])
    def test_truncated_container_names_the_file(self, pipeline_dir, tmp_path, command, cut_name, size):
        files = {name: str(pipeline_dir / name) for name in ("mels.serann", "vq.serann")}
        cut = tmp_path / cut_name
        cut.write_bytes((pipeline_dir / cut_name).read_bytes()[:size])
        sidecar = pipeline_dir / (cut_name + ".config.json")
        if sidecar.exists():
            (tmp_path / sidecar.name).write_bytes(sidecar.read_bytes())
        files[cut_name] = str(cut)
        args = {
            "encode": ["--checkpoint", files["vq.serann"], "--out", str(tmp_path / "c.jsonl")],
            "train-vqvae": ["--out", str(tmp_path / "x.serann"), "--desk-scale", "--epochs", "1"],
            "train-classifier": ["--out", str(tmp_path / "r.json"), "--desk-scale",
                                 "--max-epochs", "1", "--repeats", "1", "--folds", "fixed"],
        }[command]
        result = CliRunner().invoke(main, [
            command, "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", files["mels.serann"], *args,
        ])
        assert_error_line(result, str(cut), "truncated")

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["vq.serann", "mels.serann"]), st.booleans(),
           st.integers(0, 2**32 - 1), st.integers(1, 255))
    def test_damaged_container_fails_as_one_line(self, pipeline_dir, tmp_path_factory,
                                                 target, flip, point, mask):
        """``encode`` over a container cut at a seeded byte, or with a seeded
        header byte flipped, succeeds or names the file in one error line."""
        raw = bytearray((pipeline_dir / target).read_bytes())
        if flip:
            headers = container_header_offsets(raw)
            raw[headers[point % len(headers)]] ^= mask
        else:
            raw = raw[: point % len(raw)]
        work = tmp_path_factory.mktemp("damaged")
        damaged = work / target
        damaged.write_bytes(raw)
        files = {name: str(pipeline_dir / name) for name in ("mels.serann", "vq.serann")}
        files[target] = str(damaged)
        (work / "vq.serann.config.json").write_bytes((pipeline_dir / "vq.serann.config.json").read_bytes())
        result = CliRunner().invoke(main, [
            "encode", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", files["mels.serann"], "--checkpoint", files["vq.serann"],
            "--out", str(work / "codes.jsonl"),
        ])
        if result.exit_code != 0:
            assert_error_line(result, str(damaged))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(JSONL_READERS)),
           st.sampled_from(["truncate", "flip", "drop", "retype", "add", "wrap"]),
           st.integers(0, 2**32 - 1))
    def test_damaged_jsonl_fails_as_one_line(self, pipeline_dir, tmp_path_factory,
                                             target, damage, seed):
        """The command that reads a JSONL file with seeded damage succeeds or
        fails in one error line, which names the file if its reader refuses
        it. Damage the reader accepts, such as a cut at a line end, leaves a
        well-formed file that a later stage may still refuse (a class with no
        test records, say)."""
        work = tmp_path_factory.mktemp("damaged")
        damaged = work / Path(target).name
        damaged.write_bytes(damaged_jsonl((pipeline_dir / target).read_bytes(), damage,
                                          random.Random(seed)))
        (work / "out").mkdir()
        paths = {"MANIFEST": pipeline_dir / "corpus" / "manifest.jsonl",
                 "FEATURES": pipeline_dir / "features.jsonl", "CODES": pipeline_dir / "codes.jsonl",
                 "MELS": pipeline_dir / "mels.serann", "DAMAGED": damaged, "OUT": work / "out"}
        reader, command = JSONL_READERS[target]
        result = CliRunner().invoke(main, [
            str(paths[arg]) if arg in paths else arg.replace("OUT", str(paths["OUT"]))
            for arg in command])
        try:
            reader(damaged)  # after the run: the cache reader cuts a torn last line
            refused = ""
        except ValueError:
            refused = str(damaged)
        if result.exit_code != 0 or refused:
            assert_error_line(result, refused)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(JSON_READERS)),
           st.sampled_from(["truncate", "flip", "drop", "retype", "add", "wrap"]),
           st.integers(0, 2**32 - 1))
    def test_damaged_json_fails_as_one_line(self, pipeline_dir, tmp_path_factory,
                                            target, damage, seed):
        """The command that reads a JSON document with seeded damage succeeds
        or fails in one error line, which names the file if its reader
        refuses it. An accepted config may still fail later, as a learning
        rate that makes the loss non-finite does."""
        work = tmp_path_factory.mktemp("damaged")
        (work / "out").mkdir()
        sources = {"config.json": json.dumps({"vqvae": asdict(vqvae.VqVaeConfig.desk())}, indent=2),
                   "report.json": (pipeline_dir / "report.json").read_text(),
                   "vq.serann.config.json": (pipeline_dir / "vq.serann.config.json").read_text()}
        damaged = work / target
        damaged.write_bytes(damaged_json(sources[target].encode(), damage, random.Random(seed)))
        (work / "vq.serann").write_bytes((pipeline_dir / "vq.serann").read_bytes())
        paths = {"MANIFEST": pipeline_dir / "corpus" / "manifest.jsonl",
                 "MELS": pipeline_dir / "mels.serann", "CHECKPOINT": work / "vq.serann",
                 "DAMAGED": damaged, "OUT": work / "out"}
        reader, command = JSON_READERS[target]
        result = CliRunner().invoke(main, [
            str(paths[arg]) if arg in paths else arg.replace("OUT", str(paths["OUT"]))
            for arg in command])
        try:
            reader(damaged)
            refused = ""
        except (TypeError, ValueError):
            refused = str(damaged)
        if result.exit_code != 0 or refused:
            assert_error_line(result, refused)

    def test_manifest_line_missing_fields(self, pipeline_dir, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"utterance_id": "u1", "audio_path": "a.wav"}\n')
        result = CliRunner().invoke(main, [
            "features", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.jsonl"), "--mels-out", str(tmp_path / "m.serann"),
        ])
        assert_error_line(result, f"{manifest}:1", "missing field 'transcript'")

    @pytest.mark.parametrize("option, source, line, expected", [
        ("--features", "features.jsonl", "not json", "invalid JSON"),
        ("--features", "features.jsonl", '{"utterance_id": "x", "avg_pitch_hz": 1.0}',
         "missing field 'avg_energy'"),
        ("--codes", "codes.jsonl", '{"utterance_id": "x"}', "missing field 'codes'"),
        ("--features", "features.jsonl",
         '{"utterance_id": "x", "avg_energy": "loud", "avg_pitch_hz": 1.0}', "field 'avg_energy'"),
        ("--features", "features.jsonl",
         '{"utterance_id": 7, "avg_energy": true, "avg_pitch_hz": "nan", "gender": 5}',
         "field 'utterance_id'"),
        ("--codes", "codes.jsonl", '{"utterance_id": "x", "codes": ["x"]}', "field 'codes'"),
        ("--codes", "codes.jsonl", '{"utterance_id": "x", "codes": "123"}', "field 'codes'"),
    ])
    def test_bad_context_file_line(self, pipeline_dir, tmp_path, option, source, line, expected):
        bad = tmp_path / source
        good = (pipeline_dir / source).read_text().splitlines()
        bad.write_text("\n".join(good[:2] + [line] + good[2:]) + "\n")
        context = {"--features": str(pipeline_dir / "features.jsonl"),
                   "--codes": str(pipeline_dir / "codes.jsonl"), option: str(bad)}
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--variant", "full", "--backend", "mock:oracle",
            *(arg for pair in context.items() for arg in pair), "--out", str(tmp_path / "a.jsonl"),
        ])
        assert_error_line(result, f"{bad}:3", expected)
        assert not (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("option, source", [("--features", "features.jsonl"),
                                                ("--codes", "codes.jsonl")])
    def test_context_file_lacking_a_record_is_named(self, pipeline_dir, tmp_path, option, source):
        bad = tmp_path / source
        bad.write_text("".join((pipeline_dir / source).read_text().splitlines(keepends=True)[:-1]))
        context = {"--features": str(pipeline_dir / "features.jsonl"),
                   "--codes": str(pipeline_dir / "codes.jsonl"), option: str(bad)}
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--variant", "full", "--backend", "mock:oracle",
            *(arg for pair in context.items() for arg in pair), "--out", str(tmp_path / "a.jsonl"),
        ])
        assert_error_line(result, f"{bad} ({option})", "missing for 1 records")

    @pytest.mark.parametrize("option, source", [("--features", "features.jsonl"),
                                                ("--codes", "codes.jsonl")])
    def test_few_shot_exemplar_lacking_context_is_named(self, pipeline_dir, tmp_path, option, source):
        """A pool under ``p0_`` ids whose ``--few-shot-*`` file holds one
        record: the error names that file and the target's."""
        pool = TestMelCacheCheck.relabeled(pipeline_dir / "corpus" / "manifest.jsonl", tmp_path, "p0_")
        context = {}
        for flag, name in (("--features", "features.jsonl"), ("--codes", "codes.jsonl")):
            pooled = Path(TestMelCacheCheck.relabeled(pipeline_dir / name, tmp_path, "p0_"))
            if flag == option:
                pooled.write_text(pooled.read_text().splitlines(keepends=True)[0])
            context[flag] = str(pipeline_dir / name)
            context[flag.replace("--", "--few-shot-")] = str(pooled)
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--variant", "full", "--shots", "few", "--backend", "mock:oracle",
            "--few-shot-manifest", pool, *(arg for pair in context.items() for arg in pair),
            "--out", str(tmp_path / "a.jsonl"),
        ])
        few_shot_option = option.replace("--", "--few-shot-")
        assert_error_line(result, f"{pipeline_dir / source} ({option}), "
                                  f"{context[few_shot_option]} ({few_shot_option})",
                          "records (first: 'p0_")
        assert not (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda c: {**c, "extra": 1}, "field 'extra': not a setting", id="extra-field"),
        pytest.param(lambda c: {k: v for k, v in c.items() if k != "channels"},
                     "field 'channels': missing", id="missing-channels"),
        pytest.param(lambda c: {**c, "channels": 5}, "field 'channels': expected a list, got int",
                     id="channels-a-number"),
        pytest.param(lambda c: {**c, "kernel": 2.5}, "field 'kernel': expected an integer",
                     id="kernel-a-fraction"),
        pytest.param(lambda c: [c], "expected a JSON object, got list", id="a-list"),
        pytest.param(lambda c: {**c, "beta": -1.0}, "beta must be positive", id="refused-beta"),
        pytest.param(lambda c: {**c, "codebook_size": c["codebook_size"] // 2},
                     "the container and its sidecar", id="codebook-size-of-another-model"),
    ])
    def test_damaged_sidecar_is_one_error_line(self, pipeline_dir, tmp_path, edit, expected):
        checkpoint = tmp_path / "vq.serann"
        checkpoint.write_bytes((pipeline_dir / "vq.serann").read_bytes())
        sidecar = tmp_path / "vq.serann.config.json"
        sidecar.write_text(json.dumps(edit(json.loads(
            (pipeline_dir / "vq.serann.config.json").read_text()))))
        result = CliRunner().invoke(main, [
            "encode", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(pipeline_dir / "mels.serann"), "--checkpoint", str(checkpoint),
            "--out", str(tmp_path / "codes.jsonl"),
        ])
        assert_error_line(result, str(sidecar), expected)
        assert not (tmp_path / "codes.jsonl").exists()

    def test_test_split_without_a_class_names_fold_seed_and_split(self, pipeline_dir, tmp_path):
        annotations = tmp_path / "annotations.jsonl"
        lines = (pipeline_dir / "annotations.jsonl").read_text().splitlines(keepends=True)
        annotations.write_text("".join(lines[:8]))
        result = CliRunner().invoke(main, [
            "train-classifier", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(pipeline_dir / "mels.serann"), "--labels-source", "llm",
            "--annotations", str(annotations), "--folds", "fixed", "--repeats", "1",
            "--desk-scale", "--max-epochs", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert_error_line(result, "fold 'fixed', seed 0: test split of", "has zero support")

    @pytest.mark.parametrize("args, text, expected", [
        pytest.param(
            ["train-classifier", "--manifest", "MANIFEST", "--mels", "MELS", "--folds", "fixed",
             "--labels-source", "llm", "--annotations", "BAD", "--out", "OUT/r.json"],
            '{"utterance_id": "x"}\n', "BAD:1: missing field 'label'",
            id="annotations-missing-field"),
        pytest.param(
            ["annotate", "--manifest", "MANIFEST", "--backend", "mock:keyword",
             "--cache", "BAD", "--out", "OUT/a.jsonl"],
            lambda root: "".join(
                json.dumps({k: v for k, v in json.loads(line).items() if k != "backend_id"}) + "\n"
                for line in (root / "annotations.jsonl.cache.jsonl").read_text().splitlines()
            ),
            "BAD:1: missing field 'backend_id'", id="cache-missing-field"),
        pytest.param(
            ["annotate", "--manifest", "MANIFEST", "--backend", "mock:keyword",
             "--cache", "BAD", "--out", "OUT/a.jsonl"],
            edited_first_record("annotations.jsonl.cache.jsonl", label="joy"),
            "BAD:1: field 'label': expected one of", id="cache-label-outside-the-classes"),
        pytest.param(
            ["train-classifier", "--manifest", "BAD", "--mels", "MELS", "--desk-scale",
             "--max-epochs", "1", "--repeats", "1", "--out", "OUT/r.json"],
            edited_first_record("corpus/manifest.jsonl", speaker_id=5),
            "BAD:1: field 'speaker_id': expected a string, got int", id="manifest-speaker-not-a-string"),
        pytest.param(
            ["annotate", "--manifest", "BAD", "--out", "OUT/a.jsonl"],
            edited_first_record("corpus/manifest.jsonl", transcript=["a"]),
            "BAD:1: field 'transcript': expected a string, got list",
            id="manifest-transcript-not-a-string"),
        pytest.param(
            ["annotate", "--manifest", "BAD", "--out", "OUT/a.jsonl"],
            edited_first_record("corpus/manifest.jsonl", gender="robot"),
            "BAD:1: spk00_utt000: gender 'robot' not in", id="manifest-gender-outside-the-choices"),
        pytest.param(
            ["train-vqvae", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale",
             "--config", "BAD", "--out", "OUT/vq.serann"],
            "{bad", "BAD: invalid JSON", id="config-not-json"),
        pytest.param(
            ["train-classifier", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale",
             "--config", "BAD", "--out", "OUT/r.json"],
            "[1]", "BAD: expected a JSON object", id="config-not-an-object"),
        pytest.param(
            ["train-vqvae", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale",
             "--config", "BAD", "--out", "OUT/vq.serann"],
            '{"vqvae": [1]}', "BAD: section 'vqvae' must be a JSON object",
            id="config-section-not-an-object"),
        pytest.param(
            ["train-vqvae", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale",
             "--epochs", "1", "--config", "BAD", "--out", "OUT/vq.serann"],
            '{"vqvea": {"codebook_size": 0}}', "BAD: 'vqvea' is not a config section",
            id="config-section-misspelt"),
        pytest.param(["report", "--in", "BAD"], "not json\n", "BAD: invalid JSON",
                     id="report-not-json"),
        *(pytest.param(
            ["train-vqvae", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale",
             "--config", "BAD", "--out", "OUT/vq.serann"],
            json.dumps({"vqvae": {name: value}}), f"invalid vqvae config in BAD: field {name!r}",
            id=f"config-vqvae-{name}")
          for name, value in [("learning_rate", "x"), ("kernel", 2.5), ("codebook_size", 1.5),
                              ("channels", [4, 8, 16, 32.0, 64])]),
        *(pytest.param(
            ["train-classifier", "--manifest", "MANIFEST", "--mels", "MELS", "--desk-scale",
             "--config", "BAD", "--out", "OUT/r.json"],
            json.dumps({"classifier": {name: value}}),
            f"invalid classifier config in BAD: field {name!r}",
            id=f"config-classifier-{name}")
          for name, value in [("lr_init", "fast"), ("batch_size", 2.5), ("conv_stride", 0),
                              ("blstm_units", 0), ("plateau_patience", None),
                              ("conv1_kernel", 300)]),
    ])
    def test_bad_file_is_one_error_line(self, pipeline_dir, tmp_path, args, text, expected):
        bad = tmp_path / "bad"
        bad.write_text(text(pipeline_dir) if callable(text) else text)
        out = tmp_path / "out"
        out.mkdir()
        paths = {"MANIFEST": pipeline_dir / "corpus" / "manifest.jsonl",
                 "MELS": pipeline_dir / "mels.serann", "BAD": bad, "OUT": out}

        def fill(arg):
            for name, path in paths.items():
                arg = arg.replace(name, str(path))
            return arg

        result = CliRunner().invoke(main, [fill(arg) for arg in args])
        assert_error_line(result, fill(expected))
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("damage, message", WAV_DAMAGE.values(), ids=WAV_DAMAGE.keys())
    def test_unreadable_wav_is_a_per_record_failure(self, pipeline_dir, tmp_path, damage, message):
        lines = (pipeline_dir / "corpus" / "manifest.jsonl").read_text().splitlines()[:3]
        records = [json.loads(line) for line in lines]
        for record in records:
            wav = tmp_path / record["audio_path"]
            wav.parent.mkdir(parents=True, exist_ok=True)
            wav.write_bytes((pipeline_dir / "corpus" / record["audio_path"]).read_bytes())
        bad = tmp_path / records[1]["audio_path"]
        bad.write_bytes(damage(bad.read_bytes()))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(main, [
            "features", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.jsonl"), "--mels-out", str(tmp_path / "m.serann"),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert "features: 2 ok, 1 failed" in result.output
        line = next(line for line in result.output.splitlines() if line.startswith("  "))
        assert line.startswith(f"  {records[1]['utterance_id']}: {bad}: ")
        assert message in line
        assert "Traceback" not in result.output

    def test_manifest_line_not_an_object(self, pipeline_dir, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("[1]\n")
        result = CliRunner().invoke(main, [
            "features", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.jsonl"), "--mels-out", str(tmp_path / "m.serann"),
        ])
        assert_error_line(result, f"{manifest}:1", "expected a JSON object, got list")

    def test_outputs_into_missing_directories(self, pipeline_dir, tmp_path):
        mels, features = tmp_path / "new" / "m.serann", tmp_path / "other" / "f.jsonl"
        result = CliRunner().invoke(main, [
            "features", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--out", str(features), "--mels-out", str(mels),
        ])
        assert result.exit_code == 0, result.output
        assert mels.read_bytes() == (pipeline_dir / "mels.serann").read_bytes()
        assert features.read_bytes() == (pipeline_dir / "features.jsonl").read_bytes()

    def test_cache_record_with_an_extra_field(self, pipeline_dir, tmp_path):
        cache = tmp_path / "cache.jsonl"
        lines = (pipeline_dir / "annotations.jsonl.cache.jsonl").read_text().splitlines()
        cache.write_text("".join(
            json.dumps({**json.loads(line), "extra": 1}) + "\n" for line in lines
        ))
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--variant", "full", "--shots", "few", "--backend", "mock:oracle",
            "--features", str(pipeline_dir / "features.jsonl"),
            "--codes", str(pipeline_dir / "codes.jsonl"), "--seed", "5",
            "--out", str(tmp_path / "ann.jsonl"), "--cache", str(cache),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "ann.jsonl.summary.json").read_text())
        assert summary["cache_hits"] == summary["total"]
        assert (tmp_path / "ann.jsonl").read_bytes() == (
            pipeline_dir / "annotations.jsonl").read_bytes()


class TestMelCacheCheck:
    """A record the run trains or tests on without a cached mel stops the
    command before anything trains."""

    @staticmethod
    def short_mels(pipeline_dir, tmp_path, prefix=""):
        """The corpus mels keyed ``prefix + id``, without the last record's;
        returns the cache path and the missing key."""
        mels = dsp.load_mel_cache(pipeline_dir / "mels.serann")
        missing = prefix + sorted(mels)[-1]
        path = tmp_path / f"{prefix}short.serann"
        dsp.save_mel_cache(path, {prefix + k: v for k, v in mels.items() if prefix + k != missing})
        return str(path), missing

    @staticmethod
    def relabeled(path, tmp_path, prefix, edit=lambda record: None):
        """A copy of the JSONL at ``path`` with every id prefixed."""
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            record["utterance_id"] = prefix + record["utterance_id"]
            edit(record)
        out = tmp_path / f"{prefix}{path.name}"
        out.write_text("".join(json.dumps(record) + "\n" for record in records))
        return str(out)

    def augment_args(self, pipeline_dir, tmp_path, unparseable_missing=False):
        """Base: the corpus. Extras: its records again under ``x`` ids, the
        last one's mel missing (and its label unparseable if asked)."""
        extra_mels, missing = self.short_mels(pipeline_dir, tmp_path, prefix="x")

        def edit(record):
            if unparseable_missing and record["utterance_id"] == missing:
                record["label"] = "unparseable"

        return missing, [
            "augment-eval", "--base-manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--base-mels", str(pipeline_dir / "mels.serann"),
            "--extra-manifest",
            self.relabeled(pipeline_dir / "corpus" / "manifest.jsonl", tmp_path, "x"),
            "--extra-mels", extra_mels, "--extra-annotations",
            self.relabeled(pipeline_dir / "annotations.jsonl", tmp_path, "x", edit),
        ]

    @pytest.mark.parametrize("protocol", ["loso", "fixed", "cross", "augment"])
    def test_missing_mel_stops_the_run(self, pipeline_dir, tmp_path, protocol):
        manifest = pipeline_dir / "corpus" / "manifest.jsonl"
        if protocol == "augment":
            missing, args = self.augment_args(pipeline_dir, tmp_path)
            short = args[args.index("--extra-mels") + 1]
        else:
            short, missing = self.short_mels(pipeline_dir, tmp_path)
            args = ["train-classifier", "--folds", protocol, "--mels", short]
            if protocol == "cross":
                lines = manifest.read_text().splitlines()
                manifest, held_out = tmp_path / "train.jsonl", tmp_path / "eval.jsonl"
                manifest.write_text("\n".join(lines[:12]) + "\n")
                held_out.write_text("\n".join(lines[12:]) + "\n")
                args += ["--eval-manifest", str(held_out), "--eval-mels", short]
            args += ["--manifest", str(manifest)]
        out = tmp_path / "out"
        result = CliRunner().invoke(main, [
            *args, "--desk-scale", "--max-epochs", "1", "--repeats", "1",
            "--out", str(out / "r.json"),
        ])
        assert_error_line(result, short, f"mel cache is missing 1 records (first: {missing!r})")
        assert not out.exists()

    def test_extras_left_out_of_training_need_no_mel(self, pipeline_dir, tmp_path):
        _, args = self.augment_args(pipeline_dir, tmp_path, unparseable_missing=True)
        result = CliRunner().invoke(main, [
            *args, "--desk-scale", "--max-epochs", "1", "--repeats", "1",
            "--out", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["extra_records_used"], report["extra_records_excluded"]) == (19, 1)

    def test_extras_without_annotations_are_counted(self, pipeline_dir, tmp_path):
        """Extras whose annotation is absent are left out and counted on
        stderr; ``report`` summarizes the augment_eval document."""
        _, args = self.augment_args(pipeline_dir, tmp_path)
        annotations = Path(args[args.index("--extra-annotations") + 1])
        # Drop the last four annotations, the extra without a mel among them.
        annotations.write_text("".join(annotations.read_text().splitlines(keepends=True)[:-4]))
        report = tmp_path / "r.json"
        result = CliRunner().invoke(main, [
            *args, "--desk-scale", "--max-epochs", "1", "--repeats", "1", "--out", str(report),
        ])
        assert result.exit_code == 0, result.output
        assert result.stderr == "excluding 4 extra records without annotations\n"
        summary = CliRunner().invoke(main, ["report", "--in", str(report)])
        assert summary.exit_code == 0, summary.output
        assert summary.output.startswith("kind: augment_eval (schema v1)\nbaseline ")
        assert "-> augmented" in summary.output

    @pytest.mark.parametrize("label", ["joy", 7])
    def test_extra_label_outside_the_classes_is_one_error_line(self, pipeline_dir, tmp_path, label):
        """Extras without gold labels train on their annotated label, so one
        outside the four classes stops the run at the annotations file."""
        corpus_mels = dsp.load_mel_cache(pipeline_dir / "mels.serann")
        extra_mels = tmp_path / "xmels.serann"
        dsp.save_mel_cache(extra_mels, {"x" + uid: mel for uid, mel in corpus_mels.items()})
        first = "x" + sorted(corpus_mels)[0]

        def edit(record):
            if record["utterance_id"] == first:
                record["label"] = label

        annotations = self.relabeled(pipeline_dir / "annotations.jsonl", tmp_path, "x", edit)
        result = CliRunner().invoke(main, [
            "augment-eval", "--base-manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--base-mels", str(pipeline_dir / "mels.serann"),
            "--extra-manifest", self.relabeled(pipeline_dir / "corpus" / "manifest.jsonl", tmp_path, "x",
                                               lambda record: record.pop("gold_label")),
            "--extra-mels", str(extra_mels), "--extra-annotations", annotations,
            "--desk-scale", "--max-epochs", "1", "--repeats", "1", "--out", str(tmp_path / "r.json"),
        ])
        assert_error_line(result, f"{annotations}:1", "field 'label'")  # ids are written sorted
        assert sum(line.startswith("error: ") for line in result.output.splitlines()) == 1

    @pytest.mark.parametrize("command", ["train-vqvae", "train-classifier"])
    def test_nan_mel_stops_training_as_one_error_line(self, pipeline_dir, tmp_path, command):
        mels = dsp.load_mel_cache(pipeline_dir / "mels.serann")
        mels[sorted(mels)[0]][7, 9] = np.nan
        path = tmp_path / "nan.serann"
        dsp.save_mel_cache(path, mels)
        args = {
            "train-vqvae": ["--out", str(tmp_path / "vq.serann"), "--epochs", "1"],
            "train-classifier": ["--out", str(tmp_path / "r.json"), "--folds", "loso",
                                 "--max-epochs", "1", "--repeats", "1"],
        }[command]
        result = CliRunner().invoke(main, [
            command, "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(path), "--desk-scale", *args,
        ])
        assert_error_line(result, "non-finite loss at optimizer step")
        assert sum(line.startswith("error: ") for line in result.output.splitlines()) == 1


def test_a_bug_keeps_its_traceback(pipeline_dir, tmp_path, monkeypatch):
    """The error boundary reports input errors only: a KeyError raised
    inside a command escapes with its traceback instead of becoming an
    ``error:`` line."""
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(experiments, "run_fixed", broken)
    result = CliRunner().invoke(main, [
        "train-classifier", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
        "--mels", str(pipeline_dir / "mels.serann"), "--folds", "fixed", "--repeats", "1",
        "--desk-scale", "--out", str(tmp_path / "r.json"),
    ])
    assert isinstance(result.exception, KeyError), result.output
    assert "error:" not in result.output


@pytest.mark.parametrize("message, expected", [
    ("Unable to allocate 28.4 GiB for an array", "Unable to allocate 28.4 GiB"),
    ("", "MemoryError"),
])
def test_out_of_memory_is_one_error_line(pipeline_dir, tmp_path, monkeypatch, message, expected):
    def exhausted(*args, **kwargs):
        raise MemoryError(message) if message else MemoryError()

    monkeypatch.setattr(experiments, "run_fold", exhausted)
    result = CliRunner().invoke(main, [
        "train-classifier", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
        "--mels", str(pipeline_dir / "mels.serann"), "--folds", "fixed", "--repeats", "1",
        "--desk-scale", "--out", str(tmp_path / "r.json"),
    ])
    assert_error_line(result, expected)
    assert not (tmp_path / "r.json").exists()


def invalid_run(tmp_path, *args, config=None):
    """Run a command whose outputs go to ``tmp_path/out``; returns the result
    and what that directory holds afterwards."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ("--config", str(path))
    result = CliRunner().invoke(main, [a.replace("OUT", str(out_dir)) for a in args])
    return result, sorted(p.name for p in out_dir.iterdir())


class TestInvalidNumbers:
    """Each rejected setting exits 1 with ``error:`` before anything is
    written or asked, and without a traceback; an option out of its click
    range exits 2 instead, naming the option."""

    @staticmethod
    def assert_rejected(result, written, message):
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output
        assert "Traceback" not in result.output
        assert written == []

    @pytest.mark.parametrize("section", [{"epochs": 0}, {"batch_size": 0}])
    def test_train_vqvae_config(self, pipeline_dir, tmp_path, section):
        result, written = invalid_run(
            tmp_path, "train-vqvae", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(pipeline_dir / "mels.serann"), "--out", "OUT/vq.serann",
            "--desk-scale", config={"vqvae": section},
        )
        self.assert_rejected(result, written, "invalid vqvae config")

    @pytest.mark.parametrize("flag, config", [
        (("--max-epochs", "0"), None),
        (("--max-epochs", "-3"), None),
        ((), {"classifier": {"batch_size": 0}}),
    ])
    def test_train_classifier(self, pipeline_dir, tmp_path, flag, config):
        result, written = invalid_run(
            tmp_path, "train-classifier", "--manifest",
            str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--mels", str(pipeline_dir / "mels.serann"), "--folds", "fixed", "--repeats", "1",
            "--desk-scale", "--out", "OUT/report.json", *flag, config=config,
        )
        self.assert_rejected(result, written, "invalid classifier config")

    def test_annotate_negative_failure_budget(self, pipeline_dir, tmp_path):
        # Refused at the click boundary, naming the option; the runner's own
        # check stays for library callers.
        result, written = invalid_run(
            tmp_path, "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", "mock:keyword", "--failure-budget", "-1", "--out", "OUT/a.jsonl",
        )
        assert_usage_error_line(result, "--failure-budget", "-1 is not in the range x>=0")
        assert written == []
        with pytest.raises(ValueError, match="failure_budget must be >= 0"):
            annotate.annotate_corpus([], annotate.ContextVariant.TEXT_ONLY, None, failure_budget=-1)

    @pytest.mark.parametrize("flag, message", [
        (("--rpm", "0"), "requests_per_minute must be positive"),
        (("--max-retries", "-1"), "max_retries must be >= 0"),
        (("--timeout", "0"), "timeout_s must be a positive finite number, got 0.0"),
        (("--timeout", "nan"), "timeout_s must be a positive finite number, got nan"),
    ])
    def test_annotate_http_settings(self, pipeline_dir, tmp_path, flag, message):
        # Refused at the click boundary, naming the option; ``BackendConfig``
        # keeps its own check with ``message`` for library callers.
        result, written = invalid_run(
            tmp_path, "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", "http", "--endpoint", "https://llm.example/v1/chat", "--model", "m",
            *flag, "--out", "OUT/a.jsonl",
        )
        option, value = flag
        assert_usage_error_line(result, option, value)
        assert written == []
        field = {"--rpm": "requests_per_minute", "--max-retries": "max_retries",
                 "--timeout": "timeout_s"}[option]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            annotate.BackendConfig(endpoint="https://llm.example/v1/chat", model="m",
                                   **{field: type(getattr(annotate.BackendConfig, field))(value)})

    def test_annotate_nan_temperature_sends_no_request(self, pipeline_dir, tmp_path, monkeypatch):
        sent = []
        monkeypatch.setattr(annotate.backends, "_requests_transport",
                            lambda *args: sent.append(args) or (200, "{}"))
        result, written = invalid_run(
            tmp_path, "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", "http", "--endpoint", "https://llm.example/v1/chat", "--model", "m",
            "--temperature", "nan", "--out", "OUT/a.jsonl",
        )
        assert_usage_error_line(result, "--temperature", "'nan' is not a finite number")
        assert written == []
        assert sent == []


def assert_usage_error_line(result, option, *fragments):
    """Exit status 2 with one ``Error:`` line that names ``option`` and
    holds ``fragments``, and no traceback."""
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    [line] = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert f"'{option}'" in line
    for fragment in fragments:
        assert fragment in line


class TestOptionRanges:
    """A count, seed, concurrency, rate, retry limit or failure budget below
    its range, or a timeout or temperature that is not finite, is a usage
    error (exit 2) that names the option, before anything is written."""

    @pytest.mark.parametrize("option, value", [
        ("--speakers", "0"), ("--per-speaker", "0"), ("--per-speaker", "-4"), ("--seed", "-1"),
    ])
    def test_synth_corpus(self, tmp_path, option, value):
        result = CliRunner().invoke(main, ["synth-corpus", "--out", str(tmp_path / "corpus"),
                                           option, value])
        self.assert_usage_error(result, option)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, option, value", [
        ("train-vqvae", "--seed", "-1"),
        ("annotate", "--seed", "-1"),
        ("annotate", "--concurrency", "0"),
        ("annotate", "--concurrency", "-2"),
        ("annotate", "--failure-budget", "-1"),
        ("annotate", "--max-retries", "-1"),
        ("annotate", "--rpm", "0"),
        ("annotate", "--rpm", "-5"),
        ("train-classifier", "--seed", "-5"),
        ("augment-eval", "--seed", "-1"),
    ])
    def test_pipeline_commands(self, pipeline_dir, tmp_path, command, option, value):
        manifest = str(pipeline_dir / "corpus" / "manifest.jsonl")
        mels = str(pipeline_dir / "mels.serann")
        inputs = {
            "train-vqvae": ["--manifest", manifest, "--mels", mels, "--desk-scale", "--epochs", "1"],
            "annotate": ["--manifest", manifest],
            "train-classifier": ["--manifest", manifest, "--mels", mels, "--folds", "fixed",
                                 "--repeats", "1", "--desk-scale", "--max-epochs", "1"],
            "augment-eval": ["--base-manifest", manifest, "--base-mels", mels,
                             "--extra-manifest", manifest, "--extra-mels", mels,
                             "--extra-annotations", str(pipeline_dir / "annotations.jsonl"),
                             "--repeats", "1", "--desk-scale", "--max-epochs", "1"],
        }[command]
        result = CliRunner().invoke(main, [command, *inputs, option, value,
                                           "--out", str(tmp_path / "out.json")])
        self.assert_usage_error(result, option)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value, message", [
        ("--timeout", "-1", "'-1' is not a positive finite number"),
        ("--timeout", "0", "'0' is not a positive finite number"),
        ("--timeout", "inf", "'inf' is not a positive finite number"),
        ("--timeout", "nan", "'nan' is not a positive finite number"),
        ("--temperature", "nan", "'nan' is not a finite number"),
        ("--temperature", "-inf", "'-inf' is not a finite number"),
        ("--temperature", "x", "'x' is not a valid float"),
    ])
    def test_annotate_floats_must_be_finite(self, pipeline_dir, tmp_path, option, value, message):
        # Any backend: the mock ones ignore these settings, so they were
        # once accepted there without a word.
        result = CliRunner().invoke(main, [
            "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", "mock:keyword", option, value, "--out", str(tmp_path / "a.jsonl"),
        ])
        assert_usage_error_line(result, option, message)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def assert_usage_error(result, option):
        assert result.exit_code == 2, result.output
        assert f"'{option}'" in result.output and "is not in the range" in result.output
        assert "Traceback" not in result.output


class TestEmptyManifest:
    @pytest.mark.parametrize("command", [
        "features", "train-vqvae", "encode", "annotate", "annotate-few-shot", "train-classifier",
        "augment-eval",
    ])
    def test_each_stage_refuses_it_naming_the_file(self, pipeline_dir, tmp_path, command):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        manifest = str(pipeline_dir / "corpus" / "manifest.jsonl")
        mels = str(pipeline_dir / "mels.serann")
        out = tmp_path / "out"
        out.mkdir()
        args = {
            "features": ["--manifest", str(empty), "--out", f"{out}/f.jsonl",
                         "--mels-out", f"{out}/m.serann"],
            "train-vqvae": ["--manifest", str(empty), "--mels", mels, "--out", f"{out}/vq.serann",
                            "--desk-scale", "--epochs", "1"],
            "encode": ["--manifest", str(empty), "--mels", mels,
                       "--checkpoint", str(pipeline_dir / "vq.serann"), "--out", f"{out}/c.jsonl"],
            "annotate": ["--manifest", str(empty), "--out", f"{out}/a.jsonl"],
            "annotate-few-shot": ["--manifest", manifest, "--shots", "few",
                                  "--few-shot-manifest", str(empty), "--out", f"{out}/a.jsonl"],
            "train-classifier": ["--manifest", str(empty), "--mels", mels, "--folds", "fixed",
                                 "--repeats", "1", "--desk-scale", "--out", f"{out}/r.json"],
            "augment-eval": ["--base-manifest", manifest, "--base-mels", mels,
                             "--extra-manifest", str(empty), "--extra-mels", mels,
                             "--extra-annotations", str(pipeline_dir / "annotations.jsonl"),
                             "--repeats", "1", "--desk-scale", "--out", f"{out}/r.json"],
        }[command]
        result = CliRunner().invoke(main, [command.removesuffix("-few-shot"), *args])
        assert_error_line(result, f"{empty}: manifest has no records")
        assert list(out.iterdir()) == []

    def test_synth_corpus_cannot_write_one(self, tmp_path):
        result = CliRunner().invoke(main, ["synth-corpus", "--out", str(tmp_path / "corpus"),
                                           "--speakers", "0", "--per-speaker", "0"])
        assert result.exit_code == 2, result.output
        assert not (tmp_path / "corpus").exists()


def test_importing_the_cli_loads_no_http_or_schema_package():
    """``requests`` loads on the first HTTP request and ``jsonschema`` only in
    the tests; importing the CLI, which imports every serann module, loads neither."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, serann.cli; print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('requests', 'urllib3', 'jsonschema')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
