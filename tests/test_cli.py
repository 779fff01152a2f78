import json
import math
import struct

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WAV_DAMAGE
from serann import dsp, experiments
from serann.cli import main


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
    line = next(line for line in result.output.splitlines() if line.startswith("error: "))
    for fragment in fragments:
        assert fragment in line


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

    def test_manifest_line_missing_fields(self, pipeline_dir, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"utterance_id": "u1", "audio_path": "a.wav"}\n')
        result = CliRunner().invoke(main, [
            "features", "--manifest", str(manifest),
            "--out", str(tmp_path / "f.jsonl"), "--mels-out", str(tmp_path / "m.serann"),
        ])
        assert_error_line(result, f"{manifest}:1", "missing required fields")

    @pytest.mark.parametrize("option, source, line, expected", [
        ("--features", "features.jsonl", "not json", "invalid JSON"),
        ("--features", "features.jsonl", '{"utterance_id": "x", "avg_pitch_hz": 1.0}',
         "missing field 'avg_energy'"),
        ("--codes", "codes.jsonl", '{"utterance_id": "x"}', "missing field 'codes'"),
        ("--features", "features.jsonl",
         '{"utterance_id": "x", "avg_energy": "loud", "avg_pitch_hz": 1.0}', "field 'avg_energy'"),
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
        pytest.param(["report", "--in", "BAD"], "not json\n", "BAD: invalid JSON",
                     id="report-not-json"),
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
    written or asked, and without a traceback."""

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
        result, written = invalid_run(
            tmp_path, "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", "mock:keyword", "--failure-budget", "-1", "--out", "OUT/a.jsonl",
        )
        self.assert_rejected(result, written, "failure_budget must be >= 0")

    @pytest.mark.parametrize("flag, message", [
        (("--rpm", "0"), "requests_per_minute must be positive"),
        (("--max-retries", "-1"), "max_retries must be >= 0"),
    ])
    def test_annotate_http_settings(self, pipeline_dir, tmp_path, flag, message):
        result, written = invalid_run(
            tmp_path, "annotate", "--manifest", str(pipeline_dir / "corpus" / "manifest.jsonl"),
            "--backend", "http", "--endpoint", "https://llm.example/v1/chat", "--model", "m",
            *flag, "--out", "OUT/a.jsonl",
        )
        self.assert_rejected(result, written, f"invalid http backend settings: {message}")
