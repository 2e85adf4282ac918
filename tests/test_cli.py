import contextlib
import csv
import dataclasses
import filecmp
import io
import json
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings

from blinkwild import cli, dataset, mslstm, pipeline
from test_mslstm import CORRUPTIONS, corrupt


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    assert run(["--seed", 3, "synth", "--out", out,
                "--train-blink", 4, "--train-nonblink", 4,
                "--test-blink", 2, "--test-nonblink", 2]) == 0
    return out


@pytest.fixture(scope="module")
def small_model(small_dataset, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "m.bin"
    assert run(["--seed", 3, "train", "--manifest",
                small_dataset / "manifest.tsv", "--model", model,
                "--steps", 60, "--batch-size", 8, "--hidden", 8]) == 0
    return model


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


def _same_tree(a, b):
    """Whether ``a`` and ``b`` hold the same relative file paths with the
    same bytes."""
    files = _files(a)
    if files != _files(b):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return not mismatch and not errors


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sub", ["synth", "polish", "train", "verify",
                                 "detect", "eval", "bench"])
def test_help_snapshot(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        run([sub, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    expected_flags = {
        "synth": ["--out", "--train-blink", "--length"],
        "polish": ["--manifest", "--out", "--target-len"],
        "train": ["--manifest", "--model", "--steps", "--loss",
                  "--layers", "--scales", "--margin", "--hidden"],
        "verify": ["--manifest", "--model", "--out"],
        "detect": ["--frames", "--model", "--out", "--window", "--stride",
                   "--conf-thresh", "--iou-thresh"],
        "eval": ["--predictions", "--manifest", "--out"],
        "bench": ["--frames", "--model", "--out"],
    }
    for flag in expected_flags[sub]:
        assert flag in text
    assert "--patch" not in text  # the LBP patch is features.PATCH_SIZE
    # the KCF re-localization trigger is pipeline.TRACK_THRESH, and bench
    # times synthetic streams on the given or a default model
    absent_flags = {
        "verify": ["--track-thresh"],
        "detect": ["--track-thresh"],
        "bench": ["--manifest", "--hidden", "--layers", "--scales",
                  "--margin"],
    }
    for flag in absent_flags.get(sub, []):
        assert flag not in text


def test_synth_counts_and_balance(small_dataset):
    man = dataset.load_manifest(str(small_dataset / "manifest.tsv"))
    assert len(man.entries) == 12
    for split, total in (("train", 8), ("test", 4)):
        entries = man.split(split)
        assert len(entries) == total
        blinks = sum(e.label == dataset.LABEL_BLINK for e in entries)
        assert blinks == total // 2


def test_synth_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run(["--seed", 9, "synth", "--out", tmp_path / name,
                    "--train-blink", 2, "--train-nonblink", 2,
                    "--test-blink", 1, "--test-nonblink", 1]) == 0
    assert _same_tree(str(tmp_path / "a"), str(tmp_path / "b"))


def test_synth_saves_each_clip_before_rendering_the_next(tmp_path,
                                                         monkeypatch):
    calls = []

    def recorded(name):
        original = getattr(dataset, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("synth_clip", "save_clip"):
        monkeypatch.setattr(dataset, name, recorded(name))
    assert run(["--seed", 4, "synth", "--out", tmp_path / "data",
                "--train-blink", 2, "--train-nonblink", 1,
                "--test-blink", 1, "--test-nonblink", 1]) == 0
    assert calls == ["synth_clip", "save_clip"] * 5


@pytest.mark.parametrize("flag", ["--train-blink", "--train-nonblink",
                                  "--test-blink", "--test-nonblink"])
def test_synth_negative_count_is_one_line_error(tmp_path, capsys, flag):
    counts = {"--train-blink": 1, "--train-nonblink": 1,
              "--test-blink": 0, "--test-nonblink": 0, flag: -1}
    out = tmp_path / "data"
    assert run(["synth", "--out", out]
               + [a for kv in counts.items() for a in kv]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and flag in err[0]
    assert not out.exists()


@pytest.mark.parametrize("sub", ["synth", "synth_blink_last", "polish"])
def test_bad_length_is_one_line_error_and_leaves_no_out(small_dataset,
                                                         tmp_path, capsys,
                                                         sub):
    out = tmp_path / "data"
    argv = {"synth": ["synth", "--train-blink", 1, "--train-nonblink", 0,
                      "--test-blink", 0, "--test-nonblink", 0,
                      "--length", 0],
            # a nonblink clip renders at length 2, the blink clip after it
            # does not
            "synth_blink_last": ["synth", "--train-blink", 0,
                                 "--train-nonblink", 1, "--test-blink", 1,
                                 "--test-nonblink", 0, "--length", 2],
            "polish": ["polish", "--manifest", small_dataset / "manifest.tsv",
                       "--target-len", 0]}[sub]
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_polish_path_id_is_one_line_error_and_writes_nothing(
        small_dataset, tmp_path, capsys):
    entry = dataset.load_manifest(
        str(small_dataset / "manifest.tsv")).entries[0]
    manifest = tmp_path / "m.tsv"
    manifest.write_text(f"{entry.clip_dir}\t{entry.label}\t{entry.split}"
                        f"\t../escaped\n")
    out = tmp_path / "pol2"
    assert run(["polish", "--manifest", manifest, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest}:1: ")
    assert not out.exists() and not (tmp_path / "escaped").exists()


def test_polish_idempotent(small_dataset, tmp_path):
    assert run(["polish", "--manifest", small_dataset / "manifest.tsv",
                "--out", tmp_path / "p1"]) == 0
    assert run(["polish", "--manifest", tmp_path / "p1" / "manifest.tsv",
                "--out", tmp_path / "p2"]) == 0
    assert _same_tree(str(tmp_path / "p1"), str(tmp_path / "p2"))


def test_train_outputs(small_dataset, small_model, tmp_path):
    loss_csv = str(small_model).replace(".bin", "_loss.csv")
    with open(loss_csv) as f:
        rows = f.read().strip().splitlines()
    assert rows[0] == "step,loss"
    assert len(rows) - 1 == 60
    again = tmp_path / "m2.bin"
    assert run(["--seed", 3, "train", "--manifest",
                small_dataset / "manifest.tsv", "--model", again,
                "--steps", 60, "--batch-size", 8, "--hidden", 8]) == 0
    assert small_model.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("argv, name", [(["--hidden", 0], "hidden"),
                                        (["--batch-size", 0], "batch_size"),
                                        (["--steps", -1], "max_steps")])
def test_train_bad_hyper_parameter_is_one_line_error(small_dataset, tmp_path,
                                                     capsys, argv, name):
    model = tmp_path / "m.bin"
    assert run(["train", "--manifest", small_dataset / "manifest.tsv",
                "--model", model, "--steps", 2, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert not model.exists()


def test_verify_and_eval(small_dataset, small_model, tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["--seed", 3, "verify", "--manifest",
                small_dataset / "manifest.tsv", "--model", small_model,
                "--out", out]) == 0
    preds = out / "predictions.csv"
    assert preds.exists()
    assert (out / "report.json").exists()
    assert (out / "report_pr.csv").exists()
    lines = preds.read_text().strip().splitlines()
    assert lines[0] == "clip,eye,label,confidence,lost"
    assert len(lines) - 1 == 4 * 2  # test clips x eyes
    capsys.readouterr()
    assert run(["eval", "--predictions", preds, "--manifest",
                small_dataset / "manifest.tsv",
                "--out", tmp_path / "rescore"]) == 0
    # eval of verify's own predictions agrees with verify; only FR, which
    # a predictions file cannot carry, reads as unknown
    assert capsys.readouterr().out.count(" fr=n/a\n") == 2
    assert [row.split(",")[-1] for row in (tmp_path / "rescore.csv"
                                            ).read_text().splitlines()[1:]
            ] == ["", ""]
    per_eye = {name: json.loads(path.read_text())["per_eye"] for name, path
               in (("verify", out / "report.json"),
                   ("eval", tmp_path / "rescore.json"))}
    for eye in pipeline.EYES:
        for key in ("recall", "precision", "f1"):
            assert per_eye["eval"][eye][key] == per_eye["verify"][eye][key]
        assert per_eye["eval"][eye]["fr"] is None
        assert per_eye["verify"][eye]["fr"] is not None
    assert ((tmp_path / "rescore_pr.csv").read_bytes()
            == (out / "report_pr.csv").read_bytes())


def test_config_hash_ignores_out_but_not_seed(small_dataset, small_model,
                                             tmp_path):
    hashes = []
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        out = tmp_path / name
        assert run(["--seed", seed, "verify", "--manifest",
                    small_dataset / "manifest.tsv", "--model", small_model,
                    "--out", out]) == 0
        hashes.append(json.loads((out / "report.json").read_text()
                                 )["config_hash"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_verify_repeated_source_id_is_one_line_error(small_dataset,
                                                     small_model, tmp_path,
                                                     capsys):
    entries = dataset.load_manifest(
        str(small_dataset / "manifest.tsv")).split("test")
    manifest = tmp_path / "repeated.tsv"
    dataset.write_manifest(str(manifest), entries + entries[:1])
    out = tmp_path / "v"
    assert run(["verify", "--manifest", manifest, "--model", small_model,
                "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest}:")
    assert not (out / "predictions.csv").exists()


def test_verify_that_cannot_write_its_report_leaves_no_predictions(
        small_dataset, small_model, tmp_path, capsys):
    out = tmp_path / "v"
    (out / "report.json").mkdir(parents=True)  # scoring fails to write it
    assert run(["verify", "--manifest", small_dataset / "manifest.tsv",
                "--model", small_model, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    # no predictions.csv (or its temporary) for eval to read as valid
    assert os.listdir(out) == ["report.json"]


@pytest.mark.parametrize("blocked", ["report.csv", "report_pr.csv"])
def test_verify_that_cannot_write_a_report_file_writes_none(
        small_dataset, small_model, tmp_path, capsys, blocked):
    """A report file that cannot be written takes the ones renamed before
    it with it: only the directory in its way is left."""
    out = tmp_path / "v"
    (out / blocked).mkdir(parents=True)
    assert run(["verify", "--manifest", small_dataset / "manifest.tsv",
                "--model", small_model, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert os.listdir(out) == [blocked]


class _Unwritable:
    def __repr__(self):
        raise OSError(28, "No space left on device")


def test_detect_that_fails_mid_write_keeps_the_old_events(
        small_model, tmp_path, capsys, monkeypatch):
    """An event CSV whose writing fails part-way replaces nothing: the
    file from an earlier run is left as it was, and no temporary."""
    clip, _ = dataset.synth_stream(12, 50, blink_center=25)
    stream_dir = str(tmp_path / "stream")
    dataset.save_clip(stream_dir, clip)
    out = tmp_path / "events" / "events.csv"
    out.parent.mkdir()
    out.write_text("earlier run\n")
    monkeypatch.setattr(pipeline, "detect_stream", lambda *a, **k: [
        pipeline.BlinkEvent(3, 12, 0.9, "left"),
        pipeline.BlinkEvent(20, 29, _Unwritable(), "right")])
    assert run(["detect", "--frames", stream_dir, "--model", small_model,
                "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "earlier run\n"
    assert os.listdir(out.parent) == ["events.csv"]


def _edit_record(clip_dir, t, edit):
    """Replace record ``t`` of the clip in ``clip_dir`` by ``edit`` of it;
    returns the annotation file's path."""
    path = os.path.join(clip_dir, "annotations.csv")
    records = dataset.load_annotations(path)
    records[t] = edit(records[t])
    dataset.save_annotations(path, records)
    return path


def _widen_first_frames(clip_dir, count=5, width=200):
    """Widen frames 0..count-1 to ``width`` columns, padding on the right,
    so that each frame's own record stays valid; returns the path of the
    first frame left at the old width."""
    for t in range(count):
        path = os.path.join(clip_dir, f"frame_{t:04d}.pgm")
        frame = dataset.read_pgm(path)
        dataset.write_pgm(path, np.pad(
            frame, ((0, 0), (0, width - frame.shape[1])), mode="edge"))
    return os.path.join(clip_dir, f"frame_{count:04d}.pgm")


def _remove_frame(clip_dir, t=3):
    path = os.path.join(clip_dir, f"frame_{t:04d}.pgm")
    os.remove(path)
    return path


# how -> (break a saved 10-frame 112x112 synthetic clip in place and return
# the file the error must name, what the error must say)
BROKEN_CLIPS = {
    "degenerate-face-box": (lambda d: _edit_record(d, 2, lambda r: (
        dataclasses.replace(r, face_box=r.face_box[:2] + (0.0,)
                            + r.face_box[3:]))),
        "frame 2: degenerate face box"),
    "face-box-outside-frame": (lambda d: _edit_record(d, 2, lambda r: (
        dataclasses.replace(r, face_box=r.face_box[:2] + (200.0,)
                            + r.face_box[3:]))),
        "frame 2: face box outside frame"),
    "eye-outside-face-box": (lambda d: _edit_record(d, 2, lambda r: (
        dataclasses.replace(r, left_eye=dataset.EyeCenter(
            r.face_box[0] - 1.0, r.left_eye.y)))),
        "frame 2: left eye outside face box"),
    "missing-frame-file": (_remove_frame, "missing frame file"),
    "frame-size-changes": (_widen_first_frames,
                           "frame size 112x112, but frame 0 is 200x112"),
}


@pytest.mark.parametrize("how", sorted(BROKEN_CLIPS))
@pytest.mark.parametrize("command", ["verify", "detect"])
def test_broken_clip_is_one_line_error_naming_the_file(
        small_dataset, small_model, tmp_path, capsys, command, how):
    entries = dataset.load_manifest(
        str(small_dataset / "manifest.tsv")).split("test")
    clip_dir = str(tmp_path / "broken")
    shutil.copytree(entries[0].clip_dir, clip_dir)
    break_clip, says = BROKEN_CLIPS[how]
    path = break_clip(clip_dir)
    if command == "verify":
        manifest = tmp_path / "broken.tsv"
        dataset.write_manifest(str(manifest), [dataclasses.replace(
            entries[0], clip_dir=clip_dir)] + entries[1:])
        written = tmp_path / "v" / "predictions.csv"
        argv = ["verify", "--manifest", manifest, "--model", small_model,
                "--out", tmp_path / "v"]
    else:
        written = tmp_path / "events.csv"
        argv = ["detect", "--frames", clip_dir, "--model", small_model,
                "--out", written]
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert path in err[0] and says in err[0]
    assert not written.exists()


def test_train_on_clips_of_unequal_length_is_one_line_error(
        small_dataset, tmp_path, capsys):
    entries = dataset.load_manifest(
        str(small_dataset / "manifest.tsv")).split("train")
    third = entries[2]
    long_dir = str(tmp_path / "long")
    dataset.save_clip(long_dir, dataset.polish_clip(dataset.load_clip(
        third.clip_dir, third.label, third.source_id), 13))
    manifest = tmp_path / "mixed.tsv"
    dataset.write_manifest(str(manifest), entries[:2] + [
        dataclasses.replace(third, clip_dir=long_dir)] + entries[3:])
    model = tmp_path / "m.bin"
    assert run(["train", "--manifest", manifest, "--model", model,
                "--steps", 2, "--batch-size", 4, "--hidden", 4]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {manifest}: ")
    assert repr(third.source_id) in err[0] and "polish" in err[0]
    assert not model.exists()


def test_detect_writes_events(small_model, tmp_path):
    clip, gt = dataset.synth_stream(12, 50, blink_center=25)
    stream_dir = str(tmp_path / "stream")
    dataset.save_clip(stream_dir, clip)
    out = tmp_path / "events.csv"
    assert run(["detect", "--frames", stream_dir, "--model", small_model,
                "--out", out]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eye,start,end,confidence"


@pytest.mark.parametrize("flag,value", [("--stride", 0), ("--stride", -1),
                                        ("--window", 0),
                                        ("--conf-thresh", "nan"),
                                        ("--iou-thresh", "nan")])
def test_detect_bad_window_argument_is_one_line_error(small_model, tmp_path,
                                                      capsys, flag, value):
    clip, _ = dataset.synth_stream(1, 40, blink_center=20)
    stream_dir = str(tmp_path / "stream")
    dataset.save_clip(stream_dir, clip)
    assert run(["detect", "--frames", stream_dir, "--model", small_model,
                "--out", tmp_path / "events.csv", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag[2:] in err
    assert not (tmp_path / "events.csv").exists()


def test_verify_region_too_small_ends_track(small_dataset, small_model,
                                            tmp_path):
    """A clip whose eyes sit 2 px apart gets a 1 px region, 2 px once
    padded: too small for KCF, so both its tracks end at frame 0."""
    entries = dataset.load_manifest(
        str(small_dataset / "manifest.tsv")).split("test")
    first = entries[0]
    clip = dataset.load_clip(first.clip_dir, first.label, first.source_id)
    clip.annotations = [dataclasses.replace(rec, right_eye=dataset.EyeCenter(
        rec.left_eye.x + 2, rec.left_eye.y)) for rec in clip.annotations]
    tiny_dir = str(tmp_path / "tiny")
    dataset.save_clip(tiny_dir, clip)
    dataset.write_manifest(str(tmp_path / "base.tsv"), entries)
    dataset.write_manifest(str(tmp_path / "tiny.tsv"), [
        dataclasses.replace(first, clip_dir=tiny_dir)] + entries[1:])
    rows = {}
    for name in ("base", "tiny"):
        assert run(["verify", "--manifest", tmp_path / f"{name}.tsv",
                    "--model", small_model, "--out", tmp_path / name]) == 0
        rows[name] = (tmp_path / name / "predictions.csv").read_text(
            ).splitlines()
    assert rows["tiny"][1:3] == [f"{first.source_id},{eye},nonblink,0.0,1"
                                 for eye in pipeline.EYES]
    assert rows["base"][1:3] != rows["tiny"][1:3]
    # the other clips' scores come from predict batches of another size:
    # a confidence may differ by batched-GEMM rounding
    tiny, base = ([row.split(",") for row in rows[name][3:]]
                  for name in ("tiny", "base"))
    assert ([row[:3] + row[4:] for row in tiny]
            == [row[:3] + row[4:] for row in base])
    assert all(abs(float(a[3]) - float(b[3])) <= 1e-12
               for a, b in zip(tiny, base))


def test_verify_fr_counts_a_kept_box_off_its_annotation(small_model,
                                                        tmp_path):
    """The image stands still while the annotated face moves 20 px after
    frame 0: each track keeps its box, half an inter-ocular distance from
    the annotated center, so FR counts an ME error for each eye and no
    track is lost."""
    clip = dataset.synth_clip(5, dataset.LABEL_BLINK, 10)
    first = clip.annotations[0]
    x, y, w, h = first.face_box
    moved = dataclasses.replace(
        first, face_box=(x + 20, y, w, h),
        left_eye=dataset.EyeCenter(first.left_eye.x + 20, first.left_eye.y),
        right_eye=dataset.EyeCenter(first.right_eye.x + 20,
                                    first.right_eye.y))
    clip.frames = [clip.frames[0]] * len(clip.frames)
    clip.annotations = [first] + [moved] * (len(clip.frames) - 1)
    clip_dir = str(tmp_path / "moved")
    dataset.save_clip(clip_dir, clip)
    manifest = tmp_path / "moved.tsv"
    dataset.write_manifest(str(manifest), [dataset.ManifestEntry(
        clip_dir, dataset.LABEL_BLINK, "test", "moved")])
    out = tmp_path / "run"
    assert run(["verify", "--manifest", manifest, "--model", small_model,
                "--out", out]) == 0
    rows = (out / "predictions.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0", "0"]
    per_eye = json.loads((out / "report.json").read_text())["per_eye"]
    assert [per_eye[eye]["fr"] for eye in pipeline.EYES] == [1.0, 1.0]


def test_bench_json(small_model, tmp_path):
    out = tmp_path / "bench.json"
    assert run(["bench", "--model", small_model, "--frames", 60,
                "--out", out]) == 0
    data = json.loads(out.read_text())
    assert set(data["stages"]) == {"tracking", "features", "inference"}
    for stage in data["stages"].values():
        assert set(stage) == {"mean", "median"}
    assert data["median_total_ms"] > 0


def test_bench_reports_blas_threads(small_model, tmp_path, monkeypatch,
                                    capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "bench.json"
    assert run(["bench", "--model", small_model, "--frames", 10,
                "--out", out]) == 0
    want = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "unset",
            "MKL_NUM_THREADS": "2"}
    assert json.loads(out.read_text())["blas_threads"] == want
    assert ("BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
            "MKL_NUM_THREADS=2") in capsys.readouterr().out.splitlines()


def test_bench_times_the_pipeline_stages(small_model, tmp_path, monkeypatch):
    calls = {"track_eyes": 0, "score_windows": 0}

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    out = tmp_path / "bench.json"
    assert run(["bench", "--model", small_model, "--frames", 60,
                "--out", out]) == 0
    # one warm-up stream, then two timed streams of 50 frames
    assert json.loads(out.read_text())["frames"] == 100
    assert calls == {"track_eyes": 3, "score_windows": 6}


def test_errors_exit_nonzero(tmp_path, capsys):
    assert run(["train", "--manifest", tmp_path / "missing.tsv",
                "--model", tmp_path / "m.bin"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture
def nan_model(small_model, tmp_path):
    """``small_model`` with its last parameter set to NaN."""
    path = tmp_path / "nan.bin"
    path.write_bytes(small_model.read_bytes()[:-8]
                     + np.array([np.nan], dtype="<f8").tobytes())
    return path


def test_detect_non_finite_model_is_one_line_error(nan_model, tmp_path,
                                                   capsys):
    clip, _ = dataset.synth_stream(1, 40, blink_center=20)
    stream_dir = tmp_path / "stream"
    dataset.save_clip(str(stream_dir), clip)
    out = tmp_path / "events.csv"
    assert run(["detect", "--frames", stream_dir, "--model", nan_model,
                "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {nan_model}: ")
    assert not out.exists()


def test_verify_non_finite_model_is_one_line_error(small_dataset, nan_model,
                                                   tmp_path, capsys):
    out = tmp_path / "v"
    assert run(["verify", "--manifest", small_dataset / "manifest.tsv",
                "--model", nan_model, "--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {nan_model}: ")
    assert not (out / "predictions.csv").exists()


def test_train_non_finite_is_one_line_error(small_dataset, tmp_path,
                                            monkeypatch, capsys):
    loss_and_grads = mslstm.loss_and_grads
    steps = []

    def nan_at_step_3(*args):
        loss, grad = loss_and_grads(*args)
        steps.append(loss)
        if len(steps) == 3:
            grad[0] = np.nan
        return loss, grad

    monkeypatch.setattr(mslstm, "loss_and_grads", nan_at_step_3)
    model = tmp_path / "m.bin"
    assert run(["train", "--manifest", small_dataset / "manifest.tsv",
                "--model", model, "--steps", 6, "--batch-size", 4,
                "--hidden", 4]) == 1
    assert len(steps) == 6
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model}: ")
    assert list(tmp_path.iterdir()) == []


def test_train_failed_write_leaves_no_output(small_dataset, tmp_path,
                                             monkeypatch, capsys):
    """A loss CSV write that fails leaves the model an earlier run wrote as
    it was, and neither a loss CSV nor a temporary file."""
    def disk_full(f):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.csv, "writer", disk_full)
    model = tmp_path / "m.bin"
    model.write_bytes(b"earlier model")
    assert run(["train", "--manifest", small_dataset / "manifest.tsv",
                "--model", model, "--steps", 2, "--batch-size", 4,
                "--hidden", 4]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == [model]
    assert model.read_bytes() == b"earlier model"


def test_verify_tracks_each_clip_once(small_dataset, small_model, tmp_path,
                                      monkeypatch):
    """Each test clip goes into exactly one lockstep call, with at most
    CLIP_BATCH clips a call."""
    monkeypatch.setattr(cli, "CLIP_BATCH", 3)
    manifest = small_dataset / "manifest.tsv"
    entries = dataset.load_manifest(str(manifest)).split("test")
    calls = []
    track_clips = pipeline.track_clips

    def counting(clips):
        calls.append([frames for frames, _ in clips])
        return track_clips(clips)

    monkeypatch.setattr(pipeline, "track_clips", counting)
    assert run(["verify", "--manifest", manifest, "--model", small_model,
                "--out", tmp_path / "run"]) == 0
    assert [len(call) for call in calls] == [3, 1]
    tracked = [frames for call in calls for frames in call]
    for entry, frames in zip(entries, tracked, strict=True):
        clip = dataset.load_clip(entry.clip_dir, entry.label, entry.source_id)
        assert all(np.array_equal(a, b) for a, b in zip(clip.frames, frames,
                                                        strict=True))


def test_verify_in_groups_matches_verify_clip(small_model, tmp_path,
                                              monkeypatch):
    """Seven test clips of 10 and 13 frames, interleaved, in groups of
    three: the rows come in manifest order, and each clip's verdicts match
    ``verify_clip`` on that clip alone."""
    monkeypatch.setattr(cli, "CLIP_BATCH", 3)
    entries = []
    for seed, length in ((5, 10), (6, 13)):
        out = tmp_path / f"ds{length}"
        assert run(["--seed", seed, "synth", "--out", out, "--length", length,
                    "--train-blink", 0, "--train-nonblink", 0,
                    "--test-blink", 2, "--test-nonblink", 2]) == 0
        entries.append(dataset.load_manifest(str(out / "manifest.tsv"))
                       .entries)
    entries = [e for pair in zip(*entries) for e in pair][:7]
    manifest = tmp_path / "mixed.tsv"
    dataset.write_manifest(str(manifest), entries)
    assert run(["verify", "--manifest", manifest, "--model", small_model,
                "--out", tmp_path / "run"]) == 0
    with open(tmp_path / "run" / "predictions.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(row["clip"], row["eye"]) for row in rows] == [
        (entry.source_id, eye) for entry in entries for eye in pipeline.EYES]
    model = mslstm.load_model(str(small_model))
    for entry, pair in zip(entries, zip(rows[::2], rows[1::2])):
        clip = dataset.load_clip(entry.clip_dir, entry.label, entry.source_id)
        want = pipeline.verify_clip(clip, pipeline.annotation_locator(clip),
                                    model)
        for row in pair:
            verdict = want[row["eye"]]
            assert row["label"] == verdict.label
            assert row["lost"] == str(int(verdict.lost))
            assert abs(float(row["confidence"])
                       - verdict.confidence) <= 1e-12


@pytest.mark.parametrize("rows, names", [
    ("clip,eye,label,confidence,lost\nno_such_clip,left,blink,0.9,0\n",
     [":2:", "no_such_clip"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,0\n"
     "{clip},middle,blink,0.9,0\n", [":3:", "middle"]),
    ("clip,eye,label\n{clip},left,blink\n", ["confidence"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,abc,0\n",
     [":2:", "confidence", "abc"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,nan,0\n",
     [":2:", "confidence", "nan"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink\n",
     [":2:", "confidence"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,1.5,0\n",
     [":2:", "confidence", "1.5"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,-0.1,0\n",
     [":2:", "confidence", "-0.1"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,0\n\udcff\n",
     ["not a readable CSV"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,0\n"
     "{clip},right,blink,0.8,0\n{clip},left,nonblink,0.1,0\n",
     [":4:", "repeated", "{clip}", "'left'"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,0\n"
     "{clip},right,bogus,0.8,0\n", [":3:", "label", "'bogus'"]),
    ("clip,eye,label,confidence\n{clip},left,blink,0.9\n", ["lost"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,2\n",
     [":2:", "lost", "'2'"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,0\n"
     "{clip},right,blink,0.8,\n", [":3:", "lost", "''"]),
    ("clip,eye,label,confidence,lost\n{clip},left,blink,0.9,true\n",
     [":2:", "lost", "'true'"]),
])
def test_eval_bad_predictions_is_one_line_error(small_dataset, tmp_path,
                                                capsys, rows, names):
    man = dataset.load_manifest(str(small_dataset / "manifest.tsv"))
    preds = tmp_path / "preds.csv"
    preds.write_bytes(rows.format(clip=man.entries[0].source_id)
                      .encode("utf-8", "surrogateescape"))
    assert run(["eval", "--predictions", preds, "--manifest",
                small_dataset / "manifest.tsv",
                "--out", tmp_path / "rescore"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {preds}")
    for name in names:
        assert name.format(clip=man.entries[0].source_id) in err[0]


def test_eval_lost_row_is_not_a_blink_verdict(small_dataset, tmp_path):
    """As in verify, a lost track's verdict does not count as a blink,
    whatever label its row carries."""
    manifest = small_dataset / "manifest.tsv"
    test = dataset.load_manifest(str(manifest)).split("test")
    blinks = [e.source_id for e in test if e.label == dataset.LABEL_BLINK]
    recalls = []
    for lost_clip in (None, blinks[0]):
        preds = tmp_path / "predictions.csv"
        preds.write_text("clip,eye,label,confidence,lost\n" + "".join(
            f"{e.source_id},{eye},{e.label},0.5,"
            f"{int(e.source_id == lost_clip and eye == 'left')}\n"
            for e in test for eye in pipeline.EYES))
        assert run(["eval", "--predictions", preds, "--manifest", manifest,
                    "--out", tmp_path / "report"]) == 0
        per_eye = json.loads((tmp_path / "report.json").read_text())[
            "per_eye"]
        recalls.append((per_eye["left"]["recall"],
                        per_eye["right"]["recall"]))
    n = len(blinks)
    assert recalls == [(1.0, 1.0), ((n - 1) / n, 1.0)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
def test_eval_fuzz_scores_or_names_path(small_dataset, tmp_path_factory,
                                        corruption):
    manifest = small_dataset / "manifest.tsv"
    clips = [e.source_id for e in dataset.load_manifest(str(manifest))
             .split("test")]
    root = tmp_path_factory.mktemp("fuzz")
    preds = root / "predictions.csv"
    preds.write_text("clip,eye,label,confidence,lost\n" + "".join(
        f"{clip},{eye},blink,0.{i}{j},0\n" for i, clip in enumerate(clips)
        for j, eye in enumerate(pipeline.EYES)))
    corrupt(preds, corruption)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(["eval", "--predictions", preds, "--manifest", manifest,
                    "--out", root / "report"])
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {preds}")
    else:
        assert lines == [] and (root / "report.json").exists()


def test_detect_truncated_annotations_is_one_line_error(small_model,
                                                        tmp_path, capsys):
    clip, _ = dataset.synth_stream(1, 40, blink_center=20)
    stream_dir = tmp_path / "stream"
    dataset.save_clip(str(stream_dir), clip)
    path = stream_dir / "annotations.csv"
    text = path.read_text()
    path.write_text(text[:text.rindex(",")])
    assert run(["detect", "--frames", stream_dir, "--model", small_model,
                "--out", tmp_path / "events.csv"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}:41: ")
