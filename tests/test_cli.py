import contextlib
import dataclasses
import filecmp
import io
import json
import os

import pytest
from hypothesis import given, settings

from blinkwild import cli, dataset, pipeline
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


def _clip_dirs(root):
    return sorted(d for d in os.listdir(root)
                  if os.path.isdir(os.path.join(root, d)))


def _same_tree(a, b):
    names = _clip_dirs(a)
    if names != _clip_dirs(b):
        return False
    for name in names:
        da, db = os.path.join(a, name), os.path.join(b, name)
        files = sorted(os.listdir(da))
        if files != sorted(os.listdir(db)):
            return False
        match, mismatch, errors = filecmp.cmpfiles(da, db, files,
                                                   shallow=False)
        if mismatch or errors:
            return False
    return True


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


@pytest.mark.parametrize("sub", ["synth", "polish"])
def test_bad_length_is_one_line_error_and_leaves_no_out(small_dataset,
                                                         tmp_path, capsys,
                                                         sub):
    out = tmp_path / "data"
    argv = {"synth": ["synth", "--train-blink", 1, "--train-nonblink", 0,
                      "--test-blink", 0, "--test-nonblink", 0,
                      "--length", 0],
            "polish": ["polish", "--manifest", small_dataset / "manifest.tsv",
                       "--target-len", 0]}[sub]
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_polish_idempotent(small_dataset, tmp_path):
    assert run(["polish", "--manifest", small_dataset / "manifest.tsv",
                "--out", tmp_path / "p1"]) == 0
    assert run(["polish", "--manifest", tmp_path / "p1" / "manifest.tsv",
                "--out", tmp_path / "p2"]) == 0
    assert _same_tree(str(tmp_path / "p1"), str(tmp_path / "p2"))


@pytest.mark.parametrize("length", [10, 13, 16])
def test_closed_frame_index_is_minimum_aperture(length):
    # synth_clip closes a blink clip's eyes fully at its middle frame
    hidden = dataset.EyeCenter.invisible()
    for seed in range(4):
        clip = dataset.synth_clip(seed, dataset.LABEL_BLINK, length)
        assert cli._closed_frame_index(clip) == length // 2
        # one eye invisible in most frames, the middle one among them
        # for lengths 10 and 13
        clip.annotations = [
            dataclasses.replace(rec, left_eye=hidden) if t % 2
            else dataclasses.replace(rec, right_eye=hidden) if t % 3 == 0
            else rec for t, rec in enumerate(clip.annotations)]
        assert cli._closed_frame_index(clip) == length // 2


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


def test_verify_and_eval(small_dataset, small_model, tmp_path):
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
    assert run(["eval", "--predictions", preds, "--manifest",
                small_dataset / "manifest.tsv",
                "--out", tmp_path / "rescore"]) == 0
    assert (tmp_path / "rescore.json").exists()


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
                                        ("--window", 0)])
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
    assert rows["tiny"][3:] == rows["base"][3:]
    assert rows["base"][1:3] != rows["tiny"][1:3]


def test_bench_json(small_model, tmp_path):
    out = tmp_path / "bench.json"
    assert run(["bench", "--model", small_model, "--frames", 60,
                "--out", out]) == 0
    data = json.loads(out.read_text())
    assert set(data["stages"]) == {"tracking", "features", "inference"}
    for stage in data["stages"].values():
        assert set(stage) == {"mean", "median", "p95"}
    assert data["median_total_ms"] > 0


def test_bench_times_the_pipeline_stages(small_model, tmp_path, monkeypatch):
    calls = {"track_eyes": 0, "_window_confidences": 0}

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
    assert calls == {"track_eyes": 3, "_window_confidences": 6}


def test_errors_exit_nonzero(tmp_path, capsys):
    assert run(["train", "--manifest", tmp_path / "missing.tsv",
                "--model", tmp_path / "m.bin"]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_tracks_each_clip_once(small_dataset, small_model, tmp_path,
                                      monkeypatch):
    man = dataset.load_manifest(str(small_dataset / "manifest.tsv"))
    entries = man.split("test")[:2]
    manifest = tmp_path / "two.tsv"
    dataset.write_manifest(str(manifest), entries)
    calls = []
    track_eyes = pipeline.track_eyes

    def counting(*args, **kwargs):
        calls.append(1)
        return track_eyes(*args, **kwargs)

    monkeypatch.setattr(pipeline, "track_eyes", counting)
    assert run(["verify", "--manifest", manifest, "--model", small_model,
                "--out", tmp_path / "run"]) == 0
    assert len(calls) == len(entries) == 2


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
