import os

import numpy as np
import pytest
from hypothesis import given, settings

from blinkwild import dataset
from blinkwild.errors import (AnnotationError, BlinkwildError,
                              FrameFormatError, ManifestError,
                              MissingAssetError, NoVisibleEyeError,
                              SplitViolationError)
from conftest import frame_tags, make_annotation, tagged_clip
from test_mslstm import CORRUPTIONS, corrupt


# ---------------------------------------------------------------------------
# manifest loading


def _write_clip(tmp_path, name, n=3):
    clip = tagged_clip(n)
    clip_dir = str(tmp_path / name)
    dataset.save_clip(clip_dir, clip)
    return clip_dir


def test_empty_manifest(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("")
    assert dataset.load_manifest(str(path)).entries == []


def test_manifest_split_violation(tmp_path):
    d1 = _write_clip(tmp_path, "a")
    d2 = _write_clip(tmp_path, "b")
    path = tmp_path / "m.tsv"
    path.write_text(f"{d1}\tblink\ttrain\tsame\n{d2}\tnonblink\ttest\tsame\n")
    with pytest.raises(SplitViolationError):
        dataset.load_manifest(str(path))


def test_manifest_three_lines_preserve_order(tmp_path):
    dirs = [_write_clip(tmp_path, f"c{i}") for i in range(3)]
    lines = [f"{dirs[0]}\tblink\ttrain\tc0",
             f"{dirs[1]}\tnonblink\ttrain\tc1",
             f"{dirs[2]}\tblink\ttest\tc2"]
    path = tmp_path / "m.tsv"
    path.write_text("\n".join(lines) + "\n")
    man = dataset.load_manifest(str(path))
    assert len(man.entries) == 3
    expect = [(dirs[0], "blink", "train", "c0"),
              (dirs[1], "nonblink", "train", "c1"),
              (dirs[2], "blink", "test", "c2")]
    for entry, (d, label, split, sid) in zip(man.entries, expect):
        assert (entry.clip_dir, entry.label, entry.split,
                entry.source_id) == (d, label, split, sid)


def test_manifest_malformed_line_reports_number(tmp_path):
    d = _write_clip(tmp_path, "a")
    path = tmp_path / "m.tsv"
    path.write_text(f"{d}\tblink\ttrain\ta\nnot-enough-fields\n")
    with pytest.raises(ManifestError, match="2"):
        dataset.load_manifest(str(path))


def test_manifest_missing_clip_dir(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(f"{tmp_path / 'nope'}\tblink\ttrain\tx\n")
    with pytest.raises(MissingAssetError):
        dataset.load_manifest(str(path))


def test_manifest_round_trip(tmp_path):
    d = _write_clip(tmp_path, "a")
    entries = [dataset.ManifestEntry(d, "blink", "train", "a")]
    path = str(tmp_path / "m.tsv")
    dataset.write_manifest(path, entries)
    assert dataset.load_manifest(path).entries == entries


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
def test_load_manifest_fuzz_loads_or_names_path(tmp_path_factory, corruption):
    root = tmp_path_factory.mktemp("fuzz")
    entries = [dataset.ManifestEntry(str(root / name), label, split, name)
               for name, label, split in (("a", "blink", "train"),
                                          ("b", "nonblink", "train"),
                                          ("c", "blink", "test"))]
    for entry in entries:
        os.makedirs(entry.clip_dir)  # load_manifest checks only the dirs
    path = root / "manifest.tsv"
    dataset.write_manifest(str(path), entries)
    corrupt(path, corruption)
    try:
        manifest = dataset.load_manifest(str(path))
    except BlinkwildError as err:
        assert str(path) in str(err)
    else:
        assert all(isinstance(e, dataset.ManifestEntry)
                   for e in manifest.entries)


# ---------------------------------------------------------------------------
# temporal polishing


def test_polish_identity():
    clip = tagged_clip(10)
    out = dataset.polish_clip(clip, 10, 5)
    assert frame_tags(out) == list(range(10))


def test_polish_cut_12_to_10_closed_at_6():
    clip = tagged_clip(12)
    out = dataset.polish_clip(clip, 10, 6)
    assert frame_tags(out) == list(range(1, 11))
    assert frame_tags(out)[5] == 6  # closed frame lands mid-output


def test_polish_extend_6_to_10_closed_at_3():
    clip = tagged_clip(6)
    out = dataset.polish_clip(clip, 10, 3)
    assert frame_tags(out) == [0, 0, 0, 1, 2, 3, 4, 5, 5, 5]
    assert frame_tags(out)[5] == 3


def test_polish_default_length_is_10():
    assert dataset.DEFAULT_CLIP_LEN == 10


def test_polish_annotations_renumbered_in_lockstep():
    clip = tagged_clip(6)
    out = dataset.polish_clip(clip, 10, 3)
    assert [a.frame_index for a in out.annotations] == list(range(10))
    assert len(out.annotations) == len(out.frames)


def test_polish_errors():
    clip = tagged_clip(5)
    with pytest.raises(ValueError):
        dataset.polish_clip(clip, 0, 2)
    with pytest.raises(ValueError):
        dataset.polish_clip(clip, 10, 99)


@pytest.mark.parametrize("n", range(1, 31))
def test_polish_length_property(n):
    clip = tagged_clip(n)
    out = dataset.polish_clip(clip, 10, (n - 1) // 2)
    assert len(out) == 10


@pytest.mark.parametrize("n", [4, 6, 10, 12, 17, 25])
def test_polish_idempotent(n):
    clip = tagged_clip(n)
    closed = (n - 1) // 2
    once = dataset.polish_clip(clip, 10, closed)
    new_closed = frame_tags(once).index(closed)
    twice = dataset.polish_clip(once, 10, new_closed)
    assert frame_tags(twice) == frame_tags(once)


# ---------------------------------------------------------------------------
# eye geometry


def test_eye_region_both_visible():
    left = dataset.EyeCenter(100, 100)
    right = dataset.EyeCenter(160, 100)
    assert dataset.eye_region(left, right, (0, 0, 300, 300)) == (24, 24)


def test_eye_region_single_eye_face_rule():
    left = dataset.EyeCenter(50, 50)
    right = dataset.EyeCenter.invisible()
    assert dataset.eye_region(left, right, (0, 0, 180, 200)) == (20, 20)


def test_eye_region_rounding_floor():
    left = dataset.EyeCenter(0, 0)
    right = dataset.EyeCenter(1, 2)
    assert dataset.eye_region(left, right, (0, 0, 10, 10)) == (1, 1)


def test_eye_region_no_eye_error():
    inv = dataset.EyeCenter.invisible()
    with pytest.raises(NoVisibleEyeError):
        dataset.eye_region(inv, inv, (0, 0, 10, 10))


def test_eye_region_symmetric_and_translation_invariant(rng):
    for _ in range(20):
        lx, ly, rx, ry = rng.integers(0, 200, size=4)
        dx, dy = rng.integers(-40, 40, size=2)
        a = dataset.EyeCenter(int(lx), int(ly))
        b = dataset.EyeCenter(int(rx), int(ry))
        box = (0, 0, 300, 300)
        assert dataset.eye_region(a, b, box) == dataset.eye_region(b, a, box)
        a2 = dataset.EyeCenter(int(lx + dx), int(ly + dy))
        b2 = dataset.EyeCenter(int(rx + dx), int(ry + dy))
        assert dataset.eye_region(a, b, box) == dataset.eye_region(a2, b2, box)


# ---------------------------------------------------------------------------
# eye cropping


def test_crop_interior_matches_direct_indexing(rng):
    frame = rng.integers(0, 256, size=(100, 100)).astype(np.uint8)
    patch = dataset.crop_eye(frame, dataset.EyeCenter(50, 50), (10, 10))
    assert np.array_equal(patch, frame[45:55, 45:55])


def test_crop_corner_edge_replication(rng):
    frame = rng.integers(0, 256, size=(20, 20)).astype(np.uint8)
    patch = dataset.crop_eye(frame, dataset.EyeCenter(0, 0), (4, 4))
    padded = np.pad(frame, 4, mode="edge")
    assert np.array_equal(patch, padded[4 - 2:4 + 2, 4 - 2:4 + 2])


def test_crop_matches_edge_padded_frame_everywhere(rng):
    # centers from fully outside through the borders to fully inside, so
    # both the in-frame slice and the edge-replicating path are compared
    frame = rng.integers(0, 256, size=(13, 11)).astype(np.uint8)
    padded = np.pad(frame, 20, mode="edge")
    for h, w in ((4, 5), (5, 4), (13, 11), (1, 1)):
        for cy in range(-4, 18):
            for cx in range(-4, 16):
                patch = dataset.crop_eye(frame, dataset.EyeCenter(cx, cy),
                                         (h, w))
                y0, x0 = 20 + cy - h // 2, 20 + cx - w // 2
                assert np.array_equal(patch, padded[y0:y0 + h, x0:x0 + w])
                assert not np.shares_memory(patch, frame)


def test_crop_constant_frame_stays_constant():
    frame = np.full((30, 30), 77, dtype=np.uint8)
    for cx, cy in ((0, 0), (15, 15), (29, 0)):
        patch = dataset.crop_eye(frame, dataset.EyeCenter(cx, cy), (8, 6))
        assert patch.shape == (8, 6)
        assert np.all(patch == 77)


def test_crop_of_crop_is_identity(rng):
    frame = rng.integers(0, 256, size=(60, 60)).astype(np.uint8)
    h, w = 12, 12
    patch = dataset.crop_eye(frame, dataset.EyeCenter(30, 30), (h, w))
    again = dataset.crop_eye(patch, dataset.EyeCenter(w // 2, h // 2), (h, w))
    assert np.array_equal(again, patch)


def test_crop_zero_dimension_rejected():
    frame = np.zeros((10, 10), dtype=np.uint8)
    with pytest.raises(ValueError):
        dataset.crop_eye(frame, dataset.EyeCenter(5, 5), (0, 4))


# ---------------------------------------------------------------------------
# synthetic generation


def _eye_means(clip):
    means = []
    for frame, rec in zip(clip.frames, clip.annotations):
        size = dataset.eye_region(rec.left_eye, rec.right_eye, rec.face_box)
        patch = dataset.crop_eye(frame, rec.left_eye, size)
        means.append(float(patch.mean()))
    return means


def test_synth_deterministic():
    a = dataset.synth_clip(11, dataset.LABEL_BLINK, 10)
    b = dataset.synth_clip(11, dataset.LABEL_BLINK, 10)
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))
    assert a.annotations == b.annotations


def test_synth_blink_darkest_near_middle():
    for seed in range(5):
        clip = dataset.synth_clip(seed, dataset.LABEL_BLINK, 10)
        assert int(np.argmin(_eye_means(clip))) in (4, 5, 6)


def test_synth_nonblink_intensity_range_small():
    for seed in range(5):
        blink = _eye_means(dataset.synth_clip(seed, dataset.LABEL_BLINK, 10))
        still = _eye_means(dataset.synth_clip(seed, dataset.LABEL_NONBLINK,
                                              10))
        assert (max(still) - min(still)) < 0.5 * (max(blink) - min(blink))


def test_synth_annotations_are_loadable(tmp_path):
    clip = dataset.synth_clip(3, dataset.LABEL_BLINK, 10)
    clip_dir = str(tmp_path / "c")
    dataset.save_clip(clip_dir, clip)
    back = dataset.load_clip(clip_dir, clip.label, clip.source_id)
    assert all(np.array_equal(x, y)
               for x, y in zip(back.frames, clip.frames))
    assert back.annotations == clip.annotations


def test_synth_stream_gt_interval():
    clip, gt = dataset.synth_stream(1, 50, blink_center=25)
    assert len(clip) == 50
    assert gt == (20, 29)
    clip2, gt2 = dataset.synth_stream(1, 50, blink_center=None)
    assert gt2 is None and len(clip2) == 50


# ---------------------------------------------------------------------------
# file formats


def test_pgm_round_trip(tmp_path, rng):
    frame = rng.integers(0, 256, size=(17, 23)).astype(np.uint8)
    path = str(tmp_path / "f.pgm")
    dataset.write_pgm(path, frame)
    assert np.array_equal(dataset.read_pgm(path), frame)


def test_annotations_round_trip(tmp_path):
    records = [make_annotation(0),
               make_annotation(1, left=(-1, -1)),
               make_annotation(2, right=(-1, -1))]
    path = str(tmp_path / "annotations.csv")
    dataset.save_annotations(path, records)
    assert dataset.load_annotations(path) == records


@pytest.mark.parametrize("data, says", [
    (b"P5\n7 5\n255\n" + bytes(34), "truncated"),
    (b"P5\n# no newline", "comment"),
    (b"P5\n7 five\n255\n" + bytes(35), "non-integer"),
    (b"P5\n-7 -5\n255\n", "size"),
    (b"P5\n7 5\n65535\n" + bytes(70), "maxval"),
    (b"P2\n7 5\n255\n" + bytes(35), "PGM"),
])
def test_pgm_errors_name_the_file(tmp_path, data, says):
    path = tmp_path / "f.pgm"
    path.write_bytes(data)
    with pytest.raises(FrameFormatError) as exc:
        dataset.read_pgm(str(path))
    assert str(exc.value).startswith(f"{path}: ") and says in str(exc.value)


_ROW = "0,5.0,5.0,30.0,30.0,12.0,20.0,27.0,20.0"


@pytest.mark.parametrize("rows, says", [
    ([_ROW, _ROW[:_ROW.rindex(",")]], ":3: expected 9 fields, got 8"),
    ([_ROW.replace("30.0", "thirty", 1)], ":2: non-numeric"),
    ([_ROW.replace("30.0", "nan", 1)], ":2: non-finite"),
    ([_ROW, "", "3,1"], ":4: expected 9 fields, got 2"),
    ([], ": no annotation rows"),
    ([_ROW, _ROW], ":3: frame 0, expected 1"),
    ([_ROW, "2" + _ROW[1:]], ":3: frame 2, expected 1"),
], ids=["short", "text", "nan", "stub", "header-only", "repeated",
        "skipped"])
def test_annotation_row_errors_name_file_and_line(tmp_path, rows, says):
    path = tmp_path / "annotations.csv"
    path.write_text("\n".join([",".join(dataset.ANNOTATION_HEADER), *rows]))
    with pytest.raises(AnnotationError) as exc:
        dataset.load_annotations(str(path))
    assert str(exc.value).startswith(f"{path}{says}")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
def test_read_pgm_fuzz_reads_or_names_path(tmp_path_factory, corruption):
    path = tmp_path_factory.mktemp("fuzz") / "f.pgm"
    dataset.write_pgm(str(path), np.arange(35, dtype=np.uint8).reshape(5, 7))
    corrupt(path, corruption)
    try:
        frame = dataset.read_pgm(str(path))
    except FrameFormatError as err:
        assert str(path) in str(err)
    else:
        assert frame.dtype == np.uint8 and frame.ndim == 2 and frame.size


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
def test_load_annotations_fuzz_loads_or_names_path(tmp_path_factory,
                                                   corruption):
    path = tmp_path_factory.mktemp("fuzz") / "annotations.csv"
    dataset.save_annotations(str(path), [make_annotation(0),
                                         make_annotation(1, left=(-1, -1))])
    corrupt(path, corruption)
    try:
        records = dataset.load_annotations(str(path))
    except AnnotationError as err:
        assert str(path) in str(err)
    else:
        assert all(isinstance(r, dataset.AnnotationRecord) for r in records)
