from dataclasses import replace

import numpy as np
import pytest

from blinkwild import dataset, features, mslstm, pipeline, tracker
from blinkwild.errors import TrackLostError
from conftest import tiny_model
from test_tracker import full_update, smooth_image


@pytest.fixture(autouse=True)
def one_row_per_key(monkeypatch):
    """Every ``track_clips`` call here fails at once when a key is located
    in two rows at one frame. A stale row would otherwise only double its
    stack on each re-localization, and slow the suite down without failing
    it."""
    located = None  # frame index -> keys located there, in the running call
    index = {}      # id of each frame of the running call -> its index
    stack_locate, track_clips = tracker.stack_locate, pipeline.track_clips

    def tracked(clips):
        nonlocal located, index
        # one view per clip and frame index, so that a frame names its index
        clips = [([frame.view() for frame in frames], locate)
                 for frames, locate in clips]
        index = {id(frame): t for frames, _ in clips
                 for t, frame in enumerate(frames)}
        located = {}
        try:
            return track_clips(clips)
        finally:
            located, index = None, {}

    def locating(stack, frames):
        if located is not None:
            for key, frame in zip(stack.keys, frames):
                seen = located.setdefault(index[id(frame)], set())
                assert key not in seen, (f"{key} has two rows at frame "
                                         f"{index[id(frame)]}")
                seen.add(key)
        return stack_locate(stack, frames)

    monkeypatch.setattr(pipeline, "track_clips", tracked)
    monkeypatch.setattr(tracker, "stack_locate", locating)


def reference_nms(proposals, iou_thresh):
    """Quadratic keep/suppress oracle, written against the stated rule."""
    order = sorted(proposals,
                   key=lambda p: (-p.confidence, p.start,
                                  0 if p.eye == "left" else 1))
    kept = []
    for p in order:
        if all(pipeline.temporal_iou((p.start, p.end),
                                     (q.start, q.end)) <= iou_thresh
               for q in kept):
            kept.append(p)
    return kept


def record(left, right, face_box):
    """A located frame: the annotation record a locator returns."""
    return dataset.AnnotationRecord(face_box=face_box, left_eye=left,
                                    right_eye=right)


def _event(start, end, conf, eye="left"):
    return pipeline.BlinkEvent(start=start, end=end, confidence=conf, eye=eye)


# ---------------------------------------------------------------------------
# annotation_locator


def test_locator_returns_annotated_records():
    clip = dataset.synth_clip(0, dataset.LABEL_BLINK, 10)
    locate = pipeline.annotation_locator(clip)
    for i, rec in enumerate(clip.annotations):
        assert locate(clip.frames[i], i) == rec
    assert locate(clip.frames[0], len(clip.annotations)) is None


def test_locator_invisible_eye():
    clip = dataset.synth_clip(0, dataset.LABEL_BLINK, 10)
    recs = [dataset.AnnotationRecord(
        face_box=r.face_box, left_eye=dataset.EyeCenter.invisible(),
        right_eye=r.right_eye) for r in clip.annotations]
    clip = dataset.Clip(frames=clip.frames, annotations=recs,
                        label=clip.label, source_id=clip.source_id)
    rec = pipeline.annotation_locator(clip)(clip.frames[0], 0)
    assert not rec.left_eye.visible
    assert rec.right_eye.visible


# ---------------------------------------------------------------------------
# track_eyes


def test_static_clip_zero_movement():
    base = dataset.synth_clip(1, dataset.LABEL_NONBLINK, 2)
    frames = [base.frames[0]] * 8
    anns = [base.annotations[0]] * 8
    clip = dataset.Clip(frames=frames, annotations=anns,
                        label=dataset.LABEL_NONBLINK, source_id="static")
    streams = pipeline.track_eyes(clip.frames, pipeline.annotation_locator(clip))
    for stream in streams.values():
        assert stream.lost_from is None
        assert all(b == stream.boxes[0] for b in stream.boxes)


def test_drift_tracked_within_2px():
    hits = total = 0
    for seed in range(3):
        clip = dataset.synth_clip(seed, dataset.LABEL_NONBLINK, 30)
        streams = pipeline.track_eyes(clip.frames,
                                      pipeline.annotation_locator(clip))
        for eye, stream in streams.items():
            for t, rec in enumerate(clip.annotations):
                c = rec.left_eye if eye == "left" else rec.right_eye
                bx, by = stream.boxes[t][:2]
                total += 1
                hits += max(abs(bx - c.x), abs(by - c.y)) <= 2.0
    assert hits / total >= 0.95


def test_noise_frame_triggers_relocalization():
    clip = dataset.synth_clip(5, dataset.LABEL_NONBLINK, 10)
    frames = list(clip.frames)
    frames[5] = np.random.default_rng(0).integers(
        0, 256, size=frames[5].shape).astype(np.uint8)
    streams = pipeline.track_eyes(frames, pipeline.annotation_locator(clip))
    assert all(5 in s.reloc_indices for s in streams.values())


def test_lost_from_start():
    clip = dataset.synth_clip(2, dataset.LABEL_BLINK, 10)
    absent = lambda frame, i: None
    streams = pipeline.track_eyes(clip.frames, absent)
    for stream in streams.values():
        assert stream.lost_from == 0


def leaving_frames(n=16):
    """Content sliding left 3 px per frame, and a locator that finds the
    eyes in frame 0 only: the left track (x = 20) leaves the frame at
    frame 7, the right one (x = 50) would at frame 17."""
    base = smooth_image(np.random.default_rng(0), (96, 96))
    frames = [np.roll(base, -3 * t, axis=1) for t in range(n)]
    eyes = record(dataset.EyeCenter(20.0, 48.0),
                  dataset.EyeCenter(50.0, 48.0), (5, 30, 80, 40))
    return frames, lambda frame, i: eyes if i == 0 else None


def test_track_lost_mid_stream_ends_track():
    frames, locate = leaving_frames()
    streams = pipeline.track_eyes(frames, locate)
    left, right = streams["left"], streams["right"]
    assert left.lost_from == 7
    assert len(left.boxes) == len(left.scores) == len(frames)
    assert all(b is not None for b in left.boxes[:7])
    assert left.boxes[7:] == [None] * (len(frames) - 7)
    assert left.boxes[6][0] == 2.0  # followed the content to the edge
    assert right.lost_from is None
    assert all(b is not None for b in right.boxes)


def test_verify_mid_stream_loss_is_lost():
    frames, locate = leaving_frames()
    model = tiny_model(input_dim=118, hidden=4)
    verdicts, = pipeline.verify_streams(
        [frames], [pipeline.track_eyes(frames, locate)], model)
    assert verdicts["left"] == pipeline.EyeVerdict("nonblink", 0.0, True)
    assert not verdicts["right"].lost


def test_verify_loss_at_the_last_frame_is_lost():
    frames, locate = leaving_frames(8)  # left lost at frame 7 of 8
    model = tiny_model(input_dim=118, hidden=4)
    tracks = pipeline.track_eyes(frames, locate)
    assert tracks["left"].lost_from == len(frames) - 1
    verdicts, = pipeline.verify_streams([frames], [tracks], model)
    assert verdicts["left"] == pipeline.EyeVerdict("nonblink", 0.0, True)
    assert not verdicts["right"].lost


def test_detect_scores_only_tracked_windows(monkeypatch):
    frames, locate = leaving_frames()
    calls = _stub_predict(monkeypatch)
    model = tiny_model(input_dim=118, hidden=4)
    assert pipeline.detect_stream(frames, locate, model) == []
    # left: lost at 7, no whole window, no call; right: starts 0..6 of 16
    assert calls == [(7, 9, 118)]


def reference_track_one_eye(frames, locator, eye):
    """Tracking as one full update (locate, then retrain) per frame, the
    retrained state, or the retrain's lost track, thrown away when the
    frame re-localizes."""
    n = len(frames)
    boxes, scores, relocs = [], [], []
    located = locator(frames[0], 0)
    region = dataset.eye_box(located, eye) if located else None
    t = 0
    try:
        if region is None:
            raise TrackLostError("not located")
        state = tracker.kcf_init(frames[0], region)
        boxes.append(region)
        scores.append(1.0)
        for t in range(1, n):
            try:
                state, result = full_update(state, frames[t])
                lost = None
            except TrackLostError as err:  # the retrain could not crop
                state, result = tracker.kcf_update(state, frames[t])
                lost = err
            box = result.region
            if result.score < pipeline.TRACK_THRESH:
                relocs.append(t)
                located = locator(frames[t], t)
                fresh = dataset.eye_box(located, eye) if located else None
                if fresh is not None:
                    state = tracker.kcf_init(frames[t], fresh)
                    box, lost = fresh, None
            if lost:
                raise lost
            boxes.append(box)
            scores.append(result.score)
    except TrackLostError:
        boxes += [None] * (n - t)
        scores += [0.0] * (n - t)
        return pipeline.TrackedStream(boxes, scores, relocs, t)
    return pipeline.TrackedStream(boxes, scores, relocs, None)


def assert_tracks_match_reference(frames, locator):
    streams = pipeline.track_eyes(frames, locator)
    for eye, stream in streams.items():
        assert stream == reference_track_one_eye(frames, locator, eye)
    return streams


def _clip_frames_and_locator(kind, seed):
    if kind == "stream":
        clip, _ = dataset.synth_stream(seed, 60, blink_center=30)
    else:
        label = (dataset.LABEL_BLINK, dataset.LABEL_NONBLINK)[seed % 2]
        clip = dataset.synth_clip(seed, label, 10)
    return list(clip.frames), pipeline.annotation_locator(clip)


@pytest.mark.parametrize("kind, seed", [("stream", s) for s in range(3)]
                         + [("clip", s) for s in range(8)])
def test_track_matches_full_update_reference(kind, seed):
    frames, locate = _clip_frames_and_locator(kind, seed)
    streams = assert_tracks_match_reference(frames, locate)
    assert any(s.reloc_indices for s in streams.values())


def noise_frame_clip():
    frames, locate = _clip_frames_and_locator("clip", 5)
    frames[5] = np.random.default_rng(0).integers(
        0, 256, size=frames[5].shape).astype(np.uint8)
    return frames, locate


def test_track_matches_reference_on_noise_frame():
    streams = assert_tracks_match_reference(*noise_frame_clip())
    assert all(5 in s.reloc_indices for s in streams.values())


def failing_on_odd_frames():
    """Every odd frame the locator finds nothing, so low-score frames there
    keep (and retrain) the tracker's own state."""
    clip, _ = dataset.synth_stream(4, 40, blink_center=20)
    base = pipeline.annotation_locator(clip)
    return (list(clip.frames),
            lambda frame, i: None if i % 2 else base(frame, i))


def test_track_matches_reference_when_locator_fails():
    streams = assert_tracks_match_reference(*failing_on_odd_frames())
    kept = [t for s in streams.values() for t in s.reloc_indices if t % 2]
    assert kept


def test_track_retrains_only_kept_frames(monkeypatch):
    """Below a clip's last frame, each frame adapts exactly the rows it
    keeps and learns afresh exactly the rows it re-localizes; its last
    frame adapts and learns nothing. Seed 1's last frame re-localizes both
    eyes and seed 3's keeps both; both clips have one padded size, so frame
    t is the t-th stacked locate."""
    t, adapted, joined = 0, {}, {}
    stack_locate = tracker.stack_locate
    adapt, join = tracker.stack_adapt, tracker.stack_join

    def locating(stack, frames_t):
        nonlocal t
        t += 1
        return stack_locate(stack, frames_t)

    monkeypatch.setattr(tracker, "stack_locate", locating)
    monkeypatch.setattr(tracker, "stack_adapt",
                        lambda stack, rows, *rest: adapted.setdefault(
                            t, []).append(len(rows))
                        or adapt(stack, rows, *rest))
    monkeypatch.setattr(tracker, "stack_join",
                        lambda stack, keys, *rest: joined.setdefault(
                            t, []).append(len(keys))
                        or join(stack, keys, *rest))
    for seed, last_relocs in [(1, 2), (3, 0)]:
        frames, locate = _clip_frames_and_locator("clip", seed)
        t, adapted, joined = 0, {}, {}
        streams = pipeline.track_eyes(frames, locate)
        last = len(frames) - 1
        assert t == last
        assert all(s.lost_from is None for s in streams.values())
        relocs = [sum(i in s.reloc_indices for s in streams.values())
                  for i in range(len(frames))]
        assert relocs[last] == last_relocs
        assert 0 < sum(relocs[1:last]) < 2 * (last - 1)
        assert adapted == {i: [2 - relocs[i]] for i in range(1, last)
                           if relocs[i] < 2}
        assert joined == {0: [2], **{i: [relocs[i]] for i in range(1, last)
                                     if relocs[i]}}


def shift_leaving_frame():
    rng = np.random.default_rng(1)
    frames = [smooth_image(rng)] + [
        rng.integers(0, 256, size=(96, 96)).astype(np.uint8)
        for _ in range(11)]
    eyes = record(dataset.EyeCenter(3.0, 48.0),
                  dataset.EyeCenter(43.0, 48.0), (0, 20, 96, 60))
    return frames, lambda frame, i: eyes


def test_track_matches_reference_when_shift_leaves_frame():
    """Noise frames move the left track (x = 3) by a random peak, out of
    the frame on some of them; the score is low, and the locator, which
    always finds the eye, brings the track back before it is lost."""
    frames, locate = shift_leaving_frame()
    eyes = locate(frames[0], 0)
    streams = assert_tracks_match_reference(frames, locate)
    left = streams["left"]
    assert left.lost_from is None
    assert left.reloc_indices == list(range(1, 12))
    assert left.boxes[1:] == [dataset.eye_box(eyes, "left")] * 11


def left_invisible_at_start():
    clip = dataset.synth_clip(6, dataset.LABEL_BLINK, 10)
    base = pipeline.annotation_locator(clip)

    def late_left(frame, i):
        rec = base(frame, i)
        return rec if i else replace(rec,
                                     left_eye=dataset.EyeCenter.invisible())

    return list(clip.frames), late_left


def test_track_matches_reference_eye_invisible_at_start():
    streams = assert_tracks_match_reference(*left_invisible_at_start())
    assert streams["left"].lost_from == 0
    assert streams["right"].lost_from is None


def resized_from_noise_frame():
    """A noise frame at 4, from which the locator sees the left eye only,
    in a face whose width gives it a 12 px box: the left track re-localizes
    from 40 px patches to 30 px ones, the right keeps its own guess."""
    frames, base = _clip_frames_and_locator("clip", 7)
    frames[4] = np.random.default_rng(2).integers(
        0, 256, size=frames[4].shape).astype(np.uint8)

    def locate(frame, i):
        rec = base(frame, i)
        if i < 4:
            return rec
        return replace(rec, right_eye=dataset.EyeCenter.invisible(),
                       face_box=(*rec.face_box[:2], 108.0, rec.face_box[3]))

    return frames, locate


def resized_on_last_frame(face_width):
    """The first five frames of ``resized_from_noise_frame``, whose last is
    the noise frame, with a face ``face_width`` px wide there: the left
    track re-localizes on the clip's last frame to a box of
    ``face_width / 9`` px."""
    frames, base = resized_from_noise_frame()

    def locate(frame, i):
        rec = base(frame, i)
        return rec if i < 4 else replace(
            rec, face_box=(*rec.face_box[:2], face_width, rec.face_box[3]))

    return frames[:5], locate


def test_track_clips_matches_reference_per_clip_and_eye():
    """One lockstep call over clips of 1 to 60 frames, with tracks of 18,
    30 and 40 px patches, against each clip and eye tracked alone. Scores
    may differ by float64 rounding of the stacked products."""
    frames, locate = _clip_frames_and_locator("clip", 3)
    group = [_clip_frames_and_locator("stream", 0),
             _clip_frames_and_locator("clip", 1),
             leaving_frames(),           # 30 px; left lost at frame 7
             left_invisible_at_start(),
             failing_on_odd_frames(),
             _clip_frames_and_locator("clip", 2),
             noise_frame_clip(),
             shift_leaving_frame(),
             (frames[:1], locate),
             (frames[:2], locate),
             resized_on_last_frame(108.0),  # left: 12 px box, 30 px patch
             resized_on_last_frame(9.0),    # left: 1 px box, 2 px patch
             resized_from_noise_frame()]
    tracks = pipeline.track_clips(group)
    assert len(tracks) == len(group)
    sizes = set()
    for (frames, locate), streams in zip(group, tracks):
        for eye, stream in streams.items():
            want = reference_track_one_eye(frames, locate, eye)
            assert stream.boxes == want.boxes
            assert stream.reloc_indices == want.reloc_indices
            assert stream.lost_from == want.lost_from
            assert np.max(np.abs(np.subtract(stream.scores,
                                             want.scores))) <= 1e-12
            sizes.update(tracker.track_size(frame, box) for frame, box
                         in zip(frames, stream.boxes) if box)
    assert sizes == {(18, 18), (30, 30), (40, 40)}
    assert tracks[2]["left"].lost_from == 7
    assert tracks[3]["left"].lost_from == 0
    assert [len(s.boxes) for s in tracks[8].values()] == [1, 1]
    assert [len(s.boxes) for s in tracks[9].values()] == [2, 2]
    for resized in tracks[10]["left"], tracks[11]["left"]:
        assert resized.reloc_indices[-1] == 4
    assert tracks[10]["left"].boxes[4][2] == 12.0
    assert tracks[11]["left"].lost_from == 4
    assert tracks[11]["right"].lost_from is None
    resized = tracks[-1]["left"]
    assert 4 in resized.reloc_indices
    assert [b[2] for b in resized.boxes] == [16.0] * 4 + [12.0] * 6
    assert pipeline.track_clips([]) == []


def test_track_clips_rejects_a_clip_with_no_frames():
    clip = dataset.synth_clip(0, dataset.LABEL_BLINK, 10)
    locate = pipeline.annotation_locator(clip)
    with pytest.raises(ValueError, match="need at least one frame"):
        pipeline.track_clips([(clip.frames, locate), ([], locate)])


# ---------------------------------------------------------------------------
# verify_clip


def test_verify_lost_track_is_nonblink_zero():
    clip = dataset.synth_clip(3, dataset.LABEL_BLINK, 10)
    model = tiny_model(input_dim=118, hidden=4)
    verdicts = pipeline.verify_clip(clip, lambda f, i: None, model)
    for v in verdicts.values():
        assert (v.label, v.confidence, v.lost) == ("nonblink", 0.0, True)


def test_verify_eyes_independent():
    clip = dataset.synth_clip(4, dataset.LABEL_BLINK, 10)
    model = tiny_model(input_dim=118, hidden=4)
    base = pipeline.annotation_locator(clip)
    size = dataset.eye_region(clip.annotations[0].left_eye,
                              clip.annotations[0].right_eye,
                              clip.annotations[0].face_box)[0]

    def left_only(frame, i):
        rec = base(frame, i)
        face = rec.face_box
        # face width chosen so the single-eye rule yields the same box size
        return replace(rec, right_eye=dataset.EyeCenter.invisible(),
                       face_box=(face[0], face[1], 9 * size, face[3]))

    both = pipeline.verify_clip(clip, base, model)
    solo = pipeline.verify_clip(clip, left_only, model)
    # both eyes are scored in one predict call, the left one alone in a
    # call of one: the confidence may differ by batched-GEMM rounding
    assert ((solo["left"].label, solo["left"].lost)
            == (both["left"].label, both["left"].lost))
    assert abs(solo["left"].confidence - both["left"].confidence) <= 1e-12
    assert solo["right"].lost


def test_verify_deterministic():
    clip = dataset.synth_clip(6, dataset.LABEL_BLINK, 10)
    model = tiny_model(input_dim=118, hidden=4)
    locate = pipeline.annotation_locator(clip)
    assert (pipeline.verify_clip(clip, locate, model)
            == pipeline.verify_clip(clip, locate, model))


# ---------------------------------------------------------------------------
# temporal NMS


def test_iou_inclusive_frames():
    assert pipeline.temporal_iou((0, 9), (5, 14)) == pytest.approx(5 / 15)
    assert pipeline.temporal_iou((0, 9), (0, 9)) == 1.0
    assert pipeline.temporal_iou((0, 4), (5, 9)) == 0.0


def test_nms_single_proposal():
    ev = _event(3, 12, 0.7)
    assert pipeline.temporal_nms([ev]) == [ev]


def test_nms_identical_intervals():
    keep = _event(0, 9, 0.9)
    drop = _event(0, 9, 0.6)
    assert pipeline.temporal_nms([drop, keep]) == [keep]


def test_nms_boundary_example():
    a = _event(0, 9, 0.8)
    b = _event(5, 14, 0.7)
    c = _event(20, 29, 0.6)
    assert pipeline.temporal_nms([a, b, c], 0.33) == [a, c]


def test_nms_malformed_interval():
    with pytest.raises(ValueError):
        pipeline.temporal_nms([_event(5, 3, 0.5)])


# drawing from three levels makes equal confidences common, so the
# tie-break decides which of two overlapping proposals survives
@pytest.mark.parametrize("draw", [lambda rng: rng.uniform(0, 1),
                                  lambda rng: rng.choice([0.3, 0.6, 0.9])],
                         ids=["uniform", "ties"])
def test_nms_matches_brute_force(rng, draw):
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        proposals = []
        for _ in range(n):
            start = int(rng.integers(0, 31))
            end = start + int(rng.integers(0, 10))
            conf = float(draw(rng))
            eye = "left" if rng.integers(2) else "right"
            proposals.append(_event(start, end, conf, eye))
        thresh = float(rng.choice([0.2, 0.33, 0.5]))
        assert (pipeline.temporal_nms(proposals, thresh)
                == reference_nms(proposals, thresh))


def test_nms_survivors_disjoint(rng):
    for _ in range(50):
        proposals = [_event(int(s), int(s) + int(l), float(c))
                     for s, l, c in zip(rng.integers(0, 30, 6),
                                        rng.integers(0, 10, 6),
                                        rng.uniform(0, 1, 6))]
        kept = pipeline.temporal_nms(proposals, 0.33)
        for i, a in enumerate(kept):
            for b in kept[i + 1:]:
                assert pipeline.temporal_iou((a.start, a.end),
                                             (b.start, b.end)) <= 0.33


# ---------------------------------------------------------------------------
# detect_stream


def _stub_predict(monkeypatch):
    """Score every window 0.0; returns the batch shapes predict was given."""
    calls = []

    def stub(model, batch):
        calls.append(batch.shape)
        return np.zeros(len(batch), dtype=int), np.zeros(len(batch))

    monkeypatch.setattr(pipeline.mslstm, "predict", stub)
    return calls


def reference_detect(frames, locate, model, window=10, stride=1,
                     conf_thresh=0.5, iou_thresh=0.33):
    """Per-window oracle: each window featurized and predicted alone."""
    events = []
    for eye, stream in pipeline.track_eyes(frames, locate).items():
        tracked = (len(frames) if stream.lost_from is None
                   else stream.lost_from)
        proposals = []
        for s in range(0, tracked - window + 1, stride):
            seq = features.featurize_frames(frames[s:s + window],
                                            stream.boxes[s:s + window])
            _, conf = mslstm.predict(model, seq)
            if conf >= conf_thresh:
                proposals.append(_event(s, s + window - 1, conf, eye))
        events.extend(pipeline.temporal_nms(proposals, iou_thresh))
    return sorted(events, key=lambda e: (e.start, pipeline.EYES.index(e.eye)))


@pytest.mark.parametrize("window,stride", [(None, 1), (10, 1), (10, 3)])
def test_score_windows_matches_each_window_alone(monkeypatch, window,
                                                 stride):
    monkeypatch.setattr(pipeline, "WINDOW_BATCH", 7)  # chunks cross seqs
    rng = np.random.default_rng(5)
    seqs = [rng.normal(size=(n, 118)) for n in (9, 12, 9)]
    model = tiny_model(input_dim=118, hidden=4)
    got = pipeline.score_windows(model, seqs, window, stride)
    assert len(got) == len(seqs)
    for seq, windows in zip(seqs, got):
        n = len(seq) if window is None else window - 1
        starts = list(range(0, len(seq) - n + 1, stride))
        assert [s for s, _, _ in windows] == starts
        for s, label, conf in windows:
            want_label, want_conf = mslstm.predict(model, seq[s:s + n])
            assert label == want_label
            assert abs(conf - want_conf) <= 1e-12


def test_detect_window_count(monkeypatch):
    clip, _ = dataset.synth_stream(0, 50, blink_center=None)
    calls = _stub_predict(monkeypatch)
    model = tiny_model(input_dim=118, hidden=4)
    events = pipeline.detect_stream(clip.frames,
                                    pipeline.annotation_locator(clip), model)
    assert events == []
    # both eyes, floor((50-10)/1)+1 windows of 9 steps each, one call each
    assert calls == [(41, 9, 118)] * 2


@pytest.mark.parametrize("frames_locate,window,want", [
    # a stream exactly one window long
    (lambda: _stream_and_locator(10), 10, [(1, 9, 118)] * 2),
    # left lost at frame 7, right tracked over all 16 frames
    (leaving_frames, 7, [(1, 6, 118), (10, 6, 118)]),
])
def test_detect_scores_a_window_ending_at_the_last_tracked_frame(
        monkeypatch, frames_locate, window, want):
    calls = _stub_predict(monkeypatch)
    frames, locate = frames_locate()
    pipeline.detect_stream(frames, locate,
                           tiny_model(input_dim=118, hidden=4), window=window)
    assert calls == want


def test_detect_keeps_a_window_at_the_confidence_threshold():
    clip, _ = dataset.synth_stream(1, 20, blink_center=10)
    locate = pipeline.annotation_locator(clip)
    model = tiny_model(input_dim=118, hidden=4)
    top = max(e.confidence for e in pipeline.detect_stream(
        clip.frames, locate, model, conf_thresh=0.0))
    events = pipeline.detect_stream(clip.frames, locate, model,
                                    conf_thresh=top)
    assert top in [e.confidence for e in events]


def test_detect_stride(monkeypatch):
    clip, _ = dataset.synth_stream(0, 50, blink_center=None)
    calls = _stub_predict(monkeypatch)
    model = tiny_model(input_dim=118, hidden=4)
    pipeline.detect_stream(clip.frames, pipeline.annotation_locator(clip),
                           model, stride=5)
    assert calls == [(9, 9, 118)] * 2  # floor((50-10)/5)+1 per eye


@pytest.mark.parametrize("stride,thresholds", [
    (1, (0.0, 1.0)),  # every window survives: all confidences compared
    (3, (0.0, 1.0)),
    (1, (None, 0.33)),  # None: the median confidence, so NMS has work
])
def test_detect_batches_match_per_window_reference(monkeypatch, stride,
                                                   thresholds):
    monkeypatch.setattr(pipeline, "WINDOW_BATCH", 7)
    conf_thresh, iou_thresh = thresholds
    clip, _ = dataset.synth_stream(1, 40, blink_center=20)
    locate = pipeline.annotation_locator(clip)
    model = tiny_model(input_dim=118, hidden=4)
    if conf_thresh is None:
        conf_thresh = float(np.median([
            e.confidence for e in reference_detect(
                clip.frames, locate, model, conf_thresh=0.0, iou_thresh=1.0)]))
    got = pipeline.detect_stream(clip.frames, locate, model, stride=stride,
                                 conf_thresh=conf_thresh,
                                 iou_thresh=iou_thresh)
    want = reference_detect(clip.frames, locate, model, stride=stride,
                            conf_thresh=conf_thresh, iou_thresh=iou_thresh)
    assert got
    assert ([(e.eye, e.start, e.end) for e in got]
            == [(e.eye, e.start, e.end) for e in want])
    assert all(type(e.confidence) is float for e in got)
    assert max(abs(a.confidence - b.confidence)
               for a, b in zip(got, want)) <= 1e-12


def _stream_and_locator(n):
    clip, _ = dataset.synth_stream(0, n, blink_center=None)
    return clip.frames, pipeline.annotation_locator(clip)


@pytest.mark.parametrize("frames_locate,stride,want", [
    # 41 windows per eye in chunks of 7
    (lambda: _stream_and_locator(50), 1, [7, 7, 7, 7, 7, 6] * 2),
    (lambda: _stream_and_locator(50), 5, [7, 2] * 2),
    # left lost before its first whole window: no call for it
    (leaving_frames, 1, [7]),
])
def test_detect_one_predict_call_per_chunk(monkeypatch, frames_locate,
                                           stride, want):
    monkeypatch.setattr(pipeline, "WINDOW_BATCH", 7)
    sizes = []
    real = mslstm.predict

    def counting(model, batch):
        sizes.append(len(batch))
        return real(model, batch)

    monkeypatch.setattr(pipeline.mslstm, "predict", counting)
    frames, locate = frames_locate()
    pipeline.detect_stream(frames, locate,
                           tiny_model(input_dim=118, hidden=4), stride=stride)
    assert sizes == want


@pytest.mark.parametrize("kwargs,name", [
    ({"stride": 0}, "stride"),
    ({"stride": -1}, "stride"),
    ({"window": 0}, "window"),
    ({"window": 2}, "window"),  # one step, but the model reads the last 2
    ({"conf_thresh": float("nan")}, "conf-thresh"),
    ({"iou_thresh": float("nan")}, "iou-thresh"),
])
def test_detect_rejects_bad_window_arguments(kwargs, name):
    clip, _ = dataset.synth_stream(1, 40, blink_center=20)
    model = tiny_model(input_dim=118, hidden=4, scales=2)
    with pytest.raises(ValueError, match=name):
        pipeline.detect_stream(clip.frames,
                               pipeline.annotation_locator(clip), model,
                               **kwargs)


def test_detect_impossible_threshold_returns_nothing():
    clip, _ = dataset.synth_stream(1, 50, blink_center=25)
    model = tiny_model(input_dim=118, hidden=4)
    events = pipeline.detect_stream(clip.frames,
                                    pipeline.annotation_locator(clip), model,
                                    conf_thresh=1.0 + 1e-9)
    assert events == []


def test_detect_short_stream_rejected():
    clip = dataset.synth_clip(0, dataset.LABEL_NONBLINK, 5)
    model = tiny_model(input_dim=118, hidden=4)
    with pytest.raises(ValueError):
        pipeline.detect_stream(clip.frames,
                               pipeline.annotation_locator(clip), model)


def test_detect_event_extent_is_window_length():
    clip, gt = dataset.synth_stream(2, 50, blink_center=25)
    model = tiny_model(input_dim=118, hidden=4)
    events = pipeline.detect_stream(clip.frames,
                                    pipeline.annotation_locator(clip), model,
                                    conf_thresh=0.0)
    assert events, "zero threshold must yield at least one event per eye"
    for ev in events:
        assert ev.end - ev.start + 1 == 10
        assert 0.0 <= ev.confidence <= 1.0
    starts = [(e.start, e.eye) for e in events]
    assert starts == sorted(starts)
