"""End-to-end detection: locate, track, featurize, verify, slide, suppress.

An EyeLocator returns the annotation record it found for a frame: two eye
centers and a face box (in production a face-parsing engine would find it;
here the clip's annotations stand in), and ``dataset.eye_box`` gives each
eye's region. KCF propagates each eye region frame to frame; when the
tracking score drops below a threshold the locator is re-invoked, and the
filter is retrained only on a frame whose track is kept. Fixed windows
slide over untrimmed streams and the classifier's blink confidence per
window feeds greedy temporal non-maximum suppression.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import features, mslstm, tracker
from .dataset import (DEFAULT_CLIP_LEN, LABEL_BLINK, LABEL_NONBLINK,
                      AnnotationRecord, Clip, eye_box)
from .errors import TrackLostError

EYES = ("left", "right")
TRACK_THRESH = 0.25  # re-localization trigger on the KCF score
# windows per predict call in score_windows. A batch's window copies and
# per-layer outputs grow with its size: on a 3000-frame stream one batch per
# eye raised detect's peak RSS by 99 MB, chunks of 256 by 14 MB.
WINDOW_BATCH = 256

# locator contract: (frame, frame_index) -> the frame's record, or None
EyeLocator = Callable[[np.ndarray, int], Optional[AnnotationRecord]]


@dataclass
class TrackedStream:
    """Per-eye track over a frame sequence."""
    boxes: list  # (cx, cy, h, w) per frame, None once lost
    scores: list
    reloc_indices: list = field(default_factory=list)
    lost_from: int | None = None


@dataclass(frozen=True)
class BlinkEvent:
    start: int
    end: int  # inclusive
    confidence: float
    eye: str  # left | right


def annotation_locator(clip: Clip) -> EyeLocator:
    """Locator backed by the clip's own annotations.

    Eyes labelled (-1, -1) come back as invisible; frames beyond the
    annotated range report absence.
    """
    def locate(frame: np.ndarray, index: int):
        return (clip.annotations[index] if index < len(clip.annotations)
                else None)

    return locate


def track_clips(clips) -> list[dict[str, TrackedStream]]:
    """Track both eyes of every ``(frames, locator)`` clip, all in lockstep.

    At each frame index the live tracks of one padded size are the rows of
    one ``tracker.KcfStack``, and every frame, the first included, runs one
    rule. Every stack is located once; at frame 0 every eye starts with no
    guess and score 1.0. Each clip's locator is asked at most once, for its
    eyes that have no guess or score below ``TRACK_THRESH``. An eye's box
    is the locator's fresh box if it found one, and otherwise the tracker's
    guess. The track ends there, with no box from that frame on, when there
    is no box or ``tracker.track_size`` raises on it. A track whose clip
    has a next frame stays in a stack: a guess is adapted in its own stack,
    and a fresh box is learned as a new row of the stack of its padded
    size. Every other row leaves its stack.
    """
    if any(not frames for frames, _ in clips):
        raise ValueError("need at least one frame")
    out = [{eye: TrackedStream(boxes=[], scores=[]) for eye in EYES}
           for _ in clips]
    stacks: dict[tuple[int, int], tracker.KcfStack] = {}
    # (key, stack row, tracker's guess, score) of each track at this frame
    tracks = [((c, eye), None, None, 1.0)
              for c in range(len(clips)) for eye in EYES]
    for t in range(max((len(frames) for frames, _ in clips), default=0)):
        found = {}
        for size, stack in stacks.items():
            frames_t = [clips[c][0][t] for c, _ in stack.keys]
            located = tracker.stack_locate(stack, frames_t)
            found[size] = frames_t, located
            tracks += zip(stack.keys, range(len(stack.keys)),
                          map(tuple, located.regions.tolist()),
                          located.scores.tolist())
        low = {key for key, _, guess, score in tracks
               if guess is None or score < TRACK_THRESH}
        records = {c: clips[c][1](clips[c][0][t], t)
                   for c in sorted({c for c, _ in low})}
        kept, joins = defaultdict(list), defaultdict(list)
        for key, row, guess, score in tracks:
            frames, stream = clips[key[0]][0], out[key[0]][key[1]]
            fresh = None
            if key in low:
                if guess is not None:
                    stream.reloc_indices.append(t)
                rec = records[key[0]]
                fresh = eye_box(rec, key[1]) if rec else None
            box = guess if fresh is None else fresh
            try:
                if box is None:
                    raise TrackLostError("the locator found no box")
                size = tracker.track_size(frames[t], box)
            except TrackLostError:
                stream.lost_from = t
                stream.boxes.extend([None] * (len(frames) - t))
                stream.scores.extend([0.0] * (len(frames) - t))
                continue
            stream.boxes.append(box)
            stream.scores.append(score)
            if t + 1 < len(frames):
                if fresh is None:
                    kept[size].append(row)
                else:
                    joins[size].append((key, fresh))
        for size, rows in kept.items():
            tracker.stack_adapt(stacks[size], rows, *found[size])
        stacks = {size: stacks[size] for size in kept}
        for size, rows in joins.items():
            if size not in stacks:
                stacks[size] = tracker.kcf_stack(size)
            keys, regions = zip(*rows)
            tracker.stack_join(stacks[size], keys,
                               [clips[c][0][t] for c, _ in keys], regions)
        tracks = []
    return out


def track_eyes(frames, locator: EyeLocator) -> dict[str, TrackedStream]:
    """Track both eyes over the frame list: ``track_clips`` on one clip."""
    return track_clips([(frames, locator)])[0]


@dataclass(frozen=True)
class EyeVerdict:
    label: str  # blink | nonblink
    confidence: float
    lost: bool


def verify_clip(clip: Clip, locator: EyeLocator,
                model: mslstm.MsLstmModel) -> dict[str, EyeVerdict]:
    """Per-eye blink verdict for a fixed-length clip: track, then verify."""
    streams = track_eyes(clip.frames, locator)
    return verify_streams([clip.frames], [streams], model)[0]


def verify_streams(clip_frames, streams: list[dict[str, TrackedStream]],
                   model: mslstm.MsLstmModel) -> list[dict[str, EyeVerdict]]:
    """Per-eye blink verdicts of many clips, in clip order, from each
    clip's frames and the streams ``track_clips`` returned for it.

    A clip is one window: ``tracked_steps`` keeps the tracks that hold all
    of its frames, and ``score_windows`` scores them together. A track
    lost anywhere in the clip yields (nonblink, 0.0, lost) so it can be
    counted as a false negative for blink-labelled clips.
    """
    verdicts, keys, seqs = [], [], []
    for i, (frames, tracks) in enumerate(zip(clip_frames, streams)):
        verdicts.append(dict.fromkeys(tracks,
                                      EyeVerdict(LABEL_NONBLINK, 0.0, True)))
        for eye, seq in tracked_steps(frames, tracks, len(frames)).items():
            keys.append((i, eye))
            seqs.append(seq)
    for (i, eye), [(_, label, conf)] in zip(keys, score_windows(model, seqs)):
        name = LABEL_BLINK if label == mslstm.CLASS_BLINK else LABEL_NONBLINK
        verdicts[i][eye] = EyeVerdict(name, conf, False)
    return verdicts


def temporal_iou(a: tuple[int, int], b: tuple[int, int]) -> float:
    """IoU over inclusive frame intervals."""
    inter = min(a[1], b[1]) - max(a[0], b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - inter
    return inter / union


def temporal_nms(proposals: list[BlinkEvent],
                 iou_thresh: float = 0.33) -> list[BlinkEvent]:
    """Greedy suppression: take the most confident proposal, drop everything
    whose IoU with it strictly exceeds the threshold, repeat. Ties break to
    the earlier start, then left before right."""
    for p in proposals:
        if p.start > p.end:
            raise ValueError(f"malformed interval ({p.start}, {p.end})")
    pending = sorted(proposals,
                     key=lambda p: (-p.confidence, p.start, EYES.index(p.eye)))
    kept: list[BlinkEvent] = []
    while pending:
        best = pending.pop(0)
        kept.append(best)
        pending = [p for p in pending
                   if temporal_iou((best.start, best.end),
                                   (p.start, p.end)) <= iou_thresh]
    return kept


def tracked_steps(frames, tracks: dict[str, TrackedStream],
                  window: int) -> dict[str, np.ndarray]:
    """Feature steps of each eye whose track holds a whole ``window``-frame
    window inside ``[0, lost_from)``, over those tracked frames. Eyes whose
    track is lost sooner are left out."""
    steps = {}
    for eye, stream in tracks.items():
        tracked = len(frames) if stream.lost_from is None else stream.lost_from
        if tracked >= window:
            steps[eye] = features.featurize_frames(frames[:tracked],
                                                   stream.boxes[:tracked])
    return steps


def score_windows(model: mslstm.MsLstmModel, seqs, window: int | None = None,
                  stride: int = 1) -> list[list[tuple[int, int, float]]]:
    """``(start, label, confidence)`` of every window of every step
    sequence, one list per sequence, in input order. ``window=None`` is one
    window spanning the whole sequence; otherwise window s reads steps
    s .. s+window-2, every ``stride``-th s. Windows with the same step count
    are scored together, in order, ``WINDOW_BATCH`` per ``predict`` call."""
    groups = {}  # step count -> [(sequence index, start)]
    for i, seq in enumerate(seqs):
        n = len(seq) if window is None else window - 1
        groups.setdefault(n, []).extend(
            (i, s) for s in range(0, len(seq) - n + 1, stride))
    out = [[] for _ in seqs]
    for n, windows in groups.items():
        for lo in range(0, len(windows), WINDOW_BATCH):
            chunk = windows[lo:lo + WINDOW_BATCH]
            labels, confs = mslstm.predict(
                model, np.stack([seqs[i][s:s + n] for i, s in chunk]))
            for (i, s), label, conf in zip(chunk, labels.tolist(),
                                           confs.tolist()):
                out[i].append((s, label, conf))
    return out


def detect_stream(frames, locator: EyeLocator, model: mslstm.MsLstmModel,
                  window: int = DEFAULT_CLIP_LEN, stride: int = 1,
                  conf_thresh: float = 0.5,
                  iou_thresh: float = 0.33) -> list[BlinkEvent]:
    """Sliding-window blink detection over an untrimmed stream.

    One tracked stream per eye spans the whole video. ``tracked_steps``
    featurizes it once, up to the frame it is lost at, and
    ``score_windows`` classifies every whole window inside those frames.
    Windows at or above the confidence threshold become proposals, pruned
    per eye by temporal NMS. Events come back sorted by start frame.
    ``stride`` must be >= 1, ``window`` must give the model at least
    ``scales`` steps, and both thresholds must be finite.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    for name, value in (("conf-thresh", conf_thresh),
                        ("iou-thresh", iou_thresh)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if window - 1 < model.scales:
        raise ValueError(f"window must be >= {model.scales + 1} frames "
                         f"(the model reads its last {model.scales} "
                         f"steps), got {window}")
    n = len(frames)
    if n < window:
        raise ValueError(f"stream of {n} frames shorter than window {window}")
    events: list[BlinkEvent] = []
    steps = tracked_steps(frames, track_eyes(frames, locator), window)
    for eye, seq in steps.items():
        [windows] = score_windows(model, [seq], window, stride)
        events.extend(temporal_nms(
            [BlinkEvent(s, s + window - 1, c, eye) for s, _, c in windows
             if c >= conf_thresh], iou_thresh))
    return sorted(events, key=lambda e: (e.start, EYES.index(e.eye)))
