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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import features, mslstm, tracker
from .dataset import AnnotationRecord, Clip, eye_box
from .errors import TrackLostError

EYES = ("left", "right")
TRACK_THRESH = 0.25  # re-localization trigger on the KCF score
# windows per predict call in detect_stream. A batch's window copies and
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
        if index < len(clip.annotations):
            return clip.annotations[index]
        return None

    return locate


def _track_one_eye(frames, locator: EyeLocator,
                   eye_name: str) -> TrackedStream:
    """Track one eye; a track that cannot start, or whose kept region
    leaves the frame, ends there, with no box from that frame on."""
    n = len(frames)
    stream = TrackedStream(boxes=[], scores=[])
    located = locator(frames[0], 0)
    region = eye_box(located, eye_name) if located else None
    t = 0
    try:
        if region is None:
            raise TrackLostError("eye not located in the first frame")
        state = tracker.kcf_init(frames[0], region)
        stream.boxes.append(region)
        stream.scores.append(1.0)
        for t in range(1, n):
            state, result = tracker.kcf_update(state, frames[t])
            score = result.score
            if score < TRACK_THRESH:
                stream.reloc_indices.append(t)
                located = locator(frames[t], t)
                fresh = eye_box(located, eye_name) if located else None
                if fresh is not None:
                    state = tracker.kcf_init(frames[t], fresh)
                    stream.boxes.append(fresh)
                    stream.scores.append(score)
                    continue
                # locator failed: keep the tracker's best guess
            state = tracker.kcf_adapt(state, frames[t])
            stream.boxes.append(result.region)
            stream.scores.append(score)
    except TrackLostError:
        stream.lost_from = t
        stream.boxes.extend([None] * (n - t))
        stream.scores.extend([0.0] * (n - t))
    return stream


def track_eyes(frames, locator: EyeLocator) -> dict[str, TrackedStream]:
    """Track both eyes independently over the frame list."""
    if not frames:
        raise ValueError("need at least one frame")
    return {eye: _track_one_eye(frames, locator, eye) for eye in EYES}


@dataclass(frozen=True)
class EyeVerdict:
    label: str  # blink | nonblink
    confidence: float
    lost: bool


def verify_clip(clip: Clip, locator: EyeLocator,
                model: mslstm.MsLstmModel) -> dict[str, EyeVerdict]:
    """Per-eye blink verdict for a fixed-length clip: track, then verify."""
    streams = track_eyes(clip.frames, locator)
    return verify_streams(clip.frames, streams, model)


def verify_streams(frames, streams: dict[str, TrackedStream],
                   model: mslstm.MsLstmModel) -> dict[str, EyeVerdict]:
    """Per-eye blink verdict from the streams ``track_eyes`` returned.

    A track lost anywhere in the clip yields (nonblink, 0.0, lost) so it can
    be counted as a false negative for blink-labelled clips.
    """
    out = {}
    for eye, stream in streams.items():
        if stream.lost_from is not None:
            out[eye] = EyeVerdict("nonblink", 0.0, True)
            continue
        seq = features.featurize_frames(frames, stream.boxes)
        label, conf = mslstm.predict(model, seq)
        name = "blink" if label == mslstm.CLASS_BLINK else "nonblink"
        out[eye] = EyeVerdict(name, conf, False)
    return out


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


def _window_confidences(model: mslstm.MsLstmModel, steps: np.ndarray,
                        window: int, stride: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Start frame and blink confidence of every ``window``-frame window
    over one track's feature steps, ``WINDOW_BATCH`` windows per
    ``predict`` call. Window s reads steps s .. s+window-2."""
    starts = np.arange(0, len(steps) - window + 2, stride)
    offsets = np.arange(window - 1)
    confs = np.empty(starts.size)
    for lo in range(0, starts.size, WINDOW_BATCH):
        chunk = starts[lo:lo + WINDOW_BATCH]
        _, confs[lo:lo + chunk.size] = mslstm.predict(
            model, steps[chunk[:, None] + offsets])
    return starts, confs


def detect_stream(frames, locator: EyeLocator, model: mslstm.MsLstmModel,
                  window: int = 10, stride: int = 1,
                  conf_thresh: float = 0.5,
                  iou_thresh: float = 0.33) -> list[BlinkEvent]:
    """Sliding-window blink detection over an untrimmed stream.

    One tracked stream per eye spans the whole video; its frames are
    featurized once and every window position is sliced from those steps
    and classified, ``WINDOW_BATCH`` windows per ``predict`` call. A lost
    track ends the eye's windows: only those fully inside ``[0, lost_from)``
    are scored. Windows at or above the confidence threshold become
    proposals, pruned per eye by temporal NMS. Events come back sorted by
    start frame. ``stride`` must be >= 1 and ``window`` must give the model
    at least ``scales`` steps.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if window - 1 < model.scales:
        raise ValueError(f"window must be >= {model.scales + 1} frames "
                         f"(the model reads its last {model.scales} "
                         f"steps), got {window}")
    n = len(frames)
    if n < window:
        raise ValueError(f"stream of {n} frames shorter than window {window}")
    streams = track_eyes(frames, locator)
    events: list[BlinkEvent] = []
    for eye, stream in streams.items():
        tracked = n if stream.lost_from is None else stream.lost_from
        proposals = []
        if tracked >= window:
            steps = features.featurize_frames(frames[:tracked],
                                              stream.boxes[:tracked])
            starts, confs = _window_confidences(model, steps, window, stride)
            proposals = [BlinkEvent(int(s), int(s) + window - 1, float(c), eye)
                         for s, c in zip(starts, confs) if c >= conf_thresh]
        events.extend(temporal_nms(proposals, iou_thresh))
    return sorted(events, key=lambda e: (e.start, EYES.index(e.eye)))
