"""Clip ingestion, temporal polishing, eye-region geometry and synthetic data.

Frames are plain 2-D uint8 numpy arrays (row-major, intensities 0..255).
A clip couples an ordered frame list with per-frame annotations and a
binary label. The on-disk layout is one directory per clip holding
``frame_0000.pgm`` ... plus ``annotations.csv``, referenced by a
line-oriented manifest (see `load_manifest`).
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AnnotationError,
    FrameFormatError,
    ManifestError,
    MissingAssetError,
    NoVisibleEyeError,
    SplitViolationError,
)

LABEL_BLINK = "blink"
LABEL_NONBLINK = "nonblink"

DEFAULT_CLIP_LEN = 10  # blink durations: mean 6.18, sd 1.54 -> 3-sigma cap

ANNOTATION_HEADER = ["frame", "face_x", "face_y", "face_w", "face_h",
                     "lx", "ly", "rx", "ry"]


@dataclass(frozen=True)
class EyeCenter:
    x: float
    y: float
    visible: bool = True

    @staticmethod
    def invisible() -> "EyeCenter":
        return EyeCenter(-1.0, -1.0, False)


@dataclass(frozen=True)
class AnnotationRecord:
    """One frame's annotation; the frame is the record's position."""
    face_box: tuple[float, float, float, float]  # x, y, w, h
    left_eye: EyeCenter
    right_eye: EyeCenter


@dataclass
class Clip:
    frames: list[np.ndarray]
    annotations: list[AnnotationRecord]
    label: str
    source_id: str = ""

    def __post_init__(self):
        if len(self.frames) != len(self.annotations):
            raise ValueError("frames and annotations must have equal length")
        if len(self.frames) == 0:
            raise ValueError("clip must contain at least one frame")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class ManifestEntry:
    clip_dir: str
    label: str
    split: str  # train | test
    source_id: str


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)

    def split(self, tag: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == tag]


def manhattan(a: tuple[float, float] | EyeCenter, b) -> float:
    ax, ay = (a.x, a.y) if isinstance(a, EyeCenter) else (a[0], a[1])
    bx, by = (b.x, b.y) if isinstance(b, EyeCenter) else (b[0], b[1])
    return abs(ax - bx) + abs(ay - by)


def eye_region(left: EyeCenter, right: EyeCenter,
               face_box: tuple[float, float, float, float]) -> tuple[int, int]:
    """Side length of the square local-eye window, as (height, width).

    Both eyes visible: 0.4 x Manhattan inter-ocular distance. One eye
    visible: 1/9 of the face width. Rounded to nearest, floored at 1 px.
    """
    if left.visible and right.visible:
        size = 0.4 * manhattan(left, right)
    elif left.visible or right.visible:
        size = face_box[2] / 9.0
    else:
        raise NoVisibleEyeError("neither eye is visible")
    side = max(1, int(round(size)))
    return side, side


def eye_box(rec: AnnotationRecord, eye: str) -> tuple | None:
    """(cx, cy, h, w) region of ``eye`` ("left" or "right") in ``rec``, or
    None when that eye is not visible."""
    center = rec.left_eye if eye == "left" else rec.right_eye
    if not center.visible:
        return None
    h, w = eye_region(rec.left_eye, rec.right_eye, rec.face_box)
    return (center.x, center.y, float(h), float(w))


def crop_eye(frame: np.ndarray, center: EyeCenter,
             size: tuple[int, int]) -> np.ndarray:
    """h x w patch centered on the eye; out-of-frame pixels edge-replicate."""
    if not center.visible:
        raise ValueError("cannot crop around an invisible eye center")
    h, w = int(size[0]), int(size[1])
    if h < 1 or w < 1:
        raise ValueError("crop size must be positive")
    y0 = int(round(center.y)) - h // 2
    x0 = int(round(center.x)) - w // 2
    if (0 <= y0 and y0 + h <= frame.shape[0]
            and 0 <= x0 and x0 + w <= frame.shape[1]):
        return frame[y0:y0 + h, x0:x0 + w].copy()  # inside: no index arrays
    rows = np.clip(y0 + np.arange(h), 0, frame.shape[0] - 1)
    cols = np.clip(x0 + np.arange(w), 0, frame.shape[1] - 1)
    return frame[np.ix_(rows, cols)]


# ---------------------------------------------------------------------------
# temporal polishing


def _alternation_plan(n: int, target: int, closed: int) -> tuple[int, int]:
    """Head/tail op counts for extending or cutting ``n`` frames to ``target``.

    Ops alternate between the two ends, starting at whichever end moves the
    closed frame toward floor(target/2); ties prefer the head end.
    Returns (head_ops, tail_ops).
    """
    total = abs(target - n)
    mid = target // 2
    if n < target:
        final = lambda head_ops: closed + head_ops  # head copies shift it right
    else:
        final = lambda head_ops: closed - head_ops  # head cuts shift it left
    head_first = (math.ceil(total / 2), total // 2)
    tail_first = (total // 2, math.ceil(total / 2))
    if abs(final(head_first[0]) - mid) <= abs(final(tail_first[0]) - mid):
        return head_first
    return tail_first


def _closed_frame_index(clip: Clip) -> int:
    """Fully-closed frame estimate: minimal mean intensity in the eye crops."""
    means = []
    for frame, rec in zip(clip.frames, clip.annotations):
        vals = [float(crop_eye(frame, EyeCenter(*box[:2]), box[2:]).mean())
                for box in (eye_box(rec, "left"), eye_box(rec, "right"))
                if box is not None]
        means.append(np.mean(vals) if vals else np.inf)
    return int(np.argmin(means))


def polish_clip(clip: Clip, target_len: int = DEFAULT_CLIP_LEN,
                closed_index: int | None = None) -> Clip:
    """Fix the clip to ``target_len`` frames.

    Short clips duplicate the first/last frame alternately; long clips drop
    frames from the two ends alternately. For blink clips the fully-closed
    frame, ``closed_index`` or else the darkest-eye frame
    (`_closed_frame_index`), is steered toward the middle of the output;
    non-blink clips are center-aligned with no closed-frame constraint.
    """
    if target_len < 1:
        raise ValueError("target_len must be >= 1")
    n = len(clip)
    closed = closed_index if clip.label == LABEL_BLINK else (n - 1) // 2
    if closed is None:
        closed = _closed_frame_index(clip)
    if not 0 <= closed < n:
        raise ValueError("closed_index outside clip")

    head, tail = _alternation_plan(n, target_len, closed)
    if n < target_len:
        picks = [0] * head + list(range(n)) + [n - 1] * tail
    else:
        picks = list(range(head, n - tail))

    return Clip(frames=[clip.frames[i] for i in picks],
                annotations=[clip.annotations[i] for i in picks],
                label=clip.label, source_id=clip.source_id)


# ---------------------------------------------------------------------------
# PGM + annotation IO


def write_pgm(path: str, frame: np.ndarray) -> None:
    frame = np.asarray(frame, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (frame.shape[1], frame.shape[0]))
        f.write(frame.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """8-bit binary PGM as an (h, w) uint8 array; a file that is not one
    raises FrameFormatError naming it."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise FrameFormatError(f"{path}: not a binary PGM")
    # header: magic, width height, maxval; comments allowed after magic
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            pos = data.find(b"\n", pos) + 1
            if pos == 0:
                raise FrameFormatError(f"{path}: unterminated header comment")
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(x) for x in fields)
    except ValueError:
        raise FrameFormatError(f"{path}: non-integer size or maxval in "
                               f"the header") from None
    if w < 1 or h < 1:
        raise FrameFormatError(f"{path}: bad frame size {w}x{h}")
    if maxval != 255:
        raise FrameFormatError(f"{path}: expected maxval 255, got {maxval}")
    if len(data) < pos + w * h:
        raise FrameFormatError(f"{path}: truncated: {w}x{h} pixels need "
                               f"{w * h} bytes after the header")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).copy()


def _eye_from_fields(x: float, y: float) -> EyeCenter:
    if x == -1 and y == -1:
        return EyeCenter.invisible()
    return EyeCenter(x, y, True)


def load_annotations(path: str) -> list[AnnotationRecord]:
    """Records of an annotation CSV, frames numbered 0..n-1 in row order;
    a malformed header or row, or no row at all, raises AnnotationError
    naming the file, and the line of a bad row."""
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = [(reader.line_num, row) for row in reader]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise AnnotationError(f"{path}: not a readable CSV ({exc})") from None
    header = rows[0][1] if rows else None
    if header != ANNOTATION_HEADER:
        raise AnnotationError(f"{path}: bad header {str(header)[:120]}")
    records = []
    for line, row in rows[1:]:
        if not row:
            continue
        where = f"{path}:{line}"
        if len(row) != len(ANNOTATION_HEADER):
            raise AnnotationError(f"{where}: expected "
                                  f"{len(ANNOTATION_HEADER)} fields, "
                                  f"got {len(row)}")
        try:
            frame = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise AnnotationError(f"{where}: non-numeric field") from None
        if not all(map(math.isfinite, values)):
            raise AnnotationError(f"{where}: non-finite field")
        if frame != len(records):
            raise AnnotationError(f"{where}: frame {frame}, expected "
                                  f"{len(records)}")
        fx, fy, fw, fh, lx, ly, rx, ry = values
        records.append(AnnotationRecord(
            face_box=(fx, fy, fw, fh), left_eye=_eye_from_fields(lx, ly),
            right_eye=_eye_from_fields(rx, ry)))
    if not records:
        raise AnnotationError(f"{path}: no annotation rows")
    return records


def save_annotations(path: str, records: list[AnnotationRecord]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(ANNOTATION_HEADER)
        for i, r in enumerate(records):
            le = (r.left_eye.x, r.left_eye.y) if r.left_eye.visible else (-1, -1)
            re_ = (r.right_eye.x, r.right_eye.y) if r.right_eye.visible else (-1, -1)
            writer.writerow([i,
                             *(repr(float(v)) for v in r.face_box),
                             *(repr(float(v)) for v in (*le, *re_))])


def _validate_record(rec: AnnotationRecord, shape: tuple[int, int],
                     where: str) -> None:
    x, y, w, h = rec.face_box
    if w <= 0 or h <= 0:
        raise AnnotationError(f"{where}: degenerate face box")
    if x < 0 or y < 0 or x + w > shape[1] or y + h > shape[0]:
        raise AnnotationError(f"{where}: face box outside frame")
    for name, eye in (("left", rec.left_eye), ("right", rec.right_eye)):
        if eye.visible and not (x <= eye.x <= x + w and y <= eye.y <= y + h):
            raise AnnotationError(f"{where}: {name} eye outside face box")


def load_clip(clip_dir: str, label: str, source_id: str = "") -> Clip:
    """Record i annotates ``frame_{i:04d}.pgm``; frames share one size."""
    ann_path = os.path.join(clip_dir, "annotations.csv")
    anns = load_annotations(ann_path)
    frames = []
    for i, rec in enumerate(anns):
        path = os.path.join(clip_dir, f"frame_{i:04d}.pgm")
        if not os.path.exists(path):
            raise MissingAssetError(f"missing frame file {path}")
        frame = read_pgm(path)
        if frames and frame.shape != frames[0].shape:
            raise FrameFormatError(
                f"{path}: frame size {frame.shape[1]}x{frame.shape[0]}, but "
                f"frame 0 is {frames[0].shape[1]}x{frames[0].shape[0]}")
        _validate_record(rec, frame.shape, f"{ann_path}: frame {i}")
        frames.append(frame)
    return Clip(frames=frames, annotations=anns, label=label,
                source_id=source_id or os.path.basename(clip_dir))


def save_clip(clip_dir: str, clip: Clip) -> None:
    os.makedirs(clip_dir, exist_ok=True)
    for i, frame in enumerate(clip.frames):
        write_pgm(os.path.join(clip_dir, f"frame_{i:04d}.pgm"), frame)
    save_annotations(os.path.join(clip_dir, "annotations.csv"),
                     clip.annotations)


def load_manifest(path: str) -> Manifest:
    """Parse a manifest: ``clip_dir<TAB>label<TAB>split<TAB>source_id``.

    Clip paths are resolved relative to the manifest file. Every referenced
    clip directory must exist, and each source_id is a plain file name (not
    empty, ``.`` or ``..``, no path separator) and names one entry; a repeat
    in the other split is a SplitViolationError.
    A malformed manifest raises a ManifestError naming the file.
    """
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    seen: dict[str, str] = {}  # source_id -> split
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ManifestError(f"{path}:{lineno}: expected 4 tab fields")
        clip_dir, label, split, source_id = parts
        if label not in (LABEL_BLINK, LABEL_NONBLINK):
            raise ManifestError(f"{path}:{lineno}: bad label {label!r}")
        if split not in ("train", "test"):
            raise ManifestError(f"{path}:{lineno}: bad split {split!r}")
        resolved = clip_dir if os.path.isabs(clip_dir) else os.path.join(base, clip_dir)
        if not os.path.isdir(resolved):
            raise MissingAssetError(f"{path}:{lineno}: no clip at {resolved}")
        if not source_id:
            raise ManifestError(f"{path}:{lineno}: empty source id")
        if source_id in (".", "..") or any(
                sep in source_id for sep in (os.sep, os.altsep) if sep):
            raise ManifestError(f"{path}:{lineno}: source id {source_id!r} "
                                f"is not a plain file name")
        prev = seen.get(source_id)
        if prev == split:
            raise ManifestError(f"{path}:{lineno}: source {source_id!r} "
                                f"repeated in the {split} split")
        if prev is not None:
            raise SplitViolationError(
                f"{path}:{lineno}: source {source_id!r} in both splits")
        seen[source_id] = split
        entries.append(ManifestEntry(resolved, label, split, source_id))
    return Manifest(entries=entries)


def write_manifest(path: str, entries: list[ManifestEntry]) -> None:
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as f:
        for e in entries:
            rel = os.path.relpath(e.clip_dir, base)
            f.write(f"{rel}\t{e.label}\t{e.split}\t{e.source_id}\n")


# ---------------------------------------------------------------------------
# synthetic clips


@dataclass(frozen=True)
class SynthLayout:
    """Geometry of the rendered face; fixture values, not tuned claims."""
    frame_h: int = 112
    frame_w: int = 112
    eye_dx: float = 20.0      # eye offset from face center along x
    eye_ry: float = 5.0       # open-eye vertical semi-axis
    eye_rx: float = 8.0       # eye horizontal semi-axis
    pupil_r: float = 2.4
    noise_sigma: float = 4.0
    max_drift: float = 0.5    # px per frame


def _soft_mask(d: np.ndarray, sharpness: float = 6.0) -> np.ndarray:
    # smooth 1 -> 0 transition at d = 1; soft edges keep frame-to-frame
    # correlation high enough for the tracker under per-frame noise
    return 0.5 * (1.0 + np.tanh(0.5 * sharpness * (1.0 - d)))


EYE_REACH = 3.0  # semi-axes; the sclera mask is exactly 0.0 from 2.72 on


def _reach(center: float, semi_axis: float, n: int) -> tuple[int, int]:
    """Pixel indices [lo, hi) strictly within EYE_REACH semi-axes of
    ``center``, clipped to [0, n)."""
    lo = math.floor(center - EYE_REACH * semi_axis) + 1
    hi = math.ceil(center + EYE_REACH * semi_axis)
    return min(max(lo, 0), n), min(max(hi, 0), n)


def _clean_frame(layout: SynthLayout, centers: tuple, aperture: float,
                 brightness: float) -> np.ndarray:
    """The noise-free float64 frame that `_render_frame` draws."""
    img = np.full((layout.frame_h, layout.frame_w), 128.0 + brightness)
    ry = max(layout.eye_ry * aperture, 1e-6)
    for ex, ey in centers:
        y0, y1 = _reach(ey, ry, layout.frame_h)
        x0, x1 = _reach(ex, layout.eye_rx, layout.frame_w)
        yy = np.arange(y0, y1, dtype=np.float64)[:, None]
        xx = np.arange(x0, x1, dtype=np.float64)
        box = img[y0:y1, x0:x1]
        d = ((xx - ex) / layout.eye_rx) ** 2 + ((yy - ey) / ry) ** 2
        sclera = _soft_mask(d)
        box = box * (1 - sclera) + (210.0 + brightness) * sclera
        if aperture > 0.35:  # pupil hidden once the lid is mostly down
            dp = ((xx - ex) ** 2 + (yy - ey) ** 2) / layout.pupil_r ** 2
            pupil = _soft_mask(dp) * sclera
            box = box * (1 - pupil) + (40.0 + brightness) * pupil
        img[y0:y1, x0:x1] = box
    return img


def _render_frame(layout: SynthLayout, centers: tuple, aperture: float,
                  brightness: float, rng: np.random.Generator) -> np.ndarray:
    """One uint8 frame: both eyes on a flat face, plus one full-frame
    normal noise draw.

    Each eye is drawn only over the pixels strictly within ``EYE_REACH``
    semi-axes of its center (``3·eye_rx`` by ``3·ry``), clipped to the
    frame. This gives the same bytes as drawing it over the whole frame.
    Outside that box the normalized distance d is at least 9, and float64
    ``tanh(3·(1 − d))`` is exactly −1.0 once d ≥ 7.37, so the sclera mask
    there is exactly 0.0 and so is the pupil mask it multiplies. A pixel
    blended with a zero mask, ``img·(1 − 0) + c·0``, keeps its value.
    """
    img = _clean_frame(layout, centers, aperture, brightness)
    img += rng.normal(0.0, layout.noise_sigma, size=img.shape)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _aperture_track(label: str, length: int,
                    rng: np.random.Generator,
                    closed_at: int | None = None) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    if label == LABEL_BLINK:
        center = length // 2 if closed_at is None else closed_at
        width = max(1.2, min(length, 12) / 6.0)
        a = 1.0 - np.exp(-((t - center) / width) ** 2)
        a += rng.uniform(-0.02, 0.02, size=length)
    else:
        a = 1.0 + rng.uniform(-0.04, 0.04, size=length)
    return np.clip(a, 0.0, 1.0)


def _synth_frames(seed: int, label: str, length: int,
                  closed_at: int | None = None,
                  layout: SynthLayout | None = None) -> Clip:
    layout = layout or SynthLayout()
    rng = np.random.default_rng(seed)
    cx, cy = layout.frame_w / 2.0, layout.frame_h / 2.0
    aperture = _aperture_track(label, length, rng, closed_at)
    brightness = rng.uniform(-10.0, 10.0)
    drift = rng.uniform(-layout.max_drift, layout.max_drift, size=(length, 2))
    drift[0] = 0.0
    offsets = np.cumsum(drift, axis=0)

    face_w, face_h = 60.0, 52.0
    frames, anns = [], []
    for i in range(length):
        ox, oy = offsets[i]
        left = (cx - layout.eye_dx + ox, cy + oy)
        right = (cx + layout.eye_dx + ox, cy + oy)
        frames.append(_render_frame(layout, (left, right), aperture[i],
                                    brightness, rng))
        face = (cx - face_w / 2 + ox, cy - face_h / 2 + oy, face_w, face_h)
        anns.append(AnnotationRecord(
            face_box=face, left_eye=EyeCenter(left[0], left[1]),
            right_eye=EyeCenter(right[0], right[1])))
    return Clip(frames=frames, annotations=anns, label=label,
                source_id=f"synth-{label}-{seed}")


def check_synth(label: str, length: int) -> None:
    """ValueError unless ``synth_clip`` can render ``label`` at ``length``."""
    if label not in (LABEL_BLINK, LABEL_NONBLINK):
        raise ValueError(f"unknown label {label!r}")
    if label == LABEL_BLINK and length < 3:
        raise ValueError("blink clips need length >= 3")
    if length < 1:
        raise ValueError("length must be >= 1")


def synth_clip(seed: int, label: str, length: int = DEFAULT_CLIP_LEN) -> Clip:
    """Deterministic stylized eye clip: bright sclera, dark pupil, eyelid
    aperture 1->0->1 for blinks (minimum at the middle frame) or held near 1
    with jitter for non-blinks; seeded noise, brightness shift and sub-pixel
    drift throughout."""
    check_synth(label, length)
    return _synth_frames(seed, label, length)


def synth_stream(seed: int, length: int = 50,
                 blink_center: int | None = None
                 ) -> tuple[Clip, tuple[int, int] | None]:
    """Untrimmed synthetic stream; at most one blink.

    Returns the stream (labelled by whether it contains a blink) and the
    ground-truth blink interval as inclusive frame indices, or None.
    """
    if blink_center is None:
        return _synth_frames(seed, LABEL_NONBLINK, length), None
    if not 5 <= blink_center <= length - 5:
        raise ValueError("blink_center too close to the stream edge")
    return (_synth_frames(seed, LABEL_BLINK, length, closed_at=blink_center),
            (blink_center - 5, blink_center + 4))
