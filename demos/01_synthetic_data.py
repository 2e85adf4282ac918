"""Walk through the synthetic clip generator and the dataset plumbing.

Renders a blink and a non-blink clip, shows how the eyelid aperture shapes
the eye-region intensity over time, and round-trips a clip through the
on-disk format (PGM frames + annotations.csv + manifest).
"""

import os
import tempfile

import numpy as np

from blinkwild import dataset


def eye_means(clip):
    means = []
    for frame, rec in zip(clip.frames, clip.annotations):
        size = dataset.eye_region(rec.left_eye, rec.right_eye, rec.face_box)
        means.append(float(dataset.crop_eye(frame, rec.left_eye, size).mean()))
    return means


def bar(value, lo, hi, width=40):
    fill = int((value - lo) / max(hi - lo, 1e-9) * width)
    return "#" * fill


def main():
    blink = dataset.synth_clip(seed=42, label=dataset.LABEL_BLINK, length=10)
    still = dataset.synth_clip(seed=42, label=dataset.LABEL_NONBLINK,
                               length=10)

    print("mean intensity inside the left-eye box, frame by frame")
    b, s = eye_means(blink), eye_means(still)
    lo, hi = min(b + s), max(b + s)
    for t in range(10):
        print(f"  frame {t}: blink {b[t]:6.1f} {bar(b[t], lo, hi):40s}"
              f" | steady {s[t]:6.1f} {bar(s[t], lo, hi)}")
    print(f"darkest blink frame: {int(np.argmin(b))} (eye fully closed)")

    # clips longer or shorter than 10 frames are polished to a fixed length
    long_clip = dataset.synth_clip(seed=7, label=dataset.LABEL_BLINK,
                                   length=16)
    polished = dataset.polish_clip(long_clip, 10)
    print(f"\npolished 16-frame clip down to {len(polished)} frames; "
          f"closed frame steered to index "
          f"{int(np.argmin(eye_means(polished)))}")

    with tempfile.TemporaryDirectory() as tmp:
        clip_dir = os.path.join(tmp, "clip")
        dataset.save_clip(clip_dir, blink)
        back = dataset.load_clip(clip_dir, blink.label, blink.source_id)
        same = all(np.array_equal(x, y)
                   for x, y in zip(back.frames, blink.frames))
        print(f"\nfile round trip: {len(os.listdir(clip_dir))} files, "
              f"frames identical: {same}")


if __name__ == "__main__":
    main()
