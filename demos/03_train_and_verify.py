"""Train the sequence classifier on synthetic clips and verify a test split.

Builds texture-histogram feature sequences from annotated eye regions,
trains the stacked LSTM with the angular-margin loss, then runs the full
tracked verification pipeline and prints per-eye metrics.
"""

import numpy as np

from blinkwild import dataset, evaluation, features, mslstm, pipeline


def regions_for(clip, eye):
    out = []
    for rec in clip.annotations:
        c = rec.left_eye if eye == "left" else rec.right_eye
        size = dataset.eye_region(rec.left_eye, rec.right_eye, rec.face_box)
        out.append((c.x, c.y, *size))
    return out


def featurize(clips):
    data = []
    for clip in clips:
        label = (mslstm.CLASS_BLINK if clip.label == dataset.LABEL_BLINK
                 else mslstm.CLASS_NONBLINK)
        for eye in ("left", "right"):
            data.append((features.featurize_frames(clip.frames,
                                                   regions_for(clip, eye)),
                         label))
    return data


def build(n, base):
    clips = []
    for i in range(n):
        clips.append(dataset.synth_clip(base + 2 * i, dataset.LABEL_BLINK))
        clips.append(dataset.synth_clip(base + 2 * i + 1,
                                        dataset.LABEL_NONBLINK))
    return clips


def main():
    train_clips = build(40, base=0)
    test_clips = build(15, base=5000)
    print(f"{len(train_clips)} training clips -> "
          f"{2 * len(train_clips)} eye sequences of shape (9, 118)")

    model = mslstm.init_model(seed=0)
    config = mslstm.TrainConfig(max_steps=300, seed=0, loss="asoftmax")
    model, history = mslstm.train(model, featurize(train_clips), config)
    print(f"loss: {history[0]:.3f} (step 1) -> {history[-1]:.3f} "
          f"(step {len(history)})")

    pairs = {eye: [] for eye in ("left", "right")}
    for clip in test_clips:
        verdicts = pipeline.verify_clip(
            clip, pipeline.annotation_locator(clip), model)
        positive = clip.label == dataset.LABEL_BLINK
        for eye, v in verdicts.items():
            pairs[eye].append(
                (positive, v.label == dataset.LABEL_BLINK and not v.lost))

    print("\ntracked verification on the held-out clips:")
    for eye, eye_pairs in pairs.items():
        counts = evaluation.confusion(eye_pairs)
        recall, precision, f1 = evaluation.prf(counts)
        print(f"  {eye:5s}: recall {recall:.3f}  precision {precision:.3f}"
              f"  F1 {f1:.3f}  (tp={counts.tp} fp={counts.fp} "
              f"fn={counts.fn})")


if __name__ == "__main__":
    main()
