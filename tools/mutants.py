"""Mutation probe: does some test fail when a rule of the program is broken?

Each mutant below replaces one line of ``src/blinkwild``, or a run of
consecutive lines given joined by newlines. The probe copies
the checkout once, into a temporary ``base``, so one run tests one tree even
if the checkout is edited meanwhile. For each mutant it copies ``base``,
applies the mutant in the copy, runs the test files that cover the mutated
module with ``pytest -x -q`` and prints ``killed`` (a test failed) or
``survived``. The checkout is never written to. An equivalent mutant cannot
be told apart from the program by any input the tests could give; it
carries its reason and is expected to survive. Exits 1 when a mutant that is
not equivalent survives.

    python3 tools/mutants.py

It runs the tests once unmutated first, then each mutant; expect about five
minutes on two cores. Add a mutant for every rule a change adds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the test files that exercise each module
COVERS = {
    "cli": ["tests/test_cli.py"],
    "dataset": ["tests/test_dataset.py", "tests/test_pipeline.py",
                "tests/test_cli.py"],
    "evaluation": ["tests/test_evaluation.py", "tests/test_cli.py",
                   "tests/test_acceptance.py"],
    "features": ["tests/test_features.py", "tests/test_pipeline.py",
                 "tests/test_acceptance.py"],
    "mslstm": ["tests/test_mslstm.py", "tests/test_pipeline.py",
               "tests/test_golden.py", "tests/test_acceptance.py"],
    "pipeline": ["tests/test_pipeline.py", "tests/test_cli.py",
                 "tests/test_golden.py", "tests/test_acceptance.py"],
    "tracker": ["tests/test_tracker.py", "tests/test_pipeline.py",
                "tests/test_golden.py", "tests/test_acceptance.py"],
}

# (name, module, line(s) as in the source, mutated line(s), equivalence
# reason)
MUTANTS = [
    ("energy Nyquist column", "tracker",
     "        twice -= power[..., -1].sum(axis=-1)",
     "        twice -= 0.0", None),
    ("padded-size axes", "tracker",
     "    size = (int(round(region[2] * PADDING)), "
     "int(round(region[3] * PADDING)))",
     "    size = (int(round(region[3] * PADDING)), "
     "int(round(region[2] * PADDING)))", None),
    ("motion sign", "features",
     "    steps[:, N_BINS:] = hists[1:] - hists[:-1]",
     "    steps[:, N_BINS:] = hists[:-1] - hists[1:]", None),
    ("AP overlap reached", "evaluation",
     "        if best >= 0 and best_iou >= AP_OVERLAP:",
     "        if best >= 0 and best_iou > AP_OVERLAP:", None),
    ("crop offset", "dataset",
     "    x0 = int(round(center.x)) - w // 2",
     "    x0 = int(round(center.x)) - w // 2 + 1", None),
    ("one-eye face-width rule", "dataset",
     "        size = face_box[2] / 9.0",
     "        size = face_box[3] / 9.0", None),
    ("synth draws an eye out to three semi-axes", "dataset",
     "EYE_REACH = 3.0  # semi-axes; the sclera mask is exactly 0.0 from "
     "2.72 on",
     "EYE_REACH = 2.0  # semi-axes; the sclera mask is exactly 0.0 from "
     "2.72 on", None),
    ("an eye box's far edge", "dataset",
     "    hi = math.ceil(center + EYE_REACH * semi_axis)",
     "    hi = math.ceil(center + EYE_REACH * semi_axis) - 1", None),
    ("an eye box is clipped to the frame", "dataset",
     "    return min(max(lo, 0), n), min(max(hi, 0), n)",
     "    return lo, hi", None),
    ("re-localized frame's score", "pipeline",
     "            stream.scores.append(score)",
     "            stream.scores.append(score if fresh is None else 1.0)",
     None),
    ("synth checks --length before it saves", "cli",
     "        dataset.check_synth(label, args.length)",
     "        pass", None),
    ("FR counts ME errors", "cli",
     "                        tally[eye][1] += 1",
     "                        pass", None),
    ("ME needs both gt centers", "evaluation",
     "               if rec.left_eye.visible and rec.right_eye.visible)",
     "               if rec.left_eye.visible or rec.right_eye.visible)", None),
    ("ME threshold inclusive", "evaluation",
     "                  rec.left_eye, rec.right_eye) <= ME_THRESHOLD",
     "                  rec.left_eye, rec.right_eye) < ME_THRESHOLD", None),
    ("NMS tie-break on start", "pipeline",
     "                     key=lambda p: (-p.confidence, p.start, "
     "EYES.index(p.eye)))",
     "                     key=lambda p: (-p.confidence, -p.start, "
     "EYES.index(p.eye)))", None),
    ("detect scores a track of exactly one window", "pipeline",
     "        if tracked >= window:",
     "        if tracked > window:", None),
    ("detect threshold inclusive", "pipeline",
     "             if c >= conf_thresh], iou_thresh))",
     "             if c > conf_thresh], iou_thresh))", None),
    ("re-localization trigger inclusive", "pipeline",
     "               if guess is None or score < TRACK_THRESH}",
     "               if guess is None or score <= TRACK_THRESH}",
     "the trigger differs only on a response peak equal to 0.25 to the "
     "last bit, which a continuous correlation score does not produce"),
    ("unwrap at exactly N/2", "tracker",
     "    return np.where(idx >= (n + 1) // 2, idx - n, idx)",
     "    return np.where(idx > (n + 1) // 2, idx - n, idx)",
     "a lag of N/2 is the same circular shift either way, and it sits on "
     "the Hann window's zero edge where the response never peaks"),
    ("a re-localization re-learns only its own row", "pipeline",
     "            if key in low:",
     "            if key[0] in records:", None),
    ("a lost track leaves its stack", "pipeline",
     "                continue",
     "                pass", None),
    ("a re-localized row leaves its stack", "pipeline",
     "                if fresh is None:",
     "                if fresh is None or t and kept[size].append(row):",
     None),
    ("a re-localized track is learned afresh, not adapted", "pipeline",
     "                if fresh is None:",
     "                if row is not None:", None),
    ("a re-localized row joins the stack of its new padded size",
     "pipeline",
     "                size = tracker.track_size(frames[t], box)",
     "                size = tracker.track_size(frames[t], guess or box)",
     None),
    ("no track stays in a stack past its clip's last frame", "pipeline",
     "            if t + 1 < len(frames):",
     "            if t < len(frames):", None),
    ("kcf_update moves its stack to the located region", "tracker",
     "    return (replace(stack, regions=located.regions),",
     "    return (replace(stack, regions=stack.regions),", None),
    ("a group's verdicts come back in clip order", "pipeline",
     "    for (i, eye), [(_, label, conf)] in zip(keys, "
     "score_windows(model, seqs)):",
     "    for (i, eye), [(_, label, conf)] in zip(keys[::-1], "
     "score_windows(model, seqs)):", None),
    ("the last window of a sequence is scored", "pipeline",
     "            (i, s) for s in range(0, len(seq) - n + 1, stride))",
     "            (i, s) for s in range(0, len(seq) - n, stride))", None),
    ("verify scores a track lost late in its clip as lost", "pipeline",
     "        for eye, seq in tracked_steps(frames, tracks, "
     "len(frames)).items():",
     "        for eye, seq in tracked_steps(frames, tracks, "
     "len(frames) - 1).items():", None),
    ("predict shifts scores by their max", "mslstm",
     "    z = scores - scores.max(axis=1, keepdims=True)",
     "    z = scores",
     "the scores are r*cos with tanh-bounded features, far below where "
     "exp overflows; the shift only guards that case"),
    ("a model file with a non-finite parameter is rejected", "mslstm",
     "    if not np.all(np.isfinite(params)):",
     "    if False:", None),
    ("Adam corrects the second moment's bias", "mslstm",
     "        b2c = 1.0 - ADAM_BETA2 ** step",
     "        b2c = 1.0", None),
    ("the head's gradient block is written", "mslstm",
     "    grad_head[...] = dhead",
     "    pass", None),
    ("i, f and o are tanh of half their pre-activation", "mslstm",
     "            ifo *= 0.5",
     "            ifo *= 1.0", None),
    ("the i/f/o block takes the sigmoid derivative", "mslstm",
     "        np.multiply(ifo, np.subtract(1, ifo, out=d_ifo), out=d_ifo)",
     "        np.subtract(1, ifo, out=d_ifo)", None),
    ("every sequence starts from a zero cell state", "mslstm",
     "        c[0] = 0.0",
     "        pass", None),
    ("BPTT starts every layer from a zero dc", "mslstm",
     "        dc[...] = 0.0",
     "        pass", None),
    ("the top layer's dh is zero before its last T steps", "mslstm",
     "    dh_seq[:n - model.scales] = 0.0",
     "    pass", None),
    ("train writes its model under a temporary name", "cli",
     "        mslstm.save_model(temps[0], model)",
     "        mslstm.save_model(args.model, model)", None),
    ("train writes no model after a non-finite result", "cli",
     "    if not (np.all(np.isfinite(history))",
     "    if False and not (np.all(np.isfinite(history))", None),
    ("a manifest source id is not repeated in its split", "dataset",
     "        if prev == split:",
     "        if False:", None),
    ("a manifest source id is not empty", "dataset",
     "        if not source_id:",
     "        if False:", None),
    ("the config hash leaves out where the outputs go", "cli",
     "                          if k not in (\"func\", \"out\")}, "
     "default=str,",
     "                          if k != \"func\"}, default=str,", None),
    ("detect rejects a non-finite threshold", "pipeline",
     "        if not np.isfinite(value):",
     "        if False:", None),
    ("a manifest source id is a plain file name", "dataset",
     "        if source_id in (\".\", \"..\") or any(",
     "        if False and any(", None),
    ("the PR sweep counts each positive once", "evaluation",
     "    positives = sum(1 for _, lbl in ranked if lbl)",
     "    positives = sum(2 for _, lbl in ranked if lbl)", None),
    ("the PR sweep has one row per distinct threshold", "evaluation",
     "        if pred < len(ranked) and ranked[pred][0] == thr:",
     "        if False:", None),
    ("a center at x = 0 is inside the frame", "tracker",
     "    return 0 <= region[0] < frame.shape[1] and 0 <= region[1] < "
     "frame.shape[0]",
     "    return 0 < region[0] < frame.shape[1] and 0 <= region[1] < "
     "frame.shape[0]", None),
    ("a center at y = 0 is inside the frame", "tracker",
     "    return 0 <= region[0] < frame.shape[1] and 0 <= region[1] < "
     "frame.shape[0]",
     "    return 0 <= region[0] < frame.shape[1] and 0 < region[1] < "
     "frame.shape[0]", None),
    ("the blend keeps 1 - INTERP of the model", "tracker",
     "        old *= 1 - INTERP\n"
     "        fresh *= INTERP",
     "        old *= INTERP\n"
     "        fresh *= 1 - INTERP", None),
    ("the kernel's cross term is -2 corr", "tracker",
     "    k *= -2.0",
     "    k *= -1.0", None),
    ("std re-centers the centered patch", "tracker",
     "    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n",
     "    d = x.copy()", None),
    ("training adds lambda to the kernel spectrum", "tracker",
     "    k_hat += LAMBDA",
     "    pass", None),
    ("the patch stack is divided by 255", "tracker",
     "                    / 255.0, window)",
     "                    / 1.0, window)", None),
    ("report.json is written under a temporary name", "evaluation",
     "    with written_whole(path + \".json\", path + \".csv\",\n"
     "                       path + \"_pr.csv\") as [json_temp, csv_temp, "
     "pr_temp]:",
     "    json_temp = path + \".json\"\n"
     "    with written_whole(path + \".csv\", path + \"_pr.csv\") as "
     "[csv_temp, pr_temp]:", None),
    ("report.csv is written under a temporary name", "evaluation",
     "    with written_whole(path + \".json\", path + \".csv\",\n"
     "                       path + \"_pr.csv\") as [json_temp, csv_temp, "
     "pr_temp]:",
     "    csv_temp = path + \".csv\"\n"
     "    with written_whole(path + \".json\", path + \"_pr.csv\") as "
     "[json_temp, pr_temp]:", None),
    ("report_pr.csv is written under a temporary name", "evaluation",
     "    with written_whole(path + \".json\", path + \".csv\",\n"
     "                       path + \"_pr.csv\") as [json_temp, csv_temp, "
     "pr_temp]:",
     "    pr_temp = path + \"_pr.csv\"\n"
     "    with written_whole(path + \".json\", path + \".csv\") as "
     "[json_temp, csv_temp]:", None),
    ("a failed write removes the files renamed before it", "evaluation",
     "            for path in filter(os.path.exists, temps + renamed):",
     "            for path in filter(os.path.exists, temps):", None),
    ("detect writes its events under a temporary name", "cli",
     "    with evaluation.written_whole(args.out) as [temp]:",
     "    for temp in [args.out]:", None),
    ("the response peak's column moves x, its row y", "tracker",
     "    regions[:, 0] += dx\n"
     "    regions[:, 1] += dy",
     "    regions[:, 0] += dy\n"
     "    regions[:, 1] += dx", None),
    ("softmax is the head at m = 1", "mslstm",
     "    margin = {\"softmax\": 1, \"asoftmax\": model.margin}"
     ".get(loss_kind)",
     "    margin = {\"softmax\": 2, \"asoftmax\": model.margin}"
     ".get(loss_kind)", None),
    ("the head rejects an unknown loss", "mslstm",
     "    if margin is None:",
     "    if False:", None),
    ("a degenerate face box is rejected", "dataset",
     "    if w <= 0 or h <= 0:",
     "    if False:", None),
    ("a face box outside its frame is rejected", "dataset",
     "    if x < 0 or y < 0 or x + w > shape[1] or y + h > shape[0]:",
     "    if False:", None),
    ("an eye outside its face box is rejected", "dataset",
     "        if eye.visible and not (x <= eye.x <= x + w and y <= eye.y <= "
     "y + h):",
     "        if False:", None),
    ("a missing frame file is named as missing", "dataset",
     "        if not os.path.exists(path):",
     "        if False:", None),
    ("a PGM header comment is skipped", "dataset",
     "        if data[pos:pos + 1] == b\"#\":",
     "        if False:", None),
    ("a clip holds one record per frame", "dataset",
     "        if len(self.frames) != len(self.annotations):",
     "        if False:", None),
    ("a clip holds a frame", "dataset",
     "        if len(self.frames) == 0:",
     "        if False:", None),
    ("every frame of a clip has frame 0's size", "dataset",
     "        if frames and frame.shape != frames[0].shape:",
     "        if False:", None),
    ("a saved record's frame number is its position", "dataset",
     "            writer.writerow([i,",
     "            writer.writerow([0,", None),
    ("record i annotates frame file i", "dataset",
     "        path = os.path.join(clip_dir, f\"frame_{i:04d}.pgm\")",
     "        path = os.path.join(clip_dir, f\"frame_{len(anns) - 1 - i:04d}"
     ".pgm\")", None),
    ("polish steers a blink clip's darkest frame", "dataset",
     "        closed = _closed_frame_index(clip)",
     "        closed = (n - 1) // 2", None),
    ("track_clips rejects a clip with no frames", "pipeline",
     "    if any(not frames for frames, _ in clips):",
     "    if False:", None),
    ("train rejects clips of unequal length", "cli",
     "        if len(clip) != length:",
     "        if False:", None),
    ("psi flips its sign on every odd interval", "mslstm",
     "    sign = 1.0 - 2.0 * (k % 2)",
     "    sign = 1.0", None),
    ("psi drops by 2 on each interval", "mslstm",
     "    val = sign * chebval(c, t_m) - 2.0 * k",
     "    val = sign * chebval(c, t_m) - 1.0 * k", None),
    ("predict scores a class as W_c.x = r*cos, not cos", "mslstm",
     "    scores = feats @ model.head.T",
     "    scores = feats @ model.head.T / np.maximum(np.linalg.norm("
     "feats, axis=1, keepdims=True), 1e-300)", None),
    ("verify writes predictions.csv only beside a whole report", "cli",
     "    with evaluation.written_whole(predictions) as [temp]:",
     "    for temp in [predictions]:", None),
]


IGNORE = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")


def _copy_tree(dest: str) -> None:
    for name in ("src", "tests", "demos"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=IGNORE)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _mutate(tree: str, module: str, old: str, new: str) -> None:
    path = os.path.join(tree, "src", "blinkwild", module + ".py")
    with open(path) as f:
        lines = f.read().split("\n")
    run = old.split("\n")
    hits = [i for i in range(len(lines)) if lines[i:i + len(run)] == run]
    if len(hits) != 1:
        raise SystemExit(f"{module}.py: {len(hits)} places read {old!r}; "
                         f"a mutant must match exactly one")
    lines[hits[0]:hits[0] + len(run)] = new.split("\n")
    with open(path, "w") as f:
        f.write("\n".join(lines))


def _tests_pass(tree: str, files: list[str]) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", *files],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=900)
    return result.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = os.path.join(tmp, "base")
        _copy_tree(base)
        every = sorted({f for files in COVERS.values() for f in files})
        if not _tests_pass(base, every):
            print("the unmutated tree fails its tests; no mutant was run")
            return 1
        missed = 0
        for k, (name, module, old, new, reason) in enumerate(MUTANTS):
            tree = os.path.join(tmp, str(k))
            shutil.copytree(base, tree, ignore=IGNORE)
            _mutate(tree, module, old, new)
            t0 = time.monotonic()
            survived = _tests_pass(tree, COVERS[module])
            shutil.rmtree(tree)
            verdict = "survived" if survived else "killed"
            note = f"  (equivalent: {reason})" if reason else ""
            print(f"{verdict:8s} {module}: {name} "
                  f"[{time.monotonic() - t0:.0f} s]{note}", flush=True)
            missed += survived and reason is None
    print(f"{missed} mutant(s) that are not equivalent survived")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
