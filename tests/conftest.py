import numpy as np
import pytest

from blinkwild import dataset, mslstm


def make_annotation(face=(5, 5, 30, 30), left=(12, 20), right=(27, 20)):
    lx, ly = left
    rx, ry = right
    return dataset.AnnotationRecord(
        face_box=face,
        left_eye=(dataset.EyeCenter(lx, ly) if lx >= 0
                  else dataset.EyeCenter.invisible()),
        right_eye=(dataset.EyeCenter(rx, ry) if rx >= 0
                   else dataset.EyeCenter.invisible()))


def tagged_clip(n, label=dataset.LABEL_BLINK):
    """Clip whose frame i is the constant image i, so picks are traceable."""
    frames = [np.full((40, 40), i, dtype=np.uint8) for i in range(n)]
    anns = [make_annotation() for _ in range(n)]
    return dataset.Clip(frames=frames, annotations=anns, label=label,
                        source_id=f"tag{n}")


def frame_tags(clip):
    return [int(f[0, 0]) for f in clip.frames]


def tiny_model(input_dim=6, hidden=3, layers=2, scales=2, margin=4, seed=3):
    return mslstm.init_model(input_dim=input_dim, hidden=hidden,
                             layers=layers, scales=scales, margin=margin,
                             seed=seed)


def numeric_grads(model, x, labels, loss_kind, step=1e-5):
    """Central-difference gradient of every entry of ``model.params``."""
    flat = model.params
    out = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        lo_hi, _ = mslstm.loss_and_grads(model, x, labels, loss_kind)
        flat[j] = orig - step
        lo_lo, _ = mslstm.loss_and_grads(model, x, labels, loss_kind)
        flat[j] = orig
        out[j] = (lo_hi - lo_lo) / (2 * step)
    return out


def max_rel_grad_err(model, x, labels, loss_kind):
    _, analytic = mslstm.loss_and_grads(model, x, labels, loss_kind)
    numeric = numeric_grads(model, x, labels, loss_kind)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_terminal_summary(terminalreporter):
    wrote_header = False
    for status in ("passed", "failed", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" not in rep.nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and status != "skipped":
                continue
            if not wrote_header:
                terminalreporter.write_line("")
                terminalreporter.write_line("acceptance criteria:")
                wrote_header = True
            name = rep.nodeid.split("::")[-1]
            terminalreporter.write_line(f"  {status.upper():7s} {name}")
