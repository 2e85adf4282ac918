import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blinkwild import mslstm
from blinkwild.errors import InvalidDatasetError, ModelFormatError
from conftest import max_rel_grad_err, tiny_model


def _zero_params(dim, hidden):
    return mslstm.LstmLayerParams(w=np.zeros((dim, 4 * hidden)),
                                  u=np.zeros((hidden, 4 * hidden)),
                                  b=np.zeros(4 * hidden))


def reference_lstm_step(x, h, c, params):
    """Gate-by-gate scalar-math oracle for one cell step."""
    hd = params.hidden
    wi, wf, wo, wg = (params.w[:, k * hd:(k + 1) * hd] for k in range(4))
    ui, uf, uo, ug = (params.u[:, k * hd:(k + 1) * hd] for k in range(4))
    bi, bf, bo, bg = (params.b[k * hd:(k + 1) * hd] for k in range(4))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(x @ wi + h @ ui + bi)
    f = sig(x @ wf + h @ uf + bf)
    o = sig(x @ wo + h @ uo + bo)
    g = np.tanh(x @ wg + h @ ug + bg)
    c_t = f * c + i * g
    return o * np.tanh(c_t), c_t


def _separable_set(n=20, steps=5, dim=6, noise=0.05, seed=5):
    r = np.random.default_rng(seed)
    out = []
    for j in range(n):
        label = j % 2
        base = 1.0 if label else -1.0
        seq = base + noise * r.normal(size=(steps, dim))
        out.append((seq, label))
    return out


def _one_layer(params, scales=1, seed=0):
    """Single-layer model around ``params`` with a random unit head."""
    head = np.random.default_rng(seed).normal(size=(2, scales * params.hidden))
    head /= np.linalg.norm(head, axis=1, keepdims=True)
    return mslstm.MsLstmModel(layers=[params], head=head, scales=scales,
                              margin=4)


def forward(model, seq):
    """(feature, norm, cosines) of one (steps, dim) sequence."""
    feats, _ = mslstm._run_layers(model, np.asarray(seq, dtype=float)[None],
                                  keep_cache=False)
    r = float(np.linalg.norm(feats[0]))
    return feats[0], r, model.head @ feats[0] / max(r, 1e-300)


# ---------------------------------------------------------------------------
# the LSTM cell, read through forward and the BPTT caches


def test_cell_zero_params_zero_state(rng):
    params = _zero_params(3, 2)
    feat, _, _ = forward(_one_layer(params), rng.normal(size=(4, 3)))
    # all gates sit at 0.5 and g at 0, so c stays 0 and h = 0.5 tanh(c) = 0
    assert np.allclose(feat, 0.0)


def test_cell_gate_saturation_preserves_memory(rng):
    params = _zero_params(3, 2)
    params.w[0, 0:2] = 100.0   # input gate opens only while x[0] = 1
    params.b[0:2] = -50.0
    params.b[2:4] = 50.0       # forget gate open
    params.b[4:6] = 50.0       # output gate open: h = tanh(c)
    params.w[1:, 6:8] = rng.normal(size=(2, 2))
    seq = np.array([[1.0, *rng.normal(size=2)], [0.0, *rng.normal(size=2)]])
    feat, _, _ = forward(_one_layer(params, scales=2), seq)
    c_written, c_kept = np.arctanh(feat[:2]), np.arctanh(feat[2:])
    assert np.max(np.abs(c_written)) > 0.1
    assert np.allclose(c_kept, c_written, atol=1e-12)


def batch_major(caches):
    """The core's time-major caches as (params, inp, outs, steps) per layer:
    inp and outs (batch, steps, dim), and per step (c_prev, ifo, g, tanh(c))
    as views of the caches."""
    return [(params, inp.transpose(1, 0, 2), outs.transpose(1, 0, 2),
             [(c[t], a[:, :3 * params.hidden], a[:, 3 * params.hidden:],
               tc[t]) for t, a in enumerate(gates)])
            for params, inp, outs, gates, c, tc in caches]


def test_cell_matches_reference_oracle():
    r = np.random.default_rng(7)
    model = tiny_model(input_dim=3, hidden=2, layers=2, scales=1, seed=7)
    for params in model.layers:
        params.b[:] = r.normal(size=8)
    x = r.normal(size=(4, 5, 3))
    _, caches = mslstm._run_layers(model, x, keep_cache=True)
    want_inp = x
    for params, inp, outs, steps in batch_major(caches):
        assert np.array_equal(inp, want_inp)
        h_prev = np.zeros((4, 2))
        for t in range(5):
            # every step from the core's own (non-zero after t = 0) state
            c_prev = steps[t][0]
            h_ref, c_ref = reference_lstm_step(inp[:, t], h_prev, c_prev,
                                               params)
            assert np.max(np.abs(outs[:, t] - h_ref)) < 1e-12
            assert np.max(np.abs(steps[t][-1] - np.tanh(c_ref))) < 1e-12
            if t < 4:
                assert np.max(np.abs(steps[t + 1][0] - c_ref)) < 1e-12
            h_prev = outs[:, t]
        assert np.array_equal(steps[0][0], np.zeros((4, 2)))
        want_inp = outs


def test_hidden_state_bounded(rng):
    model = tiny_model(hidden=4)
    for _ in range(5):
        seq = rng.normal(scale=3.0, size=(8, 6))
        feat, _, _ = forward(model, seq)
        assert np.max(np.abs(feat)) <= 1.0


@pytest.mark.parametrize("loss_kind", ["asoftmax", "softmax"])
def test_saturated_gates_stay_finite_without_warnings(loss_kind, rng):
    """Gate pre-activations of about +-1e4, of both signs in every gate,
    give finite scores, losses and gradients and no RuntimeWarning (an
    exp that overflows would raise one)."""
    model = tiny_model(input_dim=6, hidden=3)
    for params in model.layers:
        params.b[:] = 1e4 * rng.choice([-1.0, 1.0], size=params.b.size)
    x = 1e4 * rng.normal(size=(4, 5, 6))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, confs = mslstm.predict(model, x)
        loss, grad = mslstm.loss_and_grads(model, x, np.array([0, 1, 0, 1]),
                                           loss_kind)
    assert np.all(np.isfinite(confs)) and labels.shape == (4,)
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    a = x[:, 0] @ model.layers[0].w + model.layers[0].b
    assert np.min(np.abs(a)) > 100 and np.max(np.abs(a)) > 5e3


# ---------------------------------------------------------------------------
# forward geometry


def _manual_feature(model, seq):
    inp = [np.asarray(s, dtype=float) for s in seq]
    for params in model.layers:
        h = np.zeros(params.hidden)
        c = np.zeros(params.hidden)
        outs = []
        for x in inp:
            h, c = reference_lstm_step(x, h, c, params)
            outs.append(h)
        inp = outs
    return np.concatenate(inp[-model.scales:])


def test_forward_concatenates_last_t_states(rng):
    model = tiny_model(hidden=2, scales=2)
    seq = rng.normal(size=(5, 6))
    feat, r, cos = forward(model, seq)
    manual = _manual_feature(model, seq)
    assert feat.shape == (4,)
    assert np.allclose(feat, manual)
    assert np.isclose(r, np.linalg.norm(manual))
    assert np.allclose(cos, model.head @ manual / np.linalg.norm(manual))


def test_forward_t1_reduces_to_last_output(rng):
    model = tiny_model(hidden=3, scales=1)
    seq = rng.normal(size=(5, 6))
    feat, _, _ = forward(model, seq)
    assert np.allclose(feat, _manual_feature(model, seq))
    assert feat.shape == (3,)


def test_forward_single_layer_matches_reference(rng):
    for seed in range(10):
        model = tiny_model(hidden=3, layers=1, scales=1, seed=seed)
        seq = np.random.default_rng(100 + seed).normal(size=(6, 6))
        feat, _, _ = forward(model, seq)
        h = np.zeros(3)
        c = np.zeros(3)
        for x in seq:
            h, c = reference_lstm_step(x, h, c, model.layers[0])
        assert np.max(np.abs(feat - h)) < 1e-12


def test_forward_angle_scale_decoupling(rng):
    model = tiny_model(hidden=3)
    seq = rng.normal(size=(5, 6))
    feat, r, cos = forward(model, seq)
    scaled = 3.0 * feat
    r2 = np.linalg.norm(scaled)
    cos2 = model.head @ scaled / r2
    assert np.isclose(r2, 3.0 * r)
    assert np.allclose(cos2, cos)


def test_forward_too_short_sequence(rng):
    model = tiny_model(scales=2)
    with pytest.raises(ValueError):
        forward(model, rng.normal(size=(1, 6)))


# ---------------------------------------------------------------------------
# losses


def test_psi_at_zero_angle():
    for m in (1, 2, 3, 4):
        val, _ = mslstm.psi(1.0, m)
        assert np.isclose(val, 1.0)


def reference_psi(cos_theta, m):
    """The trig form of psi: theta = arccos(c), then (-1)^k cos(m theta) -
    2k and the derivative sign * m sin(m theta) / sin(theta), with its limit
    m cos(m theta) / cos(theta) where sin(theta) vanishes."""
    c = np.clip(np.asarray(cos_theta, dtype=np.float64), -1.0, 1.0)
    theta = np.arccos(c)
    k = np.minimum(np.floor(theta * m / np.pi), m - 1)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    val = sign * np.cos(m * theta) - 2.0 * k
    sin_t = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(sin_t > 1e-8, np.sin(m * theta) / np.where(
            sin_t > 1e-8, sin_t, 1.0), m * np.cos(m * theta) / np.where(
            np.cos(theta) != 0, np.cos(theta), 1.0))
    return val, sign * m * ratio


def _psi_grid(m):
    """[-1, 1] in 2001 steps plus every boundary cos(j pi/m), ascending."""
    bounds = np.cos(np.arange(m + 1) * np.pi / m)
    return np.unique(np.concatenate([np.linspace(-1.0, 1.0, 2001), bounds]))


def test_psi_margin_one_is_the_cosine_exactly():
    c = np.linspace(-1.0, 1.0, 2001)
    val, deriv = mslstm.psi(c, 1)
    assert np.array_equal(val, c) and np.all(deriv == 1.0)
    assert all(mslstm.psi(float(x), 1) == (float(x), 1.0) for x in c)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_psi_continuous_and_non_increasing_in_theta(m):
    for j in range(1, m):  # psi = 1 - 2j on the j-th boundary, both sides
        b = math.cos(j * math.pi / m)
        vals = mslstm.psi(np.array([b - 1e-9, b, b + 1e-9]), m)[0]
        assert np.allclose(vals, 1 - 2 * j, rtol=0, atol=1e-7)
    val, _ = mslstm.psi(_psi_grid(m), m)
    assert np.all(np.diff(val) >= 0)  # ascending cos is descending theta
    assert val[0] == pytest.approx(1 - 2 * m) and val[-1] == 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_psi_derivative_matches_difference_quotient(m):
    c, h = _psi_grid(m), 1e-6
    lo, hi = np.maximum(c - h, -1.0), np.minimum(c + h, 1.0)
    quotient = (mslstm.psi(hi, m)[0] - mslstm.psi(lo, m)[0]) / (hi - lo)
    # one-sided at c = +-1, where psi'' reaches m^2 (m^2 - 1) / 3
    assert np.allclose(mslstm.psi(c, m)[1], quotient, rtol=0, atol=1e-4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_psi_matches_trig_reference(m):
    c = _psi_grid(m)
    val, deriv = mslstm.psi(c, m)
    want_val, want_deriv = reference_psi(c, m)
    assert np.max(np.abs(val - want_val)) <= 1e-12
    assert np.max(np.abs(deriv - want_deriv)) <= 1e-9


def test_margin_one_equals_plain_angular_softmax(rng):
    for _ in range(100):
        r = float(rng.uniform(0.1, 5.0))
        cy, co = rng.uniform(-1, 1, size=2)
        loss_a, _ = mslstm.asoftmax_loss(r, float(cy), float(co), 1)
        loss_s, _ = mslstm.softmax_loss(np.array([r * cy, r * co]), 0)
        assert abs(loss_a - loss_s) < 1e-12


def test_loss_nondecreasing_in_margin():
    r, cy, co = 3.0, math.cos(0.6), math.cos(1.2)
    losses = [mslstm.asoftmax_loss(r, cy, co, m)[0] for m in (1, 2, 4)]
    assert losses[0] <= losses[1] <= losses[2]


def test_margin_below_one_rejected():
    with pytest.raises(ValueError):
        mslstm.psi(0.5, 0)


def test_softmax_equal_logits():
    loss, grad = mslstm.softmax_loss(np.array([2.0, 2.0]), 1)
    assert np.isclose(loss, math.log(2))
    assert np.allclose(grad, [0.5, -0.5])


def test_softmax_saturation():
    loss, _ = mslstm.softmax_loss(np.array([60.0, -60.0]), 0)
    assert loss < 1e-12


@pytest.mark.parametrize("loss_kind", ["softmax", "asoftmax"])
def test_gradient_check_full_model(loss_kind, rng):
    model = tiny_model(input_dim=6, hidden=3, layers=2, scales=2, margin=4)
    x = rng.normal(size=(4, 5, 6))
    labels = np.array([0, 1, 0, 1])
    assert max_rel_grad_err(model, x, labels, loss_kind) < 1e-4


def reference_bptt(model, caches, dfeat):
    """Step-by-step BPTT that accumulates every weight gradient per step."""
    b, n = dfeat.shape[0], caches[0][2].shape[1]
    dh_seq = np.zeros((b, n, model.hidden))
    dh_seq[:, n - model.scales:] = dfeat.reshape(b, model.scales, -1)
    grads = []
    for params, inp, outs, steps in reversed(caches):
        hd = params.hidden
        g_w, g_u, g_b = (np.zeros_like(a) for a in (params.w, params.u,
                                                     params.b))
        dx_seq = np.zeros(inp.shape)
        dh_next, dc_next = np.zeros((b, hd)), np.zeros((b, hd))
        for t in range(n - 1, -1, -1):
            c_prev, ifo, g, tc = steps[t]
            i, f, o = np.split(ifo, 3, axis=1)
            h_prev = outs[:, t - 1] if t else np.zeros((b, hd))
            dh = dh_seq[:, t] + dh_next
            dc = dc_next + dh * o * (1 - tc * tc)
            da = np.concatenate([dc * g * i * (1 - i),
                                 dc * c_prev * f * (1 - f),
                                 dh * tc * o * (1 - o),
                                 dc * i * (1 - g * g)], axis=1)
            g_w += inp[:, t].T @ da
            g_u += h_prev.T @ da
            g_b += da.sum(axis=0)
            dx_seq[:, t] = da @ params.w.T
            dh_next, dc_next = da @ params.u.T, dc * f
        grads.insert(0, {"w": g_w, "u": g_u, "b": g_b})
        dh_seq = dx_seq
    return grads


def test_backward_matches_step_by_step_reference(rng):
    model = tiny_model(input_dim=6, hidden=3, layers=3, scales=2)
    x = rng.normal(size=(5, 7, 6))
    feats, caches = mslstm._run_layers(model, x, keep_cache=True)
    dfeat = rng.normal(size=feats.shape)
    got, _ = model.unpack(np.full_like(model.params, np.nan))
    mslstm._backward_batch(model, caches, dfeat, got)
    want = reference_bptt(model, batch_major(caches), dfeat)
    assert len(got) == len(want) == 3
    for g, r in zip(got, want):
        for key in ("w", "u", "b"):
            assert getattr(g, key).shape == r[key].shape
            assert np.max(np.abs(getattr(g, key) - r[key])) < 1e-12


def test_workspace_reuse_matches_a_fresh_call(rng):
    """One workspace across batches of a new size and a model of another
    hidden size gives exactly what a call without one gives; then again
    with every kept buffer set to NaN after each call, so no buffer is read
    before the call writes it."""
    cases = [(tiny_model(), 5), (tiny_model(seed=4), 5), (tiny_model(), 8),
             (tiny_model(hidden=5, layers=3, scales=1), 8), (tiny_model(), 2)]
    work = {}
    for poison in (False, True):
        for model, batch in cases:
            for loss_kind in ("asoftmax", "softmax"):
                x = rng.normal(size=(batch, 6, 6))
                labels = np.arange(batch) % 2
                want, want_grad = mslstm.loss_and_grads(model, x, labels,
                                                        loss_kind)
                got, grad = mslstm.loss_and_grads(model, x, labels,
                                                  loss_kind, work)
                assert got == want and np.array_equal(grad, want_grad)
                for buf in work.values() if poison else ():
                    buf.fill(np.nan)


def test_train_step_allocates_no_step_sized_buffers(monkeypatch):
    """From the start of one ``loss_and_grads`` call to the next, that is one
    training step with its Adam update and the next batch, traced memory
    rises at most 512 KB after the first step; a new set of BPTT caches at
    the default sizes takes about 4 MB."""
    loss_and_grads = mslstm.loss_and_grads
    starts, rises = [], []

    def traced(*args):
        if starts:
            rises.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return loss_and_grads(*args)

    monkeypatch.setattr(mslstm, "loss_and_grads", traced)
    r = np.random.default_rng(0)
    data = [(r.normal(size=(9, 118)), i % 2) for i in range(40)]
    tracemalloc.start()
    try:
        mslstm.train(mslstm.init_model(seed=0), data,
                     mslstm.TrainConfig(max_steps=5, batch_size=32))
    finally:
        tracemalloc.stop()
    assert len(rises) == 4
    assert max(rises[1:]) <= 512 * 1024, rises


def reference_asoftmax_head(model, feats, labels):
    """Per-sample A-softmax head: mean loss and gradients w.r.t. feats and
    head; a zero-norm row adds nothing but still counts in the mean."""
    w = model.head
    b = feats.shape[0]
    dfeat = np.zeros_like(feats)
    dhead = np.zeros_like(w)
    total = 0.0
    for s in range(b):
        x = feats[s]
        r = np.linalg.norm(x)
        if r < 1e-300:
            continue
        y = int(labels[s])
        o = 1 - y
        cos_y = float(w[y] @ x) / r
        cos_o = float(w[o] @ x) / r
        loss, (d_r, d_cy, d_co) = mslstm.asoftmax_loss(r, cos_y, cos_o,
                                                       model.margin)
        total += loss
        dfeat[s] = (d_r * x / r + d_cy * (w[y] - cos_y * x / r) / r
                    + d_co * (w[o] - cos_o * x / r) / r)
        dhead[y] += d_cy * x / r
        dhead[o] += d_co * x / r
    return total / b, dfeat / b, dhead / b


@pytest.mark.parametrize("margin", [1, 4])
def test_asoftmax_head_matches_per_sample_reference(margin, rng):
    model = tiny_model(hidden=3, scales=2, margin=margin)
    feats = rng.normal(size=(9, 6))
    feats[4] = 0.0
    labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
    got = mslstm._head_loss_and_grads(model, feats, labels, "asoftmax")
    want = reference_asoftmax_head(model, feats, labels)
    assert abs(got[0] - want[0]) < 1e-12
    for g, r in zip(got[1:], want[1:]):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) < 1e-12
    assert np.all(got[1][4] == 0.0)
    # the zero row still counts in the mean
    loss_rest, _, dhead_rest = mslstm._head_loss_and_grads(
        model, np.delete(feats, 4, axis=0), np.delete(labels, 4), "asoftmax")
    assert np.isclose(got[0], loss_rest * 8 / 9, rtol=1e-12)
    assert np.allclose(got[2], dhead_rest * 8 / 9, rtol=1e-12, atol=0)
    # softmax is this head at m = 1, zero row included
    if margin == 1:
        soft = mslstm._head_loss_and_grads(model, feats, labels, "softmax")
        assert soft[0] == got[0]
        assert all(np.array_equal(a, b) for a, b in zip(soft[1:], got[1:]))


def test_head_rejects_an_unknown_loss(rng):
    with pytest.raises(ValueError, match="unknown loss 'hinge'"):
        mslstm._head_loss_and_grads(tiny_model(), rng.normal(size=(2, 6)),
                                    np.array([0, 1]), "hinge")


def reference_softmax_head(model, feats, labels):
    """Per-sample softmax cross-entropy on the logits x @ w.T."""
    b = feats.shape[0]
    w = model.head
    dfeat = np.zeros_like(feats)
    dhead = np.zeros_like(w)
    total = 0.0
    logits = feats @ w.T
    for s in range(b):
        loss, dl = mslstm.softmax_loss(logits[s], int(labels[s]))
        total += loss
        dfeat[s] = dl @ w
        dhead += np.outer(dl, feats[s])
    return total / b, dfeat / b, dhead / b


def test_softmax_head_matches_per_sample_reference(rng):
    model = tiny_model(hidden=3, scales=2)
    feats = 4.0 * rng.normal(size=(9, 6))
    labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1])
    got = mslstm._head_loss_and_grads(model, feats, labels, "softmax")
    want = reference_softmax_head(model, feats, labels)
    assert abs(got[0] - want[0]) < 1e-12
    for g, r in zip(got[1:], want[1:]):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) < 1e-12


def test_softmax_loss_batch_matches_rows(rng):
    logits = 30.0 * rng.normal(size=(7, 2))
    labels = rng.integers(0, 2, size=7)
    loss, dlogits = mslstm.softmax_loss(logits, labels)
    assert loss.shape == (7,) and dlogits.shape == (7, 2)
    for k in range(7):
        one_loss, one_dl = mslstm.softmax_loss(logits[k], int(labels[k]))
        assert type(one_loss) is float
        assert loss[k] == one_loss and np.array_equal(dlogits[k], one_dl)
    logits[3, 1] = np.inf
    with pytest.raises(ValueError):
        mslstm.softmax_loss(logits, labels)


def test_asoftmax_loss_array_matches_scalar(rng):
    r = rng.uniform(0.1, 5.0, size=7)
    cy, co = rng.uniform(-1, 1, size=(2, 7))
    loss, grads = mslstm.asoftmax_loss(r, cy, co, 3)
    for k in range(7):
        one_loss, one_grads = mslstm.asoftmax_loss(float(r[k]), float(cy[k]),
                                                   float(co[k]), 3)
        assert type(one_loss) is float
        assert abs(loss[k] - one_loss) < 1e-12
        assert np.allclose([g[k] for g in grads], one_grads, rtol=0,
                           atol=1e-12)


# ---------------------------------------------------------------------------
# training


def test_train_deterministic():
    histories = []
    for _ in range(2):
        model = tiny_model(hidden=4, seed=0)
        cfg = mslstm.TrainConfig(max_steps=40, batch_size=8, seed=0)
        _, hist = mslstm.train(model, _separable_set(), cfg)
        histories.append(hist)
    assert histories[0] == histories[1]


def test_train_separable_reaches_full_accuracy():
    model = tiny_model(hidden=8, seed=0)
    cfg = mslstm.TrainConfig(max_steps=500, batch_size=8, seed=0)
    data = _separable_set()
    model, hist = mslstm.train(model, data, cfg)
    correct = sum(mslstm.predict(model, seq)[0] == lbl for seq, lbl in data)
    assert correct == len(data)
    assert np.mean(hist[-50:]) < np.mean(hist[:50])
    # trained samples are classified with high confidence
    seq, lbl = data[1]
    label, conf = mslstm.predict(model, seq)
    assert label == mslstm.CLASS_BLINK and conf > 0.99


def test_train_single_class_rejected():
    model = tiny_model()
    data = [(np.zeros((5, 6)), 1) for _ in range(4)]
    with pytest.raises(InvalidDatasetError):
        mslstm.train(model, data)
    with pytest.raises(InvalidDatasetError):
        mslstm.train(model, [])


def test_head_unit_norm_after_training():
    model = tiny_model(hidden=4)
    cfg = mslstm.TrainConfig(max_steps=25, batch_size=8, seed=1)
    model, _ = mslstm.train(model, _separable_set(), cfg)
    norms = np.linalg.norm(model.head, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)


def _file_order(layers, head):
    """Arrays in model-file order: (w, u, b) for each layer, then head."""
    return [a for lp in layers for a in (lp.w, lp.u, lp.b)] + [head]


def _assert_views_in_file_order(model):
    """Every parameter array is a C-contiguous view of ``model.params``,
    the next one starting where the last ended."""
    base = model.params.__array_interface__["data"][0]
    offset = 0
    for arr in _file_order(model.layers, model.head):
        assert np.shares_memory(arr, model.params)
        assert arr.flags.c_contiguous
        assert arr.__array_interface__["data"][0] == base + 8 * offset
        offset += arr.size
    assert offset == model.params.size
    assert model.params.dtype == np.float64 and model.params.flags.writeable


def reference_adam_train(model, data, cfg):
    """``train`` as a per-array Adam loop, each array updated on its own,
    reading the gradient through views of the same layout."""
    labels = np.array([lbl for _, lbl in data])
    x_all = np.stack([seq for seq, _ in data])
    rng = np.random.default_rng(cfg.seed)
    params = _file_order(model.layers, model.head)
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    order = np.array([], dtype=int)
    for step in range(1, cfg.max_steps + 1):
        batch_idx = []
        while len(batch_idx) < cfg.batch_size:
            if order.size == 0:
                order = rng.permutation(len(data))
            take = min(cfg.batch_size - len(batch_idx), order.size)
            batch_idx.extend(order[:take].tolist())
            order = order[take:]
        idx = np.array(batch_idx)
        _, grad = mslstm.loss_and_grads(model, x_all[idx], labels[idx],
                                        cfg.loss)
        grads = _file_order(*model.unpack(grad))
        lr = cfg.learning_rate(step)
        b1c = 1.0 - mslstm.ADAM_BETA1 ** step
        b2c = 1.0 - mslstm.ADAM_BETA2 ** step
        for p, g, m_a, v_a in zip(params, grads, m_state, v_state):
            m_a *= mslstm.ADAM_BETA1
            m_a += (1 - mslstm.ADAM_BETA1) * g
            v_a *= mslstm.ADAM_BETA2
            v_a += (1 - mslstm.ADAM_BETA2) * g * g
            p -= lr * (m_a / b1c) / (np.sqrt(v_a / b2c) + mslstm.ADAM_EPSILON)
        model.head /= np.linalg.norm(model.head, axis=1, keepdims=True)
    return model


@pytest.mark.parametrize("loss_kind", ["softmax", "asoftmax"])
def test_train_matches_per_array_adam(loss_kind):
    cfg = mslstm.TrainConfig(max_steps=25, batch_size=8, seed=1,
                             loss=loss_kind)
    got, _ = mslstm.train(tiny_model(hidden=4), _separable_set(), cfg)
    want = reference_adam_train(tiny_model(hidden=4), _separable_set(), cfg)
    assert np.array_equal(got.params, want.params)
    assert not np.array_equal(got.params, tiny_model(hidden=4).params)
    _assert_views_in_file_order(got)


def test_learning_rate_schedule():
    cfg = mslstm.TrainConfig()
    assert cfg.learning_rate(1) == 1e-2
    assert cfg.learning_rate(100) == 1e-2
    assert cfg.learning_rate(101) == 1e-3
    assert cfg.learning_rate(3000) == 1e-3
    assert cfg.learning_rate(3001) == 1e-4
    assert cfg.learning_rate(30001) == 1e-5
    assert (mslstm.ADAM_BETA1, mslstm.ADAM_BETA2) == (0.5, 0.9)


# ---------------------------------------------------------------------------
# predict


def test_predict_symmetric_head_gives_half(rng):
    model = tiny_model(hidden=3)
    model.head[1] = model.head[0]
    _, conf = mslstm.predict(model, rng.normal(size=(5, 6)))
    assert np.isclose(conf, 0.5)


def test_predict_invariant_to_head_rescale(rng):
    model = tiny_model(hidden=3)
    seq = rng.normal(size=(5, 6))
    before = mslstm.predict(model, seq)
    model.head *= 5.0
    model.head /= np.linalg.norm(model.head, axis=1, keepdims=True)
    after = mslstm.predict(model, seq)
    assert before[0] == after[0]
    assert np.isclose(before[1], after[1])


def test_predict_class_relabel_symmetry(rng):
    model = tiny_model(hidden=3)
    seq = rng.normal(size=(5, 6))
    label, conf = mslstm.predict(model, seq)
    model.head[:] = model.head[::-1].copy()
    label2, conf2 = mslstm.predict(model, seq)
    assert label2 == 1 - label
    assert np.isclose(conf2, 1.0 - conf)


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip(tmp_path):
    model = tiny_model(input_dim=6, hidden=3, layers=2, scales=2, margin=4,
                       seed=9)
    path = str(tmp_path / "m.bin")
    mslstm.save_model(path, model)
    back = mslstm.load_model(path)
    assert back.scales == model.scales and back.margin == model.margin
    assert np.array_equal(back.head, model.head)
    for a, b in zip(back.layers, model.layers):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.b, b.b)


def reference_model_bytes(model):
    """The model file as written one array at a time."""
    out = [mslstm.MODEL_MAGIC,
           struct.pack("<5I", len(model.layers), model.scales, model.hidden,
                       model.input_dim, model.margin)]
    out += [np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in _file_order(model.layers, model.head)]
    return b"".join(out)


@pytest.mark.parametrize("layers, scales", [(1, 1), (2, 2), (3, 3)])
def test_params_back_every_array_in_file_order(tmp_path, layers, scales):
    model = tiny_model(input_dim=6, hidden=3, layers=layers, scales=scales)
    _assert_views_in_file_order(model)
    model.layers[-1].b[2] = 7.0
    model.head[1, 0] = -0.5
    path = tmp_path / "m.bin"
    mslstm.save_model(str(path), model)
    assert path.read_bytes() == reference_model_bytes(model)
    back = mslstm.load_model(str(path))
    _assert_views_in_file_order(back)
    assert np.array_equal(back.params, model.params)
    assert len(back.layers) == layers and back.scales == scales


def test_model_constructor_copies_its_arrays(rng):
    params = _zero_params(3, 2)
    model = _one_layer(params)
    params.w[0, 0] = 1.0
    assert model.layers[0].w[0, 0] == 0.0
    _assert_views_in_file_order(model)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, -1])
def test_model_non_finite_parameter_rejected(tmp_path, bad, index):
    path, data = _saved_model_bytes(tmp_path)
    params = np.frombuffer(data[24:], dtype="<f8").copy()
    params[index] = bad
    path.write_bytes(data[:24] + params.tobytes())
    with pytest.raises(ModelFormatError, match=f"{path}: non-finite"):
        mslstm.load_model(str(path))


def test_model_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ValueError):
        mslstm.load_model(str(path))


def _saved_model_bytes(tmp_path):
    path = tmp_path / "m.bin"
    mslstm.save_model(str(path), tiny_model(input_dim=6, hidden=3, seed=9))
    return path, path.read_bytes()


@pytest.mark.parametrize("cut", [10, 24, 100, -8, -1])
def test_model_truncated_rejected(tmp_path, cut):
    path, data = _saved_model_bytes(tmp_path)
    path.write_bytes(data[:cut])
    with pytest.raises(ModelFormatError, match=str(path)):
        mslstm.load_model(str(path))


def test_model_trailing_bytes_rejected(tmp_path):
    path, data = _saved_model_bytes(tmp_path)
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(ModelFormatError, match=str(path)):
        mslstm.load_model(str(path))


# header fields: layers, scales, hidden, input_dim, margin; all but the
# margin size the arrays, so only those can be oversized
@pytest.mark.parametrize("field, value", [(f, 0) for f in range(5)]
                         + [(f, 2 ** 32 - 1) for f in range(4)])
def test_model_bad_header_field_rejected(tmp_path, field, value):
    path, data = _saved_model_bytes(tmp_path)
    dims = list(struct.unpack("<5I", data[4:24]))
    dims[field] = value
    path.write_bytes(data[:4] + struct.pack("<5I", *dims) + data[24:])
    with pytest.raises(ModelFormatError, match=str(path)):
        mslstm.load_model(str(path))


CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("flip"), st.integers(0, 10 ** 6), st.integers(1, 255)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)))


def corrupt(path, corruption) -> bytes:
    """Apply one CORRUPTIONS draw to the file at ``path``; returns the new
    bytes."""
    data = bytearray(path.read_bytes())
    kind, *args = corruption
    if kind == "truncate":
        data = data[:args[0] % len(data)]
    elif kind == "flip":
        data[args[0] % len(data)] ^= args[1]
    else:
        data += args[0]
    path.write_bytes(bytes(data))
    return bytes(data)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(corruption=CORRUPTIONS)
def test_load_model_fuzz_loads_or_names_path(tmp_path_factory, corruption):
    path = tmp_path_factory.mktemp("fuzz") / "m.bin"
    mslstm.save_model(str(path), tiny_model(input_dim=6, hidden=3, seed=9))
    data = corrupt(path, corruption)
    kind = corruption[0]
    try:
        model = mslstm.load_model(str(path))
    except ModelFormatError as err:
        assert str(path) in str(err)
    else:
        assert kind == "flip"
        mslstm.save_model(str(path), model)
        assert path.read_bytes() == data


def test_predict_rejects_non_finite(rng):
    model = tiny_model(input_dim=6, hidden=3)
    seq = rng.normal(size=(5, 6))
    for bad in (np.nan, np.inf):
        seq[2, 3] = bad
        with pytest.raises(ValueError):
            mslstm.predict(model, seq)


def test_predict_batch_matches_per_sequence(rng):
    model = tiny_model(input_dim=6, hidden=3)
    batch = rng.normal(size=(13, 5, 6))
    labels, confs = mslstm.predict(model, batch)
    assert labels.shape == confs.shape == (13,)
    assert set(labels.tolist()) == {0, 1}
    for seq, label, conf in zip(batch, labels, confs):
        one_label, one_conf = mslstm.predict(model, seq)
        assert type(one_label) is int and type(one_conf) is float
        assert one_label == label
        assert abs(one_conf - conf) <= 1e-12


def test_predict_batch_rejects_bad_input(rng):
    model = tiny_model(input_dim=6, hidden=3)
    batch = rng.normal(size=(4, 5, 6))
    batch[2, 3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        mslstm.predict(model, batch)
    for shape in ((4, 5, 7), (6,), (2, 4, 5, 6)):
        with pytest.raises(ValueError, match="dimension"):
            mslstm.predict(model, rng.normal(size=shape))


def test_forward_without_cache_matches_training_forward(rng):
    model = tiny_model(input_dim=6, hidden=3)
    x = rng.normal(size=(7, 5, 6))
    feats, caches = mslstm._run_layers(model, x, keep_cache=False)
    assert caches is None
    want, _ = mslstm._run_layers(model, x, keep_cache=True)
    assert np.array_equal(feats, want)
