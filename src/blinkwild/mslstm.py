"""Multi-scale stacked LSTM classifier with an angular-margin head.

L LSTM layers run over the per-step feature sequence; the classifier
consumes the concatenation of the top layer's last T hidden states. The
head holds one unit-norm weight vector per class and no bias, so class
c's score W_c.x is r*cos(theta_c), with r the feature norm. Training
minimizes the angular-margin cross-entropy that replaces cos(theta_y) of
the true class with the monotone extension psi(theta_y) = (-1)^k cos(m
theta_y) - 2k; plain softmax is the same loss at m = 1. Everything
(forward, BPTT, ADAM) is plain numpy in float64.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from .errors import InvalidDatasetError, ModelFormatError

N_CLASSES = 2
CLASS_NONBLINK = 0
CLASS_BLINK = 1

# declining learning rate by training step (1-based, inclusive ranges)
DEFAULT_SCHEDULE = [(1, 100, 1e-2), (101, 3000, 1e-3),
                    (3001, 30000, 1e-4), (30001, 50000, 1e-5)]
# ADAM moment decay rates and denominator guard
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.9
ADAM_EPSILON = 1e-8

GATES = 4  # i, f, o, g blocks, stored stacked along the last axis


@dataclass
class LstmLayerParams:
    w: np.ndarray  # (input_dim, 4*hidden)
    u: np.ndarray  # (hidden, 4*hidden)
    b: np.ndarray  # (4*hidden,)

    @property
    def hidden(self) -> int:
        return self.u.shape[0]


@dataclass
class MsLstmModel:
    """Every parameter array is a view into the one vector ``params``, laid
    out in model-file order: (w, u, b) for each layer, then the head. The
    constructor copies the given arrays into that vector."""
    layers: list[LstmLayerParams]
    head: np.ndarray        # (2, scales*hidden), rows unit norm
    scales: int             # T: how many trailing hidden states feed the head
    margin: int             # m: angular margin used by the A-softmax loss
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.params = np.concatenate(
            [np.ravel(a) for lp in self.layers for a in (lp.w, lp.u, lp.b)]
            + [np.ravel(self.head)], dtype=np.float64)
        self.layers, self.head = self.unpack(self.params)

    def unpack(self, vec: np.ndarray):
        """Views of ``vec``, laid out like ``params``: (layers, head)."""
        return _unpack(vec, _model_shapes(len(self.layers), self.scales,
                                          self.hidden, self.input_dim))

    @property
    def hidden(self) -> int:
        return self.layers[0].hidden

    @property
    def input_dim(self) -> int:
        return self.layers[0].w.shape[0]


@dataclass
class TrainConfig:
    max_steps: int = 2000
    batch_size: int = 32
    seed: int = 0
    loss: str = "asoftmax"  # or "softmax"

    def learning_rate(self, step: int) -> float:
        for lo, hi, lr in DEFAULT_SCHEDULE:
            if lo <= step <= hi:
                return lr
        return DEFAULT_SCHEDULE[-1][2]


def init_model(input_dim: int = 118, hidden: int = 64, layers: int = 2,
               scales: int = 2, margin: int = 4,
               seed: int = 0) -> MsLstmModel:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), forget bias +1,
    head vectors random then renormalized."""
    if hidden < 1 or layers < 1 or scales < 1 or margin < 1:
        raise ValueError("hidden, layers, scales and margin must be >= 1")
    rng = np.random.default_rng(seed)
    layer_params = []
    dim = input_dim
    for _ in range(layers):
        bound_w = 1.0 / np.sqrt(dim)
        bound_u = 1.0 / np.sqrt(hidden)
        w = rng.uniform(-bound_w, bound_w, size=(dim, GATES * hidden))
        u = rng.uniform(-bound_u, bound_u, size=(hidden, GATES * hidden))
        b = np.zeros(GATES * hidden)
        b[hidden:2 * hidden] = 1.0  # forget gate open at start
        layer_params.append(LstmLayerParams(w=w, u=u, b=b))
        dim = hidden
    head = rng.normal(size=(N_CLASSES, scales * hidden))
    head /= np.linalg.norm(head, axis=1, keepdims=True)
    return MsLstmModel(layers=layer_params, head=head, scales=scales,
                       margin=margin)


def _buf(work, key, shape: tuple) -> np.ndarray:
    """An unset array of ``shape``, kept in the dict ``work`` for reuse."""
    if work is None:
        return np.empty(shape)
    if key not in work or work[key].shape != shape:
        work[key] = np.empty(shape)
    return work[key]


def _run_layers(model: MsLstmModel, x: np.ndarray, keep_cache: bool,
                work=None):
    """Run every layer over x (batch, steps, input_dim) from a zero state.

    This is the one LSTM core: ``predict`` (inference) and
    ``loss_and_grads`` (training) both call it. Returns (features (batch,
    T*hidden), caches), working time-major in buffers from ``work``. One
    ``tanh`` over each step's 4h gate block gives every gate, i/f/o as
    sigmoid(x) = 1/2 + tanh(x/2)/2. With ``keep_cache`` the caches hold per
    layer (params, inp, outs, gates, c, tc), each (steps, batch, width):
    input and output sequences, i/f/o/g, cell states (steps + 1 of them,
    c[0] the zero state) and tanh(c[1:]). Without it they are None, and
    gates, c and tc have one slot that every step overwrites.
    """
    b, n, d = x.shape
    if n < model.scales:
        raise ValueError(f"sequence length {n} shorter than T={model.scales}")
    caches = [] if keep_cache else None
    slots = n if keep_cache else 1
    inp = _buf(work, "x", (n, b, d))
    inp[...] = x.transpose(1, 0, 2)
    for layer_idx, params in enumerate(model.layers):
        h = params.hidden
        gates = _buf(work, ("gates", layer_idx), (slots, b, GATES * h))
        c = _buf(work, ("c", layer_idx), (slots + keep_cache, b, h))
        tc = _buf(work, ("tc", layer_idx), (slots, b, h))
        outs = _buf(work, ("outs", layer_idx), (n, b, h))
        hu = _buf(work, "hu", (b, GATES * h))
        c[0] = 0.0
        for t in range(n):
            k = t if keep_cache else 0  # the step's slot
            a = gates[k]
            np.matmul(inp[t], params.w, out=a)
            if t:  # h is zero at t = 0
                a += np.matmul(outs[t - 1], params.u, out=hu)
            a += params.b
            ifo, g = a[:, :3 * h], a[:, 3 * h:]
            ifo *= 0.5
            np.tanh(a, out=a)
            ifo += 1.0
            ifo *= 0.5  # i, f, o = (1 + tanh(x/2)) / 2
            c_new = c[k + 1] if keep_cache else c[0]
            np.multiply(ifo[:, h:2 * h], c[k], out=c_new)
            c_new += np.multiply(ifo[:, :h], g, out=tc[k])
            np.tanh(c_new, out=tc[k])
            np.multiply(ifo[:, 2 * h:], tc[k], out=outs[t])
        if keep_cache:
            caches.append((params, inp, outs, gates, c, tc))
        inp = outs
    feats = inp[n - model.scales:].transpose(1, 0, 2).reshape(b, -1)
    return feats, caches


def _backward_batch(model: MsLstmModel, caches, dfeat: np.ndarray,
                    grad_layers: list[LstmLayerParams], work=None) -> None:
    """BPTT from the gradient of the concatenated feature, written into the
    per-layer gradient views ``grad_layers``.

    Only the recurrence runs step by step. The weight gradients, and the
    gradient handed to the layer below, are one GEMM each over all steps.
    """
    n, b, hd = caches[-1][2].shape
    # seed top-layer dh from the feature concatenation
    dh_seq = _buf(work, "dh", (n, b, hd))
    dh_seq[:n - model.scales] = 0.0
    dh_seq[n - model.scales:] = dfeat.reshape(b, -1, hd).transpose(1, 0, 2)
    da_seq = _buf(work, "da", (n, b, GATES * hd))
    dtc = _buf(work, "dtc", (n, b, hd))
    dc, s = _buf(work, "dc", (b, hd)), _buf(work, "s", (b, hd))
    prod = _buf(work, "prod", (b, GATES * hd))
    u_t = _buf(work, "u_t", (GATES * hd, hd))  # a contiguous u.T: faster GEMM
    for layer_idx in range(len(model.layers) - 1, -1, -1):
        params, inp, outs, gates, c, tc = caches[layer_idx]
        u_t[...] = params.u.T
        # all steps' gate and tanh(c) derivatives; da_seq[t] *= prod gives da
        ifo, g = gates[..., :3 * hd], gates[..., 3 * hd:]
        d_ifo, d_g = da_seq[..., :3 * hd], da_seq[..., 3 * hd:]
        np.multiply(ifo, np.subtract(1, ifo, out=d_ifo), out=d_ifo)
        np.subtract(1, np.multiply(g, g, out=d_g), out=d_g)
        np.subtract(1, np.multiply(tc, tc, out=dtc), out=dtc)
        dc[...] = 0.0
        for t in range(n - 1, -1, -1):
            ifo, g = gates[t][:, :3 * hd], gates[t][:, 3 * hd:]
            dc += np.multiply(np.multiply(dh_seq[t], ifo[:, 2 * hd:], out=s),
                              dtc[t], out=s)
            np.multiply(dc, g, out=prod[:, :hd])
            np.multiply(dc, c[t], out=prod[:, hd:2 * hd])
            np.multiply(dh_seq[t], tc[t], out=prod[:, 2 * hd:3 * hd])
            np.multiply(dc, ifo[:, :hd], out=prod[:, 3 * hd:])
            da_seq[t] *= prod
            dc *= ifo[:, hd:2 * hd]
            if t:  # dh of step t - 1
                dh_seq[t - 1] += np.matmul(da_seq[t], u_t, out=s)
        da_flat = da_seq.reshape(n * b, -1)
        grad = grad_layers[layer_idx]
        np.matmul(inp.reshape(n * b, -1).T, da_flat, out=grad.w)
        # h_prev is zero at t = 0, so that step adds nothing to dU
        np.matmul(outs[:-1].reshape(-1, hd).T, da_flat[b:], out=grad.u)
        da_flat.sum(axis=0, out=grad.b)
        if layer_idx:  # dh of the layer below
            np.matmul(da_flat, params.w.T, out=dh_seq.reshape(n * b, -1))


# ---------------------------------------------------------------------------
# losses


def psi(cos_theta: np.ndarray, m: int):
    """Monotone angular-margin map and its derivative w.r.t. cos(theta).

    psi(theta) = (-1)^k T_m(cos theta) - 2k on [k pi/m, (k+1) pi/m].
    """
    if m < 1:
        raise ValueError("margin must be >= 1")
    c = np.clip(np.asarray(cos_theta, dtype=np.float64), -1.0, 1.0)
    t_m = np.eye(m + 1)[m]  # T_m(cos theta) = cos(m theta), Chebyshev basis
    k = (c[..., None] <= np.cos(np.arange(1, m) * np.pi / m)).sum(axis=-1)
    sign = 1.0 - 2.0 * (k % 2)
    val = sign * chebval(c, t_m) - 2.0 * k
    deriv = sign * chebval(c, chebder(t_m))
    if np.isscalar(cos_theta):
        return float(val), float(deriv)
    return val, deriv


def _log_sum_exp2(a, b):
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


def asoftmax_loss(r, cos_y, cos_other, m: int):
    """Angular-margin cross-entropy per sample.

    loss = -log softmax over scores (r*psi(theta_y), r*cos(theta_other)).
    Takes scalars, giving floats, or equal-shape arrays, giving arrays.
    Returns (loss, (d/dr, d/dcos_y, d/dcos_other)).
    """
    val, dval = psi(cos_y, m)
    fy = r * val
    fo = r * cos_other
    lse = _log_sum_exp2(fy, fo)
    loss = lse - fy
    p_other = np.exp(fo - lse)
    # dL/dfy = -p_other, dL/dfo = p_other
    d_r = -p_other * val + p_other * cos_other
    d_cy = -p_other * r * dval
    d_co = p_other * r
    if np.ndim(loss) == 0:
        return float(loss), (float(d_r), float(d_cy), float(d_co))
    return loss, (d_r, d_cy, d_co)


def softmax_loss(logits: np.ndarray, label):
    """Two-class cross-entropy with log-sum-exp stabilization.

    Takes one (2,) logit row with an int label, giving (float, dlogits
    (2,)), or (batch, 2) rows with (batch,) labels, giving (losses (batch,),
    dlogits (batch, 2)). Returns (loss, dlogits).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dlogits = np.atleast_2d(p)
    rows = np.arange(dlogits.shape[0])
    labels = np.atleast_1d(label).astype(int)
    loss = -np.log(np.maximum(dlogits[rows, labels], 1e-300))
    dlogits[rows, labels] -= 1.0
    if logits.ndim == 1:
        return float(loss[0]), dlogits[0]
    return loss, dlogits


# ---------------------------------------------------------------------------
# full-model loss + gradients


def _head_loss_and_grads(model: MsLstmModel, feats: np.ndarray,
                         labels: np.ndarray, loss_kind: str):
    """Mean loss over the batch plus gradients w.r.t. feats and head; the
    ``softmax`` loss is the ``asoftmax`` head at m = 1."""
    margin = {"softmax": 1, "asoftmax": model.margin}.get(loss_kind)
    if margin is None:
        raise ValueError(f"unknown loss {loss_kind!r}")
    b = feats.shape[0]
    w = model.head
    r = np.linalg.norm(feats, axis=1)
    # a zero feature has no angle: it adds no loss and no gradient
    live = np.flatnonzero(~(r < 1e-300))
    x, r, y = feats[live], r[live], labels[live].astype(int)
    rows = np.arange(live.size)
    cos = x @ w.T / r[:, None]
    loss, (d_r, d_cy, d_co) = asoftmax_loss(
        r, cos[rows, y], cos[rows, 1 - y], margin)
    # dL/dcos per class; dcos_c/dx = (w_c - cos_c x/r) / r
    dcos = np.empty_like(cos)
    dcos[rows, y] = d_cy
    dcos[rows, 1 - y] = d_co
    u = x / r[:, None]
    dfeat = np.zeros_like(feats)
    dfeat[live] = ((d_r - np.sum(dcos * cos, axis=1) / r)[:, None] * u
                   + dcos @ w / r[:, None])
    dhead = dcos.T @ u
    return float(np.sum(loss)) / b, dfeat / b, dhead / b


def loss_and_grads(model: MsLstmModel, x: np.ndarray, labels: np.ndarray,
                   loss_kind: str = "asoftmax", work=None):
    """Mean batch loss and its gradient.

    x: (batch, steps, input_dim); labels: (batch,) of {0, 1}.
    Returns (loss, grad) with grad laid out like ``model.params``. Buffers,
    grad included, come from ``work`` (``_buf``), for a later call to reuse.
    """
    feats, caches = _run_layers(model, np.asarray(x, dtype=np.float64),
                                True, work)
    loss, dfeat, dhead = _head_loss_and_grads(
        model, feats, np.asarray(labels), loss_kind)
    grad = _buf(work, "grad", model.params.shape)
    grad_layers, grad_head = model.unpack(grad)
    _backward_batch(model, caches, dfeat, grad_layers, work)
    grad_head[...] = dhead
    return loss, grad


# ---------------------------------------------------------------------------
# training


def train(model: MsLstmModel, train_set, config: TrainConfig | None = None):
    """ADAM training over (sequence, label) pairs; deterministic per seed.

    Sequences must share a common length (clips are polished beforehand).
    Head rows are re-normalized to unit norm after every step. Returns the
    trained model (updated in place) and the per-step loss history.
    """
    config = config or TrainConfig()
    if config.batch_size < 1 or config.max_steps < 0:
        raise ValueError("batch_size must be >= 1 and max_steps >= 0")
    if not train_set:
        raise InvalidDatasetError("empty training set")
    labels = np.array([int(lbl) for _, lbl in train_set])
    if len(set(labels.tolist())) < 2:
        raise InvalidDatasetError("training set must contain both classes")
    x_all = np.stack([np.asarray(seq, dtype=np.float64)
                      for seq, _ in train_set])

    rng = np.random.default_rng(config.seed)
    work = {}  # every step's buffers, reused by the next step
    m_a = np.zeros_like(model.params)
    v_a = np.zeros_like(model.params)
    history = []
    order = np.array([], dtype=int)
    for step in range(1, config.max_steps + 1):
        batch_idx = []
        while len(batch_idx) < config.batch_size:
            if order.size == 0:
                order = rng.permutation(len(train_set))
            take = min(config.batch_size - len(batch_idx), order.size)
            batch_idx.extend(order[:take].tolist())
            order = order[take:]
        idx = np.array(batch_idx)
        x = _buf(work, "batch", (idx.size,) + x_all.shape[1:])
        np.take(x_all, idx, axis=0, out=x, mode="clip")  # "raise" copies
        loss, g = loss_and_grads(model, x, labels[idx], config.loss, work)
        lr = config.learning_rate(step)
        b1c = 1.0 - ADAM_BETA1 ** step
        b2c = 1.0 - ADAM_BETA2 ** step
        # lr * (m / b1c) / (sqrt(v / b2c) + eps) in place, rounded as written
        s = _buf(work, "adam", g.shape)
        m_a *= ADAM_BETA1
        m_a += np.multiply(1 - ADAM_BETA1, g, out=s)
        v_a *= ADAM_BETA2
        v_a += np.multiply(np.multiply(1 - ADAM_BETA2, g, out=s), g, out=s)
        np.multiply(lr, np.divide(m_a, b1c, out=s), out=s)
        np.add(np.sqrt(np.divide(v_a, b2c, out=g), out=g), ADAM_EPSILON, out=g)
        model.params -= np.divide(s, g, out=s)
        model.head /= np.linalg.norm(model.head, axis=1, keepdims=True)
        history.append(loss)
    return model, history


def predict(model: MsLstmModel, seq: np.ndarray):
    """Class label and blink-class probability per sequence.

    A (steps, input_dim) sequence gives (int, float); a (batch, steps,
    input_dim) batch gives (labels (batch,), blink_probs (batch,)), each row
    scored as if alone, since every sequence starts from a zero state.
    Inference always scores class c as W_c.x = r*cos(theta_c); the margin
    only reshapes the training loss.
    """
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != model.input_dim:
        raise ValueError("sequence has wrong feature dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input sequence")
    feats, _ = _run_layers(model, x if x.ndim == 3 else x[None], False)
    scores = feats @ model.head.T
    z = scores - scores.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    labels = np.argmax(scores, axis=1)
    if x.ndim == 2:
        return int(labels[0]), float(p[0, CLASS_BLINK])
    return labels, p[:, CLASS_BLINK]


# ---------------------------------------------------------------------------
# serialization: magic MSL1, u32 L,T,hidden,input_dim,m, float64 blocks


MODEL_MAGIC = b"MSL1"


def save_model(path: str, model: MsLstmModel) -> None:
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<5I", len(model.layers), model.scales,
                            model.hidden, model.input_dim, model.margin))
        f.write(model.params.astype("<f8", copy=False).tobytes())


def _unpack(vec: np.ndarray, shapes):
    """Views of ``vec`` cut to ``shapes`` in file order: (layers, head)."""
    views, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(vec[start:start + n].reshape(shape))
        start += n
    return ([LstmLayerParams(*views[i:i + 3])
             for i in range(0, len(views) - 1, 3)], views[-1])


def _model_shapes(n_layers: int, scales: int, hidden: int, input_dim: int):
    """Array shapes in file order: (w, u, b) per layer, then the head."""
    dim = input_dim
    for _ in range(n_layers):
        yield (dim, GATES * hidden)
        yield (hidden, GATES * hidden)
        yield (GATES * hidden,)
        dim = hidden
    yield (N_CLASSES, scales * hidden)


def load_model(path: str) -> MsLstmModel:
    """Read a model file, checking its header against the file size before
    any array is allocated, and rejecting a non-finite parameter."""
    header_size = len(MODEL_MAGIC) + 20
    with open(path, "rb") as f:
        header = f.read(header_size)
        if header[:len(MODEL_MAGIC)] != MODEL_MAGIC:
            raise ModelFormatError(f"{path}: not a model file")
        if len(header) < header_size:
            raise ModelFormatError(f"{path}: truncated model header")
        dims = struct.unpack("<5I", header[len(MODEL_MAGIC):])
        for name, value in zip(("layers", "scales", "hidden", "input_dim",
                                "margin"), dims):
            if value < 1:
                raise ModelFormatError(f"{path}: header field {name} is "
                                       f"{value}, must be >= 1")
        n_layers, scales, hidden, input_dim, margin = dims
        size = os.fstat(f.fileno()).st_size
        expected = header_size
        for shape in _model_shapes(n_layers, scales, hidden, input_dim):
            expected += 8 * math.prod(shape)
            if expected > size:
                raise ModelFormatError(f"{path}: truncated: the header "
                                       f"needs more than {size} bytes")
        if expected != size:
            raise ModelFormatError(f"{path}: {size - expected} bytes after "
                                   f"the model")
        params = np.frombuffer(f.read(), dtype="<f8")
    if not np.all(np.isfinite(params)):
        raise ModelFormatError(f"{path}: non-finite model parameter")
    layers, head = _unpack(params, _model_shapes(n_layers, scales, hidden,
                                                 input_dim))
    return MsLstmModel(layers=layers, head=head, scales=scales, margin=margin)
