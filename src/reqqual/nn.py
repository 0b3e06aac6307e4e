"""Recurrent classifier: embedding, LSTM/GRU cells, dense softmax head.

Forward and backward passes are written out by hand against the cell
update rules below; there is no autodiff.

LSTM, per timestep (x is the concatenation [h_prev; x_t], h first)::

    f = sigmoid(W_f x + b_f)
    i = sigmoid(W_i x + b_i)
    o = sigmoid(W_o x + b_o)
    c = f * c_prev + i * tanh(W_c x + b_c)
    h = o * tanh(c)

GRU, per timestep.  Two things are deliberate and differ from common
library defaults: there are NO bias terms, and the reset gate multiplies
the previous hidden state BEFORE the W_s product::

    z = sigmoid(U_z x_t + W_z h_prev)
    r = sigmoid(U_r x_t + W_r h_prev)
    s = tanh(U_s x_t + W_s (h_prev * r))
    h = (1 - z) * s + z * h_prev

Classification reads the final hidden state h_T, applies inverted
dropout (train mode only), then a dense layer and softmax over the two
classes.  Class 0 means "property satisfied".

Training and inference run the batch kernel, forward_batch and
backward_batch, after Appleyard et al., arXiv:1604.01946.  Tokens are tag
ids, so layer 0's input term is a row of a V x H table per gate, E . U^T
(E . W_x^T + b for LSTM, whose (H, H+N) weights split at call time into
W_h = w[:, :H] and W_x = w[:, H:]); each step gathers it by id.  The
sigmoid gates (GRU z|r, LSTM f|i|o) share one matmul by W^T, transposed
once per call, and are stored apart from the tanh candidate (GRU s, LSTM
g): numpy updates a column slice in place 2-3x slower than whole rows.
Rows run longest first, so finished rows are skipped instead of masked.
Backward keeps only the recurrent products inside the time loop and
forms every weight gradient as one matmul after it.
Inference keeps no caches, only h (and c) and the outputs of a layer that
another layer reads.

The per-sequence path is the readable reference: the tests hold the batch
kernel to it within 1e-10, and the gradient checks hold it to finite
differences.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, StructuralError
from .numcore import Rng, glorot_uniform, sigmoid, softmax, tanh
from .textpipe import EncodedSequence

NUM_CLASSES = 2


class CellType(str, enum.Enum):
    LSTM = "lstm"
    GRU = "gru"


class RunMode(str, enum.Enum):
    TRAIN = "train"
    INFER = "infer"


@dataclass(frozen=True)
class ModelConfig:
    cell: CellType
    vocab_size: int
    embedding_dim: int
    hidden_units: int
    num_layers: int = 1
    dropout_p: float = 0.0
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        try:
            object.__setattr__(self, "cell", CellType(self.cell))
        except ValueError:
            raise ParameterError(
                f"cell must be one of {[c.value for c in CellType]}, got {self.cell!r}"
            ) from None
        for name in ("vocab_size", "embedding_dim", "hidden_units", "num_layers", "num_classes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.dropout_p, bool) or not isinstance(self.dropout_p, numbers.Real):
            raise ParameterError(f"dropout_p must be a real number, got {self.dropout_p!r}")
        if self.vocab_size < 3:
            raise ParameterError(f"vocab_size must be >= 3 (PAD, UNK, one tag), got {self.vocab_size}")
        if self.embedding_dim < 1:
            raise ParameterError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if self.hidden_units < 1:
            raise ParameterError(f"hidden_units must be positive, got {self.hidden_units}")
        if self.num_layers < 1:
            raise ParameterError(f"num_layers must be positive, got {self.num_layers}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ParameterError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.num_classes != NUM_CLASSES:
            raise ParameterError(f"models are binary; num_classes must be 2, got {self.num_classes}")


_LSTM_GATES = ("f", "i", "o", "c")
_GRU_PARTS = ("z", "r", "s")


def parameter_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; fixes initialization, update, and file order."""
    h = config.hidden_units
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("embedding", (config.vocab_size, config.embedding_dim))
    ]
    for k in range(config.num_layers):
        d = config.embedding_dim if k == 0 else h  # layer k's input width
        if config.cell is CellType.LSTM:
            for gate in _LSTM_GATES:
                specs.append((f"layer{k}.w{gate}", (h, h + d)))
                specs.append((f"layer{k}.b{gate}", (h,)))
        else:
            for part in _GRU_PARTS:
                specs.append((f"layer{k}.u{part}", (h, d)))
                specs.append((f"layer{k}.w{part}", (h, h)))
    specs.append(("head.w", (NUM_CLASSES, h)))
    specs.append(("head.b", (NUM_CLASSES,)))
    return specs


@dataclass
class ParameterSet:
    """All trainable arrays, keyed by manifest name."""

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        expected = parameter_manifest(self.config)
        names = [name for name, _ in expected]
        if set(self.arrays.keys()) != set(names):
            raise StructuralError(
                f"parameter names {sorted(self.arrays)} do not match the manifest {names}"
            )
        self.arrays = {name: np.asarray(self.arrays[name], dtype=np.float64) for name in names}
        for name, shape in expected:
            arr = self.arrays[name]
            if arr.shape != shape:
                raise StructuralError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            if not np.isfinite(arr).all():
                raise StructuralError(f"parameter {name!r} contains non-finite values")

    @classmethod
    def initialize(cls, config: ModelConfig, rng: Rng) -> "ParameterSet":
        """Glorot-uniform matrices, zero biases except the LSTM forget bias at 1.0."""
        manifest = parameter_manifest(config)
        arrays: dict[str, np.ndarray] = {}
        try:
            for name, shape in manifest:
                if len(shape) == 2:
                    arrays[name] = glorot_uniform(shape[0], shape[1], rng)
                elif name.endswith(".bf"):
                    arrays[name] = np.ones(shape)
                else:
                    arrays[name] = np.zeros(shape)
        except (MemoryError, ValueError) as exc:  # numpy: "Unable to allocate", "array is too big"
            count = sum(math.prod(shape) for _, shape in manifest)
            raise ParameterError(f"cannot allocate a model of {count} parameters: {exc}") from None
        return cls(config=config, arrays=arrays)

    def layer(self, k: int) -> dict[str, np.ndarray]:
        prefix = f"layer{k}."
        return {n[len(prefix):]: a for n, a in self.arrays.items() if n.startswith(prefix)}


def classify(probs) -> int | list[int]:
    """Argmax over the two class probabilities; an exact tie goes to class 0.

    One row ``(p0, p1)`` gives an int, a ``(B, 2)`` batch a list of B ints.
    A row holding NaN goes to class 1.
    """
    probs = np.asarray(probs)
    return np.where(probs[..., 0] >= probs[..., 1], 0, 1).tolist()


def zero_gradients(config: ModelConfig) -> dict[str, np.ndarray]:
    return {name: np.zeros(shape) for name, shape in parameter_manifest(config)}


# --- single-sequence path ---------------------------------------------------

@dataclass(frozen=True)
class CellState:
    h: np.ndarray
    c: np.ndarray | None = None  # LSTM memory cell; None for GRU

    @classmethod
    def zero(cls, config: ModelConfig) -> "CellState":
        h = np.zeros(config.hidden_units)
        if config.cell is CellType.LSTM:
            return cls(h=h, c=np.zeros(config.hidden_units))
        return cls(h=h)


class LstmStepCache(NamedTuple):
    xcat: np.ndarray
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray
    tc: np.ndarray  # tanh(c)


class GruStepCache(NamedTuple):
    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    q: np.ndarray  # h_prev * r
    s: np.ndarray


def _lstm_step(x_t, state: CellState, layer: Mapping[str, np.ndarray]):
    if state.c is None:
        raise StructuralError("LSTM step needs a memory cell state")
    xcat = np.concatenate([state.h, x_t])
    f = sigmoid(layer["wf"] @ xcat + layer["bf"])
    i = sigmoid(layer["wi"] @ xcat + layer["bi"])
    o = sigmoid(layer["wo"] @ xcat + layer["bo"])
    g = tanh(layer["wc"] @ xcat + layer["bc"])
    c = f * state.c + i * g
    tc = tanh(c)
    h = o * tc
    return CellState(h=h, c=c), LstmStepCache(xcat, f, i, o, g, state.c, tc)


def _gru_step(x_t, state: CellState, layer: Mapping[str, np.ndarray]):
    h_prev = state.h
    z = sigmoid(layer["uz"] @ x_t + layer["wz"] @ h_prev)
    r = sigmoid(layer["ur"] @ x_t + layer["wr"] @ h_prev)
    q = h_prev * r
    s = tanh(layer["us"] @ x_t + layer["ws"] @ q)
    h = (1.0 - z) * s + z * h_prev
    return CellState(h=h), GruStepCache(np.asarray(x_t, dtype=np.float64), h_prev, z, r, q, s)


def lstm_step(x_t, state: CellState, layer: Mapping[str, np.ndarray]) -> CellState:
    """One LSTM update; see the module docstring for the exact rules."""
    new_state, _ = _lstm_step(np.asarray(x_t, dtype=np.float64), state, layer)
    return new_state


def gru_step(x_t, h_prev, layer: Mapping[str, np.ndarray]) -> np.ndarray:
    """One GRU update; note W_s multiplies (h_prev * r), and there are no biases."""
    state = CellState(h=np.asarray(h_prev, dtype=np.float64))
    new_state, _ = _gru_step(np.asarray(x_t, dtype=np.float64), state, layer)
    return new_state.h


def embed(ids: Sequence[int], table: np.ndarray) -> list[np.ndarray]:
    """Row lookups; ids must be within the table."""
    out = []
    for i in ids:
        if not 0 <= i < table.shape[0]:
            raise StructuralError(f"id {i} outside embedding table with {table.shape[0]} rows")
        out.append(table[i])
    return out


@dataclass
class ForwardTrace:
    """Everything backward() needs, cached during one forward pass."""

    ids: tuple[int, ...]
    config: ModelConfig
    layer_caches: list[list]  # [layer][t] -> LstmStepCache | GruStepCache
    final_hidden: np.ndarray  # h_T before dropout
    dropout_scale: np.ndarray | None  # mask / (1 - p); None when inactive
    dropped: np.ndarray  # head input
    probs: np.ndarray


def _as_ids(ids) -> tuple[int, ...]:
    if isinstance(ids, EncodedSequence):
        return ids.ids
    out = tuple(int(i) for i in ids)
    if not out:
        raise ParameterError("cannot run the network on an empty sequence")
    return out


def forward(
    ids,
    params: ParameterSet,
    mode: RunMode = RunMode.INFER,
    rng: Rng | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Embed, run all cell layers over time, dropout (train), head, softmax."""
    config = params.config
    mode = RunMode(mode)
    seq = _as_ids(ids)
    xs = embed(seq, params.arrays["embedding"])

    step = _lstm_step if config.cell is CellType.LSTM else _gru_step
    layer_caches: list[list] = []
    for k in range(config.num_layers):
        layer = params.layer(k)
        caches = []
        state = CellState.zero(config)
        outputs = []
        for x_t in xs:
            state, cache = step(x_t, state, layer)
            caches.append(cache)
            outputs.append(state.h)
        layer_caches.append(caches)
        xs = outputs  # next layer consumes this layer's hidden states

    h_final = xs[-1]
    dropped, dropout_scale = _dropout(h_final, config, mode is RunMode.TRAIN, rng)
    probs = softmax(params.arrays["head.w"] @ dropped + params.arrays["head.b"])
    trace = ForwardTrace(
        ids=seq,
        config=config,
        layer_caches=layer_caches,
        final_hidden=h_final,
        dropout_scale=dropout_scale,
        dropped=dropped,
        probs=probs,
    )
    return probs, trace


def _dropout(h_final: np.ndarray, config: ModelConfig, train: bool, rng: Rng | None):
    """Train-mode inverted dropout: (head input, mask / (1 - p) or None); keeps u >= p."""
    if not train or config.dropout_p == 0.0:
        return h_final, None
    if rng is None:
        raise ParameterError("train-mode forward with dropout needs an rng")
    scale = (rng.uniform(size=h_final.shape) >= config.dropout_p) / (1.0 - config.dropout_p)
    return h_final * scale, scale


def _check_trace(trace: ForwardTrace | BatchTrace, params: ParameterSet) -> None:
    if trace.config != params.config:
        raise StructuralError("trace was produced under a different model configuration")


def backward(
    trace: ForwardTrace,
    true_class: int,
    params: ParameterSet,
) -> dict[str, np.ndarray]:
    """Gradients of L = -log probs[true_class] for every parameter."""
    _check_trace(trace, params)
    if true_class not in (0, 1):
        raise ParameterError(f"true_class must be 0 or 1, got {true_class}")
    config = params.config
    h_units = config.hidden_units
    grads = zero_gradients(config)

    # softmax + cross entropy collapse to probs - onehot
    dlogits = trace.probs.copy()
    dlogits[true_class] -= 1.0

    grads["head.w"] += np.outer(dlogits, trace.dropped)
    grads["head.b"] += dlogits
    dd = params.arrays["head.w"].T @ dlogits
    dh_final = dd if trace.dropout_scale is None else dd * trace.dropout_scale

    # external gradient arriving at each layer's hidden outputs
    steps = len(trace.ids)
    dh_external = [np.zeros(h_units) for _ in range(steps)]
    dh_external[-1] = dh_final

    for k in reversed(range(config.num_layers)):
        layer = params.layer(k)
        caches = trace.layer_caches[k]
        dx_below = [None] * steps
        dh_carry = np.zeros(h_units)
        dc_carry = np.zeros(h_units)
        for t in reversed(range(steps)):
            dh = dh_external[t] + dh_carry
            if config.cell is CellType.LSTM:
                cache: LstmStepCache = caches[t]
                do = dh * cache.tc
                dc = dc_carry + dh * cache.o * (1.0 - cache.tc**2)
                df = dc * cache.c_prev
                di = dc * cache.g
                dg = dc * cache.i
                dc_carry = dc * cache.f
                da_f = df * cache.f * (1.0 - cache.f)
                da_i = di * cache.i * (1.0 - cache.i)
                da_o = do * cache.o * (1.0 - cache.o)
                da_g = dg * (1.0 - cache.g**2)
                grads[f"layer{k}.wf"] += np.outer(da_f, cache.xcat)
                grads[f"layer{k}.bf"] += da_f
                grads[f"layer{k}.wi"] += np.outer(da_i, cache.xcat)
                grads[f"layer{k}.bi"] += da_i
                grads[f"layer{k}.wo"] += np.outer(da_o, cache.xcat)
                grads[f"layer{k}.bo"] += da_o
                grads[f"layer{k}.wc"] += np.outer(da_g, cache.xcat)
                grads[f"layer{k}.bc"] += da_g
                dxcat = (
                    layer["wf"].T @ da_f
                    + layer["wi"].T @ da_i
                    + layer["wo"].T @ da_o
                    + layer["wc"].T @ da_g
                )
                dh_carry = dxcat[:h_units]
                dx_below[t] = dxcat[h_units:]
            else:
                gcache: GruStepCache = caches[t]
                ds = dh * (1.0 - gcache.z)
                dz = dh * (gcache.h_prev - gcache.s)
                dh_prev = dh * gcache.z
                da_s = ds * (1.0 - gcache.s**2)
                grads[f"layer{k}.us"] += np.outer(da_s, gcache.x)
                grads[f"layer{k}.ws"] += np.outer(da_s, gcache.q)
                dx = layer["us"].T @ da_s
                dq = layer["ws"].T @ da_s
                dh_prev += dq * gcache.r
                dr = dq * gcache.h_prev
                da_r = dr * gcache.r * (1.0 - gcache.r)
                grads[f"layer{k}.ur"] += np.outer(da_r, gcache.x)
                grads[f"layer{k}.wr"] += np.outer(da_r, gcache.h_prev)
                dx += layer["ur"].T @ da_r
                dh_prev += layer["wr"].T @ da_r
                da_z = dz * gcache.z * (1.0 - gcache.z)
                grads[f"layer{k}.uz"] += np.outer(da_z, gcache.x)
                grads[f"layer{k}.wz"] += np.outer(da_z, gcache.h_prev)
                dx += layer["uz"].T @ da_z
                dh_prev += layer["wz"].T @ da_z
                dh_carry = dh_prev
                dx_below[t] = dx
        dh_external = dx_below  # becomes the external gradient for layer k-1

    for t, token_id in enumerate(trace.ids):
        grads["embedding"][token_id] += dh_external[t]
    return grads


# --- padded batch path ------------------------------------------------------
#
# The kernel's rows are the batch sorted longest first; the rows still running
# at step t are [:active[t]].  State arrays are time-major, (T, B, ...), over
# these rows.  Per-step gate values and their gradients are packed: step t
# owns rows offsets[t]:offsets[t+1] of a (tokens, ...) array, so no padded
# slot costs a FLOP in the weight-gradient matmuls.


class LayerTape(NamedTuple):
    """One layer's forward values that backward_batch reads (train mode only).

    In hs and cs, a row's entries after its last step stay zero.
    """

    hs: np.ndarray  # (T+1, B, H) hidden states: hs[0] = 0, hs[t+1] after step t
    gates: np.ndarray  # (tokens, S*H) packed sigmoid gates, GRU z|r, LSTM f|i|o
    cands: np.ndarray  # (tokens, H) packed tanh candidates, GRU s, LSTM g
    cs: np.ndarray | None  # LSTM (T+1, B, H) memory cells; None for GRU


@dataclass
class BatchTrace:
    """What one forward_batch call leaves for backward_batch."""

    config: ModelConfig
    order: np.ndarray  # (B,) input row of each kernel row, longest first
    steps: np.ndarray  # (T, B) ids of the kernel rows, time-major
    active: list[int]  # kernel rows [:active[t]] are still running at step t
    layer_caches: list[LayerTape] | None  # train mode only
    final_hidden: np.ndarray  # (B, H) h_T before dropout, input order
    dropout_scale: np.ndarray | None  # (B, H)
    dropped: np.ndarray
    probs: np.ndarray  # (B, 2)


def _gate_arrays(arrays: Mapping[str, np.ndarray], k: int, config: ModelConfig):
    """Per-gate (recurrent, input, bias) arrays of layer k, in gate order.

    An LSTM weight (H, H+N) acts on [h; x], so it splits into the views
    W_h = w[:, :H] and W_x = w[:, H:].  Views copy nothing, so splitting a
    gradient dict the same way gives the arrays to write in place.  GRU
    has no biases.
    """
    h = config.hidden_units
    if config.cell is CellType.LSTM:
        full = [arrays[f"layer{k}.w{g}"] for g in _LSTM_GATES]
        biases = [arrays[f"layer{k}.b{g}"] for g in _LSTM_GATES]
        return [w[:, :h] for w in full], [w[:, h:] for w in full], biases
    return (
        [arrays[f"layer{k}.w{p}"] for p in _GRU_PARTS],
        [arrays[f"layer{k}.u{p}"] for p in _GRU_PARTS],
        None,
    )


def _transposed(ws):
    """W_1^T | W_2^T | ... as one contiguous array (concatenate copies a
    transpose about 8x faster than ascontiguousarray)."""
    return np.concatenate([w.T for w in ws], axis=1)


def _step_inputs(k, below, params, us, biases, steps, active):
    """Yield per step t the input pre-activations of the running rows [:active[t]].

    Layer 0 projects the embedding once into a V x G*H table and gathers
    its rows by id.  A layer above projects the running rows of the layer
    below's outputs (T, B, H) one step at a time.  Train and infer mode
    make the same calls on the same rows: BLAS results for a row can depend
    on the row count of the call, and the two modes must stay bit-identical.
    """
    bias = None if biases is None else np.concatenate(biases)
    if k == 0:
        table = np.concatenate([params.arrays["embedding"] @ u.T for u in us], axis=1)
        if bias is not None:
            table += bias
        for t, n in enumerate(active):
            yield table[steps[t, :n]]
    else:
        ut = _transposed(us)
        for t, n in enumerate(active):
            x = below[t, :n] @ ut
            if bias is not None:
                x += bias
            yield x


def _gru_rows(zr, s, x, hp, wt, out):
    """One GRU step of rows hp (n, H): fills zr (n, 2H) with z|r, s (n, H)
    with s and out with the new h (out may be hp).  wt is (W_z^T | W_r^T, W_s^T)."""
    h = hp.shape[1]
    np.matmul(hp, wt[0], out=zr)
    zr += x[:, : 2 * h]
    sigmoid(zr, out=zr)
    np.matmul(hp * zr[:, h:], wt[1], out=s)
    s += x[:, 2 * h :]
    tanh(s, out=s)
    np.subtract(hp, s, out=out)  # h = s + z * (hp - s)
    out *= zr[:, :h]
    out += s


def _lstm_rows(fio, g, x, hp, cp, wt, h_out, c_out):
    """One LSTM step of rows hp, cp (n, H): fills fio (n, 3H) with f|i|o, g (n, H)
    with g, h_out and c_out (may be hp and cp) with the new h and c.  wt is
    (W_f^T | W_i^T | W_o^T, W_g^T), recurrent parts only."""
    h = hp.shape[1]
    np.matmul(hp, wt[0], out=fio)
    fio += x[:, : 3 * h]
    sigmoid(fio, out=fio)
    np.matmul(hp, wt[1], out=g)
    g += x[:, 3 * h :]
    tanh(g, out=g)
    f, i, o = (fio[:, p * h : (p + 1) * h] for p in range(3))
    np.multiply(f, cp, out=c_out)
    c_out += i * g
    tanh(c_out, out=h_out)
    h_out *= o


def forward_batch(
    sequences: Sequence,
    params: ParameterSet,
    mode: RunMode = RunMode.INFER,
    rng: Rng | None = None,
) -> tuple[np.ndarray, BatchTrace]:
    """Batched forward pass; finished rows keep their final state.

    Train mode records a LayerTape per layer for backward_batch.  Infer
    mode keeps only the running h (and c), plus the hidden states of a
    layer that another layer reads.
    """
    config = params.config
    mode = RunMode(mode)
    seqs = [_as_ids(s) for s in sequences]
    if not seqs:
        raise ParameterError("cannot build an empty batch")
    batch = len(seqs)
    lengths = np.array([len(s) for s in seqs])
    t_max = int(lengths.max())
    order = np.argsort(-lengths, kind="stable")
    steps = np.zeros((t_max, batch), dtype=np.int64)  # PAD = 0 after a row ends
    for b, row in enumerate(order):
        steps[: lengths[row], b] = seqs[row]
    for extreme in (steps.min(), steps.max()):
        if not 0 <= extreme < config.vocab_size:
            raise StructuralError(
                f"id {extreme} outside embedding table with {config.vocab_size} rows"
            )
    h_units = config.hidden_units
    active = (batch - np.cumsum(np.bincount(lengths))[:t_max]).tolist()
    offsets = np.cumsum([0] + active).tolist()

    train = mode is RunMode.TRAIN
    gru = config.cell is CellType.GRU
    tapes: list[LayerTape] | None = [] if train else None
    below = None
    for k in range(config.num_layers):
        ws, us, biases = _gate_arrays(params.arrays, k, config)
        wt = (_transposed(ws[:-1]), _transposed(ws[-1:]))  # the last gate is the candidate
        keep_hs = train or k < config.num_layers - 1  # backward or the next layer reads hs
        hs = np.zeros((t_max + 1 if keep_hs else 1, batch, h_units))
        rows = offsets[-1] if train else batch
        gates, cands = np.empty((rows, (len(ws) - 1) * h_units)), np.empty((rows, h_units))
        cs = None if gru else np.zeros((t_max + 1 if train else 1, batch, h_units))
        inputs = _step_inputs(k, below, params, us, biases, steps, active)
        for t, (n, x) in enumerate(zip(active, inputs)):
            i, j = (t, t + 1) if keep_hs else (0, 0)
            r = slice(offsets[t], offsets[t] + n) if train else slice(n)
            if gru:
                _gru_rows(gates[r], cands[r], x, hs[i, :n], wt, hs[j, :n])
            else:
                ci, cj = (t, t + 1) if train else (0, 0)
                _lstm_rows(gates[r], cands[r], x, hs[i, :n], cs[ci, :n], wt, hs[j, :n], cs[cj, :n])
        if train:
            tapes.append(LayerTape(hs, gates, cands, cs))
        below = hs[1:]

    h_final = np.empty((batch, h_units))  # from the top layer's hs
    h_final[order] = hs[lengths[order], np.arange(batch)] if keep_hs else hs[0]
    dropped, dropout_scale = _dropout(h_final, config, train, rng)
    probs = softmax(dropped @ params.arrays["head.w"].T + params.arrays["head.b"])
    trace = BatchTrace(
        config=config,
        order=order,
        steps=steps,
        active=active,
        layer_caches=tapes,
        final_hidden=h_final,
        dropout_scale=dropout_scale,
        dropped=dropped,
        probs=probs,
    )
    return probs, trace


def _gru_rows_back(d_zr, da_s, dh, zr, s, hp, ws):
    """Backward of one GRU step: fills d_zr (n, 2H) and da_s (n, H) with the
    pre-activation gradients of z|r and s, returns dh_prev."""
    h = hp.shape[1]
    dhz = dh * zr[:, :h]
    np.multiply(dh - dhz, 1.0 - s * s, out=da_s)
    dq = da_s @ ws[2]
    np.multiply(1.0 - zr, zr, out=d_zr)
    d_zr *= np.concatenate([dh * (hp - s), dq * hp], axis=1)
    dh_prev = d_zr[:, :h] @ ws[0]
    dh_prev += d_zr[:, h:] @ ws[1]
    dh_prev += dhz
    dh_prev += dq * zr[:, h:]
    return dh_prev


def _lstm_rows_back(d_fio, da_g, dh, dc, fio, g, cp, tc, ws):
    """Backward of one LSTM step: fills d_fio (n, 3H) and da_g (n, H) with
    the pre-activation gradients of f|i|o and g, turns dc into dc_prev in
    place, returns dh_prev."""
    h = dh.shape[1]
    f, i, o = (fio[:, p * h : (p + 1) * h] for p in range(3))
    dc += dh * o * (1.0 - tc * tc)
    np.multiply(1.0 - fio, fio, out=d_fio)
    d_fio *= np.concatenate([dc * cp, dc * g, dh * tc], axis=1)
    np.multiply(dc * i, 1.0 - g * g, out=da_g)
    dh_prev = da_g @ ws[3]
    for p in range(3):
        dh_prev += d_fio[:, p * h : (p + 1) * h] @ ws[p]
    dc *= f
    return dh_prev


def backward_batch(
    trace: BatchTrace,
    true_classes: Sequence[int],
    params: ParameterSet,
    out: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Sum of per-sequence gradients over the batch (caller averages).

    `out`, the result of an earlier call under the same configuration, is
    zeroed and filled instead of allocating new gradients.

    The time loop does only the recurrent dh (and dc) products.  It stores
    every step's pre-activation gradients packed like the tape's gates and
    candidates, and each weight gradient is then one matmul over all tokens.
    At layer 0 the gradient of gate p's input table, dTable_p =
    onehot(ids)^T . da_p, gives dU_p = dTable_p^T . E and dE = sum_p dTable_p . U_p.
    """
    _check_trace(trace, params)
    if trace.layer_caches is None:
        raise StructuralError(
            "backward_batch needs a train-mode trace; forward_batch keeps no caches in infer mode"
        )
    config = params.config
    batch = len(trace.order)
    classes = np.asarray(list(true_classes), dtype=np.int64)
    if classes.shape != (batch,):
        raise StructuralError(f"expected {batch} labels, got {classes.shape}")
    if not np.isin(classes, (0, 1)).all():
        raise ParameterError("labels must be 0 or 1")
    h_units = config.hidden_units
    grads = zero_gradients(config) if out is None else out
    if out is not None:
        for g in out.values():
            g.fill(0.0)

    dlogits = trace.probs.copy()
    dlogits[np.arange(batch), classes] -= 1.0

    grads["head.w"] += dlogits.T @ trace.dropped
    grads["head.b"] += dlogits.sum(axis=0)
    dd = dlogits @ params.arrays["head.w"]
    dh_final = dd if trace.dropout_scale is None else dd * trace.dropout_scale

    steps, active = trace.steps, trace.active
    t_max = steps.shape[0]
    offsets = np.cumsum([0] + active).tolist()
    # (t, b) slots of the running rows, flat over (T, B), in packed order
    live = np.flatnonzero(np.arange(batch) < np.array(active)[:, None])
    gru = config.cell is CellType.GRU
    d_out = None  # (tokens, H) packed gradient reaching layer k's outputs from layer k+1
    for k in reversed(range(config.num_layers)):
        tape = trace.layer_caches[k]
        ws, us, _ = _gate_arrays(params.arrays, k, config)
        gws, gus, gbs = _gate_arrays(grads, k, config)
        d_gates, d_cands = np.empty_like(tape.gates), np.empty_like(tape.cands)
        dh = dh_final[trace.order] if d_out is None else np.zeros((batch, h_units))
        dc = np.zeros((batch, h_units))
        tcs = None if gru else tanh(tape.cs[1:])
        for t in reversed(range(t_max)):
            n = active[t]
            rows = slice(offsets[t], offsets[t] + n)
            dh_t = dh[:n] if d_out is None else dh[:n] + d_out[rows]
            d_step, cached = (d_gates[rows], d_cands[rows]), (tape.gates[rows], tape.cands[rows])
            if gru:
                dh[:n] = _gru_rows_back(*d_step, dh_t, *cached, tape.hs[t, :n], ws)
            else:
                dh[:n] = _lstm_rows_back(
                    *d_step, dh_t, dc[:n], *cached, tape.cs[t, :n], tcs[t, :n], ws
                )

        parts = [d_gates[:, p * h_units : (p + 1) * h_units] for p in range(len(ws) - 1)]
        parts.append(d_cands)
        h_prev = tape.hs[:-1].reshape(-1, h_units)[live]
        if gru:  # W_s multiplies q = h_prev * r
            recurrent_inputs = [h_prev, h_prev, h_prev * tape.gates[:, h_units : 2 * h_units]]
        else:
            recurrent_inputs = [h_prev] * 4
            for gb, part in zip(gbs, parts):
                part.sum(axis=0, out=gb)
        for gw, part, x in zip(gws, parts, recurrent_inputs):
            np.matmul(part.T, x, out=gw)

        if k == 0:
            embedding = params.arrays["embedding"]
            ids = steps.reshape(-1)[live]
            onehot = (ids == np.arange(config.vocab_size)[:, None]).astype(np.float64)
            for u, gu, part in zip(us, gus, parts):
                d_part = onehot @ part
                np.matmul(d_part.T, embedding, out=gu)
                grads["embedding"] += d_part @ u
        else:
            x = trace.layer_caches[k - 1].hs[1:].reshape(-1, h_units)[live]
            for gu, part in zip(gus, parts):
                np.matmul(part.T, x, out=gu)
            d_out = sum(part @ u for part, u in zip(parts, us))
    return grads
