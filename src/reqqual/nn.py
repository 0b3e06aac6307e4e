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

Training and inference run the padded batch path, which right-pads with
PAD=0 and freezes finished rows via masking.  The per-sequence path is
the readable reference: the tests and gradient checks hold the batch
path to it within 1e-10.
"""

from __future__ import annotations

import enum
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
        object.__setattr__(self, "cell", CellType(self.cell))
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

    def layer_input_dim(self, layer: int) -> int:
        return self.embedding_dim if layer == 0 else self.hidden_units


_LSTM_GATES = ("f", "i", "o", "c")
_GRU_PARTS = ("z", "r", "s")


def parameter_manifest(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; fixes initialization, update, and file order."""
    h = config.hidden_units
    specs: list[tuple[str, tuple[int, ...]]] = [
        ("embedding", (config.vocab_size, config.embedding_dim))
    ]
    for k in range(config.num_layers):
        d = config.layer_input_dim(k)
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
        arrays: dict[str, np.ndarray] = {}
        for name, shape in parameter_manifest(config):
            if len(shape) == 2:
                arrays[name] = glorot_uniform(shape[0], shape[1], rng)
            elif name.endswith(".bf"):
                arrays[name] = np.ones(shape)
            else:
                arrays[name] = np.zeros(shape)
        return cls(config=config, arrays=arrays)

    @classmethod
    def zeros(cls, config: ModelConfig) -> "ParameterSet":
        arrays = {name: np.zeros(shape) for name, shape in parameter_manifest(config)}
        return cls(config=config, arrays=arrays)

    def named_arrays(self):
        return list(self.arrays.items())

    def layer(self, k: int) -> dict[str, np.ndarray]:
        prefix = f"layer{k}."
        return {n[len(prefix):]: a for n, a in self.arrays.items() if n.startswith(prefix)}


def classify(probs) -> int:
    """Argmax over the two class probabilities; an exact tie goes to class 0."""
    return 0 if float(probs[0]) >= float(probs[1]) else 1


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
    c: np.ndarray
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
    return CellState(h=h, c=c), LstmStepCache(xcat, f, i, o, g, state.c, c, tc)


def _gru_step(x_t, h_prev, layer: Mapping[str, np.ndarray]):
    z = sigmoid(layer["uz"] @ x_t + layer["wz"] @ h_prev)
    r = sigmoid(layer["ur"] @ x_t + layer["wr"] @ h_prev)
    q = h_prev * r
    s = tanh(layer["us"] @ x_t + layer["ws"] @ q)
    h = (1.0 - z) * s + z * h_prev
    return h, GruStepCache(np.asarray(x_t, dtype=np.float64), h_prev, z, r, q, s)


def lstm_step(x_t, state: CellState, layer: Mapping[str, np.ndarray]) -> CellState:
    """One LSTM update; see the module docstring for the exact rules."""
    new_state, _ = _lstm_step(np.asarray(x_t, dtype=np.float64), state, layer)
    return new_state


def gru_step(x_t, h_prev, layer: Mapping[str, np.ndarray]) -> np.ndarray:
    """One GRU update; note W_s multiplies (h_prev * r), and there are no biases."""
    h, _ = _gru_step(np.asarray(x_t, dtype=np.float64), np.asarray(h_prev, dtype=np.float64), layer)
    return h


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
    mode: RunMode
    layer_caches: list[list]  # [layer][t] -> LstmStepCache | GruStepCache
    final_hidden: np.ndarray  # h_T before dropout
    dropout_scale: np.ndarray | None  # mask / (1 - p); None when inactive
    dropped: np.ndarray  # head input
    logits: np.ndarray
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

    layer_caches: list[list] = []
    for k in range(config.num_layers):
        layer = params.layer(k)
        caches = []
        state = CellState.zero(config)
        outputs = []
        for x_t in xs:
            if config.cell is CellType.LSTM:
                state, cache = _lstm_step(x_t, state, layer)
            else:
                h, cache = _gru_step(x_t, state.h, layer)
                state = CellState(h=h)
            caches.append(cache)
            outputs.append(state.h)
        layer_caches.append(caches)
        xs = outputs  # next layer consumes this layer's hidden states

    h_final = xs[-1]
    dropout_scale = None
    dropped = h_final
    if mode is RunMode.TRAIN and config.dropout_p > 0.0:
        if rng is None:
            raise ParameterError("train-mode forward with dropout needs an rng")
        keep = 1.0 - config.dropout_p
        mask = (rng.uniform(size=config.hidden_units) >= config.dropout_p).astype(np.float64)
        dropout_scale = mask / keep
        dropped = h_final * dropout_scale

    logits = params.arrays["head.w"] @ dropped + params.arrays["head.b"]
    probs = softmax(logits)
    trace = ForwardTrace(
        ids=seq,
        config=config,
        mode=mode,
        layer_caches=layer_caches,
        final_hidden=h_final,
        dropout_scale=dropout_scale,
        dropped=dropped,
        logits=logits,
        probs=probs,
    )
    return probs, trace


def _check_trace(trace: ForwardTrace, params: ParameterSet) -> None:
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

@dataclass
class BatchTrace:
    """Batched analogue of ForwardTrace over right-padded sequences."""

    ids: np.ndarray  # (B, T) int64, PAD = 0 on the right
    mask: np.ndarray  # (B, T) float64, 1.0 while the row is still active
    config: ModelConfig
    mode: RunMode
    layer_caches: list[list]
    final_hidden: np.ndarray  # (B, H)
    dropout_scale: np.ndarray | None  # (B, H)
    dropped: np.ndarray
    logits: np.ndarray
    probs: np.ndarray  # (B, 2)


class LstmBatchCache(NamedTuple):
    xcat: np.ndarray
    f: np.ndarray
    i: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c_prev: np.ndarray
    c_new: np.ndarray
    tc_new: np.ndarray
    h_prev: np.ndarray
    m: np.ndarray  # (B, 1) activity mask at this step


class GruBatchCache(NamedTuple):
    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    q: np.ndarray
    s: np.ndarray
    m: np.ndarray


def pad_batch(sequences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad with PAD=0; returns (ids (B,T), mask (B,T))."""
    if not sequences:
        raise ParameterError("cannot build an empty batch")
    lengths = [len(s) for s in sequences]
    if min(lengths) == 0:
        raise ParameterError("cannot batch an empty sequence")
    t_max = max(lengths)
    ids = np.zeros((len(sequences), t_max), dtype=np.int64)
    mask = np.zeros((len(sequences), t_max))
    for b, seq in enumerate(sequences):
        ids[b, : len(seq)] = [int(i) for i in seq]
        mask[b, : len(seq)] = 1.0
    return ids, mask


def forward_batch(
    sequences: Sequence,
    params: ParameterSet,
    mode: RunMode = RunMode.INFER,
    rng: Rng | None = None,
) -> tuple[np.ndarray, BatchTrace]:
    """Batched forward pass; finished rows keep their final state frozen."""
    config = params.config
    mode = RunMode(mode)
    seqs = [_as_ids(s) for s in sequences]
    ids, mask = pad_batch(seqs)
    for extreme in (ids.min(), ids.max()):
        if not 0 <= extreme < config.vocab_size:
            raise StructuralError(
                f"id {extreme} outside embedding table with {config.vocab_size} rows"
            )
    batch, t_max = ids.shape
    h_units = config.hidden_units

    xs = params.arrays["embedding"][ids]  # (B, T, N)
    layer_caches: list[list] = []
    for k in range(config.num_layers):
        layer = params.layer(k)
        caches = []
        h = np.zeros((batch, h_units))
        c = np.zeros((batch, h_units))
        outputs = np.zeros((batch, t_max, h_units))
        for t in range(t_max):
            x_t = xs[:, t, :]
            m = mask[:, t : t + 1]
            if config.cell is CellType.LSTM:
                xcat = np.concatenate([h, x_t], axis=1)
                f = sigmoid(xcat @ layer["wf"].T + layer["bf"])
                i = sigmoid(xcat @ layer["wi"].T + layer["bi"])
                o = sigmoid(xcat @ layer["wo"].T + layer["bo"])
                g = tanh(xcat @ layer["wc"].T + layer["bc"])
                c_new = f * c + i * g
                tc_new = tanh(c_new)
                h_new = o * tc_new
                caches.append(LstmBatchCache(xcat, f, i, o, g, c, c_new, tc_new, h, m))
                c = m * c_new + (1.0 - m) * c
                h = m * h_new + (1.0 - m) * h
            else:
                z = sigmoid(x_t @ layer["uz"].T + h @ layer["wz"].T)
                r = sigmoid(x_t @ layer["ur"].T + h @ layer["wr"].T)
                q = h * r
                s = tanh(x_t @ layer["us"].T + q @ layer["ws"].T)
                h_new = (1.0 - z) * s + z * h
                caches.append(GruBatchCache(x_t, h, z, r, q, s, m))
                h = m * h_new + (1.0 - m) * h
            outputs[:, t, :] = h
        layer_caches.append(caches)
        xs = outputs

    h_final = xs[:, -1, :].copy()
    dropout_scale = None
    dropped = h_final
    if mode is RunMode.TRAIN and config.dropout_p > 0.0:
        if rng is None:
            raise ParameterError("train-mode forward with dropout needs an rng")
        keep = 1.0 - config.dropout_p
        masks = (rng.uniform(size=(batch, h_units)) >= config.dropout_p).astype(np.float64)
        dropout_scale = masks / keep
        dropped = h_final * dropout_scale

    logits = dropped @ params.arrays["head.w"].T + params.arrays["head.b"]
    probs = softmax(logits)
    trace = BatchTrace(
        ids=ids,
        mask=mask,
        config=config,
        mode=mode,
        layer_caches=layer_caches,
        final_hidden=h_final,
        dropout_scale=dropout_scale,
        dropped=dropped,
        logits=logits,
        probs=probs,
    )
    return probs, trace


def backward_batch(
    trace: BatchTrace,
    true_classes: Sequence[int],
    params: ParameterSet,
) -> dict[str, np.ndarray]:
    """Sum of per-sequence gradients over the batch (caller averages)."""
    if trace.config != params.config:
        raise StructuralError("trace was produced under a different model configuration")
    config = params.config
    batch, t_max = trace.ids.shape
    classes = np.asarray(list(true_classes), dtype=np.int64)
    if classes.shape != (batch,):
        raise StructuralError(f"expected {batch} labels, got {classes.shape}")
    if not np.isin(classes, (0, 1)).all():
        raise ParameterError("labels must be 0 or 1")
    h_units = config.hidden_units
    grads = zero_gradients(config)

    dlogits = trace.probs.copy()
    dlogits[np.arange(batch), classes] -= 1.0

    grads["head.w"] += dlogits.T @ trace.dropped
    grads["head.b"] += dlogits.sum(axis=0)
    dd = dlogits @ params.arrays["head.w"]
    dh_final = dd if trace.dropout_scale is None else dd * trace.dropout_scale

    dh_external = np.zeros((batch, t_max, h_units))
    dh_external[:, -1, :] = dh_final

    for k in reversed(range(config.num_layers)):
        layer = params.layer(k)
        caches = trace.layer_caches[k]
        dx_below = np.zeros((batch, t_max, config.layer_input_dim(k)))
        dh_carry = np.zeros((batch, h_units))
        dc_carry = np.zeros((batch, h_units))
        for t in reversed(range(t_max)):
            dh = dh_external[:, t, :] + dh_carry
            if config.cell is CellType.LSTM:
                cache: LstmBatchCache = caches[t]
                m = cache.m
                dh_active = dh * m
                dc_active = dc_carry * m
                do = dh_active * cache.tc_new
                dc_new = dc_active + dh_active * cache.o * (1.0 - cache.tc_new**2)
                df = dc_new * cache.c_prev
                di = dc_new * cache.g
                dg = dc_new * cache.i
                dc_carry = dc_new * cache.f + dc_carry * (1.0 - m)
                da_f = df * cache.f * (1.0 - cache.f)
                da_i = di * cache.i * (1.0 - cache.i)
                da_o = do * cache.o * (1.0 - cache.o)
                da_g = dg * (1.0 - cache.g**2)
                grads[f"layer{k}.wf"] += da_f.T @ cache.xcat
                grads[f"layer{k}.bf"] += da_f.sum(axis=0)
                grads[f"layer{k}.wi"] += da_i.T @ cache.xcat
                grads[f"layer{k}.bi"] += da_i.sum(axis=0)
                grads[f"layer{k}.wo"] += da_o.T @ cache.xcat
                grads[f"layer{k}.bo"] += da_o.sum(axis=0)
                grads[f"layer{k}.wc"] += da_g.T @ cache.xcat
                grads[f"layer{k}.bc"] += da_g.sum(axis=0)
                dxcat = da_f @ layer["wf"] + da_i @ layer["wi"] + da_o @ layer["wo"] + da_g @ layer["wc"]
                dh_carry = dxcat[:, :h_units] + dh * (1.0 - m)
                dx_below[:, t, :] = dxcat[:, h_units:]
            else:
                gcache: GruBatchCache = caches[t]
                m = gcache.m
                dh_active = dh * m
                ds = dh_active * (1.0 - gcache.z)
                dz = dh_active * (gcache.h_prev - gcache.s)
                dh_prev = dh_active * gcache.z + dh * (1.0 - m)
                da_s = ds * (1.0 - gcache.s**2)
                grads[f"layer{k}.us"] += da_s.T @ gcache.x
                grads[f"layer{k}.ws"] += da_s.T @ gcache.q
                dx = da_s @ layer["us"]
                dq = da_s @ layer["ws"]
                dh_prev += dq * gcache.r
                dr = dq * gcache.h_prev
                da_r = dr * gcache.r * (1.0 - gcache.r)
                grads[f"layer{k}.ur"] += da_r.T @ gcache.x
                grads[f"layer{k}.wr"] += da_r.T @ gcache.h_prev
                dx += da_r @ layer["ur"]
                dh_prev += da_r @ layer["wr"]
                da_z = dz * gcache.z * (1.0 - gcache.z)
                grads[f"layer{k}.uz"] += da_z.T @ gcache.x
                grads[f"layer{k}.wz"] += da_z.T @ gcache.h_prev
                dx += da_z @ layer["uz"]
                dh_prev += da_z @ layer["wz"]
                dh_carry = dh_prev
                dx_below[:, t, :] = dx
        dh_external = dx_below

    flat_ids = trace.ids.reshape(-1)
    flat_dx = dh_external.reshape(-1, config.embedding_dim)
    active = trace.mask.reshape(-1) > 0.0
    np.add.at(grads["embedding"], flat_ids[active], flat_dx[active])
    return grads
