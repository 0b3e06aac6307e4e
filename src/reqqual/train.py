"""Training loop: cross-entropy loss, Adam, gradient clipping, loss curves.

Everything stochastic (initialization, epoch shuffling, dropout masks)
draws from one seeded generator in a fixed order, so a fit is a pure
function of (data, configs, seed) and two runs produce bit-identical
parameters and loss curves.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError, TrainingError
from .numcore import Rng, row_halves, run_split
from .nn import (
    ModelConfig,
    ParameterSet,
    RunMode,
    backward,
    backward_batch,
    classify,
    forward,
    forward_batch,
    zero_gradients,
)
from .textpipe import EncodedSequence, write_csv

PROB_FLOOR = 1e-12  # keeps -log finite on saturated mispredictions
FD_STEP = 1e-6  # central-difference step of the gradient check

# Adam at the defaults of Kingma & Ba (arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# Elements per block of adam_update.  Median ms of one steady Adam step at
# the appropriate preset (9.4 M parameters, 2 CPUs, 1 BLAS thread), over two
# rounds: 8 192: 88-95, 16 384: 59-60, 32 768: 50, 65 536: 46-49, 131 072:
# 50-53.  32 768 ties 65 536 within the noise with half the scratch.
ADAM_SLICE = 32_768


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int = 32
    clip_norm: float | None = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("learning_rate", "clip_norm"):
            value = getattr(self, name)
            if name == "clip_norm" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                0 < value < math.inf
            ):
                raise ParameterError(f"{name} must be a finite positive number, got {value!r}")


def loss(probs, true_class: int) -> float:
    """Binary cross entropy against the softmax output, floored at 1e-12."""
    if true_class not in (0, 1):
        raise ParameterError(f"true_class must be 0 or 1, got {true_class}")
    return -math.log(max(float(probs[true_class]), PROB_FLOOR))


def _block_rows(shape: tuple[int, ...]) -> int:
    """Rows per block of adam_update: whole rows, about ADAM_SLICE elements."""
    return max(1, ADAM_SLICE // math.prod(shape[1:]))


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    # one block of temporaries per part of row_halves; the first update
    # allocates them, so each fit's state owns its own
    scratch: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def zeros(cls, config: ModelConfig) -> "AdamState":
        return cls(m=zero_gradients(config), v=zero_gradients(config))


def adam_update(
    params: ParameterSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[ParameterSet, AdamState]:
    """One Adam step with bias correction, applied in place; a non-finite
    gradient raises before any parameter changes.

    The bias corrections are folded into the step size and epsilon (Kingma
    & Ba, arXiv:1412.6980, section 2): with c1 = 1 - beta1^t and
    c2 = 1 - beta2^t, theta -= lr*sqrt(c2)/c1 * m / (sqrt(v) + eps*sqrt(c2)).
    That equals lr * (m/c1) / (sqrt(v/c2) + eps) up to rounding, and costs
    one sqrt and one divide per element instead of three divides.

    Each tensor goes in blocks of whole rows, about ADAM_SLICE elements,
    whose temporaries live in the state's scratch, so the update copies no
    tensor.  Large parameter sets go as two halves of every tensor's rows
    (numcore.row_halves), each with its own scratch block; the update is
    elementwise, so that changes no bit.
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    t_hat = state.t + 1
    parts = row_halves(params.arrays)

    def non_finite(part):
        return {name for name, rows in part if not np.isfinite(grads[name][rows]).all()}

    bad = set().union(*run_split(non_finite, parts))
    for name in params.arrays:
        if name in bad:
            raise TrainingError(f"non-finite gradient for parameter {name!r}")

    if not state.scratch:
        size = max(min(_block_rows(a.shape), len(a)) * math.prod(a.shape[1:])
                   for a in params.arrays.values())
        state.scratch = [np.empty(size) for _ in parts]
    c2_root = math.sqrt(1.0 - b2**t_hat)
    step_size = cfg.learning_rate * c2_root / (1.0 - b1**t_hat)
    eps_hat = ADAM_EPSILON * c2_root

    def update(part_scratch):
        part, scratch = part_scratch
        for name, rows in part:
            arr, g = params.arrays[name][rows], grads[name][rows]
            m_rows, v_rows = state.m[name][rows], state.v[name][rows]
            step = _block_rows(arr.shape)
            for lo in range(0, len(arr), step):
                block = slice(lo, lo + step)
                gs, m, v, a = g[block], m_rows[block], v_rows[block], arr[block]
                s = scratch[:gs.size].reshape(gs.shape)
                np.multiply(gs, 1.0 - b1, out=s)
                m *= b1
                m += s
                np.multiply(gs, 1.0 - b2, out=s)
                s *= gs
                v *= b2
                v += s
                np.sqrt(v, out=s)
                s += eps_hat
                np.divide(m, s, out=s)
                s *= step_size
                a -= s

    run_split(update, list(zip(parts, state.scratch)))
    state.t = t_hat
    return params, state


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    """The global L2 norm: one BLAS dot per tensor, so no squared copy of
    any tensor is written."""
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))


def _scale_gradients(grads: dict[str, np.ndarray], ufunc, value: float) -> None:
    """Apply `g = ufunc(g, value)` in place to every gradient, in row halves
    when they are large (numcore.row_halves)."""
    def apply(part):
        for name, rows in part:
            g = grads[name][rows]
            ufunc(g, value, out=g)

    run_split(apply, row_halves(grads))


def clip_gradients(grads: dict[str, np.ndarray], clip_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients down to a global L2 norm of clip_norm; no-op below it."""
    if clip_norm <= 0:
        raise ParameterError(f"clip_norm must be positive, got {clip_norm}")
    norm = gradient_norm(grads)
    if norm > clip_norm:
        _scale_gradients(grads, np.multiply, clip_norm / norm)
    return grads


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float | None
    train_acc: float


@dataclass
class LossCurve:
    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        if not math.isfinite(record.train_loss):
            raise TrainingError(f"non-finite epoch loss at epoch {record.epoch}")
        self.records.append(record)

    def final(self) -> EpochRecord:
        if not self.records:
            raise ParameterError("loss curve is empty")
        return self.records[-1]

    def save_csv(self, path: str | Path) -> None:
        rows = [["epoch", "train_loss", "val_loss", "train_acc"]]
        for rec in self.records:
            values = (rec.train_loss, rec.val_loss, rec.train_acc)
            rows.append([str(rec.epoch)] + ["" if v is None else format(v, ".17g") for v in values])
        write_csv(path, rows)


LabeledSequence = tuple[Sequence[int], int]


def _validate_data(data, what: str) -> list[tuple[EncodedSequence | tuple[int, ...], int]]:
    if not data:
        raise ParameterError(f"{what} set must be non-empty")
    out = []
    for ids, label in data:
        if not isinstance(ids, EncodedSequence):  # kept as is: forward_batch reads its ids
            ids = tuple(int(i) for i in ids)
            if not ids:
                raise ParameterError(f"{what} set contains an empty sequence")
        if label not in (0, 1):
            raise ParameterError(f"{what} label must be 0 or 1, got {label}")
        out.append((ids, int(label)))
    return out


def _cross_entropy(probs: np.ndarray, labels: Sequence[int]) -> np.ndarray:
    """Per-row `loss` of a (B, 2) batch of softmax outputs."""
    return -np.log(np.maximum(probs[np.arange(len(labels)), labels], PROB_FLOOR))


def fit(
    train_data: Sequence[LabeledSequence],
    model_config: ModelConfig,
    train_config: TrainConfig,
    validation: Sequence[LabeledSequence] | None = None,
) -> tuple[ParameterSet, LossCurve]:
    """Train a fresh model; returns final parameters and the per-epoch curve.

    Consumes the seeded generator in a fixed order: parameter
    initialization, then per epoch one shuffle permutation, then one
    dropout draw per batch.
    """
    data = _validate_data(train_data, "training")
    val = _validate_data(validation, "validation") if validation is not None else None

    rng = Rng(train_config.seed)
    params = ParameterSet.initialize(model_config, rng)
    state = AdamState.zeros(model_config)
    curve = LossCurve()
    n = len(data)
    batch_count = (n + train_config.batch_size - 1) // train_config.batch_size
    grads = None  # one set per fit; one per batch cost ~2 MB of page faults a batch

    for epoch in range(1, train_config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        correct = 0
        for b in range(batch_count):
            picks = order[b * train_config.batch_size : (b + 1) * train_config.batch_size]
            seqs = [data[i][0] for i in picks]
            labels = [data[i][1] for i in picks]
            probs, trace = forward_batch(seqs, params, mode=RunMode.TRAIN, rng=rng)
            losses = _cross_entropy(probs, labels)
            grads = backward_batch(trace, labels, params, out=grads)
            del trace  # free the per-step caches before the next batch builds its own
            if not np.isfinite(losses).all():
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b + 1} of {batch_count}"
                )
            _scale_gradients(grads, np.true_divide, len(seqs))  # the mean over sequences
            if train_config.clip_norm is not None:
                clip_gradients(grads, train_config.clip_norm)
            adam_update(params, grads, state, train_config)
            loss_sum += float(losses.sum())
            correct += sum(p == y for p, y in zip(classify(probs), labels))
        val_loss = None if val is None else float(np.mean(_cross_entropy(
            forward_batch([ids for ids, _ in val], params)[0], [y for _, y in val]
        )))
        curve.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / n,
                val_loss=val_loss,
                train_acc=correct / n,
            )
        )
    return params, curve


# --- finite-difference gradient checking -------------------------------------

@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    tolerance: float
    max_rel_error: float
    worst_param: str
    per_param: dict[str, float]

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max relative error {self.max_rel_error:.3e} "
            f"(worst {self.worst_param}, tolerance {self.tolerance:g})"
        )


def finite_difference_gradients(
    params: ParameterSet, ids: Sequence[int], true_class: int
) -> dict[str, np.ndarray]:
    """Central differences of the cross-entropy loss for every element."""
    numeric = {}
    for name, arr in params.arrays.items():
        grad = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_STEP
            plus, _ = forward(ids, params)
            flat[j] = orig - FD_STEP
            minus, _ = forward(ids, params)
            flat[j] = orig
            gflat[j] = (loss(plus, true_class) - loss(minus, true_class)) / (2.0 * FD_STEP)
        numeric[name] = grad
    return numeric


def compare_gradients(
    analytic: dict[str, np.ndarray],
    numeric: dict[str, np.ndarray],
    tolerance: float,
) -> GradCheckReport:
    """Elementwise relative error, ignoring differences below 1e-8 absolute."""
    per_param: dict[str, float] = {}
    worst_param = ""
    worst = 0.0
    for name in analytic:
        a = analytic[name].reshape(-1)
        n = numeric[name].reshape(-1)
        diff = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        rel = np.where(diff <= 1e-8, 0.0, diff / np.where(scale == 0.0, 1.0, scale))
        local = float(rel.max()) if rel.size else 0.0
        per_param[name] = local
        if local >= worst:
            worst = local
            worst_param = name
    return GradCheckReport(
        passed=worst <= tolerance,
        tolerance=tolerance,
        max_rel_error=worst,
        worst_param=worst_param,
        per_param=per_param,
    )


def gradient_check(
    config: ModelConfig,
    seed: int,
    tolerance: float = 1e-5,
    sequence_length: int = 3,
) -> GradCheckReport:
    """Analytic BPTT vs central finite differences on a random instance."""
    if config.dropout_p != 0.0:
        raise ParameterError("gradient_check requires dropout_p = 0 (deterministic loss)")
    if sequence_length < 1:
        raise ParameterError("sequence_length must be >= 1")
    if not 0 <= tolerance < math.inf:
        raise ParameterError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    rng = Rng(seed)
    params = ParameterSet.initialize(config, rng)
    data_rng = Rng(seed, stream=1)
    ids = [int(i) for i in data_rng.integers(1, config.vocab_size, size=sequence_length)]
    true_class = int(data_rng.integers(0, 2))
    _, trace = forward(ids, params)
    analytic = backward(trace, true_class, params)
    numeric = finite_difference_gradients(params, ids, true_class)
    return compare_gradients(analytic, numeric, tolerance)
