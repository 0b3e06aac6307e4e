"""Hyperparameter search over the training grid.

The default ``SearchSpace`` is the full factored grid this library was
tuned over: 7 epoch counts x 3 learning rates x 4 embedding sizes x
2 depths x 4 widths x 3 dropout rates x 2 cell types = 4032 candidates.
Optimizer and loss are fixed (Adam, cross entropy on two classes).

Two modes: ``exhaustive`` walks the whole grid in lexicographic order;
``random`` samples a budget of candidates without replacement.  Each
trial trains and scores one candidate, either by k-fold cross-validation
or a single holdout split.  Everything is deterministic given the seed,
and each trial derives its randomness from its own stream (stream id =
trial index), so trials run in parallel without changing results: every
(trial, fold) fit is one job of one ``evaluation.run_fits`` call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .corpus import Dataset, PropertyName, holdout_split, make_folds
from .errors import ParameterError, StructuralError
from .evaluation import (
    METRIC_NAMES,
    CvResult,
    HoldoutResult,
    _cv_jobs,
    _cv_result,
    _holdout_job,
    _holdout_result,
    aggregate_metrics,
    check_jobs,
    encode_labeled,
    run_fits,
)
from .nn import CellType, ModelConfig
from .numcore import Rng
from .textpipe import TaggerMode, read_json, write_csv, write_json
from .train import TrainConfig

FIXED_OPTIMIZER = "adam"
FIXED_LOSS = "cross-entropy"

# stream used to draw the random-mode candidate sample; far above any
# trial index so trial streams never collide with it
_SAMPLER_STREAM = 1 << 32


@dataclass(frozen=True)
class Candidate:
    """One point of the grid; valid when its model and training configs build."""

    cell: CellType
    epochs: int
    learning_rate: float
    embedding_dim: int
    num_layers: int
    num_units: int
    dropout: float

    def __post_init__(self):
        object.__setattr__(self, "cell", self.model_config(vocab_size=3).cell)
        self.train_config(seed=0)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            cell=self.cell,
            vocab_size=vocab_size,
            embedding_dim=self.embedding_dim,
            hidden_units=self.num_units,
            num_layers=self.num_layers,
            dropout_p=self.dropout,
        )

    def train_config(
        self,
        seed: int,
        batch_size: int = TrainConfig.batch_size,
        clip_norm: float | None = TrainConfig.clip_norm,
    ) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=batch_size,
            clip_norm=clip_norm,
            seed=seed,
        )


_AXES = tuple(f.name for f in dataclasses.fields(Candidate))


@dataclass(frozen=True)
class SearchSpace:
    """Factored candidate grid; every axis is a non-empty list of values."""

    cell: tuple = (CellType.LSTM, CellType.GRU)
    epochs: tuple = (3, 4, 5, 10, 30, 40, 100)
    learning_rate: tuple = (0.1, 0.01, 0.001)
    embedding_dim: tuple = (64, 128, 256, 2048)
    num_layers: tuple = (1, 2)
    num_units: tuple = (64, 128, 256, 1024)
    dropout: tuple = (0.0, 0.1, 0.3)

    def __post_init__(self):
        # a value is valid when it makes a valid candidate out of a valid one
        probe = PRESETS[PropertyName.COMPLETE]
        for axis in _AXES:
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)) or not values:
                raise ParameterError(
                    f"search space axis {axis!r} must be a non-empty list, got {values!r}"
                )
            try:
                checked = [dataclasses.replace(probe, **{axis: v}) for v in values]
            except ParameterError as exc:
                raise ParameterError(f"search space axis {axis!r}: {exc}") from None
            normalised = tuple(getattr(c, axis) for c in checked)
            repeated = [v for i, v in enumerate(normalised) if v in normalised[:i]]
            if repeated:
                shown = getattr(repeated[0], "value", repeated[0])  # 'gru', not the enum repr
                raise ParameterError(f"search space axis {axis!r} repeats the value {shown!r}")
            object.__setattr__(self, axis, normalised)

    @property
    def size(self) -> int:
        return math.prod(len(getattr(self, axis)) for axis in _AXES)

    def config_at(self, index: int) -> Candidate:
        """Candidate at `index` in lexicographic order over the axes.

        Mixed-radix decomposition with `cell` as the most significant
        digit and `dropout` the least, matching itertools.product over
        (cell, epochs, learning_rate, embedding_dim, num_layers,
        num_units, dropout).
        """
        if not (0 <= index < self.size):
            raise ParameterError(f"config index {index} out of range [0, {self.size})")
        values = {}
        remainder = index
        for axis in reversed(_AXES):
            options = getattr(self, axis)
            remainder, pos = divmod(remainder, len(options))
            values[axis] = options[pos]
        return Candidate(**values)

    def __contains__(self, candidate: Candidate) -> bool:
        return all(getattr(candidate, axis) in getattr(self, axis) for axis in _AXES)

    def to_json(self) -> dict:
        obj = {axis: list(getattr(self, axis)) for axis in _AXES}
        obj["optimizer"] = FIXED_OPTIMIZER
        obj["loss"] = FIXED_LOSS
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SearchSpace":
        if not isinstance(obj, dict):
            raise StructuralError("search space file must hold a JSON object")
        unknown = set(obj) - set(_AXES) - {"optimizer", "loss"}
        if unknown:
            raise StructuralError(f"unknown search space fields: {sorted(unknown)}")
        missing = [axis for axis in _AXES if axis not in obj]
        if missing:
            raise StructuralError(f"search space file is missing fields: {missing}")
        for key, fixed in (("optimizer", FIXED_OPTIMIZER), ("loss", FIXED_LOSS)):
            if obj.get(key, fixed) != fixed:
                raise ParameterError(f"search space {key} must be {fixed!r}, got {obj[key]!r}")
        return cls(**{axis: obj[axis] for axis in _AXES})

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "SearchSpace":
        return cls.from_json(read_json(path, "search space"))


def enumerate_space(space: SearchSpace) -> tuple[int, Iterator[Candidate]]:
    """Size of the grid plus an iterator over it in lexicographic order."""
    return space.size, (space.config_at(i) for i in range(space.size))


# ------------------------------------------------------------------ presets

PRESETS: dict[PropertyName, Candidate] = {
    PropertyName.COMPLETE: Candidate(
        cell=CellType.GRU, epochs=5, learning_rate=0.01,
        embedding_dim=64, num_layers=1, num_units=256, dropout=0.0,
    ),
    PropertyName.SINGULAR: Candidate(
        cell=CellType.GRU, epochs=40, learning_rate=0.01,
        embedding_dim=128, num_layers=1, num_units=64, dropout=0.3,
    ),
    PropertyName.APPROPRIATE: Candidate(
        cell=CellType.GRU, epochs=100, learning_rate=0.001,
        embedding_dim=2048, num_layers=1, num_units=1024, dropout=0.3,
    ),
    PropertyName.CORRECT: Candidate(
        cell=CellType.GRU, epochs=4, learning_rate=0.01,
        embedding_dim=128, num_layers=1, num_units=64, dropout=0.0,
    ),
}

# Scores reported alongside each preset, kept for consistency checks:
# recomputing F1 from the stored precision/recall lands within 0.01 of
# the stored (2-decimal rounded) F1.
PRESET_REFERENCE_SCORES: dict[PropertyName, dict[str, float]] = {
    PropertyName.COMPLETE: {
        "precision": 0.75, "recall": 1.0, "accuracy": 0.75, "f1": 0.85, "mse": 0.49,
    },
    PropertyName.SINGULAR: {
        "precision": 0.78, "recall": 0.86, "accuracy": 0.77, "f1": 0.82, "mse": 0.32,
    },
    PropertyName.APPROPRIATE: {
        "precision": 0.72, "recall": 0.82, "accuracy": 0.70, "f1": 0.76, "mse": 0.23,
    },
    PropertyName.CORRECT: {
        "precision": 0.75, "recall": 1.0, "accuracy": 0.75, "f1": 0.85, "mse": 0.49,
    },
}


def preset_candidate(prop: PropertyName) -> Candidate:
    """The shipped best-known configuration for one quality property."""
    return PRESETS[PropertyName(prop)]


# ------------------------------------------------------------------ search


def parse_eval_mode(text: str) -> tuple[str, int | float]:
    """Parse 'cv:K' or 'holdout:F' into (kind, parameter)."""
    kind, sep, value = str(text).partition(":")
    if kind == "cv":
        try:
            k = int(value) if sep else 10
        except ValueError:
            raise ParameterError(f"eval mode {text!r}: fold count must be an integer") from None
        return "cv", k
    if kind == "holdout":
        try:
            fraction = float(value) if sep else 0.8
        except ValueError:
            raise ParameterError(
                f"eval mode {text!r}: train fraction must be a number"
            ) from None
        return "holdout", fraction
    raise ParameterError(f"eval mode must be 'cv:K' or 'holdout:F', got {text!r}")


@dataclass
class SearchTrial:
    index: int
    candidate: Candidate
    scores: dict[str, float]
    objective: float
    seconds: float
    result: CvResult | HoldoutResult | None = None


@dataclass
class SearchReport:
    property: PropertyName
    space: SearchSpace
    mode: str
    budget: int
    seed: int
    objective: str
    eval_mode: str
    trials: list[SearchTrial]
    best_index: int

    @property
    def best(self) -> SearchTrial:
        return self.trials[self.best_index]

    def save_trials_csv(self, path: str | Path) -> None:
        rows = [["trial", "cell", "epochs", "lr", "embedding", "layers", "units", "dropout",
                 *METRIC_NAMES, "seconds"]]
        for trial in self.trials:
            c = trial.candidate
            rows.append([
                str(trial.index), c.cell.value, str(c.epochs), repr(c.learning_rate),
                str(c.embedding_dim), str(c.num_layers), str(c.num_units), repr(c.dropout),
                *(repr(trial.scores[name]) for name in METRIC_NAMES), f"{trial.seconds:.3f}",
            ])
        write_csv(path, rows)

    def summary(self) -> str:
        c = self.best.candidate
        return (
            f"best trial {self.best.index}: {c.cell.value} epochs={c.epochs} "
            f"lr={c.learning_rate} embedding={c.embedding_dim} layers={c.num_layers} "
            f"units={c.num_units} dropout={c.dropout} "
            f"{self.objective}={self.best.scores[self.objective]:.4f}"
        )


def run_search(
    dataset: Dataset,
    prop: PropertyName,
    space: SearchSpace | None = None,
    mode: str = "random",
    budget: int | None = None,
    eval_mode: str = "cv:10",
    objective: str = "accuracy",
    seed: int = 0,
    batch_size: int = TrainConfig.batch_size,
    clip_norm: float | None = TrainConfig.clip_norm,
    tagger_mode: TaggerMode = TaggerMode.RULES,
    keep_results: bool = False,
    jobs: int | None = None,
) -> SearchReport:
    """Train and score candidates; pick the best by the objective metric.

    Random mode samples `budget` distinct candidates (budget must not
    exceed the space size); exhaustive mode visits every candidate and
    takes no budget.  The objective is any Metrics field name; mse is
    compared negated so that the best trial is always the argmax of
    `SearchTrial.objective`, ties broken by lower trial index.

    The labeled subset is tagged once.  Every fit of every trial (one per
    fold in cv mode) is one job of a single `run_fits` call with `jobs`
    workers, and a trial's `seconds` is the sum of its fits' times.
    """
    prop = PropertyName(prop)
    space = space or SearchSpace()
    check_jobs(jobs)
    if objective not in METRIC_NAMES:
        raise ParameterError(
            f"objective must be one of {sorted(METRIC_NAMES)}, got {objective!r}"
        )
    kind, value = parse_eval_mode(eval_mode)
    size = space.size
    if mode == "random":
        if budget is None:
            raise ParameterError("random mode requires a budget")
        if budget < 1:
            raise ParameterError(f"budget must be >= 1, got {budget}")
        if budget > size:
            raise ParameterError(
                f"budget {budget} exceeds the space size {size} (sampling is "
                f"without replacement)"
            )
        sampler = Rng(seed, stream=_SAMPLER_STREAM)
        indices = [int(i) for i in sampler.sample_without_replacement(size, budget)]
    elif mode == "exhaustive":
        if budget is not None:
            raise ParameterError("exhaustive mode takes no budget (visits every config)")
        indices = list(range(size))
    else:
        raise ParameterError(f"mode must be 'random' or 'exhaustive', got {mode!r}")

    # every split before any tagging or fitting, so a bad split fails first
    splits = []
    for t, config_index in enumerate(indices):
        trial_seed = int(Rng(seed, stream=t).integers(0, 2**63 - 1))  # one stream per trial
        split = (make_folds if kind == "cv" else holdout_split)(dataset, prop, value, trial_seed)
        splits.append((space.config_at(config_index), trial_seed, split))
    vocab, encoded = encode_labeled(dataset, prop, tagger_mode)
    planned = []
    for candidate, trial_seed, split in splits:
        config = candidate.model_config(vocab.size)
        train_cfg = candidate.train_config(trial_seed, batch_size, clip_norm)
        fits = (_cv_jobs(split, config, train_cfg, trial_seed) if kind == "cv"
                else [_holdout_job(split, config, train_cfg, trial_seed)])
        planned.append((candidate, trial_seed, split, config, train_cfg, fits))
    outcomes = iter(run_fits(
        encoded, [job for *_, fits in planned for job in fits], jobs,
        keep_params=keep_results and kind == "holdout",
    ))

    trials: list[SearchTrial] = []
    for t, (candidate, trial_seed, split, config, train_cfg, fits) in enumerate(planned):
        done = [next(outcomes) for _ in fits]
        if kind == "cv":
            result = _cv_result(prop, config, train_cfg, trial_seed, split, done)
        else:
            result = _holdout_result(prop, fits[0], value, trial_seed, done[0], vocab)
        scores = aggregate_metrics([metrics for _, _, metrics, _ in done])
        objective_value = -scores["mse"] if objective == "mse" else scores[objective]
        trials.append(
            SearchTrial(
                index=t,
                candidate=candidate,
                scores=scores,
                objective=objective_value,
                seconds=sum(seconds for *_, seconds in done),
                result=result if keep_results else None,
            )
        )

    best_index = max(range(len(trials)), key=lambda i: trials[i].objective)
    return SearchReport(
        property=prop,
        space=space,
        mode=mode,
        budget=len(indices),
        seed=seed,
        objective=objective,
        eval_mode=eval_mode,
        trials=trials,
        best_index=best_index,
    )
