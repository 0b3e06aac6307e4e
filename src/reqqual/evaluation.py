"""Metrics, k-fold cross-validation, and trained-model evaluation.

Class 0 is the positive class throughout: "the requirement satisfies
the property".  A boolean label maps to a class via ``class_of``
(True -> 0, False -> 1), and ``prob_positive`` always means the softmax
probability of class 0.

Zero-denominator ratios (no positive predictions, or no positive
labels) are defined as 0.0 and flagged in ``Metrics.zero_division``
rather than raising.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifact import ModelArtifact
from .corpus import Dataset, FoldPlan, PropertyName, holdout_split, make_folds
from .errors import ParameterError, ReqqualError, StructuralError
from .nn import ModelConfig, classify, forward_batch
from .numcore import blas_threads, helper_off
from .textpipe import RulesTagger, TaggerMode, build_vocabulary, encode, tag_text, write_json
from .train import LossCurve, TrainConfig, fit


def class_of(label: bool) -> int:
    return 0 if label else 1


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @classmethod
    def from_pairs(cls, predictions: Sequence[int], labels: Sequence[int]) -> "Confusion":
        pairs = Counter((p == 0, y == 0) for p, y in zip(predictions, labels))
        return cls(
            tp=pairs[True, True], tn=pairs[False, False],
            fp=pairs[True, False], fn=pairs[False, True],
        )

    def to_json(self) -> dict:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


METRIC_NAMES = ("precision", "recall", "accuracy", "f1", "mse")


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    accuracy: float
    f1: float
    mse: float
    counts: Confusion
    zero_division: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in METRIC_NAMES}
        out["counts"] = self.counts.to_json()
        if self.zero_division:
            out["zero_division"] = list(self.zero_division)
        return out


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(
    predictions: Sequence[int],
    labels: Sequence[int],
    probs,
) -> Metrics:
    """Confusion-based metrics plus MSE of prob_positive against the label."""
    n = len(predictions)
    if n == 0:
        raise StructuralError("cannot compute metrics over zero examples")
    if len(labels) != n:
        raise StructuralError(f"{n} predictions but {len(labels)} labels")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (n, 2):
        raise StructuralError(f"expected probabilities of shape ({n}, 2), got {probs.shape}")
    for value in list(predictions) + list(labels):
        if value not in (0, 1):
            raise ParameterError(f"classes must be 0 or 1, got {value}")

    counts = Confusion.from_pairs(predictions, labels)
    flags: list[str] = []
    if counts.tp + counts.fp == 0:
        precision = 0.0
        flags.append("precision")
    else:
        precision = counts.tp / (counts.tp + counts.fp)
    if counts.tp + counts.fn == 0:
        recall = 0.0
        flags.append("recall")
    else:
        recall = counts.tp / (counts.tp + counts.fn)
    if precision + recall == 0.0:
        flags.append("f1")
    accuracy = (counts.tp + counts.tn) / counts.total
    target = np.array([1.0 if y == 0 else 0.0 for y in labels])
    mse = float(np.mean((probs[:, 0] - target) ** 2))
    return Metrics(
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        f1=f1_score(precision, recall),
        mse=mse,
        counts=counts,
        zero_division=tuple(flags),
    )


def aggregate_metrics(folds: Sequence[Metrics]) -> dict[str, float]:
    """Unweighted mean of each metric across folds."""
    return {
        name: float(np.mean([getattr(m, name) for m in folds])) for name in METRIC_NAMES
    }


@dataclass
class CvResult:
    property: PropertyName
    model_config: ModelConfig
    train_config: TrainConfig
    k: int
    seed: int
    folds: list[Metrics]
    aggregate: dict[str, float]
    best_fold: int
    curves: list[LossCurve] = field(default_factory=list)
    plan: FoldPlan | None = None

    def to_json(self) -> dict:
        model = dataclasses.asdict(self.model_config)
        del model["num_classes"]
        train = dataclasses.asdict(self.train_config)
        del train["seed"]  # each fold's seed derives from the report's
        config = {"model": model, "train": train, "k": self.k}
        folds = [dict(m.to_json(), fold=i) for i, m in enumerate(self.folds)]
        return {
            "property": self.property.value,
            "config": config,
            "folds": folds,
            "aggregate": self.aggregate,
            "best_fold": dict(self.folds[self.best_fold].to_json(), fold=self.best_fold),
            "seed": self.seed,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json())


def encode_labeled(dataset: Dataset, prop: PropertyName, mode: TaggerMode):
    """Tag the subset labeled for `prop`, build its vocabulary, encode it.

    Returns (vocabulary, {id: (encoded sequence, class)}).
    """
    labeled = dataset.labeled(prop)
    if not labeled:
        raise ParameterError(f"no requirements labeled for {prop.value!r}")
    tagger = RulesTagger()
    tagged = {req.id: tag_text(req.text, mode, tagger) for req in labeled}
    vocab = build_vocabulary(tagged.values())
    encoded = {
        req.id: (encode(tagged[req.id], vocab), class_of(req.labels[prop]))
        for req in labeled
    }
    return vocab, encoded


def _fit_and_score(encoded, train_ids, test_ids, model_config, train_config):
    """Fit on `train_ids`, score `test_ids` of `encoded`; returns (params, curve, Metrics)."""
    params, curve = fit([encoded[rid] for rid in train_ids], model_config, train_config)
    probs, _ = forward_batch([encoded[rid][0] for rid in test_ids], params)
    labels = [encoded[rid][1] for rid in test_ids]
    return params, curve, compute_metrics(classify(probs), labels, probs)


def _timed_fit(encoded, job, keep_params):
    started = time.perf_counter()
    params, curve, metrics = _fit_and_score(encoded, *job)
    return (params if keep_params else None), curve, metrics, time.perf_counter() - started


_worker_state = None  # (encoded, jobs, keep_params), set in each pool worker by _start_worker


def _start_worker(*state):
    global _worker_state
    _worker_state = state


def _worker_fit(index):
    encoded, jobs, keep_params = _worker_state
    with blas_threads(1), helper_off():  # the workers already fill the CPUs
        return _timed_fit(encoded, jobs[index], keep_params)


def check_jobs(jobs) -> None:
    """Refuse a worker count that is not None or an integer >= 1."""
    if jobs is not None and (isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1):
        raise ParameterError(f"jobs must be an integer >= 1, got {jobs!r}")


def run_fits(encoded, jobs, workers: int | None = None, keep_params: bool = False) -> list:
    """Run `_fit_and_score(encoded, *job)` for each job of `jobs`, which are
    (train ids, test ids, model config, train config) tuples.

    Returns (params, curve, Metrics, seconds) per job, in job order; params is
    None unless `keep_params`.  With more than one job and more than one
    worker, the jobs run in min(workers, len(jobs)) forked processes, each at
    1 BLAS thread, which inherit `encoded` and `jobs` instead of receiving
    them pickled.  `workers` defaults to the usable CPUs when the BLAS thread
    count can be pinned, else 1.  Otherwise the jobs run here, at the
    caller's BLAS thread count; at 1 thread the results are the same bytes
    either way.
    """
    if workers is None and len(jobs) > 1:
        with blas_threads(1) as pinned:
            workers = len(os.sched_getaffinity(0)) if pinned else 1
    workers = min(workers or 1, len(jobs))
    if workers <= 1:
        return [_timed_fit(encoded, job, keep_params) for job in jobs]

    # Fork, not spawn: a worker then starts without importing numpy again and
    # shares `encoded` copy-on-write.  The only Python thread reqqual starts
    # is numcore's split helper, which waits idle between splits and which a
    # forked child forgets (os.register_at_fork).  OpenBLAS shuts its threads
    # down before a fork.  Each worker runs at 1 BLAS thread per job, with
    # no helper thread.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(encoded, jobs, keep_params),
    )
    try:
        futures = [pool.submit(_worker_fit, i) for i in range(len(jobs))]
        return [future.result() for future in futures]
    except BrokenProcessPool:
        raise ReqqualError(
            f"a worker process died before its fit finished ({workers} workers; "
            f"if memory ran out, use fewer jobs)"
        ) from None
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _cv_jobs(plan: FoldPlan, config: ModelConfig, train_config: TrainConfig, seed: int):
    """One job per fold: fold i trains with seed `seed ^ i` outside fold i."""
    return [
        (plan.complement(i), plan.fold_members(i), config,
         dataclasses.replace(train_config, seed=seed ^ i))
        for i in range(plan.k)
    ]


def _cv_result(prop, config, train_config, seed, plan, outcomes) -> CvResult:
    folds = [metrics for _, _, metrics, _ in outcomes]
    best_fold = max(range(plan.k), key=lambda i: folds[i].accuracy)
    return CvResult(
        property=prop,
        model_config=config,
        train_config=train_config,
        k=plan.k,
        seed=seed,
        folds=folds,
        aggregate=aggregate_metrics(folds),
        best_fold=best_fold,
        curves=[curve for _, curve, _, _ in outcomes],
        plan=plan,
    )


def cross_validate(
    dataset: Dataset,
    prop: PropertyName,
    model_config: ModelConfig,
    train_config: TrainConfig,
    k: int,
    seed: int,
    tagger_mode: TaggerMode = TaggerMode.RULES,
    jobs: int | None = None,
) -> CvResult:
    """k-fold cross-validation of one property's classifier.

    The tag vocabulary is built over the whole labeled subset (every tag
    used at least once), and `model_config.vocab_size` is replaced by
    its size.  Fold i trains with seed `seed ^ i` on everything outside
    fold i and is evaluated on fold i.  The folds run through `run_fits`
    with `jobs` workers.
    """
    prop = PropertyName(prop)
    check_jobs(jobs)
    plan = make_folds(dataset, prop, k, seed)
    vocab, encoded = encode_labeled(dataset, prop, tagger_mode)
    config = dataclasses.replace(model_config, vocab_size=vocab.size)
    outcomes = run_fits(encoded, _cv_jobs(plan, config, train_config, seed), jobs)
    return _cv_result(prop, config, train_config, seed, plan, outcomes)


@dataclass
class HoldoutResult:
    property: PropertyName
    model_config: ModelConfig
    train_config: TrainConfig
    seed: int
    train_fraction: float
    metrics: Metrics
    train_size: int
    test_size: int
    params: object = None
    curve: LossCurve | None = None
    vocabulary: object = None


def _holdout_job(split, config: ModelConfig, train_config: TrainConfig, seed: int):
    """The job that trains on the first part of `split` with seed `seed`, scores the second."""
    train_ds, test_ds = split
    return (
        [r.id for r in train_ds.requirements], [r.id for r in test_ds.requirements],
        config, dataclasses.replace(train_config, seed=seed),
    )


def _holdout_result(prop, job, fraction, seed, outcome, vocab) -> HoldoutResult:
    train_ids, test_ids, config, fit_cfg = job
    params, curve, metrics, _ = outcome
    return HoldoutResult(
        property=prop,
        model_config=config,
        train_config=fit_cfg,
        seed=seed,
        train_fraction=fraction,
        metrics=metrics,
        train_size=len(train_ids),
        test_size=len(test_ids),
        params=params,
        curve=curve,
        vocabulary=vocab,
    )


def holdout_evaluate(
    dataset: Dataset,
    prop: PropertyName,
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_fraction: float,
    seed: int,
    tagger_mode: TaggerMode = TaggerMode.RULES,
) -> HoldoutResult:
    """Single train/test split evaluation with the same pipeline as CV.

    The vocabulary is built over the whole labeled subset, as in
    cross_validate; training runs with `train_config.seed` replaced by
    `seed`.  Returns the trained parameters alongside the test metrics
    so callers can persist the model.
    """
    prop = PropertyName(prop)
    split = holdout_split(dataset, prop, train_fraction, seed)
    vocab, encoded = encode_labeled(dataset, prop, tagger_mode)
    config = dataclasses.replace(model_config, vocab_size=vocab.size)
    job = _holdout_job(split, config, train_config, seed)
    (outcome,) = run_fits(encoded, [job], keep_params=True)
    return _holdout_result(prop, job, train_fraction, seed, outcome, vocab)


# Rows per forward_batch call in evaluate_model, so that inference memory is
# bounded by the chunk instead of growing with the dataset.  Over 10 000
# synthetic requirements 256-512 rows ran fastest (1024 was 5% slower).
INFER_CHUNK_ROWS = 512


def evaluate_model(
    artifact: ModelArtifact,
    dataset: Dataset,
    prop: PropertyName | None = None,
) -> tuple[Metrics | None, list[dict]]:
    """Run a saved model over a dataset.

    Returns per-requirement prediction records for every requirement,
    and Metrics over the subset labeled for the model's property (None
    when that subset is empty).  Requesting a different property than
    the model was trained for is refused.
    """
    if prop is not None and PropertyName(prop) != artifact.property:
        raise StructuralError(
            f"model was trained for property {artifact.property.value!r}, "
            f"not {PropertyName(prop).value!r}"
        )
    if len(dataset) == 0:
        raise ParameterError("cannot evaluate on an empty dataset")
    tagger = RulesTagger()
    sequences = [
        encode(tag_text(req.text, artifact.tagger_mode, tagger), artifact.vocabulary)
        for req in dataset.requirements
    ]
    # longest first, so that each chunk runs about as many steps as its own rows need
    order = sorted(range(len(sequences)), key=lambda i: sequences[i].length, reverse=True)
    probs = np.empty((len(sequences), 2))
    for start in range(0, len(order), INFER_CHUNK_ROWS):
        chunk = order[start : start + INFER_CHUNK_ROWS]
        chunk_probs, _ = forward_batch([sequences[i] for i in chunk], artifact.params)
        probs[chunk] = chunk_probs
    predictions = classify(probs)
    prop = artifact.property
    labels = [req.labels.get(prop) for req in dataset.requirements]
    records = [
        {"id": req.id, "predicted": p == 0, "prob_positive": p0, "label": y}
        for req, p, p0, y in zip(dataset.requirements, predictions, probs[:, 0].tolist(), labels)
    ]
    rows = [i for i, y in enumerate(labels) if y is not None]
    if not rows:
        return None, records
    classes = [class_of(labels[i]) for i in rows]
    return compute_metrics([predictions[i] for i in rows], classes, probs[rows]), records
