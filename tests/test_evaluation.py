"""Metric math, cross-validation orchestration, and saved-model evaluation."""

import json

import numpy as np
import pytest

from reqqual.artifact import ModelArtifact, load_model, save_model
from reqqual.corpus import (
    Dataset,
    PropertyName,
    Requirement,
    generate_synthetic,
    holdout_split,
)
from reqqual.errors import ParameterError, StructuralError
from reqqual.evaluation import (
    INFER_CHUNK_ROWS,
    METRIC_NAMES,
    Confusion,
    CvResult,
    Metrics,
    aggregate_metrics,
    class_of,
    classify,
    compute_metrics,
    cross_validate,
    evaluate_model,
    f1_score,
    holdout_evaluate,
)
from reqqual.nn import CellType, ModelConfig, ParameterSet, forward
from reqqual.numcore import Rng
from reqqual.textpipe import TaggerMode, build_vocabulary, encode, tag_text, write_jsonl
from reqqual.train import TrainConfig


# ---------------------------------------------------------------- classify


def test_classify_picks_larger():
    assert classify([0.6, 0.4]) == 0
    assert classify([0.4, 0.6]) == 1


def test_classify_tie_goes_to_class_zero():
    assert classify([0.5, 0.5]) == 0


# an exact tie, a NaN row and rows with one NaN; the parent's per-row rule
# `0 if p0 >= p1 else 1` sends every NaN comparison to class 1
FROZEN_PROBS = np.array([
    [0.7, 0.3],
    [0.5, 0.5],
    [0.25, 0.75],
    [np.nan, np.nan],
    [np.nan, 0.4],
    [0.4, np.nan],
    [1.0, 0.0],
])


def test_classify_rows_of_a_frozen_array():
    per_row = [classify(row) for row in FROZEN_PROBS]
    assert per_row == [0, 0, 1, 1, 1, 1, 0]
    assert all(type(c) is int for c in per_row)


def test_classify_batch_matches_rows():
    batch = classify(FROZEN_PROBS)
    assert batch == [classify(row) for row in FROZEN_PROBS]
    assert all(type(c) is int for c in batch)


def test_class_of():
    assert class_of(True) == 0
    assert class_of(False) == 1


def test_f1_score():
    assert f1_score(0.75, 1.0) == pytest.approx(6.0 / 7.0)
    assert f1_score(0.0, 0.0) == 0.0


# ---------------------------------------------------------------- metrics


def probs_for(p0s):
    return np.array([[p, 1.0 - p] for p in p0s])


def test_confusion_orientation():
    # class 0 is the positive class
    counts = Confusion.from_pairs([0, 0, 1, 1], [0, 1, 0, 1])
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)


def test_confusion_counts_any_nonzero_class_as_negative():
    assert Confusion.from_pairs([2, 0, 2], [0, 2, 2]) == Confusion(tp=0, tn=1, fp=1, fn=1)


def test_confusion_numpy_and_bool_inputs():
    expected = Confusion(tp=1, tn=1, fp=1, fn=1)
    preds = np.array([0, 1, 0, 1], dtype=np.int64)
    assert Confusion.from_pairs(preds, np.array([0, 0, 1, 1], dtype=np.int64)) == expected
    counts = Confusion.from_pairs([0, 1, 0, 1], [False, False, True, True])
    assert counts == expected
    assert all(type(v) is int for v in counts.to_json().values())


def test_metrics_frozen_example():
    preds = [0, 0, 0, 1, 1, 1]
    labels = [0, 0, 1, 0, 1, 1]
    m = compute_metrics(preds, labels, probs_for([0.9, 0.8, 0.7, 0.4, 0.2, 0.1]))
    assert m.counts == Confusion(tp=2, tn=2, fp=1, fn=1)
    assert m.precision == pytest.approx(2.0 / 3.0)
    assert m.recall == pytest.approx(2.0 / 3.0)
    assert m.accuracy == pytest.approx(4.0 / 6.0)
    assert m.f1 == pytest.approx(2.0 / 3.0)
    assert m.zero_division == ()


def test_metrics_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, 2, size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        p0 = rng.uniform(0.0, 1.0, size=n)
        m = compute_metrics(preds, labels, probs_for(p0))

        tp = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 0)
        fp = sum(1 for p, y in zip(preds, labels) if p == 0 and y == 1)
        fn = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
        tn = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
        assert (m.counts.tp, m.counts.fp, m.counts.fn, m.counts.tn) == (tp, fp, fn, tn)
        assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
        assert m.accuracy == (tp + tn) / n
        assert m.f1 == f1_score(m.precision, m.recall)
        expected_mse = np.mean([(q - (1.0 if y == 0 else 0.0)) ** 2 for q, y in zip(p0, labels)])
        assert m.mse == pytest.approx(expected_mse, abs=1e-12)


def test_metrics_permutation_invariant():
    preds = [0, 1, 0, 1, 0, 0, 1, 1]
    labels = [0, 0, 1, 1, 0, 1, 0, 1]
    p0 = [0.9, 0.1, 0.6, 0.2, 0.8, 0.55, 0.3, 0.05]
    base = compute_metrics(preds, labels, probs_for(p0))
    order = [5, 2, 7, 0, 3, 6, 1, 4]
    shuffled = compute_metrics(
        [preds[i] for i in order],
        [labels[i] for i in order],
        probs_for([p0[i] for i in order]),
    )
    assert shuffled.counts == base.counts
    assert (shuffled.precision, shuffled.recall, shuffled.accuracy, shuffled.f1) == (
        base.precision, base.recall, base.accuracy, base.f1,
    )
    assert shuffled.mse == pytest.approx(base.mse, abs=1e-12)  # summation order


def test_zero_denominators_flagged_not_raised():
    # nothing predicted positive, nothing labeled positive
    m = compute_metrics([1, 1], [1, 1], probs_for([0.1, 0.2]))
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.zero_division == ("precision", "recall", "f1")
    assert m.accuracy == 1.0

    # nothing predicted positive, but positives exist
    m = compute_metrics([1, 1], [0, 0], probs_for([0.1, 0.2]))
    assert m.zero_division == ("precision", "f1")
    assert m.recall == 0.0


def test_metrics_mse_frozen():
    m = compute_metrics([0, 1], [0, 1], probs_for([0.9, 0.2]))
    assert m.mse == pytest.approx(0.025, abs=1e-15)


def test_metrics_input_validation():
    good = probs_for([0.5, 0.5])
    with pytest.raises(StructuralError, match="zero examples"):
        compute_metrics([], [], np.zeros((0, 2)))
    with pytest.raises(StructuralError, match="2 predictions but 1 labels"):
        compute_metrics([0, 1], [0], good)
    with pytest.raises(StructuralError, match="shape"):
        compute_metrics([0, 1], [0, 1], np.zeros((2, 3)))
    with pytest.raises(ParameterError, match="classes must be 0 or 1"):
        compute_metrics([0, 2], [0, 1], good)


def test_aggregate_metrics_unweighted_mean():
    a = compute_metrics([0, 1], [0, 1], probs_for([0.9, 0.1]))
    b = compute_metrics([0, 0, 1, 1], [0, 1, 0, 1], probs_for([0.9, 0.8, 0.3, 0.1]))
    agg = aggregate_metrics([a, b])
    assert set(agg) == set(METRIC_NAMES)
    for name in METRIC_NAMES:
        assert agg[name] == pytest.approx((getattr(a, name) + getattr(b, name)) / 2.0)


# ---------------------------------------------------------------- cross-validation

CV_MODEL = ModelConfig(cell=CellType.GRU, vocab_size=3, embedding_dim=8, hidden_units=12)
CV_TRAIN = TrainConfig(learning_rate=0.05, epochs=4, batch_size=16, seed=0)


def cv_dataset(n=48, seed=11):
    return generate_synthetic(n, seed)


def test_cross_validate_shape():
    result = cross_validate(cv_dataset(), PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, k=3, seed=5)
    assert result.k == 3 and result.seed == 5
    assert len(result.folds) == 3
    assert all(isinstance(m, Metrics) for m in result.folds)
    assert set(result.aggregate) == set(METRIC_NAMES)
    assert result.model_config.vocab_size > 3  # replaced by the built vocabulary
    assert len(result.curves) == 3
    assert all(len(curve.records) == CV_TRAIN.epochs for curve in result.curves)
    assert sum(m.counts.total for m in result.folds) == 48


def test_cross_validate_aggregate_and_best_fold():
    result = cross_validate(cv_dataset(), "singular", CV_MODEL, CV_TRAIN, k=3, seed=5)
    for name in METRIC_NAMES:
        expected = np.mean([getattr(m, name) for m in result.folds])
        assert result.aggregate[name] == pytest.approx(expected, abs=1e-15)
    accs = [m.accuracy for m in result.folds]
    assert result.folds[result.best_fold].accuracy == max(accs)
    assert result.best_fold == accs.index(max(accs))  # tie -> lower index


def test_cross_validate_deterministic():
    a = cross_validate(cv_dataset(), PropertyName.COMPLETE, CV_MODEL, CV_TRAIN, k=3, seed=9)
    b = cross_validate(cv_dataset(), PropertyName.COMPLETE, CV_MODEL, CV_TRAIN, k=3, seed=9)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_cross_validate_seed_changes_folds():
    a = cross_validate(cv_dataset(), PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, k=3, seed=1)
    b = cross_validate(cv_dataset(), PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, k=3, seed=2)
    assert a.plan.assignments != b.plan.assignments


def test_cross_validate_keeps_curves_on_request():
    result = cross_validate(cv_dataset(24), PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, k=2, seed=0)
    assert len(result.curves) == 2
    assert all(len(curve.records) == CV_TRAIN.epochs for curve in result.curves)


def test_cross_validate_k_exceeding_data_rejected():
    with pytest.raises(ParameterError, match="need >= k=10"):
        cross_validate(cv_dataset(6), PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, k=10, seed=0)


def test_report_json_shape(tmp_path):
    result = cross_validate(cv_dataset(), PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, k=3, seed=5)
    report = result.to_json()
    assert set(report) == {"property", "config", "folds", "aggregate", "best_fold", "seed"}
    assert report["property"] == "singular"
    assert report["seed"] == 5
    assert set(report["config"]) == {"model", "train", "k"}
    assert report["config"]["k"] == 3
    assert report["config"]["model"]["cell"] == "gru"
    assert [f["fold"] for f in report["folds"]] == [0, 1, 2]
    for fold in report["folds"]:
        assert {"precision", "recall", "accuracy", "f1", "mse", "counts"} <= set(fold)
    assert report["best_fold"]["fold"] == result.best_fold

    path = tmp_path / "report.json"
    result.save_json(path)
    assert json.loads(path.read_text("utf-8")) == report


def test_cross_validate_learns_planted_signal():
    config = ModelConfig(cell=CellType.GRU, vocab_size=3, embedding_dim=8, hidden_units=16)
    train = TrainConfig(learning_rate=0.05, epochs=10, batch_size=16, seed=0)
    result = cross_validate(cv_dataset(60, seed=4), PropertyName.SINGULAR, config, train, k=3, seed=2)
    assert result.aggregate["accuracy"] >= 0.8


# ---------------------------------------------------------------- holdout_evaluate


def test_holdout_evaluate_sizes_model_and_metrics():
    dataset = cv_dataset(30)
    fraction = 0.7
    result = holdout_evaluate(dataset, PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, fraction, seed=3)
    n = len(dataset.labeled(PropertyName.SINGULAR))
    assert result.train_size + result.test_size == n
    assert result.test_size == n - round(fraction * n)
    assert result.model_config.vocab_size == result.vocabulary.size
    assert result.metrics.counts.total == result.test_size

    # the returned params and vocabulary, saved as a model, score the test split alike
    artifact = ModelArtifact(
        property=PropertyName.SINGULAR,
        model_config=result.model_config,
        vocabulary=result.vocabulary,
        params=result.params,
        tagger_mode=TaggerMode.RULES,
        seed=3,
    )
    _, test = holdout_split(dataset, PropertyName.SINGULAR, fraction, seed=3)
    metrics, _ = evaluate_model(artifact, test)
    assert metrics.accuracy == result.metrics.accuracy

    again = holdout_evaluate(dataset, PropertyName.SINGULAR, CV_MODEL, CV_TRAIN, fraction, seed=3)
    for name, array in result.params.arrays.items():
        assert array.tobytes() == again.params.arrays[name].tobytes(), name


# ---------------------------------------------------------------- evaluate_model


def build_artifact(dataset, prop=PropertyName.SINGULAR, seed=13):
    tagged = [tag_text(req.text, TaggerMode.RULES) for req in dataset.requirements]
    vocab = build_vocabulary(tagged)
    config = ModelConfig(
        cell=CellType.GRU, vocab_size=vocab.size, embedding_dim=8, hidden_units=8
    )
    return ModelArtifact(
        property=prop,
        model_config=config,
        vocabulary=vocab,
        params=ParameterSet.initialize(config, Rng(seed)),
        tagger_mode=TaggerMode.RULES,
        seed=seed,
    )


def test_evaluate_model_records():
    dataset = cv_dataset(12)
    artifact = build_artifact(dataset)
    metrics, records = evaluate_model(artifact, dataset)
    assert len(records) == 12
    for req, record in zip(dataset.requirements, records):
        assert set(record) == {"id", "predicted", "prob_positive", "label"}
        assert record["id"] == req.id
        assert isinstance(record["predicted"], bool)
        assert 0.0 <= record["prob_positive"] <= 1.0
        assert record["label"] is req.labels[PropertyName.SINGULAR]
    agreed = sum(1 for r in records if r["predicted"] == r["label"])
    assert metrics.accuracy == pytest.approx(agreed / 12)
    assert metrics.counts.total == 12


def test_evaluate_model_chunks_match_the_per_sequence_reference():
    # more than two chunks of requirements of 1 to 3 sentences, in no length order
    base = generate_synthetic(2 * INFER_CHUNK_ROWS + 1, seed=29)
    requirements = []
    for i, req in enumerate(base.requirements):
        text = " ".join([req.text] * (i * 7 % 3 + 1))
        requirements.append(Requirement(id=req.id, text=text, labels=req.labels))
    dataset = Dataset("mixed-lengths", tuple(requirements))
    artifact = build_artifact(cv_dataset(12))
    _, records = evaluate_model(artifact, dataset)
    assert [r["id"] for r in records] == [req.id for req in dataset.requirements]
    lengths = set()
    for req, record in zip(dataset.requirements, records):
        ids = encode(tag_text(req.text, TaggerMode.RULES), artifact.vocabulary)
        lengths.add(ids.length)
        probs, _ = forward(ids, artifact.params)
        assert abs(record["prob_positive"] - probs[0]) <= 1e-12
        assert record["predicted"] is (classify(probs) == 0)
    assert len(lengths) > 10


def test_evaluate_model_property_mismatch_refused():
    dataset = cv_dataset(6)
    artifact = build_artifact(dataset, prop=PropertyName.COMPLETE)
    with pytest.raises(StructuralError, match="trained for property 'complete'"):
        evaluate_model(artifact, dataset, PropertyName.SINGULAR)


def test_evaluate_model_explicit_matching_property_ok():
    dataset = cv_dataset(6)
    artifact = build_artifact(dataset, prop=PropertyName.COMPLETE)
    metrics, records = evaluate_model(artifact, dataset, "complete")
    assert metrics is not None and len(records) == 6


def test_evaluate_model_skips_unlabeled_in_metrics():
    base = cv_dataset(4)
    labeled = base.requirements[0]
    partial = Requirement(
        id="partial", text="The system shall work.", labels={PropertyName.COMPLETE: True}
    )
    bare = Requirement(id="bare", text="The system shall stop.")
    dataset = Dataset(name="mixed", requirements=(labeled, partial, bare))
    artifact = build_artifact(base)  # vocabulary from the synthetic base
    metrics, records = evaluate_model(artifact, dataset)
    assert len(records) == 3
    assert records[1]["label"] is None and records[2]["label"] is None
    assert metrics.counts.total == 1


def test_evaluate_model_metrics_over_interleaved_labeled_rows():
    base = cv_dataset(12)
    requirements = []
    for i, req in enumerate(base.requirements):
        if i % 3 == 1:
            req = Requirement(id=req.id, text=req.text)
        elif i % 3 == 2:
            req = Requirement(id=req.id, text=req.text, labels={PropertyName.COMPLETE: True})
        requirements.append(req)
    dataset = Dataset(name="interleaved", requirements=tuple(requirements))
    metrics, records = evaluate_model(build_artifact(base), dataset)
    labeled = [r for r in records if r["label"] is not None]
    assert [r["id"] for r in labeled] == [req.id for req in base.requirements[::3]]
    expected = compute_metrics(
        [0 if r["predicted"] else 1 for r in labeled],
        [class_of(r["label"]) for r in labeled],
        [[r["prob_positive"], 1.0 - r["prob_positive"]] for r in labeled],
    )
    assert metrics == expected


def test_evaluate_model_all_unlabeled_returns_none():
    dataset = Dataset(
        name="bare",
        requirements=(Requirement(id="r1", text="The system shall work."),),
    )
    artifact = build_artifact(cv_dataset(4))
    metrics, records = evaluate_model(artifact, dataset)
    assert metrics is None
    assert len(records) == 1


def test_evaluate_model_empty_dataset_rejected():
    artifact = build_artifact(cv_dataset(4))
    with pytest.raises(ParameterError, match="empty dataset"):
        evaluate_model(artifact, Dataset(name="empty", requirements=()))


def test_evaluate_model_unseen_tags_fall_back_to_unknown():
    dataset = Dataset(
        name="odd",
        requirements=(Requirement(id="odd-1", text="Flux !! 3.14 shall ¤ hum."),),
    )
    artifact = build_artifact(cv_dataset(4))
    _, records = evaluate_model(artifact, dataset)
    assert records[0]["id"] == "odd-1"


def test_reloaded_model_evaluates_identically(tmp_path):
    dataset = cv_dataset(10)
    artifact = build_artifact(dataset)
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    reloaded = load_model(path)
    metrics_a, records_a = evaluate_model(artifact, dataset)
    metrics_b, records_b = evaluate_model(reloaded, dataset)
    assert records_a == records_b  # bit-exact probabilities
    assert metrics_a == metrics_b


def test_save_predictions_jsonl(tmp_path):
    dataset = cv_dataset(5)
    artifact = build_artifact(dataset)
    _, records = evaluate_model(artifact, dataset)
    path = tmp_path / "preds.jsonl"
    write_jsonl(path, records)
    lines = path.read_text("utf-8").splitlines()
    assert len(lines) == 5
    assert [json.loads(line)["id"] for line in lines] == [r["id"] for r in records]
