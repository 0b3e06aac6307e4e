"""End-to-end command-line behavior, run in-process via main(argv)."""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reqqual
from reqqual.artifact import ModelArtifact, load_model, save_model
from reqqual.cli import build_parser, main
from reqqual.corpus import (
    PROPERTIES,
    Dataset,
    PropertyName,
    Requirement,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from reqqual.evaluation import Confusion, CvResult, Metrics, aggregate_metrics
from reqqual.nn import CellType, ModelConfig, ParameterSet, zero_gradients
from reqqual.search import SearchSpace
from reqqual.textpipe import TagVocabulary
from reqqual.train import TrainConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared dataset + one small trained model for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "data.jsonl"
    save_dataset(generate_synthetic(24, seed=3), dataset)
    model = root / "singular.rqm"
    code = main([
        "train", "--input", str(dataset), "--property", "singular",
        "--out", str(model), "--epochs", "2", "--units", "8", "--embedding", "8",
        "--seed", "1",
    ])
    assert code == 0
    return SimpleNamespace(root=root, dataset=dataset, model=model)


# ---------------------------------------------------------------- synth


def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--n", "20", "--out", str(out), "--seed", "7"]) == 0
    dataset = load_dataset(out)
    assert len(dataset) == 20
    assert all(set(r.labels) == set(PROPERTIES) for r in dataset.requirements)
    assert "wrote 20 synthetic requirements" in capsys.readouterr().out


def test_synth_rate_flag(tmp_path, capsys):
    out = tmp_path / "synth.jsonl"
    code = main([
        "synth", "--n", "20", "--out", str(out), "--seed", "7",
        "--rate", "singular=0.25",
    ])
    assert code == 0
    dataset = load_dataset(out)
    violated = sum(1 for r in dataset.requirements if not r.labels[PropertyName.SINGULAR])
    assert violated == 5
    assert "singular=5" in capsys.readouterr().out


def test_synth_bad_rate_exits_2(tmp_path, capsys):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--n", "5", "--out", str(out), "--rate", "singular:0.2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("rate,message", [
    ("singular=abc", "--rate takes PROPERTY=FRACTION"),
    ("bogus=0.5", "unknown property 'bogus'"),
    ("singular=nan", r"singular must lie in \[0, 1\], got nan"),
    ("singular=1.5", r"singular must lie in \[0, 1\], got 1.5"),
], ids=["not-a-number", "unknown-property", "nan", "above-one"])
def test_synth_invalid_rate_exits_2(tmp_path, capsys, rate, message):
    out = tmp_path / "synth.jsonl"
    assert main(["synth", "--n", "5", "--out", str(out), "--rate", rate]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


# ---------------------------------------------------------------- preprocess


def test_preprocess_builds_vocabulary(workdir, tmp_path, capsys):
    out = tmp_path / "encoded.jsonl"
    vocab_path = tmp_path / "vocab.json"
    code = main([
        "preprocess", "--input", str(workdir.dataset),
        "--out", str(out), "--vocab-out", str(vocab_path),
    ])
    assert code == 0
    lines = out.read_text("utf-8").splitlines()
    assert len(lines) == 24
    record = json.loads(lines[0])
    assert set(record) == {"id", "ids", "tags"}
    assert len(record["ids"]) == len(record["tags"])
    assert all(isinstance(i, int) and i >= 2 for i in record["ids"])  # no PAD/UNK
    vocab = TagVocabulary.load(vocab_path)
    assert vocab.tags[:2] == ("<PAD>", "<UNK>")
    stdout = capsys.readouterr().out
    assert "tag frequencies:" in stdout
    assert "unknown tags: 0 of" in stdout
    assert f"encoded 24 requirements -> {out}" in stdout


def test_preprocess_with_vocab_in_substitutes_unknown(workdir, tmp_path, capsys):
    vocab_path = tmp_path / "tiny-vocab.json"
    TagVocabulary(("<PAD>", "<UNK>", "DT")).save(vocab_path)
    out = tmp_path / "encoded.jsonl"
    code = main([
        "preprocess", "--input", str(workdir.dataset),
        "--out", str(out), "--vocab-in", str(vocab_path),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "unknown tags: 0 of" not in stdout
    assert "unknown tags:" in stdout
    ids = json.loads(out.read_text("utf-8").splitlines()[0])["ids"]
    assert 1 in ids  # UNK substitutions present


def test_preprocess_vocab_in_reports_unknown_tags(tmp_path, capsys):
    data = tmp_path / "pretagged.jsonl"
    data.write_text(
        json.dumps({"id": "r1", "text": "a/DT b/NN c/NN"}) + "\n"
        + json.dumps({"id": "r2", "text": "f/VB d/MD e/VB"}) + "\n",
        "utf-8",
    )
    vocab_path = tmp_path / "vocab.json"
    TagVocabulary(("<PAD>", "<UNK>", "DT", "NN")).save(vocab_path)
    code = main([
        "preprocess", "--input", str(data), "--out", str(tmp_path / "encoded.jsonl"),
        "--vocab-in", str(vocab_path), "--tagger", "pretagged",
    ])
    assert code == 0
    assert "unknown tags: 3 of 6 (50.00%) ['MD', 'VB']" in capsys.readouterr().out.splitlines()


def test_preprocess_vocab_in_on_empty_dataset(tmp_path, capsys):
    data = tmp_path / "empty.jsonl"
    data.write_text("", "utf-8")
    vocab_path = tmp_path / "vocab.json"
    TagVocabulary(("<PAD>", "<UNK>", "DT")).save(vocab_path)
    out = tmp_path / "encoded.jsonl"
    code = main([
        "preprocess", "--input", str(data), "--out", str(out), "--vocab-in", str(vocab_path),
    ])
    assert code == 0
    assert "unknown tags: 0 of 0 (0.00%)" in capsys.readouterr().out.splitlines()
    assert out.read_text("utf-8") == ""


@pytest.mark.parametrize(
    "entry", [{"NN": "2"}, {"<UNK>": True, "NN": 2}, {"NN": 2.0}],
    ids=["index-is-string", "index-is-bool", "index-is-float"],
)
def test_preprocess_vocab_in_non_integer_index_exits_2(workdir, tmp_path, capsys, entry):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps({"version": 1, "<PAD>": 0, "<UNK>": 1, **entry}), "utf-8")
    code = main([
        "preprocess", "--input", str(workdir.dataset),
        "--out", str(tmp_path / "o.jsonl"), "--vocab-in", str(vocab_path),
    ])
    assert code == 2
    assert "is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_preprocess_vocab_in_bool_or_float_version_exits_2(workdir, tmp_path, capsys, version):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps({"version": version, "<PAD>": 0, "<UNK>": 1}), "utf-8")
    code = main([
        "preprocess", "--input", str(workdir.dataset),
        "--out", str(tmp_path / "o.jsonl"), "--vocab-in", str(vocab_path),
    ])
    assert code == 2
    assert f"unsupported vocabulary version {version!r}" in capsys.readouterr().err


def test_preprocess_vocab_in_non_utf8_exits_2(workdir, tmp_path, capsys):
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_bytes(b"\xff\xfe{}")
    code = main([
        "preprocess", "--input", str(workdir.dataset),
        "--out", str(tmp_path / "o.jsonl"), "--vocab-in", str(vocab_path),
    ])
    assert code == 2
    assert f"error: vocabulary file {vocab_path} is not valid UTF-8" in capsys.readouterr().err


def test_preprocess_missing_input_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code = main([
        "preprocess", "--input", str(missing),
        "--out", str(tmp_path / "o.jsonl"), "--vocab-out", str(tmp_path / "v.json"),
    ])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_preprocess_malformed_input_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "text": "The system shall work."}\n{broken\n', "utf-8")
    code = main([
        "preprocess", "--input", str(bad),
        "--out", str(tmp_path / "o.jsonl"), "--vocab-out", str(tmp_path / "v.json"),
    ])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_preprocess_requires_vocab_flag(workdir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["preprocess", "--input", str(workdir.dataset), "--out", str(tmp_path / "o")])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------- train


def test_train_writes_model_and_curve(workdir, capsys):
    model = load_model(workdir.model)
    assert model.property is PropertyName.SINGULAR
    assert model.model_config.hidden_units == 8
    assert model.metadata["trained_on"] == 24
    curve = workdir.model.with_suffix(".curve.csv")
    lines = curve.read_text("utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,train_acc"
    assert len(lines) == 3  # 2 epochs


def test_train_summary_line(tmp_path, capsys, workdir):
    out = tmp_path / "m.rqm"
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "singular",
        "--out", str(out), "--epochs", "1", "--units", "4", "--embedding", "4",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("singular: trained gru on 24 requirements")
    assert str(out) in stdout


def test_train_preset_with_override(tmp_path, workdir):
    out = tmp_path / "complete.rqm"
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "complete",
        "--out", str(out), "--preset", "paper", "--epochs", "2",
    ])
    assert code == 0
    model = load_model(out)
    # preset values for "complete", with the explicit --epochs override applied
    assert model.model_config.cell is CellType.GRU
    assert model.model_config.embedding_dim == 64
    assert model.model_config.hidden_units == 256
    assert model.model_config.num_layers == 1
    assert model.model_config.dropout_p == 0.0


def test_train_custom_curve_path_and_validation(tmp_path, workdir):
    out = tmp_path / "m.rqm"
    curve = tmp_path / "curve.csv"
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "singular",
        "--out", str(out), "--curve", str(curve), "--epochs", "2",
        "--units", "4", "--embedding", "4", "--val-fraction", "0.25",
    ])
    assert code == 0
    lines = curve.read_text("utf-8").splitlines()
    assert len(lines) == 3
    val_loss = lines[1].split(",")[2]
    assert val_loss != ""
    assert float(val_loss) > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the error
def test_train_divergence_exits_1(tmp_path, workdir, capsys):
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "singular",
        "--out", str(tmp_path / "m.rqm"), "--epochs", "2", "--units", "4",
        "--embedding", "4", "--lr", "1e308", "--batch-size", "8",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--clip-norm", "nan", "clip_norm"),
    ("--lr", "nan", "learning_rate"),
])
def test_train_non_finite_flag_exits_2(tmp_path, workdir, capsys, flag, value, field):
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "singular",
        "--out", str(tmp_path / "m.rqm"), "--epochs", "1", "--units", "4",
        "--embedding", "4", flag, value,
    ])
    assert code == 2
    assert f"error: {field} must be a finite positive number" in capsys.readouterr().err
    assert not (tmp_path / "m.rqm").exists()


@pytest.mark.parametrize("value", ["nan", "-0.5", "1", "1.5"])
def test_train_val_fraction_out_of_range_exits_2(tmp_path, workdir, capsys, value):
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "singular",
        "--out", str(tmp_path / "m.rqm"), "--epochs", "1", "--units", "4",
        "--embedding", "4", "--val-fraction", value,
    ])
    assert code == 2
    assert "error: --val-fraction must be in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "m.rqm").exists()


def _out_of_memory(*args):
    raise MemoryError("Unable to allocate")


@pytest.mark.parametrize("embedding,exhaust_memory", [
    ("100000000000000000", False),  # numpy refuses the size before allocating
    ("8", True),
], ids=["array-too-big", "memory-error"])
def test_train_unallocatable_model_exits_2(
    tmp_path, workdir, capsys, monkeypatch, embedding, exhaust_memory
):
    if exhaust_memory:
        monkeypatch.setattr("reqqual.nn.glorot_uniform", _out_of_memory)
    code = main([
        "train", "--input", str(workdir.dataset), "--property", "singular",
        "--out", str(tmp_path / "m.rqm"), "--epochs", "1", "--units", "4",
        "--embedding", embedding,
    ])
    assert code == 2
    assert re.search(r"error: cannot allocate a model of \d+ parameters", capsys.readouterr().err)
    assert not (tmp_path / "m.rqm").exists()


def test_train_on_non_utf8_file_name(tmp_path, capsys):
    dataset = tmp_path / "data\udcff.jsonl"  # the file system name holds the byte 0xff
    save_dataset(generate_synthetic(6, seed=2), dataset)
    model = tmp_path / "m.rqm"
    assert main([
        "train", "--input", str(dataset), "--property", "singular", "--out", str(model),
        "--epochs", "1", "--units", "2", "--embedding", "2",
    ]) == 0
    assert load_model(model).metadata["dataset"] == "data\ufffd"


def test_train_without_labels_for_property_exits_2(tmp_path, capsys):
    data = tmp_path / "unlabeled.jsonl"
    data.write_text(json.dumps({"id": "r1", "text": "The system shall log errors."}) + "\n")
    code = main([
        "train", "--input", str(data), "--property", "singular", "--out", str(tmp_path / "m.rqm"),
    ])
    assert code == 2
    assert "error: no requirements labeled for 'singular'" in capsys.readouterr().err


def test_config_json_keys_order_and_values(workdir, tmp_path):
    flags = [
        "--input", str(workdir.dataset), "--property", "singular", "--seed", "4",
        "--cell", "lstm", "--layers", "2", "--units", "6", "--embedding", "5",
        "--dropout", "0.25", "--epochs", "1", "--lr", "0.02", "--batch-size", "16",
        "--clip-norm", "2.5",
    ]
    model = tmp_path / "m.rqm"
    assert main(["train", "--out", str(model), *flags]) == 0
    raw = model.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10 : 10 + header_len])
    model_config = [
        ("cell", "lstm"), ("vocab_size", 16), ("embedding_dim", 5), ("hidden_units", 6),
        ("num_layers", 2), ("dropout_p", 0.25),
    ]
    assert list(header["model_config"].items()) == model_config + [("num_classes", 2)]

    report = tmp_path / "cv.json"
    assert main(["crossval", "--folds", "2", "--report", str(report), *flags]) == 0
    config = json.loads(report.read_text("utf-8"))["config"]
    assert list(config) == ["model", "train", "k"]
    assert list(config["model"].items()) == model_config
    assert list(config["train"].items()) == [
        ("learning_rate", 0.02), ("epochs", 1), ("batch_size", 16), ("clip_norm", 2.5),
    ]
    assert config["k"] == 2


# ---------------------------------------------------------------- evaluate


def test_evaluate_writes_predictions_and_report(workdir, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "metrics.json"
    code = main([
        "evaluate", "--model", str(workdir.model), "--input", str(workdir.dataset),
        "--out", str(preds), "--report", str(report),
    ])
    assert code == 0
    lines = preds.read_text("utf-8").splitlines()
    assert len(lines) == 24
    assert set(json.loads(lines[0])) == {"id", "predicted", "prob_positive", "label"}
    metrics = json.loads(report.read_text("utf-8"))
    assert 0.0 <= metrics["accuracy"] <= 1.0
    stdout = capsys.readouterr().out
    assert stdout.startswith("singular: accuracy")
    assert "on 24 labeled requirements" in stdout


def test_evaluate_without_out_prints_only(workdir, capsys):
    code = main(["evaluate", "--model", str(workdir.model), "--input", str(workdir.dataset)])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out


def test_evaluate_property_mismatch_exits_2(workdir, capsys):
    code = main([
        "evaluate", "--model", str(workdir.model), "--input", str(workdir.dataset),
        "--property", "complete",
    ])
    assert code == 2
    assert "trained for property" in capsys.readouterr().err


# ---------------------------------------------------------------- predict


def test_predict_single_text(workdir, capsys):
    code = main([
        "predict", "--model", str(workdir.model),
        "--text", "The system shall log events.",
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("singular: ")
    assert ("satisfied" in stdout) or ("violated" in stdout)
    assert "prob_positive" in stdout


def test_predict_text_matches_evaluate_records(workdir, tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    code = main([
        "evaluate", "--model", str(workdir.model), "--input", str(workdir.dataset),
        "--out", str(preds),
    ])
    assert code == 0
    texts = {r.id: r.text for r in load_dataset(workdir.dataset).requirements}
    records = [json.loads(line) for line in preds.read_text("utf-8").splitlines()]
    assert len(records) == len(texts)
    capsys.readouterr()
    for record in records:
        code = main(["predict", "--model", str(workdir.model), "--text", texts[record["id"]]])
        assert code == 0
        verdict = "satisfied" if record["predicted"] else "violated"
        assert capsys.readouterr().out == (
            f"singular: {verdict} (prob_positive {record['prob_positive']:.4f})\n"
        )


def test_predict_text_deeply_nested_exits_0(workdir, capsys):
    code = main(["predict", "--model", str(workdir.model), "--text", "(" * 5000])
    assert code == 0
    assert capsys.readouterr().out.startswith("singular: ")


def test_predict_file(workdir, tmp_path, capsys):
    out = tmp_path / "preds.jsonl"
    code = main([
        "predict", "--model", str(workdir.model),
        "--input", str(workdir.dataset), "--out", str(out),
    ])
    assert code == 0
    assert len(out.read_text("utf-8").splitlines()) == 24
    assert "predicted 24 requirements" in capsys.readouterr().out


def test_predict_file_requires_out(workdir, capsys):
    code = main(["predict", "--model", str(workdir.model), "--input", str(workdir.dataset)])
    assert code == 2
    assert "requires --out" in capsys.readouterr().err


# ---------------------------------------------------------------- crossval


def crossval_args(workdir, report):
    return [
        "crossval", "--input", str(workdir.dataset), "--property", "singular",
        "--folds", "3", "--seed", "42", "--report", str(report),
        "--epochs", "2", "--units", "8", "--embedding", "8",
    ]


def test_crossval_deterministic_report(workdir, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(crossval_args(workdir, a)) == 0
    assert main(crossval_args(workdir, b)) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text("utf-8"))
    assert set(report) == {"property", "config", "folds", "aggregate", "best_fold", "seed"}
    assert report["seed"] == 42
    for i in range(3):
        fold_curve = tmp_path / f"a-fold{i}.csv"
        assert fold_curve.exists()
        assert len(fold_curve.read_text("utf-8").splitlines()) == 3
    stdout = capsys.readouterr().out
    assert "3-fold accuracy" in stdout


def test_crossval_non_utf8_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b'{"id": "a", "text": "The system shall \xff work."}\n')
    code = main([
        "crossval", "--input", str(bad), "--property", "singular",
        "--folds", "2", "--report", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert "error: line 1: not valid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--input", "--model"])
def test_directory_as_path_exits_2(workdir, tmp_path, flag, capsys):
    paths = {"--input": str(workdir.dataset), "--model": str(workdir.model)}
    paths[flag] = str(tmp_path)
    code = main([
        "evaluate", "--model", paths["--model"], "--input", paths["--input"],
        "--out", str(tmp_path / "p.jsonl"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_crossval_too_many_folds_exits_2(workdir, tmp_path, capsys):
    code = main([
        "crossval", "--input", str(workdir.dataset), "--property", "singular",
        "--folds", "50", "--report", str(tmp_path / "r.json"),
        "--epochs", "1", "--units", "4", "--embedding", "4",
    ])
    assert code == 2
    assert "need >= k=50" in capsys.readouterr().err


# ---------------------------------------------------------------- search


def tiny_space(path):
    SearchSpace(
        cell=("gru",), epochs=(1, 2), learning_rate=(0.05,),
        embedding_dim=(8,), num_layers=(1,), num_units=(8,), dropout=(0.0,),
    ).save(path)


def test_search_random_writes_trials(workdir, tmp_path, capsys):
    space = tmp_path / "space.json"
    tiny_space(space)
    trials = tmp_path / "trials.csv"
    code = main([
        "search", "--input", str(workdir.dataset), "--property", "singular",
        "--mode", "random", "--budget", "2", "--eval-mode", "cv:2",
        "--space", str(space), "--trials-out", str(trials), "--seed", "9",
    ])
    assert code == 0
    lines = trials.read_text("utf-8").splitlines()
    assert lines[0].startswith("trial,cell,epochs,lr,")
    assert len(lines) == 3
    assert "best trial" in capsys.readouterr().out


def test_search_exhaustive_rejects_budget(workdir, tmp_path, capsys):
    space = tmp_path / "space.json"
    tiny_space(space)
    code = main([
        "search", "--input", str(workdir.dataset), "--property", "singular",
        "--mode", "exhaustive", "--budget", "2", "--eval-mode", "cv:2",
        "--space", str(space), "--trials-out", str(tmp_path / "t.csv"),
    ])
    assert code == 2
    assert "takes no budget" in capsys.readouterr().err


@pytest.mark.parametrize("axis,value", [
    ("cell", ["rnn"]),
    ("cell", "gru"),
    ("cell", [["gru"]]),
    ("epochs", ["a"]),
    ("epochs", [2.5]),
    ("epochs", 5),
    ("epochs", [True]),
    ("learning_rate", [None]),
    ("learning_rate", ["0.1"]),
    ("dropout", ["x"]),
    ("epochs", [1, 1]),
])
def test_search_space_bad_value_exits_2(workdir, tmp_path, capsys, axis, value):
    space = tmp_path / "space.json"
    tiny_space(space)
    obj = json.loads(space.read_text("utf-8"))
    space.write_text(json.dumps(dict(obj, **{axis: value})), "utf-8")
    trials = tmp_path / "trials.csv"
    code = main([
        "search", "--input", str(workdir.dataset), "--property", "singular",
        "--mode", "exhaustive", "--eval-mode", "cv:2",
        "--space", str(space), "--trials-out", str(trials),
    ])
    assert code == 2
    assert f"error: search space axis {axis!r}" in capsys.readouterr().err
    assert not trials.exists()


@pytest.mark.parametrize("field,value", [("optimizer", "sgd"), ("loss", "hinge")])
def test_search_space_fixed_field_exits_2(workdir, tmp_path, capsys, field, value):
    space = tmp_path / "space.json"
    tiny_space(space)
    obj = json.loads(space.read_text("utf-8"))
    space.write_text(json.dumps(dict(obj, **{field: value})), "utf-8")
    trials = tmp_path / "trials.csv"
    code = main([
        "search", "--input", str(workdir.dataset), "--property", "singular",
        "--mode", "exhaustive", "--eval-mode", "cv:2",
        "--space", str(space), "--trials-out", str(trials),
    ])
    assert code == 2
    assert f"error: search space {field} must be" in capsys.readouterr().err
    assert not trials.exists()


def test_search_space_non_utf8_exits_2(workdir, tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_bytes(b"\xff\xfe{}")
    code = main([
        "search", "--input", str(workdir.dataset), "--property", "singular",
        "--mode", "exhaustive", "--eval-mode", "cv:2", "--space", str(space),
        "--trials-out", str(tmp_path / "trials.csv"),
    ])
    assert code == 2
    assert f"error: search space file {space} is not valid UTF-8" in capsys.readouterr().err


def test_search_missing_input_exits_2(tmp_path, capsys):
    code = main([
        "search", "--input", str(tmp_path / "nope.jsonl"), "--property", "singular",
        "--mode", "random", "--budget", "1",
    ])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv,sizes", [
    (["search", "--mode", "exhaustive", "--eval-mode", "holdout:0.99"], "24 to train and 0"),
    (["search", "--mode", "exhaustive", "--eval-mode", "holdout:0.001"], "0 to train and 24"),
    (["train", "--val-fraction", "0.01", "--epochs", "1"], "24 to train and 0"),
], ids=["search-0.99", "search-0.001", "train-val-0.01"])
def test_holdout_with_an_empty_part_exits_2_before_fitting(workdir, tmp_path, capsys, argv, sizes):
    space = tmp_path / "space.json"
    tiny_space(space)
    out = tmp_path / "out"
    out.mkdir()
    flags = {"search": ["--space", str(space), "--trials-out", str(out / "t.csv")],
             "train": ["--out", str(out / "m.rqm")]}[argv[0]]
    code = main([*argv, "--input", str(workdir.dataset), "--property", "singular", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "split of the 24 requirements labeled for 'singular' leaves " + sizes in err
    assert not any(out.iterdir())


# ---------------------------------------------------------------- gradcheck


@pytest.mark.parametrize("cell,layers", [("gru", "1"), ("lstm", "2")])
def test_gradcheck_passes(cell, layers, capsys):
    code = main(["gradcheck", "--cell", cell, "--layers", layers, "--seed", "4"])
    assert code == 0
    assert capsys.readouterr().out.startswith("pass")


def test_gradcheck_failure_exits_1(monkeypatch, capsys):
    fake = SimpleNamespace(passed=False, summary=lambda: "fail: forced for the exit-code path")
    monkeypatch.setattr("reqqual.cli.gradient_check", lambda *a, **k: fake)
    code = main(["gradcheck", "--cell", "gru"])
    assert code == 1
    assert capsys.readouterr().out.startswith("fail")


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_gradcheck_bad_tolerance_exits_2(tol, capsys):
    code = main(["gradcheck", "--cell", "gru", "--tol", tol])
    assert code == 2
    assert "error: tolerance must be a finite number >= 0" in capsys.readouterr().err


# ---------------------------------------------------------------- file formats

_GOLDEN_PREDICTION = '{"id": "réq-1", "predicted": true, "prob_positive": 0.5, "label": true}\n'

GOLDEN_FILES = {
    "data.jsonl": (
        '{"id": "réq-1", "text": "Le/DT système/NN shall/MD stocker/VB ./.", '
        '"labels": {"singular": true}, "source": "doc-ü"}\n'
    ),
    "encoded.jsonl": (
        '{"id": "réq-1", "ids": [2, 3, 4, 5, 6], "tags": ["DT", "NN", "MD", "VB", "."]}\n'
    ),
    "vocab.json": (
        '{\n  "version": 1,\n  "<PAD>": 0,\n  "<UNK>": 1,\n  "DT": 2,\n  "NN": 3,\n'
        '  "MD": 4,\n  "VB": 5,\n  ".": 6\n}\n'
    ),
    "evaluate.jsonl": _GOLDEN_PREDICTION,
    "predict.jsonl": _GOLDEN_PREDICTION,
    "report.json": (
        '{\n  "precision": 1.0,\n  "recall": 1.0,\n  "accuracy": 1.0,\n  "f1": 1.0,\n'
        '  "mse": 0.25,\n  "counts": {\n    "tp": 1,\n    "tn": 0,\n    "fp": 0,\n'
        '    "fn": 0\n  }\n}\n'
    ),
    "space.json": (
        '{\n  "cell": [\n    "gru"\n  ],\n  "epochs": [\n    1,\n    2\n  ],\n'
        '  "learning_rate": [\n    0.01\n  ],\n  "embedding_dim": [\n    8\n  ],\n'
        '  "num_layers": [\n    1\n  ],\n  "num_units": [\n    4\n  ],\n'
        '  "dropout": [\n    0.0,\n    0.5\n  ],\n  "optimizer": "adam",\n'
        '  "loss": "cross-entropy"\n}\n'
    ),
    "cv.json": """{
  "property": "singular",
  "config": {
    "model": {
      "cell": "gru",
      "vocab_size": 7,
      "embedding_dim": 2,
      "hidden_units": 2,
      "num_layers": 1,
      "dropout_p": 0.0
    },
    "train": {
      "learning_rate": 0.01,
      "epochs": 1,
      "batch_size": 32,
      "clip_norm": 5.0
    },
    "k": 2
  },
  "folds": [
    {
      "precision": 0.5,
      "recall": 1.0,
      "accuracy": 0.75,
      "f1": 0.6666666666666666,
      "mse": 0.25,
      "counts": {
        "tp": 1,
        "tn": 2,
        "fp": 1,
        "fn": 0
      },
      "fold": 0
    },
    {
      "precision": 0.0,
      "recall": 0.0,
      "accuracy": 0.5,
      "f1": 0.0,
      "mse": 0.375,
      "counts": {
        "tp": 0,
        "tn": 2,
        "fp": 0,
        "fn": 2
      },
      "zero_division": [
        "precision",
        "f1"
      ],
      "fold": 1
    }
  ],
  "aggregate": {
    "precision": 0.25,
    "recall": 0.5,
    "accuracy": 0.625,
    "f1": 0.3333333333333333,
    "mse": 0.3125
  },
  "best_fold": {
    "precision": 0.5,
    "recall": 1.0,
    "accuracy": 0.75,
    "f1": 0.6666666666666666,
    "mse": 0.25,
    "counts": {
      "tp": 1,
      "tn": 2,
      "fp": 1,
      "fn": 0
    },
    "fold": 0
  },
  "seed": 3
}
""",
}


def test_writers_golden_bytes(tmp_path):
    """Each JSON and JSONL writer, byte for byte, on one non-ASCII requirement:
    UTF-8 with non-ASCII kept, LF line ends, a final newline, fixed key order."""
    path = {name: str(tmp_path / name) for name in GOLDEN_FILES}
    text = "Le/DT système/NN shall/MD stocker/VB ./."
    requirement = Requirement("réq-1", text, {PropertyName.SINGULAR: True}, "doc-ü")
    save_dataset(Dataset("golden", (requirement,)), path["data.jsonl"])
    assert main([
        "preprocess", "--input", path["data.jsonl"], "--out", path["encoded.jsonl"],
        "--vocab-out", path["vocab.json"], "--tagger", "pretagged",
    ]) == 0
    vocab = TagVocabulary.load(path["vocab.json"])
    config = ModelConfig(cell="gru", vocab_size=vocab.size, embedding_dim=2, hidden_units=2)
    zeros = ParameterSet(config, zero_gradients(config))  # every prob_positive is exactly 0.5
    model = str(tmp_path / "zero.rqm")
    save_model(ModelArtifact(PropertyName.SINGULAR, config, vocab, zeros, "pretagged", 0), model)
    assert main([
        "evaluate", "--model", model, "--input", path["data.jsonl"],
        "--out", path["evaluate.jsonl"], "--report", path["report.json"],
    ]) == 0
    assert main([
        "predict", "--model", model, "--input", path["data.jsonl"], "--out", path["predict.jsonl"],
    ]) == 0
    SearchSpace(
        cell=("gru",), epochs=(1, 2), learning_rate=(0.01,), embedding_dim=(8,),
        num_layers=(1,), num_units=(4,), dropout=(0.0, 0.5),
    ).save(path["space.json"])
    folds = [
        Metrics(0.5, 1.0, 0.75, 2 / 3, 0.25, Confusion(tp=1, tn=2, fp=1, fn=0)),
        Metrics(0.0, 0.0, 0.5, 0.0, 0.375, Confusion(tp=0, tn=2, fp=0, fn=2), ("precision", "f1")),
    ]
    CvResult(
        PropertyName.SINGULAR, config, TrainConfig(learning_rate=0.01, epochs=1), k=2, seed=3,
        folds=folds, aggregate=aggregate_metrics(folds), best_fold=0,
    ).save_json(path["cv.json"])
    written = {name: Path(p).read_bytes() for name, p in path.items()}
    assert written == {name: golden.encode("utf-8") for name, golden in GOLDEN_FILES.items()}


# ---------------------------------------------------------------- parser


# The settable flags of each subcommand, 71 in all.  A change to the CLI surface
# changes this table.
SETTABLE_FLAGS = {
    "preprocess": ["--input", "--out", "--tagger", "--vocab-in", "--vocab-out"],
    "synth": ["--n", "--out", "--rate", "--seed"],
    "train": [
        "--batch-size", "--cell", "--clip-norm", "--curve", "--dropout", "--embedding",
        "--epochs", "--input", "--layers", "--lr", "--out", "--preset", "--property", "--seed",
        "--tagger", "--units", "--val-fraction",
    ],
    "evaluate": ["--input", "--model", "--out", "--property", "--report"],
    "crossval": [
        "--batch-size", "--cell", "--clip-norm", "--dropout", "--embedding", "--epochs",
        "--folds", "--input", "--layers", "--lr", "--preset", "--property", "--report", "--seed",
        "--tagger", "--units",
    ],
    "search": [
        "--batch-size", "--budget", "--clip-norm", "--eval-mode", "--input", "--mode",
        "--objective", "--property", "--seed", "--space", "--tagger", "--trials-out",
    ],
    "predict": ["--input", "--model", "--out", "--text"],
    "gradcheck": [
        "--cell", "--embedding", "--layers", "--length", "--seed", "--tol", "--units", "--vocab",
    ],
}


def test_settable_flags_of_each_subcommand():
    commands = build_parser()._subparsers._group_actions[0].choices  # no public API
    flags = {
        name: sorted(
            option for action in sub._actions if action.dest != "help"
            for option in action.option_strings
        )
        for name, sub in commands.items()
    }
    assert flags == SETTABLE_FLAGS
    assert sum(len(names) for names in flags.values()) == 71


@pytest.mark.parametrize("argv,flag", [
    ("preprocess --input DATA --out NO_DIR --vocab-out OUT", "--out"),
    ("preprocess --input DATA --out OUT --vocab-out NO_DIR", "--vocab-out"),
    ("synth --n 3 --out NO_DIR", "--out"),
    ("train --input DATA --property singular --epochs 1 --out NO_DIR", "--out"),
    ("train --input DATA --property singular --epochs 1 --out OUT --curve NO_DIR", "--curve"),
    ("evaluate --model MODEL --input DATA --out NO_DIR", "--out"),
    ("evaluate --model MODEL --input DATA --report NO_DIR", "--report"),
    ("crossval --input DATA --property singular --folds 2 --report NO_DIR", "--report"),
    ("search --input DATA --property singular --mode exhaustive --eval-mode cv:2 --space SPACE "
     "--trials-out NO_DIR", "--trials-out"),
    ("predict --model MODEL --input DATA --out NO_DIR", "--out"),
], ids=lambda value: value.split()[0])
def test_missing_output_directory_exits_2_before_any_work(workdir, tmp_path, capsys, argv, flag):
    space = tmp_path / "space.json"
    tiny_space(space)
    out = tmp_path / "out"
    out.mkdir()
    paths = {"DATA": workdir.dataset, "MODEL": workdir.model, "SPACE": space,
             "OUT": out / "written", "NO_DIR": tmp_path / "missing" / "written"}
    code = main([str(paths.get(token, token)) for token in argv.split()])
    assert code == 2
    assert f"error: {flag}: directory {tmp_path / 'missing'} does not exist" in capsys.readouterr().err
    assert not any(out.iterdir())
    assert not (tmp_path / "missing").exists()


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_unknown_property_exits_2(workdir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "train", "--input", str(workdir.dataset), "--property", "concise",
            "--out", str(tmp_path / "m.rqm"),
        ])
    assert excinfo.value.code == 2


# Per subcommand: (flags every fuzzed argv keeps: the required ones, and caps that
# keep each run from training a large model or walking the 4032-candidate default
# grid; flags it may drop).
_SIZE_CAPS = ["--epochs", "1", "--units", "2", "--embedding", "2"]
_FUZZ_BASE = {
    "synth": (["--n", "3", "--out", "OUT"], ["--rate", "singular=0.5", "--seed", "1"]),
    "preprocess": (["--input", "DATA", "--out", "OUT"], ["--vocab-out", "OUT"]),
    "train": (
        ["--input", "DATA", "--property", "singular", "--out", "OUT", *_SIZE_CAPS],
        ["--val-fraction", "0.5", "--cell", "lstm"],
    ),
    "evaluate": (["--model", "MODEL", "--input", "DATA"], ["--report", "OUT", "--out", "OUT"]),
    "crossval": (
        ["--input", "DATA", "--property", "singular", "--report", "OUT", *_SIZE_CAPS],
        ["--folds", "2"],
    ),
    "search": (
        ["--input", "DATA", "--property", "singular", "--space", "SPACE", "--trials-out", "OUT"],
        ["--eval-mode", "cv:2", "--mode", "exhaustive"],
    ),
    "predict": (["--model", "MODEL"], ["--text", "The system shall log each request."]),
    "gradcheck": (["--vocab", "4", "--embedding", "2", "--units", "2", "--length", "2"], []),
}
_FUZZ_OUTPUT_FLAGS = {"--out", "--report", "--curve", "--trials-out", "--vocab-out"}
_FUZZ_VALUES = [
    "0", "1", "2", "-1", "0.5", "nan", "inf", "x", "", "cv:2", "holdout:0.5", "holdout:x",
    "bogus=1", "singular=x", "DATA", "MODEL", "VOCAB", "JUNK", "MISSING", "DIR",
]


@st.composite
def _fuzzed_argv(draw, command):
    """A valid base command with some flags dropped and a few of its own flags added."""
    pinned, optional = _FUZZ_BASE[command]
    pairs = [optional[i : i + 2] for i in range(0, len(optional), 2) if draw(st.integers(0, 3))]
    subparser = build_parser()._subparsers._group_actions[0].choices[command]  # no public API
    actions = [a for a in subparser._actions if a.option_strings and a.dest != "help"]
    for action in draw(st.lists(st.sampled_from(actions), max_size=2)):
        if action.option_strings[0] in _FUZZ_OUTPUT_FLAGS:
            values = st.sampled_from(["OUT", "DIR", "NO_DIR"])
        else:
            values = st.sampled_from(_FUZZ_VALUES)
            if action.choices:
                values = st.sampled_from(list(action.choices)) | values
        pairs.append([action.option_strings[0], draw(values)])
    tail = draw(st.sampled_from([[]] * 9 + [["-h"], ["--bogus"], ["stray"]]))
    flags = [token for pair in draw(st.permutations(pairs)) for token in pair]
    return [command, *pinned, *flags, *tail]


@pytest.fixture(scope="module")
def fuzz_paths(workdir):
    root = workdir.root / "fuzz"
    root.mkdir()
    (root / "junk.bin").write_bytes(b"\xff\x00{[")
    SearchSpace(
        cell=("gru", "lstm"), epochs=(1,), learning_rate=(0.01,), embedding_dim=(2,),
        num_layers=(1,), num_units=(2,), dropout=(0.0,),
    ).save(root / "space.json")
    vocab = root / "vocab.json"
    load_model(workdir.model).vocabulary.save(vocab)
    return {
        "DATA": workdir.dataset, "MODEL": workdir.model, "VOCAB": vocab, "DIR": root,
        "SPACE": root / "space.json", "JUNK": root / "junk.bin", "MISSING": root / "missing",
        "OUT": root / "out", "NO_DIR": root / "missing" / "out",
    }


@pytest.mark.parametrize("command", sorted(_FUZZ_BASE))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_0_1_or_2(fuzz_paths, command, data):
    argv = data.draw(_fuzzed_argv(command))
    argv = [str(fuzz_paths[t]) if t in fuzz_paths else t for t in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), argv


def _run_here(argv, capsys):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def _run_fresh(argv):
    """(exit code, stdout, stderr) of the same command in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(reqqual.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "reqqual.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    return done.returncode, done.stdout, done.stderr


def test_one_process_matches_fresh_processes(workdir, tmp_path, capsys):
    """main reuses one parser: synth, bad argv, then predict, as new processes run them."""
    out = tmp_path / "synth.jsonl"
    runs = [
        ["synth", "--n", "6", "--out", str(out), "--seed", "5"],
        ["synth", "--n", "six", "--out", str(out)],
        ["predict", "--model", str(workdir.model), "--text", "The system shall log each request."],
    ]
    here = [(*_run_here(argv, capsys), out.read_bytes()) for argv in runs]
    out.unlink()
    fresh = [(*_run_fresh(argv), out.read_bytes()) for argv in runs]
    assert [result[0] for result in here] == [0, 2, 0]
    assert "invalid int value: 'six'" in here[1][2]
    assert here == fresh
