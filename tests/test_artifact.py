"""Model file round trips and corruption handling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqqual.artifact import FORMAT_VERSION, MAGIC, ModelArtifact, load_model, save_model
from reqqual.cli import main
from reqqual.corpus import PropertyName
from reqqual.errors import ArtifactError, ReqqualError
from reqqual.nn import CellType, ModelConfig, ParameterSet, RunMode, forward
from reqqual.numcore import Rng
from reqqual.textpipe import TaggerMode, TagVocabulary

VOCAB = TagVocabulary(("<PAD>", "<UNK>", "DT", "NN", "MD", "VB", "."))


def make_artifact(cell="gru", layers=1, seed=7, metadata=None):
    config = ModelConfig(
        cell=CellType(cell),
        vocab_size=VOCAB.size,
        embedding_dim=6,
        hidden_units=5,
        num_layers=layers,
    )
    params = ParameterSet.initialize(config, Rng(seed))
    return ModelArtifact(
        property=PropertyName.SINGULAR,
        model_config=config,
        vocabulary=VOCAB,
        params=params,
        tagger_mode=TaggerMode.RULES,
        seed=seed,
        metadata={"note": "fixture"} if metadata is None else metadata,
    )


def rewrite_header(path, mutate):
    """Re-serialize the header JSON after applying `mutate`, keep payload.

    `mutate` edits the header in place, or returns a replacement for it.
    """
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10 : 10 + header_len].decode("utf-8"))
    replacement = mutate(header)
    if replacement is not None:
        header = replacement
    new_header = json.dumps(header, ensure_ascii=False).encode("utf-8")
    path.write_bytes(
        raw[:6] + struct.pack("<I", len(new_header)) + new_header + raw[10 + header_len :]
    )


@pytest.mark.parametrize("cell,layers", [("gru", 1), ("lstm", 2)])
def test_round_trip_parameters_bit_exact(tmp_path, cell, layers):
    artifact = make_artifact(cell, layers)
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    loaded = load_model(path)
    for (name, arr), (name2, arr2) in zip(
        artifact.params.arrays.items(), loaded.params.arrays.items()
    ):
        assert name == name2
        assert arr2.dtype == np.float64
        assert np.array_equal(arr, arr2)


def test_round_trip_fields(tmp_path):
    artifact = make_artifact(metadata={"trained_on": "synthetic-n100-seed3", "note": "x"})
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    loaded = load_model(path)
    assert loaded.property is PropertyName.SINGULAR
    assert loaded.tagger_mode is TaggerMode.RULES
    assert loaded.seed == artifact.seed
    assert loaded.metadata == {"trained_on": "synthetic-n100-seed3", "note": "x"}
    assert loaded.vocabulary.tags == VOCAB.tags
    assert loaded.model_config == artifact.model_config


@pytest.mark.parametrize("cell,layers", [("gru", 1), ("lstm", 2)])
def test_round_trip_predictions_bit_exact(tmp_path, cell, layers):
    artifact = make_artifact(cell, layers)
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    loaded = load_model(path)
    rng = Rng(99)
    for _ in range(100):
        length = int(rng.integers(1, 13))
        ids = rng.integers(1, VOCAB.size, size=length)
        before, _ = forward(ids, artifact.params, RunMode.INFER)
        after, _ = forward(ids, loaded.params, RunMode.INFER)
        assert np.array_equal(before, after)


def test_file_layout(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    raw = path.read_bytes()
    assert raw[:5] == MAGIC
    assert raw[5] == FORMAT_VERSION
    (header_len,) = struct.unpack_from("<I", raw, 6)
    header = json.loads(raw[10 : 10 + header_len].decode("utf-8"))
    assert set(header) == {
        "format_version", "property", "model_config", "vocabulary",
        "tagger_mode", "seed", "metadata", "manifest",
    }
    payload = raw[10 + header_len :]
    expected_floats = sum(
        e["rows"] * (e["cols"] if e["cols"] else 1) for e in header["manifest"]
    )
    assert len(payload) == expected_floats * 8


def test_missing_file(tmp_path):
    with pytest.raises(ArtifactError, match="not found"):
        load_model(tmp_path / "nope.rqm")


def test_bad_magic(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="magic"):
        load_model(path)


def test_unsupported_container_version(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    raw = bytearray(path.read_bytes())
    raw[5] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match=r"version 2, expected 1"):
        load_model(path)


def test_truncated_before_header(tmp_path):
    path = tmp_path / "model.rqm"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(ArtifactError, match="truncated before the header"):
        load_model(path)


def test_truncated_inside_header(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ArtifactError, match="truncated inside the header"):
        load_model(path)


def test_header_not_json(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_model(path)


def test_header_nested_too_deeply(tmp_path):
    path = tmp_path / "model.rqm"
    save_model(make_artifact(), path)
    deep = b"[" * 100_000  # past the JSON decoder's recursion limit
    path.write_bytes(path.read_bytes()[:6] + struct.pack("<I", len(deep)) + deep)
    with pytest.raises(ArtifactError, match="not valid JSON"):
        load_model(path)


def test_header_version_mismatch(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)

    def bump(header):
        header["format_version"] = 99

    rewrite_header(path, bump)
    with pytest.raises(ArtifactError, match="format_version 99"):
        load_model(path)


@pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
def test_header_version_must_be_an_integer(tmp_path, capsys, version):
    path = tmp_path / "model.rqm"
    save_model(make_artifact(), path)
    rewrite_header(path, lambda header: dict(header, format_version=version))
    with pytest.raises(ArtifactError, match=f"header format_version {version!r} does not match"):
        load_model(path)
    assert main(["predict", "--model", str(path), "--text", "The system shall log."]) == 2
    assert f"header format_version {version!r}" in capsys.readouterr().err


def test_header_missing_field(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)

    def drop(header):
        del header["property"]

    rewrite_header(path, drop)
    with pytest.raises(ArtifactError, match="malformed"):
        load_model(path)


def test_manifest_name_mismatch(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)

    def rename(header):
        header["manifest"][0]["name"] = "bogus"

    rewrite_header(path, rename)
    with pytest.raises(ArtifactError, match="manifest does not match"):
        load_model(path)


def test_manifest_shape_mismatch(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)

    def grow(header):
        header["manifest"][0]["rows"] += 1

    rewrite_header(path, grow)
    with pytest.raises(ArtifactError, match="declares shape"):
        load_model(path)


def test_manifest_offset_mismatch(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)

    def shift(header):
        header["manifest"][1]["offset"] += 8

    rewrite_header(path, shift)
    with pytest.raises(ArtifactError, match="declares offset"):
        load_model(path)


def test_truncated_payload_reports_byte_counts(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ArtifactError, match=r"payload truncated .* need \d+ bytes, have \d+"):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(ArtifactError, match="4 trailing bytes"):
        load_model(path)


def test_artifact_rejects_mismatched_params():
    config = ModelConfig(cell=CellType.GRU, vocab_size=VOCAB.size, embedding_dim=6, hidden_units=5)
    other = ModelConfig(cell=CellType.GRU, vocab_size=VOCAB.size, embedding_dim=4, hidden_units=5)
    params = ParameterSet.initialize(other, Rng(0))
    with pytest.raises(ArtifactError, match="does not match its parameters"):
        ModelArtifact(
            property=PropertyName.COMPLETE,
            model_config=config,
            vocabulary=VOCAB,
            params=params,
            tagger_mode=TaggerMode.RULES,
            seed=0,
        )


def test_artifact_rejects_vocab_size_mismatch():
    small = TagVocabulary(("<PAD>", "<UNK>", "DT"))
    config = ModelConfig(cell=CellType.GRU, vocab_size=VOCAB.size, embedding_dim=6, hidden_units=5)
    params = ParameterSet.initialize(config, Rng(0))
    with pytest.raises(ArtifactError, match="vocabulary size 3"):
        ModelArtifact(
            property=PropertyName.COMPLETE,
            model_config=config,
            vocabulary=small,
            params=params,
            tagger_mode=TaggerMode.RULES,
            seed=0,
        )


def test_string_enums_coerced():
    artifact = make_artifact()
    again = ModelArtifact(
        property="singular",
        model_config=artifact.model_config,
        vocabulary=artifact.vocabulary,
        params=artifact.params,
        tagger_mode="rules",
        seed=artifact.seed,
    )
    assert again.property is PropertyName.SINGULAR
    assert again.tagger_mode is TaggerMode.RULES


def test_save_accepts_string_path(tmp_path):
    artifact = make_artifact()
    path = tmp_path / "model.rqm"
    save_model(artifact, str(path))
    assert load_model(str(path)).seed == artifact.seed


def _drop_offset(header):
    del header["manifest"][0]["offset"]


def _set_rows(value):
    def mutate(header):
        header["manifest"][0]["rows"] = value
    return mutate


def _set_config(key, value):
    def mutate(header):
        header["model_config"][key] = value
    return mutate


MALFORMED_HEADERS = {
    "header-is-array": lambda header: [1],
    "manifest-of-numbers": lambda header: dict(header, manifest=[1, 2]),
    "manifest-is-string": lambda header: dict(header, manifest="abc"),
    "entry-without-offset": _drop_offset,
    "rows-is-string": _set_rows("x"),
    "rows-is-infinite": _set_rows(float("inf")),
    "rows-is-float": _set_rows(7.0),
    "seed-is-infinite": lambda header: dict(header, seed=float("inf")),
    "seed-is-fraction": lambda header: dict(header, seed=7.9),
    "metadata-is-array": lambda header: dict(header, metadata=[1, 2]),
    "num-layers-is-fraction": _set_config("num_layers", 1.5),
    "hidden-units-is-float": _set_config("hidden_units", 5.0),
    "vocabulary-index-is-bool": lambda header: dict(
        header, vocabulary=dict(header["vocabulary"], **{"<UNK>": True})
    ),
}


@pytest.mark.parametrize("mutate", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_malformed_header_rejected(tmp_path, mutate):
    path = tmp_path / "model.rqm"
    save_model(make_artifact(), path)
    rewrite_header(path, mutate)
    with pytest.raises(ArtifactError):
        load_model(path)


def test_num_layers_checked_before_building_the_manifest(tmp_path):
    path = tmp_path / "model.rqm"
    save_model(make_artifact(), path)
    rewrite_header(path, _set_config("num_layers", 99))
    with pytest.raises(ArtifactError, match="num_layers 99 does not fit a manifest of 9 entries"):
        load_model(path)


def test_malformed_header_exits_2_through_cli(tmp_path, capsys):
    path = tmp_path / "model.rqm"
    save_model(make_artifact(), path)
    rewrite_header(path, MALFORMED_HEADERS["manifest-of-numbers"])
    assert main(["predict", "--model", str(path), "--text", "The system shall log."]) == 2
    assert "parameter manifest" in capsys.readouterr().err


@pytest.fixture(scope="module")
def saved_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.rqm"
    save_model(make_artifact(cell="lstm"), path)
    return path.read_bytes()


@given(
    overwrites=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                        max_size=3),
    keep=st.none() | st.floats(0, 1),
)
@settings(max_examples=300, deadline=None)
def test_corrupted_file_loads_or_raises_reqqual_error(saved_bytes, tmp_path_factory,
                                                      overwrites, keep):
    raw = bytearray(saved_bytes)
    for where, value in overwrites:
        raw[int(where * len(raw))] = value
    if keep is not None:
        raw = raw[: int(keep * len(raw))]
    path = tmp_path_factory.getbasetemp() / "fuzzed.rqm"
    path.write_bytes(bytes(raw))
    try:
        load_model(path)
    except ReqqualError:
        pass
