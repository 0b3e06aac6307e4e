"""Model files: one trained binary classifier per quality property.

Layout, all little-endian::

    bytes 0-4   magic "RQRNN"
    byte  5     format version (1)
    bytes 6-9   header length as uint32
    header      UTF-8 JSON: property, model config, tag vocabulary,
                tagger mode, training seed, free-form metadata, and a
                parameter manifest of {name, rows, cols, offset}
                (cols 0 marks a 1-D array; offset counts bytes from the
                start of the payload)
    payload     raw float64 values, manifest order

Round trips are bit-exact: load(save(m)) yields identical parameter
bits, so predictions from a reloaded model match the in-memory model
exactly.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import PropertyName
from .errors import ArtifactError
from .nn import ModelConfig, ParameterSet, parameter_manifest
from .textpipe import TaggerMode, TagVocabulary

MAGIC = b"RQRNN"
FORMAT_VERSION = 1


@dataclass
class ModelArtifact:
    property: PropertyName
    model_config: ModelConfig
    vocabulary: TagVocabulary
    params: ParameterSet
    tagger_mode: TaggerMode
    seed: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.property = PropertyName(self.property)
        self.tagger_mode = TaggerMode(self.tagger_mode)
        if self.model_config != self.params.config:
            raise ArtifactError("artifact model_config does not match its parameters")
        if self.vocabulary.size != self.model_config.vocab_size:
            raise ArtifactError(
                f"vocabulary size {self.vocabulary.size} does not match "
                f"model vocab_size {self.model_config.vocab_size}"
            )


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    manifest = []
    offset = 0
    blobs = []
    for name, arr in artifact.params.arrays.items():
        rows = arr.shape[0]
        cols = arr.shape[1] if arr.ndim == 2 else 0
        manifest.append({"name": name, "rows": rows, "cols": cols, "offset": offset})
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "property": artifact.property.value,
        "model_config": dataclasses.asdict(artifact.model_config),
        "vocabulary": artifact.vocabulary.to_json(),
        "tagger_mode": artifact.tagger_mode.value,
        "seed": artifact.seed,
        "metadata": artifact.metadata,
        "manifest": manifest,
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with Path(path).open("wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<B", FORMAT_VERSION))
        handle.write(struct.pack("<I", len(header_bytes)))
        handle.write(header_bytes)
        for blob in blobs:
            handle.write(blob)


def _header_int(value, what: str) -> int:
    """An integer from the header; bools and floats do not count."""
    if type(value) is not int:
        raise ArtifactError(f"{what} must be an integer, got {value!r}")
    return value


def load_model(path: str | Path) -> ModelArtifact:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"model file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < len(MAGIC) + 5:
        raise ArtifactError(f"model file {path} is truncated before the header")
    if raw[: len(MAGIC)] != MAGIC:
        raise ArtifactError(f"model file {path} does not start with magic {MAGIC!r}")
    pos = len(MAGIC)
    version = raw[pos]
    pos += 1
    if version != FORMAT_VERSION:
        raise ArtifactError(f"unsupported model format version {version}, expected {FORMAT_VERSION}")
    (header_len,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    if len(raw) < pos + header_len:
        raise ArtifactError(f"model file {path} is truncated inside the header")
    try:
        header = json.loads(raw[pos : pos + header_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ArtifactError(f"model header in {path} is not valid JSON") from exc
    pos += header_len

    if not isinstance(header, dict):
        raise ArtifactError(f"model header in {path} is not a JSON object")
    header_version = header.get("format_version")
    if type(header_version) is not int or header_version != FORMAT_VERSION:
        raise ArtifactError(
            f"header format_version {header_version!r} "
            f"does not match container version {FORMAT_VERSION}"
        )
    try:
        config = ModelConfig(**header["model_config"])
        vocabulary = TagVocabulary.from_json(header["vocabulary"])
        prop = PropertyName(header["property"])
        mode = TaggerMode(header["tagger_mode"])
        seed = header["seed"]
        metadata = header.get("metadata", {})
        manifest = header["manifest"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"model header in {path} is malformed: {exc}") from exc
    _header_int(seed, "header seed")
    if not isinstance(metadata, dict):
        raise ArtifactError(f"header metadata in {path} is not a JSON object")
    if not isinstance(manifest, list) or not all(isinstance(m, dict) for m in manifest):
        raise ArtifactError(f"parameter manifest in {path} is not a list of objects")
    # every layer owns manifest entries; this bounds the manifest built below
    if config.num_layers > len(manifest):
        raise ArtifactError(
            f"model_config num_layers {config.num_layers!r} does not fit a manifest "
            f"of {len(manifest)} entries"
        )

    expected = parameter_manifest(config)
    if [m.get("name") for m in manifest] != [name for name, _ in expected]:
        raise ArtifactError("parameter manifest does not match the model configuration")

    payload = raw[pos:]
    arrays: dict[str, np.ndarray] = {}
    offset_check = 0
    for entry, (name, shape) in zip(manifest, expected):
        rows, cols, offset = (
            _header_int(entry.get(key), f"parameter {name!r} {key}")
            for key in ("rows", "cols", "offset")
        )
        declared = (rows,) if cols == 0 else (rows, cols)
        if declared != shape:
            raise ArtifactError(f"parameter {name!r} declares shape {declared}, expected {shape}")
        if offset != offset_check:
            raise ArtifactError(
                f"parameter {name!r} declares offset {offset}, expected {offset_check}"
            )
        count = rows * (cols if cols else 1)
        nbytes = count * 8
        if len(payload) < offset_check + nbytes:
            raise ArtifactError(
                f"payload truncated at parameter {name!r}: need {offset_check + nbytes} bytes, "
                f"have {len(payload)}"
            )
        flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset_check)
        arrays[name] = flat.astype(np.float64).reshape(declared)
        offset_check += nbytes
    if len(payload) != offset_check:
        raise ArtifactError(
            f"payload has {len(payload) - offset_check} trailing bytes beyond the manifest"
        )
    params = ParameterSet(config=config, arrays=arrays)
    return ModelArtifact(
        property=prop,
        model_config=config,
        vocabulary=vocabulary,
        params=params,
        tagger_mode=mode,
        seed=seed,
        metadata=metadata,
    )
