"""Labeled requirement datasets: file schema, splits, folds, synthetic data.

A dataset is an ordered list of requirements stored as JSONL, one record
per line::

    {"id": "r1", "text": "The system shall ...", "labels": {"singular": true}, "source": "doc-3"}

``labels`` is a partial map: a requirement may be labeled for any subset
of the four quality properties, and is silently excluded from training
and evaluation of properties it carries no label for.  Beyond whitespace
trimming no text normalization is applied; writing-style noise is kept
as-is.

The synthetic generator plants per-property textual signals so that the
label of every generated record is re-derivable from its text by the
documented rules in :func:`derive_labels`:

* ``singular`` is violated iff the text contains two or more modal
  clauses (two or more occurrences of the token ``shall``).
* ``complete`` is violated iff some modal clause's verb is not followed
  by a ``the <object>`` noun phrase.
* ``appropriate`` is violated iff the text names an implementation
  technology (``using <CapitalizedName>``).
* ``correct`` is violated iff the text hedges with ``possibly``,
  ``probably``, or ``perhaps``.
"""

from __future__ import annotations

import enum
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DatasetError, ParameterError
from .numcore import Rng
from .textpipe import write_jsonl


class PropertyName(str, enum.Enum):
    """The four per-requirement quality properties this package models."""

    SINGULAR = "singular"
    COMPLETE = "complete"
    APPROPRIATE = "appropriate"
    CORRECT = "correct"


PROPERTIES: tuple[PropertyName, ...] = tuple(PropertyName)
_PROPERTY_OF = {p.value: p for p in PROPERTIES}  # a label key in a file -> its property


@dataclass(frozen=True)
class Requirement:
    """One natural-language requirement with optional per-property labels."""

    id: str
    text: str
    labels: dict[PropertyName, bool] = field(default_factory=dict)
    source: str | None = None


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of requirements with unique ids."""

    name: str
    requirements: tuple[Requirement, ...]

    def __post_init__(self):
        object.__setattr__(self, "requirements", tuple(self.requirements))
        seen: dict[str, int] = {}
        for pos, req in enumerate(self.requirements):
            if req.id in seen:
                raise DatasetError(
                    f"duplicate id {req.id!r} at records {seen[req.id] + 1} and {pos + 1}"
                )
            seen[req.id] = pos

    @classmethod
    def _checked(cls, name: str, requirements: tuple[Requirement, ...]) -> "Dataset":
        """A dataset whose ids the caller has already found unique; no second scan."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "name", name)
        object.__setattr__(dataset, "requirements", requirements)
        return dataset

    def __len__(self) -> int:
        return len(self.requirements)

    def labeled(self, prop: PropertyName) -> list[Requirement]:
        """Requirements carrying a label for `prop`, in dataset order."""
        prop = PropertyName(prop)
        return [r for r in self.requirements if prop in r.labels]


_RECORD_KEYS = {"id", "text", "labels", "source"}


def _parse_record(raw: str, lineno: int) -> Requirement:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise DatasetError(f"line {lineno}: invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise DatasetError(f"line {lineno}: record must be a JSON object")
    extra = set(obj) - _RECORD_KEYS
    if extra:
        raise DatasetError(f"line {lineno}: unknown field {sorted(extra)[0]!r}")
    for key in ("id", "text"):
        if key not in obj:
            raise DatasetError(f"line {lineno}: missing field {key!r}")
        if not isinstance(obj[key], str) or not obj[key].strip():
            raise DatasetError(f"line {lineno}: field {key!r} must be a non-empty string")
    labels_raw = obj.get("labels", {})
    if not isinstance(labels_raw, dict):
        raise DatasetError(f"line {lineno}: field 'labels' must be an object")
    labels: dict[PropertyName, bool] = {}
    for key, value in labels_raw.items():
        prop = _PROPERTY_OF.get(key)
        if prop is None:
            raise DatasetError(f"line {lineno}: unknown label {key!r} in field 'labels'")
        if not isinstance(value, bool):
            raise DatasetError(f"line {lineno}: label {key!r} must be true or false")
        labels[prop] = value
    source = obj.get("source")
    if source is not None and not isinstance(source, str):
        raise DatasetError(f"line {lineno}: field 'source' must be a string")
    for key in ("id", "text", "source"):
        try:
            (obj.get(key) or "").encode("utf-8")  # the writers cannot encode a lone surrogate
        except UnicodeEncodeError:
            raise DatasetError(f"line {lineno}: field {key!r} holds a lone surrogate") from None
    return Requirement(id=obj["id"], text=obj["text"], labels=labels, source=source)


def load_dataset(path: str | Path) -> Dataset:
    """Read a JSONL dataset, named after the file's stem, preserving record order.

    Malformed lines raise :class:`DatasetError` naming the line number and
    offending field; duplicate ids name both line numbers.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"line {lineno}: not valid UTF-8 ({exc.reason})") from None
    requirements: list[Requirement] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        if not raw.strip():
            continue
        req = _parse_record(raw, lineno)
        if req.id in seen:
            raise DatasetError(
                f"duplicate id {req.id!r} at lines {seen[req.id]} and {lineno}"
            )
        seen[req.id] = lineno
        requirements.append(req)
    # file-name bytes that are not UTF-8 become U+FFFD: no writer can encode a lone surrogate
    stem = path.stem.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    return Dataset._checked(stem, tuple(requirements))


def _record_to_json(req: Requirement) -> dict:
    obj: dict = {"id": req.id, "text": req.text}
    obj["labels"] = {p.value: req.labels[p] for p in PROPERTIES if p in req.labels}
    if req.source is not None:
        obj["source"] = req.source
    return obj


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write canonical JSONL (UTF-8, LF); load -> save round-trips byte-for-byte."""
    write_jsonl(path, (_record_to_json(req) for req in dataset.requirements))


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each labeled requirement to one of k test folds."""

    k: int
    assignments: dict[str, int]  # requirement id -> fold index, dataset order

    def fold_members(self, fold: int) -> list[str]:
        return [rid for rid, f in self.assignments.items() if f == fold]

    def complement(self, fold: int) -> list[str]:
        return [rid for rid, f in self.assignments.items() if f != fold]

    def sizes(self) -> list[int]:
        counts = [0] * self.k
        for f in self.assignments.values():
            counts[f] += 1
        return counts


def _shuffled_labeled(
    dataset: Dataset, prop: PropertyName, seed: int
) -> tuple[list[Requirement], Sequence[int]]:
    """The subset labeled for `prop` and its seeded permutation, one stream per property."""
    labeled = dataset.labeled(prop)
    stream = PROPERTIES.index(PropertyName(prop))
    return labeled, Rng(seed, stream=stream).permutation(len(labeled))


def make_folds(dataset: Dataset, prop: PropertyName, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle + round-robin assignment; fold sizes differ by at most 1."""
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    labeled, perm = _shuffled_labeled(dataset, prop, seed)
    if len(labeled) < k:
        raise ParameterError(
            f"{len(labeled)} requirements labeled for {PropertyName(prop).value!r}, need >= k={k}"
        )
    fold_of = {labeled[perm[j]].id: j % k for j in range(len(labeled))}
    assignments = {r.id: fold_of[r.id] for r in labeled}  # dataset order
    return FoldPlan(k=k, assignments=assignments)


def holdout_split(
    dataset: Dataset, prop: PropertyName, train_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Split the labeled subset into train/test, |train| = round(fraction * n), neither empty."""
    if not (0.0 < train_fraction < 1.0):
        raise ParameterError(f"train_fraction must be in (0, 1), got {train_fraction}")
    labeled, perm = _shuffled_labeled(dataset, prop, seed)
    if not labeled:
        raise ParameterError(f"no requirements labeled for {PropertyName(prop).value!r}")
    n = len(labeled)
    cut = int(round(train_fraction * n))
    if not 0 < cut < n:
        raise ParameterError(
            f"a {train_fraction:g}/{1 - train_fraction:g} train/hold-out split of the {n} "
            f"requirements labeled for {PropertyName(prop).value!r} leaves {cut} to train "
            f"and {n - cut} to hold out; both parts must be non-empty"
        )
    return tuple(
        Dataset(f"{dataset.name}-{name}", tuple(labeled[i] for i in sorted(part)))
        for name, part in (("train", perm[:cut]), ("test", perm[cut:]))
    )


# --- synthetic corpus -------------------------------------------------------

_SUBJECT_NOUNS = (
    "system", "application", "service", "gateway", "platform",
    "scheduler", "module", "portal", "server", "controller",
)

_VERB_OBJECTS = (
    ("validate", "request"), ("encrypt", "payload"), ("store", "record"),
    ("display", "dashboard"), ("notify", "administrator"), ("archive", "transcript"),
    ("reject", "duplicate"), ("generate", "summary"), ("parse", "document"),
    ("update", "inventory"), ("compress", "backup"), ("export", "report"),
)

_TECH_NAMES = ("Redis", "PostgreSQL", "Kafka", "OAuth", "Docker", "Java")

HEDGE_WORDS = ("possibly", "probably", "perhaps")

_QUALIFIER_HEADS = ("within", "after", "during")


@dataclass(frozen=True)
class SignalPlan:
    """Fraction of generated records that violates each property."""

    violation_rates: Mapping[PropertyName, float] = field(
        default_factory=lambda: {p: 0.5 for p in PROPERTIES}
    )

    def __post_init__(self):
        rates = {}
        for name, rate in self.violation_rates.items():
            try:
                prop = PropertyName(name)
            except ValueError:
                raise ParameterError(
                    f"violation rate for unknown property {name!r}; "
                    f"expected one of {', '.join(p.value for p in PROPERTIES)}"
                ) from None
            if isinstance(rate, bool) or not (
                isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0  # NaN fails too
            ):
                raise ParameterError(
                    f"violation rate for {prop.value} must lie in [0, 1], got {rate!r}"
                )
            rates[prop] = float(rate)
        object.__setattr__(self, "violation_rates", rates)

    def rate(self, prop: PropertyName) -> float:
        return self.violation_rates.get(PropertyName(prop), 0.5)


def derive_labels(text: str) -> dict[PropertyName, bool]:
    """Re-derive the four labels from the planted textual signals.

    This is the documented rule set the synthetic generator guarantees;
    applying it to arbitrary real-world text yields rule-based guesses,
    not ground truth.
    """
    tokens = [w.strip(".,;:") for w in text.split()]
    tokens = [t for t in tokens if t]
    lower = [t.lower() for t in tokens]

    shall_count = sum(1 for t in lower if t == "shall")
    singular = shall_count < 2

    correct = not any(t in HEDGE_WORDS for t in lower)

    appropriate = True
    for i, t in enumerate(lower):
        if t == "using" and i + 1 < len(tokens) and tokens[i + 1][:1].isupper():
            appropriate = False
            break

    complete = True
    for i, t in enumerate(lower):
        if t != "shall":
            continue
        j = i + 1
        while j < len(lower) and lower[j] in HEDGE_WORDS:
            j += 1
        # lower[j] is the clause verb; a complete clause supplies "the <object>"
        if j + 1 >= len(lower) or lower[j + 1] != "the":
            complete = False
            break

    return {
        PropertyName.SINGULAR: singular,
        PropertyName.COMPLETE: complete,
        PropertyName.APPROPRIATE: appropriate,
        PropertyName.CORRECT: correct,
    }


def _balanced_flags(n: int, rate: float, rng: Rng) -> list[bool]:
    """Exactly round(n * rate) True entries, shuffled; True = violated."""
    n_viol = int(round(n * rate))
    flags = [True] * n_viol + [False] * (n - n_viol)
    perm = rng.permutation(n)
    return [flags[p] for p in perm]


def _pick(rng: Rng, options) -> object:
    return options[int(rng.integers(0, len(options)))]


def generate_synthetic(n: int, seed: int, plan: SignalPlan | None = None) -> Dataset:
    """Deterministically generate `n` fully labeled synthetic requirements.

    Labels follow the planted signals described in the module docstring and
    always agree with :func:`derive_labels` on the generated text.  At the
    default plan each property gets an exact 50/50 split of satisfied and
    violated records.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    plan = plan or SignalPlan()
    rng = Rng(seed, stream=0)
    violated = {p: _balanced_flags(n, plan.rate(p), rng) for p in PROPERTIES}

    requirements = []
    for i in range(n):
        not_singular = violated[PropertyName.SINGULAR][i]
        not_complete = violated[PropertyName.COMPLETE][i]
        not_appropriate = violated[PropertyName.APPROPRIATE][i]
        not_correct = violated[PropertyName.CORRECT][i]

        subject = f"The {_pick(rng, _SUBJECT_NOUNS)}"
        v1 = int(rng.integers(0, len(_VERB_OBJECTS)))
        v2 = (v1 + 1 + int(rng.integers(0, len(_VERB_OBJECTS) - 1))) % len(_VERB_OBJECTS)
        n_clauses = 2 if not_singular else 1

        if not_complete:
            choice = int(rng.integers(0, 3)) if n_clauses == 2 else 0
            drop = {0: (True, False), 1: (False, True), 2: (True, True)}[choice]
        else:
            drop = (False, False)
        if not_correct:
            hedge_word = str(_pick(rng, HEDGE_WORDS))
            hedge_at = int(rng.integers(0, n_clauses))
        else:
            hedge_word, hedge_at = None, -1

        clauses = []
        for c, verb_idx in enumerate((v1, v2)[:n_clauses]):
            verb, obj = _VERB_OBJECTS[verb_idx]
            words = ["shall"]
            if c == hedge_at and hedge_word:
                words.append(hedge_word)
            words.append(verb)
            if not drop[c]:
                words += ["the", obj]
            clauses.append(" ".join(words))

        sentence = f"{subject} {' and '.join(clauses)}"
        if int(rng.integers(0, 2)):
            head = str(_pick(rng, _QUALIFIER_HEADS))
            if head == "within":
                sentence += f" within {int(rng.integers(1, 60))} seconds"
            else:
                sentence += f" {head} startup"
        if not_appropriate:
            sentence += f" using {_pick(rng, _TECH_NAMES)}"
        sentence += "."

        labels = {p: not violated[p][i] for p in PROPERTIES}
        requirements.append(
            Requirement(id=f"synth-{i:05d}", text=sentence, labels=labels, source="synthetic")
        )
    return Dataset(name=f"synthetic-n{n}-seed{seed}", requirements=tuple(requirements))

