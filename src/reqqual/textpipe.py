"""Text to network input: tokenizer, POS tagger, tag vocabulary, encoding.

The classifier never sees words.  Each requirement is tokenized, every
token gets a Penn-Treebank-style part-of-speech tag, and the tag string
is looked up in a :class:`TagVocabulary` to produce the integer sequence
the embedding layer consumes.  Index 0 is reserved for padding and index
1 for unknown tags, so real tags start at 2.

Two tagger modes ship:

``rules``
    A deterministic lexicon + suffix-rule tagger with a small bundled
    word list (``data/tag_lexicon.json``).  It has no external runtime
    dependencies and is exactly reproducible, which matters more here
    than squeezing out the last few points of tagging accuracy: the
    classifier is trained on whatever consistent tag stream it is given.

``pretagged``
    Pass-through for input that was tagged elsewhere, written as
    whitespace-separated ``surface/TAG`` pairs.  Use this to substitute
    a high-accuracy statistical tagger.
"""

from __future__ import annotations

import enum
import functools
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ParameterError, StructuralError

# Closed tagset: the 36 Penn Treebank word classes plus 9 punctuation tags.
TAGSET: frozenset[str] = frozenset({
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
    "NN", "NNP", "NNPS", "NNS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
    "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
    "VBZ", "WDT", "WP", "WP$", "WRB",
    ".", ",", ":", "(", ")", "``", "''", "$", "#",
})

PAD_TAG = "<PAD>"
UNK_TAG = "<UNK>"
PAD_ID = 0
UNK_ID = 1


class TaggerMode(str, enum.Enum):
    RULES = "rules"
    PRETAGGED = "pretagged"


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    tag: str

    def __post_init__(self):
        if not self.surface:
            raise ParameterError("token surface must be non-empty")
        if not self.tag:
            raise ParameterError(f"token {self.surface!r} has an empty tag")


# --- tokenizer --------------------------------------------------------------

# Words the Treebank convention splits into two tokens, at the given offset.
_SPLIT_WORDS = {
    "cannot": 3, "gimme": 3, "gonna": 3, "gotta": 3, "lemme": 3, "wanna": 3,
}

_OPENERS = set("([{<“‘")
_TRAIL_ALWAYS = set(")]}>!?%”’'\"")
_LONG_SUFFIXES = ("'ll", "'re", "'ve")
_SHORT_SUFFIXES = ("'s", "'m", "'d")


def _split_once(s: str) -> list[tuple[str, bool]]:
    """One splitting step: the parts of `s` in order, as (text, is_final_token)."""
    if not s:
        return []
    if len(s) == 1:
        return [(s, True)]
    low = s.lower()
    if low in _SPLIT_WORDS:
        cut = _SPLIT_WORDS[low]
        return [(s[:cut], True), (s[cut:], True)]
    if s[0] in _OPENERS or (s[0] in "'\"`" and s[1].isalnum() and len(s) > 2):
        return [(s[0], True), (s[1:], False)]
    if s.endswith("..."):
        return [(s[:-3], False), ("...", True)]
    if s[-1] in _TRAIL_ALWAYS:
        return [(s[:-1], False), (s[-1], True)]
    if s.endswith(".") and "." not in s[:-1]:
        return [(s[:-1], False), (".", True)]
    for i, ch in enumerate(s):
        if ch in ",:" and 0 < i < len(s) - 1 and s[i - 1].isdigit() and s[i + 1].isdigit():
            continue  # "1,000" and "12:30" stay one token
        if ch in "()[]{};,:":
            return [(s[:i], False), (ch, True), (s[i + 1:], False)]
    if "--" in s:
        i = s.index("--")
        return [(s[:i], False), ("--", True), (s[i + 2:], False)]
    if low.endswith("n't") and len(s) > 3:
        return [(s[:-3], False), (s[-3:], True)]
    for suffix in _LONG_SUFFIXES:
        if low.endswith(suffix) and len(s) > 3:
            return [(s[:-3], False), (s[-3:], True)]
    for suffix in _SHORT_SUFFIXES:
        if low.endswith(suffix) and len(s) > 2:
            return [(s[:-2], False), (s[-2:], True)]
    return [(s, True)]


def _split_chunk(s: str) -> list[str]:
    """Tokens of one whitespace-free chunk, split with an explicit work stack."""
    tokens: list[str] = []
    stack = [(s, False)]
    while stack:
        part, final = stack.pop()
        if final:
            tokens.append(part)
        else:
            stack.extend(reversed(_split_once(part)))
    return tokens


def _chunks(text: str) -> list[str]:
    """The whitespace-free chunks of `text`; empty or blank text is refused."""
    if not text or not text.strip():
        raise ParameterError("cannot tokenize empty text")
    return text.split()


def tokenize(text: str) -> list[str]:
    """Treebank-style word tokenization by splitting only.

    Every token is a contiguous substring of the input, so joining the
    tokens reproduces the input minus whitespace.  Punctuation is split
    from words, contractions split at the clitic ("don't" -> "do",
    "n't"), sentence-final periods split off, and abbreviation-internal
    periods kept.
    """
    return [token for chunk in _chunks(text) for token in _split_chunk(chunk)]


# --- rules tagger -----------------------------------------------------------

_PUNCT_TAGS = {
    ".": ".", "!": ".", "?": ".",
    ",": ",",
    ":": ":", ";": ":", "...": ":", "--": ":",
    "(": "(", "[": "(", "{": "(",
    ")": ")", "]": ")", "}": ")",
    "``": "``", "`": "``", "“": "``", "‘": "``",
    "''": "''", "'": "''", '"': "''", "”": "''", "’": "''",
    "$": "$", "#": "#",
    "%": "NN", "&": "CC",
}

_NUMBER_RE = re.compile(r"^[+-]?\d+(?:[.,:]\d+)*$")

# suffix -> tag on the lowercased word; no suffix ends another, so at most one matches
_SUFFIX_RULES: dict[str, str] = {
    "ing": "VBG",
    "ed": "VBD",
    "ly": "RB",
    "tion": "NN", "sion": "NN", "ment": "NN", "ness": "NN",
    "ance": "NN", "ence": "NN", "ship": "NN", "ity": "NN",
    "ous": "JJ", "ful": "JJ", "ive": "JJ", "able": "JJ",
    "ible": "JJ", "ic": "JJ", "al": "JJ",
    "est": "JJS",
}

# After a modal or "to", the next open-class word is (re)tagged as a base
# verb; intervening adverbs keep the expectation alive.
_VERB_EXPECT_TRIGGERS = {"MD", "TO"}
_VERB_RETAG = {"NN", "NNS", "NNP", "NNPS", "JJ", "VBD", "VBN", "VBZ", "VBP"}

# Distinct chunks one RulesTagger remembers; later new chunks are tagged afresh.
_MEMO_CHUNKS = 1 << 14


@functools.cache
def _load_lexicon() -> dict[str, str]:
    raw = resources.files("reqqual.data").joinpath("tag_lexicon.json").read_text("utf-8")
    data = json.loads(raw)
    if data.get("version") != 1:
        raise StructuralError(f"unsupported lexicon version {data.get('version')!r}")
    words = data["words"]
    bad = {w: t for w, t in words.items() if t not in TAGSET}
    if bad:
        raise StructuralError(f"lexicon entries outside the tagset: {bad}")
    return words


class RulesTagger:
    """Deterministic POS tagger: lexicon, then shape/suffix rules, then context.
    Reuse one per dataset: `tag_text` remembers up to _MEMO_CHUNKS distinct chunks."""

    def __init__(self):
        self.lexicon = _load_lexicon()  # loaded once, shared by every tagger; never mutated
        self._memo: dict[str, tuple[Token, ...]] = {}

    def _lexical_tag(self, surface: str) -> str:
        if surface in _PUNCT_TAGS:
            return _PUNCT_TAGS[surface]
        if surface in self.lexicon:
            return self.lexicon[surface]
        low = surface.lower()
        if low in self.lexicon:
            return self.lexicon[low]
        if _NUMBER_RE.match(surface):
            return "CD"
        if not any(c.isalnum() for c in surface):
            return "SYM"
        if surface[0].isupper():
            if len(surface) > 1 and surface.isupper():
                return "NNP"
            plural = low.endswith("s") and not low.endswith(("ss", "us", "is"))
            return "NNPS" if plural else "NNP"
        for suffix in (low[-4:], low[-3:], low[-2:]):
            if suffix in _SUFFIX_RULES and len(low) > len(suffix) + 1:
                return _SUFFIX_RULES[suffix]
        if low.endswith("s") and not low.endswith(("ss", "us", "is")) and len(low) > 3:
            return "NNS"
        return "NN"

    def _chunk_tokens(self, chunk: str) -> tuple[Token, ...]:
        """The tokens of one chunk with their lexical tags, from the memo when seen."""
        tokens = self._memo.get(chunk)
        if tokens is None:
            tokens = tuple([Token(s, self._lexical_tag(s)) for s in _split_chunk(chunk)])
            if len(self._memo) < _MEMO_CHUNKS:
                self._memo[chunk] = tokens
        return tokens

    def tag(self, tokens: Sequence[str]) -> list[Token]:
        if not tokens:
            raise ParameterError("cannot tag an empty token list")
        return _retag_verbs([Token(s, self._lexical_tag(s)) for s in tokens])

    def tag_text(self, text: str) -> list[Token]:
        """Equals `self.tag(tokenize(text))`, with each distinct chunk tagged once."""
        return _retag_verbs([t for chunk in _chunks(text) for t in self._chunk_tokens(chunk)])


def _retag_verbs(tokens: list[Token]) -> list[Token]:
    """Retag, in place, the open-class word after a modal or "to" as VB."""
    expect_verb = False
    for k, token in enumerate(tokens):
        tag = token.tag
        if expect_verb and tag != "RB":  # adverbs may sit between modal and verb
            expect_verb = False
            if tag in _VERB_RETAG:
                tokens[k] = Token(token.surface, "VB")
                continue
        if tag in _VERB_EXPECT_TRIGGERS:
            expect_verb = True
    return tokens


def parse_pretagged(text: str) -> list[Token]:
    """Parse whitespace-separated ``surface/TAG`` pairs, tags taken verbatim."""
    if not text or not text.strip():
        raise ParameterError("cannot parse empty pretagged text")
    tokens: list[Token] = []
    for item in text.split():
        surface, sep, tag = item.rpartition("/")
        if not sep or not surface or not tag:
            raise ParameterError(f"pretagged token {item!r} is not of the form surface/TAG")
        tokens.append(Token(surface=surface, tag=tag))
    return tokens


def tag_text(text: str, mode: TaggerMode, tagger: RulesTagger | None = None) -> list[Token]:
    """Tokenize and tag `text` under the given mode; in rules mode this equals
    `tagger.tag(tokenize(text))`, with each distinct chunk tagged once per tagger."""
    mode = TaggerMode(mode)
    if mode is TaggerMode.PRETAGGED:
        return parse_pretagged(text)
    return (tagger or RulesTagger()).tag_text(text)


# --- vocabulary and encoding ------------------------------------------------

VOCAB_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TagVocabulary:
    """Bijective tag <-> index map with reserved PAD=0 and UNK=1 slots."""

    tags: tuple[str, ...]  # position = index; tags[0], tags[1] reserved

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(self.tags))
        if len(self.tags) < 2 or self.tags[0] != PAD_TAG or self.tags[1] != UNK_TAG:
            raise StructuralError(
                f"vocabulary must start with {PAD_TAG!r}, {UNK_TAG!r}; got {self.tags[:2]!r}"
            )
        if len(set(self.tags)) != len(self.tags):
            raise StructuralError("vocabulary tags must be unique")
        object.__setattr__(
            self, "_index", {tag: i for i, tag in enumerate(self.tags)}
        )

    @property
    def size(self) -> int:
        return len(self.tags)

    def index_of(self, tag: str) -> int:
        """Index of `tag`, or UNK_ID when the tag is unknown."""
        return self._index.get(tag, UNK_ID)

    def __contains__(self, tag: str) -> bool:
        return tag in self._index

    def tag_of(self, index: int) -> str:
        if not 0 <= index < self.size:
            raise StructuralError(f"index {index} outside vocabulary of size {self.size}")
        return self.tags[index]

    def to_json(self) -> dict:
        obj: dict = {"version": VOCAB_FORMAT_VERSION}
        obj.update({tag: i for i, tag in enumerate(self.tags)})
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "TagVocabulary":
        if not isinstance(obj, dict):
            raise StructuralError("vocabulary file must hold a JSON object")
        version = obj.get("version")
        if type(version) is not int or version != VOCAB_FORMAT_VERSION:  # true and 1.0 equal 1
            raise StructuralError(
                f"unsupported vocabulary version {version!r}, expected {VOCAB_FORMAT_VERSION}"
            )
        entries = {k: v for k, v in obj.items() if k != "version"}
        if not entries:
            raise StructuralError("vocabulary file has no tag entries")
        for tag, index in entries.items():
            if isinstance(index, bool) or not isinstance(index, int):
                raise StructuralError(f"vocabulary index of {tag!r} is not an integer: {index!r}")
        indices = sorted(entries.values())
        if indices != list(range(len(entries))):
            raise StructuralError(f"vocabulary indices are not dense 0..{len(entries) - 1}")
        by_index = sorted(entries.items(), key=lambda kv: kv[1])
        return cls(tags=tuple(tag for tag, _ in by_index))

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "TagVocabulary":
        return cls.from_json(read_json(path, "vocabulary"))


def write_json(path: str | Path, obj) -> None:
    """Write `obj` as JSON indented by 2: UTF-8, non-ASCII kept, LF, final newline."""
    text = json.dumps(obj, ensure_ascii=False, indent=2) + "\n"
    Path(path).write_text(text, "utf-8", newline="\n")


# json.dumps with any keyword builds a new encoder per call; this one is reused
_JSONL_ENCODER = json.JSONEncoder(ensure_ascii=False)


def write_jsonl(path: str | Path, records: Iterable) -> None:
    """Write one compact JSON document per LF-terminated line, UTF-8, non-ASCII kept."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(_JSONL_ENCODER.encode(record) + "\n")


def write_csv(path: str | Path, rows: Iterable[Sequence[str]]) -> None:
    """Write rows of caller-formatted fields, comma-joined and unquoted: UTF-8, LF."""
    Path(path).write_text("".join(",".join(row) + "\n" for row in rows), "utf-8", newline="\n")


def read_json(path: str | Path, what: str):
    """Parse the JSON document in `path`.

    A missing file, bad UTF-8 or bad JSON raises StructuralError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise StructuralError(f"{what} file not found: {path}")
    try:
        return json.loads(path.read_text("utf-8"))
    except UnicodeDecodeError as exc:
        raise StructuralError(f"{what} file {path} is not valid UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{what} file {path} is not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise StructuralError(f"{what} file {path} is not valid JSON: nested too deeply") from None


def build_vocabulary(tagged: Iterable[Sequence[Token]]) -> TagVocabulary:
    """Vocabulary over every tag used at least once, in first-occurrence order."""
    tags: list[str] = [PAD_TAG, UNK_TAG]
    seen = set(tags)
    empty = True
    for sequence in tagged:
        empty = False
        for token in sequence:
            if token.tag not in seen:
                seen.add(token.tag)
                tags.append(token.tag)
    if empty:
        raise ParameterError("cannot build a vocabulary from an empty collection")
    return TagVocabulary(tags=tuple(tags))


@dataclass(frozen=True)
class EncodedSequence:
    """Non-empty tag-index sequence; PAD never appears in an unpadded sequence."""

    ids: tuple[int, ...]

    def __post_init__(self):
        ids = self.ids
        if type(ids) is not tuple or {*map(type, ids)} != {int}:  # numpy or other int-likes
            object.__setattr__(self, "ids", tuple(map(int, ids)))
        if not self.ids:
            raise StructuralError("encoded sequence must be non-empty")
        if min(self.ids) < 1:
            raise StructuralError("encoded sequence may not contain PAD (0) or negative ids")

    @property
    def length(self) -> int:
        return len(self.ids)


def encode(tokens: Sequence[Token], vocab: TagVocabulary) -> EncodedSequence:
    """Map each token's tag to its vocabulary index, UNK for unseen tags."""
    if not tokens:
        raise ParameterError("cannot encode an empty token list")
    return EncodedSequence(ids=tuple([vocab.index_of(token.tag) for token in tokens]))


def decode(sequence: EncodedSequence, vocab: TagVocabulary) -> list[str]:
    """Tag strings for each id; inverse of encode for fully known tags."""
    return [vocab.tag_of(i) for i in sequence.ids]
