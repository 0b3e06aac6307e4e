"""Tokenizer, tagger, vocabulary, and encoding tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqqual.corpus import generate_synthetic
from reqqual.errors import ParameterError, StructuralError
from reqqual.textpipe import (
    PAD_ID,
    PAD_TAG,
    TAGSET,
    UNK_ID,
    UNK_TAG,
    EncodedSequence,
    _MEMO_CHUNKS,
    _SUFFIX_RULES,
    RulesTagger,
    TaggerMode,
    TagVocabulary,
    Token,
    build_vocabulary,
    decode,
    encode,
    parse_pretagged,
    tag_text,
    tokenize,
    write_csv,
)


class TestTokenize:
    def test_reference_sentence(self):
        assert tokenize("The system shall respond.") == [
            "The", "system", "shall", "respond", ".",
        ]

    def test_single_token(self):
        assert tokenize("x") == ["x"]

    def test_contraction(self):
        assert tokenize("don't stop") == ["do", "n't", "stop"]

    def test_more_contractions(self):
        assert tokenize("it's the user's choice") == [
            "it", "'s", "the", "user", "'s", "choice",
        ]
        assert tokenize("we'll they're I've I'm he'd") == [
            "we", "'ll", "they", "'re", "I", "'ve", "I", "'m", "he", "'d",
        ]

    def test_cannot_splits(self):
        assert tokenize("The system cannot fail.") == [
            "The", "system", "can", "not", "fail", ".",
        ]

    def test_commas_and_semicolons(self):
        assert tokenize("records, logs; and files") == [
            "records", ",", "logs", ";", "and", "files",
        ]

    def test_numeric_comma_kept(self):
        assert tokenize("within 1,000 ms") == ["within", "1,000", "ms"]

    def test_time_colon_kept(self):
        assert tokenize("at 13:30 daily") == ["at", "13:30", "daily"]

    def test_plain_colon_split(self):
        assert tokenize("as follows: a list") == ["as", "follows", ":", "a", "list"]

    def test_parentheses(self):
        assert tokenize("the value (if any) stored") == [
            "the", "value", "(", "if", "any", ")", "stored",
        ]

    def test_abbreviation_period_kept(self):
        assert tokenize("shown in Fig. 3") == ["shown", "in", "Fig", ".", "3"]
        assert tokenize("the U.S. market") == ["the", "U.S.", "market"]

    def test_ellipsis(self):
        assert tokenize("wait... done") == ["wait", "...", "done"]

    def test_question_and_exclamation(self):
        assert tokenize("Really? Yes!") == ["Really", "?", "Yes", "!"]

    def test_empty_rejected(self):
        for bad in ("", "   "):
            with pytest.raises(ParameterError):
                tokenize(bad)

    def test_tokens_are_contiguous_substrings(self):
        text = "The gateway shall (possibly) retry, then fail-over; see Fig. 2."
        assert "".join(tokenize(text)) == "".join(text.split())

    @given(st.text(min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_reconstruction_property(self, text):
        squeezed = "".join(text.split())
        if not squeezed:
            return
        assert "".join(tokenize(text)) == squeezed

    def test_deterministic(self):
        text = "The system shall store records, logs) and... files."
        assert tokenize(text) == tokenize(text)

    @pytest.mark.parametrize("text, expected", [
        ("(" * 5000, ["("] * 5000),
        ("a," * 3000, ["a", ","] * 3000),
    ], ids=["5000-openers", "3000-commas"])
    def test_long_chunk_splits_without_recursion(self, text, expected):
        assert tokenize(text) == expected


class TestRulesTagger:
    def tag_one(self, word):
        return RulesTagger().tag([word])[0].tag

    def test_modal_lexicon(self):
        assert self.tag_one("shall") == "MD"

    def test_punctuation_self_tags(self):
        tagger = RulesTagger()
        assert tagger.tag(["."])[0].tag == "."
        assert tagger.tag([","])[0].tag == ","
        assert tagger.tag([";"])[0].tag == ":"
        assert tagger.tag(["("])[0].tag == "("

    def test_suffix_rules(self):
        assert self.tag_one("using") == "VBG"
        assert self.tag_one("validated") == "VBD"
        assert self.tag_one("immediately") == "RB"
        assert self.tag_one("encryption") == "NN"
        assert self.tag_one("responsive") == "JJ"
        assert self.tag_one("records") == "NNS"

    def test_numbers(self):
        assert self.tag_one("42") == "CD"
        assert self.tag_one("3.14") == "CD"
        assert self.tag_one("1,000") == "CD"

    def test_proper_nouns(self):
        assert self.tag_one("Redis") == "NNP"
        assert self.tag_one("HTTP") == "NNP"

    def test_modal_context_promotes_verb(self):
        tags = [t.tag for t in RulesTagger().tag(["The", "system", "shall", "log", "errors"])]
        assert tags == ["DT", "NN", "MD", "VB", "NNS"]

    def test_modal_context_skips_adverb(self):
        tags = [t.tag for t in RulesTagger().tag(["shall", "possibly", "validate", "the"])]
        assert tags == ["MD", "RB", "VB", "DT"]

    def test_hedges_are_adverbs(self):
        for hedge in ("possibly", "probably", "perhaps"):
            assert self.tag_one(hedge) == "RB"

    def test_noun_position_not_promoted(self):
        tags = [t.tag for t in RulesTagger().tag(["the", "export", "report"])]
        assert tags[1] == "NN"

    def test_all_outputs_within_tagset(self):
        ds = generate_synthetic(60, seed=4)
        tagger = RulesTagger()
        for req in ds.requirements:
            for token in tagger.tag(tokenize(req.text)):
                assert token.tag in TAGSET, (token.surface, token.tag)

    def test_deterministic(self):
        tokens = tokenize("The scheduler shall archive the transcript using Kafka.")
        a = RulesTagger().tag(tokens)
        b = RulesTagger().tag(tokens)
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            RulesTagger().tag([])

    def test_one_tag_per_token(self):
        tokens = tokenize("The system shall encrypt the payload within 9 seconds.")
        assert len(RulesTagger().tag(tokens)) == len(tokens)


# Pieces that exercise every splitting and tagging rule: punctuation, openers,
# clitics, suffixes, numbers, capitals, modals, "to" and adverbs.
_PIECES = (
    "a", "e", "r", "s", "x", "ing", "ed", "ly", "tion", "able", "ness", "est", "ic", "al",
    "ss", "us", "The", "USA", "Users", "shall", "may", "to", "quickly", "log", "1", "2",
    ".", ",", ";", ":", "(", ")", "[", "}", "'", '"', "`", "!", "?", "%", "$", "#", "&",
    "...", "--", "n't", "'s", "'ll", "“", "’", " ", " ", " ", "\t", "\n",
)


def _outcome(call):
    """(surface, tag) pairs of `call()`, or the type of the exception it raised."""
    try:
        return [(t.surface, t.tag) for t in call()]
    except Exception as exc:  # the three paths must fail alike, whatever the error
        return type(exc)


_SHARED_TAGGER = RulesTagger()  # lives across examples, so its memo fills with earlier ones


class TestChunkMemo:
    @given(st.lists(st.sampled_from(_PIECES), max_size=25).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_memo_matches_fresh_tagging(self, text):
        shared = _outcome(lambda: tag_text(text, TaggerMode.RULES, _SHARED_TAGGER))
        fresh = _outcome(lambda: tag_text(text, TaggerMode.RULES, RulesTagger()))
        direct = _outcome(lambda: RulesTagger().tag(tokenize(text)))
        assert shared == fresh == direct

    def test_memo_stops_growing_at_its_bound(self):
        text = " ".join(f"w{i}," for i in range(_MEMO_CHUNKS + 100))
        tagger = RulesTagger()
        assert tag_text(text, TaggerMode.RULES, tagger) == RulesTagger().tag(tokenize(text))
        assert len(tagger._memo) == _MEMO_CHUNKS
        again = f"w{_MEMO_CHUNKS + 50}, shall w1, to w{_MEMO_CHUNKS + 99},"
        assert tag_text(again, TaggerMode.RULES, tagger) == RulesTagger().tag(tokenize(again))
        assert len(tagger._memo) == _MEMO_CHUNKS

    def test_no_suffix_ends_another(self):
        # the tagger looks up only the last 4, 3 and 2 letters, so one rule at most can match
        assert {len(suffix) for suffix in _SUFFIX_RULES} <= {2, 3, 4}
        for a in _SUFFIX_RULES:
            for b in _SUFFIX_RULES:
                assert a == b or not a.endswith(b), (a, b)

    def test_returned_list_is_the_callers_own(self):
        tagger = RulesTagger()
        first = tag_text("report shall report", TaggerMode.RULES, tagger)
        assert [t.tag for t in first] == ["NN", "MD", "VB"]
        first[0] = Token("x", "SYM")
        first.append(Token("y", "SYM"))
        assert tag_text("report", TaggerMode.RULES, tagger) == [Token("report", "NN")]
        assert tag_text("report shall report", TaggerMode.RULES, tagger) == [
            Token("report", "NN"), Token("shall", "MD"), Token("report", "VB"),
        ]


class TestPretagged:
    def test_passthrough(self):
        tokens = parse_pretagged("system/NN shall/MD respond/VB")
        assert [(t.surface, t.tag) for t in tokens] == [
            ("system", "NN"), ("shall", "MD"), ("respond", "VB"),
        ]

    def test_verbatim_tags_not_checked_against_tagset(self):
        assert parse_pretagged("foo/XYZ")[0].tag == "XYZ"

    def test_missing_tag_names_token(self):
        with pytest.raises(ParameterError, match="respond"):
            parse_pretagged("system/NN respond")

    def test_empty_tag_rejected(self):
        with pytest.raises(ParameterError):
            parse_pretagged("system/")

    def test_surface_with_slash(self):
        token = parse_pretagged("read/write/NN")[0]
        assert token.surface == "read/write"
        assert token.tag == "NN"

    def test_tag_text_dispatch(self):
        rules = tag_text("The system shall respond.", TaggerMode.RULES)
        pre = tag_text("The/DT system/NN", TaggerMode.PRETAGGED)
        assert rules[0].tag == "DT"
        assert pre[1].tag == "NN"


class TestVocabulary:
    def sample_tokens(self):
        return [
            [Token("a", "NN"), Token("b", "MD"), Token("c", "VB")],
            [Token("d", "NN"), Token("e", ".")],
        ]

    def test_reserved_slots_and_first_occurrence_order(self):
        vocab = build_vocabulary(self.sample_tokens())
        assert vocab.tags == (PAD_TAG, UNK_TAG, "NN", "MD", "VB", ".")
        assert vocab.index_of("NN") == 2
        assert vocab.index_of("JJ") == UNK_ID
        assert vocab.size == 6

    def test_counting_example(self):
        vocab = build_vocabulary([[Token("x", t) for t in ("NN", "MD", "VB")]])
        assert vocab.size == 5

    def test_rebuild_identical(self):
        a = build_vocabulary(self.sample_tokens())
        b = build_vocabulary(self.sample_tokens())
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            build_vocabulary([])

    def test_duplicate_tags_rejected(self):
        with pytest.raises(StructuralError):
            TagVocabulary(tags=(PAD_TAG, UNK_TAG, "NN", "NN"))

    def test_reserved_prefix_enforced(self):
        with pytest.raises(StructuralError):
            TagVocabulary(tags=("NN", UNK_TAG))

    def test_json_round_trip(self, tmp_path):
        vocab = build_vocabulary(self.sample_tokens())
        path = tmp_path / "vocab.json"
        vocab.save(path)
        assert TagVocabulary.load(path) == vocab
        obj = json.loads(path.read_text())
        assert obj["version"] == 1
        assert obj["<PAD>"] == 0
        assert obj["NN"] == 2

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"version": 99, "<PAD>": 0, "<UNK>": 1}))
        with pytest.raises(StructuralError, match="version"):
            TagVocabulary.load(path)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_load_rejects_bool_and_float_version(self, tmp_path, version):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"version": version, "<PAD>": 0, "<UNK>": 1}))
        with pytest.raises(StructuralError, match=f"unsupported vocabulary version {version!r}"):
            TagVocabulary.load(path)

    def test_load_rejects_sparse_indices(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"version": 1, "<PAD>": 0, "<UNK>": 1, "NN": 3}))
        with pytest.raises(StructuralError, match="dense"):
            TagVocabulary.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(StructuralError):
            TagVocabulary.load(tmp_path / "none.json")

    def test_load_rejects_deep_nesting(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text("[" * 100_000)  # past the JSON decoder's recursion limit
        with pytest.raises(StructuralError, match="nested too deeply"):
            TagVocabulary.load(path)

    @given(st.dictionaries(
        st.sampled_from(["version", PAD_TAG, UNK_TAG, "NN"]) | st.text(max_size=4),
        st.integers(-1, 4) | st.none() | st.booleans() | st.floats() | st.text(max_size=3)
        | st.lists(st.integers(), max_size=2),
        max_size=6,
    ) | st.lists(st.integers(), max_size=3) | st.text(max_size=5) | st.none() | st.floats())
    @settings(max_examples=200, deadline=None)
    def test_from_json_returns_or_raises_structural_error(self, obj):
        try:
            vocab = TagVocabulary.from_json(obj)
        except StructuralError:
            return
        assert TagVocabulary.from_json(vocab.to_json()) == vocab


class TestEncoding:
    def vocab(self):
        return TagVocabulary(tags=(PAD_TAG, UNK_TAG, "NN", "MD"))

    def test_table_lookup(self):
        seq = encode([Token("a", "NN"), Token("b", "MD")], self.vocab())
        assert seq.ids == (2, 3)

    def test_unknown_maps_to_unk_and_counts(self):
        seq = encode([Token("a", "FW"), Token("b", "NN")], self.vocab())
        assert seq.ids == (UNK_ID, 2)

    def test_round_trip(self):
        vocab = self.vocab()
        tokens = [Token("a", "NN"), Token("b", "MD"), Token("c", "NN")]
        assert decode(encode(tokens, vocab), vocab) == ["NN", "MD", "NN"]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            encode([], self.vocab())

    def test_pad_never_inside_sequence(self):
        with pytest.raises(StructuralError):
            EncodedSequence(ids=(2, PAD_ID, 3))

    def test_length_preservation_full_pipeline(self):
        ds = generate_synthetic(40, seed=21)
        tagger = RulesTagger()
        tagged = [tagger.tag(tokenize(r.text)) for r in ds.requirements]
        vocab = build_vocabulary(tagged)
        for req, tokens in zip(ds.requirements, tagged):
            seq = encode(tokens, vocab)
            assert seq.length == len(tokenize(req.text))

    def test_vocabulary_closure_no_unk_on_training_set(self):
        ds = generate_synthetic(80, seed=22)
        tagger = RulesTagger()
        tagged = [tagger.tag(tokenize(r.text)) for r in ds.requirements]
        vocab = build_vocabulary(tagged)
        for tokens in tagged:
            assert UNK_ID not in encode(tokens, vocab).ids


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, [["epoch", "loss", "cell"], ["1", "", "gru"], ["2", "0.5", "réseau"]])
    assert path.read_bytes() == "epoch,loss,cell\n1,,gru\n2,0.5,réseau\n".encode("utf-8")
