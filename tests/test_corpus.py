"""Dataset schema, split/fold, and synthetic-generator tests."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reqqual.corpus import (
    PROPERTIES,
    Dataset,
    PropertyName,
    Requirement,
    SignalPlan,
    derive_labels,
    generate_synthetic,
    holdout_split,
    load_dataset,
    make_folds,
    save_dataset,
)
from reqqual.errors import DatasetError, ParameterError


# Strings include lone surrogates, which JSON can carry as \ud800-style escapes.
_STRINGS = st.text(max_size=8) | st.text(
    st.characters(min_codepoint=0xD7FE, max_codepoint=0xE001), max_size=3
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=8,
)
_RECORDS = st.fixed_dictionaries({"id": _STRINGS | _JSON, "text": _STRINGS | _JSON}, optional={
    "source": _STRINGS | _JSON,
    "labels": st.dictionaries(st.sampled_from(["singular", "correct", "terse"]), st.booleans())
    | _JSON,
})
_LINES = _RECORDS.map(json.dumps) | _JSON.map(json.dumps) | st.text(max_size=30)


def make_dataset(n=12, labeled_every=1):
    reqs = []
    for i in range(n):
        labels = {}
        if i % labeled_every == 0:
            labels = {PropertyName.SINGULAR: i % 2 == 0}
        reqs.append(Requirement(id=f"r{i}", text=f"The system shall act {i}.", labels=labels))
    return Dataset("toy", tuple(reqs))


class TestSchema:
    def test_duplicate_ids_rejected(self):
        reqs = (
            Requirement(id="a", text="x"),
            Requirement(id="b", text="y"),
            Requirement(id="a", text="z"),
        )
        with pytest.raises(DatasetError) as err:
            Dataset("dup", reqs)
        assert "'a'" in str(err.value)
        assert "1" in str(err.value) and "3" in str(err.value)

    def test_label_lookup(self):
        req = Requirement(id="a", text="x", labels={PropertyName.COMPLETE: False})
        assert req.labels.get(PropertyName.COMPLETE) is False
        assert req.labels.get(PropertyName.SINGULAR) is None

    def test_labeled_subset_and_unlabeled_count(self):
        ds = make_dataset(n=10, labeled_every=2)
        assert len(ds.labeled(PropertyName.SINGULAR)) == 5
        assert len(ds) - len(ds.labeled(PropertyName.SINGULAR)) == 5
        assert len(ds.labeled(PropertyName.CORRECT)) == 0


class TestFileRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        ds = generate_synthetic(25, seed=3)
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.name == path.stem
        assert loaded.requirements == ds.requirements

    def test_save_is_canonical(self, tmp_path):
        ds = generate_synthetic(10, seed=1)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lines_are_lf_and_utf8(self, tmp_path):
        ds = Dataset("u", (Requirement(id="a", text="Système shall run the job."),))
        path = tmp_path / "u.jsonl"
        save_dataset(ds, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert "Système" in raw.decode("utf-8")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "a", "text": "t"}\n\n{"id": "b", "text": "u"}\n')
        assert len(load_dataset(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nope.jsonl")


class TestFileErrors:
    def write(self, tmp_path, *lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write(tmp_path, '{"id": "a", "text": "t"}', "{broken")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_non_utf8_bytes_name_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": "a", "text": "t"}\n{"id": "b", "text": "caf\xe9"}\n')
        with pytest.raises(DatasetError, match="line 2: not valid UTF-8"):
            load_dataset(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"id": "a", "text": "t", "score": 1}')
        with pytest.raises(DatasetError, match="'score'"):
            load_dataset(path)

    def test_missing_id(self, tmp_path):
        path = self.write(tmp_path, '{"text": "t"}')
        with pytest.raises(DatasetError, match="'id'"):
            load_dataset(path)

    def test_empty_text(self, tmp_path):
        path = self.write(tmp_path, '{"id": "a", "text": "   "}')
        with pytest.raises(DatasetError, match="'text'"):
            load_dataset(path)

    def test_unknown_label_key(self, tmp_path):
        path = self.write(tmp_path, '{"id": "a", "text": "t", "labels": {"terse": true}}')
        with pytest.raises(DatasetError, match="'terse'"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["SINGULAR", "singular ", ""])
    def test_label_key_must_match_a_property_exactly(self, tmp_path, key):
        record = {"id": "a", "text": "t", "labels": {key: True}}
        path = self.write(tmp_path, json.dumps(record))
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        assert str(err.value) == f"line 1: unknown label {key!r} in field 'labels'"

    def test_non_boolean_label(self, tmp_path):
        path = self.write(tmp_path, '{"id": "a", "text": "t", "labels": {"singular": 1}}')
        with pytest.raises(DatasetError, match="singular"):
            load_dataset(path)

    def test_non_string_source(self, tmp_path):
        path = self.write(tmp_path, '{"id": "a", "text": "t", "source": 9}')
        with pytest.raises(DatasetError, match="'source'"):
            load_dataset(path)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = self.write(
            tmp_path, '{"id": "a", "text": "t"}', '{"id": "b", "text": "u"}',
            '{"id": "a", "text": "v"}',
        )
        with pytest.raises(DatasetError) as err:
            load_dataset(path)
        msg = str(err.value)
        assert "lines 1 and 3" in msg

    def test_non_object_record(self, tmp_path):
        path = self.write(tmp_path, '[1, 2]')
        with pytest.raises(DatasetError, match="object"):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["id", "text", "source"])
    def test_lone_surrogate_rejected(self, tmp_path, field):
        record = {"id": "a", "text": "The system shall log.", field: "x\ud800"}
        path = self.write(tmp_path, json.dumps(record))
        with pytest.raises(DatasetError, match=f"field '{field}' holds a lone surrogate"):
            load_dataset(path)

    @given(lines=st.lists(_LINES, max_size=3))
    @example(lines=["[" * 100_000])  # past the JSON decoder's recursion limit
    @settings(max_examples=100, deadline=None)
    def test_any_lines_load_and_save_or_raise_dataset_error(self, tmp_path_factory, lines):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        path.write_text("\n".join(lines), "utf-8")
        try:
            dataset = load_dataset(path)
        except DatasetError:
            return
        save_dataset(dataset, path)  # whatever loads can be written back
        assert load_dataset(path) == dataset


class TestFolds:
    def test_partition_and_sizes(self):
        ds = generate_synthetic(95, seed=5)
        plan = make_folds(ds, PropertyName.SINGULAR, k=10, seed=11)
        sizes = plan.sizes()
        assert sum(sizes) == 95
        assert max(sizes) - min(sizes) <= 1
        all_ids = [rid for f in range(10) for rid in plan.fold_members(f)]
        assert sorted(all_ids) == sorted(r.id for r in ds.requirements)

    def test_complement(self):
        ds = generate_synthetic(20, seed=5)
        plan = make_folds(ds, PropertyName.COMPLETE, k=4, seed=2)
        members = set(plan.fold_members(1))
        rest = set(plan.complement(1))
        assert members | rest == set(plan.assignments)
        assert not members & rest

    def test_deterministic_given_seed(self):
        ds = generate_synthetic(30, seed=6)
        a = make_folds(ds, PropertyName.CORRECT, k=5, seed=9)
        b = make_folds(ds, PropertyName.CORRECT, k=5, seed=9)
        assert a == b

    def test_seed_changes_plan(self):
        ds = generate_synthetic(30, seed=6)
        a = make_folds(ds, PropertyName.CORRECT, k=5, seed=9)
        b = make_folds(ds, PropertyName.CORRECT, k=5, seed=10)
        assert a != b

    def test_property_changes_plan(self):
        ds = generate_synthetic(30, seed=6)
        a = make_folds(ds, PropertyName.SINGULAR, k=5, seed=9)
        b = make_folds(ds, PropertyName.COMPLETE, k=5, seed=9)
        assert a.assignments != b.assignments

    def test_only_labeled_requirements_used(self):
        reqs = [
            Requirement(id=f"r{i}", text="t", labels={PropertyName.SINGULAR: True})
            for i in range(8)
        ] + [Requirement(id="u1", text="t"), Requirement(id="u2", text="t")]
        ds = Dataset("mix", tuple(reqs))
        plan = make_folds(ds, PropertyName.SINGULAR, k=2, seed=0)
        assert set(plan.assignments) == {f"r{i}" for i in range(8)}

    def test_k_validation(self):
        ds = generate_synthetic(10, seed=0)
        with pytest.raises(ParameterError):
            make_folds(ds, PropertyName.SINGULAR, k=1, seed=0)
        with pytest.raises(ParameterError):
            make_folds(ds, PropertyName.SINGULAR, k=11, seed=0)


class TestSplits:
    def test_holdout_sizes_and_partition(self):
        ds = generate_synthetic(47, seed=2)
        train, test = holdout_split(ds, PropertyName.SINGULAR, 0.8, seed=4)
        assert len(train) == round(0.8 * 47)
        assert len(train) + len(test) == 47
        assert not {r.id for r in train.requirements} & {r.id for r in test.requirements}

    def test_holdout_deterministic(self):
        ds = generate_synthetic(20, seed=2)
        a = holdout_split(ds, PropertyName.COMPLETE, 0.75, seed=1)
        b = holdout_split(ds, PropertyName.COMPLETE, 0.75, seed=1)
        assert a == b

    def test_holdout_fraction_validated(self):
        ds = generate_synthetic(10, seed=0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                holdout_split(ds, PropertyName.SINGULAR, bad, seed=0)

    @pytest.mark.parametrize("fraction,train,held", [(0.99, 40, 0), (0.001, 0, 40)])
    def test_holdout_refuses_an_empty_part(self, fraction, train, held):
        # round(fraction * 40) is 40 or 0: one part would be empty
        ds = generate_synthetic(40, seed=0)
        message = f"split of the 40 requirements .* leaves {train} to train and {held} to hold out"
        with pytest.raises(ParameterError, match=message) as err:
            holdout_split(ds, PropertyName.SINGULAR, fraction, seed=0)
        assert f"{fraction:g}/" in str(err.value)

    def test_frozen_memberships(self):
        # the seeded shuffle and the cuts fix which requirements land where
        ds = generate_synthetic(12, seed=4)

        def members(part):
            return [int(r.id.removeprefix("synth-")) for r in part.requirements]

        train, test = holdout_split(ds, PropertyName.COMPLETE, 0.75, seed=7)
        assert (members(train), members(test)) == ([0, 1, 2, 3, 4, 5, 8, 9, 11], [6, 7, 10])
        assert (train.name, test.name) == ("synthetic-n12-seed4-train", "synthetic-n12-seed4-test")
        plan = make_folds(ds, PropertyName.SINGULAR, k=3, seed=7)
        assert list(plan.assignments.values()) == [0, 1, 0, 0, 2, 2, 1, 0, 1, 2, 2, 1]
        assert list(plan.assignments) == [r.id for r in ds.requirements]


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic(40, seed=77)
        b = generate_synthetic(40, seed=77)
        assert a.requirements == b.requirements

    def test_seed_changes_texts(self):
        a = generate_synthetic(40, seed=77)
        b = generate_synthetic(40, seed=78)
        assert [r.text for r in a.requirements] != [r.text for r in b.requirements]

    def test_every_property_labeled(self):
        ds = generate_synthetic(30, seed=1)
        for req in ds.requirements:
            assert set(req.labels) == set(PROPERTIES)

    def test_exact_balance_at_even_n(self):
        ds = generate_synthetic(200, seed=9)
        for prop in PROPERTIES:
            positives = sum(1 for r in ds.requirements if r.labels[prop])
            assert positives == 100

    def test_custom_violation_rate(self):
        plan = SignalPlan(violation_rates={PropertyName.CORRECT: 0.25})
        ds = generate_synthetic(100, seed=9, plan=plan)
        violated = sum(1 for r in ds.requirements if not r.labels[PropertyName.CORRECT])
        assert violated == 25
        # unspecified properties fall back to the 50/50 default
        singular_pos = sum(1 for r in ds.requirements if r.labels[PropertyName.SINGULAR])
        assert singular_pos == 50

    @pytest.mark.parametrize("rates", [
        {"bogus": 0.5},
        {PropertyName.SINGULAR: 1.5},
        {PropertyName.SINGULAR: -0.1},
        {PropertyName.SINGULAR: float("nan")},
        {PropertyName.SINGULAR: "0.5"},
        {PropertyName.SINGULAR: True},
        {"complete": False},
    ])
    def test_invalid_violation_rate_rejected(self, rates):
        with pytest.raises(ParameterError, match="violation rate"):
            SignalPlan(violation_rates=rates)

    def test_ids_and_source(self):
        ds = generate_synthetic(3, seed=0)
        assert [r.id for r in ds.requirements] == ["synth-00000", "synth-00001", "synth-00002"]
        assert all(r.source == "synthetic" for r in ds.requirements)

    def test_labels_rederivable_from_text(self):
        ds = generate_synthetic(300, seed=13)
        for req in ds.requirements:
            assert derive_labels(req.text) == req.labels, req.text

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_labels_rederivable_any_seed(self, seed):
        ds = generate_synthetic(8, seed=seed)
        for req in ds.requirements:
            assert derive_labels(req.text) == req.labels, req.text

    def test_n_validated(self):
        with pytest.raises(ParameterError):
            generate_synthetic(0, seed=1)


class TestDeriveLabels:
    def test_two_modal_clauses_not_singular(self):
        labels = derive_labels("The system shall log errors and shall email admins.")
        assert labels[PropertyName.SINGULAR] is False

    def test_single_clause_with_object_all_satisfied(self):
        labels = derive_labels("The system shall validate the request.")
        assert labels == {p: True for p in PROPERTIES}

    def test_hedge_marks_incorrect_but_not_incomplete(self):
        labels = derive_labels("The system shall possibly validate the request.")
        assert labels[PropertyName.CORRECT] is False
        assert labels[PropertyName.COMPLETE] is True

    def test_missing_object_incomplete(self):
        labels = derive_labels("The system shall validate.")
        assert labels[PropertyName.COMPLETE] is False
        assert labels[PropertyName.SINGULAR] is True

    def test_technology_reference_inappropriate(self):
        labels = derive_labels("The system shall store the record using PostgreSQL.")
        assert labels[PropertyName.APPROPRIATE] is False
        assert labels[PropertyName.COMPLETE] is True

    def test_lowercase_using_phrase_stays_appropriate(self):
        labels = derive_labels("The system shall encrypt the payload using the standard cipher.")
        assert labels[PropertyName.APPROPRIATE] is True
