"""Grid enumeration, random/exhaustive search, and shipped presets."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqqual.corpus import PROPERTIES, PropertyName, generate_synthetic
from reqqual.errors import ParameterError, ReqqualError, StructuralError
from reqqual.evaluation import f1_score
from reqqual.nn import CellType, ModelConfig
from reqqual.search import (
    PRESET_REFERENCE_SCORES,
    PRESETS,
    Candidate,
    SearchSpace,
    enumerate_space,
    parse_eval_mode,
    preset_candidate,
    run_search,
)
from reqqual.train import TrainConfig

# ---------------------------------------------------------------- space

TINY = SearchSpace(
    cell=("gru",),
    epochs=(2, 3),
    learning_rate=(0.05,),
    embedding_dim=(8,),
    num_layers=(1,),
    num_units=(8, 12),
    dropout=(0.0,),
)


def test_default_space_size_is_4032():
    space = SearchSpace()
    assert space.size == 7 * 3 * 4 * 2 * 4 * 3 * 2 == 4032
    count, configs = enumerate_space(space)
    assert count == 4032


def test_default_space_axes():
    space = SearchSpace()
    assert space.epochs == (3, 4, 5, 10, 30, 40, 100)
    assert space.learning_rate == (0.1, 0.01, 0.001)
    assert space.embedding_dim == (64, 128, 256, 2048)
    assert space.num_layers == (1, 2)
    assert space.num_units == (64, 128, 256, 1024)
    assert space.dropout == (0.0, 0.1, 0.3)
    assert space.cell == (CellType.LSTM, CellType.GRU)


def test_singleton_space_has_one_config():
    space = SearchSpace(
        cell=("lstm",), epochs=(5,), learning_rate=(0.01,),
        embedding_dim=(16,), num_layers=(1,), num_units=(32,), dropout=(0.1,),
    )
    count, configs = enumerate_space(space)
    assert count == 1
    (only,) = list(configs)
    assert only == Candidate(CellType.LSTM, 5, 0.01, 16, 1, 32, 0.1)


def test_empty_axis_rejected():
    with pytest.raises(ParameterError, match="epochs"):
        SearchSpace(epochs=())


def test_repeated_axis_value_rejected():
    with pytest.raises(ParameterError, match=r"axis 'cell' repeats the value 'gru'$"):
        SearchSpace(cell=("gru", CellType.GRU))
    with pytest.raises(ParameterError, match=r"axis 'epochs' repeats the value 1$"):
        SearchSpace(epochs=(1, 2, 1))


def test_enumeration_matches_indexing():
    count, configs = enumerate_space(TINY)
    listed = list(configs)
    assert count == len(listed) == TINY.size == 4
    assert listed == [TINY.config_at(i) for i in range(count)]


def test_enumeration_is_lexicographic():
    space = SearchSpace(
        cell=("lstm", "gru"), epochs=(1, 2), learning_rate=(0.1,),
        embedding_dim=(8,), num_layers=(1,), num_units=(4,), dropout=(0.0, 0.3),
    )
    _, configs = enumerate_space(space)
    key = [(c.cell.value, c.epochs, c.dropout) for c in configs]
    expected = [
        (cell, ep, dr)
        for cell in ("lstm", "gru")
        for ep in (1, 2)
        for dr in (0.0, 0.3)
    ]
    assert key == expected


def test_config_at_range_checked():
    with pytest.raises(ParameterError, match="out of range"):
        TINY.config_at(TINY.size)
    with pytest.raises(ParameterError, match="out of range"):
        TINY.config_at(-1)


def test_every_enumerated_config_validates():
    # spot check across the full default grid: every candidate yields
    # legal model/train configs
    space = SearchSpace()
    for index in range(0, space.size, 97):
        candidate = space.config_at(index)
        model = candidate.model_config(vocab_size=47)
        train = candidate.train_config(seed=0)
        assert isinstance(model, ModelConfig)
        assert isinstance(train, TrainConfig)
        assert candidate in space


def test_space_json_round_trip(tmp_path):
    path = tmp_path / "space.json"
    TINY.save(path)
    loaded = SearchSpace.load(path)
    assert loaded == TINY

    full = SearchSpace()
    full.save(path)
    assert SearchSpace.load(path) == full


def test_space_json_rejects_unknown_and_missing(tmp_path):
    with pytest.raises(StructuralError, match="unknown"):
        SearchSpace.from_json(dict(TINY.to_json(), banana=[1]))
    obj = TINY.to_json()
    del obj["epochs"]
    with pytest.raises(StructuralError, match="missing"):
        SearchSpace.from_json(obj)
    with pytest.raises(StructuralError, match="JSON object"):
        SearchSpace.from_json([1, 2])


# Scalars near the valid values (cell names, small ints, rates) as well as far off them.
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["gru", "lstm", "GRU", "adam", "cross_entropy", 1, 2, 0.3, 1e308, 2**63])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@given(
    st.fixed_dictionaries(
        {axis: st.lists(_SCALARS, min_size=1, max_size=3) | _JSON for axis in TINY.to_json()},
        optional={"banana": _JSON},
    )
    | st.sampled_from(sorted(TINY.to_json())).flatmap(
        lambda key: _JSON.map(lambda value: dict(TINY.to_json(), **{key: value}))
    )
    | _JSON
)
@settings(max_examples=400, deadline=None)
def test_space_from_json_loads_or_raises_reqqual_error(obj):
    """`--space` JSON of any shape builds a space or raises ReqqualError, nothing else."""
    try:
        space = SearchSpace.from_json(obj)
    except ReqqualError:
        return
    assert SearchSpace.from_json(space.to_json()) == space


# ---------------------------------------------------------------- presets


def test_presets_cover_all_properties():
    assert set(PRESETS) == set(PROPERTIES)
    assert set(PRESET_REFERENCE_SCORES) == set(PROPERTIES)


def test_preset_values_verbatim():
    assert preset_candidate(PropertyName.COMPLETE) == Candidate(
        CellType.GRU, 5, 0.01, 64, 1, 256, 0.0
    )
    assert preset_candidate("singular") == Candidate(CellType.GRU, 40, 0.01, 128, 1, 64, 0.3)
    assert preset_candidate(PropertyName.APPROPRIATE) == Candidate(
        CellType.GRU, 100, 0.001, 2048, 1, 1024, 0.3
    )
    assert preset_candidate(PropertyName.CORRECT) == Candidate(
        CellType.GRU, 4, 0.01, 128, 1, 64, 0.0
    )


def test_presets_are_members_of_default_space():
    space = SearchSpace()
    for prop in PROPERTIES:
        assert preset_candidate(prop) in space


def test_preset_candidate_builds_configs():
    candidate = preset_candidate(PropertyName.COMPLETE)
    model, train = candidate.model_config(47), candidate.train_config(seed=3)
    assert model.cell is CellType.GRU
    assert model.vocab_size == 47
    assert model.embedding_dim == 64
    assert model.hidden_units == 256
    assert model.num_layers == 1
    assert model.dropout_p == 0.0
    assert train.learning_rate == 0.01
    assert train.epochs == 5
    assert train.seed == 3


def test_reference_scores_f1_consistent():
    for prop, scores in PRESET_REFERENCE_SCORES.items():
        recomputed = f1_score(scores["precision"], scores["recall"])
        assert recomputed == pytest.approx(scores["f1"], abs=0.01), prop


# ---------------------------------------------------------------- eval mode


def test_parse_eval_mode():
    assert parse_eval_mode("cv:5") == ("cv", 5)
    assert parse_eval_mode("cv") == ("cv", 10)
    assert parse_eval_mode("holdout:0.75") == ("holdout", 0.75)
    assert parse_eval_mode("holdout") == ("holdout", 0.8)
    with pytest.raises(ParameterError, match="eval mode"):
        parse_eval_mode("bootstrap:3")
    with pytest.raises(ParameterError, match="integer"):
        parse_eval_mode("cv:many")
    with pytest.raises(ParameterError, match="number"):
        parse_eval_mode("holdout:half")


# ---------------------------------------------------------------- run_search

DATA = generate_synthetic(36, seed=17)


def small_search(**kwargs):
    defaults = dict(
        dataset=DATA,
        prop=PropertyName.SINGULAR,
        space=TINY,
        mode="exhaustive",
        eval_mode="cv:2",
        objective="accuracy",
        seed=5,
    )
    defaults.update(kwargs)
    return run_search(**defaults)


def test_exhaustive_visits_all():
    report = small_search()
    assert len(report.trials) == TINY.size
    assert [t.index for t in report.trials] == list(range(TINY.size))
    assert [t.candidate for t in report.trials] == [
        TINY.config_at(i) for i in range(TINY.size)
    ]


def test_best_is_argmax_with_low_index_ties():
    report = small_search()
    objectives = [t.objective for t in report.trials]
    assert report.best.objective == max(objectives)
    assert report.best_index == objectives.index(max(objectives))


def test_trial_scores_populated():
    report = small_search()
    for trial in report.trials:
        assert set(trial.scores) == {"precision", "recall", "accuracy", "f1", "mse"}
        assert trial.seconds >= 0.0
        assert trial.candidate in TINY


def test_random_mode_deterministic():
    a = small_search(mode="random", budget=3)
    b = small_search(mode="random", budget=3)
    assert [t.candidate for t in a.trials] == [t.candidate for t in b.trials]
    assert [t.scores for t in a.trials] == [t.scores for t in b.trials]
    assert a.best_index == b.best_index


def test_random_mode_samples_without_replacement():
    report = small_search(mode="random", budget=TINY.size)
    candidates = [t.candidate for t in report.trials]
    assert len(set(candidates)) == TINY.size
    # budget = size visits exactly the exhaustive set, as a set
    assert set(candidates) == {TINY.config_at(i) for i in range(TINY.size)}


def test_random_budget_validation():
    with pytest.raises(ParameterError, match="exceeds the space size"):
        small_search(mode="random", budget=TINY.size + 1)
    with pytest.raises(ParameterError, match="budget must be >= 1"):
        small_search(mode="random", budget=0)
    with pytest.raises(ParameterError, match="requires a budget"):
        small_search(mode="random", budget=None)


def test_exhaustive_rejects_budget():
    with pytest.raises(ParameterError, match="takes no budget"):
        small_search(mode="exhaustive", budget=2)


def test_bad_mode_and_objective():
    with pytest.raises(ParameterError, match="mode must be"):
        small_search(mode="simulated-annealing", budget=None)
    with pytest.raises(ParameterError, match="objective must be"):
        small_search(objective="vibes")


def test_mse_objective_negated():
    report = small_search(objective="mse")
    for trial in report.trials:
        assert trial.objective == -trial.scores["mse"]
    assert report.best.objective == max(t.objective for t in report.trials)
    assert report.best.scores["mse"] == min(t.scores["mse"] for t in report.trials)


def test_holdout_eval_mode():
    report = small_search(eval_mode="holdout:0.75")
    assert len(report.trials) == TINY.size
    for trial in report.trials:
        assert 0.0 <= trial.scores["accuracy"] <= 1.0


def test_trials_csv_format(tmp_path):
    report = small_search(mode="random", budget=2)
    path = tmp_path / "trials.csv"
    report.save_trials_csv(path)
    lines = path.read_text("utf-8").splitlines()
    assert lines[0] == (
        "trial,cell,epochs,lr,embedding,layers,units,dropout,"
        "precision,recall,accuracy,f1,mse,seconds"
    )
    assert len(lines) == 3
    for i, line in enumerate(lines[1:]):
        cols = line.split(",")
        assert len(cols) == 14
        assert cols[0] == str(i)
        assert cols[1] in ("lstm", "gru")
        trial = report.trials[i]
        assert float(cols[8]) == trial.scores["precision"]
        assert float(cols[12]) == trial.scores["mse"]
        assert math.isclose(float(cols[13]), trial.seconds, abs_tol=5e-4)


def test_summary_mentions_best():
    report = small_search()
    text = report.summary()
    assert f"best trial {report.best_index}" in text
    assert "accuracy=" in text


def test_keep_results_attaches_cv_results():
    report = small_search(keep_results=True)
    assert all(t.result is not None for t in report.trials)
    assert report.trials[0].result.k == 2
