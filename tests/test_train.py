"""Optimizer, loss, clipping, fit determinism, and gradient-check tests."""

import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reqqual
import reqqual.train as train_mod
from reqqual.errors import ParameterError, TrainingError
from reqqual.numcore import SPLIT_MIN, Rng, blas_threads, row_halves
from reqqual.nn import CellType, ModelConfig, ParameterSet
from reqqual.textpipe import EncodedSequence
from reqqual.train import (
    AdamState,
    EpochRecord,
    GradCheckReport,
    LossCurve,
    TrainConfig,
    adam_update,
    clip_gradients,
    compare_gradients,
    finite_difference_gradients,
    fit,
    gradient_check,
    gradient_norm,
    loss,
)


class TestTrainConfig:
    def test_valid(self):
        TrainConfig(learning_rate=0.01, epochs=5)

    def test_rejections(self):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.0, epochs=5)
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.01, epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.01, epochs=5, batch_size=0)
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=0.01, epochs=5, clip_norm=0.0)
        for bad in (
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
            dict(learning_rate=None),
            dict(learning_rate="0.1"),
            dict(learning_rate=True),
            dict(clip_norm=math.nan),
            dict(clip_norm=math.inf),
            dict(epochs=True),
            dict(epochs=2.5),
            dict(epochs="5"),
            dict(batch_size=True),
            dict(batch_size=8.0),
        ):
            field = next(iter(bad))
            with pytest.raises(ParameterError, match=field):
                TrainConfig(**dict(dict(learning_rate=0.01, epochs=5), **bad))


class TestLoss:
    def test_uniform_gives_ln2(self):
        assert loss(np.array([0.5, 0.5]), 0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_perfect_prediction(self):
        assert loss(np.array([1.0, 0.0]), 0) == 0.0

    def test_quarter_case(self):
        assert loss(np.array([0.25, 0.75]), 1) == pytest.approx(0.2876820724517809, abs=1e-15)

    def test_floor_keeps_loss_finite(self):
        value = loss(np.array([1.0, 0.0]), 1)
        assert value == pytest.approx(-math.log(1e-12), rel=1e-12)
        assert math.isfinite(value)

    def test_bad_class(self):
        with pytest.raises(ParameterError):
            loss(np.array([0.5, 0.5]), 2)


def scalar_setup(theta=1.0):
    params = SimpleNamespace(arrays={"theta": np.array([theta])})
    state = AdamState(m={"theta": np.zeros(1)}, v={"theta": np.zeros(1)})
    return params, state


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        params, state = scalar_setup(theta=0.0)
        cfg = TrainConfig(learning_rate=0.001, epochs=1)
        adam_update(params, {"theta": np.ones(1)}, state, cfg)
        assert abs(abs(params.arrays["theta"][0]) - 0.001) <= 1e-9
        assert state.t == 1

    def test_zero_gradient_is_noop(self):
        params, state = scalar_setup(theta=0.7)
        adam_update(params, {"theta": np.zeros(1)}, state, TrainConfig(learning_rate=0.1, epochs=1))
        assert params.arrays["theta"][0] == 0.7

    def test_scalar_quadratic_converges(self):
        # L = theta^2 / 2, so the gradient is theta itself
        params, state = scalar_setup(theta=1.0)
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        for _ in range(200):
            adam_update(params, {"theta": params.arrays["theta"].copy()}, state, cfg)
        assert abs(params.arrays["theta"][0]) < 0.01

    def test_gradient_scale_invariance_first_step(self):
        updates = []
        for scale in (1.0, 1000.0):
            params, state = scalar_setup(theta=0.0)
            cfg = TrainConfig(learning_rate=0.01, epochs=1)
            adam_update(params, {"theta": np.array([0.3 * scale])}, state, cfg)
            updates.append(params.arrays["theta"][0])
        assert updates[0] * updates[1] > 0  # same direction
        assert abs(updates[0] - updates[1]) / abs(updates[0]) <= 1e-6

    def test_nonfinite_gradient_names_parameter(self):
        params, state = scalar_setup()
        with pytest.raises(TrainingError, match="theta"):
            adam_update(params, {"theta": np.array([np.nan])}, state,
                        TrainConfig(learning_rate=0.1, epochs=1))

    def test_nonfinite_gradient_changes_no_parameter(self):
        params = SimpleNamespace(arrays={"a": np.ones(3), "b": np.ones(2)})
        state = AdamState(m={n: np.zeros(3 - i) for i, n in enumerate("ab")},
                          v={n: np.zeros(3 - i) for i, n in enumerate("ab")})
        with pytest.raises(TrainingError, match="'b'"):
            adam_update(params, {"a": np.ones(3), "b": np.array([1.0, np.inf])}, state,
                        TrainConfig(learning_rate=0.1, epochs=1))
        assert params.arrays["a"].tolist() == [1.0, 1.0, 1.0]
        assert state.t == 0

    @pytest.mark.parametrize("shape", [(3 * train_mod.ADAM_SLICE + 5,), (700, 100), (1031, 1024)],
                             ids=["vector", "matrix", "split-in-halves"])
    def test_sliced_update_equals_whole_tensor_formula(self, shape):
        rng = np.random.default_rng(9)
        theta = rng.normal(size=shape)
        params = SimpleNamespace(arrays={"theta": theta.copy()})
        state = AdamState(m={"theta": np.zeros(shape)}, v={"theta": np.zeros(shape)})
        cfg = TrainConfig(learning_rate=0.01, epochs=1)
        b1, b2, eps = train_mod.ADAM_BETA1, train_mod.ADAM_BETA2, train_mod.ADAM_EPSILON
        m, v = np.zeros(shape), np.zeros(shape)
        for t in (1, 2, 3):
            g = rng.normal(size=shape)
            with blas_threads(1):  # where the helper thread may take a half
                adam_update(params, {"theta": g}, state, cfg)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            c2_root = math.sqrt(1.0 - b2**t)
            theta -= m / (np.sqrt(v) + eps * c2_root) * (cfg.learning_rate * c2_root / (1.0 - b1**t))
        assert theta.size > train_mod.ADAM_SLICE
        assert len(row_halves(params.arrays)) == (2 if theta.size >= SPLIT_MIN else 1)
        np.testing.assert_array_equal(params.arrays["theta"], theta)
        np.testing.assert_array_equal(state.m["theta"], m)
        np.testing.assert_array_equal(state.v["theta"], v)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.one_of(st.tuples(st.integers(1, 40)),
                        st.tuples(st.integers(1, 80), st.integers(1, 700))),
        steps=st.integers(1, 50),
        scale_exp=st.floats(-8, 8),
        tiny=st.booleans(),
        lr=st.sampled_from([1e-4, 1e-3, 0.01, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_step_equals_the_textbook_rule(self, shape, steps, scale_exp, tiny, lr, seed):
        """The folded form against lr * m_hat / (sqrt(v_hat) + eps), step by
        step, within 1e-12 relative; `tiny` makes some entries' v about 1e-60,
        where eps dominates the denominator."""
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(learning_rate=lr, epochs=1)
        b1, b2, eps = train_mod.ADAM_BETA1, train_mod.ADAM_BETA2, train_mod.ADAM_EPSILON
        params = SimpleNamespace(arrays={"theta": np.zeros(shape)})
        state = AdamState(m={"theta": np.zeros(shape)}, v={"theta": np.zeros(shape)})
        damp = np.where(rng.random(shape) < 0.5, 1e-30, 1.0) if tiny else 1.0
        m, v = np.zeros(shape), np.zeros(shape)
        for t in range(1, steps + 1):
            g = rng.normal(size=shape) * 10.0**scale_exp * damp
            params.arrays["theta"][...] = 0.0  # so theta after the call is minus the step
            adam_update(params, {"theta": g}, state, cfg)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            textbook = lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            np.testing.assert_allclose(-params.arrays["theta"], textbook, rtol=1e-12, atol=0,
                                       err_msg=f"step {t}")

    def test_directly_built_state_gets_its_own_scratch(self):
        params, state = scalar_setup(theta=0.0)
        assert state.scratch == []
        cfg = TrainConfig(learning_rate=0.001, epochs=1)
        adam_update(params, {"theta": np.ones(1)}, state, cfg)
        assert [s.shape for s in state.scratch] == [(1,)]
        other_params, other = scalar_setup(theta=0.0)
        adam_update(other_params, {"theta": np.ones(1)}, other, cfg)
        assert not np.shares_memory(state.scratch[0], other.scratch[0])
        assert params.arrays["theta"][0] == other_params.arrays["theta"][0] < 0

    def test_bias_correction_against_manual_two_steps(self):
        params, state = scalar_setup(theta=0.0)
        cfg = TrainConfig(learning_rate=0.5, epochs=1)
        g1, g2 = 0.8, -0.3
        adam_update(params, {"theta": np.array([g1])}, state, cfg)
        adam_update(params, {"theta": np.array([g2])}, state, cfg)
        # manual replay of the update rule
        b1, b2, eps = train_mod.ADAM_BETA1, train_mod.ADAM_BETA2, train_mod.ADAM_EPSILON
        theta, m, v = 0.0, 0.0, 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= cfg.learning_rate * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        assert params.arrays["theta"][0] == pytest.approx(theta, abs=1e-15)


class TestClipping:
    def grads(self, values):
        return {name: np.array(v) for name, v in values.items()}

    def test_scales_down_above_norm(self):
        grads = self.grads({"a": [6.0, 8.0]})  # norm 10
        clip_gradients(grads, 5.0)
        np.testing.assert_allclose(grads["a"], [3.0, 4.0], rtol=0, atol=1e-15)

    def test_identity_below_norm(self):
        grads = self.grads({"a": [3.0, 0.0]})
        clip_gradients(grads, 5.0)
        np.testing.assert_array_equal(grads["a"], [3.0, 0.0])

    def test_norm_capped_and_direction_preserved(self):
        rng = np.random.default_rng(5)
        grads = {f"p{i}": rng.normal(size=(4, 3)) for i in range(3)}
        before = np.concatenate([g.reshape(-1).copy() for g in grads.values()])
        clip_gradients(grads, 1.5)
        after = np.concatenate([g.reshape(-1) for g in grads.values()])
        assert gradient_norm(grads) <= 1.5 + 1e-12
        cosine = before @ after / (np.linalg.norm(before) * np.linalg.norm(after))
        assert abs(cosine - 1.0) <= 1e-12

    def test_split_clip_and_mean_equal_the_whole_tensor_formulas(self):
        rng = np.random.default_rng(2)
        shapes = {"e": (40, 2048), "u": (1024, 512), "w": (512, 1024), "b": (2,)}
        # spread over 8 decades, so another summation order shows in the norm
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, size=shape)
                 for name, shape in shapes.items()}
        assert len(row_halves(grads)) == 2
        expected = {name: g / 32 for name, g in grads.items()}
        with blas_threads(1):  # a threaded BLAS dot sums in another order
            norm = math.sqrt(sum(float(np.vdot(g, g)) for g in expected.values()))
            train_mod._scale_gradients(grads, np.true_divide, 32)
            assert gradient_norm(grads) == norm
            clip_gradients(grads, norm / 3)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, expected[name] * ((norm / 3) / norm), err_msg=name)

    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(st.one_of(st.tuples(st.integers(0, 20_000)),
                                  st.tuples(st.integers(1, 60), st.integers(1, 400))),
                        min_size=1, max_size=4),
        exps=st.tuples(st.floats(-140, 140), st.floats(-140, 140)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_equals_the_sum_of_squares(self, shapes, exps, seed):
        rng = np.random.default_rng(seed)
        lo, hi = sorted(exps)
        grads = {f"p{i}": rng.normal(size=shape) * 10.0 ** rng.uniform(lo, hi, size=shape)
                 for i, shape in enumerate(shapes)}
        expected = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert math.isclose(gradient_norm(grads), expected, rel_tol=1e-12, abs_tol=0.0)

    def test_invalid_norm(self):
        with pytest.raises(ParameterError):
            clip_gradients(self.grads({"a": [1.0]}), 0.0)


class TestLossCurveCsv:
    def test_format(self, tmp_path):
        curve = LossCurve()
        curve.append(EpochRecord(1, 1.0 / 3.0, 0.25, 0.5))
        curve.append(EpochRecord(2, 0.125, None, 1.0))
        path = tmp_path / "curve.csv"
        curve.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,train_acc"
        assert lines[1] == "1,0.33333333333333331,0.25,0.5"
        assert lines[2] == "2,0.125,,1"

    def test_nonfinite_record_rejected(self):
        curve = LossCurve()
        with pytest.raises(TrainingError):
            curve.append(EpochRecord(1, float("nan"), None, 0.5))


def toy_data(n=16, t=4):
    # class 0 sequences repeat token 2, class 1 repeat token 3, with a
    # distractor token 4 sprinkled in
    data = []
    for i in range(n):
        token = 2 if i % 2 == 0 else 3
        seq = [token] * t
        seq[i % t] = 4
        data.append((tuple(seq), 0 if token == 2 else 1))
    return data


def gru_config(vocab=5, n=8, h=16, dropout=0.0):
    return ModelConfig(cell=CellType.GRU, vocab_size=vocab, embedding_dim=n,
                       hidden_units=h, dropout_p=dropout)


class TestFit:
    def test_two_runs_bit_identical(self):
        data = toy_data()
        cfg = TrainConfig(learning_rate=0.01, epochs=4, seed=42)
        params_a, curve_a = fit(data, gru_config(dropout=0.1), cfg)
        params_b, curve_b = fit(data, gru_config(dropout=0.1), cfg)
        assert curve_a == curve_b
        for (name, a), (_, b) in zip(params_a.arrays.items(), params_b.arrays.items()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_encoded_sequences_train_like_their_ids(self):
        data = toy_data()
        encoded = [(EncodedSequence(ids), label) for ids, label in data]
        assert train_mod._validate_data(encoded, "training")[0][0] is encoded[0][0]  # no copy
        cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=5, seed=8)
        params_a, curve_a = fit(data, gru_config(dropout=0.1), cfg, validation=data[:3])
        params_b, curve_b = fit(encoded, gru_config(dropout=0.1), cfg, validation=encoded[:3])
        assert curve_a == curve_b
        for (name, a), (_, b) in zip(params_a.arrays.items(), params_b.arrays.items()):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_seed_changes_outcome(self):
        data = toy_data()
        a = fit(data, gru_config(), TrainConfig(learning_rate=0.01, epochs=2, seed=1))[1]
        b = fit(data, gru_config(), TrainConfig(learning_rate=0.01, epochs=2, seed=2))[1]
        assert a != b

    def test_learns_toy_signal(self):
        data = toy_data()
        cfg = TrainConfig(learning_rate=0.01, epochs=60, seed=3)
        _, curve = fit(data, gru_config(), cfg)
        assert curve.final().train_acc >= 0.9
        assert curve.final().train_loss < curve.records[0].train_loss

    def test_validation_loss_recorded(self):
        data = toy_data()
        cfg = TrainConfig(learning_rate=0.01, epochs=2, seed=5)
        _, curve = fit(data, gru_config(), cfg, validation=data[:4])
        assert all(rec.val_loss is not None for rec in curve.records)
        _, curve_no_val = fit(data, gru_config(), cfg)
        assert all(rec.val_loss is None for rec in curve_no_val.records)

    def test_curve_has_one_record_per_epoch(self):
        data = toy_data(8)
        _, curve = fit(data, gru_config(), TrainConfig(learning_rate=0.01, epochs=7, seed=0))
        assert [rec.epoch for rec in curve.records] == list(range(1, 8))

    def test_empty_train_set_rejected(self):
        with pytest.raises(ParameterError):
            fit([], gru_config(), TrainConfig(learning_rate=0.01, epochs=1))

    def test_bad_label_rejected(self):
        with pytest.raises(ParameterError):
            fit([((2, 3), 2)], gru_config(), TrainConfig(learning_rate=0.01, epochs=1))

    def test_nonfinite_loss_aborts_with_coordinates(self, monkeypatch):
        real = train_mod.forward_batch

        def poisoned(seqs, params, mode, rng):
            probs, trace = real(seqs, params, mode=mode, rng=rng)
            return probs * np.nan, trace

        monkeypatch.setattr(train_mod, "forward_batch", poisoned)
        with pytest.raises(TrainingError, match="epoch 1, batch 1"):
            fit(toy_data(8), gru_config(), TrainConfig(learning_rate=0.01, epochs=1, seed=0))

    @pytest.mark.parametrize("bad, clip_norm, clips", [
        (np.inf, 5.0, True),  # the norm is inf, so clipping scales every gradient
        (np.nan, 5.0, False),  # a NaN norm compares false: clipping does not fire
        (np.inf, None, False),
    ], ids=["inf-clipped", "nan-not-clipped", "inf-no-clipping"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0
    def test_nonfinite_gradient_aborts_before_any_parameter_changes(
        self, monkeypatch, bad, clip_norm, clips
    ):
        real_backward, real_scale = train_mod.backward_batch, train_mod._scale_gradients
        live, before, scaled_by = [], {}, []

        def poisoned(trace, labels, params, out=None):
            live.append(params)
            before.update({name: a.copy() for name, a in params.arrays.items()})
            grads = real_backward(trace, labels, params, out=out)
            grads["layer0.wr"][1, 2] = bad
            return grads

        def spy(grads, ufunc, value):
            scaled_by.append(ufunc)
            real_scale(grads, ufunc, value)

        monkeypatch.setattr(train_mod, "backward_batch", poisoned)
        monkeypatch.setattr(train_mod, "_scale_gradients", spy)
        cfg = TrainConfig(learning_rate=0.01, epochs=1, clip_norm=clip_norm, seed=0)
        with pytest.raises(TrainingError, match="'layer0.wr'"):
            fit(toy_data(8), gru_config(), cfg)
        assert (np.multiply in scaled_by) == clips
        assert len(live) == 1  # the first batch raised
        for name, a in live[0].arrays.items():
            np.testing.assert_array_equal(a, before[name], err_msg=name)


_FIT_SHAPES = {  # the large one has two row halves in Adam, the small one one part
    "small": dict(n=8, h=16),
    "large": dict(n=512, h=512),
}
_FIT_DIGEST = """
import hashlib
from reqqual.nn import CellType, ModelConfig
from reqqual.numcore import blas_threads
from reqqual.train import TrainConfig, fit

def digest(n, h):
    data = [((2 + i % 3, 3, 4, 2 + i % 2), i % 2) for i in range(16)]
    config = ModelConfig(cell=CellType.GRU, vocab_size=5, embedding_dim=n, hidden_units=h)
    with blas_threads(1):
        params, curve = fit(data, config, TrainConfig(learning_rate=0.01, epochs=2,
                                                      batch_size=8, seed=4))
    out = hashlib.sha256(repr(curve).encode())
    for name, a in params.arrays.items():
        out.update(name.encode() + a.tobytes())
    return out.hexdigest()
"""


class TestAdamScratch:
    def test_no_scratch_lives_at_module_level(self):
        def arrays_at_module_level():
            def holds_array(value):
                if isinstance(value, dict):
                    value = list(value.values())
                if isinstance(value, (list, tuple)):
                    return any(isinstance(x, np.ndarray) for x in value)
                return isinstance(value, np.ndarray)

            return sorted(name for name, value in vars(train_mod).items() if holds_array(value))

        assert arrays_at_module_level() == []
        fit(toy_data(8), gru_config(), TrainConfig(learning_rate=0.01, epochs=1, seed=0))
        assert arrays_at_module_level() == []

    def test_fits_of_two_shapes_in_one_process_equal_fresh_processes(self):
        scope: dict = {}
        exec(_FIT_DIGEST, scope)
        in_process = [(name, scope["digest"](**_FIT_SHAPES[name]))
                      for name in ("small", "large", "small")]
        src = str(Path(reqqual.__file__).parents[1])
        fresh = {}
        for name, shape in _FIT_SHAPES.items():
            done = subprocess.run([sys.executable, "-c", _FIT_DIGEST + f"print(digest(**{shape!r}))"],
                                  env=dict(os.environ, PYTHONPATH=src),
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            fresh[name] = done.stdout.strip()
        for name, got in in_process:
            assert got == fresh[name], name


class TestGradientCheck:
    def test_lstm_passes(self):
        config = ModelConfig(cell=CellType.LSTM, vocab_size=6, embedding_dim=3, hidden_units=4)
        report = gradient_check(config, seed=11, tolerance=1e-5)
        assert report.passed, report.summary()
        assert report.max_rel_error <= 1e-5

    def test_gru_passes(self):
        config = ModelConfig(cell=CellType.GRU, vocab_size=6, embedding_dim=3, hidden_units=4)
        report = gradient_check(config, seed=12, tolerance=1e-5)
        assert report.passed, report.summary()

    def test_corrupted_gradient_detected_and_named(self):
        from reqqual.nn import backward, forward

        config = ModelConfig(cell=CellType.LSTM, vocab_size=6, embedding_dim=3, hidden_units=4)
        params = ParameterSet.initialize(config, Rng(11))
        ids = [2, 3, 4]
        _, trace = forward(ids, params)
        analytic = backward(trace, 0, params)
        analytic["layer0.wc"] = analytic["layer0.wc"] * 1.01
        numeric = finite_difference_gradients(params, ids, 0)
        report = compare_gradients(analytic, numeric, tolerance=1e-5)
        assert not report.passed
        assert report.worst_param == "layer0.wc"
        assert "layer0.wc" in report.summary()

    def test_dropout_config_rejected(self):
        config = ModelConfig(cell=CellType.GRU, vocab_size=6, embedding_dim=3,
                             hidden_units=4, dropout_p=0.3)
        with pytest.raises(ParameterError):
            gradient_check(config, seed=0)

    def test_report_summary_mentions_pass(self):
        config = ModelConfig(cell=CellType.GRU, vocab_size=5, embedding_dim=2, hidden_units=3)
        report = gradient_check(config, seed=2)
        assert report.summary().startswith("pass")
