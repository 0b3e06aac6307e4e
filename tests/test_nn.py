"""Network tests: cell-equation oracles, BPTT vs finite differences, batching.

The single-step oracles below are deliberately written in plain Python
loops (math.exp, list comprehensions) so they share no code with the
implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqqual.errors import ParameterError, StructuralError
from reqqual.numcore import Rng, softmax
from reqqual.nn import (
    BatchTrace,
    CellState,
    CellType,
    ModelConfig,
    ParameterSet,
    RunMode,
    backward,
    backward_batch,
    embed,
    forward,
    forward_batch,
    gru_step,
    lstm_step,
    parameter_manifest,
    zero_gradients,
)


def _sig(a):
    return 1.0 / (1.0 + math.exp(-a))


def _mv(w, v):
    return [sum(w[r][k] * v[k] for k in range(len(v))) for r in range(len(w))]


def oracle_lstm(x, h_prev, c_prev, p):
    """Straight-line evaluation of the five LSTM update rules."""
    xcat = list(h_prev) + list(x)
    f = [_sig(a + b) for a, b in zip(_mv(p["wf"], xcat), p["bf"])]
    i = [_sig(a + b) for a, b in zip(_mv(p["wi"], xcat), p["bi"])]
    o = [_sig(a + b) for a, b in zip(_mv(p["wo"], xcat), p["bo"])]
    g = [math.tanh(a + b) for a, b in zip(_mv(p["wc"], xcat), p["bc"])]
    c = [fj * cj + ij * gj for fj, cj, ij, gj in zip(f, c_prev, i, g)]
    h = [oj * math.tanh(cj) for oj, cj in zip(o, c)]
    return h, c


def oracle_gru(x, h_prev, p):
    """Straight-line evaluation of the four GRU update rules (no biases)."""
    z = [_sig(a + b) for a, b in zip(_mv(p["uz"], x), _mv(p["wz"], h_prev))]
    r = [_sig(a + b) for a, b in zip(_mv(p["ur"], x), _mv(p["wr"], h_prev))]
    q = [hj * rj for hj, rj in zip(h_prev, r)]
    s = [math.tanh(a + b) for a, b in zip(_mv(p["us"], x), _mv(p["ws"], q))]
    return [(1.0 - zj) * sj + zj * hj for zj, sj, hj in zip(z, s, h_prev)]


def random_lstm_layer(rng, h, n):
    u = lambda *shape: rng.standard_normal(shape) * 0.6
    return {
        "wf": u(h, h + n), "bf": u(h), "wi": u(h, h + n), "bi": u(h),
        "wo": u(h, h + n), "bo": u(h), "wc": u(h, h + n), "bc": u(h),
    }


def random_gru_layer(rng, h, n):
    u = lambda *shape: rng.standard_normal(shape) * 0.6
    return {"uz": u(h, n), "wz": u(h, h), "ur": u(h, n), "wr": u(h, h),
            "us": u(h, n), "ws": u(h, h)}


class TestLstmStep:
    def test_matches_oracle_on_100_random_instances(self):
        rng = np.random.default_rng(101)
        for trial in range(100):
            h = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            layer = random_lstm_layer(rng, h, n)
            x = rng.uniform(-1, 1, n)
            h_prev = rng.uniform(-1, 1, h)
            c_prev = rng.uniform(-1, 1, h)
            state = lstm_step(x, CellState(h=h_prev, c=c_prev), layer)
            oh, oc = oracle_lstm(x.tolist(), h_prev.tolist(), c_prev.tolist(), layer)
            np.testing.assert_allclose(state.h, oh, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.c, oc, rtol=0, atol=1e-12)

    def test_zero_weights_closed_form(self):
        h, n = 3, 2
        layer = {k: np.zeros_like(v) for k, v in random_lstm_layer(np.random.default_rng(0), h, n).items()}
        state = lstm_step(np.ones(n), CellState(h=np.zeros(h), c=np.zeros(h)), layer)
        np.testing.assert_array_equal(state.c, np.zeros(h))
        np.testing.assert_array_equal(state.h, np.zeros(h))

    def test_saturated_forget_gate_preserves_memory(self):
        h, n = 3, 2
        layer = {k: np.zeros_like(v) for k, v in random_lstm_layer(np.random.default_rng(0), h, n).items()}
        layer["bf"] = np.full(h, 60.0)
        c_star = np.array([0.4, -1.2, 2.0])
        state = lstm_step(np.ones(n), CellState(h=np.zeros(h), c=c_star), layer)
        np.testing.assert_allclose(state.c, c_star, rtol=1e-12)

    def test_gates_at_zero_are_half(self):
        # with zero weights each gate's pre-activation is 0, so sigmoid gives 0.5;
        # visible through c = 0.5*c_prev + 0.5*tanh(0)
        h, n = 2, 2
        layer = {k: np.zeros_like(v) for k, v in random_lstm_layer(np.random.default_rng(0), h, n).items()}
        c_prev = np.array([1.0, -2.0])
        state = lstm_step(np.zeros(n), CellState(h=np.zeros(h), c=c_prev), layer)
        np.testing.assert_allclose(state.c, 0.5 * c_prev, rtol=0, atol=1e-15)

    def test_missing_cell_state_rejected(self):
        layer = random_lstm_layer(np.random.default_rng(0), 2, 2)
        with pytest.raises(StructuralError):
            lstm_step(np.zeros(2), CellState(h=np.zeros(2)), layer)


class TestGruStep:
    def test_matches_oracle_on_100_random_instances(self):
        rng = np.random.default_rng(202)
        for trial in range(100):
            h = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            layer = random_gru_layer(rng, h, n)
            x = rng.uniform(-1, 1, n)
            h_prev = rng.uniform(-1, 1, h)
            got = gru_step(x, h_prev, layer)
            want = oracle_gru(x.tolist(), h_prev.tolist(), layer)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_zero_weights_geometric_decay(self):
        h, n = 3, 2
        layer = {k: np.zeros_like(v) for k, v in random_gru_layer(np.random.default_rng(0), h, n).items()}
        h_prev = np.array([1.0, -0.5, 2.0])
        out = gru_step(np.ones(n), h_prev, layer)
        np.testing.assert_allclose(out, 0.5 * h_prev, rtol=0, atol=1e-15)

    def test_zero_state_reduction(self):
        rng = np.random.default_rng(7)
        h, n = 4, 3
        layer = random_gru_layer(rng, h, n)
        x = rng.uniform(-1, 1, n)
        out = gru_step(x, np.zeros(h), layer)
        z = 1.0 / (1.0 + np.exp(-(layer["uz"] @ x)))
        want = (1.0 - z) * np.tanh(layer["us"] @ x)
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-14)

    def test_reset_gate_applies_before_matrix_product(self):
        # with a non-diagonal ws, tanh(ws @ (h*r)) != tanh(ws@h) * r-anything;
        # this pins the candidate-state ordering
        h = 2
        layer = {
            "uz": np.zeros((h, 1)), "wz": np.zeros((h, h)),
            "ur": np.zeros((h, 1)), "wr": np.zeros((h, h)),
            "us": np.zeros((h, 1)),
            "ws": np.array([[0.0, 2.0], [2.0, 0.0]]),  # swaps coordinates
        }
        h_prev = np.array([1.0, -1.0])
        x = np.zeros(1)
        # zero gate weights make z = r = 0.5 exactly
        q = h_prev * 0.5
        s_correct = np.tanh(layer["ws"] @ q)
        s_swapped = np.tanh(layer["ws"] @ h_prev) * 0.5
        assert not np.allclose(s_correct, s_swapped, atol=1e-3)
        got = gru_step(x, h_prev, layer)
        want_correct = 0.5 * s_correct + 0.5 * h_prev
        want_swapped = 0.5 * s_swapped + 0.5 * h_prev
        np.testing.assert_allclose(got, want_correct, rtol=0, atol=1e-14)
        assert not np.allclose(got, want_swapped, atol=1e-3)


class TestConfigAndParameters:
    def test_config_validation(self):
        good = dict(cell=CellType.GRU, vocab_size=5, embedding_dim=4, hidden_units=3)
        ModelConfig(**good)
        for bad in (
            dict(good, vocab_size=2),
            dict(good, embedding_dim=0),
            dict(good, hidden_units=0),
            dict(good, num_layers=0),
            dict(good, dropout_p=1.0),
            dict(good, dropout_p=-0.1),
            dict(good, num_classes=3),
            dict(good, cell="rnn"),
            dict(good, cell=["gru"]),
            dict(good, dropout_p="x"),
            dict(good, dropout_p=None),
        ):
            with pytest.raises(ParameterError):
                ModelConfig(**bad)

    @pytest.mark.parametrize("field,value", [
        ("vocab_size", 5.0), ("embedding_dim", "4"), ("hidden_units", 3.0),
        ("num_layers", 1.5), ("num_layers", True),
    ])
    def test_config_rejects_non_integer_sizes(self, field, value):
        good = dict(cell=CellType.GRU, vocab_size=5, embedding_dim=4, hidden_units=3)
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            ModelConfig(**dict(good, **{field: value}))

    def test_manifest_shapes_lstm(self):
        config = ModelConfig(cell=CellType.LSTM, vocab_size=7, embedding_dim=4,
                             hidden_units=5, num_layers=2)
        manifest = dict(parameter_manifest(config))
        assert manifest["embedding"] == (7, 4)
        assert manifest["layer0.wf"] == (5, 9)
        assert manifest["layer1.wf"] == (5, 10)
        assert manifest["layer0.bf"] == (5,)
        assert manifest["head.w"] == (2, 5)
        assert manifest["head.b"] == (2,)

    def test_manifest_shapes_gru(self):
        config = ModelConfig(cell=CellType.GRU, vocab_size=7, embedding_dim=4,
                             hidden_units=5, num_layers=2)
        manifest = dict(parameter_manifest(config))
        assert manifest["layer0.uz"] == (5, 4)
        assert manifest["layer1.uz"] == (5, 5)
        assert manifest["layer0.ws"] == (5, 5)
        assert "layer0.bz" not in manifest  # GRU carries no biases

    def test_initialize_deterministic_and_forget_bias(self):
        config = ModelConfig(cell=CellType.LSTM, vocab_size=6, embedding_dim=3, hidden_units=4)
        a = ParameterSet.initialize(config, Rng(9))
        b = ParameterSet.initialize(config, Rng(9))
        for (name, arr_a), (_, arr_b) in zip(a.arrays.items(), b.arrays.items()):
            np.testing.assert_array_equal(arr_a, arr_b)
        np.testing.assert_array_equal(a.arrays["layer0.bf"], np.ones(4))
        np.testing.assert_array_equal(a.arrays["layer0.bi"], np.zeros(4))
        np.testing.assert_array_equal(a.arrays["head.b"], np.zeros(2))

    def test_shape_mismatch_rejected(self):
        config = ModelConfig(cell=CellType.GRU, vocab_size=5, embedding_dim=3, hidden_units=2)
        arrays = {name: np.zeros(shape) for name, shape in parameter_manifest(config)}
        arrays["layer0.uz"] = np.zeros((2, 5))
        with pytest.raises(StructuralError, match="layer0.uz"):
            ParameterSet(config=config, arrays=arrays)

    def test_nonfinite_rejected(self):
        config = ModelConfig(cell=CellType.GRU, vocab_size=5, embedding_dim=3, hidden_units=2)
        arrays = {name: np.zeros(shape) for name, shape in parameter_manifest(config)}
        arrays["head.w"][0, 0] = np.nan
        with pytest.raises(StructuralError, match="head.w"):
            ParameterSet(config=config, arrays=arrays)


class TestEmbed:
    def test_lookup_and_repeats(self):
        table = np.arange(12.0).reshape(4, 3)
        vecs = embed([2, 2, 1], table)
        np.testing.assert_array_equal(vecs[0], table[2])
        np.testing.assert_array_equal(vecs[1], table[2])
        np.testing.assert_array_equal(vecs[2], table[1])

    def test_out_of_range(self):
        with pytest.raises(StructuralError):
            embed([5], np.zeros((4, 3)))


def build(cell, vocab=6, n=3, h=4, layers=1, dropout=0.0, seed=5):
    config = ModelConfig(cell=cell, vocab_size=vocab, embedding_dim=n,
                         hidden_units=h, num_layers=layers, dropout_p=dropout)
    return config, ParameterSet.initialize(config, Rng(seed))


class TestForward:
    def test_probs_normalized(self):
        for cell in CellType:
            _, params = build(cell)
            probs, _ = forward([2, 3, 4], params)
            assert probs.shape == (2,)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_zero_head_gives_uniform(self):
        _, params = build(CellType.GRU)
        params.arrays["head.w"][:] = 0.0
        params.arrays["head.b"][:] = 0.0
        probs, _ = forward([2, 3, 2, 5], params)
        np.testing.assert_allclose(probs, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_train_equals_infer_without_dropout(self):
        _, params = build(CellType.LSTM)
        p_train, _ = forward([2, 4], params, mode=RunMode.TRAIN, rng=Rng(0))
        p_infer, _ = forward([2, 4], params)
        np.testing.assert_array_equal(p_train, p_infer)

    def test_unrolled_equals_iterated_steps(self):
        for cell in CellType:
            config, params = build(cell, layers=1)
            ids = [2, 3, 5, 4]
            probs, trace = forward(ids, params)
            layer = params.layer(0)
            state = CellState.zero(config)
            for x in embed(ids, params.arrays["embedding"]):
                if cell is CellType.LSTM:
                    state = lstm_step(x, state, layer)
                else:
                    state = CellState(h=gru_step(x, state.h, layer))
            logits = params.arrays["head.w"] @ state.h + params.arrays["head.b"]
            np.testing.assert_array_equal(probs, softmax(logits))
            np.testing.assert_array_equal(trace.final_hidden, state.h)

    def test_length_one_is_single_step_plus_head(self):
        config, params = build(CellType.GRU)
        probs, _ = forward([3], params)
        x = params.arrays["embedding"][3]
        h = gru_step(x, np.zeros(config.hidden_units), params.layer(0))
        np.testing.assert_array_equal(
            probs, softmax(params.arrays["head.w"] @ h + params.arrays["head.b"])
        )

    def test_stacked_layers_change_output(self):
        _, p1 = build(CellType.GRU, layers=1)
        _, p2 = build(CellType.GRU, layers=2)
        a, _ = forward([2, 3, 4], p1)
        b, _ = forward([2, 3, 4], p2)
        assert not np.array_equal(a, b)

    def test_empty_sequence_rejected(self):
        _, params = build(CellType.GRU)
        with pytest.raises(ParameterError):
            forward([], params)

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize(
        "run", [forward, lambda ids, params: forward_batch([ids], params)],
        ids=["forward", "forward_batch"],
    )
    def test_id_outside_embedding_table_rejected(self, run, bad):
        _, params = build(CellType.GRU, vocab=6)
        with pytest.raises(StructuralError, match=f"id {bad} outside embedding table with 6 rows"):
            run([bad, 2], params)

    def test_dropout_needs_rng(self):
        _, params = build(CellType.GRU, dropout=0.3)
        with pytest.raises(ParameterError):
            forward([2], params, mode=RunMode.TRAIN)


class TestDropout:
    def test_forward_applies_mask_over_kept_units(self):
        config, params = build(CellType.GRU, h=8, dropout=0.5)
        _, trace_inf = forward([2, 3], params)
        probs, trace = forward([2, 3], params, mode=RunMode.TRAIN, rng=Rng(21, stream=4))
        mask = (Rng(21, stream=4).uniform(size=8) >= 0.5).astype(float)
        np.testing.assert_array_equal(trace.dropout_scale, mask / 0.5)
        np.testing.assert_array_equal(trace.dropped, trace_inf.final_hidden * mask / 0.5)

    def test_expectation_matches_infer_within_one_percent(self):
        # forward's dropout is h * mask/(1-p) with Bernoulli(1-p) masks (checked
        # above); the estimator over 1e5 mask draws must stay within 1% of h
        p = 0.3
        h = np.array([0.5, -1.0, 0.25, 2.0, -0.75])
        rng = Rng(77)
        draws = (rng.uniform(size=(100_000, h.size)) >= p).astype(np.float64) / (1.0 - p)
        mean = (draws * h).mean(axis=0)
        rel = np.abs(mean - h) / np.abs(h)
        assert rel.max() < 0.01


def fd_gradients(params, ids, true_class, eps=1e-6):
    """Central finite differences of -log p[true_class] for every element."""
    num = {}
    for name, arr in params.arrays.items():
        grad = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            plus, _ = forward(ids, params)
            flat[j] = orig - eps
            minus, _ = forward(ids, params)
            flat[j] = orig
            gflat[j] = (-math.log(plus[true_class]) + math.log(minus[true_class])) / (2 * eps)
        num[name] = grad
    return num


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name].reshape(-1), numeric[name].reshape(-1)
        for av, nv in zip(a, n):
            diff = abs(av - nv)
            if diff > 1e-8:
                worst = max(worst, diff / max(abs(av), abs(nv)))
    return worst


class TestBackward:
    def test_head_gradient_is_softmax_ce_identity(self):
        _, params = build(CellType.GRU)
        probs, trace = forward([2, 3], params)
        grads = backward(trace, 0, params)
        expected = probs.copy()
        expected[0] -= 1.0
        np.testing.assert_allclose(grads["head.b"], expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            grads["head.w"], np.outer(expected, trace.dropped), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("cell", list(CellType))
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_finite_differences(self, cell, layers):
        _, params = build(cell, vocab=5, n=3, h=4, layers=layers, seed=31)
        ids = [2, 3, 4]
        _, trace = forward(ids, params)
        grads = backward(trace, 1, params)
        numeric = fd_gradients(params, ids, 1)
        assert max_rel_error(grads, numeric) <= 1e-5

    def test_repeated_id_accumulates_embedding_rows(self):
        _, params = build(CellType.GRU, seed=13)
        ids = [3, 3, 3]
        _, trace = forward(ids, params)
        grads = backward(trace, 0, params)
        numeric = fd_gradients(params, ids, 0)
        np.testing.assert_allclose(
            grads["embedding"][3], numeric["embedding"][3], rtol=1e-6, atol=1e-9
        )
        # untouched rows get no gradient
        np.testing.assert_array_equal(grads["embedding"][4], np.zeros(3))

    def test_trace_config_mismatch_rejected(self):
        _, params_a = build(CellType.GRU, h=4)
        _, params_b = build(CellType.GRU, h=5)
        _, trace = forward([2, 3], params_a)
        with pytest.raises(StructuralError):
            backward(trace, 0, params_b)

    def test_invalid_class_rejected(self):
        _, params = build(CellType.GRU)
        _, trace = forward([2], params)
        with pytest.raises(ParameterError):
            backward(trace, 2, params)

    def test_gradient_through_dropout_mask(self):
        _, params = build(CellType.GRU, h=4, dropout=0.5, seed=3)
        ids = [2, 4, 3]
        probs, trace = forward(ids, params, mode=RunMode.TRAIN, rng=Rng(8))
        grads = backward(trace, 0, params)
        # finite differences under the same mask: a fresh Rng(8) draws it again
        numeric = {}
        for name in ("head.w", "layer0.us"):
            arr = params.arrays[name]
            grad = np.zeros_like(arr)
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + 1e-6
                plus, _ = forward(ids, params, mode=RunMode.TRAIN, rng=Rng(8))
                flat[j] = orig - 1e-6
                minus, _ = forward(ids, params, mode=RunMode.TRAIN, rng=Rng(8))
                flat[j] = orig
                gflat[j] = (-math.log(plus[0]) + math.log(minus[0])) / 2e-6
            numeric[name] = grad
        for name, grad in numeric.items():
            np.testing.assert_allclose(grads[name], grad, rtol=1e-5, atol=1e-9)


class TestBatchPath:
    def loop_reference(self, seqs, labels, params):
        total = zero_gradients(params.config)
        losses = []
        for ids, y in zip(seqs, labels):
            probs, trace = forward(ids, params)
            losses.append(-math.log(probs[y]))
            for name, g in backward(trace, y, params).items():
                total[name] += g
        return np.array(losses), total

    @pytest.mark.parametrize("cell", list(CellType))
    @pytest.mark.parametrize("layers", [1, 2])
    def test_batch_equals_loop(self, cell, layers):
        _, params = build(cell, vocab=8, n=4, h=5, layers=layers, seed=17)
        seqs = [(2, 3, 4), (5, 6, 7, 2, 3, 4, 5), (7, 3, 2, 6, 4), (3,)]
        labels = [0, 1, 1, 0]
        loop_losses, loop_grads = self.loop_reference(seqs, labels, params)
        probs, trace = forward_batch(seqs, params, mode=RunMode.TRAIN)
        batch_losses = -np.log(probs[np.arange(4), labels])
        np.testing.assert_allclose(batch_losses, loop_losses, rtol=0, atol=1e-10)
        batch_grads = backward_batch(trace, labels, params)
        for name in loop_grads:
            np.testing.assert_allclose(
                batch_grads[name], loop_grads[name], rtol=0, atol=1e-10,
                err_msg=name,
            )

    @pytest.mark.parametrize("cell", list(CellType))
    @pytest.mark.parametrize("layers", [1, 2])
    def test_out_gradients_are_reused_and_equal_fresh(self, cell, layers):
        _, params = build(cell, vocab=8, n=4, h=5, layers=layers, seed=17)
        first, second = [(2, 3, 4), (5, 6, 7, 2, 3)], [(7, 3, 2, 6, 4), (3,), (4, 4)]
        _, trace = forward_batch(first, params, mode=RunMode.TRAIN)
        out = backward_batch(trace, [0, 1], params)
        held = {name: g for name, g in out.items()}
        _, trace = forward_batch(second, params, mode=RunMode.TRAIN)
        reused = backward_batch(trace, [1, 0, 1], params, out=out)
        fresh = backward_batch(trace, [1, 0, 1], params)
        assert reused is out
        for name, g in fresh.items():
            assert reused[name] is held[name]
            np.testing.assert_array_equal(reused[name], g, err_msg=name)

    @pytest.mark.parametrize("cell", list(CellType))
    @pytest.mark.parametrize("layers", [1, 2])
    def test_train_equals_infer_bit_for_bit_at_b32_h64(self, cell, layers):
        """Ragged lengths 1-18 at B=32, H=64, the singular preset's batch and width."""
        config = ModelConfig(cell=cell, vocab_size=16, embedding_dim=32, hidden_units=64,
                             num_layers=layers)
        params = ParameterSet.initialize(config, Rng(29))
        rng = Rng(30)
        seqs = [rng.integers(1, 16, size=int(n)).tolist() for n in rng.integers(1, 19, size=32)]
        p_infer, _ = forward_batch(seqs, params)
        p_train, _ = forward_batch(seqs, params, mode=RunMode.TRAIN)
        np.testing.assert_array_equal(p_infer, p_train)
        reference = np.stack([forward(ids, params)[0] for ids in seqs])
        np.testing.assert_allclose(p_infer, reference, rtol=0, atol=1e-10)

    def test_batch_dropout_coincides_with_loop(self):
        _, params = build(CellType.GRU, vocab=8, n=4, h=5, dropout=0.3, seed=19)
        seqs = [(2, 3, 4), (5, 6), (7, 3, 2, 6)]
        probs_batch, _ = forward_batch(seqs, params, mode=RunMode.TRAIN, rng=Rng(55, stream=2))
        rng = Rng(55, stream=2)
        probs_loop = np.stack([
            forward(ids, params, mode=RunMode.TRAIN, rng=rng)[0] for ids in seqs
        ])
        np.testing.assert_allclose(probs_batch, probs_loop, rtol=0, atol=1e-12)

    def test_forward_batch_rejects_empty_batch(self):
        _, params = build(CellType.GRU)
        with pytest.raises(ParameterError, match="empty batch"):
            forward_batch([], params)

    def test_forward_batch_rejects_empty_sequence(self):
        _, params = build(CellType.GRU)
        with pytest.raises(ParameterError, match="empty sequence"):
            forward_batch([[2], []], params)

    def test_batch_probs_match_single_forward(self):
        _, params = build(CellType.LSTM, vocab=8, n=4, h=5, seed=23)
        seqs = [(2, 3, 4, 5), (6, 7)]
        probs, _ = forward_batch(seqs, params)
        for row, ids in zip(probs, seqs):
            single, _ = forward(ids, params)
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-12)

    def test_batch_label_count_checked(self):
        _, params = build(CellType.GRU)
        _, trace = forward_batch([(2, 3), (4,)], params, mode=RunMode.TRAIN)
        with pytest.raises(StructuralError):
            backward_batch(trace, [0], params)

    def test_backward_needs_train_mode_trace(self):
        _, params = build(CellType.LSTM)
        _, trace = forward_batch([(2, 3), (4,)], params)
        with pytest.raises(StructuralError, match="backward_batch needs a train-mode trace"):
            backward_batch(trace, [0, 1], params)


@st.composite
def ragged_batches(draw, dropout=st.just(0.0)):
    """A model and a batch of 1-6 rows, always with a length-1 row and a PAD id 0 mid-row."""
    vocab = draw(st.integers(4, 13))
    config = ModelConfig(
        cell=draw(st.sampled_from(list(CellType))),
        vocab_size=vocab,
        embedding_dim=draw(st.integers(1, 5)),
        hidden_units=draw(st.integers(1, 5)),
        num_layers=draw(st.integers(1, 2)),
        dropout_p=draw(dropout),
    )
    params = ParameterSet.initialize(config, Rng(draw(st.integers(0, 2**16))))
    token = st.integers(0, vocab - 1)
    seqs = draw(st.lists(st.lists(token, min_size=1, max_size=8), max_size=4))
    seqs += [[draw(token)], [draw(token), 0, draw(token)]]
    seqs = draw(st.permutations(seqs))
    labels = draw(st.lists(st.integers(0, 1), min_size=len(seqs), max_size=len(seqs)))
    return params, seqs, labels


class TestBatchKernelProperties:
    """The batch kernel against the per-sequence reference, over drawn shapes and batches."""

    @given(ragged_batches(dropout=st.sampled_from([0.0, 0.4])), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_losses_and_gradients_equal_summed_reference(self, case, seed):
        params, seqs, labels = case
        loop_rng, batch_rng = Rng(seed), Rng(seed)
        loop_losses, loop_grads = [], zero_gradients(params.config)
        for ids, y in zip(seqs, labels):
            probs, trace = forward(ids, params, mode=RunMode.TRAIN, rng=loop_rng)
            loop_losses.append(-math.log(probs[y]))
            for name, g in backward(trace, y, params).items():
                loop_grads[name] += g
        probs, trace = forward_batch(seqs, params, mode=RunMode.TRAIN, rng=batch_rng)
        batch_losses = -np.log(probs[np.arange(len(seqs)), labels])
        np.testing.assert_allclose(batch_losses, loop_losses, rtol=0, atol=1e-10)
        batch_grads = backward_batch(trace, labels, params)
        for name in loop_grads:
            np.testing.assert_allclose(
                batch_grads[name], loop_grads[name], rtol=0, atol=1e-10, err_msg=name
            )

    @given(ragged_batches())
    @settings(max_examples=60, deadline=None)
    def test_infer_equals_train_bit_for_bit_without_dropout(self, case):
        params, seqs, _ = case
        p_infer, trace_infer = forward_batch(seqs, params)
        p_train, trace_train = forward_batch(seqs, params, mode=RunMode.TRAIN)
        assert trace_infer.layer_caches is None
        np.testing.assert_array_equal(p_infer, p_train)
        np.testing.assert_array_equal(trace_infer.final_hidden, trace_train.final_hidden)

    @given(ragged_batches(dropout=st.floats(0.05, 0.9)), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_dropout_probs_match_loop(self, case, seed):
        params, seqs, _ = case
        probs_batch, _ = forward_batch(seqs, params, mode=RunMode.TRAIN, rng=Rng(seed, stream=2))
        rng = Rng(seed, stream=2)
        probs_loop = np.stack([
            forward(ids, params, mode=RunMode.TRAIN, rng=rng)[0] for ids in seqs
        ])
        np.testing.assert_allclose(probs_batch, probs_loop, rtol=0, atol=1e-12)
