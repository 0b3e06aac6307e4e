"""Numeric kernel tests: frozen activation values, shape checks, seeded RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reqqual import numcore
from reqqual.errors import StructuralError
from reqqual.numcore import (
    Rng,
    blas_threads,
    glorot_uniform,
    sigmoid,
    softmax,
    tanh,
)

# Frozen float64 reference values, computed once from the closed forms
# 1/(1+exp(-x)) and the hyperbolic tangent at higher precision.
SIGMOID_CASES = [
    (0.0, 0.5),
    (2.0, 0.8807970779778823),
    (-2.0, 0.11920292202211755),
    (1.0, 0.7310585786300049),
]
TANH_1 = 0.7615941559557649


class TestActivations:
    def test_sigmoid_frozen_values(self):
        for x, expected in SIGMOID_CASES:
            assert sigmoid(np.array([x]))[0] == pytest.approx(expected, abs=1e-15)

    def test_sigmoid_extremes_do_not_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-750.0, 750.0]))
        assert out[0] == 0.0
        assert out[1] == 1.0

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-15)

    def test_sigmoid_in_place_equals_fresh_output(self):
        v = np.random.default_rng(3).normal(scale=8.0, size=(32, 96))
        expected = sigmoid(v)
        strided = v.copy()[:, ::2]  # a column slice, as the kernel's gate views are
        assert sigmoid(v, out=v) is v
        np.testing.assert_array_equal(v, expected)
        np.testing.assert_array_equal(sigmoid(strided, out=strided), expected[:, ::2])

    def test_tanh_frozen_value(self):
        assert tanh(np.array([1.0]))[0] == pytest.approx(TANH_1, abs=1e-16)

    def test_tanh_in_place_equals_fresh_output(self):
        v = np.random.default_rng(3).normal(scale=8.0, size=(32, 96))
        expected = tanh(v)
        assert tanh(v, out=v) is v
        np.testing.assert_array_equal(v, expected)

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-16)

    def test_softmax_frozen_example(self):
        # exp([3,1,0.2]) / sum, evaluated at 50-digit precision then rounded
        expected = [0.8360188027814407, 0.11314284146556013, 0.05083835575299916]
        np.testing.assert_allclose(softmax(np.array([3.0, 1.0, 0.2])), expected, atol=1e-15)

    def test_softmax_shift_invariance(self):
        z = np.array([0.3, -1.2, 2.5, 0.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-12)

    def test_softmax_large_logits_stable(self):
        with np.errstate(over="raise"):
            out = softmax(np.array([1000.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)
        assert np.isfinite(out).all()

    def test_softmax_batched_rows(self):
        z = np.array([[1.0, 2.0], [5.0, 5.0]])
        out = softmax(z)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-15)
        np.testing.assert_allclose(out[1], [0.5, 0.5], atol=1e-15)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_softmax_sums_to_one(self, logits):
        out = softmax(np.array(logits))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0).all()


class TestGlorot:
    def test_bound_and_shape(self):
        rng = Rng(0)
        w = glorot_uniform(50, 30, rng)
        bound = np.sqrt(6.0 / 80.0)
        assert w.shape == (50, 30)
        assert w.dtype == np.float64
        assert np.abs(w).max() <= bound

    def test_mean_near_zero(self):
        rng = Rng(7)
        w = glorot_uniform(100, 100, rng)
        bound = np.sqrt(6.0 / 200.0)
        assert abs(w.mean()) < 0.05 * bound

    def test_deterministic(self):
        a = glorot_uniform(10, 10, Rng(42, stream=3))
        b = glorot_uniform(10, 10, Rng(42, stream=3))
        np.testing.assert_array_equal(a, b)

    def test_invalid_dims(self):
        with pytest.raises(StructuralError):
            glorot_uniform(0, 5, Rng(0))


class TestRng:
    def test_same_key_same_million_draws(self):
        a = Rng(123, stream=7).uniform(size=1_000_000)
        b = Rng(123, stream=7).uniform(size=1_000_000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(123, stream=0).uniform(size=100)
        b = Rng(123, stream=1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = Rng(1).uniform(size=100)
        b = Rng(2).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_permutation_is_permutation(self):
        perm = Rng(3).permutation(100)
        assert sorted(perm.tolist()) == list(range(100))

    def test_sample_without_replacement(self):
        picks = Rng(4).sample_without_replacement(50, 10)
        assert len(picks) == 10
        assert len(set(picks.tolist())) == 10
        assert all(0 <= p < 50 for p in picks.tolist())


class TestBlasThreads:
    @pytest.fixture
    def thread_count(self):
        calls = numcore._openblas_thread_calls()
        if calls is None:
            pytest.skip("this numpy's BLAS thread count cannot be set at run time")
        return calls[0]

    def test_sets_the_count_in_the_block_and_restores_it(self, thread_count):
        before = thread_count()
        with blas_threads(1) as pinned:
            assert pinned
            assert thread_count() == 1
        assert thread_count() == before

    def test_restores_the_count_after_an_error(self, thread_count):
        before = thread_count()
        with pytest.raises(KeyError):
            with blas_threads(1):
                raise KeyError("boom")
        assert thread_count() == before

    def test_reports_false_and_changes_nothing_without_openblas(self, monkeypatch):
        monkeypatch.setattr(numcore, "_openblas_thread_calls", lambda: None)
        with blas_threads(1) as pinned:
            assert pinned is False
