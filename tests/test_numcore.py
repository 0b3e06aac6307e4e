"""Numeric kernel tests: frozen activation values, shape checks, seeded RNG,
and work split over two threads."""

import functools
import os
import sys
import threading

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


def _one_blas_thread():
    """Hold BLAS at 1 thread, where the helper thread may run; skip elsewhere."""
    calls = numcore._openblas_thread_calls()
    if calls is None:
        pytest.skip("this numpy's BLAS thread count cannot be set at run time")
    return blas_threads(1)


def _kernel_products(embedding, units, gates, rng):
    """(a, b, new_out) of each product the batch kernel sends through
    matmul_for, at one preset's widths and one cell's gate count; new_out()
    gives a fresh output array of the kernel's layout, or None."""
    h, e, vocab = units, embedding, 40
    w_full = rng.normal(size=(gates * h, h + e))  # an LSTM weight block acts on [h; x]
    wt = rng.normal(size=(h, gates * h))
    def rows_of(rows, cols):  # a block of rows of a larger array, like the tape's
        return lambda: np.empty((rows + 3, cols))[2 : 2 + rows]

    def strided(rows, cols):  # an LSTM weight gradient's view w[:, h:]
        return lambda: np.empty((rows, h + cols))[:, h:]

    cases = [(rng.normal(size=(vocab, e)), rng.normal(size=(h, e)).T, None)]  # E . U^T
    for rows in (1, 2, 3, 4, 5, 32, 160):
        d_gates = rng.normal(size=(rows, gates * h))
        cases += [
            (rng.normal(size=(rows, h)), wt, rows_of(rows, gates * h)),
            (d_gates[:, h : 2 * h], rng.normal(size=(h, h)), None),  # strided a
            (d_gates[:, :h], w_full[:h, :h], None),  # strided a and b
        ]
    for tokens in (7, 380):
        part = rng.normal(size=(tokens, gates * h))[:, h : 2 * h]
        cases += [
            (part.T, rng.normal(size=(tokens, h)), lambda: np.empty((h, h))),
            (part.T, rng.normal(size=(tokens, e)), strided(h, e)),
            (rng.normal(size=(vocab, h)).T, rng.normal(size=(vocab, e)), None),
        ]
    return cases


def _same_call(a, b, new_out, mm):
    """mm(a, b, out=new_out()), as a contiguous copy."""
    return np.array(mm(a, b, out=None if new_out is None else new_out()))


class TestSplitMatmul:
    @pytest.mark.parametrize("embedding,units", [(64, 256), (128, 64), (2048, 1024)])
    def test_equals_matmul_bit_for_bit_at_the_preset_products(self, embedding, units):
        rng = np.random.default_rng(units)
        split = 0
        with _one_blas_thread():
            for gates in (2, 3):  # GRU z|r, LSTM f|i|o
                for a, b, out in _kernel_products(embedding, units, gates, rng):
                    assert out is None or out().shape == (a.shape[0], b.shape[1])
                    whole = _same_call(a, b, out, np.matmul)
                    split += numcore._column_cut(a.shape[0], a.shape[1], b.shape[1]) is not None
                    helper = numcore.matmul_for(*a.shape, b.shape[1])
                    np.testing.assert_array_equal(_same_call(a, b, out, helper), whole)
                    with numcore.helper_off():
                        serial = functools.partial(numcore._split_matmul, None)
                        np.testing.assert_array_equal(_same_call(a, b, out, serial), whole)
        assert split > 0 if units >= 256 else split == 0

    @pytest.mark.parametrize("rows,inner,cols,cut", [
        (15, 256, 512, None),  # one row short of SPLIT_MIN multiply-adds per block
        (16, 256, 512, 256),
        (17, 256, 512, 256),
        (3, 1024, 512, None),
        (4, 1024, 512, 256),
        (4, 1024, 768, 256),  # blocks of 256 and 512 columns
        (4, 1024, 1280, 512),
        (64, 1024, 256, None),  # one block of 256 columns cannot split
        (64, 1024, 640, None),  # not a multiple of 256 columns
        (2, 1024, 2048, 1024),
    ])
    def test_splits_on_fixed_multiples_of_256_columns(self, rows, inner, cols, cut):
        assert numcore._column_cut(rows, inner, cols) == cut
        rng = np.random.default_rng(rows * cols)
        a, b = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
        with _one_blas_thread():
            mm = functools.partial(numcore._split_matmul, numcore._usable_helper())
            np.testing.assert_array_equal(mm(a, b), a @ b)

    def test_small_shapes_get_plain_matmul(self):
        assert numcore.matmul_for(32, 64, 128) is np.matmul  # singular and search presets
        assert numcore.matmul_for(512, 64, 128) is np.matmul  # evaluate's 512-row chunks


class TestRunSplit:
    def test_part_0_runs_in_the_helper_only_where_allowed(self, monkeypatch):
        here = threading.get_ident()

        def threads():
            return numcore.run_split(lambda _: threading.get_ident(), [0, 1])

        with _one_blas_thread():
            if len(os.sched_getaffinity(0)) >= 2:
                first, second = threads()
                assert first != here and second == here
            with numcore.helper_off():
                assert threads() == [here, here]
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            assert threads() == [here, here]
        with blas_threads(2):
            monkeypatch.undo()
            assert threads() == [here, here]  # a threaded BLAS already uses the CPUs

    def test_an_error_in_either_part_reaches_the_caller(self):
        def fail_on(bad):
            def work(part):
                if part == bad:
                    raise KeyError(part)
                return part
            return work

        with _one_blas_thread():
            for bad in (0, 1):
                with pytest.raises(KeyError):
                    numcore.run_split(fail_on(bad), [0, 1])
            assert numcore.run_split(fail_on(None), [0, 1]) == [0, 1]  # still serving

    def test_concurrent_callers_each_get_their_own_results(self):
        """More calling threads than CPUs share the one helper thread."""
        failures = []

        def caller(tag):
            for i in range(200):
                got = numcore.run_split(lambda part: (tag, i, part), ["a", "b"])
                if got != [(tag, i, "a"), (tag, i, "b")]:
                    failures.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _one_blas_thread():
                callers = [threading.Thread(target=caller, args=(tag,)) for tag in range(4)]
                for thread in callers:
                    thread.start()
                for thread in callers:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert failures == []

    def test_without_openblas_or_sched_getaffinity_the_caller_runs_every_part(self, monkeypatch):
        """As on macOS and Windows: no bundled OpenBLAS, no os.sched_getaffinity."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(numcore, "_openblas_thread_calls", lambda: None)
        here = threading.get_ident()
        assert numcore.run_split(lambda _: threading.get_ident(), [0, 1]) == [here, here]
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(32, 1024)), rng.normal(size=(1024, 512))
        mm = numcore.matmul_for(*a.shape, b.shape[1])
        assert mm is not np.matmul  # above the threshold: split, in this thread
        np.testing.assert_array_equal(mm(a, b), np.hstack([a @ b[:, :256], a @ b[:, 256:]]))

    def test_row_halves_split_only_from_split_min_elements(self):
        small = {"a": np.zeros((3, 4)), "b": np.zeros(5)}
        assert numcore.row_halves(small) == [[("a", slice(None)), ("b", slice(None))]]
        big = {"w": np.zeros((1024, 1024)), "b": np.zeros(3), "u": np.zeros((1024, 512))}
        assert numcore.row_halves(big) == [
            [("w", slice(None, 512)), ("b", slice(None, 1)), ("u", slice(None, 512))],
            [("w", slice(512, None)), ("b", slice(1, None)), ("u", slice(512, None))],
        ]
