"""Minimal dense numeric kernel used by the recurrent cells.

Vectors are 1-D and matrices 2-D numpy arrays, always float64: the
gradient checks in this package target 1e-5 relative error against
central finite differences, which single precision cannot reach.

Every stochastic operation in the package draws from :class:`Rng`, a
counter-based Philox generator keyed by ``(seed, stream)``.  Two
instances built from the same pair yield the same draw sequence on any
platform, and disjoint stream ids give independent streams, so parallel
work (search trials, folds) stays reproducible.

Results also depend on the BLAS thread count, because a threaded matmul
sums in another order: :func:`blas_threads` pins it where numpy's bundled
OpenBLAS allows.

Large work is split in two on boundaries that depend only on its shape
(:func:`matmul_for`, :func:`row_halves`), and
:func:`run_split` runs the first part in one helper thread while the
calling thread runs the second.  Each part makes the same numpy calls
either way, so results do not depend on whether the helper ran.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import StructuralError

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF

# Work is split only when each part holds at least this many multiply-adds
# (a product's column block) or elements (an elementwise pass).  Measured on
# a 2-CPU Xeon (Haswell kernels) at 1 BLAS thread: a 2**20-MAC block gained
# 1.2-1.6x, a thread handoff costs about 15 us.  It also keeps every block
# above 100**3 multiply-adds: OpenBLAS sends products up to that size to a
# small-matrix kernel that sums in another order than the large one.
SPLIT_MIN = 1 << 20
# Column cuts fall on multiples of this: on that OpenBLAS, cuts at 4 or 12
# columns changed the bits of the unsplit product, multiples of 256 did not.
SPLIT_COLS = 256


class Rng:
    """Seeded, splittable random source (Philox 4x64, keyed by seed and stream)."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"


@functools.cache
def _openblas_thread_calls():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None for another BLAS."""
    import ctypes  # numpy has loaded it already

    libs = Path(np.__file__).parents[1] / "numpy.libs"  # where numpy's Linux wheels put it
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))  # the copy numpy loaded: same path, same handle
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block with BLAS at `n` threads, then restore the previous count.

    Yields whether the count took effect.  Only numpy's bundled OpenBLAS
    (``scipy_openblas``) exposes the calls; with another BLAS nothing changes,
    it yields False, and the count must be set before numpy loads, for
    example with ``OPENBLAS_NUM_THREADS=1``.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, set_ = calls
    before = get()
    set_(n)
    try:
        yield get() == n
    finally:
        set_(before)


class _Helper:
    """One daemon thread that runs the tasks put on `todo`, answering on `done`."""

    def __init__(self):
        import queue

        self.todo, self.done = queue.SimpleQueue(), queue.SimpleQueue()
        self.busy = threading.Lock()  # held by the one caller using the thread
        threading.Thread(target=self._serve, name="reqqual-split", daemon=True).start()

    def _serve(self):
        while True:  # no local names: the last task and result must not stay alive
            self.done.put(self._run(self.todo.get()))

    @staticmethod
    def _run(task):
        try:
            return task(), None
        except BaseException as exc:  # re-raised in the caller
            return None, exc


_helper: _Helper | None = None  # started on first use
_helper_allowed = True


def _forget_helper():
    global _helper
    _helper = None  # a forked child has no copy of the thread; it starts its own


os.register_at_fork(after_in_child=_forget_helper)


@contextlib.contextmanager
def helper_off():
    """Run the block's split work all in the calling thread.

    For a process that already shares the CPUs with its siblings, such as a
    pool worker.  Results do not change.
    """
    global _helper_allowed
    before, _helper_allowed = _helper_allowed, False
    try:
        yield
    finally:
        _helper_allowed = before


def _usable_helper() -> _Helper | None:
    """The helper thread, or None unless >= 2 CPUs are usable and BLAS runs
    at 1 thread (a threaded BLAS already uses the CPUs)."""
    global _helper
    if not _helper_allowed:
        return None
    calls = _openblas_thread_calls()  # None off Linux, which has no sched_getaffinity
    if calls is None or calls[0]() != 1 or len(os.sched_getaffinity(0)) < 2:
        return None
    if _helper is None:
        _helper = _Helper()
    return _helper


def _run_parts(helper: _Helper | None, work: Callable, parts: Sequence) -> list:
    if helper is None or not helper.busy.acquire(blocking=False):
        return [work(part) for part in parts]  # the same calls, in order, in this thread
    try:
        helper.todo.put(functools.partial(work, parts[0]))
        try:
            second = work(parts[1])
        finally:
            first, error = helper.done.get()  # always collect, so no answer is left queued
        if error is not None:
            raise error
        return [first, second]
    finally:
        helper.busy.release()


def run_split(work: Callable, parts: Sequence) -> list:
    """`[work(part) for part in parts]`.  With two parts, and where a helper
    thread may run, parts[0] runs in the helper while this thread runs
    parts[1]."""
    return _run_parts(_usable_helper() if len(parts) == 2 else None, work, parts)


def _column_cut(rows: int, inner: int, cols: int) -> int | None:
    """Where a (rows, inner) @ (inner, cols) product splits into two column
    blocks, or None: cols must be a multiple of SPLIT_COLS and the smaller,
    first block must hold SPLIT_MIN multiply-adds."""
    cut = cols // 2 // SPLIT_COLS * SPLIT_COLS
    if cols % SPLIT_COLS or not cut or rows * inner * cut < SPLIT_MIN:
        return None
    return cut


def _split_matmul(helper, a, b, out=None):
    rows, cols = a.shape[0], b.shape[1]
    if out is None:
        out = np.empty((rows, cols), dtype=np.result_type(a, b))
    cut = _column_cut(rows, a.shape[1], cols)
    if cut is None:
        return np.matmul(a, b, out=out)
    blocks = (slice(None, cut), slice(cut, None))
    _run_parts(helper, lambda c: np.matmul(a, b[:, c], out=out[:, c]), blocks)
    return out


def matmul_for(rows: int, inner: int, cols: int):
    """A matmul for one batch call's products, chosen once per call.

    Returns np.matmul when a (rows, inner) @ (inner, cols) product, the
    call's largest, would not split.  Otherwise returns a function like
    np.matmul(a, b, out=None) that computes each product big enough as two
    column blocks (see _column_cut) and any other product whole.  A block
    is the same BLAS call wherever it runs, and on numpy's bundled
    OpenBLAS the blocks equal the whole product bit for bit.
    """
    if _column_cut(rows, inner, cols) is None:
        return np.matmul
    return functools.partial(_split_matmul, _usable_helper())


def row_halves(arrays: Mapping[str, np.ndarray]) -> list[list[tuple[str, slice]]]:
    """(name, rows) parts for elementwise work over `arrays`: each array's
    first and second half of rows when they hold SPLIT_MIN elements in all,
    else one part of whole arrays."""
    if sum(a.size for a in arrays.values()) < SPLIT_MIN:
        return [[(name, slice(None)) for name in arrays]]
    halves = [(name, len(a) // 2) for name, a in arrays.items()]
    return [[(name, slice(None, mid)) for name, mid in halves],
            [(name, slice(mid, None)) for name, mid in halves]]


def sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic function as 0.5 * (1 + tanh(v / 2)), so neither
    tail can overflow.  Writes to `out` when given, which may be `v`."""
    v = np.asarray(v, dtype=np.float64)
    if out is None:
        out = np.empty_like(v)
    np.multiply(v, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def tanh(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise hyperbolic tangent.  Writes to `out` when given, which may be `v`."""
    return np.tanh(np.asarray(v, dtype=np.float64), out=out)


def softmax(v: np.ndarray) -> np.ndarray:
    """Probability distribution over the last axis.

    Uses max-subtraction, so arbitrarily large inputs cannot overflow and
    adding a constant to every input leaves the output unchanged.
    """
    v = np.asarray(v, dtype=np.float64)
    shifted = v - np.max(v, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def glorot_uniform(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Weight matrix with entries i.i.d. uniform on +-sqrt(6/(rows+cols))."""
    if rows < 1 or cols < 1:
        raise StructuralError(f"glorot_uniform needs positive dims, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))

