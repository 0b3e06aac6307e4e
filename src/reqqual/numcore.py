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
"""

from __future__ import annotations

import contextlib
import functools
from pathlib import Path

import numpy as np

from .errors import StructuralError

_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


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

