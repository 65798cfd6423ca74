"""Reproducible counter-based random streams.

Every stochastic operation in this package draws from a Philox counter-based
generator whose 128-bit key is derived from a master seed plus a string scope
(observer name, event id, ...). Value ``i`` of a stream is a pure function of
``(master_seed, scope, i)``, so the draw for mind/walker/trial ``i`` never
depends on how many values were generated before it, in what order, or on how
many worker threads produced them. Re-running with the same seed and the
same scopes is bit-identical, and a run can be counted window by window.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import ATOL

__all__ = ["CHUNK", "RngSpec", "code_counts", "sample_indices"]

# Philox.advance(k) skips 4k doubles; window starts must sit on 4-draw blocks.
_BLOCK = 4
# draws per window, a multiple of _BLOCK: 1 MiB of float64, half a core's 2 MiB L2 (2-core
# VM); 2**18 sampled as fast with 3-4 MB more RSS at 2 threads, 2**16 and 2**15 slower
CHUNK = 2**17

# joins the scope parts of a key; inside a part it would let two scopes collide
_SEP = "\x1f"
# last positive index up to which sample_indices counts comparisons; past it a
# binary search is faster (1e6 draws, 2-core VM: 32 against 63 ms at 64
# outcomes, 65 against 69 ms at 128, 103 against 78 ms at 192)
_SCAN_MAX = 128


def _derive_key(master_seed: int, scope: tuple) -> int:
    parts = [str(s) for s in scope]
    if any(_SEP in part for part in parts):
        raise ValueError(f"scope parts must not contain {_SEP!r}, got {scope!r}")
    payload = _SEP.join([str(int(master_seed))] + parts)
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=16).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class RngSpec:
    """Master seed plus a per-scope stream derivation rule.

    ``threads`` is the number of workers that count the windows of a run
    (``count_windows``), at most ``os.cpu_count()``. The window grid is fixed
    by ``CHUNK``, so ``threads`` never changes the values drawn or the counts.
    """

    master_seed: int
    threads: int = 1

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must fit in 64 bits, got {self.master_seed}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")

    def stream(self, *scope) -> np.random.Generator:
        """Fresh generator for a scope; position i in it belongs to counter i."""
        return np.random.Generator(np.random.Philox(key=_derive_key(self.master_seed, scope)))

    def uniforms(self, n: int, *scope, start: int = 0) -> np.ndarray:
        """n uniforms in [0, 1); entry i is the draw for counter (mind, walker,
        trial) ``start + i``. ``start`` must be a multiple of the 4-draw Philox block."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if start < 0 or start % _BLOCK:
            raise ValueError(f"start must be a non-negative multiple of {_BLOCK}, got {start}")
        gen = self.stream(*scope)
        gen.bit_generator.advance(start // _BLOCK)
        return gen.random(n)

    def count_windows(self, n: int, count):
        """Sum of the int64 counts ``count(start, stop)`` over the windows of
        the grid ``range(0, n, CHUNK)``, added in place. Each of the
        ``min(threads, os.cpu_count())`` workers counts every workers-th window,
        so no count depends on ``threads``, and memory is bounded by one window:
        a tree, ghz or chsh one holds ``CHUNK`` float64 draws, two index columns and a code."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        windows = range(0, n, CHUNK)
        workers = min(self.threads, os.cpu_count() or 1, len(windows))

        def total(first: int):
            counts = count(windows[first], min(windows[first] + CHUNK, n))
            for start in windows[first + workers::workers]:
                counts += count(start, min(start + CHUNK, n))
            return counts

        if workers == 1:
            return total(0)
        from concurrent.futures import ThreadPoolExecutor  # only a pool run pays its import
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(total, range(workers)))


def code_counts(size: int, columns, radices: tuple) -> np.ndarray:
    """Counts of the ``size`` rows of index columns, flat in the order of one mixed-radix
    code (first column most significant, as ``reshape(radices)`` reads it) in the smallest
    type that holds the product of ``radices``, so every radix fits in it too. ``columns``
    is any iterable, read one at a time, of any integer type holding values in ``[0, radix)``."""
    code = np.zeros(size, np.min_scalar_type(math.prod(radices)))
    for column, radix in zip(columns, radices):
        np.multiply(code, radix, out=code, casting="unsafe")
        np.add(code, column, out=code, casting="unsafe")
    return np.bincount(code, minlength=math.prod(radices))


def sample_indices(uniforms: np.ndarray, probs: np.ndarray, rows=0) -> np.ndarray:
    """Map uniforms to outcome indices by inverse CDF over rows of ``probs``.

    ``probs`` is one row or a table of rows; ``rows`` is one row index shared
    by every draw, or an array with one row index per uniform. The index of
    ``u`` is the number of cumulative sums of its row at or below it,
    ``sum_j (u >= cum[row, j])``: discrete inversion by sequential search
    (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. III.2).
    Counting runs only over the sums before the row's last positive outcome,
    ``last``, so an outcome of probability 0 is never returned, and a uniform
    at or above the row's last cumulative sum (possible when the row sums to
    slightly under 1) maps onto ``last``.

    One comparison pass per outcome beats a binary search while ``last`` is
    at most ``_SCAN_MAX``; a longer shared row (tree events, joint tuples)
    takes ``np.searchsorted``, which gives the same index. Either way the
    indices come back in the smallest unsigned dtype that holds the row
    length minus 1 (``np.min_scalar_type``), uint8 up to 256 outcomes.
    """
    table = np.atleast_2d(np.asarray(probs, dtype=float))
    if np.isnan(table).any() or (table < 0).any():
        raise ValueError(f"probabilities must be non-negative numbers, got {probs}")
    cum = np.cumsum(table, axis=1)
    unnormalized = np.abs(cum[:, -1] - 1.0) > ATOL
    if unnormalized.any():
        raise ValueError(f"probabilities sum to {cum[unnormalized, -1][0]}, expected 1")
    last = table.shape[1] - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    # a sum at or past the last positive outcome is never counted
    cum[np.arange(table.shape[1]) >= last[:, None]] = np.inf
    dtype = np.min_scalar_type(table.shape[1] - 1)
    if np.ndim(rows) == 0 and last[rows] > _SCAN_MAX:
        return np.searchsorted(cum[rows], uniforms, side="right").astype(dtype)
    uniforms = np.asarray(uniforms)
    idx = np.zeros(uniforms.shape, dtype)
    for c in cum[:, :np.max(last[rows], initial=0)].T:
        idx += uniforms >= c[rows]
    return idx
