"""Reproducible counter-based random streams.

Every stochastic operation in this package draws from a Philox counter-based
generator whose 128-bit key is derived from a master seed plus a string scope
(observer name, event id, ...). Value ``i`` of a stream is a pure function of
``(master_seed, scope, i)``, so the draw for mind/walker/trial ``i`` never
depends on how many values were generated before it, in what order, or on how
many worker threads produced the block. Re-running with the same seed and the
same scopes is bit-identical.
"""
from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = ["RngSpec", "sample_indices"]

# Philox.advance(k) skips 4k doubles; chunk boundaries must sit on 4-draw blocks.
_BLOCK = 4
# joins the scope parts of a key; inside a part it would let two scopes collide
_SEP = "\x1f"


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

    ``threads`` is the number of chunks a large block of uniforms is split
    into; at most ``os.cpu_count()`` workers fill them. It never affects the
    values produced.
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

    def uniforms(self, n: int, *scope) -> np.ndarray:
        """n uniforms in [0, 1); entry i is the draw for counter (mind, walker, trial) i."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if self.threads == 1 or n < 4 * _BLOCK * self.threads:
            return self.stream(*scope).random(n)
        return self._uniforms_chunked(n, scope)

    def _uniforms_chunked(self, n: int, scope: tuple) -> np.ndarray:
        key = _derive_key(self.master_seed, scope)
        per = -(-n // self.threads)
        per += (-per) % _BLOCK  # align chunk starts to Philox block boundaries
        bounds = [(a, min(a + per, n)) for a in range(0, n, per)]

        def fill(span):
            a, b = span
            bg = np.random.Philox(key=key)
            bg.advance(a // _BLOCK)
            return np.random.Generator(bg).random(b - a)

        with ThreadPoolExecutor(max_workers=min(self.threads, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(fill, bounds))
        return np.concatenate(parts)

    def to_dict(self) -> dict:
        return {"master_seed": self.master_seed, "threads": self.threads}


def sample_indices(uniforms: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Map uniforms to outcome indices by inverse CDF over ``probs``.

    An outcome of probability 0 is never returned. A uniform at or above the
    last cumulative sum (possible when ``probs`` sums to slightly under 1)
    maps onto the last outcome with positive probability.
    """
    probs = np.asarray(probs, dtype=float)
    if np.isnan(probs).any() or (probs < 0).any():
        raise ValueError(f"probabilities must be non-negative numbers, got {probs}")
    cum = np.cumsum(probs)
    if abs(cum[-1] - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {cum[-1]}, expected 1")
    idx = np.searchsorted(cum, uniforms, side="right")
    return np.minimum(idx, np.flatnonzero(probs)[-1])
