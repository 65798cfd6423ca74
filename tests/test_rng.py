"""Counter-based stream determinism and inverse-CDF sampling."""
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manyminds import rng as rng_mod
from manyminds.rng import RngSpec, sample_indices


def sample_oracle(u, probs):
    """Per-value linear CDF scan, written independently of the vector path."""
    out = []
    for x in u:
        acc = 0.0
        pick = len(probs) - 1
        for i, p in enumerate(probs):
            acc += p
            if x < acc:
                pick = i
                break
        out.append(pick)
    return np.asarray(out)


class TestRngSpec:
    def test_same_seed_same_scope_identical(self):
        a = RngSpec(42).uniforms(1000, "alice", "measure")
        b = RngSpec(42).uniforms(1000, "alice", "measure")
        assert np.array_equal(a, b)

    def test_scope_changes_values(self):
        base = RngSpec(42).uniforms(100, "alice", "measure")
        assert not np.array_equal(base, RngSpec(42).uniforms(100, "bob", "measure"))
        assert not np.array_equal(base, RngSpec(42).uniforms(100, "alice", "report"))
        assert not np.array_equal(base, RngSpec(43).uniforms(100, "alice", "measure"))

    def test_counter_position_independent_of_block_size(self):
        spec = RngSpec(7)
        long = spec.uniforms(500, "walk", 3)
        short = spec.uniforms(20, "walk", 3)
        assert np.array_equal(long[:20], short)

    @pytest.mark.parametrize("n", [1, 3, 16, 47, 48, 101, 1024, 5000])
    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_thread_count_never_changes_values(self, n, threads):
        single = RngSpec(99, threads=1).uniforms(n, "scope", n)
        multi = RngSpec(99, threads=threads).uniforms(n, "scope", n)
        assert np.array_equal(single, multi)

    def test_stream_matches_uniforms(self):
        spec = RngSpec(5)
        assert np.array_equal(spec.stream("s").random(64), spec.uniforms(64, "s"))

    def test_uniform_range(self):
        u = RngSpec(1).uniforms(10000, "range")
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_seed_bounds(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(2**64)
        with pytest.raises(ValueError):
            RngSpec(0, threads=0)


class TestSampleIndices:
    def test_matches_scan_oracle(self):
        probs = [0.2, 0.0, 0.5, 0.3]
        u = RngSpec(3).uniforms(5000, "cdf")
        assert np.array_equal(sample_indices(u, probs), sample_oracle(u, probs))

    def test_zero_probability_never_selected(self):
        u = np.concatenate([[0.0, 0.999999], RngSpec(4).uniforms(5000, "zeros")])
        idx = sample_indices(u, [0.0, 0.5, 0.0, 0.5])
        assert set(np.unique(idx)) <= {1, 3}

    def test_boundaries(self):
        idx = sample_indices(np.array([0.0, 0.3, 0.99999]), [0.3, 0.7])
        assert idx.tolist() == [0, 1, 1]

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            sample_indices(np.array([0.5]), [0.3, 0.3])

    def test_overflow_never_lands_on_trailing_zero(self):
        # sums to 1 - 1e-10, inside the tolerance; the uniform lies past the last cumsum
        assert sample_indices(np.array([0.99999999995]), [1 - 1e-10, 0.0]).tolist() == [0]

    @pytest.mark.parametrize("probs", [[0.5, -0.1, 0.6], [0.5, float("nan"), 0.5],
                                       [float("nan")]])
    def test_rejects_negative_or_nan(self, probs):
        with pytest.raises(ValueError, match="non-negative"):
            sample_indices(np.array([0.5]), probs)

    @settings(max_examples=200, deadline=None)
    @given(weights=st.integers(1, 300).flatmap(lambda k: st.lists(
               st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=k, max_size=k)),
           shortfall=st.floats(0.0, 1e-10),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_probability_never_sampled_property(self, weights, shortfall, seed):
        # rows of 1 to 300 outcomes straddle the cutoff between counting
        # comparisons and the binary search
        assume(sum(weights) > 0)
        probs = np.asarray(weights) / sum(weights) * (1.0 - shortfall)
        cum = np.cumsum(probs)
        # the cumulative sums themselves are uniforms that tie with a boundary
        u = np.concatenate([RngSpec(seed).uniforms(200, "prop"),
                            [0.0, 1.0 - 1e-10, np.nextafter(1.0, 0.0)], cum])
        idx = sample_indices(u, probs)
        assert idx.dtype == np.min_scalar_type(len(probs) - 1)
        assert np.all(probs[idx] > 0)
        # the binary search, clamped to the last positive outcome
        last = np.flatnonzero(probs)[-1]
        assert np.array_equal(idx, np.minimum(np.searchsorted(cum, u, side="right"), last))
        # draws below the last cumulative sum keep their inverse-CDF index
        inside = u < cum[-1]
        assert np.array_equal(idx[inside], sample_oracle(u[inside], probs))


class TestLimits:
    def test_separator_inside_scope_part_rejected(self):
        # ("a\x1fb",) would derive the same key as ("a", "b")
        with pytest.raises(ValueError, match="must not contain"):
            RngSpec(1).uniforms(4, "a\x1fb")
        assert RngSpec(1).uniforms(4, "a", "b").shape == (4,)

    @pytest.mark.parametrize("cpus, threads, workers", [(2, 64, 2), (None, 3, 1), (4, 3, 3)])
    def test_pool_workers_capped_at_cpu_count(self, monkeypatch, cpus, threads, workers):
        seen = []

        class Recording(rng_mod.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(rng_mod, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: cpus)
        values = RngSpec(99, threads=threads).uniforms(5000, "cap")
        assert seen == [workers]
        assert np.array_equal(values, RngSpec(99).uniforms(5000, "cap"))

    def test_more_workers_than_cores_fill_one_buffer(self, monkeypatch):
        # every worker writes its own slice of the shared output; a lost or
        # misplaced chunk would show as a value differing from the one stream
        monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1001, 100_003):
                got = RngSpec(7, threads=8).uniforms(n, "stress", n)
                assert np.array_equal(got, RngSpec(7).stream("stress", n).random(n))
        finally:
            sys.setswitchinterval(interval)
