"""Counter-based stream determinism and inverse-CDF sampling."""
import concurrent.futures
import sys
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from manyminds import rng as rng_mod
from manyminds.rng import RngSpec, code_counts, sample_indices


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


def placed_draws(spec, n, *scope):
    """A count function for ``count_windows``: the window's draws, as int64
    bit patterns, at their own counters of an n-long array of zeros. The sum
    over windows is the whole stream's bit patterns only if every window is
    counted exactly once."""
    def count(start, stop):
        out = np.zeros(n, np.int64)
        out[start:stop] = spec.uniforms(stop - start, *scope, start=start).view(np.int64)
        return out
    return count


def stream_bits(spec, n, *scope):
    return spec.stream(*scope).random(n).view(np.int64)


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

    @pytest.mark.parametrize("start", [0, 4, 12, 1000])
    def test_window_starts_at_its_counter(self, start):
        spec = RngSpec(7)
        whole = spec.uniforms(start + 50, "walk", 3)
        assert np.array_equal(spec.uniforms(50, "walk", 3, start=start), whole[start:])

    @pytest.mark.parametrize("start", [-4, 2, 13])
    def test_window_start_off_the_philox_block_rejected(self, start):
        with pytest.raises(ValueError, match="multiple of 4"):
            RngSpec(7).uniforms(8, "walk", start=start)

    @pytest.mark.parametrize("n", [1, 3, 16, 47, 48, 101, 1024, 5000])
    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_thread_count_never_changes_values(self, monkeypatch, n, threads):
        # windows of 16 draws, so n = 5000 spreads over 313 windows and 7 workers
        monkeypatch.setattr(rng_mod, "CHUNK", 16)
        monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: 8)
        single = RngSpec(99, threads=1)
        multi = RngSpec(99, threads=threads)
        got = multi.count_windows(n, placed_draws(multi, n, "scope", n))
        assert np.array_equal(got, single.count_windows(n, placed_draws(single, n, "scope", n)))
        assert np.array_equal(got, stream_bits(single, n, "scope", n))

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

    def test_no_draws_with_a_row_per_draw(self):
        assert sample_indices(np.array([]), [[0.3, 0.7]], np.array([], int)).shape == (0,)

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
    @given(table=st.integers(1, 300).flatmap(lambda k: st.lists(st.lists(
               st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=k, max_size=k),
               min_size=1, max_size=3)),
           shortfall=st.floats(0.0, 1e-10),
           seed=st.integers(0, 2**32 - 1))
    def test_zero_probability_never_sampled_property(self, table, shortfall, seed):
        # rows of 1 to 300 outcomes straddle the cutoff between counting
        # comparisons and the binary search
        assume(all(sum(weights) > 0 for weights in table))
        table = np.asarray(table) / np.sum(table, axis=1, keepdims=True) * (1.0 - shortfall)
        probs = table[0]
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
        # with a row per draw, each draw gets the index that its row alone gives it
        u = np.concatenate([u, np.cumsum(table[1:], axis=1).ravel()])
        rows = np.random.default_rng(seed).integers(0, len(table), len(u))
        idx = sample_indices(u, table, rows)
        assert idx.dtype == np.min_scalar_type(len(probs) - 1)
        for row in range(len(table)):
            assert np.array_equal(idx[rows == row], sample_indices(u[rows == row], table[row]))
            assert np.array_equal(sample_indices(u, table, row), sample_indices(u, table[row]))


class TestCodeCounts:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=st.lists(st.integers(1, 70), max_size=3),
           n=st.integers(0, 300), minds_columns=st.booleans())
    def test_matches_counter(self, data, shape, n, minds_columns):
        # sampled columns take their smallest unsigned type, a caller's columns may be
        # signed; up to 70**3 cells, the code itself goes from uint8 to uint32
        columns = [np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                              dtype=np.int16 if minds_columns else np.min_scalar_type(k - 1))
                   for k in shape]
        flat = code_counts(n, columns, tuple(shape))
        assert flat.shape == (math.prod(shape),)
        table = flat.reshape(shape)
        seen = Counter(zip(*(c.tolist() for c in columns))) if shape else Counter({(): n})
        assert int(table.sum()) == n
        cells = (np.unravel_index(k, table.shape) for k in np.flatnonzero(table))
        assert {tuple(map(int, c)): int(table[c]) for c in cells} == +seen

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=st.lists(st.integers(1, 30), max_size=4),
           n=st.integers(0, 200), signed=st.booleans(), numpy_radices=st.booleans())
    def test_a_generator_counts_as_its_list(self, data, shape, n, signed, numpy_radices):
        # columns are added in place one at a time, whatever iterable carries them and
        # whatever integer type the columns and radices have; up to 30**4 cells, the
        # code goes from uint8 to uint32
        columns = [np.asarray(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
                              dtype=np.int64 if signed else np.min_scalar_type(k - 1))
                   for k in shape]
        radices = tuple(map(np.int64, shape)) if numpy_radices else tuple(shape)
        assert np.array_equal(code_counts(n, (c for c in columns), radices),
                              code_counts(n, columns, tuple(shape)))

    @pytest.mark.parametrize("shape", [(256,), (1, 256), (256, 1), (65536,), (1, 1, 65536),
                                       (16, 16), (255,)])
    def test_radix_as_large_as_the_product(self, shape):
        # the code type must hold every radix, not only the largest code
        rng = np.random.default_rng(5)
        columns = [rng.integers(0, k, 3000).astype(np.min_scalar_type(k - 1)) for k in shape]
        code = np.zeros(3000, np.int64)
        for column, radix in zip(columns, shape):
            code = code * radix + column
        want = np.bincount(code, minlength=math.prod(shape))
        assert np.array_equal(code_counts(3000, columns, shape), want)


class TestLimits:
    def test_separator_inside_scope_part_rejected(self):
        # ("a\x1fb",) would derive the same key as ("a", "b")
        with pytest.raises(ValueError, match="must not contain"):
            RngSpec(1).uniforms(4, "a\x1fb")
        assert RngSpec(1).uniforms(4, "a", "b").shape == (4,)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empty_run_refused_before_counting(self, threads):
        def count(start, stop):
            raise AssertionError("no window should be counted")

        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            RngSpec(1, threads=threads).count_windows(0, count)

    @pytest.mark.parametrize("cpus, threads, workers", [(2, 64, 2), (None, 3, 1), (4, 3, 3)])
    def test_pool_workers_capped_at_cpu_count(self, monkeypatch, cpus, threads, workers):
        seen = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        # count_windows imports the pool class from here when it needs a pool
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(rng_mod, "CHUNK", 64)
        spec = RngSpec(99, threads=threads)
        values = spec.count_windows(5000, placed_draws(spec, 5000, "cap"))
        # one worker counts the windows inline, with no pool
        assert seen == ([workers] if workers > 1 else [])
        assert np.array_equal(values, stream_bits(RngSpec(99), 5000, "cap"))

    def test_more_workers_than_cores_fill_one_buffer(self, monkeypatch):
        # each worker adds its windows into its own total and the totals are
        # summed; a lost, repeated or misplaced window would show as a value
        # differing from the one stream
        monkeypatch.setattr(rng_mod.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(rng_mod, "CHUNK", 512)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in (1001, 100_003):
                spec, starts = RngSpec(7, threads=8), []
                count = placed_draws(spec, n, "stress", n)

                def recorded(start, stop):
                    starts.append(start)
                    return count(start, stop)

                got = spec.count_windows(n, recorded)
                assert np.array_equal(got, stream_bits(spec, n, "stress", n))
                assert sorted(starts) == list(range(0, n, 512))
        finally:
            sys.setswitchinterval(interval)
