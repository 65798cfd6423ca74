"""Tree construction, random walks, and frequency concentration."""
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from manyminds import cli, walks
from manyminds import rng as rng_mod
from manyminds.rng import RngSpec, sample_indices
from manyminds.walks import (
    SKIP,
    Tree,
    TreeEvent,
    TreeSpec,
    WalkResult,
    build_tree,
    chernoff_bound,
    chi_square_pvalue,
    chi_square_tail,
    load_tree_spec,
    random_walk,
    repeated_frequency,
    tree_spec_from_json,
)

SIGNIFICANCE = 1e-4

TWO_THREE_TREE = TreeSpec((
    TreeEvent("t1", (1 / 3, 2 / 3)),
    TreeEvent("t2", (1 / 3, 1 / 3, 1 / 3)),
))


class TestBuildTree:
    def test_six_leaves_with_product_probs(self):
        tree = build_tree(TWO_THREE_TREE)
        assert len(tree.paths) == 6
        assert tree.probs[tree.paths.index(("1", "1"))] == pytest.approx(1 / 9, abs=1e-12)
        assert tree.probs[tree.paths.index(("2", "3"))] == pytest.approx(2 / 9, abs=1e-12)
        assert tree.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_skip_slot_adds_no_leaves(self):
        spec = TreeSpec((
            TreeEvent("t1", (0.2, 0.6, 0.2)),
            SKIP,
            TreeEvent("t3", (0.3, 0.7)),
        ))
        tree = build_tree(spec)
        assert len(tree.paths) == 6
        assert tree.probs[tree.paths.index(("2", "1"))] == pytest.approx(0.6 * 0.3, abs=1e-12)
        assert all(len(p) == 2 for p in tree.paths)

    @settings(max_examples=200, deadline=None)
    @given(slots=st.lists(st.one_of(st.none(), st.lists(st.floats(1e-3, 1.0), min_size=1,
                                                        max_size=4)), max_size=6),
           named=st.booleans())
    def test_matches_nested_loop_reference(self, slots, named):
        events = tuple(SKIP if ws is None else TreeEvent(
            f"e{k}", tuple(w / sum(ws) for w in ws),
            tuple(f"o{len(ws) - j}" for j in range(len(ws))) if named else None)
            for k, ws in enumerate(slots))
        # the construction build_tree had before it took paths from itertools.product
        paths, probs = [()], np.array([1.0])
        for event in (e for e in events if not e.skip):
            paths = [p + (label,) for p in paths for label in event.labels]
            probs = np.outer(probs, np.asarray(event.probs)).ravel()
        tree = build_tree(TreeSpec(events))
        assert tree.paths == tuple(paths)
        assert tree.probs.tobytes() == probs.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(slots=st.lists(st.one_of(st.none(), st.lists(
        st.text(st.characters(blacklist_characters="/"), max_size=3), min_size=1, max_size=4,
        unique=True)), max_size=8).filter(lambda s: sum(x is not None for x in s) <= 6))
    def test_path_texts_join_each_path(self, slots):
        events = tuple(SKIP if labels is None else TreeEvent(
            f"e{k}", (1 / len(labels),) * len(labels), tuple(labels))
            for k, labels in enumerate(slots))
        tree = build_tree(TreeSpec(events))
        assert tree.path_texts() == ["/".join(p) for p in tree.paths]

    def test_no_active_event_has_one_empty_path(self):
        tree = build_tree(TreeSpec((SKIP, SKIP)))
        assert tree.path_texts() == [""]
        assert tree.paths == ((),)

    def test_leaf_cap(self, monkeypatch):
        monkeypatch.setattr(walks, "MAX_LEAVES", 6)
        assert len(build_tree(TWO_THREE_TREE).paths) == 6
        with pytest.raises(ValueError, match="tree has 8 leaves, more than 6"):
            build_tree(TreeSpec(tuple(TreeEvent(f"e{k}", (0.5, 0.5)) for k in range(3))))

    def test_duplicate_labels_rejected(self):
        # two leaves would share a path, and event_marginal would drop an outcome
        with pytest.raises(ValueError, match="duplicate labels"):
            TreeEvent("a", (0.5, 0.5), ("x", "x"))

    def test_slash_in_label_rejected(self):
        # "/" joins labels into leaf paths: ("a", "b/c") and ("a/b", "c") would collide
        with pytest.raises(ValueError, match="'/'"):
            TreeEvent("a", (0.5, 0.5), ("a", "a/b"))

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            TreeEvent("bad", (0.5, 0.4))
        with pytest.raises(ValueError):
            TreeEvent("bad", (1.2, -0.2))
        with pytest.raises(ValueError):
            TreeEvent("bad", ())
        with pytest.raises(ValueError):
            TreeSpec((TreeEvent("a", (1.0,)), TreeEvent("a", (1.0,))))


class TestRandomWalk:
    def test_counts_partition_walkers(self):
        res = random_walk(build_tree(TWO_THREE_TREE), 5000, RngSpec(3))
        assert res.counts.sum() == 5000
        assert res.total == 5000

    def test_event_marginal_tracks_branch_probability(self):
        n = 100000
        res = random_walk(build_tree(TWO_THREE_TREE), n, RngSpec(13))
        freq = res.event_marginal("t1")["2"]
        assert abs(freq - 2 / 3) <= 4 * math.sqrt((2 / 3) * (1 / 3) / n)

    def test_goodness_of_fit_six_leaf_tree(self):
        res = random_walk(build_tree(TWO_THREE_TREE), 100000, RngSpec(14))
        assert chi_square_pvalue(res) > SIGNIFICANCE

    def test_single_outcome_events_are_deterministic(self):
        spec = TreeSpec((TreeEvent("t1", (1.0,)), TreeEvent("t2", (1.0,))))
        res = random_walk(build_tree(spec), 50, RngSpec(1))
        assert res.counts[res.tree.paths.index(("1", "1"))] == 50

    def test_walks_deterministic_and_walker_count_stable(self):
        tree = build_tree(TWO_THREE_TREE)
        a = random_walk(tree, 1000, RngSpec(7))
        b = random_walk(tree, 1000, RngSpec(7))
        assert np.array_equal(a.counts, b.counts)
        # walker i's path must not depend on how many walkers run beside it
        small = random_walk(tree, 10, RngSpec(7))
        assert small.counts.sum() == 10

    def test_event_marginal_matches_leaf_loop(self):
        # rows of hundreds of leaves, where a pairwise sum would round differently
        events = [TreeEvent(f"e{k}", (0.2, 0.3, 0.5) if k % 2 else (0.1, 0.9)) for k in range(8)]
        spec = TreeSpec((events[0], SKIP, *events[1:]))
        res = random_walk(build_tree(spec), 7919, RngSpec(15))
        for pos, event in enumerate(res.tree.active_events):
            want = {label: 0.0 for label in event.labels}
            for path, c in zip(res.tree.paths, res.counts):
                want[path[pos]] += int(c) / res.total
            assert list(res.event_marginal(event.event_id).items()) == list(want.items())

    @pytest.mark.parametrize("sizes", [(256,), (1, 256), (256, 3)])
    def test_wide_events_match_the_int64_leaf_code(self, monkeypatch, sizes):
        # one leaf code in int64 over whole streams, as the walk was counted before windows
        monkeypatch.setattr(rng_mod, "CHUNK", 64)
        spec = TreeSpec(tuple(TreeEvent(f"w{j}", tuple(np.full(k, 1 / k))) for j, k in
                              enumerate(sizes)))
        rng, n = RngSpec(21), 1001
        leaf = np.zeros(n, np.int64)
        for event in spec.events:
            u = rng.uniforms(n, "tree", event.event_id)
            leaf = leaf * len(event.probs) + sample_indices(u, event.probs)
        want = np.bincount(leaf, minlength=math.prod(sizes))
        assert np.array_equal(random_walk(build_tree(spec), n, rng).counts, want)

    def test_walk_rejects_zero_walkers(self):
        with pytest.raises(ValueError):
            random_walk(build_tree(TWO_THREE_TREE), 0, RngSpec(1))


def probability_rows(max_events=4, max_outcomes=5):
    weights = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=max_outcomes)
    return st.lists(weights, min_size=1, max_size=max_events).map(
        lambda rows: [[w / sum(ws) for w in ws] for ws in rows])


class TestChiSquare:
    @settings(max_examples=200, deadline=None)
    @given(rows=probability_rows(), walkers=st.integers(1, 50000), seed=st.integers(0, 2**32))
    def test_matches_scipy(self, rows, walkers, seed):
        tree = build_tree(TreeSpec(tuple(TreeEvent(f"e{k}", tuple(r))
                                         for k, r in enumerate(rows))))
        assume(len(tree.paths) > 1)
        result = random_walk(tree, walkers, RngSpec(seed))
        want = stats.chisquare(result.counts, tree.probs * walkers).pvalue
        assume(want > 1e-290)
        assert abs(chi_square_pvalue(result) - want) <= 1e-9 * want

    def test_zero_probability_leaves_left_out(self):
        spec = TreeSpec((TreeEvent("a", (1.0, 0.0)), TreeEvent("b", (0.25, 0.0, 0.75))))
        res = random_walk(build_tree(spec), 4000, RngSpec(3))
        live = res.tree.probs > 0
        want = stats.chisquare(res.counts[live], res.tree.probs[live] * res.total).pvalue
        assert chi_square_pvalue(res) == want

    def test_walker_on_zero_probability_leaf_gives_zero(self):
        tree = build_tree(TreeSpec((TreeEvent("a", (0.5, 0.5, 0.0)),)))
        assert chi_square_pvalue(WalkResult(tree, np.array([50, 49, 1]), 100)) == 0.0

    @pytest.mark.parametrize("probs", [(1.0,), (0.0, 1.0)])
    def test_one_positive_leaf_is_an_exact_fit(self, probs):
        res = random_walk(build_tree(TreeSpec((TreeEvent("a", probs),))), 100, RngSpec(1))
        assert chi_square_pvalue(res) == 1.0

    def test_expected_total_must_match_walkers(self):
        tree = Tree(TreeSpec((TreeEvent("a", (0.5, 0.5)),)), np.array([0.5, 0.4999]))
        with pytest.raises(ValueError, match="relative"):
            chi_square_pvalue(WalkResult(tree, np.array([60, 40]), 100))


class TestChiSquareTail:
    @settings(max_examples=500, deadline=None)
    @given(df=st.integers(1, 600), scale=st.floats(0.0, 1.0))
    def test_matches_scipy(self, df, scale):
        # from x = 0 far into the upper tail, about 40 standard deviations out
        x = scale * (df + 40 * math.sqrt(2 * df) + 150)
        want = special.chdtrc(df, x)
        assume(want > 1e-290)
        assert abs(chi_square_tail(x, df) - want) <= 1e-9 * want

    # the 6x3 tree, 2**16 leaves, and the largest tree the CLI fits: MAX_DRAWS
    # walkers with MIN_EXPECTED on every leaf
    @pytest.mark.parametrize("df", [728, 65535, 200000,
                                    cli.MAX_DRAWS // cli.MIN_EXPECTED - 1])
    def test_matches_scipy_up_to_the_largest_fitted_tree(self, df):
        for z in (-5, -1, 0, 1, 3, 8, 20):
            x = df + z * math.sqrt(2 * df)
            want = special.chdtrc(df, x)
            assert want > 1e-290
            assert abs(chi_square_tail(x, df) - want) <= 1e-9 * want


class TestRepeatedFrequency:
    def test_deviant_fraction_respects_chernoff(self):
        res = repeated_frequency(2 / 3, 1000, 10000, RngSpec(23))
        bound = chernoff_bound(0.05, 1000)
        assert bound == pytest.approx(2 * math.exp(-5), abs=1e-12)
        assert res.deviant_fraction(0.05) <= bound

    def test_certain_outcome(self):
        res = repeated_frequency(1.0, 20, 100, RngSpec(1))
        assert np.all(res.frequencies == 1.0)

    def test_mean_frequency_binomial_band(self):
        n, trials = 100000, 10
        res = repeated_frequency(0.5, trials, n, RngSpec(29))
        assert abs(float(res.frequencies.mean()) - 0.5) <= 4 / (2 * math.sqrt(trials * n))

    def test_walker_rows_come_from_the_freq_scope(self):
        n, trials, p, spec = 300, 7, 0.3, RngSpec(5)
        want = (spec.uniforms(n * trials, "freq").reshape(n, trials) < p).mean(axis=1)
        assert np.array_equal(repeated_frequency(p, trials, n, spec).frequencies, want)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            repeated_frequency(1.5, 10, 10, RngSpec(1))
        with pytest.raises(ValueError):
            repeated_frequency(0.5, 0, 10, RngSpec(1))


class TestInterchange:
    def test_json_round_trip(self, tmp_path):
        blob = {"events": [{"probs": [1 / 3, 2 / 3]},
                           {"skip": True},
                           {"probs": [0.25, 0.25, 0.5], "labels": ["a", "b", "c"],
                            "id": "named"}]}
        spec = tree_spec_from_json(blob)
        assert spec.events[1].skip
        assert spec.events[2].labels == ("a", "b", "c")
        assert spec.events[2].event_id == "named"
        p = tmp_path / "tree.json"
        p.write_text(json.dumps(blob))
        assert load_tree_spec(p) == spec

    def test_json_errors(self):
        with pytest.raises(ValueError):
            tree_spec_from_json({})
        with pytest.raises(ValueError):
            tree_spec_from_json({"events": [{"labels": ["x"]}]})

    def test_csv_export(self, tmp_path):
        spec = tmp_path / "tree.json"
        spec.write_text(json.dumps({"events": [{"probs": e.probs}
                                               for e in TWO_THREE_TREE.events]}))
        out = tmp_path / "walk.csv"
        assert cli.main(["tree", "--spec", str(spec), "--minds", "100", "--seed", "1",
                         "--format", "csv", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().strip().splitlines() if not l.startswith("# ")]
        assert lines[0] == "leaf_path,count,exact_prob"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1/1"
        assert float(first[2]) == pytest.approx(1 / 9, abs=1e-12)

    def test_leaf_probability_lln_bridge(self):
        # frequencies over a quantum-weight tree concentrate per Chernoff too
        res = repeated_frequency(0.36, 500, 5000, RngSpec(37))
        assert res.deviant_fraction(0.08) <= chernoff_bound(0.08, 500)
