"""Tree construction, random walks, and frequency concentration."""
import json
import math

import numpy as np
import pytest
from scipy import stats

from manyminds import cli
from manyminds.rng import RngSpec
from manyminds.walks import (
    SKIP,
    TreeEvent,
    TreeSpec,
    build_tree,
    chernoff_bound,
    chi_square_pvalue,
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
        assert tree.leaf_table[("1", "1")] == pytest.approx(1 / 9, abs=1e-12)
        assert tree.leaf_table[("2", "3")] == pytest.approx(2 / 9, abs=1e-12)
        assert tree.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_skip_slot_adds_no_leaves(self):
        spec = TreeSpec((
            TreeEvent("t1", (0.2, 0.6, 0.2)),
            SKIP,
            TreeEvent("t3", (0.3, 0.7)),
        ))
        tree = build_tree(spec)
        assert len(tree.paths) == 6
        assert tree.leaf_table[("2", "1")] == pytest.approx(0.6 * 0.3, abs=1e-12)
        assert all(len(p) == 2 for p in tree.paths)

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            TreeEvent("bad", (0.5, 0.4))
        with pytest.raises(ValueError):
            TreeEvent("bad", (1.2, -0.2))
        with pytest.raises(ValueError):
            TreeEvent("bad", ())
        with pytest.raises(ValueError):
            TreeSpec((TreeEvent("a", (1.0,)), TreeEvent("a", (1.0,))))

    def test_frequency_stream_id_rejected(self):
        # repeated_frequency draws from ("tree", "freq"); an event with that
        # id would share the stream
        with pytest.raises(ValueError, match="freq"):
            TreeEvent("freq", (0.5, 0.5))


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
        assert res.count_table[("1", "1")] == 50

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

    def test_walk_rejects_zero_walkers(self):
        with pytest.raises(ValueError):
            random_walk(build_tree(TWO_THREE_TREE), 0, RngSpec(1))


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
        assert abs(res.mean_frequency - 0.5) <= 4 / (2 * math.sqrt(trials * n))

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
