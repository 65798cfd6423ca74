"""Mind-ensemble splitting, proportions, mismatch and report consistency."""
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from manyminds.minds import (
    INDEPENDENT_LOCAL,
    JOINTLY_CORRELATED,
    SINGLE_MIND,
    MindEnsemble,
    count_off_support,
    init_ensemble,
    marginal_for,
    mismatch_probability,
    proportions,
    report_correlation,
    split_joint,
    split_local,
)
from manyminds.quantum import Branch, BranchDecomposition, conditional_distribution
from manyminds.rng import RngSpec, sample_indices

SIGNIFICANCE = 1e-4


def band(p, n, sigmas=4):
    return sigmas * math.sqrt(p * (1 - p) / n)


def decomp(subsystems, weights):
    branches = tuple(Branch(labels, math.sqrt(w), w) for labels, w in sorted(weights.items()))
    return BranchDecomposition(tuple(subsystems), ("z",) * len(subsystems), branches)


SINGLET_Z = decomp(("alice", "bob"), {("+", "-"): 0.5, ("-", "+"): 0.5})
# a support that is not a permutation: x pairs with u or v, y only with w
SKEWED = decomp(("a", "b"), {("x", "u"): 0.2, ("x", "v"): 0.3, ("y", "w"): 0.5})


# Label-loop references: the per-mind computations the index paths replaced.

def label_off_support(d, labels, ia, ib):
    support = set(d.joint_distribution())
    pairs = zip((labels[0][i] for i in ia.tolist()), (labels[1][j] for j in ib.tolist()))
    return sum(1 for p in pairs if p not in support)


def label_mismatch_probability(policy, d, trials, rng, event_id="mismatch"):
    support = set(d.joint_distribution())
    if policy is JOINTLY_CORRELATED:
        joint = d.joint_distribution()
        tuples = sorted(joint)
        idx = sample_indices(rng.uniforms(trials, "joint", event_id),
                             [joint[t] for t in tuples])
        return sum(1 for i in idx if tuples[i] not in support) / trials
    obs_a, obs_b = d.subsystems
    dist_a, dist_b = marginal_for(d, obs_a), marginal_for(d, obs_b)
    labels_a, labels_b = sorted(dist_a), sorted(dist_b)
    ia = sample_indices(rng.uniforms(trials, "local", obs_a, event_id),
                        [dist_a[o] for o in labels_a])
    ib = sample_indices(rng.uniforms(trials, "local", obs_b, event_id),
                        [dist_b[o] for o in labels_b])
    return label_off_support(d, (labels_a, labels_b), ia, ib) / trials


def label_report_checks(ensembles, d, measure_event, report_event):
    out = []
    for ens in ensembles:
        cond = conditional_distribution(d, [ens.observer], [f"{ens.observer}_report"])
        expected = {own: next(iter(dist))[0] for (own,), dist in cond.items()}
        own, seen = ens.outcomes(measure_event), ens.outcomes(report_event)
        consistent = int(np.sum(np.asarray([expected[o] for o in own.tolist()],
                                           dtype=object) == seen))
        observed = {}
        for o, r in zip(own.tolist(), seen.tolist()):
            row = observed.setdefault(o, {})
            row[r] = row.get(r, 0) + 1
        out.append((ens.observer, ens.size, consistent, expected, observed))
    return out


def as_tuples(checks):
    return [(c.observer, c.size, c.consistent, c.expected, c.observed) for c in checks]


# Label-keyed split reference: each history class samples over its own row's
# sorted keys, and the class keys are decoded digit by digit.

def label_history_classes(ensembles):
    n = ensembles[0].size
    columns = [ens.assignments[k] for ens in ensembles for k in range(len(ens.events))]
    if not columns:
        return np.zeros(n, dtype=np.int64), [label_class_key(ensembles, [])]
    radix = [len(ens.outcome_labels[k]) for ens in ensembles for k in range(len(ens.events))]
    codes = np.ravel_multi_index([np.asarray(c) for c in columns], dims=radix)
    uniq, inverse = np.unique(codes, return_inverse=True)
    keys = [label_class_key(ensembles, [int(d) for d in np.unravel_index(code, radix)])
            for code in uniq]
    return inverse, keys


def label_class_key(ensembles, digits):
    per_obs = []
    pos = 0
    for ens in ensembles:
        hist = []
        for k in range(len(ens.events)):
            hist.append(ens.outcome_labels[k][digits[pos]])
            pos += 1
        per_obs.append(tuple(hist))
    return per_obs[0] if len(ensembles) == 1 else tuple(per_obs)


def label_sample_by_class(u, class_of_mind, class_keys, table, outcomes):
    outcome_pos = {o: i for i, o in enumerate(outcomes)}
    chosen = np.zeros(len(u), dtype=np.int64)
    for cls, key in enumerate(class_keys):
        mask = class_of_mind == cls
        if not mask.any():
            continue
        dist = table[key]
        local = sorted(dist.keys())
        idx = sample_indices(u[mask], [dist[o] for o in local])
        chosen[mask] = np.asarray([outcome_pos[o] for o in local])[idx]
    return chosen


def label_split_local(ens, event_id, probs):
    """(labels, column) that ``split_local`` must append."""
    u = ens.rng.uniforms(ens.size, "local", ens.observer, event_id)
    if all(isinstance(k, tuple) for k in probs):
        labels = sorted({o for dist in probs.values() for o in dist})
        cls, keys = label_history_classes([ens])
        return tuple(labels), label_sample_by_class(u, cls, keys, probs, labels)
    labels = sorted(probs)
    return tuple(labels), sample_indices(u, [probs[o] for o in labels])


def label_split_joint(ensembles, event_id, dist):
    """Per observer, the (labels, column) that ``split_joint`` must append."""
    n, order = ensembles[0].size, [ens.observer for ens in ensembles]
    if isinstance(dist, BranchDecomposition):
        perm = [dist.subsystems.index(obs) for obs in order]
        table = {(): {tuple(k[p] for p in perm): w for k, w in dist.joint_distribution().items()}}
        cls, keys = np.zeros(n, dtype=np.int64), [()]
    else:
        table = dist
        cls, keys = label_history_classes(ensembles)
    tuples = sorted({t for row in table.values() for t in row})
    chosen = label_sample_by_class(ensembles[0].rng.uniforms(n, "joint", event_id),
                                   cls, keys, table, tuples)
    out = []
    for pos in range(len(ensembles)):
        labels = tuple(sorted({t[pos] for t in tuples}))
        out.append((labels, np.asarray([labels.index(t[pos]) for t in tuples])[chosen]))
    return out


def last_column(ens):
    return ens.outcome_labels[-1], ens.assignments[-1]


def same_column(got, want):
    return got[0] == want[0] and np.array_equal(got[1], want[1])


class TestInit:
    def test_population_and_ids(self):
        ens = init_ensemble("alice", 5, RngSpec(1))
        assert ens.size == 5
        assert ens.events == ()
        assert ens.assignments == ()

    def test_single_mind_forces_one(self):
        assert init_ensemble("alice", 500, RngSpec(1), SINGLE_MIND).size == 1

    def test_zero_minds_rejected(self):
        with pytest.raises(ValueError):
            init_ensemble("alice", 0, RngSpec(1))


class TestSplitLocal:
    def test_proportions_within_binomial_band(self):
        n = 20000
        ens = split_local(init_ensemble("alice", n, RngSpec(8)), "m",
                          {"+": 0.36, "-": 0.64})
        props = proportions(ens, "m")
        assert sum(props.values()) == Fraction(1)
        assert abs(float(props["+"]) - 0.36) <= band(0.36, n)

    def test_identity_persists_across_splits(self):
        ens = init_ensemble("alice", 50, RngSpec(2))
        ens = split_local(ens, "a", {"H": 0.5, "T": 0.5})
        ens = split_local(ens, "b", {"0": 0.5, "1": 0.5})
        assert ens.size == 50
        assert all(col.shape == (50,) for col in ens.assignments)
        assert all(len(ens.history(i)) == 2 for i in range(50))

    def test_deterministic_per_seed_and_observer(self):
        def run(observer, seed):
            ens = split_local(init_ensemble(observer, 200, RngSpec(seed)), "m",
                              {"+": 0.5, "-": 0.5})
            return ens.assignments[0]

        assert np.array_equal(run("alice", 4), run("alice", 4))
        assert not np.array_equal(run("alice", 4), run("bob", 4))
        assert not np.array_equal(run("alice", 4), run("alice", 5))

    def test_zero_weight_outcome_gets_no_minds(self):
        ens = split_local(init_ensemble("a", 5000, RngSpec(3)), "m",
                          {"x": 0.0, "y": 1.0})
        assert proportions(ens, "m") == {"x": Fraction(0), "y": Fraction(1)}

    def test_conditional_split_follows_history(self):
        ens = split_local(init_ensemble("a", 400, RngSpec(6)), "first",
                          {"H": 0.5, "T": 0.5})
        ens = split_local(ens, "second", {
            ("H",): {"h2": 1.0},
            ("T",): {"t2": 1.0},
        })
        for i in range(ens.size):
            first, second = ens.history(i)
            assert second == {"H": "h2", "T": "t2"}[first]

    def test_sequential_split_product_rule(self):
        n = 30000
        ens = split_local(init_ensemble("a", n, RngSpec(12)), "u", {"a": 1 / 3, "b": 2 / 3})
        ens = split_local(ens, "v", {"x": 0.5, "y": 0.5})
        counts = Counter(ens.history(i) for i in range(n))
        keys = sorted(counts)
        expected = {("a", "x"): 1 / 6, ("a", "y"): 1 / 6,
                    ("b", "x"): 1 / 3, ("b", "y"): 1 / 3}
        res = stats.chisquare([counts[k] for k in keys],
                              [expected[k] * n for k in keys])
        assert res.pvalue > SIGNIFICANCE

    def test_cross_observer_independence(self):
        n = 20000
        rng = RngSpec(9)
        alice = split_local(init_ensemble("alice", n, rng), "m", {"+": 0.5, "-": 0.5})
        bob = split_local(init_ensemble("bob", n, rng), "m", {"+": 0.5, "-": 0.5})
        table = np.zeros((2, 2), dtype=int)
        np.add.at(table, (alice.assignments[0], bob.assignments[0]), 1)
        res = stats.chi2_contingency(table)
        assert res.pvalue > SIGNIFICANCE

    def test_event_reuse_rejected(self):
        ens = split_local(init_ensemble("a", 4, RngSpec(1)), "m", {"+": 0.5, "-": 0.5})
        with pytest.raises(ValueError):
            split_local(ens, "m", {"+": 0.5, "-": 0.5})

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            split_local(init_ensemble("a", 4, RngSpec(1)), "m", {"+": 0.6, "-": 0.3})

    def test_too_many_outcomes_rejected(self):
        # int16 columns would wrap a 40,000-outcome split to negative indices
        probs = {f"o{i:05d}": 1 / 40000 for i in range(40000)}
        with pytest.raises(ValueError, match="int16"):
            split_local(init_ensemble("a", 4, RngSpec(1)), "m", probs)

    def test_outcome_count_limit_is_int16_max(self):
        def ensemble(k):
            return MindEnsemble("a", 1, RngSpec(1), events=("m",),
                                outcome_labels=(tuple(map(str, range(k))),),
                                assignments=(np.array([k - 1]),))

        assert ensemble(32767).assignments[0].tolist() == [32766]
        with pytest.raises(ValueError, match="int16"):
            ensemble(32768)

    @pytest.mark.parametrize("column", [[0, 5, 1], [0, -1, 1], [0, 65537, 1]])
    def test_out_of_range_index_rejected(self, column):
        # 5 used to be accepted and made proportions sum to 2/3; 65,537 would
        # wrap to 1 under the int16 cast
        with pytest.raises(ValueError, match="0..1"):
            MindEnsemble("a", 3, RngSpec(1), events=("m",), outcome_labels=(("+", "-"),),
                         assignments=(np.array(column),))

    def test_missing_conditional_history_rejected(self):
        ens = split_local(init_ensemble("a", 100, RngSpec(1)), "m", {"+": 0.5, "-": 0.5})
        with pytest.raises(KeyError):
            split_local(ens, "n", {("+",): {"x": 1.0}})

    def test_unsorted_row_with_zero_weight_matches_label_reference(self):
        ens = init_ensemble("a", 5000, RngSpec(61))
        probs = {"z": 0.3, "a": 0.0, "m": 0.7}
        got = last_column(split_local(ens, "m", probs))
        assert same_column(got, label_split_local(ens, "m", probs))
        assert got[0] == ("a", "m", "z")
        assert 0 not in got[1]

    def test_conditional_rows_with_different_keys_match_label_reference(self):
        ens = split_local(init_ensemble("a", 6000, RngSpec(62)), "first",
                          {"H": 0.5, "T": 0.3, "E": 0.2})
        table = {("H",): {"y": 0.75, "x": 0.25},
                 ("T",): {"z": 0.5, "y": 0.5},
                 ("E",): {"x": 0.0, "w": 1.0}}
        got = last_column(split_local(ens, "second", table))
        assert same_column(got, label_split_local(ens, "second", table))
        assert got[0] == ("w", "x", "y", "z")


class TestSplitJoint:
    def test_anticorrelated_pairs(self):
        n = 20000
        rng = RngSpec(21)
        ens = [init_ensemble(o, n, rng, JOINTLY_CORRELATED) for o in ("alice", "bob")]
        alice, bob = split_joint(ens, "m", SINGLET_Z)
        a_out, b_out = alice.outcomes("m"), bob.outcomes("m")
        assert all(x != y for x, y in zip(a_out, b_out))
        assert abs(float(proportions(alice, "m")["+"]) - 0.5) <= band(0.5, n)

    def test_decomposition_subsystem_order_is_respected(self):
        d = decomp(("alice", "bob"), {("+", "-"): 1.0})
        rng = RngSpec(1)
        ens = [init_ensemble(o, 10, rng, JOINTLY_CORRELATED) for o in ("bob", "alice")]
        bob, alice = split_joint(ens, "m", d)
        assert set(alice.outcomes("m")) == {"+"}
        assert set(bob.outcomes("m")) == {"-"}

    def test_conditional_joint_split(self):
        rng = RngSpec(17)
        ens = [init_ensemble(o, 300, rng, JOINTLY_CORRELATED) for o in ("alice", "bob")]
        ens = split_joint(ens, "m", SINGLET_Z)
        ens = split_joint(ens, "swap", {
            (("+",), ("-",)): {("-", "+"): 1.0},
            (("-",), ("+",)): {("+", "-"): 1.0},
        })
        alice, bob = ens
        for i in range(alice.size):
            assert alice.history(i)[1] == bob.history(i)[0]
            assert bob.history(i)[1] == alice.history(i)[0]

    def test_policy_enforced(self):
        rng = RngSpec(1)
        ens = [init_ensemble("alice", 4, rng, JOINTLY_CORRELATED),
               init_ensemble("bob", 4, rng, INDEPENDENT_LOCAL)]
        with pytest.raises(ValueError, match="policy"):
            split_joint(ens, "m", SINGLET_Z)

    def test_size_and_rng_must_match(self):
        rng = RngSpec(1)
        with pytest.raises(ValueError, match="size"):
            split_joint([init_ensemble("a", 4, rng, JOINTLY_CORRELATED),
                         init_ensemble("b", 5, rng, JOINTLY_CORRELATED)], "m", SINGLET_Z)
        with pytest.raises(ValueError, match="rng"):
            split_joint([init_ensemble("alice", 4, rng, JOINTLY_CORRELATED),
                         init_ensemble("bob", 4, RngSpec(2), JOINTLY_CORRELATED)],
                        "m", SINGLET_Z)

    def test_joint_distribution_marginal(self):
        assert marginal_for(SINGLET_Z, "alice") == {"+": 0.5, "-": 0.5}

    def test_reversed_subsystem_order_matches_label_reference(self):
        rng = RngSpec(63)
        ens = [init_ensemble(o, 6000, rng, JOINTLY_CORRELATED) for o in ("b", "a")]
        got = [last_column(e) for e in split_joint(ens, "m", SKEWED)]
        want = label_split_joint(ens, "m", SKEWED)
        assert all(same_column(g, w) for g, w in zip(got, want))
        assert [g[0] for g in got] == [("u", "v", "w"), ("x", "y")]

    def test_nondeterministic_conditional_rows_match_label_reference(self):
        rng = RngSpec(64)
        ens = [init_ensemble(o, 6000, rng, JOINTLY_CORRELATED) for o in ("a", "b")]
        ens = split_joint(ens, "m", SKEWED)
        table = {
            (("x",), ("u",)): {("p", "q"): 0.5, ("q", "p"): 0.25, ("p", "p"): 0.25},
            (("x",), ("v",)): {("q", "q"): 0.6, ("p", "r"): 0.4},
            (("y",), ("w",)): {("r", "q"): 0.1, ("q", "p"): 0.9},
        }
        got = [last_column(e) for e in split_joint(ens, "next", table)]
        want = label_split_joint(ens, "next", table)
        assert all(same_column(g, w) for g, w in zip(got, want))
        assert [g[0] for g in got] == [("p", "q", "r"), ("p", "q", "r")]


class TestMismatch:
    def test_single_mind_rate_is_half_for_singlet(self):
        n = 20000
        rate = mismatch_probability(SINGLE_MIND, SINGLET_Z, n, RngSpec(31))
        assert abs(rate - 0.5) <= band(0.5, n)

    def test_joint_policy_never_mismatches(self):
        rate = mismatch_probability(JOINTLY_CORRELATED, SINGLET_Z, 5000, RngSpec(32))
        assert rate == 0.0

    @pytest.mark.parametrize("d", [SINGLET_Z, SKEWED], ids=["singlet", "skewed"])
    @pytest.mark.parametrize("policy", [SINGLE_MIND, JOINTLY_CORRELATED])
    def test_matches_label_reference(self, policy, d):
        rng = RngSpec(33)
        assert (mismatch_probability(policy, d, 5000, rng)
                == label_mismatch_probability(policy, d, 5000, rng))

    @pytest.mark.parametrize("d, labels", [
        (SINGLET_Z, (("+", "-"), ("+", "-"))),
        (SINGLET_Z, (("-", "+"), ("+", "-"))),
        (SKEWED, (("x", "y"), ("u", "v", "w"))),
        (SKEWED, (("y", "z", "x"), ("w", "u", "v"))),
    ])
    def test_off_support_count_matches_label_reference(self, d, labels):
        rng = RngSpec(34).stream("pairs")
        ia = rng.integers(0, len(labels[0]), 3000)
        ib = rng.integers(0, len(labels[1]), 3000)
        got = count_off_support(d, labels, ia, ib)
        assert got == label_off_support(d, labels, ia, ib)
        assert 0 < got < 3000

    def test_multi_mind_independent_rejected(self):
        with pytest.raises(ValueError, match="single-mind"):
            mismatch_probability(INDEPENDENT_LOCAL, SINGLET_Z, 100, RngSpec(1))

    def test_needs_two_observers(self):
        three = decomp(("a", "b", "c"), {("+", "+", "+"): 1.0})
        with pytest.raises(ValueError):
            mismatch_probability(SINGLE_MIND, three, 10, RngSpec(1))


POST_COMM = decomp(
    ("alice", "bob", "alice_report", "bob_report"),
    {("+", "-", "-", "+"): 0.5, ("-", "+", "+", "-"): 0.5},
)


class TestReportCorrelation:
    def _ensembles(self, n, seed):
        rng = RngSpec(seed)
        ens = [init_ensemble(o, n, rng, JOINTLY_CORRELATED) for o in ("alice", "bob")]
        ens = split_joint(ens, "measure", SINGLET_Z)
        return split_joint(ens, "report", {
            (("+",), ("-",)): {("-", "+"): 1.0},
            (("-",), ("+",)): {("+", "-"): 1.0},
        })

    def _local_ensembles(self, n, seed):
        rng = RngSpec(seed)
        ens = [split_local(init_ensemble(o, n, rng), "measure", {"+": 0.5, "-": 0.5})
               for o in ("alice", "bob")]
        # each report follows the own outcome 9 times in 10, so some minds disagree
        table = {("+",): {"-": 0.9, "+": 0.1}, ("-",): {"+": 0.9, "-": 0.1}}
        return [split_local(e, "report", table) for e in ens]

    def test_all_minds_consistent(self):
        checks = report_correlation(self._ensembles(500, 41), POST_COMM,
                                    "measure", "report")
        assert [c.observer for c in checks] == ["alice", "bob"]
        for c in checks:
            assert c.all_consistent
            assert c.consistent == 500
        assert checks[0].expected == {"+": "-", "-": "+"}

    def test_matches_label_reference(self):
        for ens in (self._ensembles(500, 43), self._local_ensembles(500, 44)):
            checks = report_correlation(ens, POST_COMM, "measure", "report")
            assert as_tuples(checks) == label_report_checks(ens, POST_COMM, "measure", "report")

    def test_corrupted_history_detected(self):
        alice, bob = self._ensembles(10, 42)
        cols = list(alice.assignments)
        bad = cols[1].copy()
        bad[0] = 1 - bad[0]
        alice_bad = replace(alice, assignments=tuple(cols[:1]) + (bad,))
        checks = report_correlation([alice_bad, bob], POST_COMM, "measure", "report")
        assert not checks[0].all_consistent
        assert checks[0].consistent == 9
        assert as_tuples(checks) == label_report_checks([alice_bad, bob], POST_COMM,
                                                        "measure", "report")

    def test_unmapped_outcome_raises_like_reference(self):
        # a measured outcome with no entry in the report map cannot be judged
        rng = RngSpec(45)
        ens = [init_ensemble(o, 20, rng) for o in ("alice", "bob")]
        ens = [split_local(e, "measure", {"+": 0.5, "0": 0.5}) for e in ens]
        ens = [split_local(e, "report", {"+": 0.5, "-": 0.5}) for e in ens]
        with pytest.raises(KeyError, match="'0'"):
            report_correlation(ens, POST_COMM, "measure", "report")
        with pytest.raises(KeyError, match="'0'"):
            label_report_checks(ens, POST_COMM, "measure", "report")

    def test_nondeterministic_report_rejected(self):
        fuzzy = decomp(("alice", "alice_report"),
                       {("+", "+"): 0.25, ("+", "-"): 0.25, ("-", "+"): 0.5})
        rng = RngSpec(1)
        ens = [init_ensemble("alice", 8, rng, JOINTLY_CORRELATED)]
        coin = decomp(("alice",), {("+",): 0.5, ("-",): 0.5})
        ens = split_joint(ens, "measure", coin)
        ens = split_joint(ens, "report", coin)
        with pytest.raises(ValueError, match="not determined"):
            report_correlation(ens, fuzzy, "measure", "report")

    def test_missing_report_event(self):
        rng = RngSpec(1)
        ens = [init_ensemble("alice", 4, rng, JOINTLY_CORRELATED)]
        ens = split_joint(ens, "measure", decomp(("alice",), {("+",): 0.5, ("-",): 0.5}))
        with pytest.raises(ValueError, match="missing"):
            report_correlation(ens, POST_COMM, "measure", "report")

