"""Mind-ensemble splitting, proportions, mismatch and report consistency."""
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from manyminds import cli
from manyminds.epr import EprConfig, run_epr
from manyminds.minds import (
    INDEPENDENT_LOCAL,
    JOINTLY_CORRELATED,
    SINGLE_MIND,
    MindEnsemble,
    SamplingPolicy,
    count_off_support,
    marginal_for,
    mismatch_probability,
    proportions,
    report_correlation,
    split_joint,
    split_local,
)
from manyminds.quantum import Branch, BranchDecomposition, conditional_distribution
from manyminds.rng import RngSpec, code_counts, sample_indices

SIGNIFICANCE = 1e-4


def band(p, n, sigmas=4):
    return sigmas * math.sqrt(p * (1 - p) / n)


def decomp(subsystems, weights):
    branches = tuple(Branch(labels, math.sqrt(w), w) for labels, w in sorted(weights.items()))
    return BranchDecomposition(tuple(subsystems), branches)


SINGLET_Z = decomp(("alice", "bob"), {("+", "-"): 0.5, ("-", "+"): 0.5})
# a support that is not a permutation: x pairs with u or v, y only with w
SKEWED = decomp(("a", "b"), {("x", "u"): 0.2, ("x", "v"): 0.3, ("y", "w"): 0.5})
# both particles of |+z>|+z> measured along z: one branch
PRODUCT_Z = decomp(("p1", "p2"), {("+", "+"): 1.0})


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


def outcomes(ens, event_id):
    """Outcome labels of all minds at one event, as an object array."""
    k = ens.event_index(event_id)
    return np.asarray(ens.outcome_labels[k], dtype=object)[ens.assignments[k]]


def label_report_checks(ensembles, d, measure_event, report_event):
    out = []
    for ens in ensembles:
        cond = conditional_distribution(d, [ens.observer], [f"{ens.observer}_report"])
        expected = {own: next(iter(dist))[0] for (own,), dist in cond.items()}
        own, seen = outcomes(ens, measure_event), outcomes(ens, report_event)
        consistent = int(np.sum(np.asarray([expected[o] for o in own.tolist()],
                                           dtype=object) == seen))
        observed = {}
        for o, r in zip(own.tolist(), seen.tolist()):
            row = observed.setdefault(o, {})
            row[r] = row.get(r, 0) + 1
        out.append((ens.observer, ens.size, consistent, expected, observed))
    return out


def report_checks(ensembles, d):
    """report_correlation over each ensemble's (own outcome, perceived report) table."""
    tables = {}
    for ens in ensembles:
        own, seen = ens.event_index("measure"), ens.event_index("report")
        labels = (ens.outcome_labels[own], ens.outcome_labels[seen])
        shape = tuple(map(len, labels))
        table = code_counts(ens.size, [ens.assignments[own], ens.assignments[seen]],
                            shape).reshape(shape)
        tables[ens.observer] = (labels, table)
    return report_correlation(d, tables)


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
    u = ens.rng.uniforms(ens.size, "local", ens.observer, event_id, start=ens.first)
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
    chosen = label_sample_by_class(
        ensembles[0].rng.uniforms(n, "joint", event_id, start=ensembles[0].first),
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


class TestSamplingPolicy:
    @pytest.mark.parametrize("value", ["independent", "joint", "independent/single-mind"])
    def test_value_is_the_report_name(self, value):
        assert SamplingPolicy(value).value == value

    def test_members_are_the_module_constants(self):
        assert SamplingPolicy("joint") is JOINTLY_CORRELATED
        assert SamplingPolicy("independent") is INDEPENDENT_LOCAL
        assert SamplingPolicy("independent/single-mind") is SINGLE_MIND


class TestInit:
    def test_population_and_ids(self):
        ens = MindEnsemble("alice", 5, RngSpec(1))
        assert ens.size == 5
        assert ens.events == ()
        assert ens.assignments == ()

    def test_single_mind_forces_one(self):
        # a single-mind run gives each observer one mind, whatever n_minds says
        config = EprConfig(RngSpec(1), policy=SINGLE_MIND, n_minds=500)
        assert run_epr(config).record.n_minds == 1

    def test_zero_minds_rejected(self):
        with pytest.raises(ValueError):
            MindEnsemble("alice", 0, RngSpec(1))


class TestSplitLocal:
    def test_proportions_within_binomial_band(self):
        n = 20000
        ens = split_local(MindEnsemble("alice", n, RngSpec(8)), "m",
                          {"+": 0.36, "-": 0.64})
        props = proportions(ens, "m")
        assert sum(props.values()) == Fraction(1)
        assert abs(float(props["+"]) - 0.36) <= band(0.36, n)

    def test_identity_persists_across_splits(self):
        ens = MindEnsemble("alice", 50, RngSpec(2))
        ens = split_local(ens, "a", {"H": 0.5, "T": 0.5})
        ens = split_local(ens, "b", {"0": 0.5, "1": 0.5})
        assert ens.size == 50
        assert all(col.shape == (50,) for col in ens.assignments)
        assert all(len(ens.history(i)) == 2 for i in range(50))

    def test_deterministic_per_seed_and_observer(self):
        def run(observer, seed):
            ens = split_local(MindEnsemble(observer, 200, RngSpec(seed)), "m",
                              {"+": 0.5, "-": 0.5})
            return ens.assignments[0]

        assert np.array_equal(run("alice", 4), run("alice", 4))
        assert not np.array_equal(run("alice", 4), run("bob", 4))
        assert not np.array_equal(run("alice", 4), run("alice", 5))

    def test_zero_weight_outcome_gets_no_minds(self):
        ens = split_local(MindEnsemble("a", 5000, RngSpec(3)), "m",
                          {"x": 0.0, "y": 1.0})
        assert proportions(ens, "m") == {"x": Fraction(0), "y": Fraction(1)}

    def test_conditional_split_follows_history(self):
        ens = split_local(MindEnsemble("a", 400, RngSpec(6)), "first",
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
        ens = split_local(MindEnsemble("a", n, RngSpec(12)), "u", {"a": 1 / 3, "b": 2 / 3})
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
        alice = split_local(MindEnsemble("alice", n, rng), "m", {"+": 0.5, "-": 0.5})
        bob = split_local(MindEnsemble("bob", n, rng), "m", {"+": 0.5, "-": 0.5})
        table = np.zeros((2, 2), dtype=int)
        np.add.at(table, (alice.assignments[0], bob.assignments[0]), 1)
        res = stats.chi2_contingency(table)
        assert res.pvalue > SIGNIFICANCE

    def test_event_reuse_rejected(self):
        ens = split_local(MindEnsemble("a", 4, RngSpec(1)), "m", {"+": 0.5, "-": 0.5})
        with pytest.raises(ValueError):
            split_local(ens, "m", {"+": 0.5, "-": 0.5})

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            split_local(MindEnsemble("a", 4, RngSpec(1)), "m", {"+": 0.6, "-": 0.3})

    @pytest.mark.parametrize("bad, message", [
        ({"x": 0.5}, "probabilities sum to 0.5, expected 1"),
        ({"x": -0.5, "y": 1.5}, "probabilities must be non-negative"),
    ])
    def test_bad_row_error_names_split_and_history(self, bad, message):
        ens = split_local(MindEnsemble("a", 8, RngSpec(1)), "first", {"+": 0.5, "-": 0.5})
        probs = {("+",): {"x": 1.0}, ("-",): bad}
        with pytest.raises(ValueError) as exc:
            split_local(ens, "m", probs)
        assert str(exc.value).startswith(f"split_local('m') given ('-',): {message}")

    def test_nan_row_error_names_split_and_history(self, monkeypatch):
        # the row is refused before any mind draws
        ens = split_local(MindEnsemble("a", 8, RngSpec(1)), "first", {"+": 0.5, "-": 0.5})
        monkeypatch.setattr(RngSpec, "uniforms", refuse_draw)
        probs = {("+",): {"x": 0.5, "y": 0.5}, ("-",): {"x": math.nan, "y": 1.0}}
        with pytest.raises(ValueError) as exc:
            split_local(ens, "m", probs)
        assert str(exc.value).startswith(
            "split_local('m') given ('-',): probabilities must be non-negative numbers")

    @pytest.mark.parametrize("conditional", [False, True])
    def test_forty_thousand_outcomes_fill_a_uint16_column(self, conditional):
        # an int16 column could not index these outcomes past 32,767
        wide = {f"o{i:05d}": 1 / 40000 for i in range(40000)}
        ens = MindEnsemble("a", 64, RngSpec(63))
        probs = wide
        if conditional:
            ens = split_local(ens, "first", {"H": 0.5, "T": 0.5})
            probs = {("H",): wide, ("T",): {"o39999": 1.0}}
        got = last_column(split_local(ens, "m", probs))
        assert got[1].dtype == np.uint16 and len(got[0]) == 40000
        assert got[1].max() > 32767
        assert same_column(got, label_split_local(ens, "m", probs))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_caller_column_stays_writeable(self, dtype):
        column = np.array([0, 1, 1], dtype)
        ens = MindEnsemble("a", 3, RngSpec(1), events=("m",), outcome_labels=(("+", "-"),),
                           assignments=(column,))
        assert column.flags.writeable and not ens.assignments[0].flags.writeable
        assert ens.assignments[0].dtype == np.uint8
        column[0] = 1
        assert ens.assignments[0].tolist() == [0, 1, 1]

    @pytest.mark.parametrize("column", [[0, 5, 1], [0, -1, 1], [0, 65537, 1]])
    def test_out_of_range_index_rejected(self, column):
        # 5 used to be accepted and made proportions sum to 2/3; 65,537 would
        # wrap to 1 under the cast to a uint8 column
        with pytest.raises(ValueError, match="0..1"):
            MindEnsemble("a", 3, RngSpec(1), events=("m",), outcome_labels=(("+", "-"),),
                         assignments=(np.array(column),))

    def test_missing_conditional_history_rejected(self):
        ens = split_local(MindEnsemble("a", 100, RngSpec(1)), "m", {"+": 0.5, "-": 0.5})
        with pytest.raises(KeyError):
            split_local(ens, "n", {("+",): {"x": 1.0}})

    @pytest.mark.parametrize("keys, missing", [
        # "-" minds leave the keys at their first column; the second must not lead back
        ([("+", "x"), ("+", "y")], r"\('-', '[xy]'\)"),
        # a longer key is no history of two events, though it starts like one
        ([("+", "x", "q"), ("+", "y"), ("-", "x"), ("-", "y")], r"\('\+', 'x'\)")])
    def test_two_event_history_without_a_key_rejected(self, keys, missing):
        ens = split_local(MindEnsemble("a", 100, RngSpec(1)), "m", {"+": 0.5, "-": 0.5})
        ens = split_local(ens, "n", {"x": 0.5, "y": 0.5})
        with pytest.raises(KeyError, match="realized history " + missing):
            split_local(ens, "o", dict.fromkeys(keys, {"z": 1.0}))

    @pytest.mark.parametrize("k, events", [(2, 64), (4, 40)])
    def test_conditional_split_on_histories_past_int64(self, k, events):
        # 2**64 and 4**40 histories, more than a mixed-radix int64 code over
        # all columns can tell apart
        cols = np.random.default_rng(k).integers(0, k, size=(events, 6))
        cols[:, 1] = cols[:, 2] = cols[:, 0]
        cols[-1, 1] = (cols[-1, 0] + 1) % k  # mind 1 differs from mind 0 last
        cols[0, 3] = (cols[0, 0] + 1) % k    # mind 3 differs from mind 0 first
        labels = tuple(map(str, range(k)))
        ens = MindEnsemble("a", 6, RngSpec(5), events=tuple(f"e{j}" for j in range(events)),
                           outcome_labels=(labels,) * events, assignments=tuple(cols))
        hists = sorted({ens.history(i) for i in range(ens.size)})
        table = {h: {f"c{j}": 1.0} for j, h in enumerate(hists)}
        got = split_local(ens, "next", table)
        assert [got.history(i)[-1] for i in range(ens.size)] == \
            [f"c{hists.index(ens.history(i))}" for i in range(ens.size)]
        assert len(hists) == 5

    def test_unsorted_row_with_zero_weight_matches_label_reference(self):
        ens = MindEnsemble("a", 5000, RngSpec(61))
        probs = {"z": 0.3, "a": 0.0, "m": 0.7}
        got = last_column(split_local(ens, "m", probs))
        assert same_column(got, label_split_local(ens, "m", probs))
        assert got[0] == ("a", "m", "z")
        assert 0 not in got[1]

    def test_conditional_rows_with_different_keys_match_label_reference(self):
        ens = split_local(MindEnsemble("a", 6000, RngSpec(62)), "first",
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
        ens = [MindEnsemble(o, n, rng, JOINTLY_CORRELATED) for o in ("alice", "bob")]
        alice, bob = split_joint(ens, "m", SINGLET_Z)
        a_out, b_out = outcomes(alice, "m"), outcomes(bob, "m")
        assert all(x != y for x, y in zip(a_out, b_out))
        assert abs(float(proportions(alice, "m")["+"]) - 0.5) <= band(0.5, n)

    def test_decomposition_subsystem_order_is_respected(self):
        d = decomp(("alice", "bob"), {("+", "-"): 1.0})
        rng = RngSpec(1)
        ens = [MindEnsemble(o, 10, rng, JOINTLY_CORRELATED) for o in ("bob", "alice")]
        bob, alice = split_joint(ens, "m", d)
        assert set(outcomes(alice, "m")) == {"+"}
        assert set(outcomes(bob, "m")) == {"-"}

    def test_conditional_joint_split(self):
        rng = RngSpec(17)
        ens = [MindEnsemble(o, 300, rng, JOINTLY_CORRELATED) for o in ("alice", "bob")]
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
        ens = [MindEnsemble("alice", 4, rng, JOINTLY_CORRELATED),
               MindEnsemble("bob", 4, rng, INDEPENDENT_LOCAL)]
        with pytest.raises(ValueError, match="policy"):
            split_joint(ens, "m", SINGLET_Z)

    def test_size_and_rng_must_match(self):
        rng = RngSpec(1)
        with pytest.raises(ValueError, match="size"):
            split_joint([MindEnsemble("a", 4, rng, JOINTLY_CORRELATED),
                         MindEnsemble("b", 5, rng, JOINTLY_CORRELATED)], "m", SINGLET_Z)
        with pytest.raises(ValueError, match="rng"):
            split_joint([MindEnsemble("alice", 4, rng, JOINTLY_CORRELATED),
                         MindEnsemble("bob", 4, RngSpec(2), JOINTLY_CORRELATED)],
                        "m", SINGLET_Z)
        # minds 0..3 of alice cannot pair with minds 4..7 of bob
        with pytest.raises(ValueError, match="first mind id"):
            split_joint([MindEnsemble("alice", 4, rng, JOINTLY_CORRELATED),
                         MindEnsemble("bob", 4, rng, JOINTLY_CORRELATED, first=4)],
                        "m", SINGLET_Z)

    def test_window_ensembles_draw_their_own_counters(self):
        # minds 8..11 of a 12-mind ensemble are the ensemble of 4 minds from id 8
        rng, probs = RngSpec(9), {"+": 0.3, "-": 0.7}
        whole = split_local(MindEnsemble("a", 12, rng), "m", probs)
        window = split_local(MindEnsemble("a", 4, rng, first=8), "m", probs)
        assert np.array_equal(window.assignments[0], whole.assignments[0][8:])
        joint = split_joint([MindEnsemble(o, 12, rng, JOINTLY_CORRELATED) for o in "ab"],
                            "m", SKEWED)
        part = split_joint([MindEnsemble(o, 4, rng, JOINTLY_CORRELATED, first=8) for o in "ab"],
                           "m", SKEWED)
        for w, p in zip(joint, part):
            assert np.array_equal(p.assignments[0], w.assignments[0][8:])

    def test_joint_distribution_marginal(self):
        assert marginal_for(SINGLET_Z, "alice") == {"+": 0.5, "-": 0.5}

    def test_reversed_subsystem_order_matches_label_reference(self):
        rng = RngSpec(63)
        ens = [MindEnsemble(o, 6000, rng, JOINTLY_CORRELATED) for o in ("b", "a")]
        got = [last_column(e) for e in split_joint(ens, "m", SKEWED)]
        want = label_split_joint(ens, "m", SKEWED)
        assert all(same_column(g, w) for g, w in zip(got, want))
        assert [g[0] for g in got] == [("u", "v", "w"), ("x", "y")]

    def test_nondeterministic_conditional_rows_match_label_reference(self):
        rng = RngSpec(64)
        ens = [MindEnsemble(o, 6000, rng, JOINTLY_CORRELATED) for o in ("a", "b")]
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


def refuse_draw(*args, **kwargs):
    raise AssertionError("a split drew uniforms")


@st.composite
def mixed_rows(draw, keys, outcomes):
    """A normalized row over ``outcomes`` per key: some with one positive
    outcome (determined), others open; zero entries are kept or left out."""
    table = {}
    for key in keys:
        weights = draw(st.lists(st.integers(0, 3), min_size=len(outcomes),
                                max_size=len(outcomes)).filter(any))
        if draw(st.booleans()):
            one = draw(st.sampled_from([o for o, w in zip(outcomes, weights) if w]))
            weights = [int(o == one) for o in outcomes]
        keep_zeros = draw(st.booleans())
        table[key] = {o: w / sum(weights) for o, w in zip(outcomes, weights) if w or keep_zeros}
    return table


FIRST_LABELS = ("E", "H", "T")
PAIRS = ((("x",), ("u",)), (("x",), ("v",)), (("y",), ("w",)))  # SKEWED's branches as keys


class TestDeterminedRows:
    """A row with one positive outcome leaves nothing open: every mind on it
    takes that outcome, as ``sample_indices`` would for any uniform, and a
    table of only such rows reads no draw."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), block=st.integers(0, 5),
           first=st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any),
           table=mixed_rows([(h,) for h in FIRST_LABELS], ("p", "q", "r")))
    def test_local_split_matches_label_reference(self, seed, n, block, first, table):
        probs = {h: w / sum(first) for h, w in zip(FIRST_LABELS, first)}
        ens = split_local(MindEnsemble("a", n, RngSpec(seed), first=4 * block), "first", probs)
        got = last_column(split_local(ens, "second", table))
        assert same_column(got, label_split_local(ens, "second", table))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40), block=st.integers(0, 5),
           table=mixed_rows(PAIRS, tuple(product("pq", "pr"))))
    def test_joint_split_matches_label_reference(self, seed, n, block, table):
        rng = RngSpec(seed)
        ens = split_joint([MindEnsemble(o, n, rng, JOINTLY_CORRELATED, first=4 * block)
                           for o in ("a", "b")], "first", SKEWED)
        got = [last_column(e) for e in split_joint(ens, "second", table)]
        want = label_split_joint(ens, "second", table)
        assert all(same_column(g, w) for g, w in zip(got, want))

    def test_determined_tables_draw_nothing(self, monkeypatch):
        rng = RngSpec(7)
        ens = split_local(MindEnsemble("a", 40, rng, first=8), "first", {"H": 0.5, "T": 0.5})
        pair = split_joint([MindEnsemble(o, 40, rng, JOINTLY_CORRELATED, first=8)
                            for o in ("a", "b")], "first", SKEWED)
        monkeypatch.setattr(RngSpec, "uniforms", refuse_draw)
        ens = split_local(ens, "second", {("H",): {"x": 0.0, "y": 1.0}, ("T",): {"x": 1.0}})
        assert all(ens.history(i)[1] == {"H": "y", "T": "x"}[ens.history(i)[0]]
                   for i in range(ens.size))
        assert proportions(split_local(MindEnsemble("b", 40, rng), "m", {"x": 0.0, "y": 1.0}),
                           "m") == {"x": Fraction(0), "y": Fraction(1)}
        swap = {(a, b): {(b[0], a[0]): 1.0} for a, b in PAIRS}
        a, b = split_joint(pair, "second", swap)
        assert all(a.history(i)[1] == b.history(i)[0] and b.history(i)[1] == a.history(i)[0]
                   for i in range(a.size))
        p1, p2 = split_joint([MindEnsemble(o, 40, rng, JOINTLY_CORRELATED) for o in ("p1", "p2")],
                             "m", PRODUCT_Z)
        assert set(outcomes(p1, "m")) == set(outcomes(p2, "m")) == {"+"}

    @pytest.mark.parametrize("policy, measure", [
        ("joint", {("joint", "measure")}),
        ("independent", {("local", "alice", "measure"), ("local", "bob", "measure")})])
    @pytest.mark.parametrize("bob_axis, communication", [("z", "performed"), ("45", "skipped")])
    def test_epr_draws_measure_scopes_only(self, monkeypatch, tmp_path, policy, measure,
                                           bob_axis, communication):
        # on aligned axes each mind's report is certain given its own outcome (and
        # under joint, given the pair's), so the report split reads no draw
        drawn, uniforms = [], RngSpec.uniforms

        def spy(self, n, *scope, start=0):
            drawn.append(scope)
            return uniforms(self, n, *scope, start=start)

        monkeypatch.setattr(RngSpec, "uniforms", spy)
        out = tmp_path / "epr.json"
        assert cli.main(["epr", "--minds", "1000", "--policy", policy, "--bob-axis", bob_axis,
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["body"]["communication"] == communication
        assert set(drawn) == measure


class TestMismatch:
    def test_single_mind_rate_is_half_for_singlet(self):
        n = 20000
        rate = mismatch_probability(SINGLE_MIND, SINGLET_Z, n, RngSpec(31))
        assert abs(rate - 0.5) <= band(0.5, n)

    def test_joint_policy_never_mismatches(self):
        rate = mismatch_probability(JOINTLY_CORRELATED, SINGLET_Z, 5000, RngSpec(32))
        assert rate == 0.0

    def test_deterministic_state_rate_zero(self):
        assert mismatch_probability(SINGLE_MIND, PRODUCT_Z, 2000, RngSpec(123)) == 0.0

    @pytest.mark.parametrize("d", [SINGLET_Z, SKEWED], ids=["singlet", "skewed"])
    @pytest.mark.parametrize("policy", [SINGLE_MIND, JOINTLY_CORRELATED],
                             ids=["policy0", "policy1"])
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
        got = count_off_support(d, labels, code_counts(len(ia), [ia, ib], tuple(map(len, labels))))
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
        ens = [MindEnsemble(o, n, rng, JOINTLY_CORRELATED) for o in ("alice", "bob")]
        ens = split_joint(ens, "measure", SINGLET_Z)
        return split_joint(ens, "report", {
            (("+",), ("-",)): {("-", "+"): 1.0},
            (("-",), ("+",)): {("+", "-"): 1.0},
        })

    def _local_ensembles(self, n, seed):
        rng = RngSpec(seed)
        ens = [split_local(MindEnsemble(o, n, rng), "measure", {"+": 0.5, "-": 0.5})
               for o in ("alice", "bob")]
        # each report follows the own outcome 9 times in 10, so some minds disagree
        table = {("+",): {"-": 0.9, "+": 0.1}, ("-",): {"+": 0.9, "-": 0.1}}
        return [split_local(e, "report", table) for e in ens]

    def test_all_minds_consistent(self):
        checks = report_checks(self._ensembles(500, 41), POST_COMM)
        assert [c.observer for c in checks] == ["alice", "bob"]
        for c in checks:
            assert c.all_consistent
            assert c.consistent == 500
        assert checks[0].expected == {"+": "-", "-": "+"}

    def test_matches_label_reference(self):
        for ens in (self._ensembles(500, 43), self._local_ensembles(500, 44)):
            checks = report_checks(ens, POST_COMM)
            assert as_tuples(checks) == label_report_checks(ens, POST_COMM, "measure", "report")

    def test_corrupted_history_detected(self):
        alice, bob = self._ensembles(10, 42)
        cols = list(alice.assignments)
        bad = cols[1].copy()
        bad[0] = 1 - bad[0]
        alice_bad = replace(alice, assignments=tuple(cols[:1]) + (bad,))
        checks = report_checks([alice_bad, bob], POST_COMM)
        assert not checks[0].all_consistent
        assert checks[0].consistent == 9
        assert as_tuples(checks) == label_report_checks([alice_bad, bob], POST_COMM,
                                                        "measure", "report")

    def test_unmapped_outcome_raises_like_reference(self):
        # a measured outcome with no entry in the report map cannot be judged
        rng = RngSpec(45)
        ens = [MindEnsemble(o, 20, rng) for o in ("alice", "bob")]
        ens = [split_local(e, "measure", {"+": 0.5, "0": 0.5}) for e in ens]
        ens = [split_local(e, "report", {"+": 0.5, "-": 0.5}) for e in ens]
        with pytest.raises(KeyError, match="'0'"):
            report_checks(ens, POST_COMM)
        with pytest.raises(KeyError, match="'0'"):
            label_report_checks(ens, POST_COMM, "measure", "report")

    def test_nondeterministic_report_rejected(self):
        fuzzy = decomp(("alice", "alice_report"),
                       {("+", "+"): 0.25, ("+", "-"): 0.25, ("-", "+"): 0.5})
        rng = RngSpec(1)
        ens = [MindEnsemble("alice", 8, rng, JOINTLY_CORRELATED)]
        coin = decomp(("alice",), {("+",): 0.5, ("-",): 0.5})
        ens = split_joint(ens, "measure", coin)
        ens = split_joint(ens, "report", coin)
        with pytest.raises(ValueError, match="not determined"):
            report_checks(ens, fuzzy)

    def test_missing_report_event(self):
        # before communication the decomposition holds no report recorder to check against
        table = np.array([[0, 2], [2, 0]])
        with pytest.raises(ValueError, match="missing"):
            report_correlation(SINGLET_Z, {"alice": ((("+", "-"), ("+", "-")), table)})

