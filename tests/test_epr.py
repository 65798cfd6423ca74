"""Singlet runs: anti-correlation, mismatch demo, reports, CHSH."""
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from manyminds.epr import (
    DEFAULT_CHSH_AXES,
    EprConfig,
    EprRun,
    _make_record,
    chsh,
    chsh_monte_carlo,
    communicate_and_check,
    correlation,
    hulk_demo,
    prepare_state,
    run_epr,
    singlet,
)
from manyminds.minds import (
    INDEPENDENT_LOCAL,
    JOINTLY_CORRELATED,
    MindEnsemble,
    proportions,
)
from manyminds.quantum import (
    Branch,
    BranchDecomposition,
    PreconditionError,
    StateVector,
    SubsystemLayout,
    branch_decompose,
    expectation,
    tensor,
)
from manyminds.rng import RngSpec, code_counts, sample_indices

SIGNIFICANCE = 1e-4
INV_SQRT2 = 1 / math.sqrt(2)


def band(p, n, sigmas=4):
    return sigmas * math.sqrt(p * (1 - p) / n)


def make_qubit_state(name, alpha, beta):
    """Single qubit alpha|+z> + beta|-z>, with labels ("+", "-")."""
    layout = SubsystemLayout(((name, ("+", "-")),))
    return StateVector(layout, np.array([alpha, beta], dtype=complex))


def amplitude(state, **labels_by_name):
    """Amplitude of the joint basis vector picked out by per-subsystem labels."""
    return complex(state.tensor_amps[tuple(labels.index(labels_by_name[name])
                                           for name, labels in state.layout.subsystems)])


def product_pair(a1, b1, a2, b2):
    return tensor([make_qubit_state("p1", a1, b1), make_qubit_state("p2", a2, b2)])


class TestSinglet:
    def test_z_amplitudes(self):
        s = singlet()
        assert amplitude(s, p1="+", p2="+") == pytest.approx(0.0, abs=1e-12)
        assert amplitude(s, p1="+", p2="-") == pytest.approx(INV_SQRT2, abs=1e-12)
        assert amplitude(s, p1="-", p2="+") == pytest.approx(-INV_SQRT2, abs=1e-12)
        assert amplitude(s, p1="-", p2="-") == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_rotational_invariance(self, axis):
        decomp = branch_decompose(singlet(), {"p1": axis, "p2": axis})
        dist = decomp.joint_distribution()
        assert dist[("+", "-")] == pytest.approx(0.5, abs=1e-9)
        assert dist[("-", "+")] == pytest.approx(0.5, abs=1e-9)
        amps = {br.labels: br.amplitude for br in decomp.branches}
        ratio = amps[("+", "-")] / amps[("-", "+")]
        assert ratio == pytest.approx(-1.0, abs=1e-9)

    def test_expectations(self):
        assert expectation(singlet(), {"p1": "z", "p2": "z"}) == pytest.approx(-1.0, abs=1e-12)
        assert expectation(singlet(), {"p1": "z"}) == pytest.approx(0.0, abs=1e-12)

    def test_correlation_is_minus_cosine(self):
        assert correlation(0.0, 60.0) == pytest.approx(-0.5, abs=1e-9)
        assert correlation("z", "z") == pytest.approx(-1.0, abs=1e-9)
        assert correlation("z", "x") == pytest.approx(0.0, abs=1e-12)


class TestConfig:
    def test_rejects_bad_axis_and_sizes(self):
        with pytest.raises(ValueError):
            EprConfig(RngSpec(1), alice_axis=(2.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            EprConfig(RngSpec(1), n_minds=0)

    @pytest.mark.parametrize("axis", [float("nan"), float("inf"), (float("nan"), 0.0, 1.0),
                                      (float("inf"), 0.0, 0.0)])
    def test_rejects_non_finite_axis(self, axis):
        with pytest.raises(ValueError, match="finite"):
            EprConfig(RngSpec(0), alice_axis=axis)
        with pytest.raises(ValueError, match="finite"):
            correlation("z", axis)

    def test_rejects_policy_given_as_text(self):
        with pytest.raises(ValueError, match="JOINTLY_CORRELATED"):
            EprConfig(RngSpec(1), policy="joint")


class TestRunEpr:
    def test_joint_same_axis_never_agrees(self):
        n = 20000
        cfg = EprConfig(RngSpec(101), policy=JOINTLY_CORRELATED, n_minds=n)
        run = run_epr(cfg)
        assert run.record.pair_count("+", "+") == 0
        assert run.record.pair_count("-", "-") == 0
        assert run.record.mismatch_pairs == 0
        for obs in ("alice", "bob"):
            assert abs(float(run.record.proportions[obs]["+"]) - 0.5) <= band(0.5, n)

    def test_independent_same_axis_pairs_are_uncorrelated(self):
        n = 20000
        cfg = EprConfig(RngSpec(102), policy=INDEPENDENT_LOCAL, n_minds=n)
        run = run_epr(cfg)
        for obs in ("alice", "bob"):
            assert abs(float(run.record.proportions[obs]["+"]) - 0.5) <= band(0.5, n)
        res = stats.chi2_contingency(np.asarray(run.record.pair_counts))
        assert res.pvalue > SIGNIFICANCE
        assert abs(run.record.mismatch_pairs / n - 0.5) <= band(0.5, n)

    def test_joint_sixty_degrees_correlation(self):
        n = 20000
        cfg = EprConfig(RngSpec(103), alice_axis=0.0, bob_axis=60.0,
                        policy=JOINTLY_CORRELATED, n_minds=n)
        run = run_epr(cfg)
        table = np.asarray(run.record.pair_counts, dtype=float)
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        emp = float((table * signs).sum() / n)
        assert abs(emp - (-0.5)) <= 4 * math.sqrt(0.75 / n)

    def test_deterministic_product_pair(self):
        cfg = EprConfig(RngSpec(104), policy=JOINTLY_CORRELATED, n_minds=50)
        run = run_epr(cfg, pair=product_pair(1, 0, 0, 1))
        assert run.record.proportions["alice"] == {"+": 1}
        assert run.record.proportions["bob"] == {"-": 1}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), ka=st.integers(1, 4), kb=st.integers(1, 4),
           n=st.integers(1, 200))
    def test_record_proportions_are_ensemble_proportions(self, data, ka, kb, n):
        # the record's marginals are its table's row and column sums; they
        # must equal what each ensemble's own outcome column says, exactly
        ensembles = tuple(
            MindEnsemble(obs, n, RngSpec(0), events=("measure",),
                         outcome_labels=(tuple(f"{obs[0]}{i}" for i in range(k)),),
                         assignments=(np.asarray(data.draw(st.lists(
                             st.integers(0, k - 1), min_size=n, max_size=n))),))
            for obs, k in (("alice", ka), ("bob", kb)))
        labels = tuple(ens.outcome_labels[0][0] for ens in ensembles)
        decomp = BranchDecomposition(("alice", "bob"), (Branch(labels, 1.0, 1.0),))
        alice, bob = ensembles
        table = code_counts(n, [alice.assignments[0], bob.assignments[0]], (ka, kb))
        table = table.reshape(ka, kb)
        got = _make_record((alice.outcome_labels[0], bob.outcome_labels[0]), table,
                           decomp).proportions
        assert got == {ens.observer: proportions(ens, "measure") for ens in ensembles}
        assert all(type(f) is Fraction for props in got.values() for f in props.values())

    def test_alice_stats_invariant_under_bob_axis(self):
        # the minds-level face of no-signaling
        n = 20000
        for policy in (JOINTLY_CORRELATED, INDEPENDENT_LOCAL):
            for bob_axis in ("z", "x", 45.0):
                cfg = EprConfig(RngSpec(107), bob_axis=bob_axis, policy=policy, n_minds=n)
                run = run_epr(cfg)
                assert abs(float(run.record.proportions["alice"]["+"]) - 0.5) <= band(0.5, n)


class TestCommunication:
    @pytest.mark.parametrize("policy", [JOINTLY_CORRELATED, INDEPENDENT_LOCAL],
                             ids=["policy0", "policy1"])
    def test_full_report_consistency(self, policy):
        cfg = EprConfig(RngSpec(111), policy=policy, n_minds=2000)
        run = communicate_and_check(cfg)
        assert run.record.report_consistent is True
        for check in run.report_checks:
            assert check.all_consistent
            assert check.expected == {"+": "-", "-": "+"}
            # every minus mind perceives a plus report, and symmetrically
            assert set(check.observed.get("-", {"+": 0})) <= {"+"}
            assert set(check.observed.get("+", {"-": 0})) <= {"-"}

    def test_joint_policy_also_anticorrelates_pairs(self):
        cfg = EprConfig(RngSpec(112), policy=JOINTLY_CORRELATED, n_minds=2000)
        run = communicate_and_check(cfg)
        assert run.record.pair_count("+", "+") == 0
        assert run.record.pair_count("-", "-") == 0

    def test_accepts_completed_run(self):
        cfg = EprConfig(RngSpec(113), policy=JOINTLY_CORRELATED, n_minds=100)
        first = run_epr(cfg)
        run = communicate_and_check(first)
        assert isinstance(run, EprRun)
        # the run's minds are split again from the same draws, so the counts agree
        assert run.record == communicate_and_check(cfg).record
        assert replace(run.record, report_consistent=None) == first.record
        assert run.report_checks is not None and run.record.report_consistent is True
        # its report recorders are written, so it cannot communicate again
        with pytest.raises(PreconditionError, match="ready state"):
            communicate_and_check(run)

    def test_deterministic_pair_is_vacuous_pass(self):
        cfg = EprConfig(RngSpec(114), policy=JOINTLY_CORRELATED, n_minds=20)
        run = communicate_and_check(run_epr(cfg, pair=product_pair(1, 0, 0, 1)))
        assert run.record.report_consistent is True
        assert run.report_checks[0].expected == {"+": "-"}

    def test_rejects_garbage(self):
        with pytest.raises(TypeError, match="completed run"):
            communicate_and_check("not a run")


class TestHulkDemo:
    def test_single_mind_rate_half(self):
        n = 20000
        rate = hulk_demo(n, RngSpec(121))
        assert abs(rate - 0.5) <= band(0.5, n)

    def test_joint_policy_rate_zero(self):
        assert hulk_demo(5000, RngSpec(122), policy=JOINTLY_CORRELATED) == 0.0


class TestChsh:
    def test_exact_optimal(self):
        assert chsh(*DEFAULT_CHSH_AXES) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_degenerate_axes(self):
        assert chsh("z", "z", "z", "z") == pytest.approx(2.0, abs=1e-12)

    def test_classical_bound_exceeded(self):
        assert chsh(*DEFAULT_CHSH_AXES) > 2.0

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            chsh((2.0, 0.0, 0.0), "z", "z", "z")

    def test_monte_carlo_close_to_exact(self):
        est = chsh_monte_carlo(*DEFAULT_CHSH_AXES, n_per_pair=20000, rng=RngSpec(131))
        assert abs(est - 2 * math.sqrt(2)) <= 0.05

    @pytest.mark.parametrize("axes", [DEFAULT_CHSH_AXES, ("z", "x", "z", "x"),
                                      (0.0, 90.0, 45.0, -45.0), (10.0, "y", 200.0, 33.3)])
    @pytest.mark.parametrize("n", [1, 1001, 10**5])
    def test_monte_carlo_matches_sign_mean_reference(self, axes, n):
        # the mean of the sampled outcome signs per axis pair, one gather per draw
        def reference(a, a_prime, b, b_prime, n_per_pair, rng):
            terms = []
            for k, (ax_a, ax_b) in enumerate(((a, b), (a, b_prime), (a_prime, b),
                                              (a_prime, b_prime))):
                joint = branch_decompose(singlet(), {"p1": ax_a, "p2": ax_b}).joint_distribution()
                outcomes = sorted(joint)
                sign = np.array([(1 if s1 == "+" else -1) * (1 if s2 == "+" else -1)
                                 for s1, s2 in outcomes], dtype=float)
                idx = sample_indices(rng.uniforms(n_per_pair, "chsh", k),
                                     [joint[o] for o in outcomes])
                terms.append(float(sign[idx].mean()))
            return abs(terms[0] + terms[1] + terms[2] - terms[3])

        for seed in (0, 132):
            rng = RngSpec(seed)
            assert chsh_monte_carlo(*axes, n, rng) == reference(*axes, n, rng)

    def test_monte_carlo_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            chsh_monte_carlo(*DEFAULT_CHSH_AXES, n_per_pair=0, rng=RngSpec(1))


class TestPrepare:
    def test_pair_layout_enforced(self):
        bad = tensor([make_qubit_state("a", 1, 0), make_qubit_state("b", 0, 1)])
        with pytest.raises(ValueError, match="pair state"):
            prepare_state(EprConfig(RngSpec(1)), pair=bad)

    def test_recorders_capture_wings(self):
        state = prepare_state(EprConfig(RngSpec(1)))
        decomp = branch_decompose(state, {"alice": None, "bob": None})
        assert set(decomp.joint_distribution()) == {("+", "-"), ("-", "+")}
