"""Two-wing singlet experiments over the no-collapse dynamics.

The model is two spin-1/2 particles in the singlet state, one brain recorder
per wing, and optionally one report recorder per observer for the
communication step. Measurements are premeasurement unitaries; observers'
mind ensembles then split according to the branch weights under the chosen
sampling policy. The drivers below cover same-axis anti-correlation, the
single-mind mismatch demonstration, report consistency after communication,
and a CHSH quantity from exact expectations or joint-sampling estimates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import sqrt

import numpy as np

from .minds import (
    SINGLE_MIND,
    MindEnsemble,
    PolicyKind,
    ReportCheck,
    SamplingPolicy,
    count_off_support,
    init_ensemble,
    marginal_for,
    mismatch_probability,
    proportions,
    report_correlation,
    split_joint,
    split_local,
)
from .quantum import (
    BranchDecomposition,
    StateVector,
    SubsystemLayout,
    axis_name,
    axis_vector,
    branch_decompose,
    conditional_distribution,
    expectation,
    premeasure,
    ready_state,
    spin_product,
    tensor,
)
from .rng import RngSpec, sample_indices

__all__ = [
    "PARTICLES",
    "OBSERVERS",
    "DEFAULT_CHSH_AXES",
    "EprConfig",
    "RunRecord",
    "EprRun",
    "singlet",
    "prepare_state",
    "run_epr",
    "communicate_and_check",
    "hulk_demo",
    "correlation",
    "chsh",
    "chsh_monte_carlo",
]

PARTICLES = ("p1", "p2")
OBSERVERS = ("alice", "bob")

# axes (a, a', b, b') in degrees within the x-z plane; they maximize the
# combination |E(a,b) + E(a,b') + E(a',b) - E(a',b')| at 2*sqrt(2)
DEFAULT_CHSH_AXES = (0.0, 90.0, 45.0, -45.0)


def singlet() -> StateVector:
    """(|+z,-z> - |-z,+z>)/sqrt(2) on particles p1, p2.

    The state is rotationally invariant: in any single-axis product basis it
    keeps amplitudes (0, 1/sqrt(2), -1/sqrt(2), 0) up to a global phase.
    """
    layout = SubsystemLayout((("p1", ("+", "-")), ("p2", ("+", "-"))))
    amps = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)
    return StateVector(layout, amps.astype(complex))


@dataclass(frozen=True)
class EprConfig:
    """One two-wing experiment: axes, sampling policy, ensemble size, stream."""

    rng: RngSpec
    alice_axis: object = "z"
    bob_axis: object = "z"
    policy: SamplingPolicy = SINGLE_MIND
    n_minds: int = 1

    def __post_init__(self):
        axis_vector(self.alice_axis)  # rejects non-unit or malformed axes
        axis_vector(self.bob_axis)
        if not isinstance(self.policy, SamplingPolicy):
            raise ValueError("policy must be INDEPENDENT_LOCAL, JOINTLY_CORRELATED or "
                             f"SINGLE_MIND from manyminds.minds, got {self.policy!r}")
        if self.n_minds < 1:
            raise ValueError(f"n_minds must be >= 1, got {self.n_minds}")

    def to_dict(self) -> dict:
        return {
            "alice_axis": axis_name(self.alice_axis),
            "bob_axis": axis_name(self.bob_axis),
            "policy": self.policy.name,
            "n_minds": self.n_minds,
            "rng": self.rng.to_dict(),
        }


@dataclass(frozen=True)
class RunRecord:
    """Outcome statistics of one run: marginals, index-paired contingency
    table of mind outcomes, mismatched-pair count, report-consistency flag."""

    n_minds: int
    proportions: dict[str, dict[str, Fraction]]
    pair_labels: tuple[tuple[str, ...], tuple[str, ...]]
    pair_counts: tuple[tuple[int, ...], ...]
    mismatch_pairs: int
    report_consistent: bool | None = None

    def __post_init__(self):
        rows, cols = self.pair_labels
        table = np.asarray(self.pair_counts)
        obs_a, obs_b = OBSERVERS
        for labels, sums, obs in ((rows, table.sum(axis=1), obs_a),
                                  (cols, table.sum(axis=0), obs_b)):
            for label, s in zip(labels, sums):
                expect = self.proportions[obs][label] * self.n_minds
                if expect != int(s):
                    raise ValueError(
                        f"contingency marginal for {obs}:{label} is {int(s)}, "
                        f"proportions say {expect}")

    def pair_count(self, a_label: str, b_label: str) -> int:
        i = self.pair_labels[0].index(a_label)
        j = self.pair_labels[1].index(b_label)
        return self.pair_counts[i][j]

    def to_dict(self) -> dict:
        return {
            "n_minds": self.n_minds,
            "proportions": {obs: {lab: str(frac) for lab, frac in props.items()}
                            for obs, props in self.proportions.items()},
            "pair_labels": [list(self.pair_labels[0]), list(self.pair_labels[1])],
            "pair_counts": [list(row) for row in self.pair_counts],
            "mismatch_pairs": self.mismatch_pairs,
            "report_consistent": self.report_consistent,
        }


@dataclass(frozen=True)
class EprRun:
    """A completed experiment: global state, branch structure, ensembles."""

    config: EprConfig
    state: StateVector
    measure_decomp: BranchDecomposition
    ensembles: tuple[MindEnsemble, ...]
    record: RunRecord
    comm_decomp: BranchDecomposition | None = None
    report_checks: tuple[ReportCheck, ...] | None = None


def prepare_state(config: EprConfig, pair: StateVector | None = None) -> StateVector:
    """Particle pair plus ready recorders, after both wing premeasurements.

    ``pair`` defaults to the singlet; any two-qubit state on (p1, p2) works,
    e.g. a product state for a deterministic run. Each observer gets a brain
    recorder for their own particle and a report recorder (still ready) that
    the communication step may later write.
    """
    if pair is None:
        pair = singlet()
    if pair.layout.names != PARTICLES:
        raise ValueError(f"pair state must live on {PARTICLES}, got {pair.layout.names}")
    state = tensor([
        pair,
        ready_state("alice", ("+", "-")),
        ready_state("bob", ("+", "-")),
        ready_state("alice_report", ("none", "+", "-")),
        ready_state("bob_report", ("none", "+", "-")),
    ])
    state = premeasure(state, "p1", config.alice_axis, "alice")
    return premeasure(state, "p2", config.bob_axis, "bob")


def _make_record(ensembles: tuple[MindEnsemble, ...], decomp: BranchDecomposition,
                 report_consistent: bool | None = None) -> RunRecord:
    alice, bob = ensembles
    ka, kb = alice.event_index("measure"), bob.event_index("measure")
    rows, cols = alice.outcome_labels[ka], bob.outcome_labels[kb]
    ia, ib = alice.assignments[ka], bob.assignments[kb]
    table = np.bincount(ia.astype(np.int64) * len(cols) + ib, minlength=len(rows) * len(cols))
    return RunRecord(
        n_minds=alice.size,
        proportions={ens.observer: proportions(ens, "measure") for ens in ensembles},
        pair_labels=(rows, cols),
        pair_counts=tuple(tuple(row) for row in table.reshape(len(rows), -1).tolist()),
        mismatch_pairs=count_off_support(decomp, (rows, cols), ia, ib),
        report_consistent=report_consistent,
    )


def run_epr(config: EprConfig, pair: StateVector | None = None) -> EprRun:
    """Premeasure both wings and split each observer's minds once."""
    state = prepare_state(config, pair)
    decomp = branch_decompose(state, {"alice": None, "bob": None})
    ensembles = [init_ensemble(obs, config.n_minds, config.rng, config.policy)
                 for obs in OBSERVERS]
    if config.policy.kind is PolicyKind.JOINTLY_CORRELATED:
        ensembles = split_joint(ensembles, "measure", decomp)
    else:
        ensembles = [split_local(ens, "measure", marginal_for(decomp, ens.observer))
                     for ens in ensembles]
    ensembles = tuple(ensembles)
    return EprRun(config, state, decomp, ensembles, _make_record(ensembles, decomp))


def communicate_and_check(run: EprRun | EprConfig) -> EprRun:
    """Copy each wing's pointer into the other observer's report recorder,
    split the minds on the perceived reports, and check consistency.

    Every mind must perceive exactly the report its own outcome determines;
    for the same-axis singlet that means each "-" mind perceives a "+" report
    from the other wing and vice versa, under either policy.
    """
    if isinstance(run, EprConfig):
        run = run_epr(run)
    if not isinstance(run, EprRun):
        raise TypeError(f"needs a completed run or a config, got {type(run).__name__}")

    state = premeasure(run.state, "bob", None, "alice_report")
    state = premeasure(state, "alice", None, "bob_report")
    names = ("alice", "bob", "alice_report", "bob_report")
    decomp = branch_decompose(state, dict.fromkeys(names))

    if run.config.policy.kind is PolicyKind.JOINTLY_CORRELATED:
        cond = conditional_distribution(decomp, ("alice", "bob"),
                                        ("alice_report", "bob_report"))
        table = {((a,), (b,)): dist for (a, b), dist in cond.items()}
        ensembles = tuple(split_joint(list(run.ensembles), "report", table))
    else:
        ensembles = []
        for ens in run.ensembles:
            cond = conditional_distribution(decomp, (ens.observer,),
                                            (f"{ens.observer}_report",))
            table = {own: {r: p for (r,), p in dist.items()} for own, dist in cond.items()}
            ensembles.append(split_local(ens, "report", table))
        ensembles = tuple(ensembles)

    checks = tuple(report_correlation(list(ensembles), decomp, "measure", "report"))
    record = _make_record(ensembles, run.measure_decomp,
                          report_consistent=all(c.all_consistent for c in checks))
    return replace(run, state=state, ensembles=ensembles, record=record,
                   comm_decomp=decomp, report_checks=checks)


def hulk_demo(trials: int, rng: RngSpec, *, policy: SamplingPolicy = SINGLE_MIND,
              state: StateVector | None = None) -> float:
    """Empirical probability that the two wings' minds track different branches.

    Each trial measures both particles along z and gives each wing one mind.
    With independent single-mind sampling on the singlet the wings disagree
    about which branch is occupied half the time, leaving brains whose
    records no mind perceives; jointly-correlated sampling removes the effect
    entirely.
    """
    if state is None:
        state = singlet()
    p1, p2 = state.layout.names
    decomp = branch_decompose(state, {p1: "z", p2: "z"})
    return mismatch_probability(policy, decomp, trials, rng)


def correlation(alice_axis, bob_axis) -> float:
    """Exact <sigma_a x sigma_b> on the singlet; -cos(angle between axes)."""
    return expectation(singlet(), spin_product({"p1": alice_axis, "p2": bob_axis}))


def chsh(a, a_prime, b, b_prime) -> float:
    """|E(a,b) + E(a,b') + E(a',b) - E(a',b')| from exact expectations."""
    return abs(correlation(a, b) + correlation(a, b_prime)
               + correlation(a_prime, b) - correlation(a_prime, b_prime))


def chsh_monte_carlo(a, a_prime, b, b_prime, n_per_pair: int, rng: RngSpec) -> float:
    """Same combination with each expectation estimated from joint samples."""
    if n_per_pair < 1:
        raise ValueError(f"n_per_pair must be >= 1, got {n_per_pair}")
    terms = []
    for k, (ax_a, ax_b) in enumerate(((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))):
        decomp = branch_decompose(singlet(), {"p1": ax_a, "p2": ax_b})
        joint = decomp.joint_distribution()
        outcomes = sorted(joint.keys())
        sign = np.array([(1 if s1 == "+" else -1) * (1 if s2 == "+" else -1)
                         for s1, s2 in outcomes], dtype=float)
        idx = sample_indices(rng.uniforms(n_per_pair, "chsh", k), [joint[o] for o in outcomes])
        terms.append(float(sign[idx].mean()))
    return abs(terms[0] + terms[1] + terms[2] - terms[3])
