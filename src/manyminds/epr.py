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
    JOINTLY_CORRELATED,
    SINGLE_MIND,
    MindEnsemble,
    ReportCheck,
    SamplingPolicy,
    count_off_support,
    marginal_for,
    mismatch_probability,
    report_correlation,
    split_joint,
    split_local,
)
from .quantum import (
    DEFAULT_CHSH_AXES,
    BranchDecomposition,
    StateVector,
    SubsystemLayout,
    axis_vector,
    branch_decompose,
    conditional_distribution,
    expectation,
    premeasure,
    ready_state,
    tensor,
)
from .rng import RngSpec, code_counts, sample_indices

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
        axis_vector(self.alice_axis)  # refuses anything but x, y, z or a finite angle
        axis_vector(self.bob_axis)
        if not isinstance(self.policy, SamplingPolicy):
            raise ValueError("policy must be INDEPENDENT_LOCAL, JOINTLY_CORRELATED or "
                             f"SINGLE_MIND from manyminds.minds, got {self.policy!r}")
        if self.n_minds < 1:
            raise ValueError(f"n_minds must be >= 1, got {self.n_minds}")


@dataclass(frozen=True)
class RunRecord:
    """Outcome statistics of one run: index-paired contingency table of mind
    outcomes, mismatched-pair count, report-consistency flag."""

    n_minds: int
    pair_labels: tuple[tuple[str, ...], tuple[str, ...]]
    pair_counts: tuple[tuple[int, ...], ...]
    mismatch_pairs: int
    report_consistent: bool | None = None

    @property
    def proportions(self) -> dict[str, dict[str, Fraction]]:
        """Exact outcome fractions: alice's are the table's row sums, bob's its column sums."""
        table = np.asarray(self.pair_counts)
        sums = (table.sum(axis=1).tolist(), table.sum(axis=0).tolist())
        return {obs: {label: Fraction(s, self.n_minds) for label, s in zip(labels, col)}
                for obs, labels, col in zip(OBSERVERS, self.pair_labels, sums)}

    def pair_count(self, a_label: str, b_label: str) -> int:
        i = self.pair_labels[0].index(a_label)
        j = self.pair_labels[1].index(b_label)
        return self.pair_counts[i][j]


@dataclass(frozen=True)
class EprRun:
    """A completed experiment: global state and the counts of every mind."""

    config: EprConfig
    state: StateVector
    record: RunRecord
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


def _make_record(labels: tuple[tuple[str, ...], tuple[str, ...]], table: np.ndarray,
                 decomp: BranchDecomposition) -> RunRecord:
    return RunRecord(
        n_minds=int(table.sum()),
        pair_labels=labels,
        pair_counts=tuple(tuple(row) for row in table.tolist()),
        mismatch_pairs=count_off_support(decomp, labels, table),
    )


def _count_minds(config: EprConfig, measured: BranchDecomposition,
                 reports: BranchDecomposition | None = None) -> tuple[tuple, np.ndarray]:
    """Labels and counts of each wing's "measure" outcome, drawn from
    ``measured``, and with ``reports`` of the report it perceives after
    communication: one axis per column, alice's columns first."""
    local = {obs: marginal_for(measured, obs) for obs in OBSERVERS}
    steps, columns = [("measure", measured, local)], [(measured, obs) for obs in OBSERVERS]
    if reports is not None:
        joint = conditional_distribution(reports, OBSERVERS, [f"{o}_report" for o in OBSERVERS])
        local = {obs: {own: {r: p for (r,), p in dist.items()} for own, dist in
                       conditional_distribution(reports, (obs,), (f"{obs}_report",)).items()}
                 for obs in OBSERVERS}
        steps.append(("report", {((a,), (b,)): dist for (a, b), dist in joint.items()}, local))
        columns = [(reports, name) for obs in OBSERVERS for name in (obs, f"{obs}_report")]
    labels = tuple(tuple(sorted(marginal_for(decomp, name))) for decomp, name in columns)

    def count(start, stop):
        ensembles = [MindEnsemble(obs, stop - start, config.rng, config.policy, first=start)
                     for obs in OBSERVERS]
        for event, joint_dist, by_obs in steps:
            if config.policy is JOINTLY_CORRELATED:
                ensembles = split_joint(ensembles, event, joint_dist)
            else:
                ensembles = [split_local(ens, event, by_obs[ens.observer]) for ens in ensembles]
        return code_counts(stop - start, [c for ens in ensembles for c in ens.assignments],
                           tuple(map(len, labels)))

    n = 1 if config.policy is SINGLE_MIND else config.n_minds
    return labels, config.rng.count_windows(n, count).reshape(tuple(map(len, labels)))


def run_epr(config: EprConfig, pair: StateVector | None = None) -> EprRun:
    """Premeasure both wings and split each observer's minds once."""
    state = prepare_state(config, pair)
    decomp = branch_decompose(state, {"alice": None, "bob": None})
    return EprRun(config, state, _make_record(*_count_minds(config, decomp), decomp))


def communicate_and_check(run: EprRun | EprConfig) -> EprRun:
    """Copy each wing's pointer into the other observer's report recorder,
    split the minds on their outcomes and the perceived reports, check consistency.

    Every mind must perceive exactly the report its own outcome determines;
    for the same-axis singlet that means each "-" mind perceives a "+" report
    from the other wing and vice versa, under either policy. A completed run's
    minds are split again from the same draws.
    """
    if isinstance(run, EprConfig):
        run = EprRun(run, prepare_state(run), None)
    if not isinstance(run, EprRun):
        raise TypeError(f"needs a completed run or a config, got {type(run).__name__}")

    measured = branch_decompose(run.state, {"alice": None, "bob": None})
    state = premeasure(run.state, "bob", None, "alice_report")
    state = premeasure(state, "alice", None, "bob_report")
    names = ("alice", "bob", "alice_report", "bob_report")
    decomp = branch_decompose(state, dict.fromkeys(names))

    labels, counts = _count_minds(run.config, measured, decomp)
    # axes: alice, alice_report, bob, bob_report
    record = _make_record((labels[0], labels[2]), counts.sum(axis=(1, 3)), measured)
    checks = tuple(report_correlation(decomp, {"alice": (labels[:2], counts.sum(axis=(2, 3))),
                                               "bob": (labels[2:], counts.sum(axis=(0, 1)))}))
    record = replace(record, report_consistent=all(c.all_consistent for c in checks))
    return EprRun(run.config, state, record, checks)


def hulk_demo(trials: int, rng: RngSpec, *, policy: SamplingPolicy = SINGLE_MIND) -> float:
    """Empirical probability that the two wings' minds track different branches.

    Each trial measures both particles along z and gives each wing one mind.
    With independent single-mind sampling on the singlet the wings disagree
    about which branch is occupied half the time, leaving brains whose
    records no mind perceives; jointly-correlated sampling removes the effect
    entirely.
    """
    decomp = branch_decompose(singlet(), {"p1": "z", "p2": "z"})
    return mismatch_probability(policy, decomp, trials, rng)


def correlation(alice_axis, bob_axis) -> float:
    """Exact <sigma_a x sigma_b> on the singlet; -cos(angle between axes)."""
    return expectation(singlet(), {"p1": alice_axis, "p2": bob_axis})


def chsh(a, a_prime, b, b_prime) -> float:
    """|E(a,b) + E(a,b') + E(a',b) - E(a',b')| from exact expectations."""
    return abs(correlation(a, b) + correlation(a, b_prime)
               + correlation(a_prime, b) - correlation(a_prime, b_prime))


def chsh_monte_carlo(a, a_prime, b, b_prime, n_per_pair: int, rng: RngSpec) -> float:
    """Same combination with each expectation estimated from joint samples."""
    if n_per_pair < 1:
        raise ValueError(f"n_per_pair must be >= 1, got {n_per_pair}")
    probs = []
    for x, y in ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)):
        joint = branch_decompose(singlet(), {"p1": x, "p2": y}).joint_distribution()
        # outcomes (++, +-, -+, --); one that the axes exclude has weight 0
        probs.append([joint.get(o, 0.0) for o in (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))])

    def count(start, stop):
        return code_counts(stop - start, (
            sample_indices(rng.uniforms(stop - start, "chsh", k, start=start), p)
            for k, p in enumerate(probs)), (4, 4, 4, 4))

    counts = rng.count_windows(n_per_pair, count).reshape(4, 4, 4, 4)
    # a sum of n terms of +-1.0 is exact, so each term rounds once, as a mean of signs does
    terms = [counts.sum(axis=tuple({0, 1, 2, 3} - {k})) @ [1.0, -1.0, -1.0, 1.0] / n_per_pair
             for k in range(4)]
    return float(abs(terms[0] + terms[1] + terms[2] - terms[3]))
