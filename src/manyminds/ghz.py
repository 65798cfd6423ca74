"""Three-particle analysis: constraints, contradiction, cells, sign flips.

Four measurement scenarios are considered on the three-qubit maximally
entangled state: all-x, and the three placements of one x among two y's.
The state is a simultaneous eigenstate of the four products, which forces
each scenario's outcome triples into a 4-element allowed set; no assignment
of fixed +-1 values to all six local observables satisfies the constraints.

Mind-triples (one mind per observer, paired by index) sample a triple per
scenario from the Born weights, independently across scenarios. The 4^4=256
cross-scenario intersection cells then carry empirical weight, at least one
of them at least 1/256, and every realizable combination forces at least one
observer to flip sign between two scenarios that share their local axis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import prod, sqrt

import numpy as np

from .quantum import (
    PhysicsAssertionError,
    StateVector,
    SubsystemLayout,
    branch_decompose,
    expectation,
    spin_product,
    variance,
)
from .rng import RngSpec, sample_indices

__all__ = [
    "PARTICLES",
    "OBSERVERS",
    "Scenario",
    "SCENARIOS",
    "ScenarioPartition",
    "ScenarioSample",
    "PigeonholeReport",
    "Witness",
    "FLIP_CANDIDATES",
    "ghz_state",
    "verify_constraints",
    "allowed_triples",
    "enumerate_local_assignments",
    "simulate_scenarios",
    "all_cells",
    "pigeonhole_report",
    "sign_flip_witness",
    "sign_flip_witnesses",
    "missing_witness_count",
]

PARTICLES = ("p1", "p2", "p3")
OBSERVERS = ("alice", "bob", "carol")

_SIGNS = ("+", "-")


class Scenario(Enum):
    """Measurement context: which axis each observer uses, numbered 1 to 4."""

    XXX = 1
    XYY = 2
    YXY = 3
    YYX = 4

    @property
    def index(self) -> int:
        return self.value

    @property
    def axes(self) -> tuple[str, str, str]:
        """Per-observer axis (alice, bob, carol); the name spells it out."""
        return tuple(ch.lower() for ch in self.name)

    @property
    def eigenvalue(self) -> int:
        """Constrained product of the three outcome signs."""
        return -1 if self is Scenario.XXX else 1


SCENARIOS = (Scenario.XXX, Scenario.XYY, Scenario.YXY, Scenario.YYX)


def ghz_state() -> StateVector:
    """(|+++> - |--->)/sqrt(2) in the z basis, on particles p1, p2, p3."""
    layout = SubsystemLayout(tuple((p, _SIGNS) for p in PARTICLES))
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / sqrt(2.0)
    amps[7] = -1.0 / sqrt(2.0)
    return StateVector(layout, amps)


def verify_constraints(state: StateVector) -> dict[Scenario, tuple[float, float]]:
    """Expectation and variance of each scenario's spin product.

    On the three-qubit entangled state above this returns (-1, 0) for the
    all-x scenario and (+1, 0) for the other three: the state is an exact
    eigenstate of all four products at once.
    """
    names = state.layout.names
    if len(names) != 3 or any(len(state.layout.labels(n)) != 2 for n in names):
        raise ValueError("constraint check needs a three-qubit state")
    out = {}
    for scen in SCENARIOS:
        op = spin_product(dict(zip(names, scen.axes)))
        out[scen] = (expectation(state, op), variance(state, op))
    return out


@dataclass(frozen=True)
class ScenarioPartition:
    """The four sign-triples a scenario permits, in lexicographic order."""

    scenario: Scenario
    triples: tuple[tuple[str, str, str], ...]


def _sign_product(triple) -> int:
    out = 1
    for s in triple:
        out *= 1 if s == "+" else -1
    return out


def allowed_triples(scenario: Scenario) -> ScenarioPartition:
    """Outcome triples consistent with the scenario's product constraint.

    A pure function of the scenario: the eight candidate triples are filtered
    by sign product, giving four disjoint possibilities per scenario.
    """
    triples = tuple(sorted(
        t for t in itertools.product(_SIGNS, repeat=3)
        if _sign_product(t) == scenario.eigenvalue))
    return ScenarioPartition(scenario, triples)


_PARTITIONS = {scen: allowed_triples(scen) for scen in SCENARIOS}


def enumerate_local_assignments(constraints: tuple[int, ...] = (1, 2, 3, 4),
                                ) -> tuple[int, int, list]:
    """Brute-force all 64 fixed +-1 assignments to the six local observables.

    Each particle gets a definite value for its x and its y observable; an
    assignment satisfies a scenario when the product of the relevant three
    values equals that scenario's eigenvalue. Returns (total, satisfying
    count, satisfying assignments). With all four constraints the count is 0:
    no pre-assigned local values reproduce the state's correlations.
    """
    if not set(constraints) <= {1, 2, 3, 4}:
        raise ValueError(f"constraints must be scenario indices 1-4, got {constraints}")
    # values are (x1, y1, x2, y2, x3, y3): observer o's x value is values[2 * o]
    checks = [(SCENARIOS[j - 1].eigenvalue,
               [2 * o + (axis == "y") for o, axis in enumerate(SCENARIOS[j - 1].axes)])
              for j in constraints]
    witnesses = [values for values in itertools.product((1, -1), repeat=6)
                 if all(prod(values[k] for k in slots) == eig for eig, slots in checks)]
    return 64, len(witnesses), witnesses


# ---------------------------------------------------------------------------
# Sampling


# sign of observer o's outcome in scenario j, per allowed-triple index
_SIGN_TABLE = np.array(
    [[[1 if triple[o] == "+" else -1 for triple in _PARTITIONS[scen].triples]
      for o in range(3)]
     for scen in SCENARIOS], dtype=np.int8)  # (scenario, observer, triple index)


class ScenarioSample:
    """n mind-triples' outcomes as an (n, 4) array of allowed-triple indices.

    Column j holds scenario j+1's index into ``allowed_triples(...).triples``;
    an index outside 0..3 is rejected, so a disallowed triple cannot occur.
    """

    def __init__(self, indices: np.ndarray):
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != 4:
            raise ValueError(f"indices must have shape (n, 4), got {indices.shape}")
        if indices.size and (indices.min() < 0 or indices.max() > 3):
            raise ValueError("triple indices must lie in 0..3")
        indices = indices.astype(np.int8)
        indices.flags.writeable = False
        self.indices = indices

    def __len__(self) -> int:
        return self.indices.shape[0]

    def __eq__(self, other):
        return isinstance(other, ScenarioSample) and np.array_equal(self.indices, other.indices)

    def cell_ids(self) -> np.ndarray:
        idx = self.indices.astype(np.int64)
        return ((idx[:, 0] * 4 + idx[:, 1]) * 4 + idx[:, 2]) * 4 + idx[:, 3]

    def triple_counts(self, scenario: Scenario) -> np.ndarray:
        """Count per allowed triple (lexicographic order) in one scenario."""
        return np.bincount(self.indices[:, scenario.index - 1], minlength=4)

    def plus_fraction(self, observer: str, scenario: Scenario) -> float:
        signs = _SIGN_TABLE[scenario.index - 1, OBSERVERS.index(observer)]
        per_mind = signs[self.indices[:, scenario.index - 1]]
        return float(np.mean(per_mind == 1))


def all_cells() -> np.ndarray:
    """The 256 cells as a (256, 4) triple-index array; row k is cell id k
    (base 4 over the triple indices, scenario 1 most significant)."""
    return np.array(list(itertools.product(range(4), repeat=4)), dtype=np.int8)


def simulate_scenarios(n_triples: int, rng: RngSpec) -> ScenarioSample:
    """Sample each scenario's outcome for n mind-triples from Born weights.

    Scenario draws are independent of each other and of which scenario might
    actually be performed; mind-triple i always consumes draw i of each
    scenario's stream. The weights come from the branch decomposition of
    ``ghz_state()``, (|+++> - |--->)/sqrt(2), in the scenario's axes: 1/4 on
    each allowed triple.
    """
    if n_triples < 1:
        raise ValueError(f"n_triples must be >= 1, got {n_triples}")
    state = ghz_state()
    names = state.layout.names
    columns = []
    for scen in SCENARIOS:
        decomp = branch_decompose(state, dict(zip(names, scen.axes)))
        dist = decomp.joint_distribution()
        allowed = _PARTITIONS[scen].triples
        if not set(dist) <= set(allowed):
            raise PhysicsAssertionError(
                f"{scen.name}: branch support {sorted(dist)} leaves the allowed set")
        probs = [dist.get(t, 0.0) for t in allowed]
        u = rng.uniforms(n_triples, "ghz", scen.index)
        columns.append(sample_indices(u, probs))
    return ScenarioSample(np.stack(columns, axis=1))


# ---------------------------------------------------------------------------
# Pigeonhole and sign flips


@dataclass(frozen=True)
class PigeonholeReport:
    """256-cell histogram with the frequency-floor check already applied."""

    n: int
    counts: np.ndarray = field(repr=False)
    max_cell_id: int = 0
    max_frequency: Fraction = Fraction(0)

    @property
    def nonempty_cells(self) -> int:
        return int(np.count_nonzero(self.counts))

    def frequency(self, cell_id: int) -> Fraction:
        return Fraction(int(self.counts[cell_id]), self.n)


def pigeonhole_report(sample: ScenarioSample) -> PigeonholeReport:
    """Histogram outcomes over the 256 cells; the fullest cell must carry
    frequency at least 1/256 because the cells exhaust all outcomes."""
    ids = sample.cell_ids()
    if ids.size == 0:
        raise ValueError("no outcomes to report on")
    counts = np.bincount(ids, minlength=256)
    counts.flags.writeable = False
    top = int(np.argmax(counts))
    freq = Fraction(int(counts[top]), int(ids.size))
    if freq < Fraction(1, 256):
        raise PhysicsAssertionError(
            f"max cell frequency {freq} < 1/256 cannot happen for 256 covering cells")
    return PigeonholeReport(int(ids.size), counts, top, freq)


@dataclass(frozen=True)
class Witness:
    """An observer whose sign differs between two same-axis scenarios."""

    observer: str
    scenarios: tuple[Scenario, Scenario]

    @property
    def axis(self) -> str:
        return self.scenarios[0].axes[OBSERVERS.index(self.observer)]


# scenario pairs in which one observer keeps the same local axis, by observer
FLIP_CANDIDATES = tuple((observer, pair) for o, observer in enumerate(OBSERVERS)
                        for pair in itertools.combinations(SCENARIOS, 2)
                        if pair[0].axes[o] == pair[1].axes[o])


def sign_flip_witnesses(row) -> tuple[Witness, ...]:
    """All candidate (observer, scenario pair) flips in one outcome row.

    ``row`` holds one allowed-triple index per scenario, like a row of
    ``all_cells()`` or of ``ScenarioSample.indices``.
    """
    row = tuple(int(k) for k in row)
    if len(row) != 4 or not all(0 <= k <= 3 for k in row):
        raise ValueError(f"need one triple index in 0..3 per scenario, got {row}")
    found = []
    for observer, pair in FLIP_CANDIDATES:
        o = OBSERVERS.index(observer)
        j, k = pair[0].index - 1, pair[1].index - 1
        if _SIGN_TABLE[j, o, row[j]] != _SIGN_TABLE[k, o, row[k]]:
            found.append(Witness(observer, pair))
    return tuple(found)


def sign_flip_witness(row) -> Witness:
    """First witness in the fixed candidate order.

    Existence is guaranteed: if no observer flipped between any same-axis
    scenario pair, the outcome would define fixed local values satisfying all
    four constraints, and the 64-assignment enumeration shows none exist.
    """
    witnesses = sign_flip_witnesses(row)
    if not witnesses:
        raise PhysicsAssertionError(
            f"no sign flip in {tuple(row)!r}; this contradicts the constraint table")
    return witnesses[0]


def missing_witness_count(sample: ScenarioSample) -> int:
    """How many sampled triples admit no flip witness (always 0)."""
    idx = sample.indices
    has = np.zeros(len(sample), dtype=bool)
    for observer, pair in FLIP_CANDIDATES:
        o = OBSERVERS.index(observer)
        a = _SIGN_TABLE[pair[0].index - 1, o][idx[:, pair[0].index - 1]]
        b = _SIGN_TABLE[pair[1].index - 1, o][idx[:, pair[1].index - 1]]
        has |= a != b
    return int(len(sample) - np.count_nonzero(has))

