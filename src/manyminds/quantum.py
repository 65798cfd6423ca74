"""Exact no-collapse quantum mechanics on small labeled tensor-product spaces.

States are dense complex amplitude vectors over an ordered list of named
subsystems. Measurements never collapse anything: ``premeasure`` applies the
unitary that copies a subsystem's basis label into a recorder's pointer
states, and ``branch_decompose`` expands the resulting entangled state into
outcome-labeled branches with Born weights. Everything is immutable and pure.

Basis conventions (the signs below fix all branch amplitudes and expectation
values produced by this module):

    |+x> = (|+z> + |-z>)/sqrt(2)    |-x> = (|+z> - |-z>)/sqrt(2)
    |+y> = (|+z> + i|-z>)/sqrt(2)   |-y> = (|+z> - i|-z>)/sqrt(2)

with the Pauli matrices written in the z basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import cos, inf, isfinite, sin, sqrt
from numbers import Real
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import ATOL

__all__ = [
    "ATOL",
    "PRUNE_TOL",
    "MAX_DIM",
    "READY",
    "NormalizationError",
    "PreconditionError",
    "PhysicsAssertionError",
    "SubsystemLayout",
    "StateVector",
    "Branch",
    "BranchDecomposition",
    "DensityMatrix",
    "axis_vector",
    "axis_basis",
    "DEFAULT_CHSH_AXES",
    "pauli",
    "ready_state",
    "tensor",
    "premeasure",
    "branch_decompose",
    "expectation",
    "variance",
    "partial_trace",
    "trace_distance",
    "conditional_distribution",
]

PRUNE_TOL = 1e-12  # branch-pruning threshold on Born weight
MAX_DIM = 2**14    # dense amplitude storage; largest supported total dimension

READY = "ready"

_SQRT2_INV = 1.0 / sqrt(2.0)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Columns are |+axis>, |-axis> in the z representation.
_NAMED_BASES = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "y": np.array([[1, 1], [1j, -1j]], dtype=complex) * _SQRT2_INV,
}

_NAMED_VECTORS = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


class NormalizationError(ValueError):
    """Amplitudes do not carry unit total probability."""


class PreconditionError(ValueError):
    """An operation's input state violates its precondition."""


class PhysicsAssertionError(RuntimeError):
    """A computed quantity contradicts a physically guaranteed property."""


# ---------------------------------------------------------------------------
# Measurement axes


def axis_vector(axis) -> np.ndarray:
    """Unit 3-vector for an axis: "x", "y", "z", or a finite angle in degrees (a real
    number, numpy's too, but no bool) from +z toward +x in the x-z plane; nothing else."""
    if isinstance(axis, str) and axis in _NAMED_VECTORS:
        return np.array(_NAMED_VECTORS[axis])
    if isinstance(axis, Real) and not isinstance(axis, bool):
        try:
            degrees = float(axis)
        except OverflowError:  # an int too large for a float
            degrees = inf
        if isfinite(degrees):
            theta = np.deg2rad(degrees)
            return np.array([sin(theta), 0.0, cos(theta)])
    raise ValueError(f"an axis is x, y, z or a finite angle in degrees, got {axis!r}")


def axis_basis(axis) -> np.ndarray:
    """2x2 unitary whose columns are |+axis>, |-axis> in the z representation."""
    if isinstance(axis, str) and axis in _NAMED_BASES:
        return _NAMED_BASES[axis].copy()
    vec = axis_vector(axis)
    for name, nvec in _NAMED_VECTORS.items():
        if np.allclose(vec, nvec, atol=1e-12):
            return _NAMED_BASES[name].copy()
    half = np.deg2rad(float(axis)) / 2
    return np.array([[cos(half), sin(half)], [sin(half), -cos(half)]], dtype=complex)


# axes (a, a', b, b') in degrees within the x-z plane; they maximize the
# combination |E(a,b) + E(a,b') + E(a',b) - E(a',b')| at 2*sqrt(2)
DEFAULT_CHSH_AXES = (0.0, 90.0, 45.0, -45.0)


def pauli(axis) -> np.ndarray:
    """Pauli matrix along a named axis, or sigma.n for an angle in the x-z plane."""
    if isinstance(axis, str) and axis in _PAULI:
        return _PAULI[axis].copy()
    vec = axis_vector(axis)
    return vec[0] * _PAULI["x"] + vec[1] * _PAULI["y"] + vec[2] * _PAULI["z"]


# ---------------------------------------------------------------------------
# Layouts and states


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered named tensor factors; fixes index order of the joint space."""

    subsystems: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        names = [name for name, _ in self.subsystems]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate subsystem names in {names}")
        for name, labels in self.subsystems:
            if len(labels) < 1:
                raise ValueError(f"subsystem {name!r} has no basis labels")
            if len(set(labels)) != len(labels):
                raise ValueError(f"subsystem {name!r} has duplicate labels {labels}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(labels) for _, labels in self.subsystems)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def axis(self, name: str) -> int:
        for i, (n, _) in enumerate(self.subsystems):
            if n == name:
                return i
        raise KeyError(f"unknown subsystem {name!r}")

    def labels(self, name: str) -> tuple[str, ...]:
        return self.subsystems[self.axis(name)][1]


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a subsystem layout."""

    layout: SubsystemLayout
    amps: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != self.layout.dim:
            raise ValueError(f"expected {self.layout.dim} amplitudes, got {amps.size}")
        if self.layout.dim > MAX_DIM:
            raise ValueError(f"total dimension {self.layout.dim} exceeds {MAX_DIM}")
        if not np.all(np.isfinite(amps.view(float))):
            raise NormalizationError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > ATOL:
            raise NormalizationError(f"state norm^2 = {norm_sq}, expected 1")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @property
    def tensor_amps(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)


class Branch(NamedTuple):
    """One outcome-labeled term of a decomposition; weight is |amplitude|^2."""

    labels: tuple[str, ...]
    amplitude: complex
    weight: float


@dataclass(frozen=True)
class BranchDecomposition:
    """Branches of a state relative to per-subsystem basis choices."""

    subsystems: tuple[str, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        n = len(self.branches)
        mags = np.fromiter(map(abs, map(attrgetter("amplitude"), self.branches)), float, n)
        weights = np.fromiter(map(attrgetter("weight"), self.branches), float, n)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are bad too
            bad = ~(np.abs(mags ** 2 - weights) <= ATOL)
        if bad.any():
            br = self.branches[bad.argmax()]
            raise ValueError(f"branch {br.labels}: weight {br.weight} != |amplitude|^2")
        total = float(weights.sum())
        if not abs(total - 1.0) <= ATOL:
            raise NormalizationError(f"branch weights sum to {total}, expected 1")

    def joint_distribution(self) -> dict[tuple[str, ...], float]:
        return {br.labels: br.weight for br in self.branches}


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced state of one subsystem: Hermitian, unit trace, PSD."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL:
            raise ValueError(f"density matrix trace = {np.trace(mat).real}, expected 1")
        if np.min(np.linalg.eigvalsh(mat)) < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) trace norm of rho - sigma."""
    diff = rho.matrix - sigma.matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# State construction


def ready_state(name: str, pointer_labels: tuple[str, ...]) -> StateVector:
    """Recorder in its ready state, with one pointer label per possible outcome.

    The recorder's dimension is len(pointer_labels) + 1; the extra basis
    vector is the ready state itself, so a k-outcome measurement needs a
    recorder with at least k pointer labels.
    """
    labels = (READY,) + tuple(pointer_labels)
    layout = SubsystemLayout(((name, labels),))
    amps = np.zeros(len(labels), dtype=complex)
    amps[0] = 1.0
    return StateVector(layout, amps)


def tensor(states: list[StateVector]) -> StateVector:
    """Product state; the layout is the concatenation of the factor layouts."""
    if not states:
        raise ValueError("tensor() needs at least one state")
    layout = SubsystemLayout(tuple(sub for st in states for sub in st.layout.subsystems))
    amps = np.array([1.0 + 0j])
    for st in states:
        amps = np.kron(amps, st.amps)
    return StateVector(layout, amps)


# ---------------------------------------------------------------------------
# Dynamics and analysis


def _basis_for(state: StateVector, name: str, basis) -> tuple[np.ndarray, tuple[str, ...]]:
    """Basis matrix and outcome labels for one subsystem's measurement context.

    ``basis=None`` means the subsystem's own labeled basis, for any dimension.
    An axis (see ``axis_vector``) is only meaningful for two-dimensional
    subsystems and yields outcome labels ("+", "-").
    """
    labels = state.layout.labels(name)
    if basis is None:
        return np.eye(len(labels), dtype=complex), labels
    if len(labels) != 2:
        raise ValueError(f"axis basis given for {name!r}, which has dimension {len(labels)}")
    return axis_basis(basis), ("+", "-")


def premeasure(state: StateVector, measured: str, basis, recorder: str) -> StateVector:
    """Unitarily copy a subsystem's basis label into a recorder's pointer states.

    Applies |s_i>|ready> -> |s_i>|pointer_i> where the |s_i> are the columns
    of the measurement basis and pointer_i is the recorder's (i+1)-th basis
    vector. The recorder must start in its ready state and have dimension at
    least (number of outcomes) + 1.
    """
    lay = state.layout
    m_axis, r_axis = lay.axis(measured), lay.axis(recorder)
    dm, dr = lay.dims[m_axis], lay.dims[r_axis]
    if dr < dm + 1:
        raise ValueError(
            f"recorder {recorder!r} has dimension {dr}, needs >= {dm + 1} for {dm} outcomes")

    amps = state.tensor_amps
    off_ready = 1.0 - float(np.sum(np.abs(np.take(amps, 0, axis=r_axis)) ** 2))
    if off_ready > ATOL:
        raise PreconditionError(
            f"recorder {recorder!r} is not in its ready state (off-ready weight {off_ready:g})")

    bmat, _ = _basis_for(state, measured, basis)
    coupling = np.zeros((dm * dr, dm * dr), dtype=complex)
    for i in range(dm):
        projector = np.outer(bmat[:, i], bmat[:, i].conj())
        shift = np.roll(np.eye(dr), i + 1, axis=0)  # ready -> pointer_i, unitary on the rest
        coupling += np.kron(projector, shift)

    moved = np.moveaxis(amps, (m_axis, r_axis), (-2, -1))
    head = moved.shape[:-2]
    out = moved.reshape(-1, dm * dr) @ coupling.T
    out = np.moveaxis(out.reshape(head + (dm, dr)), (-2, -1), (m_axis, r_axis))
    return StateVector(lay, out.reshape(-1))


def branch_decompose(state: StateVector, contexts: dict) -> BranchDecomposition:
    """Expand a state into outcome-labeled branches for per-subsystem contexts.

    ``contexts`` maps subsystem names to a basis choice: an axis ("x", "y",
    "z" or an angle in the x-z plane), or None for the subsystem's own labels.
    Branches are returned in lexicographic outcome-label order; branches with
    weight below ``PRUNE_TOL`` are dropped.

    The branch amplitude is the complex coefficient whenever the branch picks
    out a single joint basis vector of the full space (always true when the
    contexts cover all subsystems, or when the remaining subsystems are
    perfectly correlated with the measured ones); otherwise it is the positive
    square root of the weight.
    """
    lay = state.layout
    names = [name for name in lay.names if name in contexts]
    if len(names) != len(contexts):
        unknown = set(contexts) - set(lay.names)
        raise KeyError(f"unknown subsystem names in contexts: {sorted(unknown)}")
    if not names:
        raise ValueError("contexts must list at least one subsystem")

    amps = state.tensor_amps
    out_labels: dict[str, tuple[str, ...]] = {}
    for name in names:
        bmat, labels = _basis_for(state, name, contexts[name])
        axis = lay.axis(name)
        amps = np.moveaxis(np.tensordot(amps, bmat.conj(), axes=([axis], [0])), -1, axis)
        out_labels[name] = labels

    # `names` follows layout order, so the surviving axes of the weight tensor
    # already line up with it after summing out the unmeasured subsystems.
    ctx_axes = tuple(lay.axis(name) for name in names)
    rest_axes = tuple(a for a in range(len(lay.dims)) if a not in ctx_axes)
    weights = np.abs(amps) ** 2
    if rest_axes:
        weights = weights.sum(axis=rest_axes)

    # Sorting every measured axis by label makes C order over the measured
    # axes the lexicographic order of the branch label tuples.
    amps = np.moveaxis(amps, ctx_axes, range(len(names)))
    sorted_labels = [sorted(out_labels[name]) for name in names]
    for k, name in enumerate(names):
        order = [out_labels[name].index(label) for label in sorted_labels[k]]
        weights, amps = np.take(weights, order, axis=k), np.take(amps, order, axis=k)
    weights = weights.reshape(-1)
    keep = weights >= PRUNE_TOL
    component = amps.reshape(weights.size, -1)[keep]
    big = np.abs(component) ** 2 >= PRUNE_TOL
    single = big.sum(axis=1) == 1
    picked = component[np.arange(len(component)), big.argmax(axis=1)]
    kept = weights[keep]
    amplitudes = np.where(single, picked, np.sqrt(kept))
    labels = itertools.compress(itertools.product(*sorted_labels), keep.tolist())
    # tuple.__new__ fills each row in C, where Branch(...) runs a Python __new__ per row
    branches = tuple(map(tuple.__new__, itertools.repeat(Branch),
                         zip(labels, amplitudes.tolist(), kept.tolist())))
    return BranchDecomposition(tuple(names), branches)


def _pauli_product(state: StateVector, axes: dict) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes as rows over the named qubits, and the matrix of the product of
    ``pauli(axis)`` over ``axes`` (qubit name -> axis), both in the map's order."""
    lay = state.layout
    if not_qubits := [name for name in axes if len(lay.labels(name)) != 2]:
        raise ValueError(f"a spin product acts on qubits, not on {not_qubits}")
    mat = np.array([[1.0 + 0j]])
    for name in axes:
        mat = np.kron(mat, pauli(axes[name]))
    moved = np.moveaxis(state.tensor_amps, [lay.axis(name) for name in axes], range(-len(axes), 0))
    return moved.reshape(-1, len(mat)), mat


def _mean(flat: np.ndarray, mat: np.ndarray) -> float:
    return float(np.vdot(flat, flat @ mat.T).real)


def expectation(state: StateVector, axes: dict) -> float:
    """<state|A|state> for the spin product A of one axis per named qubit,
    e.g. {"p1": "x", "p2": 45.0} for sigma_x^1 sigma_45^2."""
    return _mean(*_pauli_product(state, axes))


def variance(state: StateVector, axes: dict) -> float:
    """<A^2> - <A>^2 for the spin product ``expectation`` takes; zero (within
    tolerance) exactly on eigenstates."""
    flat, mat = _pauli_product(state, axes)
    return _mean(flat, mat @ mat) - _mean(flat, mat) ** 2


def partial_trace(state: StateVector, keep: str) -> DensityMatrix:
    """Reduced density matrix of one subsystem."""
    lay = state.layout
    axis = lay.axis(keep)
    moved = np.moveaxis(state.tensor_amps, axis, 0)
    flat = moved.reshape(lay.dims[axis], -1)
    return DensityMatrix(flat @ flat.conj().T)


# ---------------------------------------------------------------------------
# Distributions over branch outcomes


def conditional_distribution(decomp: BranchDecomposition, given: tuple[str, ...] | list[str],
                             target: tuple[str, ...] | list[str],
                             ) -> dict[tuple[str, ...], dict[tuple[str, ...], float]]:
    """P(target outcomes | given outcomes), normalized within each given class."""
    g_pos = [decomp.subsystems.index(name) for name in given]
    t_pos = [decomp.subsystems.index(name) for name in target]
    joint: dict[tuple[str, ...], dict[tuple[str, ...], float]] = {}
    for br in decomp.branches:
        g_key = tuple(br.labels[p] for p in g_pos)
        t_key = tuple(br.labels[p] for p in t_pos)
        row = joint.setdefault(g_key, {})
        row[t_key] = row.get(t_key, 0.0) + br.weight
    for g_key, row in joint.items():
        total = sum(row.values())
        joint[g_key] = {t_key: w / total for t_key, w in row.items()}
    return joint

