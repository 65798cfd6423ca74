"""Quantum core: states, premeasurement, branches, expectations, reduced states.

Derived expectations are checked against independent oracles written in this
module (full-matrix kron products and explicit partial-trace loops), not
against the code paths under test.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyminds.epr import EprConfig
from manyminds.minds import marginal_for
from manyminds.quantum import (
    ATOL,
    PRUNE_TOL,
    Branch,
    BranchDecomposition,
    DensityMatrix,
    NormalizationError,
    PreconditionError,
    StateVector,
    SubsystemLayout,
    axis_basis,
    axis_vector,
    branch_decompose,
    conditional_distribution,
    expectation,
    partial_trace,
    pauli,
    premeasure,
    ready_state,
    tensor,
    trace_distance,
    variance,
)
from manyminds.rng import RngSpec

SQ2 = 1.0 / math.sqrt(2.0)


def make_qubit_state(name, alpha, beta):
    """Single qubit alpha|+z> + beta|-z>, with labels ("+", "-")."""
    layout = SubsystemLayout(((name, ("+", "-")),))
    return StateVector(layout, np.array([alpha, beta], dtype=complex))


def amplitude(state, **labels_by_name):
    """Amplitude of the joint basis vector picked out by per-subsystem labels."""
    return complex(state.tensor_amps[tuple(labels.index(labels_by_name[name])
                                           for name, labels in state.layout.subsystems)])


def singlet():
    layout = SubsystemLayout((("p1", ("+", "-")), ("p2", ("+", "-"))))
    return StateVector(layout, np.array([0, SQ2, -SQ2, 0], dtype=complex))


def ghz():
    layout = SubsystemLayout((("p1", ("+", "-")), ("p2", ("+", "-")), ("p3", ("+", "-"))))
    amps = np.zeros(8, dtype=complex)
    amps[0], amps[7] = SQ2, -SQ2
    return StateVector(layout, amps)


# Independent oracles -------------------------------------------------------

def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def sigma_oracle(axis):
    """sigma.n from the literal Pauli matrices and the axis' unit vector."""
    n = axis_vector(axis)
    return (n[0] * np.array([[0, 1], [1, 0]]) + n[1] * np.array([[0, -1j], [1j, 0]])
            + n[2] * np.array([[1, 0], [0, -1]]))


def expectation_oracle(state, mats):
    """<psi|M|psi> via an explicitly assembled full matrix."""
    full = kron_chain(mats)
    return np.vdot(state.amps, full @ state.amps)


def partial_trace_oracle(state, keep_axis):
    """Reduced matrix by direct summation over the traced-out joint basis."""
    dims = state.layout.dims
    amps = state.amps.reshape(dims)
    d = dims[keep_axis]
    rho = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            sl_i = [slice(None)] * len(dims)
            sl_j = [slice(None)] * len(dims)
            sl_i[keep_axis], sl_j[keep_axis] = i, j
            rho[i, j] = np.sum(amps[tuple(sl_i)] * amps[tuple(sl_j)].conj())
    return rho


def branches_oracle(state, contexts):
    """Branch list from a per-entry loop over the contracted amplitude tensor,
    sorted by labels afterwards."""
    lay = state.layout
    names = [name for name in lay.names if name in contexts]
    amps = state.tensor_amps
    out_labels = {}
    for name in names:
        basis, labels = contexts[name], lay.labels(name)
        if basis is None:
            bmat = np.eye(len(labels), dtype=complex)
        else:
            bmat, labels = axis_basis(basis), ("+", "-")
        axis = lay.axis(name)
        amps = np.moveaxis(np.tensordot(amps, bmat.conj(), axes=([axis], [0])), -1, axis)
        out_labels[name] = labels
    ctx_axes = tuple(lay.axis(name) for name in names)
    rest_axes = tuple(a for a in range(len(lay.dims)) if a not in ctx_axes)
    weights = np.abs(amps) ** 2
    if rest_axes:
        weights = weights.sum(axis=rest_axes)
    branches = []
    for idx in np.ndindex(weights.shape):
        w = float(weights[idx])
        if w < PRUNE_TOL:
            continue
        slicer = [slice(None)] * amps.ndim
        for axis, i in zip(ctx_axes, idx):
            slicer[axis] = i
        component = np.asarray(amps[tuple(slicer)]).reshape(-1)
        nonzero = np.flatnonzero(np.abs(component) ** 2 >= PRUNE_TOL)
        amp = complex(component[nonzero[0]]) if len(nonzero) == 1 else complex(math.sqrt(w))
        labels = tuple(out_labels[name][i] for name, i in zip(names, idx))
        branches.append(Branch(labels, amp, w))
    branches.sort(key=lambda br: br.labels)
    return branches


# Construction ---------------------------------------------------------------

def test_make_qubit_state_basis_states():
    st = make_qubit_state("s", 1, 0)
    assert np.allclose(st.amps, [1, 0])
    assert st.layout.labels("s") == ("+", "-")


def test_make_qubit_state_plus_x_convention():
    st = make_qubit_state("s", SQ2, SQ2)
    assert np.allclose(st.amps, axis_basis("x")[:, 0])


def test_make_qubit_state_born_weights():
    # |0.6|^2 = 0.36 and |0.8|^2 = 0.64 by hand
    st = make_qubit_state("s", 0.6, 0.8)
    decomp = branch_decompose(st, {"s": "z"})
    assert decomp.joint_distribution() == pytest.approx({("+",): 0.36, ("-",): 0.64})


def test_make_qubit_state_rejects_non_normalized():
    with pytest.raises(NormalizationError):
        make_qubit_state("s", 1.0, 0.5)


def test_state_vector_rejects_nan():
    layout = SubsystemLayout((("s", ("+", "-")),))
    with pytest.raises(NormalizationError):
        StateVector(layout, np.array([np.nan, 0.0]))


# -45 and 200 degrees point into the -x half of the plane, where the half-angle's
# cosine or sine is negative
@pytest.mark.parametrize("axis", ["x", "y", "z", 30.0, pytest.param(-45.0, id="axis4"),
                                  pytest.param(200.0, id="axis5")])
def test_axis_basis_diagonalizes_spin_observable(axis):
    bmat = axis_basis(axis)
    sigma = pauli(axis)
    assert np.allclose(sigma @ bmat[:, 0], bmat[:, 0], atol=1e-12)
    assert np.allclose(sigma @ bmat[:, 1], -bmat[:, 1], atol=1e-12)
    assert np.allclose(bmat.conj().T @ bmat, np.eye(2), atol=1e-12)


def test_named_axis_conventions():
    assert np.allclose(axis_basis("x"), np.array([[1, 1], [1, -1]]) * SQ2)
    assert np.allclose(axis_basis("y"), np.array([[1, 1], [1j, -1j]]) * SQ2)
    # an angle that equals a named axis snaps to the same convention
    assert np.array_equal(axis_basis(90.0), axis_basis("x"))
    assert np.array_equal(axis_basis(0.0), axis_basis("z"))


def test_axis_vector_rejects_non_unit():
    with pytest.raises(ValueError):
        axis_vector((1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        axis_vector((0.0, 0.0, 1.0))


@pytest.mark.parametrize("refused", [(0, 0, 1), np.array([0.0, 0.0, 1.0]), np.eye(2),
                                     np.eye(3), "w", True, np.bool_(True),
                                     pytest.param(10**400, id="10**400")])
def test_only_names_and_angles_are_axes(refused):
    # every entry point that takes an axis or a basis refuses 3-vectors, matrices
    # and numbers too large for a float
    qubit = tensor([make_qubit_state("s", 1, 0), ready_state("m", ("+", "-"))])
    for call in (lambda: axis_vector(refused), lambda: axis_basis(refused),
                 lambda: pauli(refused), lambda: premeasure(qubit, "s", refused, "m"),
                 lambda: branch_decompose(qubit, {"s": refused}),
                 lambda: branch_decompose(ready_state("q", ("a", "b")), {"q": refused}),
                 lambda: expectation(qubit, {"s": refused}),
                 lambda: EprConfig(RngSpec(1), alice_axis=refused),
                 lambda: EprConfig(RngSpec(1), bob_axis=refused)):
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("angle", [np.int64(45), np.uint8(45), np.float64(45), np.float32(45)])
def test_numpy_numbers_are_angles(angle):
    # np.int64 is no int subclass, and was refused while np.float64 was taken
    assert np.array_equal(axis_vector(angle), axis_vector(45))
    assert np.array_equal(axis_basis(angle), axis_basis(45))


def test_tensor_product_amplitude():
    st = tensor([make_qubit_state("s", 1, 0), ready_state("m", ("+", "-"))])
    assert amplitude(st, s="+", m="ready") == pytest.approx(1.0)
    assert st.layout.names == ("s", "m")


def test_tensor_name_collision():
    with pytest.raises(ValueError, match="duplicate subsystem names"):
        tensor([make_qubit_state("s", 1, 0), make_qubit_state("s", 0, 1)])


def test_tensor_epr_premeasurement_state_norm():
    st = tensor([singlet(), ready_state("ma", ("+", "-")), ready_state("mb", ("+", "-"))])
    assert st.layout.dim == 4 * 3 * 3
    assert sum(abs(a) ** 2 for a in st.amps) == pytest.approx(1.0, abs=1e-12)


# Premeasurement -------------------------------------------------------------

def test_premeasure_copies_spin_into_pointer():
    alpha, beta = 0.6, 0.8
    st = tensor([make_qubit_state("s", alpha, beta), ready_state("m", ("+", "-"))])
    measured = premeasure(st, "s", "z", "m")
    assert amplitude(measured, s="+", m="+") == pytest.approx(alpha)
    assert amplitude(measured, s="-", m="-") == pytest.approx(beta)
    assert amplitude(measured, s="+", m="-") == pytest.approx(0.0)
    assert amplitude(measured, s="+", m="ready") == pytest.approx(0.0)


def test_premeasure_chain_to_brain_state():
    # spin -> pointer -> brain leaves a two-branch state with the original
    # coefficients carried through both records
    alpha, beta = 0.6, 0.8
    st = tensor([
        make_qubit_state("s", alpha, beta),
        ready_state("m", ("+", "-")),
        ready_state("o", ("none", "+", "-")),
    ])
    st = premeasure(st, "s", "z", "m")
    st = premeasure(st, "m", None, "o")
    assert amplitude(st, s="+", m="+", o="+") == pytest.approx(alpha)
    assert amplitude(st, s="-", m="-", o="-") == pytest.approx(beta)
    decomp = branch_decompose(st, {"s": "z", "m": None, "o": None})
    assert len(decomp.branches) == 2


def test_premeasure_deterministic_outcome_stays_product():
    st = tensor([make_qubit_state("s", 1, 0), ready_state("m", ("+", "-"))])
    measured = premeasure(st, "s", "z", "m")
    decomp = branch_decompose(measured, {"s": "z", "m": None})
    assert len(decomp.branches) == 1
    assert decomp.branches[0].weight == pytest.approx(1.0)
    rho = partial_trace(measured, "s")
    assert np.allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-12)


def test_premeasure_requires_ready_recorder():
    st = tensor([make_qubit_state("s", SQ2, SQ2), ready_state("m", ("+", "-"))])
    once = premeasure(st, "s", "z", "m")
    with pytest.raises(PreconditionError):
        premeasure(once, "s", "x", "m")


def test_premeasure_requires_large_enough_recorder():
    st = tensor([ready_state("big", ("a", "b", "c")), ready_state("m", ("+", "-"))])
    with pytest.raises(ValueError, match="dimension"):
        premeasure(st, "big", None, "m")


@pytest.mark.parametrize("seed", range(5))
def test_premeasure_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2) + 1j * rng.normal(size=2)
    raw /= np.linalg.norm(raw)
    st = tensor([make_qubit_state("s", *raw), ready_state("m", ("+", "-"))])
    axis = rng.uniform(0, 180)
    out = premeasure(st, "s", axis, "m")
    assert sum(abs(a) ** 2 for a in out.amps) == pytest.approx(1.0, abs=1e-9)


# Branch decomposition -------------------------------------------------------

def test_singlet_both_z_two_branches_with_signs():
    decomp = branch_decompose(singlet(), {"p1": "z", "p2": "z"})
    assert [br.labels for br in decomp.branches] == [("+", "-"), ("-", "+")]
    assert [br.weight for br in decomp.branches] == pytest.approx([0.5, 0.5])
    assert decomp.branches[0].amplitude == pytest.approx(SQ2)
    assert decomp.branches[1].amplitude == pytest.approx(-SQ2)


def test_ghz_all_x_four_branches():
    decomp = branch_decompose(ghz(), {"p1": "x", "p2": "x", "p3": "x"})
    assert [br.labels for br in decomp.branches] == [
        ("+", "+", "-"), ("+", "-", "+"), ("-", "+", "+"), ("-", "-", "-")]
    for br in decomp.branches:
        assert br.weight == pytest.approx(0.25, abs=1e-12)


def test_single_branch_for_eigenstate():
    decomp = branch_decompose(make_qubit_state("s", 1, 0), {"s": "z"})
    assert len(decomp.branches) == 1
    assert decomp.branches[0] == Branch(("+",), decomp.branches[0].amplitude, decomp.branches[0].weight)
    assert decomp.branches[0].weight == pytest.approx(1.0)


def test_branch_decompose_unknown_observer():
    with pytest.raises(KeyError):
        branch_decompose(singlet(), {"p1": "z", "nope": "z"})


@pytest.mark.parametrize("seed", range(4))
def test_branch_weights_sum_to_one(seed):
    rng = np.random.default_rng(100 + seed)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    raw /= np.linalg.norm(raw)
    layout = SubsystemLayout((("p1", ("+", "-")), ("p2", ("+", "-"))))
    st = StateVector(layout, raw)
    decomp = branch_decompose(st, {"p1": rng.uniform(0, 180), "p2": rng.uniform(0, 180)})
    assert sum(br.weight for br in decomp.branches) == pytest.approx(1.0, abs=1e-9)
    for br in decomp.branches:
        assert abs(br.amplitude) ** 2 == pytest.approx(br.weight, abs=1e-9)


def recorder_states(seed):
    """A random state with a three-level recorder whose "ready" label sorts
    last, and a premeasured state in which most entries are exactly zero."""
    rng = np.random.default_rng(200 + seed)
    layout = SubsystemLayout((("q0", ("+", "-")), ("rec", ("ready", "+", "-")),
                              ("q1", ("+", "-")), ("q2", ("+", "-"))))
    raw = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    full = StateVector(layout, raw / np.linalg.norm(raw))
    qubits = rng.normal(size=8) + 1j * rng.normal(size=8)
    three = StateVector(SubsystemLayout(tuple((f"q{i}", ("+", "-")) for i in range(3))),
                        qubits / np.linalg.norm(qubits))
    measured = premeasure(tensor([three, ready_state("rec", ("+", "-"))]), "q1", "x", "rec")
    return rng, full, measured


@pytest.mark.parametrize("seed", range(3))
def test_branch_lists_match_oracle(seed):
    rng, full, measured = recorder_states(seed)
    cases = [
        (full, {"q0": "x", "rec": None, "q1": rng.uniform(0, 180), "q2": "y"}),
        (full, {"rec": None}),
        (full, {"q2": "z", "rec": None, "q1": "x"}),
        (full, {"q0": "y", "q2": math.degrees(math.asin(0.6))}),
        (measured, {"q1": "x", "rec": None}),
        (measured, {"rec": None}),
        (measured, {"q0": "z", "q1": "x", "q2": "z", "rec": None}),
    ]
    for state, contexts in cases:
        got = branch_decompose(state, contexts).branches
        assert list(got) == branches_oracle(state, contexts)
    assert [br.labels for br in branch_decompose(full, {"rec": None}).branches] == [
        ("+",), ("-",), ("ready",)]


def test_marginal_and_conditional_distributions():
    decomp = branch_decompose(singlet(), {"p1": "z", "p2": "z"})
    assert marginal_for(decomp, "p1") == pytest.approx({"+": 0.5, "-": 0.5})
    cond = conditional_distribution(decomp, ["p1"], ["p2"])
    assert cond[("+",)] == pytest.approx({("-",): 1.0})
    assert cond[("-",)] == pytest.approx({("+",): 1.0})


@st.composite
def states_and_contexts(draw):
    """A random state on 1-4 subsystems of dimension 1-3, some amplitudes exactly
    zero, with contexts on a non-empty subset: an axis or None on a qubit, None
    elsewhere."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    layout = SubsystemLayout(tuple(
        (f"s{i}", tuple(draw(st.permutations(("-", "ready", "+")[:d]))))
        for i, d in enumerate(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    raw[np.array(draw(st.lists(st.booleans(), min_size=layout.dim, max_size=layout.dim)))] = 0
    if not raw.any():
        raw[0] = 1.0
    state = StateVector(layout, raw / np.linalg.norm(raw))
    names = draw(st.lists(st.sampled_from(layout.names), min_size=1, unique=True))
    axes = st.one_of(st.none(), st.sampled_from("xyz"), st.floats(-720, 720))
    contexts = {name: draw(axes) if dims[layout.axis(name)] == 2 else None for name in names}
    return state, contexts


@settings(max_examples=300, deadline=None)
@given(case=states_and_contexts())
def test_branch_rows_are_branches_equal_to_the_oracle(case):
    state, contexts = case
    got = branch_decompose(state, contexts).branches
    assert all(type(row) is Branch for row in got)
    assert list(got) == branches_oracle(state, contexts)


def test_branch_rows_are_read_only_named_tuples():
    row = branch_decompose(singlet(), {"p1": "z", "p2": "z"}).branches[0]
    for name in ("labels", "amplitude", "weight"):
        with pytest.raises(AttributeError):
            setattr(row, name, row[0])
    labels, amplitude, weight = row
    assert row == (("+", "-"), amplitude, weight)
    assert repr(row) == f"Branch(labels=('+', '-'), amplitude={amplitude!r}, weight={weight!r})"


@pytest.mark.parametrize("amplitude, weight", [
    (math.nan, math.nan), (1.0, math.nan), (math.nan, 0.0), (math.inf, math.inf),
    (complex(0.0, math.inf), math.inf), (0.0, -math.inf), (1e200, 1.0)])
def test_decomposition_refuses_a_non_finite_branch_by_name(amplitude, weight):
    good, bad = Branch(("+",), 1.0, 1.0), Branch(("-",), amplitude, weight)
    for branches in ((bad,), (good, bad), (good, bad, Branch(("0",), math.nan, 1.0))):
        with pytest.raises(ValueError, match=r"^branch \('-',\): weight"):
            BranchDecomposition(("a",), branches)


def branch_ok(branch) -> bool:
    """The construction check on one branch, in plain Python."""
    return (cmath.isfinite(branch.amplitude) and math.isfinite(branch.weight)
            and abs(abs(branch.amplitude) ** 2 - branch.weight) <= ATOL)


# Each keeps a branch's error far from ATOL, so the reference and the
# vectorized check cannot round to different sides of it.
ROW_EDITS = {
    "none": lambda a, w: (a, w),
    "weight +1e-12": lambda a, w: (a, w + 1e-12),
    "weight -1e-6": lambda a, w: (a, w - 1e-6),
    "weight +0.25": lambda a, w: (a, w + 0.25),
    "nan weight": lambda a, w: (a, math.nan),
    "nan amplitude": lambda a, w: (complex(math.nan, a.imag), w),
    "inf both": lambda a, w: (complex(a.real, math.inf), math.inf),
    "-inf weight": lambda a, w: (a, -math.inf),
}


@settings(max_examples=500, deadline=None)
@given(shares=st.lists(st.floats(0.01, 1.0), max_size=6), data=st.data(),
       scale=st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-6, 0.5, 2.0]))
def test_decomposition_accepts_exactly_what_the_reference_accepts(shares, data, scale):
    total = math.fsum(shares)
    rows = []
    for i, share in enumerate(shares):
        phase = data.draw(st.floats(0.0, 2 * math.pi))
        weight = share / total * scale
        edit = ROW_EDITS[data.draw(st.sampled_from(sorted(ROW_EDITS)))]
        amplitude, weight = edit(cmath.rect(math.sqrt(weight), phase), weight)
        rows.append(Branch((str(i),), amplitude, weight))
    bad = [row.labels[0] for row in rows if not branch_ok(row)]
    if bad:
        with pytest.raises(ValueError, match=rf"^branch \('{bad[0]}',\): weight"):
            BranchDecomposition(("a",), tuple(rows))
    elif abs(math.fsum(row.weight for row in rows) - 1.0) <= ATOL:
        assert BranchDecomposition(("a",), tuple(rows)).branches == tuple(rows)
    else:
        with pytest.raises(NormalizationError, match="^branch weights sum to"):
            BranchDecomposition(("a",), tuple(rows))


# Expectations ---------------------------------------------------------------

def test_ghz_scenario_expectations():
    state = ghz()
    table = {
        ("x", "x", "x"): -1.0,
        ("x", "y", "y"): 1.0,
        ("y", "x", "y"): 1.0,
        ("y", "y", "x"): 1.0,
    }
    for axes, want in table.items():
        obs = dict(zip(("p1", "p2", "p3"), axes))
        assert expectation(state, obs) == pytest.approx(want, abs=1e-12)
        assert variance(state, obs) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("theta_deg", [0, 30, 45, 60, 90, 120, 180])
def test_singlet_correlation_minus_cosine(theta_deg):
    state = singlet()
    got = expectation(state, {"p1": "z", "p2": float(theta_deg)})
    # oracle: full matrix assembled independently
    want = expectation_oracle(state, [sigma_oracle("z"), sigma_oracle(float(theta_deg))])
    assert got == pytest.approx(want.real, abs=1e-12)
    assert got == pytest.approx(-math.cos(math.radians(theta_deg)), abs=1e-12)


def test_singlet_local_expectation_zero():
    assert expectation(singlet(), {"p1": "z"}) == pytest.approx(0.0, abs=1e-12)


def test_expectation_on_embedded_subsystems():
    st = tensor([singlet(), ready_state("m", ("+", "-"))])
    assert expectation(st, {"p1": "z", "p2": "z"}) == pytest.approx(-1.0, abs=1e-12)


def test_spin_product_refuses_a_subsystem_that_is_not_a_qubit():
    st = tensor([singlet(), ready_state("m", ("+", "-"))])  # m has dimension 3
    for call in (expectation, variance):
        with pytest.raises(ValueError, match=r"acts on qubits, not on \['m'\]"):
            call(st, {"p1": "z", "m": "z"})


@st.composite
def qubits_and_axes(draw):
    """A random state of 1-4 qubits and an axis for a random subset of them,
    named in random order, so a map's order differs from the layout's."""
    n = draw(st.integers(1, 4))
    layout = SubsystemLayout(tuple((f"q{i}", ("+", "-")) for i in range(n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    names = draw(st.permutations(layout.names))[:draw(st.integers(0, n))]
    axis = st.one_of(st.sampled_from("xyz"), st.floats(-720, 720))
    return StateVector(layout, raw / np.linalg.norm(raw)), {name: draw(axis) for name in names}


@settings(max_examples=150, deadline=None)
@given(case=qubits_and_axes())
def test_spin_product_matches_full_matrix_oracle(case):
    state, axes = case
    mats = [sigma_oracle(axes[name]) if name in axes else np.eye(2) for name in state.layout.names]
    mean = expectation_oracle(state, mats).real
    full = kron_chain(mats)
    assert expectation(state, axes) == pytest.approx(mean, abs=1e-12)
    assert variance(state, axes) == pytest.approx(
        np.vdot(state.amps, full @ full @ state.amps).real - mean ** 2, abs=1e-12)


# Reduced states -------------------------------------------------------------

def test_singlet_reduced_state_is_maximally_mixed():
    rho = partial_trace(singlet(), "p1")
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(rho.matrix, partial_trace_oracle(singlet(), 0), atol=1e-12)


@pytest.mark.parametrize("bob_axis", ["z", "x", 45.0])
def test_no_signaling_across_remote_axes(bob_axis):
    st = tensor([singlet(), ready_state("mb", ("+", "-"))])
    after = premeasure(st, "p2", bob_axis, "mb")
    before_rho = partial_trace(st, "p1")
    after_rho = partial_trace(after, "p1")
    assert trace_distance(before_rho, after_rho) < 1e-9


def test_partial_trace_recovers_pure_factor():
    st = tensor([make_qubit_state("a", 1, 0), make_qubit_state("b", SQ2, SQ2)])
    rho = partial_trace(st, "a")
    assert np.allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-12)
    rho_b = partial_trace(st, "b")
    assert np.allclose(rho_b.matrix, np.full((2, 2), 0.5), atol=1e-12)


def test_partial_trace_matches_oracle_on_entangled_state():
    st = tensor([ghz(), ready_state("m", ("+", "-"))])
    st = premeasure(st, "p2", "x", "m")
    for name in ("p1", "m"):
        rho = partial_trace(st, name)
        assert np.allclose(rho.matrix, partial_trace_oracle(st, st.layout.axis(name)), atol=1e-12)


def test_partial_trace_unknown_subsystem():
    with pytest.raises(KeyError):
        partial_trace(singlet(), "nope")


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))

