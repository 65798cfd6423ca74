"""Constraint table, 64-assignment contradiction, cells, and sign flips."""
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from manyminds import cli
from manyminds.ghz import (
    FLIP_CANDIDATES,
    OBSERVERS,
    Scenario,
    SCENARIOS,
    ScenarioSample,
    all_cells,
    allowed_triples,
    enumerate_local_assignments,
    ghz_state,
    missing_witness_count,
    pigeonhole_report,
    sign_flip_witness,
    sign_flip_witnesses,
    simulate_scenarios,
    verify_constraints,
)
from manyminds.quantum import branch_decompose, make_qubit_state, tensor
from manyminds.rng import RngSpec

SIGNIFICANCE = 1e-4

# the worked example: one allowed triple per scenario, alice/bob/carol order
EXAMPLE_CELL_TRIPLES = (
    ("-", "+", "+"),
    ("-", "+", "-"),
    ("-", "-", "+"),
    ("+", "+", "+"),
)
# its allowed-triple index per scenario (lexicographic order), and its cell id
EXAMPLE_ROW = (2, 2, 3, 0)
EXAMPLE_CELL_ID = ((2 * 4 + 2) * 4 + 3) * 4 + 0


def decode(row):
    """Sign-triples of one index row, through the public allowed-triple lists."""
    return tuple(allowed_triples(scen).triples[k] for scen, k in zip(SCENARIOS, row))


def label_witnesses(row):
    """Reference: flip candidates found by comparing sign labels one by one."""
    triples = decode(row)

    def sign(observer, scen):
        return triples[scen.index - 1][OBSERVERS.index(observer)]

    return tuple((observer, pair) for observer, pair in FLIP_CANDIDATES
                 if sign(observer, pair[0]) != sign(observer, pair[1]))


def band(p, n, sigmas=4):
    return sigmas * math.sqrt(p * (1 - p) / n)


def gf2_solution_count(constraint_ids):
    """Independent oracle: the constraints as parity equations over GF(2).

    Variables (x1, y1, x2, y2, x3, y3) with +1 -> 0, -1 -> 1; a product
    constraint becomes an XOR equation. Solution count is 2^(6 - rank) when
    consistent, else 0.
    """
    rows = {
        1: ([1, 0, 1, 0, 1, 0], 1),
        2: ([1, 0, 0, 1, 0, 1], 0),
        3: ([0, 1, 1, 0, 0, 1], 0),
        4: ([0, 1, 0, 1, 1, 0], 0),
    }
    mat = [rows[j][0][:] + [rows[j][1]] for j in constraint_ids]
    rank = 0
    for col in range(6):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [a ^ b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    for row in mat:
        if not any(row[:6]) and row[6]:
            return 0
    return 2 ** (6 - rank)


class TestState:
    def test_z_amplitudes_and_norm(self):
        g = ghz_state()
        assert g.amplitude(p1="+", p2="+", p3="+") == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert g.amplitude(p1="-", p2="-", p3="-") == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert g.amplitude(p1="+", p2="-", p3="+") == 0
        assert np.sum(np.abs(g.amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_single_particle_marginal(self):
        dist = branch_decompose(ghz_state(), {"p1": None}).joint_distribution()
        assert dist[("+",)] == pytest.approx(0.5, abs=1e-9)
        assert dist[("-",)] == pytest.approx(0.5, abs=1e-9)


class TestConstraints:
    def test_eigenstate_table(self):
        table = verify_constraints(ghz_state())
        want = {Scenario.XXX: -1.0, Scenario.XYY: 1.0,
                Scenario.YXY: 1.0, Scenario.YYX: 1.0}
        for scen, (exp, var) in table.items():
            assert abs(exp - want[scen]) < 1e-9
            assert abs(var) < 1e-9

    def test_product_state_is_not_an_eigenstate(self):
        plus = tensor([make_qubit_state(p, 1, 0) for p in ("p1", "p2", "p3")])
        table = verify_constraints(plus)
        exp, var = table[Scenario.XXX]
        assert exp == pytest.approx(0.0, abs=1e-12)
        assert var > 0.5

    def test_global_phase_invariance(self):
        g = ghz_state()
        flipped = type(g)(g.layout, -g.amps)
        assert verify_constraints(flipped) == verify_constraints(g)

    def test_wrong_shape_rejected(self):
        two = tensor([make_qubit_state("p1", 1, 0), make_qubit_state("p2", 1, 0)])
        with pytest.raises(ValueError, match="three-qubit"):
            verify_constraints(two)


class TestPartitions:
    def test_all_x_partition(self):
        part = allowed_triples(Scenario.XXX)
        assert part.triples == (("+", "+", "-"), ("+", "-", "+"),
                                ("-", "+", "+"), ("-", "-", "-"))

    def test_one_x_partitions(self):
        for scen in (Scenario.XYY, Scenario.YXY, Scenario.YYX):
            part = allowed_triples(scen)
            assert part.triples == (("+", "+", "+"), ("+", "-", "-"),
                                    ("-", "+", "-"), ("-", "-", "+"))
            assert ("+", "+", "+") in part.triples

    def test_products_match_eigenvalue_and_disjoint(self):
        for scen in SCENARIOS:
            part = allowed_triples(scen)
            assert len(set(part.triples)) == 4
            for t in part.triples:
                prod = math.prod(1 if s == "+" else -1 for s in t)
                assert prod == scen.eigenvalue

    def test_partition_is_pure_function_of_scenario(self):
        for scen in SCENARIOS:
            assert allowed_triples(scen) == allowed_triples(scen)

    def test_branch_weights_quarter_each(self):
        decomp = branch_decompose(ghz_state(), {"p1": "x", "p2": "x", "p3": "x"})
        dist = decomp.joint_distribution()
        assert set(dist) == set(allowed_triples(Scenario.XXX).triples)
        for triple, w in dist.items():
            assert w == pytest.approx(0.25, abs=1e-9)
        for br in decomp.branches:
            assert br.amplitude == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("scen", SCENARIOS)
    def test_every_scenario_decomposes_onto_its_partition(self, scen):
        axes = dict(zip(("p1", "p2", "p3"), scen.axes))
        dist = branch_decompose(ghz_state(), axes).joint_distribution()
        assert set(dist) == set(allowed_triples(scen).triples)
        assert all(abs(w - 0.25) < 1e-9 for w in dist.values())


class TestEnumeration:
    def test_no_assignment_satisfies_all_four(self):
        total, count, witnesses = enumerate_local_assignments()
        assert (total, count, witnesses) == (64, 0, [])

    def test_matches_parity_oracle(self):
        for k in (1, 2, 3, 4):
            for subset in itertools.combinations((1, 2, 3, 4), k):
                _, count, _ = enumerate_local_assignments(subset)
                assert count == gf2_solution_count(subset), subset

    def test_any_three_constraints_leave_eight(self):
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            _, count, witnesses = enumerate_local_assignments(subset)
            assert count == 8
            assert len(witnesses) == 8

    def test_all_plus_violates_all_x(self):
        _, _, witnesses = enumerate_local_assignments((1,))
        assert (1, 1, 1, 1, 1, 1) not in witnesses

    def test_bad_constraint_ids(self):
        with pytest.raises(ValueError):
            enumerate_local_assignments((0, 5))


class TestCells:
    def test_example_cell_witnesses_and_id(self):
        assert decode(EXAMPLE_ROW) == EXAMPLE_CELL_TRIPLES
        assert ScenarioSample([EXAMPLE_ROW]).cell_ids().tolist() == [EXAMPLE_CELL_ID]
        assert EXAMPLE_CELL_ID == 172
        assert tuple(all_cells()[EXAMPLE_CELL_ID]) == EXAMPLE_ROW
        witnesses = sign_flip_witnesses(EXAMPLE_ROW)
        pairs = {(w.observer, w.scenarios) for w in witnesses}
        assert ("bob", (Scenario.XXX, Scenario.YXY)) in pairs
        assert ("carol", (Scenario.XYY, Scenario.YXY)) in pairs
        first = sign_flip_witness(EXAMPLE_ROW)
        assert (first.observer, first.scenarios) == ("alice", (Scenario.YXY, Scenario.YYX))

    def test_disallowed_triple_rejected(self):
        # a disallowed triple has no index; indices outside 0..3 are refused
        assert ("+", "+", "+") not in allowed_triples(Scenario.XXX).triples
        for bad in (4, -1, 260):
            with pytest.raises(ValueError, match="0..3"):
                ScenarioSample([(bad,) + EXAMPLE_ROW[1:]])
            with pytest.raises(ValueError, match="0..3"):
                sign_flip_witnesses((bad,) + EXAMPLE_ROW[1:])

    def test_cells_differ_when_one_scenario_differs(self):
        other = (EXAMPLE_ROW[0], 3) + EXAMPLE_ROW[2:]
        ids = ScenarioSample([EXAMPLE_ROW, other]).cell_ids()
        assert ids[0] != ids[1]

    def test_256_distinct_cells_round_trip(self):
        cells = all_cells()
        assert cells.shape == (256, 4)
        assert ScenarioSample(cells).cell_ids().tolist() == list(range(256))
        for row in cells:
            again = tuple(allowed_triples(scen).triples.index(t)
                          for scen, t in zip(SCENARIOS, decode(row)))
            assert again == tuple(row)

    def test_id_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ScenarioSample(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="shape"):
            ScenarioSample(np.zeros(4, dtype=int))
        with pytest.raises(ValueError, match="per scenario"):
            sign_flip_witnesses(EXAMPLE_ROW[:3])


class TestSimulation:
    def test_each_scenario_uniform_over_allowed(self):
        n = 100000
        sample = simulate_scenarios(n, RngSpec(51))
        for scen in SCENARIOS:
            counts = sample.triple_counts(scen)
            assert counts.sum() == n
            for c in counts:
                assert abs(c / n - 0.25) <= band(0.25, n)

    def test_observer_marginals_half(self):
        sample = simulate_scenarios(50000, RngSpec(52))
        for scen in SCENARIOS:
            for obs in ("alice", "bob", "carol"):
                assert abs(sample.plus_fraction(obs, scen) - 0.5) <= band(0.5, 50000)

    def test_scenario_draws_independent(self):
        sample = simulate_scenarios(40000, RngSpec(54))
        table = np.zeros((4, 4), dtype=int)
        np.add.at(table, (sample.indices[:, 0], sample.indices[:, 1]), 1)
        assert stats.chi2_contingency(table).pvalue > SIGNIFICANCE

    def test_deterministic(self):
        a = simulate_scenarios(1000, RngSpec(55))
        b = simulate_scenarios(1000, RngSpec(55))
        assert a == b

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate_scenarios(0, RngSpec(1))


class TestPigeonhole:
    def test_uniform_cells_within_band(self):
        n = 200000
        report = pigeonhole_report(simulate_scenarios(n, RngSpec(56)))
        assert report.nonempty_cells == 256
        assert report.max_frequency >= 1 / 256
        p = 1 / 256
        tol = band(p, n)
        for cell_id in range(256):
            assert abs(float(report.frequency(cell_id)) - p) <= tol

    def test_single_outcome(self):
        report = pigeonhole_report(ScenarioSample([EXAMPLE_ROW]))
        assert report.max_frequency == 1
        assert report.max_cell_id == EXAMPLE_CELL_ID

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pigeonhole_report(ScenarioSample(np.zeros((0, 4), dtype=int)))

    def test_csv_export(self, tmp_path):
        out = tmp_path / "cells.csv"
        assert cli.main(["ghz", "--minds", "1000", "--seed", "57", "--format", "csv",
                         "--out", str(out)]) == 0
        lines = [l for l in out.read_text().strip().splitlines() if not l.startswith("# ")]
        assert lines[0] == "cell_id,count,frequency"
        assert len(lines) == 257


class TestSignFlips:
    def test_candidate_pairs_share_axis(self):
        for observer, pair in FLIP_CANDIDATES:
            idx = ("alice", "bob", "carol").index(observer)
            assert pair[0].axes[idx] == pair[1].axes[idx]

    def test_candidate_order(self):
        # sign_flip_witness returns the first witness in this order
        assert FLIP_CANDIDATES == (
            ("alice", (Scenario.XXX, Scenario.XYY)),
            ("alice", (Scenario.YXY, Scenario.YYX)),
            ("bob", (Scenario.XXX, Scenario.YXY)),
            ("bob", (Scenario.XYY, Scenario.YYX)),
            ("carol", (Scenario.XXX, Scenario.YYX)),
            ("carol", (Scenario.XYY, Scenario.YXY)),
        )

    def test_every_cell_has_a_witness(self):
        for row in all_cells():
            assert len(sign_flip_witnesses(row)) >= 1

    def test_sampled_triples_always_witnessed(self):
        sample = simulate_scenarios(100000, RngSpec(58))
        assert missing_witness_count(sample) == 0

    def test_vectorized_agrees_with_per_outcome(self):
        for sample in (ScenarioSample(all_cells()), simulate_scenarios(200, RngSpec(59))):
            per_outcome = sum(1 for row in sample.indices if not sign_flip_witnesses(row))
            by_labels = sum(1 for row in sample.indices if not label_witnesses(row))
            assert missing_witness_count(sample) == per_outcome == by_labels

    def test_index_witnesses_match_label_reference(self):
        for row in all_cells():
            found = tuple((w.observer, w.scenarios) for w in sign_flip_witnesses(row))
            assert found == label_witnesses(row)

    def test_witness_table_covers_all_cells(self):
        rows = [sign_flip_witness(row) for row in all_cells()]
        assert len(rows) == 256
        for w in rows:
            assert w.observer in ("alice", "bob", "carol")
            assert w.axis in ("x", "y")


class TestScenarioMeta:
    def test_axes_spell_the_name(self):
        assert Scenario.XXX.axes == ("x", "x", "x")
        assert Scenario.XYY.axes == ("x", "y", "y")
        assert Scenario.YXY.axes == ("y", "x", "y")
        assert Scenario.YYX.axes == ("y", "y", "x")

    def test_eigenvalues(self):
        assert Scenario.XXX.eigenvalue == -1
        assert all(s.eigenvalue == 1 for s in SCENARIOS[1:])

    def test_indices(self):
        assert [s.index for s in SCENARIOS] == [1, 2, 3, 4]
