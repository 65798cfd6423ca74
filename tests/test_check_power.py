"""Each exact check catches a defect outside itself.

Every case patches one named defect into the program, runs a command through
``cli.main`` and asserts that it exits 2 with that check among the failed ones.
Where a check cannot see the obvious defect, the case says so and patches one
that it can see.
"""
import json

import pytest

from manyminds import cli, epr, minds, quantum
from manyminds.quantum import StateVector


def bob_moves_alices_pointer(monkeypatch):
    # no defect on p1 alone can show: a unitary on the other subsystems leaves Alice's
    # recorder's reduced state as it is, and the singlet leaves p1's at I/2 for any axis.
    # A tilted Bob premeasurement that also swaps Alice's ready and "+" pointers does show
    real = epr.premeasure

    def premeasure(state, measured, basis, recorder):
        state = real(state, measured, basis, recorder)
        if recorder != "bob" or basis == "z":
            return state
        return StateVector(state.layout, state.tensor_amps.take(
            [1, 0, 2], axis=state.layout.axis("alice")))

    monkeypatch.setattr(epr, "premeasure", premeasure)


def wings_split_alone(monkeypatch):
    # the count loop misses the joint policy, so each wing splits on its own marginal and
    # mind pairs are drawn from the product of the marginals
    monkeypatch.setattr(epr, "JOINTLY_CORRELATED", object())


def determined_rows_take_the_next_outcome(monkeypatch):
    # a split that reads no draw, every row having one positive outcome, takes the next one
    real = minds._draw

    def next_outcome(n, draw, probs, outcomes, context, ensembles):
        read = []
        chosen = real(n, lambda: read.append(1) or draw(), probs, outcomes, context, ensembles)
        return chosen if read else (chosen + 1) % len(outcomes)

    monkeypatch.setattr(minds, "_draw", next_outcome)


def sigma_x_sign_flipped(monkeypatch):
    # a sign error in sigma_y cannot show: every scenario holds an even number of y's
    real = quantum.pauli
    monkeypatch.setattr(quantum, "pauli", lambda axis: -real(axis) if axis == "x" else real(axis))


def correlation_overstated(monkeypatch):
    # doubled, every |E| would pass 1, and chsh's standard error would refuse a negative
    # variance with exit 1; a tenth more already breaks Tsirelson's bound
    real = epr.correlation
    monkeypatch.setattr(epr, "correlation", lambda a, b: 1.1 * real(a, b))


CASES = {
    "no_signaling_trace_distance": (bob_moves_alices_pointer,
                                    ["epr", "--bob-axis", "45", "--minds", "1000"]),
    "pairs_inside_branch_support": (wings_split_alone, ["epr", "--minds", "1000"]),
    "report_consistency": (determined_rows_take_the_next_outcome,
                           ["epr", "--minds", "1000", "--policy", "independent"]),
    "constraint_table": (sigma_x_sign_flipped, ["ghz", "--minds", "1000"]),
    "quantum_bound": (correlation_overstated, ["chsh", "--trials", "1000"]),
}


@pytest.mark.parametrize("check", CASES)
def test_defect_fails_the_check(check, tmp_path, monkeypatch, capsys):
    defect, argv = CASES[check]
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()

    defect(monkeypatch)
    assert cli.main(argv + ["--out", str(out)]) == 2
    failed = [c["name"] for c in json.loads(out.read_text())["body"]["checks"] if not c["passed"]]
    assert check in failed
    assert check in capsys.readouterr().err
