"""The benchmark's four workloads and the inputs it generates for them.

Each workload is a fixed list of operations. A CLI operation is an argv for
``manyminds.cli.main``; a library operation prepares its inputs from the
seed, calls public functions of ``manyminds.quantum``, and checks the result
against values computed here with plain numpy. Only the library operations'
results are checked here; CLI reports are checked by ``run.py``.

Why these four (each layer gets one workload where it does most of the work
and others where it does almost none):

* epr-minds: the minds layer's per-mind Python loops (report consistency,
  mismatch counting) dominate; RNG is a small share.
* sample-stream: aggregate-only sampling, carried by ``rng.uniforms`` and
  ``sample_indices``; the minds layer is never called. Holds the
  ``--threads 1`` / ``--threads 2`` twins.
* tree-deep: the walks layer bound by leaf bookkeeping (65,536 leaf paths)
  and by report rendering, with sampling about 1% of compute.
* quantum-14q: the only place where ``branch_decompose`` sees more than 36
  branches (up to 16,384 on 14 qubits).

Importing this module imports neither numpy nor the package, so a child
process can time the import of its entry module first.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

WORKLOADS = ("epr-minds", "sample-stream", "tree-deep", "quantum-14q")

# Library operations read the package through the module attribute at call
# time, so the tracer's wrappers are seen.
QUANTUM = "manyminds.quantum"
CLI = "manyminds.cli"


@dataclass(frozen=True)
class Op:
    name: str
    entry: str                      # module whose import is the set-up cost
    argv: tuple[str, ...] = ()      # CLI operations
    lib: str | None = None          # library operations: key into LIB_OPS
    params: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.lib is None

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "entry": self.entry, "argv": list(self.argv),
                           "lib": self.lib, "params": self.params})

    @classmethod
    def from_json(cls, text: str) -> "Op":
        data = json.loads(text)
        return cls(data["name"], data["entry"], tuple(data["argv"]), data["lib"],
                   data["params"])


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    twins: tuple[tuple[str, str], ...] = ()   # (--threads 1 op, --threads 2 op)


def _tree_spec(path: str, events: int, probs: list[float]) -> str:
    with open(path, "w") as fh:
        json.dump({"events": [{"probs": probs} for _ in range(events)]}, fh)
    return path


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> Workload:
    """Operations of one workload; ``smoke`` shrinks every size for tests."""
    s = str(seed)

    def cli_op(op_name, *argv):
        return Op(op_name, CLI, tuple(argv) + ("--seed", s))

    if name == "epr-minds":
        n = 1000 if smoke else 500_000
        return Workload(name, (
            cli_op("epr-joint", "epr", "--minds", str(n), "--policy", "joint"),
            cli_op("epr-independent", "epr", "--minds", str(n), "--policy", "independent"),
            cli_op("hulk", "hulk", "--trials", str(4 * n)),
        ))
    if name == "sample-stream":
        # ghz stays at the README size of 1e6 minds, at which seed 0 trips
        # the per-cell check (ROADMAP defect D1); chsh and tree keep the
        # ratios 4:1 and 1:1 to it
        n = 1000 if smoke else 1_000_000
        spec = _tree_spec(os.path.join(workdir, "tree-6x3.json"), 2 if smoke else 6,
                          [1 / 3, 1 / 3, 1 / 3])
        return Workload(name, (
            cli_op("ghz-t1", "ghz", "--minds", str(n), "--threads", "1"),
            cli_op("ghz-t2", "ghz", "--minds", str(n), "--threads", "2"),
            cli_op("chsh-t1", "chsh", "--trials", str(4 * n), "--threads", "1"),
            cli_op("chsh-t2", "chsh", "--trials", str(4 * n), "--threads", "2"),
            cli_op("tree-6x3", "tree", "--spec", spec, "--minds", str(n)),
        ), twins=(("ghz-t1", "ghz-t2"), ("chsh-t1", "chsh-t2")))
    if name == "tree-deep":
        spec = _tree_spec(os.path.join(workdir, "tree-16x2.json"), 4 if smoke else 16,
                          [1 / 3, 2 / 3])
        n = str(100 if smoke else 100_000)
        return Workload(name, (
            cli_op("tree-16x2-json", "tree", "--spec", spec, "--minds", n, "--format", "json"),
            cli_op("tree-16x2-csv", "tree", "--spec", spec, "--minds", n, "--format", "csv"),
        ))
    if name == "quantum-14q":
        q = 4 if smoke else 14
        base = {"seed": seed, "qubits": q}
        return Workload(name, (
            Op("decompose-ghz-x", QUANTUM, lib="decompose_ghz_x", params=base),
            Op("decompose-random-z", QUANTUM, lib="decompose_random", params={**base, "axis": "z"}),
            Op("decompose-random-y", QUANTUM, lib="decompose_random", params={**base, "axis": "y"}),
            Op("decompose-random-z-half", QUANTUM, lib="decompose_random_half", params=base),
            Op("premeasure-trace", QUANTUM, lib="premeasure_trace",
               params={"seed": seed, "qubits": q - 2}),
        ))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Library operations: prepare(params) -> inputs, call(inputs) -> result,
# check(inputs, result) -> (ok, digest)


def _qubits(n: int):
    from manyminds.quantum import SubsystemLayout

    return SubsystemLayout(tuple((f"q{i}", ("+", "-")) for i in range(n)))


def random_state(n: int, seed: int, stream: int):
    """Seeded Haar-like random state on n qubits named q0..q{n-1}."""
    import numpy as np
    from manyminds.quantum import StateVector

    gen = np.random.default_rng([seed, stream])
    amps = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    return StateVector(_qubits(n), amps / np.linalg.norm(amps))


def _ghz(n: int):
    import numpy as np
    from manyminds.quantum import StateVector

    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = 2**-0.5
    return StateVector(_qubits(n), amps)


def _digest_branches(decomp) -> str:
    h = hashlib.sha256()
    for br in decomp.branches:
        h.update(repr((br.labels, br.weight, br.amplitude)).encode())
    return h.hexdigest()


def _decompose(state, contexts):
    import manyminds.quantum as quantum

    return quantum.branch_decompose(state, contexts)


def _ghz_x_prepare(p):
    return _ghz(p["qubits"])


def _ghz_x_call(state):
    return _decompose(state, dict.fromkeys(state.layout.names, "x"))


def _ghz_x_check(state, decomp):
    n = len(state.layout.names)
    ok = (len(decomp.branches) == 2 ** (n - 1)
          and all(abs(br.weight - 2.0 ** (1 - n)) < 1e-12 for br in decomp.branches)
          # GHZ along x on every qubit keeps only the even number of "-" outcomes
          and all(br.labels.count("-") % 2 == 0 for br in decomp.branches))
    return ok, _digest_branches(decomp)


def _random_prepare(p):
    return random_state(p["qubits"], p["seed"], 1), p.get("axis", "z")


def _random_call(inputs):
    state, axis = inputs
    return _decompose(state, dict.fromkeys(state.layout.names, axis))


def _random_check(inputs, decomp):
    import numpy as np

    state, axis = inputs
    weights = np.array([br.weight for br in decomp.branches])
    ok = len(decomp.branches) <= state.layout.dim and abs(weights.sum() - 1.0) < 1e-9
    probs = np.abs(state.amps) ** 2
    if axis == "z":
        kept = np.flatnonzero(probs >= 1e-12)
        ok = ok and len(kept) == len(weights) and np.allclose(probs[kept], weights,
                                                              rtol=0, atol=1e-15)
    else:
        # P(+y) - P(-y) on q0 equals <sigma_y> on q0 = 2 Im(conj(a0) a1)
        a = state.amps.reshape(2, -1)
        sigma_y = 2.0 * float(np.sum(np.conj(a[0]) * a[1]).imag)
        plus = sum(br.weight for br in decomp.branches if br.labels[0] == "+")
        ok = ok and abs((2.0 * plus - 1.0) - sigma_y) < 1e-9
    return bool(ok), _digest_branches(decomp)


def _half_call(inputs):
    state, _ = inputs
    names = state.layout.names[: len(state.layout.names) // 2]
    return _decompose(state, dict.fromkeys(names, "z"))


def _half_check(inputs, decomp):
    import numpy as np

    state, _ = inputs
    k = len(state.layout.names) // 2
    marginal = (np.abs(state.amps) ** 2).reshape(2**k, -1).sum(axis=1)
    weights = np.array([br.weight for br in decomp.branches])
    ok = len(weights) == 2**k and np.allclose(marginal, weights, rtol=0, atol=1e-12)
    return bool(ok), _digest_branches(decomp)


def _premeasure_prepare(p):
    from manyminds.quantum import ready_state, tensor

    return tensor([random_state(p["qubits"], p["seed"], 2), ready_state("rec", ("+", "-"))])


def _premeasure_call(state):
    import manyminds.quantum as quantum

    out = []
    for name in state.layout.names[:-1]:
        after = quantum.premeasure(state, name, "z", "rec")
        out.append(quantum.partial_trace(after, "rec"))
    return out


def _premeasure_check(state, traces):
    import numpy as np

    n = len(state.layout.names) - 1
    probs = (np.abs(state.amps) ** 2).reshape((2,) * n + (3,))[..., 0]
    ok = True
    h = hashlib.sha256()
    for k, rho in enumerate(traces):
        plus = float(np.moveaxis(probs, k, 0)[0].sum())
        diag = np.real(np.diag(rho.matrix))
        ok = ok and np.allclose(diag, [0.0, plus, 1.0 - plus], rtol=0, atol=1e-12)
        h.update(rho.matrix.tobytes())
    return bool(ok), h.hexdigest()


LIB_OPS = {
    "decompose_ghz_x": (_ghz_x_prepare, _ghz_x_call, _ghz_x_check),
    "decompose_random": (_random_prepare, _random_call, _random_check),
    "decompose_random_half": (_random_prepare, _half_call, _half_check),
    "premeasure_trace": (_premeasure_prepare, _premeasure_call, _premeasure_check),
}
