"""Command-line driver: configured experiments with machine-readable reports.

Each invocation runs one experiment and emits a report with a header
(command, n, seed, threads, policy for epr and hulk only, tool and schema
versions, timestamp) and a body. Bodies are deterministic functions of the
configuration: re-running with the same seed and config reproduces them byte
for byte regardless of --threads. Exit status is 0 on success, 1 on usage errors, and 2 when a
physics check fails (a correct run fails a sampled check with chance at most ALPHA, except
at small n epr's pair_correlation_band near parallel axes and chsh: see ROADMAP direction 8).

Each command accepts only the flags and config-file keys it reads; flags take
precedence over the config file (--config), and the seed is echoed into the report header.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from itertools import chain, combinations, repeat
from types import SimpleNamespace
from typing import NamedTuple
from json.encoder import encode_basestring_ascii

import numpy as np

from . import ATOL, SCHEMA_VERSION, __version__
from .quantum import (DEFAULT_CHSH_AXES, PhysicsAssertionError, branch_decompose,
                      partial_trace, trace_distance)
from .rng import RngSpec
from .walks import (build_tree, chi_square_pvalue, chi_square_tail, load_tree_spec,
                    pearson_statistic, random_walk)

__all__ = ["Records", "RunConfig", "UsageError", "run", "main"]

ALPHA = 1e-4  # family-wise false-alarm rate of one report's stochastic checks
# a Pearson chi-square check runs only when every cell or leaf of positive
# probability expects this many counts; below it the chi-square law is no fit
MIN_EXPECTED = 100
# draws per random stream that a flag or a config file may ask for; memory does
# not grow with a run (it is counted in windows of rng.CHUNK draws), so this
# bounds only its length, and longer runs are refused before anything runs
MAX_DRAWS = 2**25
RECORDS_PER_BLOCK = 4096  # records a report lays out and writes at a time


class UsageError(ValueError):
    """Configuration problem; reported on stderr with exit status 1."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int = 0
    seed_source: str = "default"
    threads: int = 1
    minds: int = 10000
    trials: int = 100000
    policy: str | None = None  # None: independent for hulk, joint for every other command
    alice_axis: object = "z"
    bob_axis: object = "z"
    axes: tuple = DEFAULT_CHSH_AXES
    spec_path: str | None = None
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        for flag, value, low in (("--seed", self.seed, 0), ("--minds", self.minds, 1),
                                 ("--trials", self.trials, 1), ("--threads", self.threads, 1)):
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise UsageError(f"{flag} must be an integer >= {low}, got {value!r}")
        if not all(isinstance(v, (str, type(None))) for v in (self.spec_path, self.out)):
            raise UsageError(f"--spec/--out must be file names: {self.spec_path!r}, {self.out!r}")
        if self.policy is None:
            object.__setattr__(self, "policy", "independent" if self.command == "hulk" else "joint")
        if self.policy not in ("independent", "joint"):
            raise UsageError(f"--policy must be independent or joint, got {self.policy!r}")
        if self.format not in ("json", "csv"):
            raise UsageError(f"--format must be json or csv, got {self.format!r}")
        if self.command == "tree" and not self.spec_path:
            raise UsageError("tree needs --spec with a tree spec JSON file")
        if len(self.axes) != 4:
            raise UsageError(f"--axes needs 4 entries, got {len(self.axes)}")
        n = self.draws
        if n > MAX_DRAWS:
            raise UsageError(f"--{_COMMANDS[self.command].draws} {n} asks for {n:,} draws "
                             f"per stream; a run has at most {MAX_DRAWS:,} draws")

    @property
    def draws(self) -> int:
        """The header's n: draws per random stream, or enumerate's 64 assignments."""
        field = _COMMANDS[self.command].draws
        return getattr(self, field) if field else 64

    @property
    def rng(self) -> RngSpec:
        return RngSpec(self.seed, threads=self.threads)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _stochastic(name: str, statistic: float, p_value: float, detail: str) -> dict:
    """A check on a sampled quantity; ``run`` sets its threshold and verdict."""
    return {"name": name, "statistic": statistic, "p_value": p_value, "detail": detail}


def _normal(name: str, estimate: float, expected: float, se: float, detail: str) -> dict:
    """Two-sided normal test of an estimate; ``se == 0`` makes it an exact check."""
    if se == 0:
        return _check(name, abs(estimate - expected) <= ATOL, detail)
    z = (estimate - expected) / se
    return _stochastic(name, z, math.erfc(abs(z) / math.sqrt(2.0)), detail)


# ---------------------------------------------------------------------------
# Command bodies: each returns (payload, checks, primary CSV table). Each imports its
# own layers, so a fresh run loads and compiles no other command's.


def _run_tree(config: RunConfig):
    tree = build_tree(load_tree_spec(config.spec_path))
    result = random_walk(tree, config.minds, config.rng)
    leaves = Records(("path", "count", "exact_prob"), ("leaf_path", "count", "exact_prob"),
                     (tree.path_halves(), result.counts, tree.probs))
    payload = {
        "walkers": config.minds,
        "leaves": leaves,
        "event_marginals": {e.event_id: result.event_marginal(e.event_id)
                            for e in tree.active_events},
    }
    # the leaves are the events' outer product, so they sum to the product of the events' sums
    total = float(tree.probs.sum())
    events_total = math.prod(math.fsum(e.probs) for e in tree.active_events)
    checks = [
        _check("leaf_probabilities_normalized", abs(total - events_total) < ATOL, f"sum {total!r}"),
    ]
    # below the gate, or with one leaf (df = 0), the chi-square law tests nothing
    positive = tree.probs[tree.probs > 0]
    if len(positive) > 1 and positive.min() * config.minds >= MIN_EXPECTED:
        payload["chi_square_pvalue"] = pvalue = chi_square_pvalue(result)
        stat = pearson_statistic(result.counts, tree.probs * config.minds)
        checks.append(_stochastic("chi_square_fit", stat, pvalue, "Pearson chi-square of "
                                  "the leaf counts against the exact probabilities"))
    return payload, checks, leaves


def _run_epr(config: RunConfig):
    from . import epr as epr_mod
    from .minds import SamplingPolicy
    ecfg = epr_mod.EprConfig(
        rng=config.rng, alice_axis=config.alice_axis, bob_axis=config.bob_axis,
        policy=SamplingPolicy(config.policy), n_minds=config.minds)
    exact = epr_mod.correlation(config.alice_axis, config.bob_axis)

    # each wing's outcome determines the other's report only where the pruned branches, which
    # the report map reads, hold one per Alice outcome; elsewhere communication is skipped
    state = epr_mod.prepare_state(ecfg)
    pairs = branch_decompose(state, {"alice": None, "bob": None}).branches
    reports_determined = len(pairs) == len({b.labels[0] for b in pairs})
    run = (epr_mod.communicate_and_check(epr_mod.EprRun(ecfg, state, None))
           if reports_determined else epr_mod.run_epr(ecfg))
    rec = run.record

    rows, cols = rec.pair_labels
    empirical = sum((1 if a == b else -1) * rec.pair_count(a, b)
                    for a in rows for b in cols) / rec.n_minds

    # moving Bob's axis must leave Alice's local state untouched
    base = epr_mod.prepare_state(replace(ecfg, bob_axis="z"))
    dist = trace_distance(partial_trace(run.state, "alice"), partial_trace(base, "alice"))

    payload = {
        "alice_axis": _axis_text(config.alice_axis),
        "bob_axis": _axis_text(config.bob_axis),
        "communication": "performed" if reports_determined else "skipped",
        "record": {**rec._asdict(), "proportions": {obs: {lab: str(f) for lab, f in p.items()}
                                                  for obs, p in rec.proportions.items()}},
        "exact_correlation": exact,
        "empirical_pair_correlation": empirical,
        "alice_trace_distance_vs_z_bob": dist,
    }
    checks = [
        _check("no_signaling_trace_distance", dist < ATOL, f"{dist:.3g}"),
    ]
    if reports_determined:
        checks.append(_check("report_consistency", rec.report_consistent is True,
                             "all minds perceive the report their outcome determines"))
    for obs in ("alice", "bob"):
        p = float(rec.proportions[obs].get("+", 0))
        checks.append(_normal(f"{obs}_marginal_band", p, 0.5, math.sqrt(0.25 / rec.n_minds),
                              f"P(+) = {p:.6f}, expected 0.5"))
    if config.policy == "joint":
        checks.append(_check("pairs_inside_branch_support", rec.mismatch_pairs == 0,
                             f"{rec.mismatch_pairs} stray pairs"))
        se = 0.0 if reports_determined else math.sqrt((1.0 - exact * exact) / rec.n_minds)
        checks.append(_normal("pair_correlation_band", empirical, exact, se,
                              f"empirical {empirical:.6f} vs exact {exact:.6f}"))
    table = [["alice_outcome", "bob_outcome", "count"]]
    table += [[a, b, rec.pair_count(a, b)] for a in rows for b in cols]
    return payload, checks, table


def _axis_text(axis) -> str:
    return axis if isinstance(axis, str) else f"{float(axis):g}deg"


def _run_hulk(config: RunConfig):
    from . import epr as epr_mod
    from .minds import JOINTLY_CORRELATED, SINGLE_MIND, marginal_for
    policy = SINGLE_MIND if config.policy == "independent" else JOINTLY_CORRELATED
    rate = epr_mod.hulk_demo(config.trials, config.rng, policy=policy)

    decomp = branch_decompose(epr_mod.singlet(), {"p1": "z", "p2": "z"})
    joint = decomp.joint_distribution()
    pa, pb = marginal_for(decomp, "p1"), marginal_for(decomp, "p2")
    expected = 0.0 if policy is JOINTLY_CORRELATED else 1.0 - sum(pa[a] * pb[b] for a, b in joint)

    payload = {
        "trials": config.trials,
        "policy": policy.value,
        "mismatch_rate": rate,
        "expected_rate": expected,
    }
    checks = [_normal("mismatch_rate_band", rate, expected,
                      math.sqrt(expected * (1.0 - expected) / config.trials),
                      f"rate {rate:.6f}, expected {expected:.6f}")]
    table = [["quantity", "value"],
             ["mismatch_rate", rate],
             ["expected_rate", expected],
             ["trials", config.trials]]
    return payload, checks, table


def _run_ghz(config: RunConfig):
    from . import ghz as ghz_mod
    state = ghz_mod.ghz_state()
    table = ghz_mod.verify_constraints(state)
    constraint_rows = {
        scen.name: {"expectation": exp, "variance": var,
                    "required": float(scen.eigenvalue)}
        for scen, (exp, var) in table.items()}

    total, satisfying, _ = ghz_mod.enumerate_local_assignments()

    weights = {}
    for scen in ghz_mod.SCENARIOS:
        axes = dict(zip(ghz_mod.PARTICLES, scen.axes))
        dist = branch_decompose(state, axes).joint_distribution()
        weights[scen.name] = {",".join(k): v for k, v in sorted(dist.items())}

    sample = ghz_mod.simulate_scenarios(config.minds, config.rng)
    report = ghz_mod.pigeonhole_report(sample)
    missing = ghz_mod.missing_witness_count(sample)
    cells_without_witness = ghz_mod.missing_witness_count(ghz_mod.ScenarioSample(np.ones(256, int)))

    payload = {
        "constraints": constraint_rows,
        "enumeration": {"total": total, "satisfying": satisfying},
        "branch_weights": weights,
        "cells": {
            "n_triples": len(sample),
            "nonempty": report.nonempty_cells,
            "max_cell_id": report.max_cell_id,
            "max_frequency": str(report.max_frequency),
            "histogram": report.counts.tolist(),
        },
        "witnesses": {
            "cells_without_witness": cells_without_witness,
            "sampled_triples_without_witness": missing,
        },
    }
    checks = [
        _check("constraint_table",
               all(abs(r["expectation"] - r["required"]) < ATOL
                   and abs(r["variance"]) < ATOL
                   for r in constraint_rows.values()),
               "expectations (-1,+1,+1,+1) with zero variance"),
        _check("local_assignment_enumeration", (total, satisfying) == (64, 0),
               f"{satisfying} of {total} assignments satisfy all four products"),
        _check("branch_weights_quarter",
               all(abs(w - 0.25) < ATOL for per in weights.values()
                   for w in per.values()),
               "every allowed triple carries weight 1/4"),
        _check("pigeonhole_floor", report.max_frequency >= 1 / 256,
               f"max cell frequency {report.max_frequency}"),
        _check("witness_universality", missing == 0 and cells_without_witness == 0,
               f"{missing} sampled triples and {cells_without_witness} cells lack a flip"),
    ]
    if config.minds >= 256 * MIN_EXPECTED:
        stat = pearson_statistic(report.counts, [config.minds / 256] * 256)
        checks.append(_stochastic("cell_frequency_band", stat, chi_square_tail(stat, 255),
                                  "Pearson chi-square of the 256 cell counts, 255 df"))
    csv_table = [["cell_id", "count", "frequency"]]
    csv_table += [[i, c, c / len(sample)] for i, c in enumerate(report.counts.tolist())]
    return payload, checks, csv_table


def _run_chsh(config: RunConfig):
    from . import epr as epr_mod
    a, ap, b, bp = config.axes
    exact = epr_mod.chsh(a, ap, b, bp)
    estimate = epr_mod.chsh_monte_carlo(a, ap, b, bp, config.trials, config.rng)

    pair_rows = [{"pair": name, "exact": epr_mod.correlation(x, y)}
                 for name, (x, y) in (("a,b", (a, b)), ("a,b'", (a, bp)),
                                      ("a',b", (ap, b)), ("a',b'", (ap, bp)))]
    # the four pair estimates are independent, so variances add; |E| = 1 adds none
    se = math.sqrt(sum(1.0 - r["exact"] ** 2 for r in pair_rows
                       if abs(abs(r["exact"]) - 1.0) >= ATOL) / config.trials)

    payload = {
        "axes": [str(x) for x in config.axes],
        "exact": exact,
        "estimate": estimate,
        "n_per_pair": config.trials,
        "pairs": pair_rows,
    }
    checks = [
        _normal("estimate_matches_exact", estimate, exact, se,
                f"estimate {estimate:.6f} vs exact {exact:.6f}"),
        _check("quantum_bound", exact <= 2.0 * math.sqrt(2.0) + ATOL,
               f"exact {exact:.9f} <= 2*sqrt(2)"),
    ]
    table = [["pair", "exact_expectation"]]
    table += [[row["pair"], row["exact"]] for row in pair_rows]
    table += [["combination_exact", exact], ["combination_estimate", estimate]]
    return payload, checks, table


def _run_enumerate(config: RunConfig):
    from . import ghz as ghz_mod
    total, satisfying, witnesses = ghz_mod.enumerate_local_assignments()
    relaxed = {}
    for subset in combinations((1, 2, 3, 4), 3):
        _, count, _ = ghz_mod.enumerate_local_assignments(subset)
        relaxed[",".join(map(str, subset))] = count
    payload = {
        "total": total,
        "satisfying": satisfying,
        "witnesses": witnesses,
        "relaxed_three_constraint_counts": relaxed,
    }
    checks = [
        _check("contradiction", satisfying == 0,
               f"{satisfying} assignments satisfy all four constraints"),
        _check("three_constraint_counts", all(v == 8 for v in relaxed.values()),
               "each three-constraint subset admits exactly 8 assignments"),
    ]
    table = [["constraints", "satisfying"], ["1,2,3,4", satisfying], *sorted(relaxed.items())]
    return payload, checks, table


class _Command(NamedTuple):
    runner: object
    help: str
    draws: str | None  # the setting that holds the draws per stream
    reads: tuple[str, ...] = ()  # settings it reads besides draws, seed, threads, out, format

    @property
    def settings(self) -> tuple[str, ...]:  # all a flag or a config key may set
        return ("seed", "threads", "out", "format", *filter(None, [self.draws]), *self.reads)


_COMMANDS = {
    "tree": _Command(_run_tree, "random walk over a branching measurement tree", "minds",
                     ("spec",)),
    "epr": _Command(_run_epr, "two-wing singlet run with communication step", "minds",
                    ("policy", "alice_axis", "bob_axis")),
    "hulk": _Command(_run_hulk, "single-mind mismatch probability demonstration", "trials",
                     ("policy",)),
    "ghz": _Command(_run_ghz, "three-particle constraints, cells and sign flips", "minds"),
    "chsh": _Command(_run_chsh, "Bell-type combination, exact and sampled", "trials", ("axes",)),
    "enumerate": _Command(_run_enumerate, "brute-force the 64 local +-1 assignments", None),
}


# ---------------------------------------------------------------------------
# Report assembly


def _header(config: RunConfig) -> dict:
    policy = {"policy": config.policy} if "policy" in _COMMANDS[config.command].reads else {}
    return {
        **policy,
        "command": config.command,
        "n": config.draws,
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "seed_source": config.seed_source,
        "threads": config.threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one experiment; returns (exit status, full report dict)."""
    payload, checks, table = _COMMANDS[config.command].runner(config)
    # Sidak split: each of k stochastic checks runs at level 1 - (1 - ALPHA)^(1/k),
    # so a correct program fails any of them with probability at most ALPHA
    stochastic = [c for c in checks if "p_value" in c]
    for c in stochastic:
        c["threshold"] = -math.expm1(math.log1p(-ALPHA) / len(stochastic))
        c["passed"] = c["p_value"] > c["threshold"]
    body = {**payload, "checks": checks, "all_checks_passed": all(c["passed"] for c in checks)}
    report = {"header": _header(config), "body": body, "_csv_table": table}
    return (0 if body["all_checks_passed"] else 2), report


class Records(NamedTuple):
    """At least one record of one key set as a column per key, and no object per record:
    first one pair ``(heads, tails)`` of text lists whose record ``i * len(tails) + j`` is
    ``heads[i] + tails[j]``, then numpy arrays of integers or finite floats. JSON writes the
    list of objects ``json.dumps`` writes, CSV the table under ``titles``."""

    keys: tuple[str, ...]
    titles: tuple[str, ...]
    columns: tuple


def _flush(parts: list, write) -> list:
    """Write ``parts`` as one text and drop them; without ``write``, keep them to join."""
    if write:
        write("".join(parts))
        parts.clear()
    return parts


def _pieces(column, step: int, text=None):
    """Per block of ``step`` records, record-long lists of texts that join to each record's
    cell. Numbers are ``repr`` once per distinct bit pattern (-0.0 too); a pair is each head
    per tail, then the tails, each half through ``text`` once if given."""
    if isinstance(column, np.ndarray):
        known = {}  # the text of each bit pattern met so far
        for start in range(0, len(column), step):
            bits, inverse = np.unique(column[start:start + step].view(f"u{column.itemsize}"),
                                      return_inverse=True)
            texts = [known.get(b) or known.setdefault(b, repr(v))
                     for b, v in zip(bits.tolist(), bits.view(column.dtype).tolist())]
            yield [list(map(texts.__getitem__, inverse.tolist()))]
        return
    heads, tails = ([*map(text, half)] for half in column) if text else column
    for start in range(0, len(heads) * len(tails), step):
        part = heads[start // len(tails):(start + step) // len(tails)]
        yield [[*chain.from_iterable(map(repeat, part, repeat(len(tails))))], tails * len(part)]


def _blocks(columns: tuple, parts: list, write, text=None):
    """Flush ``parts`` to ``write`` and yield each column's ``_pieces`` per block:
    ``RECORDS_PER_BLOCK`` records, rounded up to whole heads of the one pair."""
    width = len(next(c for c in columns if not isinstance(c, np.ndarray))[1])
    for block in zip(*(_pieces(c, -(-RECORDS_PER_BLOCK // width) * width, text) for c in columns)):
        _flush(parts, write)
        yield block


def _interleave(parts: list, block: list, after: list) -> None:
    """Append to ``parts`` each record's texts of every column of ``block``, each column's
    followed by its separator text in ``after``."""
    row = [x for pieces, sep in zip(block, after) for x in (*pieces, sep)]
    parts += chain.from_iterable(zip(*(x if isinstance(x, list) else repeat(x) for x in row)))


def render_json(report: dict, write=None) -> str:
    """Header and body byte for byte as ``json.dumps(indent=2, sort_keys=True)``
    writes them, without the pure-Python encoder that ``indent`` selects. With ``write``,
    the text goes to it a block of records at a time and the result is empty."""
    parts = []
    _encode({"header": report["header"], "body": report["body"]}, "", parts, write)
    parts.append("\n")
    return "".join(_flush(parts, write))


def _encode(value, indent: str, parts: list, write) -> None:
    """Append to ``parts`` the JSON text of ``value`` (string keys), closing at ``indent``."""
    inner = indent + "  "
    if isinstance(value, Records):  # a string's quotes go in the separators around it
        keys, columns = zip(*sorted(zip(value.keys, value.columns)))  # keys are unique
        quotes = ["" if isinstance(c, np.ndarray) else '"' for c in columns]
        names = [f"{inner}  {encode_basestring_ascii(k)}: {q}" for k, q in zip(keys, quotes)]
        end = f"{quotes[-1]}\n{inner}}}"
        after = [*map("{},\n{}".format, quotes, names[1:]), f"{end},\n{inner}{{\n{names[0]}"]
        parts.append(f"[\n{inner}{{\n{names[0]}")
        for block in _blocks(columns, parts, write, lambda s: encode_basestring_ascii(s)[1:-1]):
            _interleave(parts, block, after)
        parts[-1] = f"{end}\n{indent}]"
        return
    if isinstance(value, dict) and value:
        ends, items = "{}", [(f"{encode_basestring_ascii(k)}: ", v)
                             for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)) and value:
        ends, items = "[]", [("", v) for v in value]
    else:  # scalars and empty containers
        parts.append(json.dumps(value))
        return
    for k, (key, item) in enumerate(items):
        parts.append(f"{',' if k else ends[0]}\n{inner}{key}")
        _encode(item, inner, parts, write)
    parts.append(f"\n{indent}{ends[1]}")


def render_csv(report: dict, write=None) -> str:
    """Header fields as ``# key=value`` lines, then the table as ``csv.writer`` writes it:
    ``Records`` with no delimiter, quote or line break in a title or half through one join
    per block. With ``write``, as ``render_json``."""
    parts = [f"# {key}={report['header'][key]}\n" for key in sorted(report["header"])]
    table = report["_csv_table"]
    if isinstance(table, Records):
        if set(',"\r\n').isdisjoint("".join(chain(table.titles, *table.columns[0]))):
            parts.append(",".join(table.titles) + "\r\n")
            for block in _blocks(table.columns, parts, write):
                _interleave(parts, block, [","] * (len(block) - 1) + ["\r\n"])
            return "".join(_flush(parts, write))
        rows = (zip(*(map("".join, zip(*pieces)) for pieces in block))
                for block in _blocks(table.columns, parts, write))
        table = chain([table.titles], chain.from_iterable(rows))
    csv.writer(SimpleNamespace(write=parts.append)).writerows(table)
    return "".join(_flush(parts, write))


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; status 2 is reserved for physics failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_axis(value, flag: str):
    if value in ("x", "y", "z"):
        return value
    try:
        degrees = float(value)
    except (TypeError, ValueError, OverflowError):
        degrees = math.nan
    if isinstance(value, bool) or not math.isfinite(degrees):
        raise UsageError(f"{flag} must be x, y, z or a finite angle in degrees, got {value!r}")
    return degrees


# argparse options of each setting's flag, named --setting with "-" for "_"
_FLAGS = {"seed": {"type": int}, "threads": {"type": int}, "out": {},
          "format": {"choices": ("json", "csv")}, "minds": {"type": int}, "trials": {"type": int},
          "policy": {"choices": ("independent", "joint")}, "spec": {"help": "tree spec JSON file"},
          "alice_axis": {"help": "x, y, z or degrees"}, "bob_axis": {"help": "x, y, z or degrees"},
          "axes": {"nargs": 4, "metavar": ("A", "AP", "B", "BP"),
                   "help": "four axes (x, y, z or degrees)"}}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manyminds", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"manyminds {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key in command.settings:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    unknown = set(data) - {"command", *_COMMANDS[command].settings}
    if unknown:
        raise UsageError(f"config {path!r} has unknown keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config, args.command) if args.config else {}
    if "command" in file_cfg and file_cfg["command"] != args.command:
        raise UsageError(f"config names command {file_cfg['command']!r} "
                         f"but {args.command!r} was invoked")

    flags = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    settings = {**file_cfg, **flags}
    if "seed" in settings:
        settings["seed_source"] = "flag" if "seed" in flags else "config"
    if "spec" in settings:
        settings["spec_path"] = settings.pop("spec")

    for key in ("alice_axis", "bob_axis"):
        if key in settings:
            settings[key] = _parse_axis(settings[key], "--" + key.replace("_", "-"))
    if "axes" in settings:
        if not isinstance(settings["axes"], (list, tuple)):
            raise UsageError(f"--axes needs a list of 4 axes, got {settings['axes']!r}")
        settings["axes"] = tuple(_parse_axis(x, "--axes") for x in settings["axes"])
    return RunConfig(**settings)


def _writer(fh):
    """``fh.write``, or one that hands the raw stream under ``fh`` each encoded text until it
    takes all, so no byte waits in a buffer: ``TextIOWrapper.write`` ignores a pipe taking part."""
    if not hasattr(fh, "buffer"):  # io.StringIO
        return fh.write
    out = getattr(fh.buffer, "raw", fh.buffer)  # io.BytesIO has none under it

    def write(text: str) -> None:
        fh.flush()  # text written before goes first
        view = memoryview(text.encode(fh.encoding, fh.errors))
        while view:
            view = view[out.write(view):]
    return write


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _resolve(args)
        if config.out:  # an unwritable path fails before the run and leaves no new file
            made = not os.path.exists(config.out)
            open(config.out, "a").close()  # "a" truncates nothing
            if made:
                os.remove(config.out)
        status, report = run(config)
    except (ValueError, OSError, KeyError) as exc:  # UsageError is a ValueError
        print(f"manyminds: error: {exc}", file=sys.stderr)
        return 1
    except PhysicsAssertionError as exc:
        print(f"manyminds: physics check failed: {exc}", file=sys.stderr)
        return 2

    try:  # a block at a time, so no text the size of the body is held
        with open(config.out, "w") if config.out else nullcontext(sys.stdout) as fh:
            (render_json if config.format == "json" else render_csv)(report, _writer(fh))
    except (OSError, UnicodeEncodeError) as exc:  # disk full, reader gone, encoding
        print(f"manyminds: error: {exc}", file=sys.stderr)
        return 1
    if status != 0:
        failed = [c["name"] for c in report["body"]["checks"] if not c["passed"]]
        print(f"manyminds: physics check failed: {', '.join(failed)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
