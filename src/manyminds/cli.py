"""Command-line driver: configured experiments with machine-readable reports.

Each invocation runs one experiment and emits a report with a header
(command, n, seed, threads, policy for epr and hulk only, tool and schema
versions, timestamp) and a body. Bodies are deterministic functions of the
configuration: re-running with the same seed and config reproduces them byte
for byte regardless of --threads. Exit status is 0 on success, 1 on usage errors, and 2 when a
physics check fails (a correct run fails a sampled check with chance at most ALPHA).

Each command accepts only the flags and config-file keys it reads; flags take
precedence over the config file (--config). The seed may also come from the
MANYMINDS_SEED environment variable and is always echoed into the report header.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from itertools import combinations
from json.encoder import encode_basestring_ascii

import numpy as np

from . import SCHEMA_VERSION, __version__
from . import epr as epr_mod
from . import ghz as ghz_mod
from .minds import JOINTLY_CORRELATED, SINGLE_MIND, SamplingPolicy, marginal_for
from .quantum import PhysicsAssertionError, branch_decompose, partial_trace, trace_distance
from .rng import RngSpec
from .walks import (build_tree, chi_square_pvalue, chi_square_tail, load_tree_spec,
                    pearson_statistic, random_walk)

__all__ = ["Records", "RunConfig", "UsageError", "run", "main"]

ENV_SEED = "MANYMINDS_SEED"
ALPHA = 1e-4  # family-wise false-alarm rate of one report's stochastic checks
EXACT_TOL = 1e-9
# a Pearson chi-square check runs only when every cell or leaf of positive
# probability expects this many counts; below it the chi-square law is no fit
MIN_EXPECTED = 100
# draws per random stream that a flag or a config file may ask for; memory does
# not grow with a run (it is counted in windows of rng.CHUNK draws), so this
# bounds only its length, and longer runs are refused before anything runs
MAX_DRAWS = 2**25


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
    policy: str = "joint"
    alice_axis: object = "z"
    bob_axis: object = "z"
    axes: tuple = epr_mod.DEFAULT_CHSH_AXES
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
        return _check(name, abs(estimate - expected) <= EXACT_TOL, detail)
    z = (estimate - expected) / se
    return _stochastic(name, z, math.erfc(abs(z) / math.sqrt(2.0)), detail)


# ---------------------------------------------------------------------------
# Command bodies: each returns (payload, checks, primary CSV table)


def _run_tree(config: RunConfig):
    tree = build_tree(load_tree_spec(config.spec_path))
    result = random_walk(tree, config.minds, config.rng)
    leaves = Records(("path", "count", "exact_prob"), ("leaf_path", "count", "exact_prob"),
                     (tree.path_texts(), result.counts, tree.probs))
    payload = {
        "walkers": config.minds,
        "leaves": leaves,
        "event_marginals": {e.event_id: result.event_marginal(e.event_id)
                            for e in tree.active_events},
    }
    checks = [
        _check("leaf_probabilities_normalized", abs(float(tree.probs.sum()) - 1.0) < EXACT_TOL,
               f"sum {float(tree.probs.sum())!r}"),
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
    ecfg = epr_mod.EprConfig(
        rng=config.rng, alice_axis=config.alice_axis, bob_axis=config.bob_axis,
        policy=SamplingPolicy(config.policy), n_minds=config.minds)
    exact = epr_mod.correlation(config.alice_axis, config.bob_axis)

    # each wing's outcome determines the other's report only for aligned or
    # anti-aligned axes; otherwise the consistency check has no deterministic
    # target and the communication step is skipped
    reports_determined = abs(abs(exact) - 1.0) < EXACT_TOL
    run = (epr_mod.communicate_and_check if reports_determined else epr_mod.run_epr)(ecfg)
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
        "record": {**asdict(rec), "proportions": {obs: {lab: str(f) for lab, f in p.items()}
                                                  for obs, p in rec.proportions.items()}},
        "exact_correlation": exact,
        "empirical_pair_correlation": empirical,
        "alice_trace_distance_vs_z_bob": dist,
    }
    checks = [
        _check("no_signaling_trace_distance", dist < EXACT_TOL, f"{dist:.3g}"),
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
               all(abs(r["expectation"] - r["required"]) < EXACT_TOL
                   and abs(r["variance"]) < EXACT_TOL
                   for r in constraint_rows.values()),
               "expectations (-1,+1,+1,+1) with zero variance"),
        _check("local_assignment_enumeration", (total, satisfying) == (64, 0),
               f"{satisfying} of {total} assignments satisfy all four products"),
        _check("branch_weights_quarter",
               all(abs(w - 0.25) < EXACT_TOL for per in weights.values()
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
    csv_table += [[i, int(c), c / len(sample)]
                  for i, c in enumerate(report.counts.tolist())]
    return payload, checks, csv_table


def _run_chsh(config: RunConfig):
    a, ap, b, bp = config.axes
    exact = epr_mod.chsh(a, ap, b, bp)
    estimate = epr_mod.chsh_monte_carlo(a, ap, b, bp, config.trials, config.rng)

    pair_rows = [{"pair": name, "exact": epr_mod.correlation(x, y)}
                 for name, (x, y) in (("a,b", (a, b)), ("a,b'", (a, bp)),
                                      ("a',b", (ap, b)), ("a',b'", (ap, bp)))]
    # the four pair estimates are independent, so variances add; |E| = 1 adds none
    se = math.sqrt(sum(1.0 - r["exact"] ** 2 for r in pair_rows
                       if abs(abs(r["exact"]) - 1.0) >= EXACT_TOL) / config.trials)

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
        _check("quantum_bound", exact <= 2.0 * math.sqrt(2.0) + EXACT_TOL,
               f"exact {exact:.9f} <= 2*sqrt(2)"),
    ]
    table = [["pair", "exact_expectation"]]
    table += [[row["pair"], row["exact"]] for row in pair_rows]
    table += [["combination_exact", exact], ["combination_estimate", estimate]]
    return payload, checks, table


def _run_enumerate(config: RunConfig):
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
    table = [["constraints", "satisfying"]]
    table += [["1,2,3,4", satisfying]]
    table += [[k, v] for k, v in sorted(relaxed.items())]
    return payload, checks, table


@dataclass(frozen=True)
class _Command:
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
    payload = dict(payload)
    payload["checks"] = checks
    payload["all_checks_passed"] = all(c["passed"] for c in checks)
    report = {"header": _header(config), "body": payload, "_csv_table": table}
    return (0 if payload["all_checks_passed"] else 2), report


@dataclass(frozen=True)
class Records:
    """At least one record of one key set as a column per key, a list of strings or a
    numpy array of integers or finite floats, and no object per record: JSON writes the
    list of objects ``json.dumps`` writes, CSV the table under ``titles``."""

    keys: tuple[str, ...]
    titles: tuple[str, ...]
    columns: tuple

    def cells(self, text=None) -> list[list[str]]:
        """Each column as texts: numbers by ``_reprs``, strings through ``text`` if given."""
        return [_reprs(c) if isinstance(c, np.ndarray) else [*map(text, c)] if text else c
                for c in self.columns]


def _interleave(columns, seps, last: str) -> str:
    """Every row's cells in order, each followed by its separator; the final one by ``last``."""
    parts = [part for sep in seps for part in (None, sep)] * len(columns[0])
    for j, cells in enumerate(columns):
        parts[2 * j::2 * len(seps)] = cells
    parts[-1] = last
    return "".join(parts)


def render_json(report: dict) -> str:
    """Header and body byte for byte as ``json.dumps(indent=2, sort_keys=True)``
    writes them, without the pure-Python encoder that ``indent`` selects."""
    return _encode({"header": report["header"], "body": report["body"]}, "") + "\n"


def _encode(value, indent: str) -> str:
    """JSON text of ``value`` whose closing bracket sits at ``indent``; keys are strings."""
    inner = indent + "  "
    if isinstance(value, Records):
        keys, cells = zip(*sorted(zip(value.keys, value.cells(encode_basestring_ascii))))
        names = [f"{inner}  {encode_basestring_ascii(k)}: " for k in keys]
        seps = [",\n" + name for name in names[1:]] + [f"\n{inner}}},\n{inner}{{\n{names[0]}"]
        return f"[\n{inner}{{\n{names[0]}" + _interleave(cells, seps, f"\n{inner}}}\n{indent}]")
    if isinstance(value, dict) and value:
        ends, items = "{}", (f"{encode_basestring_ascii(k)}: {_encode(v, inner)}"
                             for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)) and value:
        ends, items = "[]", (_encode(v, inner) for v in value)
    else:  # scalars and empty containers
        return json.dumps(value)
    return "%s\n%s%s\n%s%s" % (ends[0], inner, (",\n" + inner).join(items), indent, ends[1])


def _reprs(column: np.ndarray) -> list[str]:
    """``repr`` of each number of a numpy column, once per distinct bit pattern (-0.0 too)."""
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    texts = list(map(repr, bits.view(column.dtype).tolist()))
    return list(map(texts.__getitem__, inverse.tolist()))


def render_csv(report: dict) -> str:
    """Header fields as ``# key=value`` lines, then the table as ``csv.writer`` writes it:
    ``Records`` with no delimiter, quote or line break in a cell through one join."""
    buf = io.StringIO()
    for key in sorted(report["header"]):
        buf.write(f"# {key}={report['header'][key]}\n")
    table = report["_csv_table"]
    if isinstance(table, Records):
        cols = [[title, *cells] for title, cells in zip(table.titles, table.cells())]
        text = "".join(map("".join, cols))
        if not any(mark in text for mark in ',"\r\n'):
            return buf.getvalue() + _interleave(cols, [","] * (len(cols) - 1) + ["\r\n"], "\r\n")
        table = zip(*cols)
    csv.writer(buf).writerows(table)
    return buf.getvalue()


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
    except json.JSONDecodeError as exc:
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

    settings = {"policy": "independent"} if args.command == "hulk" else {}
    flags = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    # the variable is read only when no flag or config sets the seed
    if os.environ.get(ENV_SEED) and "seed" not in file_cfg and "seed" not in flags:
        try:
            settings.update(seed=int(os.environ[ENV_SEED]), seed_source="env")
        except ValueError:
            raise UsageError(f"{ENV_SEED} must be an integer, "
                             f"got {os.environ[ENV_SEED]!r}") from None
    for source, values in (("config", file_cfg), ("flag", flags)):
        settings.update(values)
        if "seed" in values:
            settings["seed_source"] = source
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _resolve(args)
        if config.out:  # an unwritable path fails before the run; "a" truncates nothing
            open(config.out, "a").close()
        status, report = run(config)
    except (ValueError, OSError, KeyError) as exc:  # UsageError is a ValueError
        print(f"manyminds: error: {exc}", file=sys.stderr)
        return 1
    except PhysicsAssertionError as exc:
        print(f"manyminds: physics check failed: {exc}", file=sys.stderr)
        return 2

    text = render_json(report) if config.format == "json" else render_csv(report)
    with open(config.out, "w") if config.out else nullcontext(sys.stdout) as fh:
        fh.write(text)
    if status != 0:
        failed = [c["name"] for c in report["body"]["checks"] if not c["passed"]]
        print(f"manyminds: physics check failed: {', '.join(failed)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
