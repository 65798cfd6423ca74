"""Command-line driver: configured experiments with machine-readable reports.

Each invocation runs one experiment and emits a report with a header
(command, seed, sizes, policy, tool and schema versions, timestamp) and a
body. Bodies are deterministic functions of the configuration: re-running
with the same seed and config reproduces them byte for byte regardless of
--threads. Exit status is 0 on success, 1 on usage errors, and 2 when a
physics check fails.

Configuration comes from a JSON file (--config) with individual flags taking
precedence; the seed may also come from the MANYMINDS_SEED environment
variable and is always echoed into the report header.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import combinations

from . import SCHEMA_VERSION, __version__
from . import epr as epr_mod
from . import ghz as ghz_mod
from .minds import (
    JOINTLY_CORRELATED,
    SINGLE_MIND,
    PolicyKind,
    SamplingPolicy,
    marginal_for,
)
from .quantum import PhysicsAssertionError, branch_decompose, partial_trace, trace_distance
from .rng import RngSpec
from .walks import build_tree, chi_square_pvalue, load_tree_spec, random_walk

__all__ = ["RunConfig", "UsageError", "run", "main"]

COMMANDS = ("tree", "epr", "hulk", "ghz", "chsh", "enumerate")
ENV_SEED = "MANYMINDS_SEED"
SIGNIFICANCE = 1e-4
EXACT_TOL = 1e-9


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
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.minds < 1:
            raise UsageError(f"--minds must be >= 1, got {self.minds}")
        if self.trials < 1:
            raise UsageError(f"--trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {self.threads}")
        if self.policy not in ("independent", "joint"):
            raise UsageError(f"--policy must be independent or joint, got {self.policy!r}")
        if self.format not in ("json", "csv"):
            raise UsageError(f"--format must be json or csv, got {self.format!r}")
        if self.command == "tree" and not self.spec_path:
            raise UsageError("tree needs --spec with a tree spec JSON file")
        if len(self.axes) != 4:
            raise UsageError(f"--axes needs 4 entries, got {len(self.axes)}")

    @property
    def rng(self) -> RngSpec:
        return RngSpec(self.seed, threads=self.threads)

    def sampling_policy(self, single_mind: bool = False) -> SamplingPolicy:
        if self.policy == "joint":
            return JOINTLY_CORRELATED
        return SINGLE_MIND if single_mind else SamplingPolicy(PolicyKind.INDEPENDENT_LOCAL)


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _band(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


# ---------------------------------------------------------------------------
# Command bodies: each returns (payload, checks, primary CSV table)


def _run_tree(config: RunConfig):
    tree = build_tree(load_tree_spec(config.spec_path))
    result = random_walk(tree, config.minds, config.rng)
    pvalue = chi_square_pvalue(result)
    leaves = [{"path": "/".join(p), "count": int(c), "exact_prob": float(w)}
              for p, c, w in zip(tree.paths, result.counts, tree.probs)]
    payload = {
        "walkers": config.minds,
        "leaves": leaves,
        "chi_square_pvalue": pvalue,
        "event_marginals": {e.event_id: result.event_marginal(e.event_id)
                            for e in tree.active_events},
    }
    checks = [
        _check("counts_sum_to_walkers", int(result.counts.sum()) == config.minds,
               f"{int(result.counts.sum())} of {config.minds}"),
        _check("leaf_probabilities_normalized", abs(float(tree.probs.sum()) - 1.0) < EXACT_TOL,
               f"sum {float(tree.probs.sum())!r}"),
        _check("chi_square_fit", pvalue > SIGNIFICANCE,
               f"p-value {pvalue:.6g} at significance {SIGNIFICANCE}"),
    ]
    table = [["leaf_path", "count", "exact_prob"]]
    table += [[row["path"], row["count"], repr(row["exact_prob"])] for row in leaves]
    return payload, checks, table


def _run_epr(config: RunConfig):
    ecfg = epr_mod.EprConfig(
        rng=config.rng, alice_axis=config.alice_axis, bob_axis=config.bob_axis,
        policy=config.sampling_policy(), n_minds=config.minds)
    exact = epr_mod.correlation(config.alice_axis, config.bob_axis)

    run = epr_mod.run_epr(ecfg)
    # each wing's outcome determines the other's report only for aligned or
    # anti-aligned axes; otherwise the consistency check has no deterministic
    # target and the communication step is skipped
    reports_determined = abs(abs(exact) - 1.0) < EXACT_TOL
    if reports_determined:
        run = epr_mod.communicate_and_check(run)
    rec = run.record
    echo = ecfg.to_dict()

    signs = {("+", "+"): 1, ("+", "-"): -1, ("-", "+"): -1, ("-", "-"): 1}
    rows, cols = rec.pair_labels
    empirical = sum(signs[(a, b)] * rec.pair_count(a, b)
                    for a in rows for b in cols) / rec.n_minds

    # moving Bob's axis must leave Alice's local state untouched
    base = epr_mod.prepare_state(epr_mod.EprConfig(rng=config.rng,
                                                   alice_axis=config.alice_axis,
                                                   bob_axis="z"))
    dist = trace_distance(partial_trace(run.state, "alice"), partial_trace(base, "alice"))

    payload = {
        "alice_axis": str(echo["alice_axis"]),
        "bob_axis": str(echo["bob_axis"]),
        "communication": "performed" if reports_determined else "skipped",
        "record": rec.to_dict(),
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
        lo, hi = 0.5 - _band(0.5, rec.n_minds), 0.5 + _band(0.5, rec.n_minds)
        checks.append(_check(f"{obs}_marginal_band", lo <= p <= hi,
                             f"P(+) = {p:.6f}, band [{lo:.6f}, {hi:.6f}]"))
    if config.policy == "joint":
        checks.append(_check("pairs_inside_branch_support", rec.mismatch_pairs == 0,
                             f"{rec.mismatch_pairs} stray pairs"))
        se = math.sqrt(max(1.0 - exact * exact, 0.0) / rec.n_minds)
        tol = max(4.0 * se, EXACT_TOL)
        checks.append(_check("pair_correlation_band", abs(empirical - exact) <= tol,
                             f"empirical {empirical:.6f} vs exact {exact:.6f} +- {tol:.6f}"))
    table = [["alice_outcome", "bob_outcome", "count"]]
    table += [[a, b, rec.pair_count(a, b)] for a in rows for b in cols]
    return payload, checks, table


def _run_hulk(config: RunConfig):
    policy = config.sampling_policy(single_mind=True)
    rate = epr_mod.hulk_demo(config.trials, config.rng, policy=policy)

    decomp = branch_decompose(epr_mod.singlet(), {"p1": "z", "p2": "z"})
    joint = decomp.joint_distribution()
    pa, pb = marginal_for(decomp, "p1"), marginal_for(decomp, "p2")
    if policy.kind is PolicyKind.JOINTLY_CORRELATED:
        expected, tol = 0.0, 0.0
    else:
        expected = 1.0 - sum(pa[a] * pb[b] for a, b in joint)
        tol = _band(expected, config.trials)

    payload = {
        "trials": config.trials,
        "policy": policy.name,
        "mismatch_rate": rate,
        "expected_rate": expected,
        "tolerance": tol,
    }
    checks = [_check("mismatch_rate_band", abs(rate - expected) <= tol,
                     f"rate {rate:.6f}, expected {expected:.6f} +- {tol:.6f}")]
    table = [["quantity", "value"],
             ["mismatch_rate", repr(rate)],
             ["expected_rate", repr(expected)],
             ["tolerance", repr(tol)],
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
    cells_without_witness = ghz_mod.missing_witness_count(
        ghz_mod.ScenarioSample(ghz_mod.all_cells()))

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
    if config.minds >= 256 * 100:
        p = 1.0 / 256.0
        tol = _band(p, config.minds)
        ok = all(abs(c / config.minds - p) <= tol for c in report.counts)
        checks.append(_check("cell_frequency_band", ok and report.nonempty_cells == 256,
                             f"all 256 cells within {p:.6f} +- {tol:.6f}"))
    csv_table = [["cell_id", "count", "frequency"]]
    csv_table += [[i, int(c), repr(c / len(sample))]
                  for i, c in enumerate(report.counts.tolist())]
    return payload, checks, csv_table


def _run_chsh(config: RunConfig):
    a, ap, b, bp = config.axes
    exact = epr_mod.chsh(a, ap, b, bp)
    estimate = epr_mod.chsh_monte_carlo(a, ap, b, bp, config.trials, config.rng)

    pair_rows = []
    se_sq = 0.0
    for name, (x, y) in (("a,b", (a, b)), ("a,b'", (a, bp)),
                         ("a',b", (ap, b)), ("a',b'", (ap, bp))):
        e = epr_mod.correlation(x, y)
        se_sq += max(1.0 - e * e, 0.0) / config.trials
        pair_rows.append({"pair": name, "exact": e})
    tol = max(4.0 * math.sqrt(se_sq), EXACT_TOL)

    payload = {
        "axes": [str(x) for x in config.axes],
        "exact": exact,
        "estimate": estimate,
        "n_per_pair": config.trials,
        "pairs": pair_rows,
        "tolerance": tol,
    }
    checks = [
        _check("estimate_matches_exact", abs(estimate - exact) <= tol,
               f"estimate {estimate:.6f} vs exact {exact:.6f} +- {tol:.6f}"),
        _check("quantum_bound", exact <= 2.0 * math.sqrt(2.0) + EXACT_TOL,
               f"exact {exact:.9f} <= 2*sqrt(2)"),
    ]
    table = [["pair", "exact_expectation"]]
    table += [[row["pair"], repr(row["exact"])] for row in pair_rows]
    table += [["combination_exact", repr(exact)], ["combination_estimate", repr(estimate)]]
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


_RUNNERS = {
    "tree": _run_tree,
    "epr": _run_epr,
    "hulk": _run_hulk,
    "ghz": _run_ghz,
    "chsh": _run_chsh,
    "enumerate": _run_enumerate,
}


# ---------------------------------------------------------------------------
# Report assembly


def _header(config: RunConfig) -> dict:
    n = {"tree": config.minds, "epr": config.minds, "ghz": config.minds,
         "hulk": config.trials, "chsh": config.trials, "enumerate": 64}[config.command]
    return {
        "command": config.command,
        "n": n,
        "policy": config.policy,
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "seed_source": config.seed_source,
        "threads": config.threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
    }


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute one experiment; returns (exit status, full report dict)."""
    payload, checks, table = _RUNNERS[config.command](config)
    payload = dict(payload)
    payload["checks"] = checks
    payload["all_checks_passed"] = all(c["passed"] for c in checks)
    report = {"header": _header(config), "body": payload, "_csv_table": table}
    return (0 if payload["all_checks_passed"] else 2), report


def render_json(report: dict) -> str:
    clean = {"header": report["header"], "body": report["body"]}
    return json.dumps(clean, indent=2, sort_keys=True) + "\n"


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    for key in sorted(report["header"]):
        buf.write(f"# {key}={report['header'][key]}\n")
    writer = csv.writer(buf)
    for row in report["_csv_table"]:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Argument handling


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; status 2 is reserved for physics failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_axis(text):
    if isinstance(text, (int, float)):
        return float(text)
    if text in ("x", "y", "z"):
        return text
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"axis must be x, y, z or degrees, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="manyminds", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"manyminds {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, help_text in (
        ("tree", "random walk over a branching measurement tree"),
        ("epr", "two-wing singlet run with communication step"),
        ("hulk", "single-mind mismatch probability demonstration"),
        ("ghz", "three-particle constraints, cells and sign flips"),
        ("chsh", "Bell-type combination, exact and sampled"),
        ("enumerate", "brute-force the 64 local +-1 assignments"),
    ):
        p = sub.add_parser(name, help=help_text, parents=[_common_flags()])
        if name == "tree":
            p.add_argument("--spec", help="tree spec JSON file")
        if name == "epr":
            p.add_argument("--alice-axis", help="x, y, z or degrees")
            p.add_argument("--bob-axis", help="x, y, z or degrees")
        if name == "chsh":
            p.add_argument("--axes", nargs=4, metavar=("A", "AP", "B", "BP"),
                           help="four axes (x, y, z or degrees)")
    return parser


def _common_flags() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--minds", type=int)
    common.add_argument("--trials", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--threads", type=int)
    common.add_argument("--policy", choices=("independent", "joint"))
    common.add_argument("--out")
    common.add_argument("--format", choices=("json", "csv"))
    return common


_CONFIG_KEYS = {"command", "minds", "trials", "seed", "threads", "policy",
                "alice_axis", "bob_axis", "axes", "spec", "out", "format"}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"config {path!r} has unknown keys: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    if "command" in file_cfg and file_cfg["command"] != args.command:
        raise UsageError(f"config names command {file_cfg['command']!r} "
                         f"but {args.command!r} was invoked")

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return file_cfg.get(key, default)

    seed, source = 0, "default"
    if os.environ.get(ENV_SEED):
        try:
            seed, source = int(os.environ[ENV_SEED]), "env"
        except ValueError:
            raise UsageError(f"{ENV_SEED} must be an integer, "
                             f"got {os.environ[ENV_SEED]!r}") from None
    if "seed" in file_cfg:
        seed, source = int(file_cfg["seed"]), "config"
    if args.seed is not None:
        seed, source = args.seed, "flag"

    axes = pick(getattr(args, "axes", None), "axes", epr_mod.DEFAULT_CHSH_AXES)
    default_policy = "independent" if args.command == "hulk" else "joint"
    return RunConfig(
        command=args.command,
        seed=seed,
        seed_source=source,
        threads=pick(args.threads, "threads", 1),
        minds=pick(args.minds, "minds", 10000),
        trials=pick(args.trials, "trials", 100000),
        policy=pick(args.policy, "policy", default_policy),
        alice_axis=_parse_axis(pick(getattr(args, "alice_axis", None), "alice_axis", "z")),
        bob_axis=_parse_axis(pick(getattr(args, "bob_axis", None), "bob_axis", "z")),
        axes=tuple(_parse_axis(x) for x in axes),
        spec_path=pick(getattr(args, "spec", None), "spec", None),
        out=pick(args.out, "out", None),
        format=pick(args.format, "format", "json"),
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config = _resolve(args)
        status, report = run(config)
    except UsageError as exc:
        print(f"manyminds: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"manyminds: error: {exc}", file=sys.stderr)
        return 1
    except PhysicsAssertionError as exc:
        print(f"manyminds: physics check failed: {exc}", file=sys.stderr)
        return 2

    text = render_json(report) if config.format == "json" else render_csv(report)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if status != 0:
        failed = [c["name"] for c in report["body"]["checks"] if not c["passed"]]
        print(f"manyminds: physics check failed: {', '.join(failed)}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
