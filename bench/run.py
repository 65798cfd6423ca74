"""Benchmark for the manyminds package: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload epr-minds --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                     # every workload, seed 0

The package is treated as a black box, loaded from ``src/`` of the checkout.
The load is a closed loop: one client runs one operation at a time from this
process. Each measured round runs every operation of the workload once in a
fresh process (``bench/child.py``) and twice in process after import and one
warm-up. Rounds repeat until ``--seconds`` have passed (at least two
rounds); every figure is a per-operation median over rounds.

End-to-end metrics (``--trace 0``):

* ``setup_s``: import of the entry module (``manyminds.cli``, or
  ``manyminds.quantum`` for quantum-14q), timed inside each fresh process;
  median over all of them.
* ``wall_s``: sum over operations of the fresh-process wall time, from
  interpreter start through report write.
* ``compute_s``: sum over operations of the in-process time of
  ``cli.main(argv + ["--out", tmp])`` or of the library calls.
* ``peak_rss_mb``: highest ``VmHWM`` of any operation's fresh process
  (per-operation median over rounds), as the child reads it from its own
  ``/proc/self/status``.

Per-layer metrics (``--trace 1``) come from a separate run that alternates
untraced rounds with rounds traced by ``tracing.Tracer``; the difference of
the two compute sums is ``trace.overhead_s``. Self times and counts are summed
over a round's operations (0 where a workload never calls the layer).
``quantum.branch_decompose.kept_ratio`` is branches kept over weight-tensor
entries scanned (the product of the measured subsystems' dimensions);
``walks.leaf_hit_ratio`` is non-empty leaves over leaves built. ``thread_speedup`` is the
untraced compute of the ``--threads 1`` twins over their ``--threads 2``
twins (0 where a workload has no twins).

Every execution of an operation is checked: exit code (2, a failed physics
self-check, counts as a failed operation), the report's header (seed given
by flag), and the report minus ``header.timestamp`` byte-identical across
every execution, fresh or in process, traced or not; bodies of ``--threads``
twins are identical. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, per-operation samples, digests, spans) goes to
``.bench_out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 120
MIN_ROUNDS = 2
INPROC_PER_ROUND = 2  # in-process runs are cheap next to a fresh interpreter

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("compute_s", "s"), ("peak_rss_mb", "MB"))

SELF_TIMED = (
    "rng.uniforms", "rng.sample_indices",
    "quantum.branch_decompose", "quantum.premeasure", "quantum.partial_trace",
    "quantum.expectation",
    "minds.split_local", "minds.split_joint", "minds.report_correlation",
    "minds.mismatch_probability", "minds.proportions",
    "walks.build_tree", "walks.random_walk", "walks.event_marginal",
    "walks.chi_square_pvalue",
    "epr.run_epr", "epr.communicate_and_check", "epr.hulk_demo", "epr.chsh_monte_carlo",
    "ghz.simulate_scenarios", "ghz.pigeonhole_report", "ghz.missing_witness_count",
    "ghz.sign_flip_witnesses",
    "cli.run", "cli.render", "cli.main",
)
COUNTS = (
    ("rng.uniforms.calls", "count"), ("rng.uniforms.draws", "count"),
    ("rng.sample_indices.draws", "count"),
    ("quantum.branch_decompose.calls", "count"), ("quantum.branch_decompose.branches", "count"),
    ("quantum.premeasure.calls", "count"),
    ("minds.split.minds", "count"), ("minds.report_correlation.minds", "count"),
    ("minds.mismatch_probability.trials", "count"),
    ("walks.build_tree.leaves", "count"), ("walks.random_walk.steps", "count"),
    ("ghz.sign_flip_witnesses.calls", "count"),
    ("cli.render.bytes", "bytes"),
)
RATIOS = (("quantum.branch_decompose.kept_ratio", "ratio"), ("walks.leaf_hit_ratio", "ratio"))
EXTRA = (("trace.overhead_s", "s"), ("thread_speedup", "x"))


def per_layer_names() -> list[tuple[str, str]]:
    return ([(f"{name}.self_s", "s") for name in SELF_TIMED]
            + list(COUNTS) + list(RATIOS) + list(EXTRA))


_TIMESTAMP = re.compile(rb'\n\s*"timestamp": "[^"]*",?|\n# timestamp=[^\n]*')


def strip_timestamp(report: bytes) -> bytes:
    """The report minus ``header.timestamp``, for JSON and CSV reports."""
    return _TIMESTAMP.sub(b"", report)


def body_digest(report: bytes) -> str:
    """sha256 of the report body: the JSON ``body`` or the CSV table."""
    if report.startswith(b"{"):
        body = json.dumps(json.loads(report)["body"], indent=2, sort_keys=True).encode()
    else:
        body = b"\n".join(line for line in report.split(b"\n") if not line.startswith(b"#"))
    return hashlib.sha256(body).hexdigest()


def _header_problem(op, report: bytes, seed: int) -> str | None:
    if report.startswith(b"{"):
        header = json.loads(report)["header"]
    else:
        header = dict(line[2:].split("=", 1) for line in report.decode().splitlines()
                      if line.startswith("# "))
    if str(header.get("seed")) != str(seed) or header.get("seed_source") != "flag":
        return f"header seed {header.get('seed')!r} from {header.get('seed_source')!r}"
    if header.get("command") != op.argv[0]:
        return f"header command {header.get('command')!r}"
    return None


@dataclass
class OpStats:
    fresh_s: list = field(default_factory=list)
    inproc_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    exits: list = field(default_factory=list)
    report_sha256: str | None = None
    body_sha256: str | None = None
    problems: list = field(default_factory=list)
    stderr: str = ""


class Runner:
    """Runs and checks one workload's operations."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.stats = {op.name: OpStats() for op in workload.ops}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.env = {k: v for k, v in os.environ.items() if k != "MANYMINDS_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    # -- checking ---------------------------------------------------------

    def _record(self, op, code: int, report: bytes | None = None,
                digest: str | None = None, check_ok: bool = True, stderr: str = "") -> None:
        st = self.stats[op.name]
        self.attempted += 1
        st.exits.append(code)
        problems = []
        if code not in (0, 2):
            problems.append(f"exit {code}")
        if op.is_cli:
            if report is None:
                problems.append("no report written")
            else:
                try:
                    problem = _header_problem(op, report, self.seed)
                    body = body_digest(report)
                except (ValueError, KeyError) as exc:
                    problem, body = f"unreadable report: {exc}", None
                if problem:
                    problems.append(problem)
                digest = hashlib.sha256(strip_timestamp(report)).hexdigest()
                if st.body_sha256 is None:
                    st.body_sha256 = body
        elif not check_ok:
            problems.append("library result failed its check")
        if digest is not None:
            if st.report_sha256 is None:
                st.report_sha256 = digest
            elif digest != st.report_sha256:
                problems.append("output differs from the first execution")
        if stderr:
            st.stderr = stderr.strip().splitlines()[-1]
        if problems:
            self.correct = False
            st.problems.extend(p for p in problems if p not in st.problems)
        if code != 0 or problems:
            self.failed += 1

    def check_twins(self) -> None:
        for one, two in self.workload.twins:
            if self.stats[one].body_sha256 != self.stats[two].body_sha256:
                self.correct = False
                self.failed += 1
                self.stats[two].problems.append(f"body differs from its twin {one}")

    # -- execution --------------------------------------------------------

    def run_fresh(self, op) -> None:
        out = self.workdir / f"{op.name}.fresh.out"
        result_path = self.workdir / f"{op.name}.child.json"
        for path in (out, result_path):
            path.unlink(missing_ok=True)
        child_op = replace(op, argv=op.argv + ("--out", str(out))) if op.is_cli else op
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), child_op.to_json(),
                                   str(result_path)], cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._record(op, -1, stderr=f"timed out after {CHILD_TIMEOUT_S} s")
            return
        st = self.stats[op.name]
        st.fresh_s.append(time.perf_counter() - t0)
        stderr = proc.stderr.decode(errors="replace")
        if not result_path.exists():
            self._record(op, proc.returncode, stderr=stderr or "child wrote no result")
            return
        result = json.loads(result_path.read_text())
        st.import_s.append(result["import_s"])
        st.rss_kb.append(result["vmhwm_kb"])
        report = out.read_bytes() if out.exists() else None
        self._record(op, result["exit"], report, result["digest"], result["check_ok"], stderr)

    def run_inproc(self, op, samples: list | None, tracer=None) -> None:
        import manyminds.cli as cli
        from workloads import LIB_OPS

        gc.collect()
        span = tracer.operation(op.name) if tracer is not None else nullcontext()
        if op.is_cli:
            out = self.workdir / f"{op.name}.inproc.out"
            out.unlink(missing_ok=True)
            err = io.StringIO()
            with redirect_stderr(err), span:
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(op.argv) + ["--out", str(out)])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash fails the operation, not the benchmark
                    traceback.print_exc()
                    code = -1
                dt = time.perf_counter() - t0
            report = out.read_bytes() if out.exists() else None
            self._record(op, code, report, stderr=err.getvalue())
        else:
            prepare, call, check = LIB_OPS[op.lib]
            inputs = prepare(op.params)
            try:
                with span:
                    t0 = time.perf_counter()
                    result = call(inputs)
                    dt = time.perf_counter() - t0
                ok, digest = check(inputs, result)
                code, stderr = 0, ""
            except Exception:  # a crash fails the operation, not the benchmark
                dt, ok, digest = time.perf_counter() - t0, False, None
                code, stderr = -1, traceback.format_exc()
            self._record(op, code, digest=digest, check_ok=ok, stderr=stderr)
        if samples is not None:
            samples.append(dt)

    def rounds(self, seconds: float, body) -> int:
        """Repeat ``body`` until ``seconds`` have passed, at least MIN_ROUNDS times."""
        t0 = time.perf_counter()
        n = 0
        while n < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            body()
            n += 1
        return n

    # -- aggregation ------------------------------------------------------

    def summed_median(self, attr: str, names=None) -> float:
        names = names or [op.name for op in self.workload.ops]
        return sum(_median(getattr(self.stats[n], attr)) for n in names)

    def thread_speedup(self) -> float:
        if not self.workload.twins:
            return 0.0
        ones = [one for one, _ in self.workload.twins]
        twos = [two for _, two in self.workload.twins]
        two_s = self.summed_median("inproc_s", twos)
        return self.summed_median("inproc_s", ones) / two_s if two_s else 0.0


def _median(xs) -> float:
    """Median, or 0 where an operation crashed before giving a sample."""
    return statistics.median(xs) if xs else 0.0


def end_to_end(runner: Runner) -> dict:
    stats = runner.stats.values()
    return {
        "setup_s": _median([x for st in stats for x in st.import_s]),
        "wall_s": runner.summed_median("fresh_s"),
        "compute_s": runner.summed_median("inproc_s"),
        "peak_rss_mb": max(_median(st.rss_kb) for st in stats) / 1024.0,
    }


def per_layer(runner: Runner, self_times: list[dict], counts: dict) -> dict:
    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = statistics.median(r.get(name, 0.0) for r in self_times)
    merged = dict(counts)
    merged["minds.split.minds"] = (counts.get("minds.split_local.minds", 0)
                                   + counts.get("minds.split_joint.minds", 0))
    for name, _ in COUNTS:
        out[name] = merged.get(name, 0)
    scanned = counts.get("quantum.branch_decompose.scanned", 0)
    leaves = counts.get("walks.build_tree.leaves", 0)
    out["quantum.branch_decompose.kept_ratio"] = (
        counts.get("quantum.branch_decompose.branches", 0) / scanned if scanned else 0.0)
    out["walks.leaf_hit_ratio"] = (
        counts.get("walks.random_walk.nonempty_leaves", 0) / leaves if leaves else 0.0)
    out["trace.overhead_s"] = (runner.summed_median("traced_s")
                               - runner.summed_median("inproc_s"))
    out["thread_speedup"] = runner.thread_speedup()
    return out


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from tracing import Tracer
    from workloads import build

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = build(name, seed, str(workdir), smoke=smoke)
        runner = Runner(workload, seed, workdir)
        for op in workload.ops:
            runner.run_inproc(op, None)  # warm-up
        record = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
                  "environment": environment()}
        if trace:
            tracer = Tracer()
            self_times, counts = [], {}

            def traced_round():
                for op in workload.ops:
                    runner.run_inproc(op, runner.stats[op.name].inproc_s)
                tracer.reset()
                with tracer.patched():
                    for op in workload.ops:
                        runner.run_inproc(op, runner.stats[op.name].traced_s, tracer)
                self_times.append(tracer.self_times())
                counts.clear()
                counts.update(tracer.counts)

            record["rounds"] = runner.rounds(seconds, traced_round)
            runner.check_twins()
            metrics = per_layer(runner, self_times, counts)
            units = dict(per_layer_names())
            record["spans_last_round"] = tracer.export()
        else:
            def plain_round():
                for op in workload.ops:
                    runner.run_fresh(op)
                for _ in range(INPROC_PER_ROUND):
                    for op in workload.ops:
                        runner.run_inproc(op, runner.stats[op.name].inproc_s)

            record["rounds"] = runner.rounds(seconds, plain_round)
            runner.check_twins()
            metrics = end_to_end(runner)
            units = dict(END_TO_END)
        record["ops"] = {n: vars(st) for n, st in runner.stats.items()}
        record["result"] = {
            "correct": runner.correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_report(record: dict) -> None:
    env = record["environment"]
    result = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  rounds {record['rounds']}" + ("  (smoke sizes)" if record["smoke"] else ""))
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"  {'operation':<26}{'exit':>6}{'fresh_s':>10}{'inproc_s':>10}{'rss_mb':>9}"
          f"  body_sha256")
    for name, st in record["ops"].items():
        def med(xs):
            return f"{statistics.median(xs):.4f}" if xs else "-"
        rss = f"{max(st['rss_kb']) / 1024:.1f}" if st["rss_kb"] else "-"
        exits = ",".join(str(c) for c in sorted(set(st["exits"])))
        digest = (st["body_sha256"] or st["report_sha256"] or "-")[:16]
        print(f"  {name:<26}{exits:>6}{med(st['fresh_s']):>10}{med(st['inproc_s']):>10}"
              f"{rss:>9}  {digest}")
        for problem in st["problems"]:
            print(f"    problem: {problem}")
        if any(c != 0 for c in st["exits"]) and st["stderr"]:
            print(f"    stderr: {st['stderr']}")
    for key, m in result["metrics"].items():
        print(f"  {key:<42}{m['value']:>14.6g} {m['unit']}")
    print(f"  ops {result['attempted']}  ops_failed {result['failed']}"
          f"  correct {str(result['correct']).lower()}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "manyminds" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'manyminds'}", file=sys.stderr)
        return 1
    os.environ.pop("MANYMINDS_SEED", None)
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        OUT_DIR.mkdir(exist_ok=True)
        suffix = "-smoke" if args.smoke else ""
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}{suffix}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_report(record)
        print(f"  full record: {path.relative_to(ROOT)}")
        print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
