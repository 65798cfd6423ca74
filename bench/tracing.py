"""Layer spans recorded from outside the package.

The tracer replaces every binding of each traced public function with a
wrapper that records a span (name, start, end, parent, operation id) and adds
work counts. Functions imported by name into other modules (``from .rng
import sample_indices``) have one binding per importing module; all of them
are found by identity and patched, and all are restored on exit. Methods are
patched on their class.

Spans stay in memory; the caller writes them out when the run ends. A span's
self time is its duration minus the time covered by its direct children.
Wrapped functions are only ever called from the benchmark's main thread
(``RngSpec.uniforms`` fans out to its pool internally, below the wrapper), so
one span stack suffices.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from math import prod

ROOT_SPAN = "bench.op"


def _uniforms(args, kwargs, result):
    return {"calls": 1, "draws": len(result)}


def _sample_indices(args, kwargs, result):
    return {"draws": len(result)}


def _branch_decompose(args, kwargs, result):
    state, contexts = args[0], args[1]
    layout = state.layout
    scanned = prod(layout.dims[layout.axis(name)] for name in contexts)
    return {"calls": 1, "branches": len(result.branches), "scanned": scanned}


def _calls(args, kwargs, result):
    return {"calls": 1}


def _split_local(args, kwargs, result):
    return {"minds": result.size}


def _split_joint(args, kwargs, result):
    return {"minds": sum(ens.size for ens in result)}


def _report_correlation(args, kwargs, result):
    return {"minds": sum(check.size for check in result)}


def _mismatch_probability(args, kwargs, result):
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    return {"trials": trials}


def _build_tree(args, kwargs, result):
    return {"leaves": len(result.paths)}


def _random_walk(args, kwargs, result):
    tree = result.tree
    return {"steps": result.total * len(tree.active_events),
            "leaves": len(tree.paths),
            "nonempty_leaves": int((result.counts > 0).sum())}


def _render(args, kwargs, result):
    return {"bytes": len(result)}


# (module, attribute, span name, counter); "Class.method" patches the class.
TARGETS = (
    ("manyminds.rng", "RngSpec.uniforms", "rng.uniforms", _uniforms),
    ("manyminds.rng", "sample_indices", "rng.sample_indices", _sample_indices),
    ("manyminds.quantum", "branch_decompose", "quantum.branch_decompose", _branch_decompose),
    ("manyminds.quantum", "premeasure", "quantum.premeasure", _calls),
    ("manyminds.quantum", "partial_trace", "quantum.partial_trace", None),
    ("manyminds.quantum", "expectation", "quantum.expectation", None),
    ("manyminds.minds", "split_local", "minds.split_local", _split_local),
    ("manyminds.minds", "split_joint", "minds.split_joint", _split_joint),
    ("manyminds.minds", "report_correlation", "minds.report_correlation", _report_correlation),
    ("manyminds.minds", "mismatch_probability", "minds.mismatch_probability",
     _mismatch_probability),
    ("manyminds.minds", "proportions", "minds.proportions", None),
    ("manyminds.walks", "build_tree", "walks.build_tree", _build_tree),
    ("manyminds.walks", "random_walk", "walks.random_walk", _random_walk),
    ("manyminds.walks", "WalkResult.event_marginal", "walks.event_marginal", None),
    ("manyminds.walks", "chi_square_pvalue", "walks.chi_square_pvalue", None),
    ("manyminds.epr", "run_epr", "epr.run_epr", None),
    ("manyminds.epr", "communicate_and_check", "epr.communicate_and_check", None),
    ("manyminds.epr", "hulk_demo", "epr.hulk_demo", None),
    ("manyminds.epr", "chsh_monte_carlo", "epr.chsh_monte_carlo", None),
    ("manyminds.ghz", "simulate_scenarios", "ghz.simulate_scenarios", None),
    ("manyminds.ghz", "pigeonhole_report", "ghz.pigeonhole_report", None),
    ("manyminds.ghz", "missing_witness_count", "ghz.missing_witness_count", None),
    ("manyminds.ghz", "sign_flip_witnesses", "ghz.sign_flip_witnesses", _calls),
    ("manyminds.cli", "run", "cli.run", None),
    ("manyminds.cli", "render_json", "cli.render", _render),
    ("manyminds.cli", "render_csv", "cli.render", _render),
    ("manyminds.cli", "main", "cli.main", None),
)


def package_modules() -> list:
    """Every loaded module of the package; these hold the name bindings."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "manyminds" or name.startswith("manyminds."))]


def bindings(original) -> list[tuple[object, str]]:
    """(owner, attribute) for every module-level name bound to ``original``."""
    return [(mod, attr) for mod in package_modules()
            for attr, value in vars(mod).items() if value is original]


class Tracer:
    """In-memory span and count recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[dict] = []
        self.op_id: str | None = None

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent["id"] if parent else None, "op": self.op_id,
               "id": len(self.spans), "child_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]

    @contextmanager
    def operation(self, op_id: str):
        """Root span around one benchmark operation; its spans share op_id."""
        self.op_id = op_id
        try:
            with self.span(ROOT_SPAN) as rec:
                yield rec
        finally:
            self.op_id = None

    def wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every binding of every target; restore the originals on exit."""
        import importlib

        saved: list[tuple[object, str, object]] = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[meth]
                    places = [(owner, meth)]
                else:
                    original = getattr(module, attr)
                    places = bindings(original)
                wrapper = self.wrap(original, name, counter)
                for owner, key in places:
                    saved.append((owner, key, original))
                    setattr(owner, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def self_times(self, op_id: str | None = None) -> dict[str, float]:
        """Summed self time per span name, skipping root operation spans."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            if rec["name"] == ROOT_SPAN or rec["end"] is None:
                continue
            if op_id is not None and rec["op"] != op_id:
                continue
            out[rec["name"]] += rec["end"] - rec["start"] - rec["child_s"]
        return dict(out)

    def export(self) -> list[dict]:
        return [{key: rec[key] for key in ("name", "start", "end", "parent", "op")}
                for rec in self.spans]
