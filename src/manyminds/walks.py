"""Branching measurement trees and classical random walks over them.

A tree is an ordered list of measurement events, each with an outcome
probability vector (slots with no measurement are allowed and skipped).
Leaves are outcome paths; their exact probabilities are products along the
path. A walker is a single mind traversing the tree: at each event it samples
one outcome, independently of all other walkers. Long-run frequency claims
are checked in Chernoff form: the fraction of walkers whose empirical
frequency strays from the per-trial probability by more than eps is bounded
by 2*exp(-2*eps^2*N) for N trials.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from . import ATOL
from .rng import RngSpec, code_counts, sample_indices

__all__ = [
    "TreeEvent",
    "TreeSpec",
    "Tree",
    "WalkResult",
    "FrequencyResult",
    "SKIP",
    "MAX_LEAVES",
    "build_tree",
    "random_walk",
    "repeated_frequency",
    "chernoff_bound",
    "chi_square_pvalue",
    "chi_square_tail",
    "pearson_statistic",
    "tree_spec_from_json",
    "load_tree_spec",
]


MAX_LEAVES = 2**22  # leaf probabilities and counts are held in memory; largest supported tree


@dataclass(frozen=True)
class TreeEvent:
    """One slot in the sequence; ``probs is None`` means nothing is measured."""

    event_id: str
    probs: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.probs is None:
            if self.labels is not None:
                raise ValueError(f"{self.event_id}: labels given for a skipped slot")
            return
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 1:
            raise ValueError(f"{self.event_id}: need at least one outcome")
        if not all(math.isfinite(p) and p >= 0 for p in probs):
            raise ValueError(f"{self.event_id}: probabilities must be finite and "
                             f"non-negative, got {probs}")
        if abs(sum(probs) - 1.0) > ATOL:
            raise ValueError(f"{self.event_id}: probabilities sum to {sum(probs)}, expected 1")
        labels = self.labels
        if labels is None:
            labels = tuple(str(i + 1) for i in range(len(probs)))
        elif len(labels) != len(probs):
            raise ValueError(f"{self.event_id}: {len(labels)} labels for {len(probs)} outcomes")
        elif len(set(labels)) != len(labels):
            raise ValueError(f"{self.event_id}: duplicate labels {list(labels)}")
        elif any("/" in str(label) for label in labels):
            raise ValueError(f"{self.event_id}: labels may not contain '/': {list(labels)}")
        try:  # a report holds each label as UTF-8
            [str(label).encode() for label in labels]
        except UnicodeEncodeError as exc:
            raise ValueError(f"{exc}, in a label of event {self.event_id}") from None
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def skip(self) -> bool:
        return self.probs is None


SKIP = TreeEvent("skip")


@dataclass(frozen=True)
class TreeSpec:
    events: tuple[TreeEvent, ...]

    def __post_init__(self):
        ids = [e.event_id for e in self.events if not e.skip]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate event ids")


@dataclass(frozen=True)
class Tree:
    """Leaf paths (over measured slots only) with exact product probabilities;
    ``paths``, the label tuples in ``itertools.product`` order, is built on first read."""

    spec: TreeSpec
    probs: np.ndarray = field(repr=False)

    @property
    def active_events(self) -> tuple[TreeEvent, ...]:
        return tuple(e for e in self.spec.events if not e.skip)

    @cached_property
    def paths(self) -> tuple[tuple[str, ...], ...]:
        return tuple(product(*(e.labels for e in self.active_events)))

    def path_halves(self) -> tuple[list[str], list[str]]:
        """``paths`` joined by ``/`` as two halves: record ``i * len(tails) + j`` is
        ``heads[i] + tails[j]``; each head ends in ``/``, or is the one ``""`` below two events."""
        labels = [e.labels for e in self.active_events]
        half = len(labels) // 2
        heads, tails = ([*map("/".join, product(*side))] for side in (labels[:half], labels[half:]))
        return [h + "/" for h in heads] if half else [""], tails


def build_tree(spec: TreeSpec) -> Tree:
    active = [e for e in spec.events if not e.skip]
    if (n_leaves := math.prod(len(e.labels) for e in active)) > MAX_LEAVES:
        leaves = n_leaves if n_leaves < 10**20 else f"{len(active)} events and over 10**20"
        raise ValueError(f"tree has {leaves} leaves, more than {MAX_LEAVES}")
    probs = np.array([1.0])
    for event in active:
        probs = np.outer(probs, np.asarray(event.probs)).ravel()
    return Tree(spec, probs)


@dataclass(frozen=True)
class WalkResult:
    """Per-leaf walker counts next to the exact leaf probabilities."""

    tree: Tree
    counts: np.ndarray = field(repr=False)
    total: int = 0

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("leaf counts do not add up to the walker total")

    def event_marginal(self, event_id: str) -> dict[str, float]:
        """Fraction of walkers per outcome of one event, summed over leaves."""
        active = self.tree.active_events
        pos = next((i for i, e in enumerate(active) if e.event_id == event_id), None)
        if pos is None:
            raise KeyError(f"unknown event {event_id!r}")
        # one row per outcome, its leaves in leaf order, from axes (before, event, after);
        # a sequential cumsum adds each row's fractions in the order a loop over leaves would
        k, after = len(active[pos].labels), math.prod(len(e.labels) for e in active[pos + 1:])
        rows = self.counts.reshape(-1, k, after).swapaxes(0, 1).reshape(k, -1)
        sums = np.cumsum(rows / self.total, axis=1)[:, -1]
        return dict(zip(active[pos].labels, sums.tolist()))


def random_walk(tree: Tree, n_walkers: int, rng: RngSpec) -> WalkResult:
    """Send n walkers down the tree; walker i's step at each event is draw i
    of that event's stream, so trajectories never depend on walker count."""
    if n_walkers < 1:
        raise ValueError(f"n_walkers must be >= 1, got {n_walkers}")
    active = tree.active_events

    def count(start, stop):
        return code_counts(stop - start, (
            sample_indices(rng.uniforms(stop - start, "tree", e.event_id, start=start), e.probs)
            for e in active), tuple(len(e.probs) for e in active))

    return WalkResult(tree, rng.count_windows(n_walkers, count), n_walkers)


def chi_square_pvalue(result: WalkResult) -> float:
    """Pearson goodness of fit of walker counts against the exact leaf
    probabilities, decided by ``chi_square_tail``.

    Only leaves with positive expected count enter the statistic and the
    degrees of freedom. A walker on a zero-probability leaf gives p = 0, and
    a fit with no degree of freedom left is exact, p = 1. The expected total must
    match the walkers times the product of the events' sums to a relative sqrt(eps).
    """
    observed = np.asarray(result.counts, dtype=np.float64)
    expected = result.tree.probs * result.total
    exp_sum = np.sum(expected)
    want = result.total * math.prod(math.fsum(e.probs) for e in result.tree.active_events)
    rtol = np.finfo(np.float64).eps ** 0.5
    if abs(want - exp_sum) / min(want, exp_sum) > rtol:
        raise ValueError(f"expected total {exp_sum} and walkers times the events' sums {want} "
                         f"differ by more than a relative {rtol}")
    positive = expected > 0
    if np.any(observed[~positive]):
        return 0.0
    df = int(np.count_nonzero(positive)) - 1
    if df == 0:
        return 1.0
    return chi_square_tail(pearson_statistic(observed, expected), df)


def pearson_statistic(observed, expected) -> float:
    """Pearson's sum of (O - E)^2 / E over cells with E > 0."""
    observed, expected = np.asarray(observed, np.float64), np.asarray(expected, np.float64)
    positive = expected > 0
    return float(np.sum((observed[positive] - expected[positive]) ** 2 / expected[positive]))


def chi_square_tail(x: float, df: int) -> float:
    """P(X > x) for X chi-square with integer ``df`` >= 1, without scipy
    (Abramowitz & Stegun 26.4.4-26.4.5): with h = x/2, the sum of h^a e^-h / a!
    over a = df/2 - 1, df/2 - 2, ... >= 0, plus erfc(sqrt h) for odd df. Each
    term goes through its logarithm, so none underflows on its own."""
    h = x / 2.0
    if h <= 0:
        return 1.0
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    log_h = math.log(h)
    terms = (math.exp(a * log_h - h - math.lgamma(a + 1.0))
             for a in (df % 2 / 2 + j for j in range(df // 2)))
    return min(1.0, math.fsum((head, *terms)))


class FrequencyResult(NamedTuple):
    """Empirical per-walker success frequencies over N identical trials."""

    p: float
    trials: int
    frequencies: np.ndarray

    def deviant_fraction(self, eps: float) -> float:
        return float(np.mean(np.abs(self.frequencies - self.p) > eps))


def chernoff_bound(eps: float, trials: int) -> float:
    return 2.0 * math.exp(-2.0 * eps * eps * trials)


def repeated_frequency(p: float, trials: int, n_walkers: int, rng: RngSpec) -> FrequencyResult:
    """Each walker repeats a Bernoulli(p) measurement ``trials`` times.

    Walker i consumes the i-th row of the (n_walkers x trials) uniform block,
    preserving the per-walker determinism contract.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if trials < 1 or n_walkers < 1:
        raise ValueError("trials and n_walkers must be >= 1")
    u = rng.uniforms(n_walkers * trials, "freq").reshape(n_walkers, trials)
    freqs = (u < p).sum(axis=1) / trials
    return FrequencyResult(p, trials, freqs)


# ---------------------------------------------------------------------------
# Interchange


def tree_spec_from_json(data: dict) -> TreeSpec:
    """Parse {"events": [{"probs": [...], "labels": [...]?, "id": ...?},
    {"skip": true}, ...]}."""
    entries = data.get("events") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('tree spec needs an "events" list')
    events = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"event {k}: must be a JSON object, got {entry!r}")
        if entry.get("skip"):
            events.append(SKIP)
            continue
        event_id, probs = entry.get("id", f"t{k + 1}"), entry.get("probs")
        labels = entry.get("labels", [])
        if not (isinstance(event_id, str) and isinstance(probs, list)
                and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in probs)
                and isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise ValueError(f"event {k}: needs skip or numeric probs; id and labels are strings")
        events.append(TreeEvent(event_id, tuple(probs),
                                tuple(labels) if "labels" in entry else None))
    return TreeSpec(tuple(events))


def load_tree_spec(path) -> TreeSpec:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"tree spec {path!r} is not valid JSON: {exc}") from None
    return tree_spec_from_json(data)

