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

import numpy as np
from scipy import stats

from .quantum import ATOL
from .rng import RngSpec, sample_indices

__all__ = [
    "TreeEvent",
    "TreeSpec",
    "Tree",
    "WalkResult",
    "FrequencyResult",
    "SKIP",
    "build_tree",
    "random_walk",
    "repeated_frequency",
    "chernoff_bound",
    "chi_square_pvalue",
    "tree_spec_from_json",
    "load_tree_spec",
]


# repeated_frequency draws from the "tree" namespace under this scope, so no
# tree event may take it as its id
FREQ_SCOPE = "freq"


@dataclass(frozen=True)
class TreeEvent:
    """One slot in the sequence; ``probs is None`` means nothing is measured."""

    event_id: str
    probs: tuple[float, ...] | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.event_id == FREQ_SCOPE:
            raise ValueError(f"event id {FREQ_SCOPE!r} is reserved for repeated_frequency")
        if self.probs is None:
            if self.labels is not None:
                raise ValueError(f"{self.event_id}: labels given for a skipped slot")
            return
        probs = tuple(float(p) for p in self.probs)
        if len(probs) < 1:
            raise ValueError(f"{self.event_id}: need at least one outcome")
        if any(p < 0 for p in probs):
            raise ValueError(f"{self.event_id}: negative probability")
        if abs(sum(probs) - 1.0) > ATOL:
            raise ValueError(f"{self.event_id}: probabilities sum to {sum(probs)}, expected 1")
        labels = self.labels
        if labels is None:
            labels = tuple(str(i + 1) for i in range(len(probs)))
        elif len(labels) != len(probs):
            raise ValueError(f"{self.event_id}: {len(labels)} labels for {len(probs)} outcomes")
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
    """Leaf paths (over measured slots only) with exact product probabilities."""

    spec: TreeSpec
    paths: tuple[tuple[str, ...], ...]
    probs: np.ndarray = field(repr=False)

    @property
    def active_events(self) -> tuple[TreeEvent, ...]:
        return tuple(e for e in self.spec.events if not e.skip)

    @property
    def leaf_table(self) -> dict[tuple[str, ...], float]:
        return {p: float(w) for p, w in zip(self.paths, self.probs)}


def build_tree(spec: TreeSpec) -> Tree:
    active = [e for e in spec.events if not e.skip]
    paths: list[tuple[str, ...]] = [()]
    probs = np.array([1.0])
    for event in active:
        paths = [p + (label,) for p in paths for label in event.labels]
        probs = np.outer(probs, np.asarray(event.probs)).ravel()
    if abs(probs.sum() - 1.0) > ATOL:
        raise ValueError(f"leaf probabilities sum to {probs.sum()}, expected 1")
    return Tree(spec, tuple(paths), probs)


@dataclass(frozen=True)
class WalkResult:
    """Per-leaf walker counts next to the exact leaf probabilities."""

    tree: Tree
    counts: np.ndarray = field(repr=False)
    total: int = 0

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("leaf counts do not add up to the walker total")

    @property
    def count_table(self) -> dict[tuple[str, ...], int]:
        return {p: int(c) for p, c in zip(self.tree.paths, self.counts)}

    def frequency(self, path: tuple[str, ...]) -> float:
        return self.count_table[path] / self.total

    def event_marginal(self, event_id: str) -> dict[str, float]:
        """Fraction of walkers per outcome of one event, summed over leaves."""
        active = self.tree.active_events
        pos = next((i for i, e in enumerate(active) if e.event_id == event_id), None)
        if pos is None:
            raise KeyError(f"unknown event {event_id!r}")
        # one row per outcome, holding its leaves in leaf order; a sequential
        # cumsum adds each row's fractions in the order a loop over leaves would
        radix = [len(e.labels) for e in active]
        rows = np.moveaxis(self.counts.reshape(radix), pos, 0).reshape(radix[pos], -1)
        sums = np.cumsum(rows / self.total, axis=1)[:, -1]
        return dict(zip(active[pos].labels, sums.tolist()))


def random_walk(tree: Tree, n_walkers: int, rng: RngSpec) -> WalkResult:
    """Send n walkers down the tree; walker i's step at each event is draw i
    of that event's stream, so trajectories never depend on walker count."""
    if n_walkers < 1:
        raise ValueError(f"n_walkers must be >= 1, got {n_walkers}")
    active = tree.active_events
    leaf = np.zeros(n_walkers, dtype=np.int64)
    for event in active:
        u = rng.uniforms(n_walkers, "tree", event.event_id)
        leaf = leaf * len(event.probs) + sample_indices(u, event.probs)
    counts = np.bincount(leaf, minlength=len(tree.paths))
    return WalkResult(tree, counts, n_walkers)


def chi_square_pvalue(result: WalkResult) -> float:
    """Goodness of fit of walker counts against the exact leaf probabilities."""
    return float(stats.chisquare(result.counts, result.tree.probs * result.total).pvalue)


@dataclass(frozen=True)
class FrequencyResult:
    """Empirical per-walker success frequencies over N identical trials."""

    p: float
    trials: int
    frequencies: np.ndarray = field(repr=False)

    @property
    def mean_frequency(self) -> float:
        return float(self.frequencies.mean())

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
    u = rng.uniforms(n_walkers * trials, "tree", FREQ_SCOPE).reshape(n_walkers, trials)
    freqs = (u < p).sum(axis=1) / trials
    return FrequencyResult(p, trials, freqs)


# ---------------------------------------------------------------------------
# Interchange


def tree_spec_from_json(data: dict) -> TreeSpec:
    """Parse {"events": [{"probs": [...], "labels": [...]?, "id": ...?},
    {"skip": true}, ...]}."""
    if "events" not in data:
        raise ValueError('tree spec needs an "events" list')
    events = []
    for k, entry in enumerate(data["events"]):
        if entry.get("skip"):
            events.append(SKIP)
            continue
        if "probs" not in entry:
            raise ValueError(f"event {k}: needs probs or skip")
        events.append(TreeEvent(
            entry.get("id", f"t{k + 1}"),
            tuple(entry["probs"]),
            tuple(entry["labels"]) if "labels" in entry else None,
        ))
    return TreeSpec(tuple(events))


def load_tree_spec(path) -> TreeSpec:
    with open(path) as fh:
        return tree_spec_from_json(json.load(fh))

