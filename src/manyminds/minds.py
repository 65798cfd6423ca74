"""Persistent-identity mind ensembles with Born-weighted stochastic splitting.

An ensemble is a finite set of labeled minds attached to one observer. At
each measurement event every mind is assigned an outcome by genuinely
stochastic sampling; the set of mind ids never changes, only their branch
histories grow. Two sampling policies are supported:

* independent-local: each observer's minds sample from the observer's own
  (reduced-state) outcome distribution, with no coordination across
  observers;
* jointly-correlated: mind i of every observer receives one shared sample
  from the joint branch distribution, so mind-tuples track whole branches.

All draws are counter-based per (mind, event): the uniform consumed by mind
``i`` at event ``e`` is a pure function of the master seed, the observer/event
scope, and ``i``. Histories are therefore bit-identical across re-runs,
evaluation orders, worker-thread counts and splits of a run into windows.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .quantum import BranchDecomposition, conditional_distribution
from .rng import RngSpec, code_counts, sample_indices

__all__ = [
    "SamplingPolicy",
    "INDEPENDENT_LOCAL",
    "JOINTLY_CORRELATED",
    "SINGLE_MIND",
    "MindEnsemble",
    "ReportCheck",
    "split_local",
    "split_joint",
    "proportions",
    "count_off_support",
    "mismatch_probability",
    "report_correlation",
]


class SamplingPolicy(Enum):
    """How minds split; each value is the name reports print."""

    INDEPENDENT_LOCAL = "independent"
    JOINTLY_CORRELATED = "joint"
    SINGLE_MIND = "independent/single-mind"  # independent-local, one mind per observer


INDEPENDENT_LOCAL = SamplingPolicy.INDEPENDENT_LOCAL
JOINTLY_CORRELATED = SamplingPolicy.JOINTLY_CORRELATED
SINGLE_MIND = SamplingPolicy.SINGLE_MIND


@dataclass(frozen=True)
class MindEnsemble:
    """Fixed set of minds for one observer plus their branch histories.

    ``assignments[k][i]`` is mind i's outcome index at event k, indexing into
    ``outcome_labels[k]``, in a read-only column of the smallest unsigned type
    that holds every index; mind i draws counter ``first + i`` (``first`` starts
    a 4-draw Philox block). Every split returns a new ensemble with one more
    event column.
    """

    observer: str
    size: int
    rng: RngSpec
    policy: SamplingPolicy = INDEPENDENT_LOCAL
    events: tuple[str, ...] = ()
    outcome_labels: tuple[tuple[str, ...], ...] = ()
    assignments: tuple[np.ndarray, ...] = field(default=(), repr=False)
    first: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"ensemble size must be >= 1, got {self.size}")
        if not (len(self.events) == len(self.outcome_labels) == len(self.assignments)):
            raise ValueError("events, outcome_labels and assignments must align")
        frozen = []
        for event, labels, arr in zip(self.events, self.outcome_labels, self.assignments):
            arr = np.asarray(arr)
            if arr.shape != (self.size,):
                raise ValueError("each assignment column must have one entry per mind")
            if arr.min() < 0 or arr.max() >= len(labels):
                raise ValueError(f"event {event!r}: outcome indices must lie in "
                                 f"0..{len(labels) - 1}")
            # a copy, so that freezing it leaves a caller's array writeable
            arr = arr.astype(np.min_scalar_type(len(labels) - 1))
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "assignments", tuple(frozen))

    def event_index(self, event_id: str) -> int:
        try:
            return self.events.index(event_id)
        except ValueError:
            raise KeyError(f"unknown event {event_id!r} for observer {self.observer!r}") from None

    def history(self, index: int) -> tuple[str, ...]:
        return tuple(self.outcome_labels[k][self.assignments[k][index]]
                     for k in range(len(self.events)))


# ---------------------------------------------------------------------------
# Splitting


def _draw(u: np.ndarray, probs: Mapping, outcomes: list, context: str,
          ensembles: list[MindEnsemble]) -> np.ndarray:
    """Index into ``outcomes`` for every mind, by inverse CDF on ``u``.

    ``probs`` maps each history key to a row {outcome: p}: ``()`` with no
    ``ensembles``, one observer's history with one, else a tuple of
    per-observer histories paired by mind index. Each mind walks its history
    columns down the prefixes of the keys, one lookup table per column, to
    the node of its key, which is its row; a history that no key has ends on
    node -1. Rows are dense in ``outcomes`` order; a zero entry is never drawn.
    """
    paths = {}  # each key's labels in column order, for keys of the histories' shape
    for key in probs:
        hists = (key,) if len(ensembles) == 1 else key
        if len(hists) == len(ensembles) and all(isinstance(h, tuple) and len(h) == len(e.events)
                                                for h, e in zip(hists, ensembles)):
            paths[sum(hists, ())] = key
    level, node = ({(): 0}, 0) if paths else ({}, -1)  # node of each prefix at this depth
    columns = [(labels, col) for e in ensembles
               for labels, col in zip(e.outcome_labels, e.assignments)]
    for depth, (labels, col) in enumerate(columns):
        pos = {label: i for i, label in enumerate(labels)}
        # one row per prefix node, and a last row that keeps node -1 on -1
        step, below = np.full((len(level) + 1, len(labels)), -1, np.intp), {}
        for path in paths:
            if path[:depth] in level and path[depth] in pos:
                child = below.setdefault(path[:depth + 1], len(below))
                step[level[path[:depth]], pos[path[depth]]] = child
        level, node = below, step[node, col]
    if np.any(node < 0):
        key = tuple(ens.history(np.argmax(node < 0)) for ens in ensembles)
        key = key[0] if len(ensembles) == 1 else key
        raise KeyError(f"{context}: no distribution for realized history {key!r}")
    rows = [[probs[paths[path]].get(o, 0.0) for o in outcomes] for path in level]
    try:
        return sample_indices(u, rows, node)
    except ValueError:  # name the split and the key of the first row sample_indices refuses
        for path, row in zip(level, rows):
            try:
                sample_indices((), row)
            except ValueError as exc:
                raise ValueError(f"{context} given {paths[path]!r}: {exc}") from None
        raise


def _extend(ens: MindEnsemble, event_id: str, labels: tuple, column) -> MindEnsemble:
    if event_id in ens.events:
        raise ValueError(f"event {event_id!r} already recorded for {ens.observer!r}")
    return replace(ens, events=ens.events + (event_id,),
                   outcome_labels=ens.outcome_labels + (labels,),
                   assignments=ens.assignments + (column,))


def split_local(ensemble: MindEnsemble, event_id: str, probs: Mapping) -> MindEnsemble:
    """Extend every mind's history by one independently sampled outcome.

    ``probs`` is either one distribution over outcome labels (applied to all
    minds) or a mapping from full history tuples to such distributions, for
    sequential measurements where a mind's next outcome is conditioned on the
    branch it already occupies. Both draw by one path, each mind's history
    picking its row of one table; a realized history with no row raises ``KeyError``.
    """
    context = f"split_local({event_id!r})"
    if not probs:
        raise ValueError(f"{context}: empty distribution")
    conditional = all(isinstance(k, tuple) for k in probs)
    if not conditional and any(isinstance(k, tuple) for k in probs):
        raise ValueError(f"{context}: mixed unconditional and conditional keys")
    probs, keyed_by = (probs, [ensemble]) if conditional else ({(): probs}, [])
    labels = tuple(sorted({o for dist in probs.values() for o in dist}))
    u = ensemble.rng.uniforms(ensemble.size, "local", ensemble.observer, event_id,
                              start=ensemble.first)
    chosen = _draw(u, probs, labels, context, keyed_by)
    return _extend(ensemble, event_id, labels, chosen)


def split_joint(ensembles: list[MindEnsemble], event_id: str, dist) -> list[MindEnsemble]:
    """Extend all observers' histories with one shared joint sample per index.

    Mind i of every observer receives the i-th joint draw, so the i-th
    mind-tuple follows a single branch of the joint distribution. ``dist`` is
    * a BranchDecomposition whose subsystems are the observers, in any order, or
    * a mapping from per-observer history tuples to distributions over joint
      outcome tuples (labels in ``ensembles`` order), which conditions each
      mind-tuple's draw on the branch it already occupies.
    """
    if not ensembles:
        raise ValueError("split_joint needs at least one ensemble")
    n, rng, first = ensembles[0].size, ensembles[0].rng, ensembles[0].first
    for ens in ensembles:
        if ens.policy is not JOINTLY_CORRELATED:
            raise ValueError(f"policy mismatch: {ens.observer!r} is {ens.policy.value}, "
                             "split_joint requires jointly-correlated ensembles")
        if ens.size != n:
            raise ValueError(f"size mismatch: {ens.observer!r} has {ens.size} minds, expected {n}")
        if (ens.rng, ens.first) != (rng, first):
            raise ValueError(f"rng mismatch: {ens.observer!r} differs in stream or first mind id")

    order = [ens.observer for ens in ensembles]
    if isinstance(dist, BranchDecomposition):
        if set(dist.subsystems) != set(order):
            raise ValueError(f"decomposition covers {dist.subsystems}, observers are {order}")
        perm = [dist.subsystems.index(obs) for obs in order]
        dist = {(): {tuple(k[p] for p in perm): w for k, w in dist.joint_distribution().items()}}
        keyed_by = []
    elif dist and all(isinstance(k, tuple) and isinstance(row, Mapping)
                      for k, row in dist.items()):
        keyed_by = ensembles
    else:
        raise ValueError("split_joint needs a BranchDecomposition or a mapping from "
                         "per-observer histories to joint distributions")
    tuples = sorted({t for row in dist.values() for t in row})
    if any(len(t) != len(ensembles) for t in tuples):
        raise ValueError(f"joint outcomes must have one label for each of {len(ensembles)} "
                         "observers")
    chosen = _draw(rng.uniforms(n, "joint", event_id, start=first), dist, tuples,
                   f"split_joint({event_id!r})", keyed_by)

    out = []
    for pos, ens in enumerate(ensembles):
        labels = tuple(sorted({t[pos] for t in tuples}))
        lookup = np.asarray([labels.index(t[pos]) for t in tuples],
                            np.min_scalar_type(len(labels) - 1))
        out.append(_extend(ens, event_id, labels, lookup[chosen]))
    return out


# ---------------------------------------------------------------------------
# Inspection


def proportions(ensemble: MindEnsemble, event_id: str) -> dict[str, Fraction]:
    """Exact empirical outcome fractions at one event; they sum to 1 exactly."""
    k = ensemble.event_index(event_id)
    counts = np.bincount(ensemble.assignments[k], minlength=len(ensemble.outcome_labels[k]))
    return {label: Fraction(int(c), ensemble.size)
            for label, c in zip(ensemble.outcome_labels[k], counts)}


# ---------------------------------------------------------------------------
# Mindless-hulk mismatch and report consistency


def mismatch_probability(policy: SamplingPolicy, decomp: BranchDecomposition,
                         trials: int, rng: RngSpec) -> float:
    """Fraction of trials whose two minds occupy outcomes from different branches.

    Trial i pairs mind i of each observer. Under the single-mind
    independent-local policy each observer's mind samples from its local
    marginal, so the pair can land on an outcome combination that belongs to
    no branch of the joint state: a brain then exhibits a record that no mind
    of the other observer is tracking. Under the jointly-correlated policy
    the pair is one joint draw and the mismatch count is zero by
    construction (still counted, not assumed).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(decomp.subsystems) != 2:
        raise ValueError("mismatch probability is defined for two observers")
    if policy not in (JOINTLY_CORRELATED, SINGLE_MIND):
        raise ValueError("independent-local mismatch trials require the single-mind policy "
                         "(one mind per observer per trial)")
    local = {obs: marginal_for(decomp, obs) for obs in decomp.subsystems}
    labels = [tuple(sorted(local[obs])) for obs in decomp.subsystems]

    def count(start, stop):
        pair = [MindEnsemble(obs, stop - start, rng, policy, first=start) for obs in local]
        if policy is JOINTLY_CORRELATED:
            pair = split_joint(pair, "mismatch", decomp)
        else:
            pair = [split_local(ens, "mismatch", local[ens.observer]) for ens in pair]
        return code_counts(stop - start, [ens.assignments[0] for ens in pair],
                           tuple(map(len, labels)))

    return count_off_support(decomp, labels, rng.count_windows(trials, count)) / trials


def count_off_support(decomp: BranchDecomposition,
                      labels: tuple[Sequence[str], Sequence[str]], table: np.ndarray) -> int:
    """How many pairs of a contingency ``table`` (rows ``labels[0]``, columns
    ``labels[1]``, or those counts flat in row order) are not a branch of the
    two-subsystem ``decomp``, i.e. pair minds that track different branches."""
    support = set(decomp.joint_distribution())
    return sum(int(c) for pair, c in zip(product(*labels), np.ravel(table)) if pair not in support)


def marginal_for(decomp: BranchDecomposition, observer: str) -> dict[str, float]:
    """Single-observer outcome distribution from a joint decomposition."""
    pos = decomp.subsystems.index(observer)
    out: dict[str, float] = {}
    for br in decomp.branches:
        out[br.labels[pos]] = out.get(br.labels[pos], 0.0) + br.weight
    return out


@dataclass(frozen=True)
class ReportCheck:
    """Per-observer verdict: does every mind perceive the report its own
    outcome predicts with certainty?"""

    observer: str
    size: int
    consistent: int
    expected: dict[str, str]
    observed: dict[str, dict[str, int]]

    @property
    def all_consistent(self) -> bool:
        return self.consistent == self.size


def report_correlation(decomp: BranchDecomposition, tables: Mapping) -> list[ReportCheck]:
    """Check minds-to-reports consistency after a communication step.

    ``tables`` maps each observer to ``(labels, table)``, where ``table[i, j]``
    counts its minds with own outcome ``labels[0][i]`` that perceive report
    ``labels[1][j]``. The post-communication decomposition must pair the
    observer's own outcome with a unique perceived report of the other wing,
    held in the subsystem named ``<observer>_report``; every mind is then
    required to carry exactly that report.
    """
    checks = []
    for observer, ((own_labels, seen_labels), table) in tables.items():
        if f"{observer}_report" not in decomp.subsystems:
            raise ValueError(f"communication step missing: no {observer}_report recorder")
        cond = _deterministic_report_map(decomp, observer, f"{observer}_report")
        consistent = 0
        observed: dict[str, dict[str, int]] = {}
        for own, row in zip(own_labels, table.tolist()):
            if not any(row):
                continue
            if own not in cond:
                raise KeyError(own)
            observed[own] = {seen: c for seen, c in zip(seen_labels, row) if c}
            if cond[own] in seen_labels:
                consistent += row[seen_labels.index(cond[own])]
        checks.append(ReportCheck(observer, int(table.sum()), consistent, cond, observed))
    return checks


def _deterministic_report_map(decomp: BranchDecomposition, own: str, report: str,
                              ) -> dict[str, str]:
    cond = conditional_distribution(decomp, [own], [report])
    out = {}
    for (outcome,), dist in cond.items():
        if len(dist) != 1:
            raise ValueError(f"report for {own!r}={outcome!r} is not determined by the state")
        out[outcome] = next(iter(dist))[0]
    return out

