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
evaluation orders, and worker-thread counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .quantum import ATOL, BranchDecomposition
from .rng import RngSpec, sample_indices

__all__ = [
    "PolicyKind",
    "SamplingPolicy",
    "INDEPENDENT_LOCAL",
    "JOINTLY_CORRELATED",
    "SINGLE_MIND",
    "MindEnsemble",
    "ReportCheck",
    "init_ensemble",
    "split_local",
    "split_joint",
    "proportions",
    "count_off_support",
    "mismatch_probability",
    "report_correlation",
]


class PolicyKind(Enum):
    INDEPENDENT_LOCAL = "independent"
    JOINTLY_CORRELATED = "joint"


@dataclass(frozen=True)
class SamplingPolicy:
    kind: PolicyKind
    single_mind: bool = False

    @property
    def name(self) -> str:
        return self.kind.value + ("/single-mind" if self.single_mind else "")


INDEPENDENT_LOCAL = SamplingPolicy(PolicyKind.INDEPENDENT_LOCAL)
JOINTLY_CORRELATED = SamplingPolicy(PolicyKind.JOINTLY_CORRELATED)
SINGLE_MIND = SamplingPolicy(PolicyKind.INDEPENDENT_LOCAL, single_mind=True)


MAX_OUTCOMES = int(np.iinfo(np.int16).max)  # outcomes per event that an int16 column indexes


@dataclass(frozen=True)
class MindEnsemble:
    """Fixed set of minds for one observer plus their branch histories.

    ``assignments[k][i]`` is mind i's outcome index at event k, indexing into
    ``outcome_labels[k]``. The mind population is fixed at construction; every
    split returns a new ensemble with one more event column.
    """

    observer: str
    size: int
    rng: RngSpec
    policy: SamplingPolicy = INDEPENDENT_LOCAL
    events: tuple[str, ...] = ()
    outcome_labels: tuple[tuple[str, ...], ...] = ()
    assignments: tuple[np.ndarray, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"ensemble size must be >= 1, got {self.size}")
        if not (len(self.events) == len(self.outcome_labels) == len(self.assignments)):
            raise ValueError("events, outcome_labels and assignments must align")
        frozen = []
        for event, labels, arr in zip(self.events, self.outcome_labels, self.assignments):
            if len(labels) > MAX_OUTCOMES:
                raise ValueError(f"event {event!r} has {len(labels)} outcomes; int16 "
                                 f"assignment columns hold at most {MAX_OUTCOMES}")
            arr = np.asarray(arr)
            if arr.shape != (self.size,):
                raise ValueError("each assignment column must have one entry per mind")
            # checked before the int16 cast, which would wrap 65,537 to 1
            if arr.min() < 0 or arr.max() >= len(labels):
                raise ValueError(f"event {event!r}: outcome indices must lie in "
                                 f"0..{len(labels) - 1}")
            arr = arr.astype(np.int16)
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "assignments", tuple(frozen))

    def event_index(self, event_id: str) -> int:
        try:
            return self.events.index(event_id)
        except ValueError:
            raise KeyError(f"unknown event {event_id!r} for observer {self.observer!r}") from None

    def outcomes(self, event_id: str) -> np.ndarray:
        """Decode helper: outcome labels of all minds at one event, as an
        object array. Computations use the ``assignments`` index columns."""
        k = self.event_index(event_id)
        return np.asarray(self.outcome_labels[k], dtype=object)[self.assignments[k]]

    def history(self, index: int) -> tuple[str, ...]:
        return tuple(self.outcome_labels[k][self.assignments[k][index]]
                     for k in range(len(self.events)))


def init_ensemble(observer: str, n: int, rng: RngSpec,
                  policy: SamplingPolicy = INDEPENDENT_LOCAL) -> MindEnsemble:
    """Fresh ensemble with empty histories; single-mind policies force n to 1."""
    if n < 1:
        raise ValueError(f"ensemble size must be >= 1, got {n}")
    if policy.single_mind:
        n = 1
    return MindEnsemble(observer, n, rng, policy)


# ---------------------------------------------------------------------------
# Splitting


def _draw(u: np.ndarray, probs: Mapping, outcomes: list, context: str,
          ensembles: list[MindEnsemble] | None = None) -> np.ndarray:
    """Index into ``outcomes`` for every mind, by inverse CDF on ``u``.

    With ``ensembles`` None, ``probs`` is one row {outcome: p} for all minds.
    Otherwise it maps each realized history key (one observer's history, or
    a tuple of per-observer histories paired by mind index) to the row for
    the minds on that history. Rows are written densely in ``outcomes``
    order; a zero entry is an empty bin that is never drawn.
    """
    def row(dist, where):
        total = sum(dist.values())
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"{where}: probability mass is {total}, expected 1")
        if any(p < 0 for p in dist.values()):
            raise ValueError(f"{where}: negative probability")
        return [dist.get(o, 0.0) for o in outcomes]

    if ensembles is None:
        return sample_indices(u, row(probs, context))
    columns = [col for ens in ensembles for col in ens.assignments]
    radix = [len(labels) for ens in ensembles for labels in ens.outcome_labels]
    codes = np.ravel_multi_index(columns, radix) if columns else np.zeros(len(u), np.int64)
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    chosen = np.empty(len(u), dtype=np.int64)
    for cls, i in enumerate(first.tolist()):
        key = tuple(ens.history(i) for ens in ensembles)
        key = key[0] if len(ensembles) == 1 else key
        if key not in probs:
            raise KeyError(f"{context}: no distribution for realized history {key!r}")
        mask = inverse == cls
        chosen[mask] = sample_indices(u[mask], row(probs[key], f"{context} given {key!r}"))
    return chosen


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
    branch it already occupies.
    """
    context = f"split_local({event_id!r})"
    if not probs:
        raise ValueError(f"{context}: empty distribution")
    conditional = all(isinstance(k, tuple) for k in probs)
    if not conditional and any(isinstance(k, tuple) for k in probs):
        raise ValueError(f"{context}: mixed unconditional and conditional keys")
    rows = probs.values() if conditional else (probs,)
    labels = tuple(sorted({o for dist in rows for o in dist}))
    u = ensemble.rng.uniforms(ensemble.size, "local", ensemble.observer, event_id)
    chosen = _draw(u, probs, labels, context, [ensemble] if conditional else None)
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
    n = ensembles[0].size
    rng = ensembles[0].rng
    for ens in ensembles:
        if ens.policy.kind is not PolicyKind.JOINTLY_CORRELATED:
            raise ValueError(f"policy mismatch: {ens.observer!r} is {ens.policy.name}, "
                             "split_joint requires jointly-correlated ensembles")
        if ens.size != n:
            raise ValueError(f"size mismatch: {ens.observer!r} has {ens.size} minds, expected {n}")
        if ens.rng != rng:
            raise ValueError(f"rng mismatch: {ens.observer!r} uses a different stream spec")

    order = [ens.observer for ens in ensembles]
    if isinstance(dist, BranchDecomposition):
        if set(dist.subsystems) != set(order):
            raise ValueError(f"decomposition covers {dist.subsystems}, observers are {order}")
        perm = [dist.subsystems.index(obs) for obs in order]
        dist = {tuple(k[p] for p in perm): w for k, w in dist.joint_distribution().items()}
        rows, keyed_by = (dist,), None
    elif dist and all(isinstance(k, tuple) and isinstance(row, Mapping)
                      for k, row in dist.items()):
        rows, keyed_by = dist.values(), ensembles
    else:
        raise ValueError("split_joint needs a BranchDecomposition or a mapping from "
                         "per-observer histories to joint distributions")
    tuples = sorted({t for row in rows for t in row})
    if any(len(t) != len(ensembles) for t in tuples):
        raise ValueError(f"joint outcomes must have one label for each of {len(ensembles)} "
                         "observers")
    chosen = _draw(rng.uniforms(n, "joint", event_id), dist, tuples,
                   f"split_joint({event_id!r})", keyed_by)

    out = []
    for pos, ens in enumerate(ensembles):
        labels = tuple(sorted({t[pos] for t in tuples}))
        lookup = np.asarray([labels.index(t[pos]) for t in tuples])
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

    Trial i pairs mind i of each observer's ``trials``-mind ensemble. Under
    the single-mind independent-local policy each observer's mind samples
    from its local marginal, so the pair can land on an outcome combination
    that belongs to no branch of the joint state: a brain then exhibits a
    record that no mind of the other observer is tracking. Under the
    jointly-correlated policy the pair is one joint draw and the mismatch
    count is zero by construction (still counted, not assumed).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(decomp.subsystems) != 2:
        raise ValueError("mismatch probability is defined for two observers")
    minds = [MindEnsemble(obs, trials, rng, policy) for obs in decomp.subsystems]
    if policy.kind is PolicyKind.JOINTLY_CORRELATED:
        a, b = split_joint(minds, "mismatch", decomp)
    elif not policy.single_mind:
        raise ValueError("independent-local mismatch trials require the single-mind policy "
                         "(one mind per observer per trial)")
    else:
        a, b = (split_local(ens, "mismatch", marginal_for(decomp, ens.observer))
                for ens in minds)
    labels = (a.outcome_labels[0], b.outcome_labels[0])
    return count_off_support(decomp, labels, a.assignments[0], b.assignments[0]) / trials


def count_off_support(decomp: BranchDecomposition,
                      labels: tuple[Sequence[str], Sequence[str]],
                      ia: np.ndarray, ib: np.ndarray) -> int:
    """How many pairs (labels[0][ia[i]], labels[1][ib[i]]) are not a branch of
    the two-subsystem ``decomp``, i.e. pair minds that track different branches."""
    labels_a, labels_b = labels
    support = np.zeros((len(labels_a), len(labels_b)), dtype=bool)
    for a, b in decomp.joint_distribution():
        if a in labels_a and b in labels_b:
            support[labels_a.index(a), labels_b.index(b)] = True
    return int(np.count_nonzero(~support[ia, ib]))


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


def report_correlation(ensembles: list[MindEnsemble], decomp: BranchDecomposition,
                       measure_event: str, report_event: str) -> list[ReportCheck]:
    """Check minds-to-reports consistency after a communication step.

    For each observer, the post-communication decomposition must pair the
    observer's own outcome with a unique perceived report of the other wing,
    held in the subsystem named ``<observer>_report``;
    every mind is then required to carry exactly that report in its history.
    """
    checks = []
    for ens in ensembles:
        if report_event not in ens.events:
            raise ValueError(f"communication step missing: {ens.observer!r} has no "
                             f"{report_event!r} event")
        cond = _deterministic_report_map(decomp, ens.observer, f"{ens.observer}_report")
        k_own, k_seen = ens.event_index(measure_event), ens.event_index(report_event)
        own_labels, seen_labels = ens.outcome_labels[k_own], ens.outcome_labels[k_seen]
        width = len(seen_labels)
        # table[i, j]: minds with own outcome i that perceive report j
        table = np.bincount(ens.assignments[k_own].astype(np.int64) * width
                            + ens.assignments[k_seen], minlength=len(own_labels) * width)
        consistent = 0
        observed: dict[str, dict[str, int]] = {}
        for own, row in zip(own_labels, table.reshape(-1, width).tolist()):
            if not any(row):
                continue
            if own not in cond:
                raise KeyError(own)
            observed[own] = {seen: c for seen, c in zip(seen_labels, row) if c}
            if cond[own] in seen_labels:
                consistent += row[seen_labels.index(cond[own])]
        checks.append(ReportCheck(ens.observer, ens.size, consistent, cond, observed))
    return checks


def _deterministic_report_map(decomp: BranchDecomposition, own: str, report: str,
                              ) -> dict[str, str]:
    from .quantum import conditional_distribution

    cond = conditional_distribution(decomp, [own], [report])
    out = {}
    for (outcome,), dist in cond.items():
        if len(dist) != 1:
            raise ValueError(f"report for {own!r}={outcome!r} is not determined by the state")
        out[outcome] = next(iter(dist))[0]
    return out

