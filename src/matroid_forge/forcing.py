"""Finite-depth simulation of one extension step of the base-family construction.

Conditions are finite partial 0/1 assignments on the elements strictly
between a task's lower and upper set, ordered by reverse inclusion.  For
each class representative B that the task's lower set is almost spanned by,
the `gain` dense sets force enough fresh elements to 1 that the new
candidate base gains arbitrary rank over B; for each representative that
almost spans into the upper set, the `guard` dense sets force finitely many
elements to 0 so that B keeps arbitrary rank over what remains.  A filter
meeting finitely many dense sets is generated by its strongest element, so a
single condition stands in for the generic filter at finite depth; the step
certificate records exactly which memberships that condition determines and
re-verifies every rank inequality it claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable

from .core import Verdict
from .errors import BoundError, ClaimError, FamilyError, SchemaError, SpecError, TaskError
from .finitary import INFINITE, FinitaryMatroid, removal_witness
from .gentrunc import TruncationFamily, require_task_pair, settling_member
from .templates import TemplateSet

# Declared bound on the depth of one step, checked before any work; the
# environment does not lower it.  A step's work grows about quadratically
# with its depth.
STEP_MAX_DEPTH = 1000


@dataclass(frozen=True)
class Condition:
    """Finite partial function to {0,1}; stronger means defined on more elements."""

    ones: frozenset = frozenset()
    zeros: frozenset = frozenset()

    def __post_init__(self):
        if self.ones & self.zeros:
            raise SpecError("condition assigns both values to an element")

    @property
    def domain(self) -> frozenset:
        return self.ones | self.zeros

    def assign(self, elements: Iterable[int], bit: int) -> "Condition":
        fresh = frozenset(int(e) for e in elements)
        if bit == 1:
            return Condition(self.ones | fresh, self.zeros)
        return Condition(self.ones, self.zeros | fresh)

    def extends(self, other: "Condition") -> bool:
        return self.ones >= other.ones and self.zeros >= other.zeros

    def __str__(self) -> str:
        items = sorted([(e, 1) for e in self.ones] + [(e, 0) for e in self.zeros])
        return "{" + ", ".join(f"{e}->{v}" for e, v in items) + "}"


@dataclass(frozen=True)
class Task:
    """A nested independent pair (lower, upper) with infinite gap."""

    lower: TemplateSet
    upper: TemplateSet

    @cached_property
    def gap(self) -> TemplateSet:
        return self.upper - self.lower


def make_task(matroid: FinitaryMatroid, lower, upper) -> Task:
    """The task on a nested independent pair (`require_task_pair`) with infinite gap."""
    lo, up = require_task_pair(matroid, lower, upper)
    if not (up - lo).is_infinite:
        raise TaskError("the gap between lower and upper set must be infinite")
    return Task(lo, up)


def check_claim_preconditions(
    matroid: FinitaryMatroid,
    family: TruncationFamily,
    task: Task,
) -> Verdict:
    """Verify the two structural claims a step needs, on the representatives.

    Claim 1 says no class representative is almost spanned by the task's
    lower set, claim 2 that none almost spans its upper set; a violation is
    tagged `claim1` or `claim2` with the first violating representative.
    When that representative's class has another member that settles the
    task outright (lies between its sets or contains the upper set), the tag
    is `task-satisfiable-directly` with witness (representative, member).
    Compatibility of almost-spanning with strong equivalence makes the
    representative check sufficient for the whole classes.  A family built
    on another schema or with a comparable pair is a caller error, not a verdict.
    """
    family.require_schema(matroid)
    if family.comparable is not None:
        raise FamilyError("representatives must be pairwise incomparable; {} and {} are not"
                          .format(*(rep.directive() for rep in family.comparable)))
    violators = chain(
        ((1, rep) for rep in family if matroid.relative_rank(rep, task.lower) != INFINITE),
        ((2, rep) for rep in family if matroid.relative_rank(task.upper, rep) != INFINITE),
    )
    claim, rep = next(violators, (None, None))
    if rep is None:
        return Verdict.passed()
    satisfier = settling_member(matroid, rep, task.lower, task.upper)
    if satisfier is not None and satisfier != rep:
        return Verdict.violation("task-satisfiable-directly", rep, satisfier)
    return Verdict.violation(f"claim{claim}", rep)


def _check_domain(condition: Condition, task: Task) -> None:
    stray = [e for e in condition.domain if e not in task.gap]
    if stray:
        raise SpecError(f"condition domain must lie inside the task gap; {sorted(stray)} do not")


def _gain_rank(matroid: FinitaryMatroid, condition: Condition, rep: TemplateSet, task: Task):
    """Relative rank of the condition's 1-part over the representative."""
    return matroid.relative_rank(TemplateSet.from_finite(condition.ones), rep)


def _guard_rank(matroid: FinitaryMatroid, condition: Condition, rep: TemplateSet, task: Task):
    """Relative rank of the representative over the upper set less the 0-part."""
    return matroid.relative_rank(rep, task.upper - TemplateSet.from_finite(condition.zeros))


def _meet_gain(matroid: FinitaryMatroid, condition: Condition, rep: TemplateSet, level: int,
               task: Task, ranks: dict, pools: dict) -> Condition:
    """Extension into the gain dense set for (rep, level), keeping the ledger exact.

    `ranks` maps each gain representative to the relative rank of the
    condition's 1-part over it, and every assignment updates each entry by
    `rank_change` on the blocks the new elements touch; `pools` caches each
    representative's pool for the step.
    """
    rank = ranks[rep]
    if rank >= level:
        return condition
    pool = pools.get(rep)
    if pool is None:
        pool = pools[rep] = matroid.max_independent_subtemplate(task.gap - rep, over=rep)
        if not pool.is_infinite:
            raise SchemaError("no infinite independent pool over the representative")
    taken, ones = condition.domain, set(condition.ones)
    fresh = (m for m in pool.iter_members() if m not in taken)
    while rank < level:
        e = next(fresh)
        rank += matroid.rank_change(ones, rep, add=[e])
        ones.add(e)
    added = ones - condition.ones
    for other in ranks:
        if other != rep:
            ranks[other] += matroid.rank_change(condition.ones, other, add=added)
    ranks[rep] = rank
    return condition.assign(added, 1)


def _meet_guard(matroid: FinitaryMatroid, condition: Condition, rep: TemplateSet, level: int,
                task: Task, ranks: dict, cores: dict) -> Condition:
    """Extension into the guard dense set for (rep, level), keeping the ledger exact.

    `ranks` maps each guard representative to its relative rank over the
    upper set less the condition's 0-part, updated by `rank_change` on the
    blocks the witness touches; `cores` caches each representative's core
    for the step.
    """
    if ranks[rep] >= level:
        return condition
    core = cores.get(rep)
    if core is None:
        core = cores[rep] = matroid.max_independent_subtemplate(rep, over=task.lower)
        if not core.is_infinite:
            raise SchemaError("representative collapses over the lower set")
    witness = removal_witness(
        matroid, core, task.gap, condition.domain, level, over=task.lower
    )
    extended = condition.assign(witness, 0)
    remaining = task.upper - TemplateSet.from_finite(condition.zeros)
    for other in ranks:
        ranks[other] += matroid.rank_change(other, remaining, remove=witness)
    if ranks[rep] < level:
        raise SchemaError("guard extension failed verification")
    return extended


def dense_extend_gain(
    matroid: FinitaryMatroid,
    condition: Condition,
    rep: TemplateSet,
    level: int,
    task: Task,
) -> tuple[Condition, int | float]:
    """Weakest-effort extension into the gain dense set for (rep, level).

    Forces fresh gap elements to 1, smallest id first, until the 1-part has
    relative rank at least `level` over the representative, and returns the
    extension with that rank.  Requires the lower set to be almost spanned
    by the representative and an infinite independent-over-rep pool inside
    the gap (which the step preconditions guarantee).  Never touches
    already-assigned elements.
    """
    _check_domain(condition, task)
    if matroid.relative_rank(task.lower, rep) == INFINITE:
        raise SpecError("gain extension needs the lower set almost spanned by the representative")
    ranks = {rep: _gain_rank(matroid, condition, rep, task)}
    extended = _meet_gain(matroid, condition, rep, level, task, ranks, {})
    return extended, ranks[rep]


def dense_extend_guard(
    matroid: FinitaryMatroid,
    condition: Condition,
    rep: TemplateSet,
    level: int,
    task: Task,
) -> tuple[Condition, int | float]:
    """Weakest-effort extension into the guard dense set for (rep, level).

    Forces a finite removal witness to 0 so the representative keeps
    relative rank at least `level` over the remaining upper set, and returns
    the extension with that rank: the entry rank plus its change on the
    blocks the witness touches.  Requires the representative to almost span
    into the upper set and an infinite part of it independent over the
    lower set.
    """
    _check_domain(condition, task)
    if matroid.relative_rank(rep, task.upper) == INFINITE:
        raise SpecError("guard extension needs the representative to almost span the upper set")
    ranks = {rep: _guard_rank(matroid, condition, rep, task)}
    extended = _meet_guard(matroid, condition, rep, level, task, ranks, {})
    return extended, ranks[rep]


@dataclass(frozen=True)
class DenseEvidence:
    """One dense set met: kind, representative, level, assignments added, verified rank."""

    kind: str
    rep: TemplateSet
    level: int
    added: tuple
    value: float

    def __str__(self) -> str:
        frag = ", ".join(f"{e}->{v}" for e, v in self.added) or "-"
        return f"{self.kind} rep=({self.rep.directive()}) n={self.level} add=[{frag}] rank={self.value}"


@dataclass(frozen=True)
class StepCertificate:
    """What one finite-depth step determined, with re-verified rank evidence.

    forced_in is the lower set plus the elements assigned 1 (a template;
    finite exactly when the lower set is); excluded is the finite 0-part.
    Only finitely many memberships of the eventual candidate base are
    determined at finite depth, and the certificate says exactly those.
    """

    depth: int
    task: Task
    condition: Condition
    met: tuple
    forced_in: TemplateSet
    excluded: frozenset
    gain_evidence: tuple
    guard_evidence: tuple

    def lines(self) -> list[str]:
        out = [f"depth {self.depth}", f"condition {self.condition}"]
        out += [f"met {m}" for m in self.met]
        out.append(f"forced-in {self.forced_in.directive()}")
        out.append("excluded {" + ",".join(str(e) for e in sorted(self.excluded)) + "}")
        for rep, value in self.gain_evidence:
            out.append(f"evidence gain rep=({rep.directive()}) rank={value} >= {self.depth}")
        for rep, value in self.guard_evidence:
            out.append(f"evidence guard rep=({rep.directive()}) rank={value} >= {self.depth}")
        return out


def verify_certificate(matroid: FinitaryMatroid, cert: StepCertificate) -> bool:
    """Independently recompute every inequality a certificate claims.

    Each distinct (kind, representative) rank is computed once, from the
    certificate's condition and task, and must reach the largest level any
    met entry claims for that pair and, for an evidence pair, the depth.
    Every recorded evidence value must equal the rank recomputed for its
    pair; no other recorded value is trusted.
    """
    evidence = [("gain", rep, value) for rep, value in cert.gain_evidence]
    evidence += [("guard", rep, value) for rep, value in cert.guard_evidence]
    claims = [(e.kind, e.rep, e.level) for e in cert.met]
    claims += [(kind, rep, cert.depth) for kind, rep, _ in evidence]
    need: dict = {}
    for kind, rep, level in claims:
        need[kind, rep] = max(need.get((kind, rep), level), level)
    ranks: dict = {}
    for (kind, rep), level in need.items():
        rank_of = _gain_rank if kind == "gain" else _guard_rank
        ranks[kind, rep] = rank_of(matroid, cert.condition, rep, cert.task)
        if ranks[kind, rep] < level:
            return False
    return all(ranks[kind, rep] == value for kind, rep, value in evidence)


def forcing_step(
    matroid: FinitaryMatroid,
    family: TruncationFamily,
    task: Task,
    depth: int,
) -> StepCertificate:
    """Run one step at finite depth: meet every dense set with level <= depth.

    Dense sets are folded level by level (all gain sets for level n in
    representative order, then all guard sets), so the condition at depth N+1
    extends the one at depth N verbatim.  Each (kind, representative) rank is
    kept by a ledger that every extension updates on the blocks its new
    elements touch; gain ranks start at 0, guard ranks at r(rep / upper).  The
    final ledgers are the evidence, which `verify_certificate`, the one
    re-check, holds to the window-wide ranks by equality.  A depth past
    `STEP_MAX_DEPTH` is refused before the claim preconditions are checked.
    Claim precondition failures propagate as ClaimError.
    """
    if depth < 0:
        raise SpecError("depth must be a natural number")
    if depth > STEP_MAX_DEPTH:
        raise BoundError(f"forcing depth limited to {STEP_MAX_DEPTH}, got {depth}")
    claims = check_claim_preconditions(matroid, family, task)
    if not claims:
        raise ClaimError(claims)
    # the rank ledgers: gain ranks start at 0, guard ranks at r(rep / upper)
    gains = {r: 0 for r in family if matroid.relative_rank(task.lower, r) != INFINITE}
    guards = {r: rank for r in family
              if (rank := matroid.relative_rank(r, task.upper)) != INFINITE}
    pools: dict = {}
    cores: dict = {}
    condition = Condition()
    met: list[DenseEvidence] = []
    for level in range(1, depth + 1):
        for rep in gains:
            grown = _meet_gain(matroid, condition, rep, level, task, gains, pools)
            added = tuple((e, 1) for e in sorted(grown.ones - condition.ones))
            met.append(DenseEvidence("gain", rep, level, added, gains[rep]))
            condition = grown
        for rep in guards:
            grown = _meet_guard(matroid, condition, rep, level, task, guards, cores)
            added = tuple((e, 0) for e in sorted(grown.zeros - condition.zeros))
            met.append(DenseEvidence("guard", rep, level, added, guards[rep]))
            condition = grown
    cert = StepCertificate(
        depth=depth,
        task=task,
        condition=condition,
        met=tuple(met),
        forced_in=task.lower | TemplateSet.from_finite(condition.ones),
        excluded=condition.zeros,
        gain_evidence=tuple(gains.items()),
        guard_evidence=tuple(guards.items()),
    )
    if not verify_certificate(matroid, cert):
        raise SchemaError("certificate failed independent re-verification")
    return cert


def seed_family(matroid: FinitaryMatroid, prefix: str) -> TruncationFamily:
    """Pairwise-incomparable seed classes indexed by a finite bit string.

    Position n of the prefix picks between two nested infinite index sets
    (the sparser one sits strictly inside the denser one), mapped through the
    ascending enumeration of the schema's canonical base.  Distinct prefixes
    differing at a common position therefore merge into a comparable family.
    """
    if not prefix or any(ch not in "01" for ch in prefix):
        raise SpecError("prefix must be a non-empty string of 0s and 1s")
    base = matroid.canonical_base()
    # position i: residue 2^i of period 2^(i+1) for a 1, of period 2^(i+2) for a 0
    reps = [base.select(TemplateSet(1 << (i + 2 - int(ch)), [1 << i]))
            for i, ch in enumerate(prefix)]
    family = TruncationFamily.build(matroid, reps)
    if family.comparable is not None:
        raise FamilyError("seed construction produced comparable representatives")
    return family
