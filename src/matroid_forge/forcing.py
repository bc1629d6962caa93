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

from .errors import ClaimError, FamilyError, SchemaError, SpecError, TaskError
from .finitary import INFINITE, FinitaryMatroid, removal_witness
from .gentrunc import TruncationFamily, class_member
from .templates import TemplateSet


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
    lo = TemplateSet.coerce(lower)
    up = TemplateSet.coerce(upper)
    if not matroid.certify(lo):
        raise TaskError("lower set is not independent")
    if not matroid.certify(up):
        raise TaskError("upper set is not independent")
    if not lo.issubset(up):
        raise TaskError("lower set must be contained in the upper set")
    if not (up - lo).is_infinite:
        raise TaskError("the gap between lower and upper set must be infinite")
    return Task(lo, up)


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of the structural precondition check for one step.

    status is one of 'ok', 'claim1-violated', 'claim2-violated',
    'task-satisfiable-directly'.  The first claim says no class
    representative is almost spanned by the task's lower set; the second
    says none almost spans the task's upper set.  When the first violating
    representative's class has a member that settles the task outright (lies
    between its sets or contains the upper set) and that member is not the
    representative itself, the satisfier is reported instead.
    """

    status: str
    violator: TemplateSet | None = None
    satisfier: TemplateSet | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        if self.status == "task-satisfiable-directly":
            return f"task-satisfiable-directly({self.satisfier.directive()})"
        return f"{self.status}({self.violator.directive()})"


def check_claim_preconditions(
    matroid: FinitaryMatroid,
    family: TruncationFamily,
    task: Task,
) -> ClaimResult:
    """Verify the two structural claims a step needs, on the representatives.

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
        return ClaimResult("ok")
    between = class_member(matroid, rep, task.lower, task.upper)
    satisfier = between or class_member(matroid, rep, task.upper)
    if satisfier is not None and satisfier != rep:
        return ClaimResult("task-satisfiable-directly", rep, satisfier)
    return ClaimResult(f"claim{claim}-violated", rep)


def _check_domain(condition: Condition, task: Task) -> None:
    stray = [e for e in condition.domain if e not in task.gap]
    if stray:
        raise SpecError(f"condition domain must lie inside the task gap; {sorted(stray)} do not")


def dense_extend_gain(
    matroid: FinitaryMatroid,
    condition: Condition,
    rep: TemplateSet,
    level: int,
    task: Task,
) -> Condition:
    """Weakest-effort extension into the gain dense set for (rep, level).

    Forces fresh gap elements to 1, smallest id first, until the 1-part has
    relative rank at least `level` over the representative.  Requires the
    lower set to be almost spanned by the representative and an infinite
    independent-over-rep pool inside the gap (which the step preconditions
    guarantee).  Never touches already-assigned elements.
    """
    _check_domain(condition, task)
    if matroid.relative_rank(task.lower, rep) == INFINITE:
        raise SpecError("gain extension needs the lower set almost spanned by the representative")
    if matroid.relative_rank(TemplateSet.from_finite(condition.ones), rep) >= level:
        return condition
    pool = matroid.max_independent_subtemplate(task.gap - rep, over=rep)
    if not pool.is_infinite:
        raise SchemaError("no infinite independent pool over the representative")
    current = condition
    members = pool.iter_members()
    while matroid.relative_rank(TemplateSet.from_finite(current.ones), rep) < level:
        e = next(m for m in members if m not in current.domain)
        current = current.assign([e], 1)
    if not current.extends(condition):
        raise SchemaError("gain extension altered the given condition")
    return current


def dense_extend_guard(
    matroid: FinitaryMatroid,
    condition: Condition,
    rep: TemplateSet,
    level: int,
    task: Task,
) -> Condition:
    """Weakest-effort extension into the guard dense set for (rep, level).

    Forces a finite removal witness to 0 so the representative keeps
    relative rank at least `level` over the remaining upper set.  Requires
    the representative to almost span into the upper set and an infinite
    part of it independent over the lower set.
    """
    _check_domain(condition, task)
    if matroid.relative_rank(rep, task.upper) == INFINITE:
        raise SpecError("guard extension needs the representative to almost span the upper set")

    def achieved(cond: Condition) -> bool:
        left = task.upper - TemplateSet.from_finite(cond.zeros)
        return matroid.relative_rank(rep, left) >= level

    if achieved(condition):
        return condition
    core = matroid.max_independent_subtemplate(rep, over=task.lower)
    if not core.is_infinite:
        raise SchemaError("representative collapses over the lower set")
    witness = removal_witness(
        matroid, core, task.gap, condition.domain, level, over=task.lower
    )
    extended = condition.assign(witness, 0)
    if not extended.extends(condition):
        raise SchemaError("guard extension altered the given condition")
    if not achieved(extended):
        raise SchemaError("guard extension failed verification")
    return extended


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
    """Independently recompute every inequality a certificate claims."""
    ones = TemplateSet.from_finite(cert.condition.ones)
    left = cert.task.upper - TemplateSet.from_finite(cert.condition.zeros)
    for entry in cert.met:
        if entry.kind == "gain":
            if matroid.relative_rank(ones, entry.rep) < entry.level:
                return False
        else:
            if matroid.relative_rank(entry.rep, left) < entry.level:
                return False
    for rep, value in cert.gain_evidence:
        if matroid.relative_rank(ones, rep) < cert.depth or value < cert.depth:
            return False
    for rep, value in cert.guard_evidence:
        if matroid.relative_rank(rep, left) < cert.depth or value < cert.depth:
            return False
    return True


def forcing_step(
    matroid: FinitaryMatroid,
    family: TruncationFamily,
    task: Task,
    depth: int,
) -> StepCertificate:
    """Run one step at finite depth: meet every dense set with level <= depth.

    Dense sets are folded level by level (all gain sets for level n in
    representative order, then all guard sets), so the condition at depth N+1
    extends the one at depth N verbatim.  Claim precondition failures
    propagate as ClaimError.
    """
    if depth < 0:
        raise SpecError("depth must be a natural number")
    claims = check_claim_preconditions(matroid, family, task)
    if not claims.ok:
        raise ClaimError(claims)
    gain_reps = [r for r in family if matroid.relative_rank(task.lower, r) != INFINITE]
    guard_reps = [r for r in family if matroid.relative_rank(r, task.upper) != INFINITE]
    condition = Condition()
    met: list[DenseEvidence] = []
    for level in range(1, depth + 1):
        for rep in gain_reps:
            grown = dense_extend_gain(matroid, condition, rep, level, task)
            added = tuple((e, 1) for e in sorted(grown.ones - condition.ones))
            value = matroid.relative_rank(TemplateSet.from_finite(grown.ones), rep)
            met.append(DenseEvidence("gain", rep, level, added, value))
            condition = grown
        for rep in guard_reps:
            grown = dense_extend_guard(matroid, condition, rep, level, task)
            added = tuple((e, 0) for e in sorted(grown.zeros - condition.zeros))
            left = task.upper - TemplateSet.from_finite(grown.zeros)
            value = matroid.relative_rank(rep, left)
            met.append(DenseEvidence("guard", rep, level, added, value))
            condition = grown
    ones = TemplateSet.from_finite(condition.ones)
    left = task.upper - TemplateSet.from_finite(condition.zeros)
    gain_evidence = []
    for rep in gain_reps:
        value = matroid.relative_rank(ones, rep)
        if value < depth:
            raise SchemaError("gain evidence failed re-verification")
        gain_evidence.append((rep, value))
    guard_evidence = []
    for rep in guard_reps:
        value = matroid.relative_rank(rep, left)
        if value < depth:
            raise SchemaError("guard evidence failed re-verification")
        guard_evidence.append((rep, value))
    cert = StepCertificate(
        depth=depth,
        task=task,
        condition=condition,
        met=tuple(met),
        forced_in=task.lower | ones,
        excluded=condition.zeros,
        gain_evidence=tuple(gain_evidence),
        guard_evidence=tuple(guard_evidence),
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
