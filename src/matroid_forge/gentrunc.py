"""Verifier and enumerator for generalised truncations.

A family F of independent sets is the base family of a generalised
truncation of M iff it is non-empty, closed under balanced finite exchange
inside the independent sets of M, no proper subset of a member spans a
member, and every nested independent pair (I, J) below a member can be
settled inside F.  `verify_family` checks those four conditions literally;
`verify_is_gen_truncation` checks the truncation definition itself
(independence containment plus forced augmentation), giving an independent
second route that the tests hold against the first.

Enumeration comes in two flavours: a level-structured fast path and a raw
2^|independents| sweep with no structural shortcuts, kept as the oracle.

On a countable schema, `TruncationFamily.build` decides a family once, on one
schema object: conditions 1-2 hold by construction and the first comparable
pair (condition 3) is recorded for `verify_family_finitary` to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    FiniteMatroid,
    Verdict,
    check_base_axioms,
    check_bound,
    growth_masks,
    size_order,
)
from .equivalence import strongly_equivalent
from .errors import BoundError, FamilyError, SchemaError, TaskError
from .finitary import INFINITE, FinitaryMatroid
from .templates import TemplateSet

VERIFY_FAMILY_MAX_GROUND = 10
LEVEL_ENUM_MAX_GROUND = 10
RAW_ENUM_MAX_INDEP = 16


def _sorted_family(matroid: FiniteMatroid, family: Iterable[Iterable[int]]) -> list[frozenset]:
    fam = {matroid._subset(b, "family member") for b in family}
    return sorted(fam, key=size_order)


def verify_family(matroid: FiniteMatroid, family: Iterable[Iterable[int]]) -> Verdict:
    """Check the four base-family conditions for a generalised truncation.

    Violations carry (condition tag, witness tuple) and replay: condition 2
    witnesses are (member, missing same-size independent), condition 3
    witnesses are (member, spanned member, proper subset), condition 4
    witnesses are the unsettled nested pair (I, J).  The loops run on masks;
    members and witnesses are frozensets.
    """
    check_bound("family verification", len(matroid.ground), VERIFY_FAMILY_MAX_GROUND)
    fam = _sorted_family(matroid, family)

    if not fam:
        return Verdict.violation("1")
    masks = [matroid.mask_of(b) for b in fam]
    for b, m in zip(fam, masks):
        if not matroid.independent_mask(m):
            return Verdict.violation("1", b)

    indep = matroid.independent_masks()

    # no proper subset of a member may span a member; spanning is monotone,
    # so checking the maximal proper subsets suffices
    for b, m in zip(fam, masks):
        rest = m
        while rest:
            bit = rest & -rest
            rest ^= bit
            span = matroid.span_mask(m ^ bit)
            for other, om in zip(fam, masks):
                if om & ~span == 0:
                    return Verdict.violation("3", b, other, matroid.set_of(m ^ bit))

    # balanced finite exchange: for finite sets, |B-B'| = |B'-B| means equal size
    by_size: dict[int, list[int]] = {}
    for s in indep:
        by_size.setdefault(s.bit_count(), []).append(s)
    member_set = set(masks)
    for b, m in zip(fam, masks):
        for other in by_size[m.bit_count()]:
            if other not in member_set:
                return Verdict.violation("2", b, matroid.set_of(other))

    # nested-pair condition, exhaustive over independent I <= J
    below_member = growth_masks(masks)  # keys: the sets inside some member
    for jmask in indep:
        if jmask in below_member:
            continue  # some member contains J, settling every I below it
        inside = [fm for fm in masks if fm & ~jmask == 0]
        sub = jmask
        while True:
            if sub in below_member and not any(fm & sub == sub for fm in inside):
                return Verdict.violation("4", matroid.set_of(sub), matroid.set_of(jmask))
            if sub == 0:
                break
            sub = (sub - 1) & jmask
    return Verdict.passed()


def verify_is_gen_truncation(matroid: FiniteMatroid, candidate: FiniteMatroid) -> Verdict:
    """Check the generalised-truncation definition directly.

    (I) equal ground sets, (II) every candidate-independent set is matroid
    independent, (III) every non-base candidate-independent set absorbs any
    matroid-independent one-element extension.
    """
    if matroid.ground != candidate.ground:
        return Verdict.violation("I", matroid.ground, candidate.ground)
    for xs in candidate.independent_sets():
        if not matroid.is_independent(xs):
            return Verdict.violation("II", xs)
    cand_bases = candidate.bases_set()
    for xs in candidate.independent_sets():
        if xs in cand_bases:
            continue
        for e in sorted(matroid.ground - xs):
            grown = xs | {e}
            if matroid.is_independent(grown) and not candidate.is_independent(grown):
                return Verdict.violation("III", xs, e)
    return Verdict.passed()


def family_sort_key(family: frozenset):
    return tuple(sorted(map(size_order, family)))


def enumerate_gen_truncations(matroid: FiniteMatroid) -> list[frozenset]:
    """All base families of generalised truncations, via the level structure.

    Balanced-exchange closure forces any candidate to be a union of complete
    size levels of the independent sets (equal finite differences mean equal
    size), so only those unions are generated; each survivor is re-validated
    by `verify_family` and by the literal base axioms.  `enumerate_raw` is
    the shortcut-free oracle this reduction is tested against.
    """
    check_bound("level enumeration", len(matroid.ground), LEVEL_ENUM_MAX_GROUND)
    r = matroid.full_rank
    levels: list[frozenset] = []
    for size in range(r + 1):
        levels.append(frozenset(s for s in matroid.independent_sets() if len(s) == size))
    found: list[frozenset] = []
    for mask in range(1, 1 << len(levels)):
        fam = frozenset().union(*(levels[i] for i in range(len(levels)) if mask >> i & 1))
        if verify_family(matroid, fam):
            found.append(fam)
    for fam in found:
        axioms = check_base_axioms(matroid.ground, fam)
        if not axioms:
            raise FamilyError(f"enumerated family fails base axioms: {axioms}")
    return sorted(found, key=family_sort_key)


def enumerate_raw(matroid: FiniteMatroid) -> list[frozenset]:
    """Brute-force oracle: every subset of the independent sets, no shortcuts."""
    indep = matroid.independent_sets()
    if len(indep) > RAW_ENUM_MAX_INDEP:
        raise BoundError(
            f"raw enumeration limited to {RAW_ENUM_MAX_INDEP} independent sets, got {len(indep)}"
        )
    found: list[frozenset] = []
    for mask in range(1 << len(indep)):
        fam = frozenset(indep[i] for i in range(len(indep)) if mask >> i & 1)
        if verify_family(matroid, fam):
            found.append(fam)
    return sorted(found, key=family_sort_key)


@dataclass(frozen=True)
class TruncationFamily:
    """Finite union of strong-equivalence classes, named by representatives.

    Decided once by `build` on one schema: certified, pairwise non-equivalent,
    and `comparable` is the first almost-spanning pair in `sort_key` order.
    """

    schema: FinitaryMatroid
    representatives: tuple[TemplateSet, ...]
    comparable: tuple[TemplateSet, TemplateSet] | None

    @classmethod
    def build(cls, matroid: FinitaryMatroid, representatives: Iterable) -> "TruncationFamily":
        reps = sorted((matroid.require_independent(r) for r in representatives),
                      key=TemplateSet.sort_key)
        if not reps:
            raise FamilyError("a truncation family needs at least one representative")
        # strong equivalence is equal finite relative ranks both ways
        comparable = None
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                fwd = matroid.relative_rank(a, b)
                bwd = matroid.relative_rank(b, a)
                if fwd == bwd != INFINITE:
                    raise FamilyError(f"representatives {a!r} and {b!r} name the same class")
                if comparable is None and (fwd != INFINITE or bwd != INFINITE):
                    comparable = (a, b)
        return cls(matroid, tuple(reps), comparable)

    def require_schema(self, matroid: FinitaryMatroid) -> None:
        if matroid is not self.schema:
            raise FamilyError(f"the family was built on another schema than {matroid!r}")

    def __iter__(self):
        return iter(self.representatives)


@dataclass(frozen=True)
class FinitaryFamilyVerdict:
    """Outcome of the task-relative family check on a countable schema."""

    verdict: Verdict
    unmet_tasks: tuple = ()

    @property
    def ok(self) -> bool:
        return self.verdict.ok and not self.unmet_tasks

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        if not self.verdict.ok:
            return str(self.verdict)
        return f"unmet tasks: {len(self.unmet_tasks)}"


def _normalize_task_pair(matroid: FinitaryMatroid, pair) -> tuple[TemplateSet, TemplateSet]:
    lower = matroid.require_independent(pair[0])
    upper = matroid.require_independent(pair[1])
    if not lower.issubset(upper):
        raise TaskError("task lower set must be contained in the upper set")
    return lower, upper


def class_member(matroid: FinitaryMatroid, rep, lower, upper=None) -> TemplateSet | None:
    """`matroid.class_member` with its witness re-verified independently.

    A nested pair (lower, upper) triggers rep's class when
    `class_member(m, rep, lower)` exists, and the class settles it when
    `class_member(m, rep, lower, upper) or class_member(m, rep, upper)` does.
    """
    member = matroid.class_member(rep, lower, upper)
    if member is not None and not (
        matroid.certify(member)
        and lower.issubset(member)
        and (upper is None or member.issubset(upper))
        and strongly_equivalent(matroid, member, rep)
    ):
        raise SchemaError(f"class member {member.directive()} failed re-verification")
    return member


def verify_family_finitary(
    matroid: FinitaryMatroid,
    family: TruncationFamily,
    tasks: Sequence = (),
) -> FinitaryFamilyVerdict:
    """Task-relative family check on a countable schema.

    Conditions 1-2 (certified independence, pairwise non-equivalence) hold
    by construction of the family, which must be built on `matroid`; condition
    3 (pairwise incomparability) reads its recorded pair.  Condition 4 is
    checked for the supplied task pairs only, decided exactly by `class_member`.
    """
    family.require_schema(matroid)
    if family.comparable is not None:
        return FinitaryFamilyVerdict(
            Verdict.violation("3", *(rep.directive() for rep in family.comparable)))
    unmet = []
    for raw in tasks:
        lower, upper = _normalize_task_pair(matroid, raw)
        triggered = any(class_member(matroid, rep, lower) for rep in family)
        if triggered and not any(
            class_member(matroid, rep, lower, upper) or class_member(matroid, rep, upper)
            for rep in family
        ):
            unmet.append((lower, upper))
    return FinitaryFamilyVerdict(Verdict.passed(), tuple(unmet))
