"""Verifier and enumerator for generalised truncations.

A family F of independent sets is the base family of a generalised
truncation of M iff it is non-empty, closed under balanced finite exchange
inside the independent sets of M, no proper subset of a member spans a
member, and every nested independent pair (I, J) below a member can be
settled inside F.  On a finite matroid of rank r the first three conditions
already make F one complete size level L_k of the independent sets, and a
level settles every nested pair, so the generalised truncations are exactly
L_0, ..., L_r.  `verify_family` checks conditions 1-3 and states that proof.
It asks the rank oracle only what the member sizes leave open: condition 2
enumerates no independent sets and rank-checks only the non-members of each
member size, and condition 3 computes spans only for members above the
smallest size.  `verify_is_gen_truncation` checks the truncation definition
itself (independence containment plus forced augmentation), giving an
independent second route that the tests hold against the first.  It stays
literal, with no level theorem: it asks the matroid about every
candidate-independent set and every one-element extension of a non-base.
`gentrunc verify` re-runs it after every `ok` verdict, so it works on masks
and builds frozensets only for a witness.

Enumeration comes in two flavours: the levels themselves, and a raw
2^|independents| sweep with no structural shortcuts, kept as the oracle.

On a countable schema, `TruncationFamily.build` decides a family once, on one
schema object: conditions 1-2 hold by construction and the first comparable
pair (condition 3) is recorded for `verify_family_finitary` to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    ENUMERATION_MAX_GROUND,
    FiniteMatroid,
    Verdict,
    check_bound,
    masks_of_size,
    size_order,
    size_sorted,
    upward_closure,
)
from .equivalence import strongly_equivalent
from .errors import BoundError, FamilyError, SchemaError, TaskError
from .finitary import INFINITE, FinitaryMatroid
from .templates import TemplateSet

VERIFY_FAMILY_MAX_GROUND = 10
LEVEL_ENUM_MAX_GROUND = 10
RAW_ENUM_MAX_INDEP = 16


def verify_family(matroid: FiniteMatroid, family: Iterable[Iterable[int]]) -> Verdict:
    """Decide the four base-family conditions for a generalised truncation.

    Refuses a ground past the declared bound and a member outside the
    ground, then runs `verify_family_masks` on the distinct members as masks.
    There condition 3 (no member inside span(B - e)) is one bit test on the
    family's upward-closure table per member B above the smallest member
    size and element e, condition 2 rank-checks only non-members, and
    condition 4 follows from conditions 1-3.
    """
    check_bound("family verification", len(matroid.ground), VERIFY_FAMILY_MAX_GROUND)
    masks = (matroid._subset_mask(b, "family member") for b in family)
    return verify_family_masks(matroid, size_sorted(masks, len(matroid.ground)))


def verify_family_masks(matroid: FiniteMatroid, masks: list[int]) -> Verdict:
    """The base-family conditions on distinct member masks sorted by `size_keys`.

    Violations carry (condition tag, witness tuple) and replay: condition 2
    witnesses are (member, missing same-size independent), condition 3
    witnesses are (member, spanned member, proper subset).  Witnesses are
    frozensets.

    Condition 3 asks whether some member lies inside span(B - e); that is
    bit span(B - e) of the family's upward-closure table (`upward_closure`).
    On the first hit, the members are scanned for the first one inside that
    span, which is the witness a scan of every member would give.  Members
    of the smallest member size are not asked, and a one-size family builds
    no table: span(B - e) has rank |B| - 1 and every member is independent
    (condition 1), so a member inside it has at most |B| - 1 elements, and a
    smallest-size member never has a member inside its span.  The first hit
    and its witness are those of the full scan.

    Condition 2 scans, for each member size k in ascending order, the
    k-subsets of the ground in (size, sorted elements) order and rank-checks
    only the non-members; the first independent one is the witness, paired
    with the first member of size k.  That is the witness a scan of
    `independent_masks` gives: on a matroid every independent k-set is found
    by its prefix growth, and both orders are lexicographic on positions.  A
    complete level thus costs C(n, k) - |F| rank queries, all on dependent
    sets, and none for its members.

    Condition 4 (every nested independent pair I <= J with I below a member
    is settled: a member contains J, or one lies between I and J) is not
    checked, because on a matroid conditions 1-3 imply it.  Passing them
    makes the family one complete size level L_k: condition 1 makes the
    members independent and condition 2 makes the level of each member size
    complete.  Condition 3 excludes two sizes i < j: take a size-j member B
    and e in B; an i-subset of B - e is independent, hence a member, and it
    lies inside span(B - e).  L_k then settles every nested pair.  An
    independent J with |J| <= k extends to a member, by augmentation.  If
    |J| > k, any I <= J below a member has |I| <= k, and I plus k - |I|
    elements of J - I is a member between I and J.
    """
    if not masks:
        return Verdict.violation("1")
    for m in masks:
        if not matroid.independent_mask(m):
            return Verdict.violation("1", matroid.set_of(m))

    # no proper subset of a member may span a member; spanning is monotone,
    # so checking the maximal proper subsets suffices
    n = len(matroid.ground)
    smallest = masks[0].bit_count()
    if masks[-1].bit_count() > smallest:
        table = upward_closure(masks, n)
        for m in masks:
            if m.bit_count() == smallest:
                continue
            rest = m
            while rest:
                bit = rest & -rest
                rest ^= bit
                span = matroid.span_mask(m ^ bit)
                if table >> span & 1:
                    other = next(om for om in masks if om & ~span == 0)
                    return Verdict.violation("3", matroid.set_of(m), matroid.set_of(other),
                                             matroid.set_of(m ^ bit))

    # balanced finite exchange: for finite sets, |B-B'| = |B'-B| means equal size;
    # the first violator is the first member of the smallest incomplete size,
    # missing that size's first independent set outside the family
    check_bound("independent-set enumeration", n, ENUMERATION_MAX_GROUND)
    member_set = set(masks)
    first_of_size: dict[int, int] = {}
    for m in masks:
        first_of_size.setdefault(m.bit_count(), m)
    for size, m in first_of_size.items():
        other = next((s for s in masks_of_size(n, size)
                      if s not in member_set and matroid.independent_mask(s)), None)
        if other is not None:
            return Verdict.violation("2", matroid.set_of(m), matroid.set_of(other))
    return Verdict.passed()


def verify_is_gen_truncation(matroid: FiniteMatroid, candidate: FiniteMatroid) -> Verdict:
    """Check the generalised-truncation definition directly.

    (I) equal ground sets, (II) every candidate-independent set is matroid
    independent, (III) every non-base candidate-independent set absorbs any
    matroid-independent one-element extension.

    Neither clause uses the level theorem of `verify_family_masks`: (II) asks
    the matroid about every candidate-independent set, and (III) asks both
    about every one-element extension of every candidate non-base.  The sets
    are masks, in (size, sorted elements) order and then by added element;
    once (I) holds both matroids number the ground alike, so a mask means the
    same set to both.  The candidate's bases are its `base_masks()`, not filtered
    by rank, so a candidate that is no matroid is judged by its own list.
    Witnesses are frozensets: (set,) for II and (set, element) for III.
    """
    if matroid.ground != candidate.ground:
        return Verdict.violation("I", matroid.ground, candidate.ground)
    indep = candidate.independent_masks()
    for m in indep:
        if not matroid.independent_mask(m):
            return Verdict.violation("II", candidate.set_of(m))
    cand_bases = candidate.base_masks()
    full = (1 << len(candidate.ground)) - 1
    for m in indep:
        if m in cand_bases:
            continue
        rest = full & ~m
        while rest:
            bit = rest & -rest
            rest ^= bit
            if matroid.independent_mask(m | bit) and not candidate.independent_mask(m | bit):
                return Verdict.violation("III", candidate.set_of(m),
                                         candidate._order[bit.bit_length() - 1])
    return Verdict.passed()


def family_sort_key(family: frozenset):
    return tuple(sorted(map(size_order, family)))


def enumerate_gen_truncations(matroid: FiniteMatroid) -> list[frozenset]:
    """All base families of generalised truncations: the size levels L_0, ..., L_r.

    Balanced-exchange closure forces any candidate to be a union of complete
    size levels of the independent sets (equal finite differences mean equal
    size), and condition 3 leaves one level (`verify_family_masks`).  Each
    L_k passes conditions 1-3: its members are independent, it is a whole
    level, and no member of size k lies inside span(B - e), which has rank
    k - 1.  Conditions 1-3 imply condition 4, so the families are exactly
    the levels, in size order.  L_k is also the base family of the
    k-truncation, so the base axioms B1 and B2 hold for it.  `enumerate_raw`
    is the shortcut-free oracle this is tested against.
    """
    check_bound("level enumeration", len(matroid.ground), LEVEL_ENUM_MAX_GROUND)
    r = matroid.full_rank
    levels: list[list[int]] = [[] for _ in range(r + 1)]
    for m in matroid.independent_masks():
        # a rank oracle that is no matroid may call larger sets independent,
        # or leave a level empty
        if m.bit_count() <= r:
            levels[m.bit_count()].append(m)
    return [frozenset(map(matroid.set_of, level)) for level in levels if level]


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


def require_task_pair(matroid: FinitaryMatroid, lower, upper) -> tuple[TemplateSet, TemplateSet]:
    """(lower, upper) as templates once they are a nested independent pair; TaskError otherwise."""
    lo, up = TemplateSet.coerce(lower), TemplateSet.coerce(upper)
    if not matroid.certify(lo):
        raise TaskError("lower set is not independent")
    if not matroid.certify(up):
        raise TaskError("upper set is not independent")
    if not lo.issubset(up):
        raise TaskError("lower set must be contained in the upper set")
    return lo, up


def class_member(matroid: FinitaryMatroid, rep, lower, upper=None) -> TemplateSet | None:
    """`matroid.class_member` with its witness re-verified independently.

    A nested pair (lower, upper) triggers rep's class when
    `class_member(m, rep, lower)` exists, and the class settles it when
    `settling_member` finds a member.
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


def settling_member(matroid: FinitaryMatroid, rep, lower, upper) -> TemplateSet | None:
    """A member of rep's class between lower and upper, else one containing upper, or None."""
    return class_member(matroid, rep, lower, upper) or class_member(matroid, rep, upper)


def verify_family_finitary(
    matroid: FinitaryMatroid,
    family: TruncationFamily,
    tasks: Sequence = (),
) -> Verdict:
    """Task-relative family check on a countable schema.

    Conditions 1-2 (certified independence, pairwise non-equivalence) hold
    by construction of the family, which must be built on `matroid`; condition
    3 (pairwise incomparability) reads its recorded pair, the witness of a `3`
    violation.  Condition 4 is checked for the supplied task pairs only,
    each refused unless it is a nested independent pair (`require_task_pair`)
    and decided exactly by `class_member`; a `4` violation carries every
    unmet (lower, upper) pair in task order.
    """
    family.require_schema(matroid)
    if family.comparable is not None:
        return Verdict.violation("3", *family.comparable)
    unmet = []
    for raw_lower, raw_upper in tasks:
        lower, upper = require_task_pair(matroid, raw_lower, raw_upper)
        triggered = any(class_member(matroid, rep, lower) for rep in family)
        if triggered and not any(settling_member(matroid, rep, lower, upper) for rep in family):
            unmet.append((lower, upper))
    return Verdict.violation("4", *unmet) if unmet else Verdict.passed()
