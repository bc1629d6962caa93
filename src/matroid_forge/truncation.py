"""Classical truncation operators on finite matroids.

Positive levels keep all independent sets of a fixed size as bases; negative
levels remove elements from bases.  For finite matroids these meet in the
middle, which the tests assert rather than assume: `cotruncate` is built
literally from the base list, not routed through `truncate_to`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import ENUMERATION_MAX_GROUND, ExplicitMatroid, FiniteMatroid, check_bound, masks_of_size
from .errors import GroundError, SpecError


@dataclass(frozen=True)
class TruncationLevel:
    """A truncation level; value None denotes the trivial truncation (the matroid itself)."""

    value: int | None

    def __str__(self) -> str:
        return "trivial" if self.value is None else str(self.value)

    @classmethod
    def parse(cls, text: str) -> "TruncationLevel":
        if text == "trivial":
            return cls(None)
        try:
            return cls(int(text))
        except ValueError as exc:
            raise SpecError(f"level must be an integer or 'trivial', got {text!r}") from exc


def truncate_to(matroid: FiniteMatroid, size: int) -> FiniteMatroid:
    """Matroid whose bases are all independent sets of the given size.  Bound-guarded."""
    check_bound("truncation", len(matroid.ground), ENUMERATION_MAX_GROUND)
    if not 0 <= size <= matroid.full_rank:
        raise SpecError(f"truncation size {size} not in [0, {matroid.full_rank}]")
    bases = [
        matroid.set_of(m)
        for m in masks_of_size(len(matroid.ground), size)
        if matroid.independent_mask(m)
    ]
    # truncation of a matroid is a matroid, so the quarantine check is skipped
    return ExplicitMatroid(matroid.ground, bases, name=f"{matroid.name}~{size}", _checked=True)


def cotruncate(matroid: FiniteMatroid, steps: int) -> FiniteMatroid:
    """Matroid whose bases arise by deleting `steps` elements from a base.

    steps = 0 is refused: that is the trivial truncation, not an operator
    application.  Bound-guarded: the base list is read, through its bound,
    before the rank.
    """
    if steps <= 0:
        raise SpecError("cotruncation steps must be positive; zero means the matroid itself")
    bases = matroid.bases()
    if steps > matroid.full_rank:
        raise SpecError(f"cannot remove {steps} elements from rank-{matroid.full_rank} bases")
    shrunk = {b - frozenset(drop) for b in bases for drop in combinations(sorted(b), steps)}
    return ExplicitMatroid(matroid.ground, shrunk, name=f"{matroid.name}~-{steps}", _checked=True)


def apply_level(matroid: FiniteMatroid, level: TruncationLevel) -> FiniteMatroid:
    """The matroid at `level`; each operator checks the level's range after its bound."""
    if level.value is None:
        return matroid
    if level.value >= 0:
        return truncate_to(matroid, level.value)
    return cotruncate(matroid, -level.value)


def classify_truncation(matroid: FiniteMatroid, candidate: FiniteMatroid) -> TruncationLevel | None:
    """The unique level at which `candidate` is a truncation of `matroid`, if any.

    Full-rank matches report the trivial level.  A truncation's bases all
    have its size, so only the size of the candidate's bases is tried: the
    candidate is that truncation iff its base masks are the independent
    masks of that size, the bases `truncate_to` would build.  Bound-guarded.
    """
    if matroid.ground != candidate.ground:
        raise GroundError("classification requires a common ground set")
    n = len(matroid.ground)
    check_bound("truncation classification", n, ENUMERATION_MAX_GROUND)
    target = candidate.base_masks()
    sizes = {b.bit_count() for b in target}
    if len(sizes) != 1:
        return None
    size = sizes.pop()
    r = matroid.full_rank
    if size <= r and {m for m in masks_of_size(n, size) if matroid.independent_mask(m)} == target:
        return TruncationLevel(None if size == r else size)
    return None
