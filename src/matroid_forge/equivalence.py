"""Almost-spanning and strong equivalence of independent sets.

One independent set almost spans another when the relative rank of the
second over the first is finite; two sets are strongly equivalent when both
relative ranks are finite and equal.  On finite matroids everything is
finite, so almost-spanning is trivially true and strong equivalence reduces
to equal size.  On the countable schemas both relations stay decidable, so
the three-valued return type never actually produces `unknown` here; it
exists for the CLI contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from .core import FiniteMatroid, fmt
from .errors import DependenceError, GroundError
from .finitary import INFINITE, FinitaryMatroid
from .templates import TemplateSet


class _Unknown:
    """Singleton allowing three-valued answers; falsy to keep guards honest."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "unknown"


UNKNOWN = _Unknown()


def _carrier(matroid, value):
    if isinstance(matroid, FiniteMatroid):
        if isinstance(value, TemplateSet):
            if value.is_infinite:
                raise GroundError("finite matroids take finite carriers, not infinite templates")
            value = value.low
        s = matroid._subset(value, "carrier")
        if not matroid.is_independent(s):
            raise DependenceError(f"{fmt(s)} is not independent")
        return s
    if isinstance(matroid, FinitaryMatroid):
        return matroid.require_independent(value)
    raise GroundError(f"unsupported matroid object {matroid!r}")


def almost_spans(matroid, spanned, spanner):
    """True iff `spanner` almost spans `spanned`: rank of spanned over spanner is finite."""
    inner = _carrier(matroid, spanned)
    outer = _carrier(matroid, spanner)
    if isinstance(matroid, FiniteMatroid):
        return True
    return matroid.relative_rank(inner, outer) != INFINITE


def strongly_equivalent(matroid, left, right):
    """Decide strong equivalence: equal, finite relative ranks in both directions.

    When either difference is finite the answer is the finite-difference
    balance test; otherwise both relative ranks are computed outright.
    """
    a = _carrier(matroid, left)
    b = _carrier(matroid, right)
    if isinstance(matroid, FiniteMatroid):
        return matroid.relative_rank(a, b) == matroid.relative_rank(b, a)
    left_only = a - b
    right_only = b - a
    if not left_only.is_infinite or not right_only.is_infinite:
        return left_only.size() == right_only.size()
    fwd = matroid.relative_rank(a, b)
    bwd = matroid.relative_rank(b, a)
    return fwd != INFINITE and fwd == bwd


@dataclass(frozen=True)
class ClassLabel:
    """Equivalence-class classification: finite(k), cofinite(n), or a wild candidate."""

    kind: str
    size: int | None = None

    def __str__(self) -> str:
        return self.kind if self.size is None else f"{self.kind}({self.size})"

    @classmethod
    def finite(cls, k: int) -> "ClassLabel":
        return cls("finite", k)

    @classmethod
    def cofinite(cls, n: int) -> "ClassLabel":
        return cls("cofinite", n)

    @classmethod
    def wild_candidate(cls) -> "ClassLabel":
        return cls("wild-candidate")


def classify_class(matroid, carrier) -> ClassLabel:
    """Label the equivalence class of an independent set.

    Finite carriers get finite(size).  Infinite carriers get cofinite(n) when
    contracting them leaves finite rank n, else the wild-candidate label: a
    certificate that both the set and its spanning complement are infinite,
    not a claim that a wild truncation through it exists.
    """
    c = _carrier(matroid, carrier)
    if isinstance(matroid, FiniteMatroid):
        return ClassLabel.finite(len(c))
    if not c.is_infinite:
        return ClassLabel.finite(c.size())
    left_over = matroid.relative_rank(TemplateSet.full(), c)
    if left_over != INFINITE:
        return ClassLabel.cofinite(int(left_over))
    return ClassLabel.wild_candidate()


def relative_rank_difference_check(matroid, left, right, within) -> bool:
    """Whether X has the same relative rank over both sets, for X containing their union."""
    a = _carrier(matroid, left)
    b = _carrier(matroid, right)
    if isinstance(matroid, FiniteMatroid):
        x = matroid._subset(within, "enclosing set")
        if not (a | b) <= x:
            raise GroundError("enclosing set must contain both arguments")
        return matroid.relative_rank(x, a) == matroid.relative_rank(x, b)
    x = TemplateSet.coerce(within)
    if not (a | b).issubset(x):
        raise GroundError("enclosing set must contain both arguments")
    ra = matroid.relative_rank(x, a)
    rb = matroid.relative_rank(x, b)
    if ra == INFINITE or rb == INFINITE:
        raise DependenceError("relative ranks must be finite for this check")
    return ra == rb


def find_comparable_pair(matroid, representatives) -> tuple | None:
    """First pair of representatives comparable under almost-spanning, if any."""
    reps = list(representatives)
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            if almost_spans(matroid, a, b) or almost_spans(matroid, b, a):
                return (a, b)
    return None
