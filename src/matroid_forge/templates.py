"""Eventually periodic subsets of the naturals.

A TemplateSet denotes ``({n >= threshold : n % period in residues} | low) - minus``.
Construction canonicalises: exclusions are folded into the explicit low part,
the period is minimised, and the threshold is pushed down as far as the
periodic formula allows.  Two templates are equal iff they denote the same
set, so canonical fields can be compared and hashed directly.

Templates are closed under union, intersection, difference and finite
patches (periods combine by lcm), membership and infinitude are decidable,
and an infinite template can be enumerated in ascending order.  That is
exactly what is needed to describe infinite independent sets finitely.
"""

from __future__ import annotations

from itertools import islice
from math import lcm
from typing import Iterable, Iterator

from .errors import SpecError

# periods (also combined ones), thresholds and excluded members are capped so
# degenerate inputs fail loudly instead of looping over huge ranges
_PERIOD_LIMIT = 1_000_000


class TemplateSet:
    __slots__ = ("period", "residues", "threshold", "low")

    def __init__(
        self,
        period: int = 1,
        residues: Iterable[int] = (),
        threshold: int = 0,
        low: Iterable[int] = (),
        minus: Iterable[int] = (),
    ):
        period = int(period)
        if period < 1:
            raise SpecError("period must be a positive integer")
        res = frozenset(int(r) for r in residues)
        if any(not 0 <= r < period for r in res):
            raise SpecError("residues must lie in [0, period)")
        lo = frozenset(int(x) for x in low)
        mi = frozenset(int(x) for x in minus)
        if any(x < 0 for x in lo | mi):
            raise SpecError("template members are natural numbers")
        threshold = int(threshold)
        if threshold < 0:
            raise SpecError("threshold must be a natural number")
        if any(x >= threshold for x in lo):
            raise SpecError("low part must lie below the threshold")
        if max(period, threshold, *mi) > _PERIOD_LIMIT:
            raise SpecError(f"template period, threshold and members are limited to {_PERIOD_LIMIT}")

        def raw_member(n: int) -> bool:
            hit = (n >= threshold and n % period in res) or n in lo
            return hit and n not in mi

        # fold exclusions below a clean cut, then minimise period and threshold
        t = threshold if not mi else max(threshold, max(mi) + 1)
        low2 = {n for n in range(t) if raw_member(n)}
        if res:
            d, res2 = period, res
            for e in range(1, period + 1):
                if period % e:
                    continue
                base = frozenset(r % e for r in res)
                if res == frozenset(x for x in range(period) if x % e in base):
                    d, res2 = e, base
                    break
        else:
            d, res2 = 1, frozenset()
        while t > 0 and (((t - 1) % d in res2) == ((t - 1) in low2)):
            low2.discard(t - 1)
            t -= 1
        self.period = d
        self.residues = res2
        self.threshold = t
        self.low = frozenset(low2)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_finite(cls, values: Iterable[int]) -> "TemplateSet":
        vals = frozenset(int(v) for v in values)
        top = max(vals) + 1 if vals else 0
        return cls(1, (), top, vals)

    @classmethod
    def full(cls) -> "TemplateSet":
        return cls(1, (0,))

    @classmethod
    def empty(cls) -> "TemplateSet":
        return cls(1, ())

    @classmethod
    def coerce(cls, value) -> "TemplateSet":
        if isinstance(value, TemplateSet):
            return value
        return cls.from_finite(value)

    # -- queries ---------------------------------------------------------

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return n in self.low
        return n % self.period in self.residues

    @property
    def is_infinite(self) -> bool:
        return bool(self.residues)

    @property
    def is_empty(self) -> bool:
        return not self.residues and not self.low

    def size(self) -> int | None:
        """Number of members, or None when infinite."""
        return None if self.residues else len(self.low)

    def iter_members(self) -> Iterator[int]:
        yield from sorted(self.low)
        if not self.residues:
            return
        n = self.threshold
        while True:
            if n % self.period in self.residues:
                yield n
            n += 1

    def first(self, count: int) -> list[int]:
        out = list(islice(self.iter_members(), count))
        if len(out) < count:
            raise SpecError(f"template has fewer than {count} members")
        return out

    def members_below(self, stop: int) -> list[int]:
        return [n for n in range(stop) if n in self]

    def min_member(self) -> int | None:
        for n in self.iter_members():
            return n
        return None

    # -- algebra -----------------------------------------------------------

    def _combine(self, other: "TemplateSet", keep) -> "TemplateSet":
        period = lcm(self.period, other.period)
        if period > _PERIOD_LIMIT:
            raise SpecError("combined period exceeds the workbench limit")
        threshold = max(self.threshold, other.threshold)
        res = {
            r
            for r in range(period)
            if keep(r % self.period in self.residues, r % other.period in other.residues)
        }
        low = {n for n in range(threshold) if keep(n in self, n in other)}
        return TemplateSet(period, res, threshold, low)

    def union(self, other) -> "TemplateSet":
        return self._combine(TemplateSet.coerce(other), lambda a, b: a or b)

    def intersection(self, other) -> "TemplateSet":
        return self._combine(TemplateSet.coerce(other), lambda a, b: a and b)

    def difference(self, other) -> "TemplateSet":
        return self._combine(TemplateSet.coerce(other), lambda a, b: a and not b)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def patch(self, add: Iterable[int] = (), remove: Iterable[int] = ()) -> "TemplateSet":
        out = self
        add = frozenset(add)
        remove = frozenset(remove)
        if add:
            out = out | TemplateSet.from_finite(add)
        if remove:
            out = out - TemplateSet.from_finite(remove)
        return out

    def complement_within(self, other) -> "TemplateSet":
        return TemplateSet.coerce(other) - self

    def issubset(self, other) -> bool:
        return (self - other).is_empty

    def isdisjoint(self, other) -> bool:
        return (self & other).is_empty

    def select(self, indices) -> "TemplateSet":
        """Image of an index set under the ascending enumeration of this set.

        The k-th smallest member of an eventually periodic set is eventually an
        affine function of k on each index residue class, so the image of a
        template of indices is again a template.
        """
        indices = TemplateSet.coerce(indices)
        if indices.is_empty:
            return TemplateSet.empty()
        if not self.is_infinite:
            members = sorted(self.low)
            if indices.is_infinite or any(i >= len(members) for i in indices.low):
                raise SpecError("index set exceeds the finite carrier")
            return TemplateSet.from_finite(members[i] for i in indices.low)
        d = self.period
        rs = sorted(self.residues)
        block = len(rs)
        t0 = -(-self.threshold // d) * d
        head = [n for n in range(t0) if n in self]
        offset = len(head)

        def nth(m: int) -> int:
            if m < offset:
                return head[m]
            q, s = divmod(m - offset, block)
            return t0 + q * d + rs[s]

        if not indices.is_infinite:
            return TemplateSet.from_finite(nth(i) for i in indices.low)
        cycle = lcm(indices.period, block)
        start = max(indices.threshold, offset)
        firsts = [nth(m) for m in range(start, start + cycle) if m in indices]
        step = (cycle // block) * d
        threshold = max(firsts) + 1
        low = {nth(m) for m in indices.members_below(start)}
        for b in firsts:
            v = b
            while v < threshold:
                low.add(v)
                v += step
        return TemplateSet(step, {b % step for b in firsts}, threshold, low)

    # -- identity ---------------------------------------------------------

    def sort_key(self):
        return (self.period, tuple(sorted(self.residues)), self.threshold, tuple(sorted(self.low)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemplateSet):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def directive(self) -> str:
        """Canonical one-line text form (finite sets emit as plain `set` lines)."""
        if not self.is_infinite:
            return "set " + " ".join(str(n) for n in sorted(self.low))
        parts = [
            f"d={self.period}",
            "res=" + ",".join(str(r) for r in sorted(self.residues)),
            f"t={self.threshold}",
        ]
        if self.low:
            parts.append("low=" + ",".join(str(n) for n in sorted(self.low)))
        return "template " + " ".join(parts)

    def __repr__(self) -> str:
        return (
            f"TemplateSet(period={self.period}, residues={sorted(self.residues)}, "
            f"threshold={self.threshold}, low={sorted(self.low)})"
        )
