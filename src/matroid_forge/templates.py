"""Eventually periodic subsets of the naturals.

A TemplateSet denotes ``({n >= threshold : n % period in residues} | low) - minus``.
Construction canonicalises: exclusions are folded into the explicit low part,
the period is minimised, and the threshold is pushed down as far as the
periodic formula allows.  Two templates are equal iff they denote the same
set, so canonical fields can be compared and hashed directly.

Residues are one `period`-bit int (bit r: residue r), the low part one
`threshold`-bit int (bit n: member n); `residues` and `low` return frozensets.

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
_LIMIT_ERROR = f"template period, threshold and members are limited to {_PERIOD_LIMIT}"


def _mask(values: Iterable[int], width: int) -> int:
    """Bit mask of naturals below `width`, built in one pass."""
    buf = bytearray((width + 7) >> 3)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, ascending."""
    digits = bin(mask)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _tile(mask: int, width: int, total: int) -> int:
    """The `width`-bit mask repeated to `total` bits, by doubling."""
    while width < total and mask:
        mask |= mask << width
        width <<= 1
    return mask & ((1 << total) - 1)


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


class TemplateSet:
    __slots__ = ("period", "_res", "threshold", "_low")

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
            raise SpecError(_LIMIT_ERROR)

        # fold exclusions below a clean cut: members below t become explicit
        r = _mask(res, period)
        t = threshold if not mi else max(threshold, max(mi) + 1)
        periodic = _tile(r, period, t) >> threshold << threshold
        self._canonicalise(period, r, t, (_mask(lo, t) | periodic) & ~_mask(mi, t))

    def _canonicalise(self, period: int, res: int, threshold: int, low: int) -> None:
        """Store the canonical form of ``{n >= threshold : bit n % period of res} | low``,
        where `low` holds exactly the members below `threshold`."""
        if res:
            count = res.bit_count()
            for e in _divisors(period):
                base = res & ((1 << e) - 1)
                if base.bit_count() * (period // e) == count and _tile(base, e, period) == res:
                    period, res = e, base
                    break
        else:
            period = 1
        threshold = (low ^ _tile(res, period, threshold)).bit_length()
        self.period = period
        self._res = res
        self.threshold = threshold
        self._low = low & ((1 << threshold) - 1)

    @classmethod
    def _from_masks(cls, period: int, res: int, threshold: int, low: int) -> "TemplateSet":
        out = cls.__new__(cls)
        out._canonicalise(period, res, threshold, low)
        return out

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_finite(cls, values: Iterable[int]) -> "TemplateSet":
        vals = [int(v) for v in values]
        if min(vals, default=0) < 0:
            raise SpecError("template members are natural numbers")
        top = max(vals, default=-1) + 1
        if top > _PERIOD_LIMIT:
            raise SpecError(_LIMIT_ERROR)
        return cls._from_masks(1, 0, top, _mask(vals, top))

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

    @property
    def residues(self) -> frozenset:
        return frozenset(_bits(self._res))

    @property
    def low(self) -> frozenset:
        return frozenset(_bits(self._low))

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return bool(self._low >> n & 1)
        return bool(self._res >> n % self.period & 1)

    @property
    def is_infinite(self) -> bool:
        return bool(self._res)

    @property
    def is_empty(self) -> bool:
        return not self._res and not self._low

    def size(self) -> int | None:
        """Number of members, or None when infinite."""
        return None if self._res else self._low.bit_count()

    def iter_members(self) -> Iterator[int]:
        yield from _bits(self._low)
        if not self._res:
            return
        rs = _bits(self._res)
        start = self.threshold - self.threshold % self.period
        yield from (start + r for r in rs if start + r >= self.threshold)
        while True:
            start += self.period
            for r in rs:
                yield start + r

    def first(self, count: int) -> list[int]:
        out = list(islice(self.iter_members(), count))
        if len(out) < count:
            raise SpecError(f"template has fewer than {count} members")
        return out

    def mask_below(self, stop: int) -> int:
        """Bit mask of the members below `stop`."""
        if stop <= self.threshold:
            return self._low & ((1 << max(stop, 0)) - 1)
        return self._low | _tile(self._res, self.period, stop) >> self.threshold << self.threshold

    def members_below(self, stop: int) -> list[int]:
        return _bits(self.mask_below(stop))

    # -- algebra -----------------------------------------------------------

    def _combine(self, other: "TemplateSet", op) -> "TemplateSet":
        period = lcm(self.period, other.period)
        if period > _PERIOD_LIMIT:
            raise SpecError("combined period exceeds the workbench limit")
        threshold = max(self.threshold, other.threshold)
        res = op(_tile(self._res, self.period, period), _tile(other._res, other.period, period))
        low = op(self.mask_below(threshold), other.mask_below(threshold))
        return TemplateSet._from_masks(period, res, threshold, low)

    def union(self, other) -> "TemplateSet":
        return self._combine(TemplateSet.coerce(other), lambda a, b: a | b)

    def intersection(self, other) -> "TemplateSet":
        return self._combine(TemplateSet.coerce(other), lambda a, b: a & b)

    def difference(self, other) -> "TemplateSet":
        return self._combine(TemplateSet.coerce(other), lambda a, b: a & ~b)

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
            members = _bits(self._low)
            if indices.is_infinite or any(i >= len(members) for i in indices.low):
                raise SpecError("index set exceeds the finite carrier")
            return TemplateSet.from_finite(members[i] for i in indices.low)
        d = self.period
        rs = _bits(self._res)
        block = len(rs)
        t0 = -(-self.threshold // d) * d
        head = self.members_below(t0)
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
        return (self.period, tuple(_bits(self._res)), self.threshold, tuple(_bits(self._low)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemplateSet):
            return NotImplemented
        return (self.period, self._res, self.threshold, self._low) == (
            other.period, other._res, other.threshold, other._low)

    def __hash__(self) -> int:
        return hash((self.period, self._res, self.threshold, self._low))

    def directive(self) -> str:
        """Canonical one-line text form (finite sets emit as plain `set` lines)."""
        if not self.is_infinite:
            return "set " + " ".join(str(n) for n in _bits(self._low))
        parts = [
            f"d={self.period}",
            "res=" + ",".join(str(r) for r in _bits(self._res)),
            f"t={self.threshold}",
        ]
        if self._low:
            parts.append("low=" + ",".join(str(n) for n in _bits(self._low)))
        return "template " + " ".join(parts)

    def __repr__(self) -> str:
        return (
            f"TemplateSet(period={self.period}, residues={_bits(self._res)}, "
            f"threshold={self.threshold}, low={_bits(self._low)})"
        )
