"""Template tests, with differential checks of the bitset TemplateSet.

`ReferenceTemplateSet` is the frozenset implementation TemplateSet had before
its residues and low part became int masks, kept here unchanged (apart from
its name and two helpers the package no longer has) as the oracle.  The
bitset class must reproduce it exactly: the same canonical fields, text form
and sort key for every construction, algebra result and selection.
"""

import random
from contextlib import nullcontext
from itertools import islice
from math import lcm
from typing import Iterable, Iterator

import pytest
from hypothesis import given, settings, strategies as st

from matroid_forge import SpecError, TemplateSet
from matroid_forge.templates import _PERIOD_LIMIT, _mask, _tile


class ReferenceTemplateSet:
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
    def from_finite(cls, values: Iterable[int]) -> "ReferenceTemplateSet":
        vals = frozenset(int(v) for v in values)
        top = max(vals) + 1 if vals else 0
        return cls(1, (), top, vals)

    @classmethod
    def full(cls) -> "ReferenceTemplateSet":
        return cls(1, (0,))

    @classmethod
    def empty(cls) -> "ReferenceTemplateSet":
        return cls(1, ())

    @classmethod
    def coerce(cls, value) -> "ReferenceTemplateSet":
        if isinstance(value, ReferenceTemplateSet):
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


    # -- algebra -----------------------------------------------------------

    def _combine(self, other: "ReferenceTemplateSet", keep) -> "ReferenceTemplateSet":
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
        return ReferenceTemplateSet(period, res, threshold, low)

    def union(self, other) -> "ReferenceTemplateSet":
        return self._combine(ReferenceTemplateSet.coerce(other), lambda a, b: a or b)

    def intersection(self, other) -> "ReferenceTemplateSet":
        return self._combine(ReferenceTemplateSet.coerce(other), lambda a, b: a and b)

    def difference(self, other) -> "ReferenceTemplateSet":
        return self._combine(ReferenceTemplateSet.coerce(other), lambda a, b: a and not b)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def patch(self, add: Iterable[int] = (), remove: Iterable[int] = ()) -> "ReferenceTemplateSet":
        out = self
        add = frozenset(add)
        remove = frozenset(remove)
        if add:
            out = out | ReferenceTemplateSet.from_finite(add)
        if remove:
            out = out - ReferenceTemplateSet.from_finite(remove)
        return out


    def issubset(self, other) -> bool:
        return (self - other).is_empty

    def select(self, indices) -> "ReferenceTemplateSet":
        """Image of an index set under the ascending enumeration of this set.

        The k-th smallest member of an eventually periodic set is eventually an
        affine function of k on each index residue class, so the image of a
        template of indices is again a template.
        """
        indices = ReferenceTemplateSet.coerce(indices)
        if indices.is_empty:
            return ReferenceTemplateSet.empty()
        if not self.is_infinite:
            members = sorted(self.low)
            if indices.is_infinite or any(i >= len(members) for i in indices.low):
                raise SpecError("index set exceeds the finite carrier")
            return ReferenceTemplateSet.from_finite(members[i] for i in indices.low)
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
            return ReferenceTemplateSet.from_finite(nth(i) for i in indices.low)
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
        return ReferenceTemplateSet(step, {b % step for b in firsts}, threshold, low)

    # -- identity ---------------------------------------------------------

    def sort_key(self):
        return (self.period, tuple(sorted(self.residues)), self.threshold, tuple(sorted(self.low)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReferenceTemplateSet):
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


IMPLEMENTATIONS = (TemplateSet, ReferenceTemplateSet)


def T(*args, **kwargs):
    return TemplateSet(*args, **kwargs)


EVENS = T(2, [0])
ODDS = T(2, [1])


class TestMembership:
    def test_basic(self):
        assert 4 in EVENS
        assert 5 not in EVENS
        assert -1 not in EVENS

    def test_low_and_minus(self):
        t = T(2, [0], threshold=4, low=[1], minus=[6])
        assert 1 in t and 0 not in t
        assert 4 in t and 6 not in t and 8 in t

    def test_finite(self):
        t = TemplateSet.from_finite([3, 1, 4])
        assert sorted(t.low) == [1, 3, 4]
        assert not t.is_infinite
        assert t.size() == 3

    def test_validation(self):
        with pytest.raises(SpecError):
            T(0, [])
        with pytest.raises(SpecError):
            T(2, [2])
        with pytest.raises(SpecError):
            T(2, [0], threshold=1, low=[5])
        with pytest.raises(SpecError):
            T(2, [0], low=[-1], threshold=1)

    def test_limits(self):
        # period, threshold and excluded members past the limit fail before any work
        huge = 10**12
        for kwargs in ({"period": huge, "residues": [0]}, {"threshold": huge}, {"minus": [huge]}):
            with pytest.raises(SpecError):
                T(**kwargs)
        with pytest.raises(SpecError):
            TemplateSet.from_finite([huge])
        with pytest.raises(SpecError):
            T(1000, [0]) | T(1001, [0])  # combined period 1001000


class TestCanonical:
    def test_period_minimised(self):
        assert T(4, [0, 2]) == EVENS
        assert T(6, [1, 3, 5]) == ODDS

    def test_threshold_minimised(self):
        assert T(2, [0], threshold=6, low=[0, 2, 4]) == EVENS

    def test_minus_folded(self):
        t = T(2, [0], minus=[0])
        assert 0 not in t and 2 in t
        assert t == EVENS.patch(remove=[0])

    def test_finite_is_canonical(self):
        assert T(5, [], threshold=9, low=[2, 7]) == TemplateSet.from_finite([2, 7])

    def test_equal_iff_same_members(self):
        a = T(4, [1, 3])
        assert a == ODDS
        assert hash(a) == hash(ODDS)
        assert T(4, [1]) != ODDS


class TestAlgebra:
    def test_union_intersection_difference(self):
        assert (EVENS | ODDS) == TemplateSet.full()
        assert (EVENS & ODDS).is_empty
        assert (TemplateSet.full() - EVENS) == ODDS

    def test_patch(self):
        p = EVENS.patch(add=[1], remove=[0])
        assert 0 not in p and 1 in p and 2 in p

    def test_subset_disjoint(self):
        mult4 = T(4, [0])
        assert mult4.issubset(EVENS)
        assert not EVENS.issubset(mult4)
        assert (EVENS & ODDS).is_empty

    def test_first_and_iter(self):
        assert ODDS.first(5) == [1, 3, 5, 7, 9]
        assert TemplateSet.from_finite([2, 9]).first(2) == [2, 9]
        with pytest.raises(SpecError):
            TemplateSet.from_finite([2]).first(2)

    def test_members_below(self):
        assert EVENS.members_below(7) == [0, 2, 4, 6]


class TestSelect:
    def test_identity_on_full(self):
        assert TemplateSet.full().select(ODDS) == ODDS

    def test_even_carrier(self):
        # the m-th even number for odd m: 2, 6, 10, ...
        assert EVENS.select(ODDS) == T(4, [2])

    def test_finite_indices(self):
        assert EVENS.select(TemplateSet.from_finite([0, 3])) == TemplateSet.from_finite([0, 6])

    def test_finite_carrier(self):
        carrier = TemplateSet.from_finite([5, 7, 9])
        assert carrier.select(TemplateSet.from_finite([0, 2])) == TemplateSet.from_finite([5, 9])
        with pytest.raises(SpecError):
            carrier.select(ODDS)

    def test_carrier_with_head(self):
        carrier = T(3, [0], threshold=4, low=[1])  # 1, 6, 9, 12, ...
        picked = carrier.select(TemplateSet.from_finite([0, 1, 2]))
        assert picked == TemplateSet.from_finite([1, 6, 9])

    def test_select_fuzz_wide(self):
        # wider parameters than the hypothesis strategy reaches
        for cls in IMPLEMENTATIONS:
            rng = random.Random(20240)
            for _ in range(300):
                d1, d2 = rng.randint(1, 17), rng.randint(1, 17)
                t1, t2 = rng.randint(0, 20), rng.randint(0, 20)
                carrier = cls(d1, {r for r in range(d1) if rng.random() < 0.4} or {0}, t1,
                              {x for x in range(t1) if rng.random() < 0.3})
                indices = cls(d2, {r for r in range(d2) if rng.random() < 0.4}, t2,
                              {x for x in range(t2) if rng.random() < 0.3})
                image = carrier.select(indices)
                members = carrier.members_below(3000)
                expected = [members[i] for i in indices.members_below(100) if i < len(members)]
                got = image.members_below(members[-1] + 1 if members else 1)
                assert got[: len(expected)] == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6), st.data(), st.integers(0, 6),
        st.integers(1, 6), st.data(), st.integers(0, 6),
    )
    def test_select_matches_pointwise(self, d1, data1, t1, d2, data2, t2):
        res1 = data1.draw(st.sets(st.integers(0, d1 - 1), min_size=1))
        res2 = data2.draw(st.sets(st.integers(0, d2 - 1), min_size=1))
        low1 = data1.draw(st.sets(st.integers(0, max(t1 - 1, 0)))) if t1 else []
        low2 = data2.draw(st.sets(st.integers(0, max(t2 - 1, 0)))) if t2 else []
        for cls in IMPLEMENTATIONS:
            carrier = cls(d1, res1, t1, low=low1)
            indices = cls(d2, res2, t2, low=low2)
            image = carrier.select(indices)
            members = carrier.members_below(400)
            expected = [members[i] for i in indices.members_below(60) if i < len(members)]
            got = image.members_below(members[-1] + 1 if members else 1)
            assert got[: len(expected)] == expected


# reference membership the algebra must agree with, sampled past the periods
def _reference(op, a, b, n):
    return op(n in a, n in b)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 12), st.data(), st.integers(0, 8), st.data(),
    st.integers(1, 12), st.data(), st.integers(0, 8), st.data(),
    st.sampled_from(["or", "and", "diff"]),
)
def test_set_algebra_laws(d1, r1, t1, l1, d2, r2, t2, l2, op):
    args_a = (d1, r1.draw(st.sets(st.integers(0, d1 - 1))), t1,
              l1.draw(st.sets(st.integers(0, t1 - 1))) if t1 else [])
    args_b = (d2, r2.draw(st.sets(st.integers(0, d2 - 1))), t2,
              l2.draw(st.sets(st.integers(0, t2 - 1))) if t2 else [])
    fn = {"or": lambda x, y: x or y, "and": lambda x, y: x and y,
          "diff": lambda x, y: x and not y}[op]
    for cls in IMPLEMENTATIONS:
        a, b = cls(*args_a), cls(*args_b)
        combined = {"or": a | b, "and": a & b, "diff": a - b}[op]
        horizon = 10 * (a.period * b.period) + max(a.threshold, b.threshold)
        for n in range(horizon):
            assert (n in combined) == _reference(fn, a, b, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.data(), st.integers(0, 10), st.data(), st.data())
def test_canonical_roundtrip(period, rdata, threshold, ldata, mdata):
    res = rdata.draw(st.sets(st.integers(0, period - 1)))
    low = ldata.draw(st.sets(st.integers(0, threshold - 1))) if threshold else set()
    minus = mdata.draw(st.sets(st.integers(0, 30)))
    made = [cls(period, res, threshold, low, minus) for cls in IMPLEMENTATIONS]
    for t in made:
        # membership must match the raw definition
        for n in range(10 * period + threshold + 31):
            raw = ((n >= threshold and n % period in res) or n in low) and n not in minus
            assert (n in t) == raw
        # infinitude is decidable
        assert t.is_infinite == bool(t.residues)
    _assert_same(*made)


# -- differential: the bitset TemplateSet against the frozenset reference ----

# divisors of 1920 (the largest combined period of the free-classes benchmark),
# so that pairs drawn from them keep a combined period of at most 1920
_WIDE_PERIODS = (12, 15, 40, 60, 64, 96, 120, 128, 384, 640, 960, 1920)


def _random_args(rng: random.Random, periods) -> tuple:
    """Constructor arguments that often reduce: a residue pattern of a divisor
    repeated over the period, a low part close to the periodic part, exclusions
    below and past the threshold."""
    period = rng.choice(periods)
    e = rng.choice([k for k in range(1, period + 1) if period % k == 0])
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    base = {r for r in range(e) if rng.random() < density}
    res = {r for r in range(period) if r % e in base}
    if rng.random() < 0.5:
        res ^= {rng.randrange(period) for _ in range(rng.randint(1, 3))}
    threshold = rng.choice((0, rng.randint(0, 20), rng.randint(60, 260)))
    low = {n for n in range(threshold) if n % period in res}
    low ^= {n for n in range(threshold) if rng.random() < rng.choice((0.0, 0.05, 0.5))}
    minus = set()
    if rng.random() < 0.4:
        minus = {rng.randrange(threshold + 2 * period + 70) for _ in range(rng.randint(1, 6))}
    return period, res, threshold, low, minus


def _assert_same(new, ref) -> None:
    assert (new.period, new.residues, new.threshold, new.low) == (
        ref.period, ref.residues, ref.threshold, ref.low)
    assert new.directive() == ref.directive()
    assert new.sort_key() == ref.sort_key()
    assert repr(new) == repr(ref)
    assert (new.is_infinite, new.is_empty, new.size()) == (
        ref.is_infinite, ref.is_empty, ref.size())


def _outcome(fn):
    try:
        return fn(), None
    except SpecError as exc:
        return None, str(exc)


def _assert_same_outcome(new_fn, ref_fn) -> None:
    (new, new_err), (ref, ref_err) = _outcome(new_fn), _outcome(ref_fn)
    assert new_err == ref_err
    if new_err is None:
        _assert_same(new, ref)


def _assert_same_queries(new, ref) -> None:
    stop = new.threshold + 3 * new.period + 5
    assert new.members_below(stop) == ref.members_below(stop)
    count = 25 if new.is_infinite else new.size()
    assert new.first(count) == ref.first(count)
    with pytest.raises(SpecError) if not new.is_infinite else nullcontext():
        new.first(count + 1)


def test_bitset_matches_reference_on_construction_and_algebra():
    rng = random.Random(61)
    small = tuple(range(1, 18))
    for round_ in range(120):
        periods = _WIDE_PERIODS if round_ % 2 else small
        args_a, args_b = _random_args(rng, periods), _random_args(rng, periods)
        a, ra = TemplateSet(*args_a), ReferenceTemplateSet(*args_a)
        b, rb = TemplateSet(*args_b), ReferenceTemplateSet(*args_b)
        for new, ref in ((a, ra), (b, rb)):
            _assert_same(new, ref)
            _assert_same_queries(new, ref)
        for op in ("__or__", "__and__", "__sub__"):
            _assert_same(getattr(a, op)(b), getattr(ra, op)(rb))
        add = {rng.randrange(300) for _ in range(rng.randint(0, 4))}
        remove = {rng.randrange(300) for _ in range(rng.randint(0, 4))}
        _assert_same(a.patch(add, remove), ra.patch(add, remove))
        assert a.issubset(b) == ra.issubset(rb)
        assert (a | b).issubset(a) == (ra | rb).issubset(ra)
        assert (a == b) == (ra == rb)
        assert a == TemplateSet(*ra.sort_key()) and hash(a) == hash(TemplateSet(*ra.sort_key()))


def test_bitset_matches_reference_on_select():
    rng = random.Random(62)
    for _ in range(150):
        carrier_args = _random_args(rng, (1, 2, 3, 5, 6, 7, 12, 40, 64, 96))
        index_args = _random_args(rng, tuple(range(1, 13)))
        carrier, index = TemplateSet(*carrier_args), TemplateSet(*index_args)
        rcarrier, rindex = ReferenceTemplateSet(*carrier_args), ReferenceTemplateSet(*index_args)
        _assert_same_outcome(lambda: carrier.select(index), lambda: rcarrier.select(rindex))
        few = index_args[3] and set(list(index_args[3])[:5])
        _assert_same_outcome(lambda: carrier.select(few), lambda: rcarrier.select(few))


def test_mask_matches_sum_of_shifts():
    # `_mask` writes a list with more than one member per 25 positions as binary
    # text and ors a sparser one bit by bit: lists on both sides of that choice,
    # with duplicates, against the plain sum over the distinct members
    rng = random.Random(64)
    cases = [([], 0), ([], 1), ([0], 1), ([0, 0], 1), ([3, 3, 0], 4), ([0, 500_000], 10**6),
             ([999_999] * 3, 10**6)]
    for width in (1, 7, 8, 9, 24, 25, 26, 50, 64, 200, 1845, 10**4, 10**5):
        for count in {1, width // 25, width // 25 + 1, width // 4, width, 2 * width}:
            cases.append(([rng.randrange(width) for _ in range(count)], width))
    for values, width in cases:
        assert _mask(values, width) == sum(1 << v for v in set(values)), (values[:5], width)


# periods with many prime factors (1920 = 2^7 3 5, 720720 = 2^4 3^2 5 7 11 13), a
# prime power and a prime near the limit: the constructor divides each prime
# factor out of the period while the residue word repeats
_FACTORED_PERIODS = (1920, 720720, 1 << 19, 999983)


def _divisor_scan(period: int, divisors: list[int], res: int) -> tuple[int, int]:
    """Least period and residue word of a `period`-bit residue word, by the
    scan over every divisor that the constructor made before it read prime
    factors."""
    for e in divisors:
        base = res & ((1 << e) - 1)
        if base.bit_count() * (period // e) == res.bit_count() and _tile(base, e, period) == res:
            return e, base
    raise AssertionError("the full period always repeats")


def test_canonical_period_matches_divisor_scan():
    # residue words that repeat a dense or sparse pattern of a random divisor,
    # some with one or two bits flipped so that a longer period is least
    rng = random.Random(68)
    for period in _FACTORED_PERIODS:
        divisors = [e for e in range(1, period + 1) if period % e == 0]
        for _ in range(8):
            e = rng.choice(divisors)
            base = rng.getrandbits(e) if rng.random() < 0.5 else 1 << rng.randrange(e)
            word = _tile(base or 1, e, period)
            for _ in range(rng.choice((0, 0, 1, 2))):
                word ^= 1 << rng.randrange(period)
            if word:
                t = TemplateSet._from_masks(period, word, 0, 0)
                assert (t.period, t._res) == _divisor_scan(period, divisors, word), (period, e)
    # the constructor's own route at the periods the frozenset reference affords
    for _ in range(12):
        args = _random_args(rng, (1920, 2520, 4096, 4093))
        _assert_same_outcome(lambda: TemplateSet(*args), lambda: ReferenceTemplateSet(*args))


def test_from_finite_matches_constructor():
    # same canonical fields, or the same SpecError, as `TemplateSet(1, (), max + 1, values)`;
    # likewise `empty()` and `full()` as `TemplateSet(1, ())` and `TemplateSet(1, (0,))`
    _assert_same_outcome(TemplateSet.empty, lambda: TemplateSet(1, ()))
    _assert_same_outcome(TemplateSet.full, lambda: TemplateSet(1, (0,)))
    rng = random.Random(63)
    cases = [[], [0], [999_999], [1_000_000], [999_999, 0, 999_999], [-1], [1_000_000, -1]]
    for _ in range(200):
        top = rng.choice((1, 8, 70, 300, 1_000_001))
        cases.append([rng.randrange(top) for _ in range(rng.randint(0, 12))])
    for vals in cases:
        top = max(vals) + 1 if vals else 0
        _assert_same_outcome(lambda: TemplateSet.from_finite(iter(vals)),
                             lambda: TemplateSet(1, (), top, vals))


# the constructor's six checks in the order it makes them, each with ways to
# break it alone, as updates to `_VALID`; a value stays broken under any other
# update and the limit's update avoids the scalar another one set, so a pair of
# them breaks both checks
_VALID = {"period": 12, "residues": [1, 5, 9], "threshold": 20, "low": [0, 4, 8, 12, 16],
          "minus": [2, 30]}
_CHECKS = (
    ("period must be a positive integer",
     lambda rng, a, taken: {"period": rng.choice((0, -3))}),
    ("residues must lie in [0, period)",
     lambda rng, a, taken: {"residues": a["residues"] + [rng.choice((-1, 10**13))]}),
    ("template members are natural numbers",
     lambda rng, a, taken: rng.choice(({"low": a["low"] + [-1]}, {"minus": a["minus"] + [-5]}))),
    ("threshold must be a natural number",
     lambda rng, a, taken: {"threshold": rng.choice((-1, -20))}),
    ("low part must lie below the threshold",
     lambda rng, a, taken: {"low": a["low"] + [rng.choice((10**7, 10**13))]}),
    (f"template period, threshold and members are limited to {_PERIOD_LIMIT}",
     lambda rng, a, taken: rng.choice([u for u in (
         {"period": _PERIOD_LIMIT + 1}, {"threshold": _PERIOD_LIMIT + 5},
         {"minus": a["minus"] + [_PERIOD_LIMIT + 1]}) if not taken & set(u)])),
)


def _ints_only(vals) -> bool:
    return all(type(v) is int for v in vals)


def _as_range(vals):
    step = vals[1] - vals[0] if len(vals) > 1 and _ints_only(vals) else 0
    if step > 0 and all(b - a == step for a, b in zip(vals, vals[1:])):
        return range(vals[0], vals[-1] + 1, step)
    return list(vals)


# ways to hand the constructor a member list: each call builds a fresh object,
# so one-shot iterators are fresh for each implementation
_FORMS = (
    list, tuple, set, iter, _as_range,
    lambda vals: (v for v in vals),
    lambda vals: vals + vals[::-1],  # duplicates
    lambda vals: [str(v) for v in vals],  # digit strings
    lambda vals: "".join(map(str, vals)) if _ints_only(vals) and all(0 <= v < 10 for v in vals)
    else list(vals),
)


def _render(rng, args):
    """A factory of constructor arguments with each field in a random form."""
    forms = {key: rng.choice(_FORMS) for key in ("residues", "low", "minus")}
    scalars = {key: rng.choice((int, str)) for key in ("period", "threshold")}

    def make():
        out = {key: form(list(args[key])) for key, form in forms.items()}
        out.update((key, form(args[key])) for key, form in scalars.items())
        return out
    return make


def _failure(cls, kwargs):
    try:
        cls(**kwargs)
    except (SpecError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


def test_constructor_rejects_like_reference():
    # each check broken alone and in pairs, over many argument forms: the same
    # error (type and message) as the reference, which pins the order of the checks
    rng = random.Random(64)
    cases = [(i,) for i in range(len(_CHECKS))] * 12
    cases += [(i, j) for i in range(len(_CHECKS)) for j in range(i + 1, len(_CHECKS))] * 6
    for broken in cases:
        args = dict(_VALID)
        taken = set()
        for i in broken:
            update = _CHECKS[i][1](rng, args, taken)
            args.update(update)
            taken |= set(update)
        if rng.random() < 0.2:  # an unconvertible member fails before any later check
            key = rng.choice(("residues", "low", "minus"))
            args[key] = args[key] + [rng.choice(("x", 1j))]
        make = _render(rng, args)
        got, want = _failure(TemplateSet, make()), _failure(ReferenceTemplateSet, make())
        assert got == want, (broken, args)
        if _ints_only(args["residues"] + args["low"] + args["minus"]):
            assert want == (SpecError, _CHECKS[min(broken)][0])
    for _ in range(30):  # every form of the valid arguments builds the same template
        make = _render(rng, _VALID)
        _assert_same(TemplateSet(**make()), ReferenceTemplateSet(**make()))


class TestLargeTemplates:
    """Inputs near the period limit that once took seconds; exact results only."""

    def test_period_reduces_from_a_million(self):
        assert TemplateSet(10**6, [0, 500_000]) == TemplateSet(500_000, [0])

    def test_first_members_of_a_long_period(self):
        assert TemplateSet(999_983, [5]).first(3) == [5, 999_988, 1_999_971]

    def test_large_finite_set(self):
        t = TemplateSet.from_finite(range(0, 10**6, 3))
        assert t.size() == 333_334
        assert t.first(3) == [0, 3, 6] and 999_999 in t and 999_998 not in t

    def test_dense_residues_reduce(self):
        assert TemplateSet(720_720, range(0, 720_720, 2)) == TemplateSet(2, [0])

    def test_long_select_cycle_refused_before_reading_indices(self, monkeypatch):
        # the canonical base of a U(999,1000) sum: the index period 8192 makes a
        # cycle of lcm(8192, 999) indices, a period of 8 192 000; the bound is
        # checked before any index is read
        carrier, indices = TemplateSet(1000, range(999)), TemplateSet(8192, [2048])
        mask_below, contains = TemplateSet.mask_below, TemplateSet.__contains__

        def guard(read):
            def wrapped(self, n):
                assert self is not indices, "index set read before the bound check"
                return read(self, n)
            return wrapped

        monkeypatch.setattr(TemplateSet, "mask_below", guard(mask_below))
        monkeypatch.setattr(TemplateSet, "__contains__", guard(contains))
        with pytest.raises(SpecError, match="limited to 1000000"):
            carrier.select(indices)
