import pytest
from hypothesis import given, settings, strategies as st

from matroid_forge import SpecError, TemplateSet


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
        assert EVENS.isdisjoint(ODDS)

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
        import random

        rng = random.Random(20240)
        for _ in range(300):
            d1, d2 = rng.randint(1, 17), rng.randint(1, 17)
            t1, t2 = rng.randint(0, 20), rng.randint(0, 20)
            carrier = T(d1, {r for r in range(d1) if rng.random() < 0.4} or {0}, t1,
                        {x for x in range(t1) if rng.random() < 0.3})
            indices = T(d2, {r for r in range(d2) if rng.random() < 0.4}, t2,
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
        carrier = T(d1, res1, t1, low=data1.draw(st.sets(st.integers(0, max(t1 - 1, 0)))) if t1 else [])
        indices = T(d2, res2, t2, low=data2.draw(st.sets(st.integers(0, max(t2 - 1, 0)))) if t2 else [])
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
    a = TemplateSet(d1, r1.draw(st.sets(st.integers(0, d1 - 1))), t1,
                    l1.draw(st.sets(st.integers(0, t1 - 1))) if t1 else [])
    b = TemplateSet(d2, r2.draw(st.sets(st.integers(0, d2 - 1))), t2,
                    l2.draw(st.sets(st.integers(0, t2 - 1))) if t2 else [])
    combined = {"or": a | b, "and": a & b, "diff": a - b}[op]
    fn = {"or": lambda x, y: x or y, "and": lambda x, y: x and y,
          "diff": lambda x, y: x and not y}[op]
    horizon = 10 * (a.period * b.period) + max(a.threshold, b.threshold)
    for n in range(horizon):
        assert (n in combined) == _reference(fn, a, b, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.data(), st.integers(0, 10), st.data(), st.data())
def test_canonical_roundtrip(period, rdata, threshold, ldata, mdata):
    res = rdata.draw(st.sets(st.integers(0, period - 1)))
    low = ldata.draw(st.sets(st.integers(0, threshold - 1))) if threshold else set()
    minus = mdata.draw(st.sets(st.integers(0, 30)))
    t = TemplateSet(period, res, threshold, low, minus)
    # membership must match the raw definition
    for n in range(10 * period + threshold + 31):
        raw = ((n >= threshold and n % period in res) or n in low) and n not in minus
        assert (n in t) == raw
    # infinitude is decidable
    assert t.is_infinite == bool(t.residues)
