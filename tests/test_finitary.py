import random
import time
from itertools import product
from math import gcd, lcm

import pytest

from matroid_forge import (
    DependenceError,
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    INFINITE,
    LinearMatroid,
    PeriodicSumMatroid,
    SpecError,
    TemplateSet,
    UniformMatroid,
    removal_witness,
    strongly_equivalent,
)
from matroid_forge.finitary import _HEAD_LIMIT
from matroid_forge.selftest import restriction_agreement
from matroid_forge.templates import _PERIOD_LIMIT

EVENS = TemplateSet(2, [0])
ODDS = TemplateSet(2, [1])
FREE = FreeMatroid()
PAIRS = PeriodicSumMatroid(UniformMatroid(1, 2))  # blocks {a_i, b_i} = {2i, 2i+1}
A_ALL = TemplateSet(2, [0])
B_ALL = TemplateSet(2, [1])
TRIANGLE = GraphicMatroid([("a", "b"), ("b", "c"), ("a", "c")])
SPARSE = ExplicitMatroid({2, 5, 9}, [{2, 5}, {5, 9}])  # component ids are not positions
COMPONENTS = [
    UniformMatroid(1, 2), UniformMatroid(2, 3), UniformMatroid(2, 4), UniformMatroid(1, 1),
    TRIANGLE, SPARSE, LinearMatroid(2, [[1, 0, 1, 1], [0, 1, 1, 0]]),
]


class TestConstruction:
    def test_free(self):
        assert FREE.finite_rank({0, 5, 17}) == 3

    def test_periodic_blocks(self):
        # one element per block is independent, two are not
        assert PAIRS.finite_rank({0, 3, 4}) == 3
        assert PAIRS.finite_rank({0, 1}) == 1

    @pytest.mark.parametrize("schema", [FREE, PAIRS], ids=["free", "pairs"])
    def test_negative_ids_refused(self, schema):
        with pytest.raises(SpecError, match="element ids are natural numbers"):
            schema.finite_rank([-1, 2])

    def test_blocks_over_long_windows(self):
        # windows of several hundred blocks, so the mask is sliced over more than one run
        rng = random.Random(7)
        for schema in (PAIRS, PeriodicSumMatroid(TRIANGLE)):
            for period in (997, 1201, 1920):
                threshold = rng.randrange(3 * period)
                t = TemplateSet(period, {rng.randrange(period) for _ in range(40)}, threshold,
                                {rng.randrange(threshold) for _ in range(30)} if threshold else ())
                count = sum(window(schema, t))
                expected = [sum(1 << p for p in range(schema.block) if c * schema.block + p in t)
                            for c in range(count)]
                assert schema._blocks(t, count) == expected

    def test_rank_zero_component_rejected(self):
        loops = GraphicMatroid([("a", "a")])  # single loop, rank 0
        with pytest.raises(SpecError):
            PeriodicSumMatroid(loops)


class TestCertify:
    def test_free_everything(self):
        assert FREE.certify(TemplateSet.full())

    def test_periodic(self):
        assert PAIRS.certify(A_ALL)
        assert PAIRS.certify(B_ALL)
        assert not PAIRS.certify(A_ALL | B_ALL)

    def test_relative_certification(self):
        # one block element becomes dependent once the other is contracted
        assert not PAIRS.certify(A_ALL, over=B_ALL)
        assert PAIRS.certify(TemplateSet(4, [0]), over=TemplateSet(4, [3]))

    def test_head_limit(self):
        # the block analysis refuses a head of more than _HEAD_LIMIT blocks
        far = TemplateSet.from_finite([300_000])
        assert far.threshold // PAIRS.block > _HEAD_LIMIT
        with pytest.raises(SpecError):
            PAIRS.certify(far)

    def test_cycle_limit(self):
        # coprime periods combine to a tail cycle of about 10**12 blocks; one period
        # already passes 10**6 elements as 999,983 blocks of 2 or 15,627 blocks of
        # 64: all are refused before any work
        wide = PeriodicSumMatroid(UniformMatroid(1, 64))
        for schema, x, y in ((PAIRS, TemplateSet(999_983, [0]), TemplateSet(999_979, [1])),
                             (PAIRS, TemplateSet(999_983, [0]), TemplateSet.empty()),
                             (wide, TemplateSet(15_627, [0]), TemplateSet.empty())):
            for query in (lambda: schema.certify(x, over=y), lambda: schema.relative_rank(x, y),
                          lambda: schema.max_independent_subtemplate(x, over=y),
                          lambda: schema.class_member(x, y)):
                start = time.perf_counter()
                with pytest.raises(SpecError):
                    query()
                assert time.perf_counter() - start < 1
        # a cycle of exactly _PERIOD_LIMIT elements is still answered
        assert wide.certify(TemplateSet(15_625, [0]))

    def test_finitary_consistency(self):
        # all sampled finite subsets of a certified template are independent
        rng = random.Random(5)
        for schema, template in [
            (FREE, EVENS),
            (PAIRS, A_ALL),
            (PAIRS, TemplateSet(4, [0, 3])),
        ]:
            assert schema.certify(template)
            members = template.members_below(200)
            for _ in range(100):
                sample = frozenset(m for m in members if rng.random() < 0.3)
                assert schema.finite_rank(sample) == len(sample)


class TestRelativeRank:
    def test_free_cases(self):
        assert FREE.relative_rank(ODDS, EVENS) == INFINITE
        assert FREE.relative_rank({0, 2}, EVENS) == 0
        assert FREE.relative_rank({1, 2}, EVENS) == 1

    def test_periodic_cases(self):
        assert PAIRS.relative_rank(A_ALL, B_ALL) == 0
        assert PAIRS.relative_rank(A_ALL, TemplateSet.empty()) == INFINITE
        # only blocks 0 and 1 contribute once b_0, b_1 are unavailable
        assert PAIRS.relative_rank(A_ALL, B_ALL.patch(remove=[1, 3])) == 2

    def test_agrees_with_restriction(self):
        rng = random.Random(7)
        toured = [FREE, PAIRS, PeriodicSumMatroid(UniformMatroid(2, 3)),
                  PeriodicSumMatroid(TRIANGLE), PeriodicSumMatroid(SPARSE)]
        for schema in toured:
            assert restriction_agreement(schema, (8, 16, 32, 64), rng, 60, 0.3).ok, schema

    def test_restriction_ranks(self):
        finite = PAIRS.restrict(6)
        assert finite.full_rank == 3
        assert finite.rank({0, 1}) == 1


class TestMaxIndependentSubtemplate:
    def test_free(self):
        assert FREE.max_independent_subtemplate(EVENS) == EVENS
        assert FREE.max_independent_subtemplate(EVENS, over=TemplateSet(4, [0])) == TemplateSet(4, [2])

    def test_periodic_takes_first_per_block(self):
        got = PAIRS.max_independent_subtemplate(A_ALL | B_ALL)
        assert got == A_ALL  # greedy prefers the smaller id in each block

    def test_relative_greedy(self):
        # contracting all a_i leaves nothing independent among the b_i
        got = PAIRS.max_independent_subtemplate(B_ALL, over=A_ALL)
        assert got.is_empty

    def test_matches_per_block_minors(self):
        rng = random.Random(13)

        def template():
            d, t = rng.randint(1, 9), rng.randint(0, 14)
            return TemplateSet(d, [r for r in range(d) if rng.random() < 0.5], t,
                               [n for n in range(t) if rng.random() < 0.5])

        for _ in range(300):
            schema = PeriodicSumMatroid(rng.choice(COMPONENTS))
            pool, over = template(), template()
            for base in (None, over):
                expected = per_block_subtemplate(schema, pool, base or TemplateSet.empty())
                assert schema.max_independent_subtemplate(pool, over=base) == expected

    def test_result_certified_and_maximal(self):
        rich = PeriodicSumMatroid(UniformMatroid(2, 3))
        pool = TemplateSet(2, [0]) | TemplateSet(6, [1])
        got = rich.max_independent_subtemplate(pool)
        assert rich.certify(got)
        for extra in (pool - got).members_below(60):
            grown = got.patch(add=[extra])
            assert not rich.certify(grown)


def window(schema, *templates):
    """(head, cycle) in blocks: past the head, block patterns repeat with the cycle."""
    head = -(-max(t.threshold for t in templates) // schema.block)
    return head, lcm(*(t.period // gcd(t.period, schema.block) for t in templates))


def pattern(schema, template, c):
    """Component elements of block c: position p holds the p-th smallest element."""
    return frozenset(e for p, e in enumerate(sorted(schema.component.ground))
                     if c * schema.block + p in template)


def assemble(schema, patterns, start, cycle):
    """Template with block c < start given by patterns[c], then patterns[start:] repeating."""
    block = schema.block
    pos = {e: p for p, e in enumerate(sorted(schema.component.ground))}
    low = [c * block + pos[e] for c in range(start) for e in patterns[c]]
    residues = [(c * block + pos[e]) % (cycle * block)
                for c in range(start, start + cycle) for e in patterns[c]]
    return TemplateSet(cycle * block, residues, start * block, low)


def member_list_template(schema, masks, start, cycle):
    """`PeriodicSumMatroid._template` as it was before it built its masks
    directly: list every member, then validate them in the constructor."""
    members = [c * schema.block + p for c, mask in enumerate(masks)
               for p in range(schema.block) if mask >> p & 1]
    cut, period = start * schema.block, cycle * schema.block
    residues = {n % period for n in members if n >= cut}
    return TemplateSet(period, residues, cut, [n for n in members if n < cut])


def _outcome(fn):
    try:
        return fn()
    except SpecError as exc:
        return str(exc)


class TestTemplateFromMasks:
    def test_matches_member_lists(self):
        # heads of odd and even lengths, long enough for several pairing levels
        rng = random.Random(19)
        for _ in range(300):
            schema = PeriodicSumMatroid(rng.choice(COMPONENTS))
            start = rng.choice((0, 1, 2, 5, rng.randint(0, 40), rng.randint(200, 700)))
            cycle, density = rng.randint(1, 9), rng.random()
            masks = [sum(1 << p for p in range(schema.block) if rng.random() < density)
                     for _ in range(start + cycle)]
            got = schema._template(masks, start, cycle)
            assert got == member_list_template(schema, masks, start, cycle)

    def test_limit_errors_match(self):
        # a tail period or a cut past the template limit fails with the same error
        wide = PeriodicSumMatroid(UniformMatroid(1, 1000))
        rng = random.Random(20)
        for schema, start, cycle in ((wide, 0, 1001), (PAIRS, 500_001, 1), (wide, 1000, 1)):
            masks = [rng.getrandbits(schema.block) for _ in range(start + cycle)]
            got = _outcome(lambda: schema._template(masks, start, cycle))
            assert got == _outcome(lambda: member_list_template(schema, masks, start, cycle))
            assert isinstance(got, str) == (max(start, cycle) * schema.block > _PERIOD_LIMIT)


def per_block_subtemplate(schema, template, over):
    """Greedy per block over over's pattern there: e joins when it raises the
    component rank of picked + over's pattern by one."""
    head, cycle = window(schema, template, over)
    rank = schema.component.rank
    chosen = []
    for c in range(head + cycle):
        op, picked = pattern(schema, over, c), set()
        for e in sorted(pattern(schema, template, c) - op):
            if rank(picked | {e} | op) == rank(picked | op) + 1:
                picked.add(e)
        chosen.append(frozenset(picked))
    return assemble(schema, chosen, head, cycle)


def brute_class_member(schema, rep, lower, upper):
    """Search every independent template free over head + cycle + 3 blocks."""
    bound = TemplateSet.full() if upper is None else upper
    head, cycle = window(schema, rep, lower, bound)
    patterns = [frozenset(s) for s in schema.component.independent_sets()]
    choices = [
        [p for p in patterns if pattern(schema, lower, c) <= p <= pattern(schema, bound, c)]
        for c in range(head + 3 + cycle)
    ]
    for picks in product(*choices):
        member = assemble(schema, picks, head + 3, cycle)
        if strongly_equivalent(schema, member, rep):
            return member
    return None


class TestClassMember:
    def test_periodic_matches_brute_force(self):
        # a head of at most one block of rank <= 2 never needs more than two
        # deviating tail blocks, so the brute-force window is exhaustive
        rng = random.Random(3)
        for _ in range(60):
            component = rng.choice([UniformMatroid(1, 2), UniformMatroid(2, 3), UniformMatroid(2, 4)])
            schema = PeriodicSumMatroid(component)
            patterns = [frozenset(s) for s in component.independent_sets()]
            head = rng.choice([0, 1])
            cycle = 1 if head else rng.choice([1, 2])
            blocks = range(head + cycle)
            rep = assemble(schema, [rng.choice(patterns) for _ in blocks], head, cycle)
            caps = [rng.choice(patterns) for _ in blocks]
            upper = assemble(schema, caps, head, cycle) if rng.random() < 0.75 else None
            subsets = [frozenset(e for e in p if rng.random() < 0.5) for p in caps]
            lower = assemble(schema, subsets, head, cycle)
            got = schema.class_member(rep, lower, upper)
            assert (got is None) == (brute_class_member(schema, rep, lower, upper) is None)
            if got is not None:
                assert schema.certify(got) and strongly_equivalent(schema, got, rep)
                assert lower.issubset(got) and (upper is None or got.issubset(upper))
            if lower.issubset(rep) and (upper is None or rep.issubset(upper)):
                assert got == rep

    def test_free_agrees_with_unit_blocks(self):
        unit = PeriodicSumMatroid(UniformMatroid(1, 1))  # the free matroid again
        rng = random.Random(8)

        def template():
            d, t = rng.randint(1, 4), rng.randint(0, 6)
            return TemplateSet(d, [r for r in range(d) if rng.random() < 0.5], t,
                               [n for n in range(t) if rng.random() < 0.5])

        for _ in range(200):
            rep, upper = template(), template()
            lower = template() & upper
            for bound in (upper, None):
                free = FREE.class_member(rep, lower, bound)
                assert (free is None) == (unit.class_member(rep, lower, bound) is None)
                if free is not None:
                    assert strongly_equivalent(FREE, free, rep) and lower.issubset(free)


class TestSparseComponentGround:
    def test_positions_follow_sorted_order(self):
        from matroid_forge import ExplicitMatroid

        component = ExplicitMatroid({2, 5, 9}, [{2, 5}, {5, 9}])
        schema = PeriodicSumMatroid(component)
        assert schema.block == 3
        # one full block holds component elements 2, 5, 9 in position order
        assert schema.finite_rank({0, 1, 2}) == 2
        assert schema.certify(TemplateSet(3, [0]))
        assert not schema.certify(TemplateSet(3, [0, 2]))  # {2,9} is in no base
        assert schema.certify(TemplateSet(3, [0, 1]))
        base = schema.canonical_base()
        assert base == TemplateSet(3, [0, 1])  # greedy picks 2 then 5 per block


def scanned_witness(schema, inner, outer, protected, count, over):
    """`removal_witness` on disjoint inner and outer, each swap partner found by an
    uncapped literal scan: the smallest f in current - inner with current + e - f
    independent over `over`."""
    base = over if over is not None else TemplateSet.empty()
    inner, outer = inner - base, outer - base
    if protected:
        shield = TemplateSet.from_finite(protected)
        grown = base | shield
        reduced = schema.max_independent_subtemplate(inner - shield, over=grown)
        return scanned_witness(schema, reduced, outer - shield, (), count, grown)
    current, picked = outer, []
    for e in (inner - outer).first(count):
        grown = current.patch(add=[e])
        f = next(f for f in (current - inner).iter_members()
                 if schema.certify(grown.patch(remove=[f]), over=base))
        current = grown.patch(remove=[f])
        picked.append(f)
    return frozenset(picked)


class TestRemovalWitness:
    def test_free_example(self):
        witness = removal_witness(FREE, EVENS, ODDS, (), 3)
        assert witness == {1, 3, 5}
        assert FREE.relative_rank(EVENS, ODDS - TemplateSet.from_finite(witness)) >= 3

    def test_periodic_example(self):
        witness = removal_witness(PAIRS, A_ALL, B_ALL, {1}, 2)
        assert witness == {3, 5}
        left = B_ALL - TemplateSet.from_finite(witness)
        assert PAIRS.relative_rank(A_ALL, left) == 2

    def test_zero(self):
        assert removal_witness(FREE, EVENS, ODDS, (), 0) == frozenset()

    def test_overlap_case(self):
        witness = removal_witness(FREE, EVENS, TemplateSet(4, [0, 2]), {0}, 2)
        assert witness == {2, 4}

    def test_protected_respected(self):
        witness = removal_witness(PAIRS, A_ALL, B_ALL, {1, 3, 5}, 1)
        assert witness.isdisjoint({1, 3, 5})
        assert witness <= set(B_ALL.members_below(100))

    def test_requires_infinite(self):
        with pytest.raises(SpecError):
            removal_witness(FREE, TemplateSet.from_finite([1]), ODDS, (), 1)

    def test_requires_independent(self):
        with pytest.raises(DependenceError):
            removal_witness(PAIRS, A_ALL | B_ALL, A_ALL, (), 1)

    def test_sampled_postcondition(self):
        # checker does not trust the constructor: re-verify every witness
        rng = random.Random(11)
        schemas = [FREE, PAIRS, PeriodicSumMatroid(UniformMatroid(2, 3))]
        for _ in range(120):
            schema = rng.choice(schemas)
            period = rng.randint(1, 5)
            inner = TemplateSet(period, {rng.randrange(period)})
            outer_period = rng.randint(1, 5)
            outer = TemplateSet(outer_period, {rng.randrange(outer_period)})
            if not (schema.certify(inner) and schema.certify(outer)):
                continue
            protected = frozenset(outer.first(rng.randint(0, 3))[: rng.randint(0, 3)])
            count = rng.randint(0, 6)
            witness = removal_witness(schema, inner, outer, protected, count)
            assert witness <= set(outer.members_below(10_000))
            assert not (witness & protected)
            left = outer - TemplateSet.from_finite(witness)
            assert schema.relative_rank(inner, left) >= count

    def test_matches_literal_scan(self, monkeypatch):
        # the block decision of each swap partner against the scan it replaced
        partner = PeriodicSumMatroid._circuit_partner
        decided = []
        monkeypatch.setattr(PeriodicSumMatroid, "_circuit_partner",
                            lambda *args: decided.append(1) or partner(*args))
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        schemas = [FREE] + [PeriodicSumMatroid(c) for c in (
            UniformMatroid(1, 2), UniformMatroid(2, 3), UniformMatroid(2, 4), GraphicMatroid(edges))]
        rng = random.Random(12)

        def template():
            d, t = rng.randint(1, 8), rng.randint(0, 24)
            res = [r for r in range(d) if rng.random() < 0.5] or [rng.randrange(d)]
            return TemplateSet(d, res, t, [n for n in range(t) if rng.random() < 0.4])

        done = 0
        while done < 600:
            schema = rng.choice(schemas)
            over = template() if rng.random() < 0.5 else None
            base = over if over is not None else TemplateSet.empty()
            inner = schema.max_independent_subtemplate(template(), over=over)
            outer = schema.max_independent_subtemplate(template() - inner, over=over)
            if not ((inner - base).is_infinite and (outer - base).is_infinite):
                continue
            protected = frozenset(x for x in (outer - base).first(8) if rng.random() < 0.3)
            count = rng.randint(1, 7)
            want = scanned_witness(schema, inner, outer, protected, count, over)
            assert removal_witness(schema, inner, outer, protected, count, over=over) == want
            done += 1
        assert len(decided) >= 100

    def test_certify_calls_do_not_grow_with_the_head(self, monkeypatch):
        # the swap test and the partner are read on one block, so a swap costs no
        # call over the head, and protected elements are contracted in place
        schema = PeriodicSumMatroid(UniformMatroid(2, 4))
        certify = PeriodicSumMatroid.certify
        calls = []
        monkeypatch.setattr(PeriodicSumMatroid, "certify",
                            lambda *args, **kw: calls.append(1) or certify(*args, **kw))
        for protected in ((), {0, 1}):
            counts = []
            for k in (100, 400):
                calls.clear()
                rep = TemplateSet(4, [2], 4 * k)
                witness = removal_witness(schema, rep, TemplateSet(4, [0, 1]), protected, 3)
                assert witness == {4 * k, 4 * k + 4, 4 * k + 8}
                counts.append(len(calls))
            assert counts == [2, 2], protected  # the two entry checks only
