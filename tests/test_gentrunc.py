import random
from itertools import combinations

import pytest

from matroid_forge import (
    BoundError,
    ExplicitMatroid,
    FamilyError,
    FreeMatroid,
    PeriodicSumMatroid,
    SchemaError,
    TemplateSet,
    TruncationFamily,
    UniformMatroid,
    check_base_axioms,
    enumerate_gen_truncations,
    enumerate_raw,
    find_comparable_pair,
    seed_family,
    truncate_to,
    verify_family,
    verify_family_finitary,
    verify_is_gen_truncation,
)

EVENS = TemplateSet(2, [0])
ODDS = TemplateSet(2, [1])
FREE = FreeMatroid()
PAIRS = PeriodicSumMatroid(UniformMatroid(1, 2))
SEED_PREFIXES = [format(v, f"0{length}b") for length in range(1, 7) for v in range(1 << length)]


def pairs_of(n):
    return {frozenset(c) for c in combinations(range(1, n + 1), 2)}


class TestVerifyFamily:
    def test_trivial_truncation_ok(self):
        assert verify_family(UniformMatroid(2, 3), pairs_of(3)).ok

    def test_subset_spanning_violation(self):
        verdict = verify_family(UniformMatroid(2, 3), [frozenset(), frozenset({1})])
        assert verdict.tag == "3"
        member, spanned, subset = verdict.witness
        assert member == {1} and spanned == frozenset() and subset == frozenset()

    def test_empty_family(self):
        assert verify_family(UniformMatroid(2, 3), []).tag == "1"

    def test_dependent_member(self):
        verdict = verify_family(UniformMatroid(1, 3), [{1, 2}])
        assert verdict.tag == "1"

    def test_exchange_closure_violation(self):
        verdict = verify_family(UniformMatroid(2, 4), [{1, 2}])
        assert verdict.tag == "2"
        member, missing = verdict.witness
        assert len(missing) == len(member)
        assert UniformMatroid(2, 4).is_independent(missing)

    def test_nested_pair_violation(self):
        # levels 0 and 2 of U(2,3): closed under exchange, no proper-subset
        # spanning issue between equal members, but {1} <= {1,2} is unsettled
        m = UniformMatroid(2, 3)
        fam = [frozenset()] + sorted(pairs_of(3))
        verdict = verify_family(m, fam)
        assert not verdict.ok

    def test_nested_pair_check_never_first_on_finite(self, corpus_small):
        # once the exchange-closure and subset-spanning conditions hold, a
        # finite family is one complete size level, and levels settle every
        # nested pair; the exhaustive nested-pair loop still runs as part of
        # the conjunction and is covered by the enumeration oracle
        for name, m in corpus_small:
            if len(m.independent_sets()) > 14:
                continue
            for k in range(m.full_rank + 1):
                level = [s for s in m.independent_sets() if len(s) == k]
                assert verify_family(m, level).ok, (name, k)

    def test_bound(self):
        with pytest.raises(BoundError):
            verify_family(UniformMatroid(2, 11), [{1, 2}])


class TestVerifyDefinition:
    def test_truncations_pass_everywhere(self, corpus_small):
        for name, m in corpus_small:
            for k in range(m.full_rank + 1):
                assert verify_is_gen_truncation(m, truncate_to(m, k)).ok, (name, k)

    def test_augmentation_violation(self):
        m = UniformMatroid(2, 3)
        candidate = ExplicitMatroid(m.ground, [{1}])
        verdict = verify_is_gen_truncation(m, candidate)
        assert verdict.tag == "III"
        assert verdict.witness == (frozenset(), 2)

    def test_trivial(self):
        m = UniformMatroid(2, 3)
        assert verify_is_gen_truncation(m, m).ok

    def test_ground_mismatch(self):
        verdict = verify_is_gen_truncation(UniformMatroid(1, 2), UniformMatroid(1, 3))
        assert verdict.tag == "I"

    def test_independence_containment(self):
        m = ExplicitMatroid({1, 2}, [{1}])  # 2 is a loop
        candidate = UniformMatroid(1, 2)
        verdict = verify_is_gen_truncation(m, candidate)
        assert verdict.tag == "II"


class TestEnumeration:
    def test_u23(self):
        fams = enumerate_gen_truncations(UniformMatroid(2, 3))
        assert len(fams) == 3
        assert {frozenset()} in fams
        assert {frozenset({1}), frozenset({2}), frozenset({3})} in fams
        assert pairs_of(3) in fams

    def test_rank_zero(self):
        m = ExplicitMatroid({1, 2}, [set()])
        assert enumerate_gen_truncations(m) == [frozenset({frozenset()})]

    def test_free_matroid_gives_uniform_levels(self):
        free4 = ExplicitMatroid({1, 2, 3, 4}, [{1, 2, 3, 4}])
        fams = enumerate_gen_truncations(free4)
        assert len(fams) == 5
        for k in range(5):
            assert truncate_to(free4, k).bases_set() in fams

    def test_raw_oracle_matches(self, corpus_enumerable):
        for name, m in corpus_enumerable:
            fast = {frozenset(f) for f in enumerate_gen_truncations(m)}
            raw = {frozenset(f) for f in enumerate_raw(m)}
            assert fast == raw, name

    def test_raw_examples(self):
        assert len(enumerate_raw(UniformMatroid(1, 2))) == 2
        one = ExplicitMatroid({1}, [{1}])
        assert len(enumerate_raw(one)) == 2

    def test_raw_bound(self):
        with pytest.raises(BoundError):
            enumerate_raw(UniformMatroid(3, 6))

    def test_every_family_passes_axioms(self, corpus_enumerable):
        for name, m in corpus_enumerable:
            for fam in enumerate_gen_truncations(m):
                assert check_base_axioms(m.ground, fam).ok, name

    def test_soundness_bridge(self, corpus_enumerable):
        # a family passes verify_family iff it is the base family of a
        # structure passing both the axioms and the truncation definition
        for name, m in corpus_enumerable:
            indep = m.independent_sets()
            if len(indep) > 12:
                continue
            for mask in range(1, 1 << len(indep)):
                fam = [indep[i] for i in range(len(indep)) if mask >> i & 1]
                ours = verify_family(m, fam).ok
                axioms = check_base_axioms(m.ground, fam).ok
                if axioms:
                    as_matroid = ExplicitMatroid(m.ground, fam, _checked=True)
                    other = verify_is_gen_truncation(m, as_matroid).ok
                else:
                    other = False
                assert ours == other, (name, fam)


class TestFamilyType:
    def test_duplicate_classes_rejected(self):
        with pytest.raises(FamilyError):
            TruncationFamily.build(FREE, [EVENS, EVENS.patch(add=[1], remove=[0])])

    def test_empty_rejected(self):
        with pytest.raises(FamilyError):
            TruncationFamily.build(FREE, [])

    def test_sorted_representatives(self):
        fam = TruncationFamily.build(FREE, [ODDS, TemplateSet(4, [0])])
        assert list(fam) == sorted(fam, key=TemplateSet.sort_key)

    @pytest.mark.parametrize("schema", [FREE, PAIRS, PeriodicSumMatroid(UniformMatroid(2, 3))],
                             ids=["free", "u12-blocks", "u23-blocks"])
    def test_comparable_is_first_comparable_pair(self, schema):
        # merged seed families of the prefixes of criterion 9: each prefix
        # alone, with one of its extensions (incomparable) and with three
        # seeded partners (comparable when they differ at a common position);
        # `build` gets the representatives unsorted
        rng = random.Random(7)
        seeds = {s: list(seed_family(schema, s)) for s in SEED_PREFIXES}
        for s in SEED_PREFIXES:
            longer = [t for t in SEED_PREFIXES if len(t) > len(s) and t.startswith(s)]
            partners = [s] + rng.sample(longer, min(1, len(longer))) + rng.sample(SEED_PREFIXES, 3)
            for t in partners:
                merged = list(dict.fromkeys(seeds[t] + seeds[s]))
                fam = TruncationFamily.build(schema, merged)
                expected = find_comparable_pair(schema, sorted(merged, key=TemplateSet.sort_key))
                assert fam.comparable == expected, (s, t)

    def test_equivalent_pair_raises_after_a_comparable_one(self):
        # sorted, (evens, mult 4) is comparable first; the equivalent pair comes last
        mult4 = TemplateSet(4, [0])
        with pytest.raises(FamilyError, match="name the same class"):
            TruncationFamily.build(FREE, [EVENS, mult4, mult4.patch(add=[1], remove=[0])])


def odds_below(n):
    return range(1, n, 2)


class TestVerifyFamilyFinitary:
    def test_unmet_task(self):
        # the second pair needs 65 swaps to trigger [evens] and is still unsettled
        fam = TruncationFamily.build(FREE, [EVENS])
        for task in [(TemplateSet.empty(), ODDS), (TemplateSet.from_finite(odds_below(130)), ODDS)]:
            out = verify_family_finitary(FREE, fam, [task])
            assert out.verdict.ok and out.unmet_tasks == (task,)
            assert not out.ok

    def test_met_task(self):
        # (odds < 2s) | (evens >= 2s) settles the later pairs after s swaps
        fam = TruncationFamily.build(FREE, [EVENS])
        uppers = [EVENS] + [TemplateSet(1, [0], 2 * s, odds_below(2 * s)) for s in (65, 95)]
        for upper in uppers:
            out = verify_family_finitary(FREE, fam, [(TemplateSet.empty(), upper)])
            assert out.ok

    def test_met_by_exchange(self):
        # settling (evens∪{1} minus one even, full) requires an exchanged member
        fam = TruncationFamily.build(FREE, [EVENS])
        lower = EVENS.patch(add=[1], remove=[0])
        out = verify_family_finitary(FREE, fam, [(lower, TemplateSet.full())])
        assert out.ok

    def test_wrong_class_member_rejected(self):
        class Misreporting(FreeMatroid):
            def class_member(self, rep, lower, upper=None):
                return ODDS  # not in the class of evens

        misreporting = Misreporting()
        fam = TruncationFamily.build(misreporting, [EVENS])
        with pytest.raises(SchemaError):
            verify_family_finitary(misreporting, fam, [(TemplateSet.empty(), EVENS)])

    def test_comparable_representatives_flagged(self):
        fam = TruncationFamily.build(FREE, [EVENS, TemplateSet(4, [0]).patch(add=[1])])
        out = verify_family_finitary(FREE, fam, [])
        assert out.verdict.tag == "3"

    def test_family_of_another_schema_refused(self):
        # evens and odds are incomparable on FREE but parallel classes on PAIRS
        fam = TruncationFamily.build(FREE, [EVENS, ODDS])
        assert verify_family_finitary(FREE, fam, []).ok
        with pytest.raises(FamilyError, match="name the same class"):
            TruncationFamily.build(PAIRS, [EVENS, ODDS])
        for other in (PAIRS, FreeMatroid()):
            with pytest.raises(FamilyError):
                verify_family_finitary(other, fam, [])

    def test_conditions_on_periodic(self):
        pairs = PeriodicSumMatroid(UniformMatroid(1, 2))
        fam = TruncationFamily.build(pairs, [TemplateSet(4, [0]), TemplateSet(4, [3])])
        out = verify_family_finitary(pairs, fam, [])
        assert out.ok

    def test_periodic_task_met_by_parallel_class(self):
        # the class of all first-position elements also contains all
        # second-position elements (blockwise mutual spanning); the class of
        # the second-position elements contains {0} | odds - {1}
        pairs = PeriodicSumMatroid(UniformMatroid(1, 2))
        for rep, upper in [(TemplateSet(2, [0]), TemplateSet(2, [1])),
                           (TemplateSet(2, [1]), TemplateSet.from_finite({0}))]:
            fam = TruncationFamily.build(pairs, [rep])
            out = verify_family_finitary(pairs, fam, [(TemplateSet.empty(), upper)])
            assert out.ok

    def test_periodic_task_unmet(self):
        pairs = PeriodicSumMatroid(UniformMatroid(1, 2))
        fam = TruncationFamily.build(pairs, [TemplateSet(4, [0])])
        out = verify_family_finitary(pairs, fam, [(TemplateSet.empty(), TemplateSet(4, [3]))])
        assert out.verdict.ok and len(out.unmet_tasks) == 1
