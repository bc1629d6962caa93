import random

import pytest

from matroid_forge import (
    ClassLabel,
    DependenceError,
    FreeMatroid,
    GroundError,
    PeriodicSumMatroid,
    TemplateSet,
    UniformMatroid,
    almost_spans,
    classify_class,
    find_comparable_pair,
    relative_rank_difference_check,
    strongly_equivalent,
)

EVENS = TemplateSet(2, [0])
ODDS = TemplateSet(2, [1])
FREE = FreeMatroid()
PAIRS = PeriodicSumMatroid(UniformMatroid(1, 2))


class TestAlmostSpans:
    def test_finite_always(self):
        m = UniformMatroid(2, 4)
        assert almost_spans(m, {1}, {2, 3}) is True
        assert almost_spans(m, (), ()) is True

    def test_free_infinite_gap(self):
        assert not almost_spans(FREE, EVENS, ODDS)

    def test_subset(self):
        assert almost_spans(FREE, EVENS, EVENS.patch(add=[1]))

    def test_periodic_parallel(self):
        assert almost_spans(PAIRS, TemplateSet(2, [0]), TemplateSet(2, [1]))

    def test_dependent_rejected(self):
        with pytest.raises(DependenceError):
            almost_spans(UniformMatroid(1, 3), {1, 2}, {3})


class TestStronglyEquivalent:
    def test_finite_balanced(self):
        assert strongly_equivalent(FREE, {0, 1}, {1, 2})

    def test_proper_subset_never(self):
        assert not strongly_equivalent(FREE, EVENS, EVENS.patch(add=[1]))
        assert not strongly_equivalent(UniformMatroid(3, 4), {1}, {1, 2})

    def test_reflexive(self):
        assert strongly_equivalent(FREE, EVENS, EVENS)

    def test_finite_template_on_finite_matroid(self):
        m = UniformMatroid(2, 4)
        assert strongly_equivalent(m, TemplateSet.from_finite([1, 2]), {3, 4})
        with pytest.raises(GroundError):
            strongly_equivalent(m, EVENS, {1})

    def test_unbalanced_finite_difference(self):
        assert not strongly_equivalent(FREE, EVENS, EVENS.patch(add=[1], remove=()))

    def test_infinite_differences_periodic(self):
        # parallel blocks: both relative ranks are 0
        assert strongly_equivalent(PAIRS, TemplateSet(2, [0]), TemplateSet(2, [1]))
        half_a = TemplateSet(4, [0])
        assert not strongly_equivalent(PAIRS, TemplateSet(2, [0]), half_a)

    def test_equivalence_relation_on_small(self, corpus_small):
        for name, m in corpus_small:
            if len(m.ground) > 4:
                continue
            indep = m.independent_sets()
            for a in indep:
                assert strongly_equivalent(m, a, a), name
            for a in indep:
                for b in indep:
                    assert strongly_equivalent(m, a, b) == strongly_equivalent(m, b, a), name


class TestClassify:
    def test_finite_label(self):
        assert classify_class(UniformMatroid(2, 4), {1}) == ClassLabel.finite(1)

    def test_cofinite_label(self):
        co2 = TemplateSet.full().patch(remove=[0, 1])
        assert classify_class(FREE, co2) == ClassLabel.cofinite(2)

    def test_wild_candidate(self):
        assert classify_class(FREE, EVENS) == ClassLabel.wild_candidate()

    def test_periodic_cofinite(self):
        # all a_i spans every block, so contracting it leaves rank 0
        assert classify_class(PAIRS, TemplateSet(2, [0])) == ClassLabel.cofinite(0)

    def test_periodic_wild(self):
        rich = PeriodicSumMatroid(UniformMatroid(2, 3))
        one_per_block = TemplateSet(3, [0])
        assert classify_class(rich, one_per_block) == ClassLabel.wild_candidate()

    def test_finite_template_on_schema(self):
        assert classify_class(FREE, TemplateSet.from_finite([3, 5])) == ClassLabel.finite(2)


class TestRelativeRankDifference:
    def test_examples(self):
        m = UniformMatroid(2, 4)
        assert relative_rank_difference_check(m, {1}, {2}, {1, 2, 3})
        assert relative_rank_difference_check(m, {1}, {1}, {1, 2})
        assert not relative_rank_difference_check(m, (), {1}, {1, 2})

    def test_containment_enforced(self):
        with pytest.raises(GroundError):
            relative_rank_difference_check(UniformMatroid(2, 4), {1}, {2}, {1, 3})


class TestComparablePairs:
    def test_found(self):
        pair = find_comparable_pair(FREE, [EVENS, TemplateSet(4, [0])])
        assert pair is not None

    def test_not_found(self):
        assert find_comparable_pair(FREE, [EVENS, ODDS]) is None


class TestObservationCompatibility:
    def test_compatibility_on_schemas(self):
        # if I ~ I' and J ~ J', almost-spanning transfers between the pairs
        rng = random.Random(3)
        schema = PAIRS
        base_sets = [
            TemplateSet(2, [0]),
            TemplateSet(2, [1]),
            TemplateSet(4, [0]),
            TemplateSet(4, [1]),
            TemplateSet(4, [0, 1]),
        ]
        certified = [t for t in base_sets if schema.certify(t)]
        for _ in range(300):
            i1, j1 = rng.choice(certified), rng.choice(certified)
            i2 = i1.patch(add=[x + 8 for x in i1.first(1)], remove=i1.first(1))
            j2 = j1
            if not schema.certify(i2):
                continue
            if strongly_equivalent(schema, i1, i2) and strongly_equivalent(schema, j1, j2):
                assert almost_spans(schema, i1, j1) == almost_spans(schema, i2, j2)
