from itertools import combinations

import pytest

from matroid_forge import (
    ExplicitMatroid,
    GroundError,
    SpecError,
    TruncationLevel,
    UniformMatroid,
    apply_level,
    check_base_axioms,
    classify_truncation,
    cotruncate,
    truncate_to,
)
from matroid_forge.selftest import cotruncation_meets_truncation


def free(n):
    return ExplicitMatroid(set(range(1, n + 1)), [set(range(1, n + 1))])


class TestTruncateTo:
    def test_free_truncates_to_uniform(self):
        got = truncate_to(free(5), 2)
        assert got.bases_set() == UniformMatroid(2, 5).bases_set()

    def test_identity_at_full_rank(self):
        m = UniformMatroid(2, 3)
        assert truncate_to(m, m.full_rank).bases_set() == m.bases_set()

    def test_to_zero(self):
        assert truncate_to(UniformMatroid(2, 3), 0).bases_set() == {frozenset()}

    def test_bad_level(self):
        with pytest.raises(SpecError):
            truncate_to(UniformMatroid(2, 3), 3)

    def test_axioms_hold_over_corpus(self, corpus_unique):
        for name, m in corpus_unique:
            if len(m.ground) > 6:
                continue
            for k in range(m.full_rank + 1):
                fam = truncate_to(m, k).bases()
                assert check_base_axioms(m.ground, fam).ok, (name, k)

    def test_iterated_collapse(self, corpus_small):
        for name, m in corpus_small:
            r = m.full_rank
            for k in range(r + 1):
                outer = truncate_to(m, k)
                for j in range(k + 1):
                    assert truncate_to(outer, j).bases_set() == truncate_to(m, j).bases_set(), name

    def test_distinct_levels_distinct(self, corpus_small):
        for name, m in corpus_small:
            if m.full_rank == 0:
                continue
            families = [truncate_to(m, k).bases_set() for k in range(m.full_rank + 1)]
            assert len(set(map(frozenset, families))) == len(families), name


class TestCotruncate:
    def test_example(self):
        # pairs inside triples of a 4-set are exactly all pairs
        got = cotruncate(UniformMatroid(3, 4), 1)
        expected = {frozenset(c) for c in combinations(range(1, 5), 2)}
        assert got.bases_set() == expected

    def test_full_drop(self):
        m = UniformMatroid(2, 3)
        assert cotruncate(m, m.full_rank).bases_set() == {frozenset()}

    def test_zero_rejected(self):
        with pytest.raises(SpecError):
            cotruncate(UniformMatroid(2, 3), 0)

    def test_too_deep_rejected(self):
        with pytest.raises(SpecError):
            cotruncate(UniformMatroid(2, 3), 3)

    def test_literal_matches_truncate(self, corpus_unique):
        # the two constructions are independent; their agreement is asserted
        for name, m in corpus_unique:
            if len(m.ground) <= 6:
                assert cotruncation_meets_truncation(m).ok, name


class TestClassify:
    def test_level_found(self):
        level = classify_truncation(UniformMatroid(3, 4), UniformMatroid(2, 4))
        assert level == TruncationLevel(2)

    def test_trivial(self):
        m = UniformMatroid(3, 4)
        level = classify_truncation(m, m)
        assert level is not None and level.value is None

    def test_none(self):
        m = UniformMatroid(3, 4)
        other = ExplicitMatroid(m.ground, [{1, 2}])
        assert classify_truncation(m, other) is None

    def test_ground_mismatch(self):
        with pytest.raises(GroundError):
            classify_truncation(UniformMatroid(2, 3), UniformMatroid(2, 4))

    def test_roundtrip_over_corpus(self, corpus_small):
        for name, m in corpus_small:
            r = m.full_rank
            for k in range(r + 1):
                level = classify_truncation(m, truncate_to(m, k))
                assert level is not None, name
                if k == r:
                    assert level.value is None
                else:
                    assert level.value == k


class TestLevels:
    def test_parse(self):
        assert TruncationLevel.parse("trivial").value is None
        assert TruncationLevel.parse("-2").value == -2
        with pytest.raises(SpecError):
            TruncationLevel.parse("x")

    def test_apply(self):
        m = UniformMatroid(3, 4)
        assert apply_level(m, TruncationLevel(None)) is m
        assert apply_level(m, TruncationLevel(2)).bases_set() == UniformMatroid(2, 4).bases_set()
        assert apply_level(m, TruncationLevel(-1)).bases_set() == UniformMatroid(2, 4).bases_set()

    def test_validate(self):
        m = UniformMatroid(2, 3)
        with pytest.raises(SpecError):
            apply_level(m, TruncationLevel(5))
        with pytest.raises(SpecError):
            apply_level(m, TruncationLevel(-3))
