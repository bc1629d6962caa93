import random
from itertools import combinations

import pytest

from matroid_forge import (
    BoundError,
    ExplicitMatroid,
    GraphicMatroid,
    GroundError,
    LinearMatroid,
    SpecError,
    UniformMatroid,
    check_base_axioms,
    core,
    verify_family,
)


# ---- test-local brute-force oracles, independent of the implementation ----

def brute_exchange_ok(family):
    fam = [frozenset(b) for b in family]
    fset = set(fam)
    for b0 in fam:
        for b1 in fam:
            for x in b0 - b1:
                if not any((b0 - {x}) | {y} in fset for y in b1 - b0):
                    return False
    return True


def subsets(elems):
    elems = sorted(elems)
    for r in range(len(elems) + 1):
        yield from (frozenset(c) for c in combinations(elems, r))


def brute_graph_rank(edges, chosen):
    """Max acyclic subset size via exhaustive search (no union-find)."""

    def acyclic(subset):
        adj = {}
        for i in subset:
            u, v = edges[i - 1]
            adj.setdefault(u, []).append((v, i))
            adj.setdefault(v, []).append((u, i))
        seen = set()
        for start in adj:
            if start in seen:
                continue
            stack = [(start, 0)]
            seen.add(start)
            while stack:
                node, via = stack.pop()
                for nxt, eid in adj[node]:
                    if eid == via:
                        continue
                    if nxt in seen:
                        return False
                    seen.add(nxt)
                    stack.append((nxt, eid))
        return True

    best = 0
    for sub in subsets(chosen):
        if acyclic(sub):
            best = max(best, len(sub))
    return best


class TestConstruction:
    def test_uniform_independents(self):
        m = UniformMatroid(2, 4)
        for s in subsets(m.ground):
            assert m.is_independent(s) == (len(s) <= 2)

    def test_uniform_bad(self):
        with pytest.raises(SpecError):
            UniformMatroid(3, 2)

    def test_explicit_passes_quarantine(self):
        m = ExplicitMatroid({1, 2, 3}, [{1, 2}, {2, 3}])
        assert brute_exchange_ok(m.bases())
        # 1 and 3 are parallel, 2 is in every base
        assert not m.is_independent({1, 3})
        assert all(2 in b for b in m.bases())

    def test_explicit_empty_family_rejected(self):
        with pytest.raises(SpecError):
            ExplicitMatroid({1, 2}, [])

    def test_explicit_non_matroid_rejected(self):
        with pytest.raises(SpecError):
            ExplicitMatroid({1, 2, 3}, [{1}, {2, 3}])

    def test_explicit_too_big_refused(self):
        with pytest.raises(BoundError):
            ExplicitMatroid(range(1, 14), [set(range(1, 14))])

    def test_explicit_error_order(self, monkeypatch):
        # a base outside the ground, then no base, then the bound, then the axioms
        wide = range(1, 14)
        with pytest.raises(GroundError, match=r"^base \{14\} lies outside the ground set$"):
            ExplicitMatroid(wide, [{1}, {2, 3}, {14}])
        with pytest.raises(SpecError, match="needs at least one base"):
            ExplicitMatroid(wide, [])

        def refuse(*args):
            raise AssertionError("sorted the bases")

        # the size-keyed sort runs only inside the bound, and never on a checked list
        monkeypatch.setattr(core, "size_sorted", refuse)
        with pytest.raises(BoundError, match="limited to 12 elements, got 13"):
            ExplicitMatroid(wide, [{1}, {2, 3}])
        assert len(ExplicitMatroid(wide, [{1}, {2, 3}], _checked=True).base_masks()) == 2
        monkeypatch.undo()
        with pytest.raises(SpecError, match=r"^base family rejected: violation\(B2"):
            ExplicitMatroid(range(1, 4), [{1}, {2, 3}])


class TestIndependence:
    def test_uniform(self):
        m = UniformMatroid(2, 4)
        assert m.is_independent({1, 3})
        assert not m.is_independent({1, 2, 3})

    def test_explicit_subset_of_base(self):
        m = ExplicitMatroid({1, 2, 3}, [{1, 2}, {2, 3}])
        assert not m.is_independent({1, 3})

    def test_out_of_ground(self):
        with pytest.raises(GroundError):
            UniformMatroid(2, 4).is_independent({5})

    def test_one_shot_and_coerced_arguments(self):
        # a generator is read once, also when a lookup misses and the ids are coerced
        m = UniformMatroid(2, 4)
        assert m.rank(e for e in (1, 2, 3)) == 2
        assert m.is_independent(e for e in ("1", 2))
        assert not m.is_independent(str(e) for e in (1, 2, 3))
        assert m.relative_rank((e for e in [1]), (str(e) for e in [2])) == 1
        with pytest.raises(GroundError, match=r"^first argument \{5,6\} lies outside"):
            m.relative_rank((e for e in [1, 5, "6"]), [2])
        pairs = [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]
        assert verify_family(m, ((e for e in b) for b in pairs)).ok
        with pytest.raises(GroundError, match=r"^family member \{5\} lies outside"):
            verify_family(m, [{1, 2}, (e for e in ["5", 1])])

    def test_rank_iff_size(self, corpus_small):
        for _, m in corpus_small:
            for s in subsets(m.ground):
                assert m.is_independent(s) == (m.rank(s) == len(s))


class TestRank:
    def test_uniform(self):
        m = UniformMatroid(2, 4)
        assert m.rank({1, 2, 3}) == 2
        assert m.rank(()) == 0

    def test_triangle(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a")]
        m = GraphicMatroid(edges)
        assert m.rank({1, 2, 3}) == brute_graph_rank(edges, {1, 2, 3}) == 2

    def test_graphic_matches_brute(self):
        rng = random.Random(1)
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a"), ("d", "d")]
        m = GraphicMatroid(edges)
        for _ in range(50):
            chosen = frozenset(e for e in m.ground if rng.random() < 0.6)
            assert m.rank(chosen) == brute_graph_rank(edges, chosen)

    def test_linear_gf2(self):
        # columns: e1, e2, e1+e2, 0
        m = LinearMatroid(2, [[1, 0, 1, 0], [0, 1, 1, 0]])
        assert m.rank({1, 2}) == 2
        assert m.rank({1, 2, 3}) == 2
        assert m.rank({4}) == 0
        assert not m.is_independent({1, 2, 3})
        assert m.is_independent({1, 3})

    def test_linear_gf3(self):
        m = LinearMatroid(3, [[1, 2], [2, 4 % 3]])  # second column = 2 * first
        assert m.rank({1, 2}) == 1

    def test_linear_bad_prime(self):
        with pytest.raises(SpecError):
            LinearMatroid(4, [[1]])

    def test_monotone_unit_submodular(self, corpus_small):
        for _, m in corpus_small:
            for s in subsets(m.ground):
                r = m.rank(s)
                for e in m.ground - s:
                    grown = m.rank(s | {e})
                    assert r <= grown <= r + 1


class TestRelativeRank:
    def test_examples(self):
        m = UniformMatroid(2, 4)
        assert m.relative_rank({1, 2}, {3}) == 1
        assert m.relative_rank({1, 2}, {1, 2}) == 0
        assert m.relative_rank({1, 2}, ()) == 2


class TestSpans:
    def test_examples(self):
        m = UniformMatroid(2, 4)
        assert m.span_mask(m.mask_of({1, 2})) == m.mask_of(m.ground)
        assert m.span_mask(m.mask_of({1})) == m.mask_of({1})
        assert m.span_mask(0) == 0

    def test_span_of(self):
        m = ExplicitMatroid({1, 2, 3}, [{1, 2}, {2, 3}])
        assert m.set_of(m.span_mask(m.mask_of({1}))) == {1, 3}


class TestBaseAxioms:
    def test_ok(self):
        assert check_base_axioms({1, 2, 3}, [{1, 2}, {2, 3}]).ok

    def test_b2_violation_replays(self):
        verdict = check_base_axioms({1, 2, 3}, [{1}, {2, 3}])
        assert not verdict.ok and verdict.tag == "B2"
        b0, b1, x = verdict.witness
        assert x in b0 - b1
        assert not any((b0 - {x}) | {y} in {frozenset({1}), frozenset({2, 3})}
                       for y in b1 - b0)

    def test_empty_family(self):
        verdict = check_base_axioms({1, 2}, [])
        assert verdict.tag == "B1"

    def test_bound(self):
        with pytest.raises(BoundError):
            check_base_axioms(range(13), [set(range(13))])

    def test_member_outside_ground(self):
        with pytest.raises(GroundError):
            check_base_axioms({1, 2}, [{3}])

    def test_corpus_bases_pass(self, corpus_unique):
        for name, m in corpus_unique:
            assert check_base_axioms(m.ground, m.bases()).ok, name

    def test_exchange_matches_brute(self, corpus_small):
        for name, m in corpus_small:
            assert brute_exchange_ok(m.bases()), name

    def test_base_differences_balance(self, corpus_unique):
        # any two bases differ by equally many elements on both sides
        for name, m in corpus_unique:
            bases = m.bases()
            for b1 in bases:
                for b2 in bases:
                    assert len(b1 - b2) == len(b2 - b1), name


def test_empty_ground_matroid():
    m = UniformMatroid(0, 0)
    assert m.full_rank == 0
    assert m.bases() == (frozenset(),)
    assert check_base_axioms(m.ground, m.bases()).ok
