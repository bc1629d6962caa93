"""Differential tests: the bitmask finite kernel against the frozenset code it replaced.

`reference_check_base_axioms`, `reference_verify_family` and
`reference_independent_sets` are the frozenset implementations the kernel
had before it moved onto int masks, kept here unchanged as oracles.  The
kernel must reproduce them exactly: the same verdict, tag and witness, and
the same enumeration order.  `reference_linear_rank` and
`reference_graphic_rank` are the rank oracles the linear and graphic
backends had before they stored their columns and vertex ids once; every
mask must get the same rank.  `reference_bm` is the literal maximality
axiom (BM) over every subset X of the ground; the kernel does not check BM,
which holds for every non-empty family on a finite ground, and
`test_bm_is_a_theorem_on_a_finite_ground` holds the reference to that.
Likewise `reference_verify_family` checks condition 4, the nested-pair
condition, literally, while the kernel stops after condition 3, which
implies it on a matroid, so condition 4 runs only in the reference.  The
reference also decides condition 2 by enumerating every independent set and
condition 3 by a span for every member and element; the kernel reads both
from the member sizes, and `TestVerifyFamilyWork` pins what it still asks.
`TestLevelEnumeration` holds the size levels that `enumerate_gen_truncations`
returns to both literal references.
`reference_verify_is_gen_truncation` and `reference_classify_truncation` are
the frozenset definition check and the classification through `truncate_to`
that the kernel had before both moved onto masks; `TestDefinitionCheck` and
`TestClassifyTruncation` hold the mask versions to them.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from matroid_forge import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    OracleMatroid,
    TruncationLevel,
    UniformMatroid,
    Verdict,
    check_base_axioms,
    classify_truncation,
    core,
    cotruncate,
    enumerate_gen_truncations,
    truncate_to,
    verify_family,
    verify_is_gen_truncation,
)
from matroid_forge.core import (
    AXIOM_CHECK_MAX_GROUND,
    ENUMERATION_MAX_GROUND,
    check_bound,
    down_closure,
    elements_of,
    exhaustive_bound,
    fmt,
    masks_of_size,
    size_keys,
    size_sorted,
    upward_closure,
)
from matroid_forge.errors import BoundError, GroundError, SpecError
from matroid_forge.gentrunc import VERIFY_FAMILY_MAX_GROUND, verify_family_masks


def reference_check_base_axioms(ground, family) -> Verdict:
    g = frozenset(int(e) for e in ground)
    bound = exhaustive_bound(AXIOM_CHECK_MAX_GROUND)
    if len(g) > bound:
        raise BoundError(f"axiom check limited to {bound} elements, got {len(g)}")
    fam = sorted(
        (frozenset(int(e) for e in b) for b in family),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    for b in fam:
        if not b <= g:
            raise GroundError(f"family member {fmt(b)} lies outside the ground set")
    if not fam:
        return Verdict.violation("B1")
    fset = set(fam)
    for b0 in fam:
        for b1 in fam:
            only_b1 = sorted(b1 - b0)
            for x in sorted(b0 - b1):
                if not any((b0 - {x}) | {y} in fset for y in only_b1):
                    return Verdict.violation("B2", b0, b1, x)
    return reference_bm(g, fam)


def reference_bm(ground, family) -> Verdict:
    order = sorted(ground)
    for mask in range(1 << len(order)):
        x = frozenset(e for i, e in enumerate(order) if mask >> i & 1)
        traces = {x & b for b in family}
        maximal = [t for t in traces if not any(t < s for s in traces)]
        for t in traces:
            if not any(t <= s for s in maximal):
                return Verdict.violation("BM", x, t)
    return Verdict.passed()


def reference_independent_sets(matroid) -> tuple[frozenset, ...]:
    found: list[frozenset] = []
    order = sorted(matroid.ground)

    def grow(current: frozenset, start: int) -> None:
        found.append(current)
        for i in range(start, len(order)):
            nxt = current | {order[i]}
            if matroid.is_independent(nxt):
                grow(nxt, i + 1)

    grow(frozenset(), 0)
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(found)


def reference_verify_family(matroid, family) -> Verdict:
    bound = exhaustive_bound(VERIFY_FAMILY_MAX_GROUND)
    if len(matroid.ground) > bound:
        raise BoundError(f"family verification limited to {bound} elements")
    fam = sorted({matroid._subset(b, "family member") for b in family},
                 key=lambda s: (len(s), tuple(sorted(s))))
    if not fam:
        return Verdict.violation("1")
    for b in fam:
        if not matroid.is_independent(b):
            return Verdict.violation("1", b)
    indep = matroid.independent_sets()
    by_size: dict[int, list[frozenset]] = {}
    for s in indep:
        by_size.setdefault(len(s), []).append(s)
    fam_set = set(fam)
    fam_masks = [matroid.mask_of(b) for b in fam]
    for b in fam:
        for x in sorted(b):
            sub = b - {x}
            span = matroid.span_mask(matroid.mask_of(sub))
            for other, omask in zip(fam, fam_masks):
                if omask & ~span == 0:
                    return Verdict.violation("3", b, other, sub)
    for b in fam:
        for other in by_size.get(len(b), ()):
            if other not in fam_set:
                return Verdict.violation("2", b, other)
    has_super: dict[int, bool] = {}

    def member_contains(mask: int) -> bool:
        hit = has_super.get(mask)
        if hit is None:
            hit = any(mask & ~fm == 0 for fm in fam_masks)
            has_super[mask] = hit
        return hit

    for big in indep:
        jmask = matroid.mask_of(big)
        if any(fm | jmask == fm for fm in fam_masks):
            continue
        inside = [fm for fm in fam_masks if fm & ~jmask == 0]
        sub = jmask
        while True:
            if member_contains(sub) and not any(fm & sub == sub for fm in inside):
                return Verdict.violation("4", matroid.set_of(sub), big)
            if sub == 0:
                break
            sub = (sub - 1) & jmask
    return Verdict.passed()


def reference_verify_is_gen_truncation(matroid, candidate) -> Verdict:
    if matroid.ground != candidate.ground:
        return Verdict.violation("I", matroid.ground, candidate.ground)
    for xs in candidate.independent_sets():
        if not matroid.is_independent(xs):
            return Verdict.violation("II", xs)
    cand_bases = candidate.bases_set()
    for xs in candidate.independent_sets():
        if xs in cand_bases:
            continue
        for e in sorted(matroid.ground - xs):
            grown = xs | {e}
            if matroid.is_independent(grown) and not candidate.is_independent(grown):
                return Verdict.violation("III", xs, e)
    return Verdict.passed()


def reference_classify_truncation(matroid, candidate) -> TruncationLevel | None:
    if matroid.ground != candidate.ground:
        raise GroundError("classification requires a common ground set")
    check_bound("truncation classification", len(matroid.ground), ENUMERATION_MAX_GROUND)
    target = candidate.bases_set()
    sizes = {len(b) for b in target}
    if len(sizes) != 1:
        return None
    size = sizes.pop()
    r = matroid.full_rank
    if size <= r and truncate_to(matroid, size).bases_set() == target:
        return TruncationLevel(None if size == r else size)
    return None


def reference_linear_rank(m: LinearMatroid, mask: int) -> int:
    if not mask:
        return 0
    p = m.prime
    # work on the transpose: one row per selected column
    work = [[row[c] for row in m.rows] for c in range(len(m.rows[0])) if mask >> c & 1]
    rank = 0
    width = len(m.rows)
    for col in range(width):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [v * inv % p for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def reference_graphic_rank(m: GraphicMatroid, mask: int) -> int:
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    rank = 0
    for i, (u, v) in enumerate(m.edges):
        if not mask >> i & 1:
            continue
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def seeded_families():
    """(n, masks) on grounds of 0-9 elements, members sorted by `size_keys`:
    base families of uniform, GF(2) and GF(3) matroids (70%), and arbitrary
    families of 0-8 sets (30%)."""
    rng = random.Random("bm-sweep")
    for _ in range(400):
        n, kind = rng.randint(0, 9), rng.random()
        if n and kind < 0.7:
            if kind < 0.2:
                m = UniformMatroid(rng.randint(0, n), n)
            else:
                p = 2 if kind < 0.45 else 3
                m = LinearMatroid(p, [[rng.randrange(p) for _ in range(n)]
                                      for _ in range(rng.randint(1, 4))])
            masks = [m.mask_of(b) for b in m.bases()]
        else:
            masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
        yield n, size_sorted(masks, n)


def same(got: Verdict, want: Verdict) -> bool:
    return (got.ok, got.tag, got.witness) == (want.ok, want.tag, want.witness)


def perturbations(m):
    """The base family, the empty family (B1), and every single-set change of
    the bases: one base dropped, or one independent non-base added."""
    bases = list(m.bases())
    yield bases
    yield []
    for b in bases:
        yield [c for c in bases if c != b]
    for s in m.independent_sets():
        if s not in bases:
            yield bases + [s]


def wide_families(corpus_wide):
    """(name, matroid, family): the perturbations of each size level with at
    most 40 sets of the 7-10 element matroids."""
    for name, m in corpus_wide:
        for k in range(m.full_rank + 1):
            level = truncate_to(m, k)
            if len(level.bases()) <= 40:
                for fam in perturbations(level):
                    yield name, m, fam


class TestAxiomCheck:
    def test_bridge_families(self, corpus_unique, bridge_families):
        for name, m in corpus_unique:
            for fam in bridge_families(name, m):
                want = reference_check_base_axioms(m.ground, fam)
                assert same(check_base_axioms(m.ground, fam), want), (name, fam)

    def test_perturbations_hit_b1_and_b2(self, corpus_unique):
        tags = set()
        for name, m in corpus_unique:
            for fam in perturbations(m):
                want = reference_check_base_axioms(m.ground, fam)
                assert same(check_base_axioms(m.ground, fam), want), (name, fam)
                tags.add(want.tag)
        assert {"B1", "B2"} <= tags

    def test_wide_grounds(self, corpus_wide):
        tags = set()
        for name, m, fam in wide_families(corpus_wide):
            want = reference_check_base_axioms(m.ground, fam)
            assert same(check_base_axioms(m.ground, fam), want), (name, fam)
            tags.add(want.tag)
        assert {None, "B1", "B2"} <= tags

    def test_explicit_quarantine(self, corpus_unique):
        # the constructor runs the mask core on its own base masks: the same
        # accept or reject, with the reference's verdict in the message
        outcomes = set()
        for name, m in corpus_unique:
            for fam in perturbations(m):
                want = reference_check_base_axioms(m.ground, fam)
                if not fam:
                    expected = "an explicit matroid needs at least one base"
                else:
                    expected = "accepted" if want.ok else f"base family rejected: {want}"
                try:
                    ExplicitMatroid(m.ground, fam)
                    got = "accepted"
                except SpecError as exc:
                    got = str(exc)
                assert got == expected, (name, fam)
                outcomes.add(got.split("(")[0])
        assert outcomes == {"accepted", "an explicit matroid needs at least one base",
                            "base family rejected: violation"}

    def test_quarantine_at_the_declared_bound(self, monkeypatch):
        # U(6,12) on AXIOM_CHECK_MAX_GROUND elements: 924 bases accepted;
        # with {7,...,12} swapped for a 5-set the family is refused by B2
        monkeypatch.delenv("MATROID_FORGE_MAX_GROUND", raising=False)
        ground = range(1, AXIOM_CHECK_MAX_GROUND + 1)
        bases = [set(c) for c in combinations(ground, AXIOM_CHECK_MAX_GROUND // 2)]
        assert len(ExplicitMatroid(ground, bases).bases()) == 924
        with pytest.raises(SpecError) as refused:
            ExplicitMatroid(ground, bases[:-1] + [{7, 8, 9, 10, 11}])
        assert str(refused.value) == \
            "base family rejected: violation(B2; {7,8,9,10,11}, {1,2,3,4,5,6}, 7)"

    def test_upward_closure_against_brute_force(self):
        rng = random.Random("upward-closure")
        for n in range(13):
            for size in (0, 1, 3, 12):
                density = rng.uniform(0.1, 0.6)
                masks = [sum(1 << i for i in range(n) if rng.random() < density)
                         for _ in range(size)]
                want = sum(1 << s for s in range(1 << n) if any(m & ~s == 0 for m in masks))
                assert upward_closure(masks, n) == want, (n, masks)

    def test_down_closure_against_brute_force(self):
        rng = random.Random("down-closure")
        for n in range(13):
            for size in (0, 1, 3, 12):
                density = rng.uniform(0.1, 0.6)
                masks = [sum(1 << i for i in range(n) if rng.random() < density)
                         for _ in range(size)]
                for fam in (masks, masks + [0]):
                    want = {s for s in range(1 << n) if any(s & ~m == 0 for m in fam)}
                    assert down_closure(fam) == want, (n, fam)

    def test_bm_is_a_theorem_on_a_finite_ground(self):
        # the literal BM holds on every non-empty family, also on those that
        # are no base family or fail B2, so the kernel's B1 and B2 decide
        reached = set()
        for n, masks in seeded_families():
            order = tuple(range(1, n + 1))
            fam = [elements_of(m, order) for m in masks]
            want = reference_check_base_axioms(order, fam)
            assert same(check_base_axioms(order, fam), want), (n, masks)
            reached.add(want.tag)
            if fam:
                assert reference_bm(order, fam), (n, masks)
        assert reached == {None, "B1", "B2"}

    def test_quarantine_builds_no_closure(self, monkeypatch):
        # the axiom check reads no down-closure; the independent sets are the
        # closure of the bases, built on the first query and kept
        calls = []
        real = core.down_closure
        monkeypatch.setattr(core, "down_closure", lambda members: calls.append(1) or real(members))
        m = ExplicitMatroid(range(1, 6), [set(c) for c in combinations(range(1, 6), 2)])
        assert not calls
        assert m.independent_mask(0b00011)
        assert len(calls) == 1
        assert not m.independent_mask(0b00111) and m.is_independent({4, 5})
        assert len(calls) == 1

    def test_input_order_and_duplicates_ignored(self):
        fam = [{2, 3}, {1, 2}, {1}, {2, 3}]
        want = reference_check_base_axioms({1, 2, 3}, fam)
        assert want.tag == "B2"
        assert same(check_base_axioms([3, 1, 2], reversed(fam)), want)

    def test_errors_match(self):
        for ground, fam, error in (
            (range(13), [set(range(13))], BoundError),
            ({1, 2}, [{1}, {3}, {2, 4}], GroundError),
        ):
            with pytest.raises(error) as want:
                reference_check_base_axioms(ground, fam)
            with pytest.raises(error) as got:
                check_base_axioms(ground, fam)
            if error is GroundError:
                assert str(got.value) == str(want.value)


class TestEnumerationOrder:
    def test_independent_sets(self, corpus_unique, corpus_wide):
        for name, m in corpus_unique + corpus_wide:
            assert m.independent_sets() == reference_independent_sets(m), name

    def test_size_keys_follow_size_order(self):
        for n in range(9):
            want = sorted(range(1 << n), key=lambda m: (
                m.bit_count(), tuple(i for i in range(n) if m >> i & 1)))
            assert sorted(range(1 << n), key=size_keys(n).__getitem__) == want, n

    def test_order_is_not_mask_order(self):
        # (size, sorted elements) puts {1,4} before {2,3}; (popcount, mask) would not
        m = UniformMatroid(2, 4)
        level = [s for s in m.independent_sets() if len(s) == 2]
        assert level.index(frozenset({1, 4})) < level.index(frozenset({2, 3}))

    def test_bases_sorted(self, corpus_unique, corpus_wide):
        rng = random.Random("bases-sorted")
        for name, m in corpus_unique + corpus_wide:
            want = tuple(sorted((s for s in reference_independent_sets(m)
                                 if len(s) == m.full_rank), key=sorted))
            assert m.bases() == want, name
            assert set(m.base_masks()) == {m.mask_of(b) for b in want}, name
            # an explicit list is held once, whatever its order and repeats
            listed = list(want) + rng.sample(want, min(2, len(want)))
            rng.shuffle(listed)
            explicit = ExplicitMatroid(m.ground, listed, _checked=True)
            assert (explicit.base_masks(), explicit.bases()) == (m.base_masks(), want), name
        # an unchecked list of mixed sizes is listed in (size, sorted elements) order
        lopsided = ExplicitMatroid({1, 2, 3}, [{1, 2}, {3}], _checked=True)
        assert lopsided.bases() == (frozenset({3}), frozenset({1, 2}))


class TestVerifyFamily:
    def test_bridge_families(self, corpus_unique, bridge_families):
        for name, m in corpus_unique:
            for fam in bridge_families(name, m):
                want = reference_verify_family(m, fam)
                assert same(verify_family(m, fam), want), (name, fam)

    def test_wide_grounds(self, corpus_wide):
        for name, m, fam in wide_families(corpus_wide):
            want = reference_verify_family(m, fam)
            assert same(verify_family(m, fam), want), (name, fam)

    @pytest.mark.parametrize("members, want", [
        # condition 3 passes; condition 2 fails at the smaller size
        ([{1}, {2, 3}], Verdict.violation("2", frozenset({1}), frozenset({2}))),
        # condition 3 fails at a larger member
        ([{1}, {1, 2}], Verdict.violation("3", frozenset({1, 2}), frozenset({1}),
                                          frozenset({1}))),
    ])
    def test_two_size_families_on_a_free_matroid(self, members, want):
        m = UniformMatroid(3, 3)
        assert same(reference_verify_family(m, members), want)
        assert same(verify_family(m, members), want)

    def test_smaller_member_spanned_but_not_contained(self):
        # edges 1 and 2 are parallel: {1} lies inside span({2}), not inside {2}
        m = GraphicMatroid([("a", "b"), ("a", "b"), ("b", "c")])
        want = Verdict.violation("3", frozenset({2, 3}), frozenset({1}), frozenset({2}))
        assert same(reference_verify_family(m, [{1}, {2, 3}]), want)
        assert same(verify_family(m, [{1}, {2, 3}]), want)

    def test_every_family_of_a_non_matroid_oracle(self):
        # r({1, 2}) = 0 < r({1}); `enumerate_raw` sends each of these families
        # through `verify_family`
        m = OracleMatroid({1, 2}, lambda s: len(s) % 2)
        indep = m.independent_sets()
        got = []
        for mask in range(1 << len(indep)):
            fam = [indep[i] for i in range(len(indep)) if mask >> i & 1]
            verdict = verify_family(m, fam)
            assert same(verdict, reference_verify_family(m, fam)), fam
            got.append(str(verdict))
        assert got == ["violation(1)", "ok", "violation(2; {1}, {2})",
                       "violation(3; {1}, {}, {})", "violation(2; {2}, {1})",
                       "violation(3; {2}, {}, {})", "ok", "violation(3; {1}, {}, {})"]

    def test_masks_past_the_enumeration_bound(self):
        m = UniformMatroid(13, 13)
        with pytest.raises(BoundError, match="limited to 12 elements, got 13"):
            verify_family_masks(m, [(1 << 13) - 1])


def levels_of(m):
    indep = m.independent_masks()
    return [[s for s in indep if s.bit_count() == k] for k in range(m.full_rank + 1)]


class TestVerifyFamilyWork:
    """What `verify_family_masks` asks the rank oracle: the member sizes answer the rest."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of `independent_masks` calls and the `span_mask` arguments."""
        seen = {"independent_masks": 0, "span_mask": []}
        independent_masks = core.FiniteMatroid.independent_masks
        span_mask = core.FiniteMatroid.span_mask

        def counted_independent_masks(self):
            seen["independent_masks"] += 1
            return independent_masks(self)

        def recorded_span_mask(self, mask):
            seen["span_mask"].append(mask)
            return span_mask(self, mask)

        monkeypatch.setattr(core.FiniteMatroid, "independent_masks", counted_independent_masks)
        monkeypatch.setattr(core.FiniteMatroid, "span_mask", recorded_span_mask)
        return seen

    def test_levels_need_no_enumeration_or_span(self, corpus_unique, corpus_wide, calls):
        wide = dict(corpus_wide)
        gf2 = next(m for name, m in corpus_unique if name.startswith("L") and m.full_rank == 3)
        for m in (wide["U(5,10)"], wide["grid2x3"], gf2, wide["GF3-3x9"]):
            levels = levels_of(m)
            calls["independent_masks"] = 0
            for level in levels:
                assert verify_family_masks(m, level).ok, (m, level)
            assert calls == {"independent_masks": 0, "span_mask": []}, m

    def test_spans_only_for_the_larger_members(self, calls):
        m = UniformMatroid(4, 6)
        members = size_sorted([0b11, 0b101, 0b11100, 0b101100], 6)
        assert verify_family_masks(m, members).tag == "2"
        larger = [b for b in members if b.bit_count() == 3]
        assert sorted(calls["span_mask"]) == sorted(b ^ 1 << i for b in larger
                                                    for i in range(6) if b >> i & 1)

    def test_condition_two_checks_no_member(self, corpus_wide, monkeypatch):
        # a complete level, and the level without its first member
        for name, m in corpus_wide:
            for level in levels_of(m)[1:4]:
                for fam in (level, level[1:]):
                    asked: list[int] = []
                    with monkeypatch.context() as mp:
                        mp.setattr(m, "independent_mask",
                                   lambda s, ask=m.independent_mask: asked.append(s) or ask(s))
                        verdict = verify_family_masks(m, fam)
                    assert verdict.ok == (fam is level), (name, fam)
                    # condition 1 asks each member once, condition 2 only non-members,
                    # in order, up to the first independent one
                    members = set(fam)
                    assert sorted(s for s in asked if s in members) == sorted(fam)
                    scan = [s for s in masks_of_size(len(m.ground), fam[0].bit_count())
                            if s not in members]
                    stop = len(scan) if fam is level else scan.index(level[0]) + 1
                    assert [s for s in asked if s not in members] == scan[:stop], (name, fam)


class TestLevelEnumeration:
    def test_levels_pass_the_literal_oracles(self, corpus_unique):
        for name, m in corpus_unique:
            indep = m.independent_sets()
            levels = [frozenset(s for s in indep if len(s) == k) for k in range(m.full_rank + 1)]
            assert enumerate_gen_truncations(m) == levels, name
            for level in levels:
                assert reference_verify_family(m, level).ok, (name, level)
                assert reference_check_base_axioms(m.ground, level).ok, (name, level)


def definition_candidates(m):
    """Candidates for the definition check on m, all built unchecked: each size
    level, each union of two levels, each level with one member dropped, with one
    independent set of another size added, or with one dependent set added, and a
    candidate on a larger ground.  Most of them are no matroid."""
    indep = m.independent_sets()
    levels = [[s for s in indep if len(s) == k] for k in range(m.full_rank + 1)]
    order = sorted(m.ground)
    dependent = [frozenset(c) for k in range(len(order) + 1) for c in combinations(order, k)
                 if not m.is_independent(c)]
    for k, level in enumerate(levels):
        families = [level] + [level + above for above in levels[k + 1:]]
        families += [[s for s in level if s != drop] for drop in level if len(level) > 1]
        families += [level + [s] for s in indep if len(s) != k]
        families += [level + [s] for s in dependent]
        for fam in families:
            yield ExplicitMatroid(m.ground, fam, name="candidate", _checked=True)
    yield ExplicitMatroid(m.ground | {max(order, default=0) + 1}, [set()], _checked=True)


class TestDefinitionCheck:
    def test_against_the_reference(self, corpus_unique):
        tags = set()
        parity = OracleMatroid({1, 2}, lambda s: len(s) % 2)  # no matroid: r({1, 2}) = 0
        for name, m in corpus_unique + [("parity", parity)]:
            for candidate in definition_candidates(m):
                want = reference_verify_is_gen_truncation(m, candidate)
                assert same(verify_is_gen_truncation(m, candidate), want), (name, candidate.bases())
                tags.add(want.tag)
        assert tags == {None, "I", "II", "III"}

    def test_every_candidate_independent_set_is_asked(self, corpus_unique, monkeypatch):
        # (II) is not cut down to the members: on a pass, the matroid was asked
        # about every set the candidate calls independent
        for name, m in corpus_unique:
            for k in range(m.full_rank + 1):
                candidate = truncate_to(m, k)
                asked: set[int] = set()
                with monkeypatch.context() as mp:
                    mp.setattr(m, "independent_mask",
                               lambda s, ask=m.independent_mask: asked.add(s) or ask(s))
                    assert verify_is_gen_truncation(m, candidate).ok, (name, k)
                assert asked >= set(candidate.independent_masks()), (name, k)

    def test_no_frozenset_route(self, corpus_unique, monkeypatch):
        cases = [(name, m, candidate, reference_verify_is_gen_truncation(m, candidate))
                 for name, m in corpus_unique[::4] for candidate in definition_candidates(m)]

        def refuse(*args):
            raise AssertionError("the definition check built frozensets per set")

        for method in ("independent_sets", "is_independent", "bases", "mask_of"):
            monkeypatch.setattr(core.FiniteMatroid, method, refuse)
        for name, m, candidate, want in cases:
            got = verify_is_gen_truncation(m, candidate)
            assert same(got, want), (name, sorted(candidate.base_masks()))
        assert {want.tag for *_, want in cases} == {None, "I", "II", "III"}


def classify_candidates(m):
    """Each `truncate_to` and `cotruncate` level of m, each with one base dropped
    and each with the first subset of each other size added as a base."""
    r, order = m.full_rank, sorted(m.ground)
    for level in [truncate_to(m, k) for k in range(r + 1)] + \
                 [cotruncate(m, steps) for steps in range(1, r + 1)]:
        yield level
        bases = list(level.bases())
        if len(bases) > 1:
            for drop in bases:
                yield ExplicitMatroid(m.ground, [b for b in bases if b != drop], _checked=True)
        for k in range(len(order) + 1):
            if k != len(bases[0]):
                extra = set(next(combinations(order, k)))
                yield ExplicitMatroid(m.ground, bases + [extra], _checked=True)


class TestClassifyTruncation:
    def test_against_the_reference(self, corpus_unique):
        levels = set()
        for name, m in corpus_unique:
            for candidate in classify_candidates(m):
                want = reference_classify_truncation(m, candidate)
                assert classify_truncation(m, candidate) == want, (name, candidate.bases())
                levels.add("none" if want is None else "trivial" if want.value is None else "k")
        assert levels == {"none", "trivial", "k"}

    def test_no_frozenset_route(self, corpus_unique, monkeypatch):
        cases = [(name, m, candidate, reference_classify_truncation(m, candidate))
                 for name, m in corpus_unique[::4] for candidate in classify_candidates(m)]

        def refuse(*args):
            raise AssertionError("classify-truncation built frozensets per set")

        for method in ("independent_sets", "is_independent", "bases", "mask_of"):
            monkeypatch.setattr(core.FiniteMatroid, method, refuse)
        for name, m, candidate, want in cases:
            got = classify_truncation(m, candidate)
            assert got == want, (name, sorted(candidate.base_masks()))
        assert {want is None for *_, want in cases} == {True, False}

    def test_errors_match(self, monkeypatch):
        # a ground mismatch is refused before the bound, the bound before any rank
        def refuse(*args):
            raise AssertionError("ranked a set past the bound")

        monkeypatch.setattr(LinearMatroid, "_rank_of", refuse)
        wide = LinearMatroid(2, [[1] * 13])
        same_ground = ExplicitMatroid(wide.ground, [{1}], _checked=True)
        other_ground = ExplicitMatroid(range(1, 15), [{1}], _checked=True)
        for classify in (reference_classify_truncation, classify_truncation):
            with pytest.raises(GroundError, match="common ground set"):
                classify(wide, other_ground)
            with pytest.raises(BoundError, match="limited to 12 elements, got 13"):
                classify(wide, same_ground)


def seeded_matrices():
    """Matrices over GF(2), GF(3), GF(5) and GF(7) with 1-5 rows and 1-10
    columns; some columns are zero, repeats or scalar multiples of others."""
    rng = random.Random("rank-backends")
    for p in (2, 3, 5, 7):
        for _ in range(30):
            height, width = rng.randint(1, 5), rng.randint(1, 10)
            columns: list[list[int]] = []
            for _ in range(width):
                kind = rng.random()
                if columns and kind < 0.15:
                    columns.append(list(rng.choice(columns)))
                elif columns and kind < 0.3:
                    scale = rng.randrange(1, p)
                    columns.append([v * scale for v in rng.choice(columns)])
                elif kind < 0.4:
                    columns.append([0] * height)
                else:
                    columns.append([rng.randrange(p) for _ in range(height)])
            yield p, [list(row) for row in zip(*columns)]


def seeded_multigraphs():
    """Multigraphs with loops, parallel edges and several components, on
    vertex names that only differ as strings ("1" and "01")."""
    rng = random.Random("rank-backends")
    names = ["1", "01", "a", "b", "2", "002", "x1"]
    yield [("1", "a"), ("01", "a")]  # a path; merging "1" and "01" would close a cycle
    for _ in range(60):
        vertices = rng.sample(names, rng.randint(1, len(names)))
        edges = []
        for _ in range(rng.randint(1, 10)):
            u = rng.choice(vertices)
            kind = rng.random()
            if kind < 0.15:
                edges.append((u, u))
            elif edges and kind < 0.3:
                edges.append(rng.choice(edges))
            else:
                edges.append((u, rng.choice(vertices)))
        yield edges


class TestRankBackends:
    def test_linear_matches_reference(self):
        primes = set()
        for p, rows in seeded_matrices():
            m = LinearMatroid(p, rows)
            for mask in range(1 << len(m.ground)):
                assert m._rank_of(mask) == reference_linear_rank(m, mask), (p, rows, mask)
            primes.add(p)
        assert primes == {2, 3, 5, 7}

    def test_graphic_matches_reference(self):
        for edges in seeded_multigraphs():
            m = GraphicMatroid(edges)
            for mask in range(1 << len(m.ground)):
                assert m._rank_of(mask) == reference_graphic_rank(m, mask), (edges, mask)

    def test_multigraphs_cover_the_cases(self):
        # loops, parallel edges, two or more components, and "1" beside "01"
        seen = set()
        for edges in seeded_multigraphs():
            names = {v for e in edges for v in e}
            m = GraphicMatroid(edges)
            seen.add("loop" if any(u == v for u, v in edges) else None)
            seen.add("parallel" if len(set(edges)) < len(edges) else None)
            seen.add("components" if len(names) - m.full_rank >= 2 else None)
            seen.add("1 and 01" if {"1", "01"} <= names else None)
        assert {"loop", "parallel", "components", "1 and 01"} <= seen
