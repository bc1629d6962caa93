import random
from dataclasses import replace

import pytest

from matroid_forge import (
    BoundError,
    ClaimError,
    Condition,
    FamilyError,
    FreeMatroid,
    GraphicMatroid,
    PeriodicSumMatroid,
    SchemaError,
    SpecError,
    TaskError,
    TemplateSet,
    TruncationFamily,
    UniformMatroid,
    check_claim_preconditions,
    dense_extend_gain,
    dense_extend_guard,
    find_comparable_pair,
    forcing_step,
    make_task,
    seed_family,
    strongly_equivalent,
    verify_certificate,
    verify_family_finitary,
)
from matroid_forge.forcing import STEP_MAX_DEPTH, _gain_rank, _guard_rank

FREE = FreeMatroid()
PAIRS = PeriodicSumMatroid(UniformMatroid(1, 2))
EVENS = TemplateSet(2, [0])
ODDS = TemplateSet(2, [1])
MULT4 = TemplateSet(4, [0])
EMPTY = TemplateSet.empty()

A_EVEN_BLOCKS = TemplateSet(4, [0])   # a_i for even i
B_ODD_BLOCKS = TemplateSet(4, [3])    # b_i for odd i


def free_family(*reps):
    return TruncationFamily.build(FREE, reps)


class TestCondition:
    def test_extends(self):
        p = Condition(frozenset({1}), frozenset({2}))
        q = p.assign([3], 1).assign([4], 0)
        assert q.extends(p) and not p.extends(q)
        assert q.domain == {1, 2, 3, 4}

    def test_conflict_rejected(self):
        with pytest.raises(SpecError):
            Condition(frozenset({1}), frozenset({1}))


class TestMakeTask:
    def test_valid(self):
        task = make_task(FREE, EMPTY, ODDS)
        assert task.gap == ODDS
        assert task.gap is task.gap

    def test_finite_gap_rejected(self):
        with pytest.raises(TaskError):
            make_task(FREE, EVENS, EVENS.patch(add=[1]))

    def test_dependent_upper_rejected(self):
        with pytest.raises(TaskError):
            make_task(PAIRS, TemplateSet(2, [0]), TemplateSet.full())

    def test_not_nested_rejected(self):
        with pytest.raises(TaskError):
            make_task(FREE, ODDS, EVENS)


class TestClaims:
    def test_ok(self):
        out = check_claim_preconditions(FREE, free_family(MULT4), make_task(FREE, EMPTY, ODDS))
        assert out.ok

    def test_claim1_violated(self):
        task = make_task(FREE, EVENS, TemplateSet.full())
        out = check_claim_preconditions(FREE, free_family(MULT4), task)
        assert out.tag == "claim1" and out.witness == (MULT4,)

    def test_claim2_violated(self):
        task = make_task(FREE, EMPTY, ODDS)
        out = check_claim_preconditions(FREE, free_family(TemplateSet.full()), task)
        assert out.tag == "claim2" and out.witness == (TemplateSet.full(),)

    def test_direct_satisfier_found(self):
        # the class of evens+{1}-{0} contains evens, which settles (evens,
        # everything); the class of evens contains (odds < 130) | (evens >= 130)
        scenarios = [
            (EVENS.patch(add=[1], remove=[0]), EVENS, TemplateSet.full()),
            (EVENS, TemplateSet(2, [0], 130), TemplateSet(1, [0], 130, range(1, 130, 2))),
        ]
        for rep, lower, upper in scenarios:
            task = make_task(FREE, lower, upper)
            out = check_claim_preconditions(FREE, free_family(rep), task)
            assert out.tag == "task-satisfiable-directly"
            violator, satisfier = out.witness
            assert violator == rep and strongly_equivalent(FREE, satisfier, rep)
            assert task.lower.issubset(satisfier)
            assert satisfier.issubset(task.upper)

    def test_incomparable_precondition(self):
        fam = free_family(EVENS, MULT4.patch(add=[1]))
        with pytest.raises(FamilyError):
            check_claim_preconditions(FREE, fam, make_task(FREE, EMPTY, ODDS))

    def test_family_of_another_schema_refused(self):
        # evens and odds are incomparable on FREE but parallel classes on PAIRS
        fam = free_family(EVENS, ODDS)
        task = make_task(PAIRS, EMPTY, MULT4)
        for other in (PAIRS, FreeMatroid()):
            with pytest.raises(FamilyError):
                check_claim_preconditions(other, fam, task)
            with pytest.raises(FamilyError):
                forcing_step(other, fam, task, 2)


class TestDenseGain:
    def test_worked_example(self):
        task = make_task(FREE, EMPTY, ODDS)
        q, rank = dense_extend_gain(FREE, Condition(), MULT4, 2, task)
        assert q.ones == {1, 3} and not q.zeros
        assert FREE.relative_rank(TemplateSet.from_finite(q.ones), MULT4) == 2
        assert rank == 2

    def test_level_zero_no_growth(self):
        task = make_task(FREE, EMPTY, ODDS)
        p = Condition()
        q, rank = dense_extend_gain(FREE, p, MULT4, 0, task)
        assert q == p
        assert rank == FREE.relative_rank(TemplateSet.from_finite(q.ones), MULT4)

    def test_already_met_no_growth(self):
        task = make_task(FREE, EMPTY, ODDS)
        p = Condition(frozenset({1, 3}), frozenset())
        q, rank = dense_extend_gain(FREE, p, MULT4, 2, task)
        assert q == p
        assert rank == FREE.relative_rank(TemplateSet.from_finite(q.ones), MULT4)

    def test_never_touches_domain(self):
        task = make_task(FREE, EMPTY, ODDS)
        p = Condition(frozenset({5}), frozenset({1}))
        q, rank = dense_extend_gain(FREE, p, MULT4, 3, task)
        assert q.extends(p)
        assert q.ones & q.zeros == frozenset()
        assert rank == FREE.relative_rank(TemplateSet.from_finite(q.ones), MULT4)

    def test_domain_outside_gap_rejected(self):
        task = make_task(FREE, EMPTY, ODDS)
        stray = Condition(frozenset({2}), frozenset())  # 2 is not in the gap
        with pytest.raises(SpecError):
            dense_extend_gain(FREE, stray, MULT4, 1, task)


class TestDenseGuard:
    def test_worked_example(self):
        task = make_task(PAIRS, EMPTY, TemplateSet(2, [1]))
        q, rank = dense_extend_guard(PAIRS, Condition(), TemplateSet(2, [0]), 2, task)
        assert q.zeros == {1, 3} and not q.ones
        left = task.upper - TemplateSet.from_finite(q.zeros)
        assert PAIRS.relative_rank(TemplateSet(2, [0]), left) == 2
        assert rank == 2

    def test_level_zero_no_growth(self):
        task = make_task(PAIRS, EMPTY, TemplateSet(2, [1]))
        p = Condition()
        q, rank = dense_extend_guard(PAIRS, p, TemplateSet(2, [0]), 0, task)
        assert q == p
        assert rank == PAIRS.relative_rank(TemplateSet(2, [0]), task.upper)

    def test_already_met_no_growth(self):
        task = make_task(PAIRS, EMPTY, TemplateSet(2, [1]))
        p = Condition(frozenset(), frozenset({1, 3}))
        q, rank = dense_extend_guard(PAIRS, p, TemplateSet(2, [0]), 2, task)
        assert q == p
        left = task.upper - TemplateSet.from_finite(q.zeros)
        assert rank == PAIRS.relative_rank(TemplateSet(2, [0]), left)


def dual_scenario():
    """Direct-sum scenario with both gain and guard representatives."""
    fam = TruncationFamily.build(PAIRS, [A_EVEN_BLOCKS, B_ODD_BLOCKS])
    task = make_task(PAIRS, EMPTY, A_EVEN_BLOCKS | B_ODD_BLOCKS)
    return fam, task


class TestForcingStep:
    def test_free_worked_example(self):
        cert = forcing_step(FREE, free_family(MULT4), make_task(FREE, EMPTY, ODDS), 3)
        assert cert.condition.ones == {1, 3, 5}
        assert cert.condition.zeros == frozenset()
        assert cert.forced_in == TemplateSet.from_finite({1, 3, 5})
        assert cert.guard_evidence == ()
        assert verify_certificate(FREE, cert)

    def test_depth_zero(self):
        cert = forcing_step(FREE, free_family(MULT4), make_task(FREE, EMPTY, ODDS), 0)
        assert cert.condition == Condition()
        assert cert.met == ()

    def test_depth_bound(self):
        # the declared bound passes; one past it is refused
        task = make_task(FREE, EMPTY, ODDS)
        cert = forcing_step(FREE, free_family(MULT4), task, STEP_MAX_DEPTH)
        assert cert.depth == STEP_MAX_DEPTH == 1000
        assert len(cert.met) == STEP_MAX_DEPTH
        with pytest.raises(BoundError, match="forcing depth limited to 1000, got 1001"):
            forcing_step(FREE, free_family(MULT4), task, STEP_MAX_DEPTH + 1)

    def test_claim_failure_propagates(self):
        task = make_task(FREE, EVENS, TemplateSet.full())
        with pytest.raises(ClaimError):
            forcing_step(FREE, free_family(MULT4), task, 2)

    def test_dual_evidence_scenario(self):
        fam, task = dual_scenario()
        claims = check_claim_preconditions(PAIRS, fam, task)
        assert claims.ok
        cert = forcing_step(PAIRS, fam, task, 3)
        assert verify_certificate(PAIRS, cert)
        kinds = {(e.kind, e.rep.sort_key()) for e in cert.met}
        assert len({k for k, _ in kinds}) == 2  # both gain and guard evidence
        assert len(cert.gain_evidence) == 2 and len(cert.guard_evidence) == 2

    def test_tampered_certificate_fails(self):
        # each representative is both a gain and a guard representative; a
        # checker that keyed its ranks by representative alone would accept
        # one of the last two, which keep only the 1-part or only the 0-part
        fam, task = dual_scenario()
        cert = forcing_step(PAIRS, fam, task, 3)
        met = list(cert.met)
        gain_at = next(i for i, e in enumerate(met) if e.kind == "gain")
        guard_at = next(i for i, e in enumerate(met) if e.kind == "guard")
        (rep, _), *rest = cert.guard_evidence
        (gain_rep, gain_value), *gain_rest = cert.gain_evidence

        def with_met(i, level):
            return tuple(met[:i] + [replace(met[i], level=level)] + met[i + 1:])

        tampered = [
            replace(cert, met=with_met(gain_at, 99)),
            replace(cert, met=with_met(guard_at, 99)),
            replace(cert, guard_evidence=((rep, 1), *rest)),
            # still >= depth, but no longer the rank it records
            replace(cert, gain_evidence=((gain_rep, gain_value + 1), *gain_rest)),
            replace(cert, condition=Condition()),
            replace(cert, depth=50),
            replace(cert, condition=Condition(ones=cert.condition.ones)),
            replace(cert, condition=Condition(zeros=cert.condition.zeros)),
        ]
        assert verify_certificate(PAIRS, cert)
        assert [verify_certificate(PAIRS, t) for t in tampered] == [False] * len(tampered)

    def test_monotone_in_depth(self):
        scenarios = [
            (FREE, free_family(MULT4), make_task(FREE, EMPTY, ODDS)),
            (PAIRS,) + dual_scenario(),
        ]
        for matroid, fam, task in scenarios:
            previous = None
            for depth in range(0, 6):
                cert = forcing_step(matroid, fam, task, depth)
                if previous is not None:
                    assert cert.condition.extends(previous)
                previous = cert.condition

    def test_coverage_of_met_list(self):
        fam, task = dual_scenario()
        depth = 4
        cert = forcing_step(PAIRS, fam, task, depth)
        gains = {(e.rep.sort_key(), e.level) for e in cert.met if e.kind == "gain"}
        guards = {(e.rep.sort_key(), e.level) for e in cert.met if e.kind == "guard"}
        for rep, _ in cert.gain_evidence:
            for n in range(1, depth + 1):
                assert (rep.sort_key(), n) in gains
        for rep, _ in cert.guard_evidence:
            for n in range(1, depth + 1):
                assert (rep.sort_key(), n) in guards

    def test_step_keeps_family_conditions(self):
        # adding the class of the partially built base keeps conditions 1-3,
        # using the forced-in part extended to an infinite incomparable set
        cert = forcing_step(FREE, free_family(MULT4), make_task(FREE, EMPTY, ODDS), 4)
        grown = cert.forced_in | TemplateSet(16, [7])
        assert find_comparable_pair(FREE, [MULT4, grown]) is None
        fam = TruncationFamily.build(FREE, [MULT4, grown])
        assert verify_family_finitary(FREE, fam, []).ok


class TestInfiniteLowerSet:
    def scenario(self):
        lower = TemplateSet(4, [0])          # first block element, even blocks
        upper = lower | TemplateSet(4, [3])  # plus second element, odd blocks
        task = make_task(PAIRS, lower, upper)
        fam = TruncationFamily.build(PAIRS, [TemplateSet(4, [3])])
        return fam, task

    def test_claims_pass(self):
        fam, task = self.scenario()
        assert check_claim_preconditions(PAIRS, fam, task).ok

    def test_guard_contracts_infinite_lower(self):
        fam, task = self.scenario()
        cert = forcing_step(PAIRS, fam, task, 3)
        assert verify_certificate(PAIRS, cert)
        assert cert.condition.zeros == {3, 7, 11}
        assert cert.gain_evidence == ()  # the lone class is never gained over
        assert cert.forced_in.is_infinite

    def test_monotone(self):
        fam, task = self.scenario()
        prev = None
        for depth in range(0, 6):
            cert = forcing_step(PAIRS, fam, task, depth)
            if prev is not None:
                assert cert.condition.extends(prev)
            prev = cert.condition


class LyingLedger(PeriodicSumMatroid):
    """Sums of U(1,2) whose local rank change is one too large."""

    def rank_change(self, xs, ys, add=(), remove=()):
        return super().rank_change(xs, ys, add, remove) + 1


def window_wide_met_ranks(matroid, cert):
    """(met value, window-wide rank of the condition prefix it was met on) per met entry."""
    condition = Condition()
    for entry in cert.met:
        condition = condition.assign([e for e, _ in entry.added], 1 if entry.kind == "gain" else 0)
        rank_of = _gain_rank if entry.kind == "gain" else _guard_rank
        yield entry.value, rank_of(matroid, condition, entry.rep, cert.task)


def seeded_steps(schema, rng):
    """Seed families with a task whose upper set is their union's independent part."""
    block = getattr(schema, "block", 1)
    for prefix in ("01", "10", "011", "110"):
        fam = seed_family(schema, prefix)
        union = fam.representatives[0]
        for rep in fam.representatives[1:]:
            union = union | rep
        upper = schema.max_independent_subtemplate(union)
        lower = TemplateSet.from_finite(rng.sample(upper.members_below(8 * block), rng.randrange(3)))
        yield fam, make_task(schema, lower, upper), rng.randint(3, 6)


class TestRankLedger:
    def test_lying_rank_change_is_caught(self):
        liar = LyingLedger(UniformMatroid(1, 2))
        fam = TruncationFamily.build(liar, [A_EVEN_BLOCKS, B_ODD_BLOCKS])
        task = make_task(liar, EMPTY, A_EVEN_BLOCKS | B_ODD_BLOCKS)
        with pytest.raises(SchemaError, match="certificate failed independent re-verification"):
            forcing_step(liar, fam, task, 3)

    def test_met_values_match_window_wide_ranks(self):
        rng = random.Random(12)
        schemas = [FREE, PAIRS, PeriodicSumMatroid(UniformMatroid(2, 3)),
                   PeriodicSumMatroid(UniformMatroid(2, 4)),
                   PeriodicSumMatroid(GraphicMatroid([("a", "b"), ("b", "c"), ("a", "c")]))]
        cases = [(PAIRS, *dual_scenario(), 4), (PAIRS, *TestInfiniteLowerSet().scenario(), 5)]
        for schema in schemas:
            cases += [(schema, *step) for step in seeded_steps(schema, rng)]
        # the guard of sums of U(2,4) meets a dependent upper block 25,000 blocks in
        u24 = schemas[3]
        far = TruncationFamily.build(u24, [TemplateSet(4, [2], 100_000)])
        cases.append((u24, far, make_task(u24, EMPTY, TemplateSet(4, [0, 1])), 3))
        kinds = set()
        for schema, fam, task, depth in cases:
            assert check_claim_preconditions(schema, fam, task).ok
            cert = forcing_step(schema, fam, task, depth)
            assert len(cert.met) == depth * (len(cert.gain_evidence) + len(cert.guard_evidence))
            for value, want in window_wide_met_ranks(schema, cert):
                assert value == want, (schema, task)
            kinds |= {(type(schema), e.kind) for e in cert.met if e.added}
        assert len(kinds) == 4  # both kinds grew the condition on both schemas

    def test_certificate_check_reads_no_ledger(self, monkeypatch):
        fam, task = dual_scenario()
        cert = forcing_step(PAIRS, fam, task, 3)

        def refuse(*args, **kw):
            raise AssertionError("verify_certificate asked for a local rank change")

        monkeypatch.setattr(PeriodicSumMatroid, "rank_change", refuse)
        assert verify_certificate(PAIRS, cert)


class TestSeeds:
    def test_single_bit(self):
        fam = seed_family(FREE, "1")
        assert list(fam) == [ODDS]

    def test_two_bits(self):
        fam = seed_family(FREE, "10")
        assert set(fam.representatives) == {ODDS, TemplateSet(8, [2])}

    def test_nested_pair_structure(self):
        # position n: the 0-option is a proper subset of the 1-option
        for n in range(4):
            one = TemplateSet(1 << (n + 1), [1 << n])
            zero = TemplateSet(1 << (n + 2), [1 << n])
            assert zero.issubset(one) and zero != one

    def test_incomparable(self):
        for prefix in ("1", "0", "01", "111", "0101"):
            fam = seed_family(FREE, prefix)
            assert find_comparable_pair(FREE, list(fam)) is None

    def test_merged_comparable(self):
        merged = list(seed_family(FREE, "10")) + list(seed_family(FREE, "00"))
        assert find_comparable_pair(FREE, merged) is not None

    def test_periodic_schema(self):
        fam = seed_family(PAIRS, "10")
        assert find_comparable_pair(PAIRS, list(fam)) is None
        base = PAIRS.canonical_base()
        for rep in fam:
            assert rep.issubset(base)

    def test_bad_prefix(self):
        with pytest.raises(SpecError):
            seed_family(FREE, "")
        with pytest.raises(SpecError):
            seed_family(FREE, "102")
