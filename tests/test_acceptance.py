"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
live).  Everything here is exact: no tolerances, fixed seeds throughout.
"""

from __future__ import annotations

import random

from matroid_forge import (
    FreeMatroid,
    INFINITE,
    PeriodicSumMatroid,
    TemplateSet,
    TruncationFamily,
    UniformMatroid,
    almost_spans,
    check_claim_preconditions,
    enumerate_gen_truncations,
    find_comparable_pair,
    forcing_step,
    make_task,
    removal_witness,
    seed_family,
    strongly_equivalent,
    truncate_to,
    verify_certificate,
)
from matroid_forge.cli import dispatch
from matroid_forge.files import emit_matroid_text, parse_matroid_text
from matroid_forge.selftest import (
    balanced_difference_law,
    chain_additivity,
    definition_bridge,
    difference_check_law,
    enumeration_matches_raw,
    every_chain,
    restriction_agreement,
    sampled_chains,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_1_family_definition_bridge(corpus_unique, bridge_families):
    """Families pass verify_family iff they pass base axioms + the definition.

    Exhaustive over all subsets of the independent sets whenever there are at
    most 16 of them; larger corpus members get every union of size levels,
    single-set perturbations of those, and seeded random families (a full
    sweep of K4 would be 2^38 families).
    """
    for name, m in corpus_unique:
        verdict = definition_bridge(m, bridge_families(name, m))
        assert verdict.ok, (name, str(verdict))
    _passed(1, "family/definition bridge")


def test_criterion_2_enumeration_oracle(corpus_enumerable):
    for name, m in corpus_enumerable:
        assert enumeration_matches_raw(m).ok, name
    _passed(2, "enumeration equals raw oracle")


def test_criterion_3_finite_classification(corpus_unique):
    for name, m in corpus_unique:
        families = enumerate_gen_truncations(m)
        expected = [truncate_to(m, k).bases_set() for k in range(m.full_rank + 1)]
        assert len(families) == m.full_rank + 1, name
        assert {frozenset(f) for f in families} == {frozenset(f) for f in expected}, name
    _passed(3, "generalised truncations are exactly the size truncations")


def test_criterion_4_equivalence_laws(corpus_small):
    for name, m in corpus_small:
        indep = m.independent_sets()
        k = len(indep)
        eq = [[bool(strongly_equivalent(m, indep.__getitem__(i), indep[j]))
               for j in range(k)] for i in range(k)]
        # equivalence relation, exhaustively
        for i in range(k):
            assert eq[i][i], name
            for j in range(k):
                assert eq[i][j] == eq[j][i], name
                for l in range(k):
                    if eq[i][j] and eq[j][l]:
                        assert eq[i][l], name
        # balanced-difference law, both directions, all pairs
        assert balanced_difference_law(m).ok, name
        # overrank comparison law, both directions, all pairs and enclosures
        assert difference_check_law(m).ok, name
        # compatibility of almost-spanning with equivalence, sampled
        rng = random.Random(f"obs4-{name}")
        by_size: dict[int, list] = {}
        for s in indep:
            by_size.setdefault(len(s), []).append(s)
        for _ in range(10_000):
            a = indep[rng.randrange(k)]
            b = indep[rng.randrange(k)]
            a2 = rng.choice(by_size[len(a)])
            b2 = rng.choice(by_size[len(b)])
            assert almost_spans(m, a, b) == almost_spans(m, a2, b2), name
    _passed(4, "equivalence laws on small corpus")


def test_criterion_5_relative_rank_additivity(corpus_unique, corpus_wide):
    # every chain C <= B <= A on grounds of at most 6 elements
    for name, m in corpus_unique:
        if len(m.ground) <= 6:
            assert chain_additivity(m, every_chain(m.ground)).ok, name
    rng = random.Random("r3-wide")
    for name, m in corpus_wide:
        assert len(m.ground) <= 10, name
        assert chain_additivity(m, sampled_chains(m.ground, rng, 100_000)).ok, name
    _passed(5, "relative-rank additivity")


def test_criterion_6_template_restriction_agreement():
    schemas = [
        FreeMatroid(),
        PeriodicSumMatroid(UniformMatroid(1, 2)),
        PeriodicSumMatroid(UniformMatroid(2, 3)),
    ]
    rng = random.Random("restrict")
    for schema in schemas:
        assert restriction_agreement(schema, (8, 16, 32, 64), rng, 1000, 0.35).ok, schema
    _passed(6, "template ranks agree with finite restrictions")


def test_criterion_7_removal_witness_validity():
    rng = random.Random("witness")
    schemas = [
        FreeMatroid(),
        PeriodicSumMatroid(UniformMatroid(1, 2)),
        PeriodicSumMatroid(UniformMatroid(2, 3)),
    ]
    done = 0
    while done < 1000:
        schema = rng.choice(schemas)
        dp = rng.randint(1, 6)
        inner = TemplateSet(dp, {rng.randrange(dp)}, 0)
        dq = rng.randint(1, 6)
        outer = TemplateSet(dq, {rng.randrange(dq)}, 0)
        if rng.random() < 0.3:
            inner = inner.patch(add=[rng.randrange(12)])
        if not (schema.certify(inner) and schema.certify(outer)):
            continue
        protected = frozenset(outer.first(4)[: rng.randint(0, 3)])
        count = rng.randint(0, 8)
        witness = removal_witness(schema, inner, outer, protected, count)
        assert len(witness) <= max(count, 0) * 2 + 8
        assert not (witness & protected)
        assert all(w in outer for w in witness)
        left = outer - TemplateSet.from_finite(witness)
        assert schema.relative_rank(inner, left) >= count
        done += 1
    _passed(7, "removal witnesses re-verify")


def test_criterion_8_forcing_certificates():
    free = FreeMatroid()
    pairs = PeriodicSumMatroid(UniformMatroid(1, 2))
    scenarios = [
        (
            free,
            TruncationFamily.build(free, [TemplateSet(4, [0])]),
            make_task(free, TemplateSet.empty(), TemplateSet(2, [1])),
        ),
        (
            pairs,
            TruncationFamily.build(pairs, [TemplateSet(4, [0]), TemplateSet(4, [3])]),
            make_task(pairs, TemplateSet.empty(), TemplateSet(4, [0]) | TemplateSet(4, [3])),
        ),
    ]
    for matroid, family, task in scenarios:
        assert check_claim_preconditions(matroid, family, task).ok
        gain_reps = [r for r in family if matroid.relative_rank(task.lower, r) != INFINITE]
        guard_reps = [r for r in family if matroid.relative_rank(r, task.upper) != INFINITE]
        previous = None
        for depth in range(1, 9):
            cert = forcing_step(matroid, family, task, depth)
            assert verify_certificate(matroid, cert)
            if previous is not None:
                assert cert.condition.extends(previous)
            previous = cert.condition
            met_gain = {(e.rep.sort_key(), e.level) for e in cert.met if e.kind == "gain"}
            met_guard = {(e.rep.sort_key(), e.level) for e in cert.met if e.kind == "guard"}
            for rep in gain_reps:
                for n in range(1, depth + 1):
                    assert (rep.sort_key(), n) in met_gain
            for rep in guard_reps:
                for n in range(1, depth + 1):
                    assert (rep.sort_key(), n) in met_guard
    _passed(8, "forcing-step certificates verify, extend, and cover")


def test_criterion_9_seed_families():
    free = FreeMatroid()
    prefixes = [
        format(v, f"0{length}b")
        for length in range(1, 7)
        for v in range(1 << length)
    ]
    families = {s: seed_family(free, s) for s in prefixes}
    for s, fam in families.items():
        assert find_comparable_pair(free, list(fam)) is None, s
    for i, s in enumerate(prefixes):
        for t in prefixes[i + 1:]:
            common = min(len(s), len(t))
            # a merged family is a union of classes: identical representatives collapse
            merged = sorted(set(families[s]) | set(families[t]), key=TemplateSet.sort_key)
            if any(s[p] != t[p] for p in range(common)):
                assert find_comparable_pair(free, merged) is not None, (s, t)
            else:
                # one prefix extends the other: the merged family stays
                # incomparable (infinite binary strings always differ
                # somewhere; finite prefixes need a common differing spot)
                assert find_comparable_pair(free, merged) is None, (s, t)
    _passed(9, "seed families incomparable; merged pairs flagged")


def test_criterion_10_cli_roundtrip_and_exit_codes(corpus_unique, tmp_path):
    # round-trip stability for every corpus matroid plus both schemas
    free_text = "matroid f\nkind free\n"
    periodic_text = (
        "matroid ds\nkind periodic-sum\n"
        "component kind uniform\ncomponent params k=1 n=2\n"
    )
    texts = [emit_matroid_text(m) for _, m in corpus_unique] + [free_text, periodic_text]
    for text in texts:
        once = emit_matroid_text(parse_matroid_text(text))
        assert emit_matroid_text(parse_matroid_text(once)) == once
    # exit-code contract: 0 ok, 1 violation/false, 2 usage or domain error
    mfile = tmp_path / "u23.txt"
    mfile.write_text("matroid u23\nkind uniform\nparams k=2 n=3\n")
    ffile = tmp_path / "free.txt"
    ffile.write_text(free_text)
    good = tmp_path / "good.txt"
    good.write_text("family g\nset 1 2\nset 1 3\nset 2 3\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("family b\nset 1 2\n")
    assert dispatch(["gentrunc", "verify", "--matroid", str(mfile), "--family", str(good)])[0] == 0
    assert dispatch(["gentrunc", "verify", "--matroid", str(mfile), "--family", str(bad)])[0] == 1
    assert dispatch(["equiv", "strong", "--matroid", str(ffile),
                     "--left", "set 0", "--right", "set 1 2"])[0] == 1
    assert dispatch(["equiv", "almost-spans", "--matroid", str(ffile),
                     "--left", "set 0", "--right", "evens"])[0] == 0
    assert dispatch(["axioms", "check", "--matroid", str(tmp_path / "nope.txt")])[0] == 2
    assert dispatch(["truncate", "--level", "9", "--matroid", str(mfile)])[0] == 2
    _passed(10, "CLI round-trip and exit codes")
