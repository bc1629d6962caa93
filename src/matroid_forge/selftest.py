"""The invariant library: each law of the workbench written once.

Every invariant returns a `Verdict`: passed, or a violation whose witness
replays the first counterexample found.  `lemma_suite` and `oracle_suite`
run them over a small built-in corpus for `matroid-forge selftest`; the test
suite imports the same functions and runs them over its full corpus.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, Iterator

from .core import (
    ExplicitMatroid,
    FiniteMatroid,
    GraphicMatroid,
    UniformMatroid,
    Verdict,
    check_base_axioms,
    size_order,
)
from .equivalence import almost_spans, relative_rank_difference_check, strongly_equivalent
from .finitary import INFINITE, FinitaryMatroid, FreeMatroid, PeriodicSumMatroid
from .gentrunc import (
    RAW_ENUM_MAX_INDEP,
    enumerate_gen_truncations,
    enumerate_raw,
    family_sort_key,
    verify_family,
    verify_is_gen_truncation,
)
from .templates import TemplateSet
from .truncation import cotruncate, truncate_to

Chain = tuple[frozenset, frozenset, frozenset]


def every_chain(ground: Iterable[int]) -> Iterator[Chain]:
    """Every chain (A, B, C) with C <= B <= A <= ground: one per 4-way split of the elements."""
    order = sorted(ground)
    for sides in product(range(4), repeat=len(order)):
        yield tuple(frozenset(e for e, s in zip(order, sides) if s >= k) for k in (1, 2, 3))


def sampled_chains(ground: Iterable[int], rng: random.Random, count: int) -> Iterator[Chain]:
    """`count` random chains (A, B, C): each set keeps each element of the next larger one
    (of `ground` for A) with chance 0.6."""
    order = sorted(ground)
    for _ in range(count):
        a = frozenset(e for e in order if rng.random() < 0.6)
        b = frozenset(e for e in a if rng.random() < 0.6)
        c = frozenset(e for e in b if rng.random() < 0.6)
        yield a, b, c


def chain_additivity(matroid: FiniteMatroid, chains: Iterable[Chain]) -> Verdict:
    """Relative rank adds along chains: r(A|C) = r(B|C) + r(A|B); witness (A, B, C)."""
    rr = matroid.relative_rank
    for a, b, c in chains:
        if rr(a, c) != rr(b, c) + rr(a, b):
            return Verdict.violation("additivity", a, b, c)
    return Verdict.passed()


def cotruncation_meets_truncation(matroid: FiniteMatroid) -> Verdict:
    """Deleting k elements from every base gives the truncation to rank r - k; witness (k,)."""
    r = matroid.full_rank
    for steps in range(1, r + 1):
        if cotruncate(matroid, steps).bases_set() != truncate_to(matroid, r - steps).bases_set():
            return Verdict.violation("cotruncation", steps)
    return Verdict.passed()


def balanced_difference_law(matroid: FiniteMatroid) -> Verdict:
    """Independent A and B are strongly equivalent iff |A - B| = |B - A|, that is iff they
    have equal size; witness (A, B)."""
    indep = matroid.independent_sets()
    for a in indep:
        for b in indep:
            if bool(strongly_equivalent(matroid, a, b)) != (len(a - b) == len(b - a)):
                return Verdict.violation("balanced-difference", a, b)
    return Verdict.passed()


def difference_check_law(matroid: FiniteMatroid) -> Verdict:
    """`relative_rank_difference_check(A, B, X)` holds iff A and B are strongly equivalent,
    for all independent A, B and every X containing both; witness (A, B, X)."""
    indep = matroid.independent_sets()
    for a in indep:
        for b in indep:
            equivalent = bool(strongly_equivalent(matroid, a, b))
            rest = sorted(matroid.ground - a - b)
            for mask in range(1 << len(rest)):
                x = a | b | {e for i, e in enumerate(rest) if mask >> i & 1}
                if relative_rank_difference_check(matroid, a, b, x) != equivalent:
                    return Verdict.violation("difference-check", a, b, x)
    return Verdict.passed()


def restriction_agreement(schema: FinitaryMatroid, sizes: Iterable[int], rng: random.Random,
                          count: int, density: float) -> Verdict:
    """Template relative ranks equal those of the finite restriction to {0, ..., n-1}, on
    `count` random pairs per size n (each element drawn with chance `density`); witness (n, X, Y)."""
    for n in sizes:
        finite = schema.restrict(n)
        for _ in range(count):
            xs = frozenset(e for e in range(n) if rng.random() < density)
            ys = frozenset(e for e in range(n) if rng.random() < density)
            if schema.relative_rank(xs, ys) != finite.relative_rank(xs, ys):
                return Verdict.violation("restriction", n, xs, ys)
    return Verdict.passed()


def _random_template(rng: random.Random, bound: int) -> TemplateSet:
    """A template of period at most 12 whose low part lies below a threshold under `bound`."""
    period, threshold = rng.choice((1, 2, 3, 4, 6, 8, 12)), rng.randrange(bound)
    return TemplateSet(period, [r for r in range(period) if rng.random() < 0.5], threshold,
                       [n for n in range(threshold) if rng.random() < 0.5])


def local_rank_change_law(schema: FinitaryMatroid, rng: random.Random, count: int) -> Verdict:
    """`rank_change(X, Y, add=A, remove=Z)` equals r((X | A) / (Y - Z)) - r(X / Y) whenever
    both ranks are finite, on `count` random cases: Y a template, X a part of Y plus a
    finite set (an unrelated template one time in four), A and Z finite sets below 24;
    witness (X, Y, A, Z)."""
    rr, bound = schema.relative_rank, 24
    for _ in range(count):
        y = _random_template(rng, bound)
        x = _random_template(rng, bound)
        if rng.random() < 0.75:
            x = (y & x) | TemplateSet.from_finite(x.members_below(bound))
        a, z = (frozenset(n for n in range(bound) if rng.random() < 0.2) for _ in "az")
        before, after = rr(x, y), rr(x | a, y - z)
        if INFINITE in (before, after):
            continue
        if schema.rank_change(x, y, add=a, remove=z) != after - before:
            return Verdict.violation("rank-change", x, y, a, z)
    return Verdict.passed()


def enumeration_matches_raw(matroid: FiniteMatroid) -> Verdict:
    """The level enumeration lists exactly the families of `enumerate_raw`; witness: the
    first family (as its members in size order) that only one of them lists."""
    differ = set(enumerate_gen_truncations(matroid)) ^ set(enumerate_raw(matroid))
    if not differ:
        return Verdict.passed()
    first = min(differ, key=family_sort_key)
    return Verdict.violation("enumeration", tuple(sorted(first, key=size_order)))


def definition_bridge(matroid: FiniteMatroid, families: Iterable[list]) -> Verdict:
    """`verify_family` passes a family iff the family is a base family (B1 and B2) whose
    matroid passes the literal definition check `verify_is_gen_truncation`; witness: the
    first family on which they disagree, as its members in size order."""
    for family in families:
        ours = verify_family(matroid, family).ok
        # B1 fails on the empty family, so no candidate is built without a base
        theirs = check_base_axioms(matroid.ground, family).ok and verify_is_gen_truncation(
            matroid, ExplicitMatroid(matroid.ground, family, _checked=True)).ok
        if ours != theirs:
            return Verdict.violation("definition-bridge", tuple(sorted(family, key=size_order)))
    return Verdict.passed()


def level_families(matroid: FiniteMatroid) -> Iterator[list[frozenset]]:
    """Each size level of `matroid`, each followed by one perturbed copy: the level less
    its first member, or a one-member level plus the first independent set of another
    size (a rank-0 matroid has none)."""
    indep = matroid.independent_sets()
    for k in range(matroid.full_rank + 1):
        level = [s for s in indep if len(s) == k]
        yield level
        if len(level) > 1:
            yield level[1:]
        elif len(indep) > 1:
            yield level + [next(s for s in indep if len(s) != k)]


def _almost_spanning_examples(pairs: PeriodicSumMatroid) -> Verdict:
    """Worked cases on the free matroid and on `pairs`; witness (case index,)."""
    free = FreeMatroid()
    evens, odds = TemplateSet(2, [0]), TemplateSet(2, [1])
    cases = [
        almost_spans(free, TemplateSet.from_finite({0, 2}), odds),
        not almost_spans(free, evens, odds),
        almost_spans(pairs, evens, odds),
        strongly_equivalent(pairs, evens, odds),
    ]
    for i, held in enumerate(cases):
        if not held:
            return Verdict.violation("example", i)
    return Verdict.passed()


def _mini_corpus() -> list[FiniteMatroid]:
    return [
        UniformMatroid(2, 4),
        UniformMatroid(1, 3),
        GraphicMatroid([("a", "b"), ("b", "c"), ("c", "a")], "tri"),
        ExplicitMatroid({1, 2, 3}, [{1, 2}, {2, 3}], "pair"),
    ]


SuiteRow = tuple[str, object, Verdict]


def _first_violation(name: str, subjects: Iterable, law) -> SuiteRow:
    """(name, first subject the law fails on or None, its verdict)."""
    for subject in subjects:
        verdict = law(subject)
        if not verdict:
            return name, subject, verdict
    return name, None, Verdict.passed()


def lemma_suite(seed: int = 0) -> list[SuiteRow]:
    """The `selftest lemmas` rows, in order; `seed` drives the sampled laws."""
    rng = random.Random(seed)
    corpus = _mini_corpus()
    pairs = PeriodicSumMatroid(UniformMatroid(1, 2))
    table = [
        ("relative-rank-additivity", corpus,
         lambda m: chain_additivity(m, sampled_chains(m.ground, rng, 500))),
        ("cotruncation-meets-truncation", corpus, cotruncation_meets_truncation),
        ("finite-equivalence-is-equal-size", corpus, balanced_difference_law),
        ("relative-rank-difference-check", [UniformMatroid(2, 4)], difference_check_law),
        ("template-almost-spanning", [pairs], _almost_spanning_examples),
        ("template-vs-restriction-rank", [pairs],
         lambda s: restriction_agreement(s, (8, 16, 32), rng, 200, 0.3)),
        ("rank-change-is-local", [FreeMatroid(), pairs, PeriodicSumMatroid(UniformMatroid(2, 4))],
         lambda s: local_rank_change_law(s, rng, 200)),
    ]
    return [_first_violation(*row) for row in table]


def oracle_suite() -> list[SuiteRow]:
    """The `selftest oracle` rows: fast enumeration against the raw oracle where it is in
    bounds, and the family check against the definition check on each level and a
    perturbed copy."""
    corpus = _mini_corpus()
    small = [m for m in corpus if len(m.independent_sets()) <= RAW_ENUM_MAX_INDEP]
    return [
        _first_violation("enumeration-matches-raw-oracle", small, enumeration_matches_raw),
        _first_violation("family-check-matches-definition", corpus,
                         lambda m: definition_bridge(m, level_families(m))),
    ]
