"""Built-in invariant suites, runnable from the CLI.

These are quick confidence checks over a small built-in corpus; the full
acceptance suite lives in the test tree.  Every check returns (name, ok,
detail) so the CLI can print one line per check and fail on the first red.
"""

from __future__ import annotations

import random

from .core import UniformMatroid, GraphicMatroid, ExplicitMatroid, check_base_axioms
from .equivalence import almost_spans, relative_rank_difference_check, strongly_equivalent
from .finitary import FreeMatroid, PeriodicSumMatroid
from .gentrunc import enumerate_gen_truncations, enumerate_raw, verify_family
from .templates import TemplateSet
from .truncation import truncate_to, cotruncate


def _mini_corpus():
    return [
        UniformMatroid(2, 4),
        UniformMatroid(1, 3),
        GraphicMatroid([("a", "b"), ("b", "c"), ("c", "a")], "tri"),
        ExplicitMatroid({1, 2, 3}, [{1, 2}, {2, 3}], "pair"),
    ]


def lemma_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    rng = random.Random(seed)
    results = []

    ok = True
    detail = ""
    for m in _mini_corpus():
        order = sorted(m.ground)
        for _ in range(500):
            a = frozenset(e for e in order if rng.random() < 0.6)
            b = frozenset(e for e in a if rng.random() < 0.6)
            c = frozenset(e for e in b if rng.random() < 0.6)
            if m.relative_rank(a, c) != m.relative_rank(b, c) + m.relative_rank(a, b):
                ok, detail = False, f"{m.name}: chain {sorted(c)}<{sorted(b)}<{sorted(a)}"
                break
    results.append(("relative-rank-additivity", ok, detail))

    ok = True
    detail = ""
    for m in _mini_corpus():
        for steps in range(1, m.full_rank + 1):
            lit = cotruncate(m, steps).bases_set()
            via = truncate_to(m, m.full_rank - steps).bases_set()
            if lit != via:
                ok, detail = False, f"{m.name} steps={steps}"
                break
    results.append(("cotruncation-meets-truncation", ok, detail))

    ok = True
    detail = ""
    for m in _mini_corpus():
        indep = m.independent_sets()
        for a in indep:
            for b in indep:
                expected = len(a) == len(b)
                if bool(strongly_equivalent(m, a, b)) != expected:
                    ok, detail = False, f"{m.name}: {sorted(a)} vs {sorted(b)}"
                    break
    results.append(("finite-equivalence-is-equal-size", ok, detail))

    ok = True
    detail = ""
    m = UniformMatroid(2, 4)
    indep = m.independent_sets()
    for a in indep:
        for b in indep:
            agree = relative_rank_difference_check(m, a, b, m.ground)
            if agree != (m.relative_rank(m.ground, a) == m.relative_rank(m.ground, b)):
                ok, detail = False, f"{sorted(a)} vs {sorted(b)}"
    results.append(("relative-rank-difference-check", ok, detail))

    ok = True
    detail = ""
    free = FreeMatroid()
    pairs = PeriodicSumMatroid(UniformMatroid(1, 2))
    evens = TemplateSet(2, [0])
    odds = TemplateSet(2, [1])
    checks = [
        (almost_spans(free, TemplateSet.from_finite({0, 2}), odds), True),
        (almost_spans(free, evens, odds), False),
        (almost_spans(pairs, evens, odds), True),
        (strongly_equivalent(pairs, evens, odds), True),
    ]
    for got, want in checks:
        if bool(got) != want:
            ok, detail = False, f"got {got}, wanted {want}"
    results.append(("template-almost-spanning", ok, detail))

    ok = True
    detail = ""
    for n in (8, 16, 32):
        finite = pairs.restrict(n)
        for _ in range(200):
            xs = frozenset(e for e in range(n) if rng.random() < 0.3)
            ys = frozenset(e for e in range(n) if rng.random() < 0.3)
            want = finite.relative_rank(xs, ys)
            got = pairs.relative_rank(xs, ys)
            if got != want:
                ok, detail = False, f"n={n} X={sorted(xs)} Y={sorted(ys)}"
                break
    results.append(("template-vs-restriction-rank", ok, detail))
    return results


def oracle_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    results = []
    ok = True
    detail = ""
    for m in _mini_corpus():
        if len(m.independent_sets()) > 16:
            continue
        fast = {frozenset(f) for f in enumerate_gen_truncations(m)}
        raw = {frozenset(f) for f in enumerate_raw(m)}
        if fast != raw:
            ok, detail = False, m.name
            break
    results.append(("enumeration-matches-raw-oracle", ok, detail))

    ok = True
    detail = ""
    for m in _mini_corpus():
        for fam in enumerate_gen_truncations(m):
            if not verify_family(m, fam) or not check_base_axioms(m.ground, fam):
                ok, detail = False, m.name
                break
    results.append(("enumerated-families-revalidate", ok, detail))
    return results
