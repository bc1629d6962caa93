"""Shared matroid corpus for the test suite.

The corpus is the one the acceptance criteria run over: all uniform matroids
with at most 4 elements, the cycle matroids of every subgraph of K4, the
column matroids of every 3x4 binary matrix (deduplicated by independence
structure), ten fixed explicit matroids, and a few larger matroids used only
by the randomized rank properties.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from matroid_forge import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
)

K4_VERTICES = ("a", "b", "c", "d")
K4_EDGES = tuple(combinations(K4_VERTICES, 2))

EXPLICIT_SPECS = [
    ("E1", {1}, [{1}]),
    ("E2", {1, 2}, [set()]),
    ("E3", {1, 2}, [{1}]),
    ("E4", {1, 2}, [{1}, {2}]),
    ("E5", {1, 2, 3}, [{1, 2}, {2, 3}]),
    ("E6", {1, 2, 3}, [{1}, {2}, {3}]),
    ("E7", {1, 2, 3, 4}, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]),
    ("E8", {1, 2, 3, 4}, [{1, 3}, {1, 4}, {2, 3}, {2, 4}]),
    ("E9", {1, 2, 3, 4}, [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}]),
    ("E10", {1, 2, 3, 4, 5}, [{1, 2, 4, 5}, {1, 3, 4, 5}, {2, 3, 4, 5}]),
]


def uniform_corpus():
    return [
        (f"U({k},{n})", UniformMatroid(k, n))
        for n in range(0, 5)
        for k in range(0, n + 1)
    ]


def graphic_corpus():
    out = []
    for mask in range(1 << len(K4_EDGES)):
        edges = [K4_EDGES[i] for i in range(len(K4_EDGES)) if mask >> i & 1]
        out.append((f"G{mask:02d}", GraphicMatroid(edges, name=f"g{mask}")))
    return out


def linear_corpus():
    """All 3x4 GF(2) matrices, one representative per independence structure."""
    seen = {}
    for bits in product((0, 1), repeat=12):
        rows = [bits[0:4], bits[4:8], bits[8:12]]
        m = LinearMatroid(2, rows, name="b" + "".join(map(str, bits)))
        key = frozenset(m.independent_sets())
        if key not in seen:
            seen[key] = (f"L{len(seen):02d}", m)
    return list(seen.values())


def explicit_corpus():
    return [(name, ExplicitMatroid(g, bs, name=name)) for name, g, bs in EXPLICIT_SPECS]


def dedup(entries):
    """One entry per independence structure (same ground, same independents)."""
    seen = set()
    out = []
    for name, m in entries:
        key = (m.ground, frozenset(m.independent_sets()))
        if key not in seen:
            seen.add(key)
            out.append((name, m))
    return out


@pytest.fixture(scope="session")
def corpus():
    return uniform_corpus() + graphic_corpus() + linear_corpus() + explicit_corpus()


@pytest.fixture(scope="session")
def corpus_unique(corpus):
    return dedup(corpus)


@pytest.fixture(scope="session")
def corpus_small(corpus_unique):
    return [(n, m) for n, m in corpus_unique if len(m.ground) <= 5]


@pytest.fixture(scope="session")
def corpus_enumerable(corpus_unique):
    return [(n, m) for n, m in corpus_unique if len(m.independent_sets()) <= 16]


def _bridge_families(name, m):
    """The families acceptance criterion 1 runs on one corpus matroid.

    Every subset of the independent sets when there are at most 16 of them;
    otherwise every union of size levels, single-set perturbations of those,
    and 120 seeded random families.  They include every family criterion 2
    enumerates: the level unions, and each subset the raw oracle tries.
    """
    indep = m.independent_sets()
    if len(indep) <= 16:
        for mask in range(1 << len(indep)):
            yield [indep[i] for i in range(len(indep)) if mask >> i & 1]
        return
    rng = random.Random(f"bridge-{name}")
    levels = [[s for s in indep if len(s) == k] for k in range(m.full_rank + 1)]
    for lmask in range(1, 1 << len(levels)):
        union = [s for i in range(len(levels)) if lmask >> i & 1 for s in levels[i]]
        yield union
        outside = [s for s in indep if s not in set(union)]
        if outside:
            yield union + [outside[0]]
        if union:
            yield union[1:]
    for _ in range(120):
        p = rng.uniform(0.05, 0.6)
        yield [s for s in indep if rng.random() < p]


@pytest.fixture(scope="session")
def bridge_families():
    """(name, matroid) -> iterator over the families of acceptance criterion 1."""
    return _bridge_families


@pytest.fixture(scope="session")
def corpus_wide():
    """Larger matroids (7-10 elements) for the randomized rank properties."""
    grid = GraphicMatroid(
        [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"),
         ("a", "d"), ("b", "e"), ("c", "f")],
        name="grid23",
    )
    cycle10 = GraphicMatroid(
        [(str(i), str((i + 1) % 10)) for i in range(10)], name="c10"
    )
    gf3 = LinearMatroid(
        3,
        [[1, 0, 0, 1, 2, 1, 0, 2, 1],
         [0, 1, 0, 1, 1, 2, 2, 0, 1],
         [0, 0, 1, 1, 0, 1, 2, 1, 2]],
        name="gf3x9",
    )
    return [
        ("U(4,9)", UniformMatroid(4, 9)),
        ("U(5,10)", UniformMatroid(5, 10)),
        ("grid2x3", grid),
        ("C10", cycle10),
        ("GF3-3x9", gf3),
    ]


try:
    from hypothesis import settings

    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.load_profile("ci")
except ImportError:
    pass
