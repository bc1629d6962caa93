"""Exact finite matroid kernel.

Backends: uniform, graphic, linear over GF(p), explicit base lists and
rank-oracle wrappers.  All arithmetic is exact integer work;
exhaustive loops run over int bitmasks of the (small) ground set, bit i
standing for the i-th smallest element.  Frozensets appear only at the API
boundary and in witnesses.  Enumerations and witnesses follow the (size,
sorted elements) order, which is not the (popcount, mask) order: {1,4}
comes before {2,3}.

A matroid holds its bases once, as the mask set `base_masks` returns: an
explicit matroid's stored base list, else one cached enumeration.  `bases`
and `independent_sets` are uncached frozenset views for the API boundary.

The two exhaustive checks, `check_base_masks` here and
`gentrunc.verify_family_masks`, take members as int masks sorted by
`size_keys`; the frozenset functions `check_base_axioms` and
`gentrunc.verify_family` are thin wrappers in front of them that normalise
the input, check the ground and the declared bound, and convert to masks.
`check_base_masks` reads no environment: its callers check the ground
bound, once.  `verify_family_masks` also checks `ENUMERATION_MAX_GROUND`
itself, through `check_bound`, so it reads `MATROID_FORGE_MAX_GROUND`.

An explicit base list is quarantined: the constructor refuses it unless the
base axioms hold, so every matroid object in the system can be trusted to
answer rank queries consistently.  On a finite ground non-emptiness (B1) and
exchange (B2) decide them; the maximality axiom (BM) holds for every
non-empty family (`check_base_masks` gives the proof).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .errors import BoundError, GroundError, SpecError

# Declared exhaustive bounds.  MATROID_FORGE_MAX_GROUND may lower (never raise)
# them at runtime.
AXIOM_CHECK_MAX_GROUND = 12
ENUMERATION_MAX_GROUND = 12
# Bounds on construction parameters, checked before any work; the environment
# does not lower them.
UNIFORM_MAX_GROUND = 1 << 16
LINEAR_MAX_PRIME = 1 << 31


def exhaustive_bound(default: int) -> int:
    raw = os.environ.get("MATROID_FORGE_MAX_GROUND")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise SpecError("MATROID_FORGE_MAX_GROUND must be an integer") from exc
    return min(default, value)


def check_bound(what: str, size: int, default: int) -> None:
    """Refuse, before any work starts, an exhaustive pass over more than the declared bound."""
    bound = exhaustive_bound(default)
    if size > bound:
        raise BoundError(f"{what} limited to {bound} elements, got {size}")


def size_order(xs: frozenset) -> tuple:
    """Sort key of the (size, sorted elements) order every enumeration and witness follows."""
    return len(xs), tuple(sorted(xs))


@cache
def size_keys(n: int) -> tuple[int, ...]:
    """Sort key of every n-bit mask, ordered as `size_order` orders the sets they stand for.

    Of two sets of one size, the one holding the lowest element they do not
    share comes first.  That element is the highest differing bit of the
    bit-reversed masks, so the key is the popcount followed by the
    complemented bit reversal.
    """
    full = (1 << n) - 1
    rev = [0] * (1 << n)
    for m in range(1, 1 << n):
        rev[m] = rev[m >> 1] >> 1 | (m & 1) << (n - 1)
    return tuple(m.bit_count() << n | full ^ r for m, r in enumerate(rev))


def size_sorted(masks: Iterable[int], n: int) -> list[int]:
    """The distinct masks over n positions, in (size, sorted elements) order."""
    return sorted(set(masks), key=size_keys(n).__getitem__)


@cache
def _lacking(n: int) -> tuple[int, ...]:
    """For each position i < n, the 2^n-bit pattern whose bit S is set iff S lacks i.

    Runs of 2^i set bits alternate with 2^i clear ones; the pattern is tiled
    by doubling.
    """
    patterns = []
    for i in range(n):
        pattern, width = (1 << (1 << i)) - 1, 2 << i
        while width < 1 << n:
            pattern |= pattern << width
            width <<= 1
        patterns.append(pattern)
    return tuple(patterns)


def upward_closure(masks: Iterable[int], n: int) -> int:
    """The 2^n-bit int whose bit S is set iff some member lies inside S.

    The members' own bits are set first; step i then adds i to every set
    that lacks it, one shift-or per position.
    """
    table = 0
    for m in masks:
        table |= 1 << m
    for i, lacking in enumerate(_lacking(n)):
        table |= (table & lacking) << (1 << i)
    return table


def masks_of_size(n: int, k: int) -> Iterator[int]:
    """The k-subsets of positions 0..n-1 as masks, in (size, sorted elements) order."""
    for c in combinations(range(n), k):
        yield sum(1 << i for i in c)


def elements_of(mask: int, order: tuple[int, ...]) -> frozenset:
    """The elements of `order` at the positions set in `mask`."""
    found = []
    while mask:
        low = mask & -mask
        found.append(order[low.bit_length() - 1])
        mask ^= low
    return frozenset(found)


def down_closure(members: Iterable[int]) -> set[int]:
    """Every set inside some member of a family of masks.

    Each set of the closure is expanded once, level by level from the largest
    members down.
    """
    by_size: dict[int, set[int]] = {}
    for b in members:
        by_size.setdefault(b.bit_count(), set()).add(b)
    closure: set[int] = set()
    level: set[int] = set()
    for size in range(max(by_size, default=-1), -1, -1):
        level |= by_size.get(size, set())
        closure |= level
        below: set[int] = set()
        for s in level:
            rest = s
            while rest:
                bit = rest & -rest
                rest ^= bit
                below.add(s ^ bit)
        level = below
    return closure


@dataclass(frozen=True)
class Verdict:
    """Outcome of an axiom or condition check; violations carry a replayable witness."""

    ok: bool
    tag: str | None = None
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> "Verdict":
        return cls(True)

    @classmethod
    def violation(cls, tag: str, *witness) -> "Verdict":
        return cls(False, tag, tuple(witness))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        parts = ", ".join(fmt(w) for w in self.witness)
        return f"violation({self.tag}{'; ' + parts if parts else ''})"


def fmt(value) -> str:
    """Compact human-readable rendering for witnesses and reports; templates print as directives."""
    if isinstance(value, frozenset):
        return "{" + ",".join(str(v) for v in sorted(value)) + "}"
    if isinstance(value, (set, tuple, list)):
        return "(" + ",".join(fmt(v) for v in value) + ")"
    directive = getattr(value, "directive", None)
    return directive() if directive else str(value)


class FiniteMatroid:
    """Finite matroid with an exact rank oracle.

    Subclasses implement `_rank_of` on a bitmask over the sorted ground set
    (bit i is the i-th smallest element); everything else (independence,
    relative rank, span, enumeration) is derived.  Instances are
    immutable after construction and every operation is a pure function of
    its inputs.
    """

    kind = "abstract"

    def __init__(self, ground: Iterable[int], name: str = "m"):
        g = frozenset(int(e) for e in ground)
        if any(e < 0 for e in g):
            raise SpecError("element ids are natural numbers")
        self.ground = g
        self.name = name
        self._order: tuple[int, ...] = tuple(sorted(g))
        self._pos = {e: i for i, e in enumerate(self._order)}
        self._rank_cache: dict[int, int] = {}
        self._span_cache: dict[int, int] = {}
        self._indep_masks: tuple[int, ...] | None = None
        self._base_masks: frozenset[int] | None = None

    # -- backend hook ------------------------------------------------------

    def _rank_of(self, mask: int) -> int:
        raise NotImplementedError

    # -- bitmask helpers -----------------------------------------------------

    def mask_of(self, xs: Iterable[int]) -> int:
        m = 0
        for e in xs:
            m |= 1 << self._pos[e]
        return m

    def set_of(self, mask: int) -> frozenset:
        return elements_of(mask, self._order)

    def rank_mask(self, mask: int) -> int:
        cached = self._rank_cache.get(mask)
        if cached is None:
            cached = self._rank_of(mask)
            self._rank_cache[mask] = cached
        return cached

    def independent_mask(self, mask: int) -> bool:
        return self.rank_mask(mask) == mask.bit_count()

    def span_mask(self, mask: int) -> int:
        """Bitmask of all elements spanned by the given set."""
        cached = self._span_cache.get(mask)
        if cached is None:
            r = self.rank_mask(mask)
            cached = 0
            for i in range(len(self._order)):
                bit = 1 << i
                if mask & bit or self.rank_mask(mask | bit) == r:
                    cached |= bit
            self._span_cache[mask] = cached
        return cached

    # -- validation ---------------------------------------------------------

    def _subset(self, xs: Iterable[int], what: str = "argument") -> frozenset:
        s = xs if type(xs) is frozenset else frozenset(int(e) for e in xs)
        if not s <= self.ground:
            raise GroundError(f"{what} {fmt(s - self.ground)} lies outside the ground set")
        return s

    def _subset_mask(self, xs: Iterable[int], what: str = "argument") -> int:
        """`mask_of(_subset(xs, what))` in one lookup pass; a miss goes through
        `_subset`, which coerces ids such as "1" or raises its GroundError."""
        if type(xs) is not frozenset and iter(xs) is xs:
            xs = tuple(xs)  # a one-shot iterator is read once
        m, pos = 0, self._pos
        try:
            for e in xs:
                m |= 1 << pos[e]
        except (KeyError, TypeError):
            return self.mask_of(self._subset(xs, what))
        return m

    # -- core queries ----------------------------------------------------------

    def rank(self, xs: Iterable[int]) -> int:
        return self.rank_mask(self._subset_mask(xs))

    def is_independent(self, xs: Iterable[int]) -> bool:
        return self.independent_mask(self._subset_mask(xs))

    def relative_rank(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Rank of X over Y: the rank of X - Y once Y is contracted.

        Computed as r(X|Y) = r(X+Y) - r(Y).
        """
        x = self._subset_mask(xs, "first argument")
        y = self._subset_mask(ys, "second argument")
        return self.rank_mask(x | y) - self.rank_mask(y)

    @property
    def full_rank(self) -> int:
        return self.rank_mask((1 << len(self._order)) - 1)

    # -- enumeration ---------------------------------------------------------

    def independent_masks(self) -> tuple[int, ...]:
        """All independent sets as masks, in (size, sorted elements) order.  Bound-guarded.

        Each level grows from the one below by adding a position above the
        set's highest, which keeps every level in sorted-elements order.
        """
        if self._indep_masks is None:
            check_bound("independent-set enumeration", len(self.ground), ENUMERATION_MAX_GROUND)
            n = len(self._order)
            found, level = [0], [0]
            while level:
                level = [s | 1 << i for s in level for i in range(s.bit_length(), n)
                         if self.independent_mask(s | 1 << i)]
                found += level
            self._indep_masks = tuple(found)
        return self._indep_masks

    def independent_sets(self) -> tuple[frozenset, ...]:
        """All independent sets, sorted by (size, elements).  Bound-guarded."""
        return tuple(map(self.set_of, self.independent_masks()))

    def base_masks(self) -> frozenset[int]:
        """All bases as masks.  Bound-guarded: the bound is checked before the rank."""
        if self._base_masks is None:
            check_bound("base enumeration", len(self.ground), ENUMERATION_MAX_GROUND)
            self._base_masks = frozenset(m for m in masks_of_size(len(self._order), self.full_rank)
                                         if self.independent_mask(m))
        return self._base_masks

    def bases(self) -> tuple[frozenset, ...]:
        """All bases, sorted by (size, elements).  Bound-guarded."""
        return tuple(sorted(map(self.set_of, self.base_masks()), key=size_order))

    def bases_set(self) -> frozenset:
        return frozenset(self.bases())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} on {fmt(self.ground)}>"


class UniformMatroid(FiniteMatroid):
    kind = "uniform"

    def __init__(self, k: int, n: int, name: str | None = None):
        if not 0 <= k <= n:
            raise SpecError(f"uniform matroid needs 0 <= k <= n, got k={k}, n={n}")
        if n > UNIFORM_MAX_GROUND:
            raise BoundError(f"uniform matroid limited to {UNIFORM_MAX_GROUND} elements, got {n}")
        super().__init__(range(1, n + 1), name or f"u{k}{n}")
        self.k = k
        self.n = n

    def _rank_of(self, mask: int) -> int:
        return min(self.k, mask.bit_count())

    def independent_mask(self, mask: int) -> bool:
        return mask.bit_count() <= self.k


class GraphicMatroid(FiniteMatroid):
    """Cycle matroid of a multigraph; element i is the i-th edge (1-based).

    `edges` keeps the vertex names as given (strings).  The rank oracle reads
    `_ends` instead: each edge as a pair of vertex ids 0..V-1, numbered in
    order of first appearance, so a rank query is union-find over a list.
    """

    kind = "graphic"

    def __init__(self, edges: Iterable[tuple], name: str = "g"):
        edge_list = tuple((str(u), str(v)) for u, v in edges)
        super().__init__(range(1, len(edge_list) + 1), name)
        self.edges = edge_list
        ids: dict[str, int] = {}
        self._ends = tuple((ids.setdefault(u, len(ids)), ids.setdefault(v, len(ids)))
                           for u, v in edge_list)
        self._vertices = len(ids)

    def _rank_of(self, mask: int) -> int:
        parent = list(range(self._vertices))
        ends = self._ends
        rank = 0
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = ends[low.bit_length() - 1]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                rank += 1
        return rank


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def check_prime(prime: int) -> None:
    """Refuse a field size for `LinearMatroid`: one past its bound or not prime."""
    if prime > LINEAR_MAX_PRIME:
        raise BoundError(f"linear matroid prime limited to {LINEAR_MAX_PRIME}, got {prime}")
    if not _is_prime(prime):
        raise SpecError(f"{prime} is not prime")


class LinearMatroid(FiniteMatroid):
    """Column matroid of a matrix over GF(p); element j is column j (1-based).

    `rows` keeps the matrix as given, reduced mod p.  The rank oracle reads
    `_columns`, stored once: over GF(2) each column is an int whose bit i is
    its entry in row i, otherwise a tuple of its entries.  `_checked` skips
    `check_prime` for an internal caller that has already run it.
    """

    kind = "linear"

    def __init__(self, prime: int, rows: Iterable[Iterable[int]], name: str = "l",
                 _checked: bool = False):
        if not _checked:
            check_prime(prime)
        mat = tuple(tuple(int(v) % prime for v in row) for row in rows)
        if not mat or not mat[0]:
            raise SpecError("matrix must have at least one row and one column")
        width = len(mat[0])
        if any(len(row) != width for row in mat):
            raise SpecError("matrix rows must have equal length")
        super().__init__(range(1, width + 1), name)
        self.prime = prime
        self.rows = mat
        columns = tuple(zip(*mat))
        if prime == 2:
            columns = tuple(sum(v << i for i, v in enumerate(col)) for col in columns)
        self._columns = columns

    def _rank_of(self, mask: int) -> int:
        """Rank of the selected columns, eliminated one at a time.

        GF(2): `min(v, v ^ b)` clears the leading bit of each kept vector b
        from v, and later kept vectors lack it too, so the reduced column
        lacks every kept leading bit; it is 0 iff it lies in their span.
        GF(p): a kept row is 1 at its pivot (its first non-zero entry) and 0
        at every earlier pivot; subtracting v[c] * row zeroes v at pivot c, so
        the reduced column is 0 at every pivot and is 0 iff it lies in the
        span.  The loop stops once the rank reaches the number of rows.
        """
        p, columns, height = self.prime, self._columns, len(self.rows)
        kept: list = []
        while mask and len(kept) < height:
            low = mask & -mask
            mask ^= low
            v = columns[low.bit_length() - 1]
            if p == 2:
                for b in kept:
                    v = min(v, v ^ b)
                if v:
                    kept.append(v)
            else:
                for c, row in kept:
                    f = v[c]
                    if f:
                        v = [(a - f * b) % p for a, b in zip(v, row)]
                for c, a in enumerate(v):
                    if a:
                        inv = pow(a, p - 2, p)
                        kept.append((c, [x * inv % p for x in v]))
                        break
        return len(kept)


class ExplicitMatroid(FiniteMatroid):
    """Matroid given by its base list, stored once as the distinct base masks
    that `base_masks` returns with no bound.

    Quarantined: unless `_checked` is set by an internal caller that has
    already certified the family, construction runs the literal base-axiom
    check and refuses violators.
    """

    kind = "explicit"

    def __init__(self, ground: Iterable[int], bases: Iterable[Iterable[int]],
                 name: str = "m", _checked: bool = False):
        super().__init__(ground, name)
        self._base_masks = frozenset(self._subset_mask(b, "base") for b in bases)
        if not self._base_masks:
            raise SpecError("an explicit matroid needs at least one base")
        if not _checked:
            n = len(self._order)
            check_bound("axiom check", n, AXIOM_CHECK_MAX_GROUND)
            verdict = check_base_masks(self._order, size_sorted(self._base_masks, n))
            if not verdict:
                raise SpecError(f"base family rejected: {verdict}")

    def _rank_of(self, mask: int) -> int:
        return max((mask & b).bit_count() for b in self._base_masks)

    @cached_property
    def _independent(self) -> set[int]:
        """Masks of the independent sets: the downward closure of the bases."""
        return down_closure(self._base_masks)

    def independent_mask(self, mask: int) -> bool:
        return mask in self._independent


class OracleMatroid(FiniteMatroid):
    """Matroid backed by an arbitrary exact rank function (trusted caller)."""

    kind = "oracle"

    def __init__(self, ground: Iterable[int], rank_fn: Callable[[frozenset], int], name: str = "o"):
        super().__init__(ground, name)
        self._fn = rank_fn

    def _rank_of(self, mask: int) -> int:
        return self._fn(self.set_of(mask))


def check_base_axioms(ground: Iterable[int], family: Iterable[Iterable[int]]) -> Verdict:
    """Literal check of the base axioms for a finite set family.

    Normalises the ground and the members, refuses a ground past the declared
    bound and a member outside the ground (the first such in size order),
    and runs `check_base_masks` on the members as masks over the sorted
    ground.  There B1 is non-emptiness and B2 one bit test per (member,
    element) on the family's upward-closure table; BM holds for every
    non-empty family on a finite ground.  Its docstring proves B2 exact and
    BM a theorem.
    """
    order = tuple(sorted({int(e) for e in ground}))
    check_bound("axiom check", len(order), AXIOM_CHECK_MAX_GROUND)
    bit_of = {e: 1 << i for i, e in enumerate(order)}
    masks, outside = [], []
    for b in family:
        m = 0
        for e in b:
            # int(e) only for an element that is not already an int of the ground
            bit = bit_of.get(e) or bit_of.get(int(e))
            if bit is None:
                outside.append(b)
                break
            m |= bit
        else:
            masks.append(m)
    if outside:
        b = min((frozenset(int(e) for e in b) for b in outside), key=size_order)
        raise GroundError(f"family member {fmt(b)} lies outside the ground set")
    return check_base_masks(order, size_sorted(masks, len(order)))


def check_base_masks(order: tuple[int, ...], masks: list[int]) -> Verdict:
    """The base axioms on distinct member masks over `order`, sorted by `size_keys`.

    Verifies non-emptiness (B1) and the pairwise exchange axiom (B2).
    Violations carry a witness that replays the failure.  Members are visited
    in (size, sorted elements) order, so the first violation found is the
    same whatever the input order.

    The maximality axiom (BM: for every subset X, the maximal traces X & B
    are cofinal among all traces) holds for every non-empty family on a
    finite ground, so it is never reported.  Given a trace t of X, the traces
    of X that contain t form a finite set holding t; a largest one, u, is
    maximal, since a trace above u would also contain t and be larger.

    B2 is decided by one bit test per (member, element) on the upward-closure
    table T of the family (`upward_closure`).  For x in B0, let Y be the
    elements y outside B0 with B0 - x + y a member.  A member B1 breaks
    exchange at x iff x is not in B1 and B1 - B0 misses Y, i.e. iff B1 lies
    inside S = ground - x - Y; some member does iff bit S of T is set.  The
    set x + Y is exactly `up[B0 - x]`, the elements y with B0 - x + y a
    member (x is one, as B0 is a member).  On the first member B0 with a
    hit, the pairwise scan runs for B0 alone and names the same (B0, B1, x)
    as a scan over all pairs would.
    """
    if not masks:
        return Verdict.violation("B1")
    n = len(order)
    full = (1 << n) - 1

    # up[d] holds every y with d + y a member
    up: dict[int, int] = {}
    for b in masks:
        rest = b
        while rest:
            bit = rest & -rest
            rest ^= bit
            up[b ^ bit] = up.get(b ^ bit, 0) | bit
    table = upward_closure(masks, n)
    for m0 in masks:
        rest = m0
        while rest:
            x = rest & -rest
            rest ^= x
            if table >> (full & ~up[m0 ^ x]) & 1:
                break
        else:
            continue
        for m1 in masks:
            only_b1 = m1 & ~m0
            missing = m0 & ~m1
            while missing:
                x = missing & -missing
                missing ^= x
                if not up[m0 ^ x] & only_b1:
                    return Verdict.violation("B2", elements_of(m0, order),
                                             elements_of(m1, order), order[x.bit_length() - 1])

    return Verdict.passed()
