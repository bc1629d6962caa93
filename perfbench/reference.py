"""Reference answers for the benchmark, computed without matroid_forge.

Nothing here imports the package under test.  The routines are written from
the definitions: rank of a finite set for the three finite backends the
workloads use, independent sets grouped into size levels, eventually periodic
subsets of the naturals with counting over one period window, the balance
arithmetic of strong equivalence on the free matroid, and the blockwise rank
of a periodic direct sum.  Infinite sizes and ranks are ``INF``.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, inf

INF = inf


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# -- finite rank routines ---------------------------------------------------


def uniform_rank(k: int, subset) -> int:
    return min(k, len(subset))


def graphic_rank(edges, subset) -> int:
    """Rank of the edges `subset` (1-based ids into `edges`): edges in a spanning forest."""
    leader: dict = {}

    def root(v):
        while leader.get(v, v) != v:
            v = leader[v]
        return v

    rank = 0
    for e in subset:
        u, v = edges[e - 1]
        ru, rv = root(u), root(v)
        if ru != rv:
            leader[ru] = rv
            rank += 1
    return rank


def gfp_rank(p: int, rows, subset) -> int:
    """Rank over GF(p) of the columns in `subset` (1-based), by forward elimination."""
    basis: dict[int, list[int]] = {}  # leading coordinate -> reduced vector with 1 there
    for c in subset:
        vec = [row[c - 1] % p for row in rows]
        for lead, b in basis.items():
            f = vec[lead]
            if f:
                vec = [(x - f * y) % p for x, y in zip(vec, b)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], p - 2, p)
        vec = [x * inv % p for x in vec]
        for other, b in basis.items():
            f = b[lead]
            if f:
                basis[other] = [(x - f * y) % p for x, y in zip(b, vec)]
        basis[lead] = vec
    return len(basis)


def size_levels(n: int, rank) -> list[list[frozenset]]:
    """Independent sets of a matroid on {1..n}, one list per size, up to the full rank."""
    levels = []
    for size in range(n + 1):
        level = [frozenset(c) for c in combinations(range(1, n + 1), size)
                 if rank(c) == size]
        if not level:
            break
        levels.append(level)
    return levels


# -- eventually periodic sets -------------------------------------------------


class PSet:
    """``{n >= threshold : n % period in residues} | low`` with ``low`` below the threshold."""

    __slots__ = ("period", "residues", "threshold", "low")

    def __init__(self, period=1, residues=(), threshold=0, low=()):
        self.period = period
        self.residues = frozenset(residues)
        self.threshold = threshold
        self.low = frozenset(low)
        if period < 1 or any(not 0 <= r < period for r in self.residues):
            raise ValueError("residues must lie in [0, period)")
        if any(not 0 <= x < threshold for x in self.low):
            raise ValueError("low part must lie in [0, threshold)")

    @classmethod
    def finite(cls, values) -> "PSet":
        vals = frozenset(values)
        return cls(1, (), max(vals) + 1 if vals else 0, vals)

    def __contains__(self, n: int) -> bool:
        if n < self.threshold:
            return n in self.low
        return n % self.period in self.residues

    @property
    def infinite(self) -> bool:
        return bool(self.residues)

    def without(self, values) -> "PSet":
        drop = frozenset(values)
        top = max([self.threshold, *(v + 1 for v in drop)])
        return PSet(self.period, self.residues, top,
                    [n for n in range(top) if n in self and n not in drop])

    def members_below(self, stop: int) -> list[int]:
        return [n for n in range(stop) if n in self]

    def directive(self) -> str:
        """Set-spec text for the program's file formats."""
        if not self.infinite:
            return "set " + " ".join(str(n) for n in sorted(self.low))
        text = (f"template d={self.period} res={','.join(map(str, sorted(self.residues)))}"
                f" t={self.threshold}")
        if self.low:
            text += " low=" + ",".join(str(n) for n in sorted(self.low))
        return text


ALL = PSet(1, (0,))
EMPTY = PSet()


def window(*sets: PSet) -> tuple[int, int]:
    """(threshold, period) beyond which every membership pattern repeats."""
    top, period = 0, 1
    for s in sets:
        top = max(top, s.threshold)
        period = lcm(period, s.period)
    return top, period


def measure(pred, *sets: PSet):
    """Size of ``{n : pred(n in s for s in sets)}``; INF when it has a member past the window."""
    top, period = window(*sets)
    if any(pred(*(n in s for s in sets)) for n in range(top, top + period)):
        return INF
    return sum(1 for n in range(top) if pred(*(n in s for s in sets)))


def same_set(a: PSet, b: PSet) -> bool:
    return measure(lambda x, y: x != y, a, b) == 0


def parse_setspec(text: str) -> PSet:
    """Parse one set-spec line (`set`, `template`, `evens`, `odds`, `all`, `mult`)."""
    words = text.split()
    head, rest = words[0], words[1:]
    if head == "set":
        return PSet.finite(int(w) for w in rest)
    if head == "evens":
        return PSet(2, (0,))
    if head == "odds":
        return PSet(2, (1,))
    if head == "all":
        return ALL
    if head == "mult":
        k = int(rest[0])
        return PSet(k, (int(rest[1]) % k if len(rest) > 1 else 0,))
    if head != "template":
        raise ValueError(f"unknown set spec {text!r}")
    fields = dict(w.split("=", 1) for w in rest)

    def ints(key):
        raw = fields.get(key, "")
        return [int(v) for v in raw.split(",")] if raw else []

    base = PSet(int(fields.get("d", "1")), ints("res"), int(fields.get("t", "0")), ints("low"))
    return base.without(ints("minus")) if "minus" in fields else base


# -- the free matroid: balance arithmetic -----------------------------------------


def difference_size(a: PSet, b: PSet):
    """|a - b|, or INF when the difference of the two templates is infinite."""
    return measure(lambda x, y: x and not y, a, b)


def free_almost_spans(spanned: PSet, spanner: PSet) -> bool:
    return difference_size(spanned, spanner) != INF


def free_strongly_equivalent(a: PSet, b: PSet) -> bool:
    ab, ba = difference_size(a, b), difference_size(b, a)
    return ab != INF and ab == ba


def free_class_label(c: PSet) -> str:
    if not c.infinite:
        return f"finite({len(c.low)})"
    left = difference_size(ALL, c)
    return "wild-candidate" if left == INF else f"cofinite({left})"


def free_triggered(rep: PSet, lower: PSet) -> bool:
    """Whether the class of `rep` has a member containing `lower`."""
    add = difference_size(lower, rep)
    return add != INF and difference_size(rep, lower) >= add


def free_settled(rep: PSet, lower: PSet, upper: PSet) -> bool:
    """Whether the class of `rep` has a member B with lower <= B <= upper, or B >= upper."""
    add = difference_size(lower, rep)
    out = difference_size(rep, upper)
    if add != INF and out != INF:
        if add >= out:
            spare = measure(lambda r, lo, up: r and up and not lo, rep, lower, upper)
            if spare >= add - out:
                return True
        else:
            room = measure(lambda r, lo, up: up and not r and not lo, rep, lower, upper)
            if room >= out - add:
                return True
    return free_triggered(rep, upper)


def free_family_verdict(reps, tasks) -> str:
    """Expected verdict of `gentrunc verify-finitary` on the free matroid.

    `violation(3` for an almost-spanning pair of representatives, otherwise
    `unmet tasks: k` or `ok`; a task is unmet when some class has a member
    containing its lower set and no class settles it.
    """
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            if free_strongly_equivalent(a, b):
                raise ValueError("representatives name the same class")
            if free_almost_spans(a, b) or free_almost_spans(b, a):
                return "violation(3"
    unmet = sum(
        1 for lower, upper in tasks
        if any(free_triggered(r, lower) for r in reps)
        and not any(free_settled(r, lower, upper) for r in reps)
    )
    return f"unmet tasks: {unmet}" if unmet else "ok"


# -- seed families ------------------------------------------------------------------


def seed_representatives(block: int, basis: list[int], prefix: str) -> list[PSet]:
    """Images of the seed index sets under the ascending enumeration of the canonical base.

    The canonical base takes the positions `basis` (ascending) in every block
    of `block` elements; position i of the prefix picks the index class
    2^i mod 2^(i+1) for '1' and 2^i mod 2^(i+2) for '0'.
    """
    r = len(basis)
    reps = []
    for i, ch in enumerate(prefix):
        modulus = 1 << (i + 1 if ch == "1" else i + 2)
        cycle = lcm(modulus, r)
        period = cycle // r * block
        image = {(m // r) * block + basis[m % r] for m in range(1 << i, cycle, modulus)}
        reps.append(PSet(period, image, 0))
    return reps


# -- periodic direct sums: blockwise rank ----------------------------------------------


class BlockSum:
    """Direct sum of one finite component repeated over blocks of `block` naturals.

    Element n sits in block n // block at position n % block; `component_rank`
    takes a set of positions.
    """

    def __init__(self, block: int, component_rank):
        self.block = block
        self.component_rank = component_rank

    def pattern(self, s: PSet, c: int) -> frozenset:
        base = c * self.block
        return frozenset(p for p in range(self.block) if base + p in s)

    def blocks(self, *sets: PSet) -> tuple[int, int]:
        """(head blocks, cycle blocks): patterns on block c >= head repeat with the cycle."""
        top, _ = window(*sets)
        cycle = 1
        for s in sets:
            cycle = lcm(cycle, s.period // gcd(s.period, self.block))
        return -(-top // self.block), cycle

    def gain(self, x: PSet, y: PSet, c: int) -> int:
        xp, yp = self.pattern(x, c), self.pattern(y, c)
        return self.component_rank(xp | yp) - self.component_rank(yp)

    def relative_rank(self, x: PSet, y: PSet):
        head, cycle = self.blocks(x, y)
        if any(self.gain(x, y, c) for c in range(head, head + cycle)):
            return INF
        return sum(self.gain(x, y, c) for c in range(head))

    def greedy_part(self, x: PSet) -> PSet:
        """Ascending-greedy maximal independent subset of x, block by block."""
        head, cycle = self.blocks(x)

        def choose(c: int) -> list[int]:
            kept: list[int] = []
            for p in sorted(self.pattern(x, c)):
                if self.component_rank(frozenset(kept + [p])) == len(kept) + 1:
                    kept.append(p)
            return [c * self.block + p for p in kept]

        period = cycle * self.block
        low = [n for c in range(head) for n in choose(c)]
        residues = {n % period for c in range(head, head + cycle) for n in choose(c)}
        return PSet(period, residues, head * self.block, low)

    def strongly_equivalent(self, a: PSet, b: PSet) -> bool:
        ab, ba = self.relative_rank(a, b), self.relative_rank(b, a)
        return ab != INF and ab == ba

    def class_label(self, c: PSet) -> str:
        if not c.infinite:
            return f"finite({len(c.low)})"
        left = self.relative_rank(ALL, c)
        return "wild-candidate" if left == INF else f"cofinite({left})"
