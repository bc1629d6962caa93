"""Countable finitary matroid schemas with exact template-level reasoning.

Two schemas are supported: the free matroid on the naturals and a periodic
direct sum that tiles one finite component matroid over consecutive blocks
(element n sits in block n // |E|, at the position given by n % |E|).  Both
make independence of finite sets, independence of templates (even relative to
a contracted template), relative ranks of templates, and greedy maximal
independent subtemplates decidable by reducing everything to finitely many
block patterns: outside an explicit head window, the pattern of a template on
block c depends only on c modulo a computable cycle length.
"""

from __future__ import annotations

from math import gcd, inf, lcm
from typing import Iterable

from .core import FiniteMatroid, OracleMatroid, max_independent_extension
from .errors import DependenceError, SchemaError, SpecError
from .templates import TemplateSet

INFINITE = inf

# safety caps for searches whose success is guaranteed by matroid theory
_HEAD_LIMIT = 100_000
_EXCHANGE_SCAN_LIMIT = 100_000


class FinitaryMatroid:
    """Countable matroid of infinite rank with decidable template reasoning."""

    kind = "abstract"

    # finite sets -----------------------------------------------------------

    def finite_rank(self, xs: Iterable[int]) -> int:
        raise NotImplementedError

    def is_finite_independent(self, xs: Iterable[int]) -> bool:
        s = frozenset(int(e) for e in xs)
        if any(e < 0 for e in s):
            raise SpecError("element ids are natural numbers")
        return self.finite_rank(s) == len(s)

    # templates -------------------------------------------------------------

    def certify(self, template, over=None) -> bool:
        """True iff the template (minus `over`) is independent once `over` is contracted."""
        raise NotImplementedError

    def relative_rank(self, xs, ys) -> int | float:
        """Exact relative rank of X over Y; INFINITE when unbounded."""
        raise NotImplementedError

    def max_independent_subtemplate(self, template, over=None) -> TemplateSet:
        """Greedy (ascending-id) maximal subset independent over `over`, as a template."""
        raise NotImplementedError

    def class_member(self, rep, lower, upper=None) -> TemplateSet | None:
        """A member B of rep's strong-equivalence class with lower <= B <= upper, or None.

        `rep` must be independent; `upper=None` means no upper bound.  The
        answer is exact: None means no such member exists.  When rep itself
        qualifies, rep is returned.
        """
        raise NotImplementedError

    def canonical_base(self) -> TemplateSet:
        raise NotImplementedError

    def restrict(self, size: int) -> FiniteMatroid:
        """Finite restriction to ground {0, ..., size-1}."""
        return OracleMatroid(range(size), self.finite_rank, name=f"{self.kind}[0:{size})")

    def require_independent(self, carrier) -> TemplateSet:
        t = TemplateSet.coerce(carrier)
        if not self.certify(t):
            raise DependenceError(f"{t!r} is not independent in this schema")
        return t

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class FreeMatroid(FinitaryMatroid):
    """Free matroid on the naturals: every set is independent."""

    kind = "free"

    def finite_rank(self, xs: Iterable[int]) -> int:
        return len(frozenset(xs))

    def certify(self, template, over=None) -> bool:
        TemplateSet.coerce(template)
        return True

    def relative_rank(self, xs, ys) -> int | float:
        diff = TemplateSet.coerce(xs) - TemplateSet.coerce(ys)
        size = diff.size()
        return INFINITE if size is None else size

    def max_independent_subtemplate(self, template, over=None) -> TemplateSet:
        t = TemplateSet.coerce(template)
        return t - TemplateSet.coerce(over) if over is not None else t

    def class_member(self, rep, lower, upper=None) -> TemplateSet | None:
        # B ~ rep iff |B - rep| = |rep - B| is finite; start from the member
        # closest to rep and balance it with the smallest free ids
        r, lo = TemplateSet.coerce(rep), TemplateSet.coerce(lower)
        up = TemplateSet.coerce(upper) if upper is not None else TemplateSet.full()
        if not lo.issubset(up):
            return None
        member = (r & up) | lo
        gained, lost = (lo - r).size(), (r - up).size()
        if gained is None or lost is None:
            return None
        pool = member - lo if gained > lost else up - member
        count, size = abs(gained - lost), pool.size()
        if size is not None and size < count:
            return None
        patch = TemplateSet.from_finite(pool.first(count))
        return member - patch if gained > lost else member | patch

    def canonical_base(self) -> TemplateSet:
        return TemplateSet.full()


class PeriodicSumMatroid(FinitaryMatroid):
    """Direct sum of one finite component matroid repeated over blocks of ℕ."""

    kind = "periodic-sum"

    def __init__(self, component: FiniteMatroid):
        if not component.ground:
            raise SpecError("component matroid needs a non-empty ground set")
        if component.full_rank < 1:
            raise SpecError("component matroid must have rank at least one")
        self.component = component
        self._elems = component._order
        self.block = len(self._elems)
        self._pos = {e: i for i, e in enumerate(self._elems)}

    def __repr__(self) -> str:
        return f"<PeriodicSumMatroid of {self.component!r}>"

    # block decomposition -----------------------------------------------------

    def _pattern(self, template: TemplateSet, c: int) -> frozenset:
        base = c * self.block
        return frozenset(
            self._elems[p] for p in range(self.block) if (base + p) in template
        )

    def _cycle(self, template: TemplateSet) -> int:
        return template.period // gcd(template.period, self.block)

    def _window(self, *templates: TemplateSet) -> tuple[int, int]:
        """(head length, tail cycle) so block patterns repeat beyond the head."""
        top = max(t.threshold for t in templates)
        head = -(-top // self.block)
        if head > _HEAD_LIMIT:
            raise SpecError("template threshold too large for block analysis")
        cycle = 1
        for t in templates:
            cycle = lcm(cycle, self._cycle(t))
        return head, cycle

    # finite sets -----------------------------------------------------------

    def finite_rank(self, xs: Iterable[int]) -> int:
        groups: dict[int, set[int]] = {}
        for e in frozenset(int(v) for v in xs):
            if e < 0:
                raise SpecError("element ids are natural numbers")
            groups.setdefault(e // self.block, set()).add(self._elems[e % self.block])
        return sum(self.component.rank(g) for g in groups.values())

    # templates -------------------------------------------------------------

    def certify(self, template, over=None) -> bool:
        t = TemplateSet.coerce(template)
        o = TemplateSet.coerce(over) if over is not None else TemplateSet.empty()
        head, cycle = self._window(t, o)

        def block_ok(c: int) -> bool:
            tp = self._pattern(t, c) - self._pattern(o, c)
            op = self._pattern(o, c)
            return self.component.rank(tp | op) == len(tp) + self.component.rank(op)

        return all(block_ok(c) for c in range(head + cycle))

    def relative_rank(self, xs, ys) -> int | float:
        x = TemplateSet.coerce(xs)
        y = TemplateSet.coerce(ys)
        head, cycle = self._window(x, y)

        def gain(c: int) -> int:
            xp = self._pattern(x, c)
            yp = self._pattern(y, c)
            return self.component.rank(xp | yp) - self.component.rank(yp)

        if any(gain(c) for c in range(head, head + cycle)):
            return INFINITE
        return sum(gain(c) for c in range(head))

    def max_independent_subtemplate(self, template, over=None) -> TemplateSet:
        t = TemplateSet.coerce(template)
        o = TemplateSet.coerce(over) if over is not None else TemplateSet.empty()
        head, cycle = self._window(t, o)

        def choose(c: int) -> list[int]:
            op = self._pattern(o, c)
            contracted = self.component.contract(op) if op else self.component
            pool = self._pattern(t, c) - op
            chosen = max_independent_extension(contracted, (), pool)
            base = c * self.block
            return [base + self._pos[e] for e in sorted(chosen)]

        low: list[int] = []
        for c in range(head):
            low.extend(choose(c))
        period = cycle * self.block
        residues = {n % period for c in range(head, head + cycle) for n in choose(c)}
        return TemplateSet(period, residues, head * self.block, low)

    def class_member(self, rep, lower, upper=None) -> TemplateSet | None:
        # B ~ rep iff all but finitely many blocks B_c span exactly cl(R_c) and
        # the sum of |B_c| - |R_c| is 0: every tail block needs such a spanning
        # choice, and the head plus finitely many deviating tail blocks must balance
        r, lo = TemplateSet.coerce(rep), TemplateSet.coerce(lower)
        up = TemplateSet.coerce(upper) if upper is not None else TemplateSet.full()
        head, cycle = self._window(r, lo, up)
        comp = self.component

        def parts(c: int) -> tuple[frozenset, frozenset, frozenset]:
            return self._pattern(lo, c), self._pattern(up, c), self._pattern(r, c)

        def grow(lp: frozenset, pool: frozenset, rp: frozenset, size: int) -> set:
            # independent extension of lp inside pool up to `size`, rep's elements first
            chosen = set(lp)
            for e in sorted(pool - lp, key=lambda e: (e not in rp, self._pos[e])):
                if len(chosen) < size and comp.is_independent(chosen | {e}):
                    chosen.add(e)
            return chosen

        def spanning(c: int) -> set | None:
            # B_c with L_c <= B_c <= U_c spanning exactly cl(R_c); needs L_c independent
            lp, upp, rp = parts(c)
            span = comp.span_of(rp)
            chosen = grow(lp, upp & span, rp, len(rp))
            return chosen if len(chosen) == len(rp) and chosen <= span else None

        ranges = []  # bounds on |B_c| - |R_c| over independent L_c <= B_c <= U_c
        for lp, upp, rp in map(parts, range(head + cycle)):
            if not (lp <= upp and comp.is_independent(lp)):
                return None
            ranges.append((len(lp) - len(rp), comp.rank(upp) - len(rp)))
        if None in [spanning(c) for c in range(head, head + cycle)]:
            return None
        ranges, tail = ranges[:head], ranges[head:]
        shifts = [min(max(0, a), b) for a, b in ranges]
        excess = sum(shifts)
        i = 0
        while excess:
            if i == len(ranges):
                # finitely many tail blocks may deviate from spanning exactly
                if not any(a if excess > 0 else b for a, b in tail):
                    return None
                ranges += tail
                shifts += [0] * cycle
            a, b = ranges[i]
            step = max(a - shifts[i], min(b - shifts[i], -excess))
            shifts[i] += step
            excess += step
            i += 1

        low: list[int] = []
        for c, shift in enumerate(shifts):
            lp, upp, rp = parts(c)
            low.extend(c * self.block + self._pos[e] for e in grow(lp, upp, rp, len(rp) + shift))
        start = len(shifts)
        period = cycle * self.block
        residues = {
            (c * self.block + self._pos[e]) % period
            for c in range(start, start + cycle)
            for e in spanning(c)
        }
        return TemplateSet(period, residues, start * self.block, low)

    def canonical_base(self) -> TemplateSet:
        return self.max_independent_subtemplate(TemplateSet.full())


def removal_witness(
    matroid: FinitaryMatroid,
    inner,
    outer,
    protected: Iterable[int] = (),
    count: int = 0,
    *,
    over=None,
) -> frozenset:
    """Finite set W in outer - protected whose removal leaves rank(inner | outer - W) >= count.

    `inner` and `outer` must be infinite independent sets; `protected` is a
    finite subset of `outer` the witness must avoid.  When `over` is given all
    independence talk is relative to that contracted template.  The witness is
    built by the exchange route: reuse the overlap when it is infinite,
    otherwise swap elements of inner into outer one at a time, always taking
    the smallest id that keeps independence.  Callers re-verify the
    postcondition with an independent rank computation.
    """
    if count < 0:
        raise SpecError("witness size must be a natural number")
    base = TemplateSet.coerce(over) if over is not None else TemplateSet.empty()
    inner_t = TemplateSet.coerce(inner) - base
    outer_t = TemplateSet.coerce(outer) - base
    shield = frozenset(int(e) for e in protected)
    if any(e not in outer_t for e in shield):
        raise SpecError("protected elements must lie in the outer set")
    for name, t in (("inner", inner_t), ("outer", outer_t)):
        if not t.is_infinite:
            raise SpecError(f"{name} set must be infinite")
        if not matroid.certify(t, over=base):
            raise DependenceError(f"{name} set is not independent")
    if count == 0:
        return frozenset()

    overlap = inner_t & outer_t
    if overlap.is_infinite:
        return frozenset((overlap - TemplateSet.from_finite(shield)).first(count))

    if shield:
        # contract the protected elements and recurse on the reduced instance;
        # the witness it yields avoids them by construction
        grown = base | TemplateSet.from_finite(shield)
        reduced_inner = matroid.max_independent_subtemplate(
            inner_t - TemplateSet.from_finite(shield), over=grown
        )
        reduced_outer = outer_t - TemplateSet.from_finite(shield)
        return removal_witness(matroid, reduced_inner, reduced_outer, (), count, over=grown)

    swaps_in = (inner_t - outer_t).first(count)
    current = outer_t
    picked: list[int] = []
    for e in swaps_in:
        grown = current.patch(add=[e])
        found = None
        pool = (current - inner_t).iter_members()
        for _, f in zip(range(_EXCHANGE_SCAN_LIMIT), pool):
            if matroid.certify(grown.patch(remove=[f]), over=base):
                found = f
                break
        if found is None:
            raise SchemaError("exchange search exhausted; inputs violate the contract")
        current = grown.patch(remove=[found])
        picked.append(found)
    return frozenset(picked)
