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

from .core import FiniteMatroid, OracleMatroid
from .errors import DependenceError, SchemaError, SpecError
from .templates import _PERIOD_LIMIT, TemplateSet

INFINITE = inf

# safety caps for searches whose success is guaranteed by matroid theory
_HEAD_LIMIT = 100_000
_EXCHANGE_SCAN_LIMIT = 100_000
# blocks per run when `_blocks` slices a template's mask
_RUN = 256


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
    """Direct sum of one finite component matroid repeated over blocks of ℕ.

    Position p of a block (element c * block + p) is bit p of a component mask.
    """

    kind = "periodic-sum"

    def __init__(self, component: FiniteMatroid):
        if not component.ground:
            raise SpecError("component matroid needs a non-empty ground set")
        if component.full_rank < 1:
            raise SpecError("component matroid must have rank at least one")
        self.component = component
        self.block = len(component.ground)

    def __repr__(self) -> str:
        return f"<PeriodicSumMatroid of {self.component!r}>"

    # block decomposition -----------------------------------------------------

    def _blocks(self, template: TemplateSet, count: int) -> list[int]:
        """Component masks of the template's blocks 0..count-1."""
        block, full = self.block, (1 << self.block) - 1
        whole = template.mask_below(count * block)
        # cut the mask into runs of _RUN blocks first, so each per-block shift
        # reads a short run, not the whole mask of a long window
        masks = []
        for start in range(0, count, _RUN):
            run = whole >> start * block & ((1 << _RUN * block) - 1)
            masks += [run >> c * block & full for c in range(min(_RUN, count - start))]
        return masks

    def _window(self, *templates: TemplateSet) -> tuple[int, int]:
        """(head length, tail cycle) so block patterns repeat beyond the head."""
        top = max(t.threshold for t in templates)
        head = -(-top // self.block)
        if head > _HEAD_LIMIT:
            raise SpecError("template threshold too large for block analysis")
        cycle = 1
        for t in templates:
            cycle = lcm(cycle, t.period // gcd(t.period, self.block))
        if cycle > _PERIOD_LIMIT:
            raise SpecError("combined template period too large for block analysis")
        return head, cycle

    def _extend(self, chosen: int, pool: int, size: int, over: int = 0) -> int:
        """Greedy: add positions of pool in ascending order while chosen stays
        independent over `over`, until it has `size` elements."""
        rank = self.component.rank_mask
        base = rank(over)
        for p in range(self.block):
            bit = 1 << p
            count = chosen.bit_count()
            if pool & bit and count < size and rank(chosen | bit | over) == base + count + 1:
                chosen |= bit
        return chosen

    def _template(self, masks: list[int], start: int, cycle: int) -> TemplateSet:
        """Template with block c < start given by masks[c], then masks[start:] repeating."""
        members = [c * self.block + p for c, mask in enumerate(masks)
                   for p in range(self.block) if mask >> p & 1]
        cut, period = start * self.block, cycle * self.block
        residues = {n % period for n in members if n >= cut}
        return TemplateSet(period, residues, cut, [n for n in members if n < cut])

    # finite sets -----------------------------------------------------------

    def finite_rank(self, xs: Iterable[int]) -> int:
        blocks: dict[int, int] = {}
        for e in frozenset(int(v) for v in xs):
            if e < 0:
                raise SpecError("element ids are natural numbers")
            c, p = divmod(e, self.block)
            blocks[c] = blocks.get(c, 0) | 1 << p
        return sum(map(self.component.rank_mask, blocks.values()))

    # templates -------------------------------------------------------------

    def certify(self, template, over=None) -> bool:
        t = TemplateSet.coerce(template)
        o = TemplateSet.coerce(over) if over is not None else TemplateSet.empty()
        head, cycle = self._window(t, o)
        rank = self.component.rank_mask
        return all(
            rank(tp | op) == (tp & ~op).bit_count() + rank(op)
            for tp, op in zip(self._blocks(t, head + cycle), self._blocks(o, head + cycle))
        )

    def relative_rank(self, xs, ys) -> int | float:
        x = TemplateSet.coerce(xs)
        y = TemplateSet.coerce(ys)
        head, cycle = self._window(x, y)
        rank = self.component.rank_mask
        gains = [
            rank(xp | yp) - rank(yp)
            for xp, yp in zip(self._blocks(x, head + cycle), self._blocks(y, head + cycle))
        ]
        return INFINITE if any(gains[head:]) else sum(gains)

    def max_independent_subtemplate(self, template, over=None) -> TemplateSet:
        t = TemplateSet.coerce(template)
        o = TemplateSet.coerce(over) if over is not None else TemplateSet.empty()
        head, cycle = self._window(t, o)
        blocks = zip(self._blocks(t, head + cycle), self._blocks(o, head + cycle))
        chosen = [self._extend(0, tp, self.block, op) for tp, op in blocks]
        return self._template(chosen, head, cycle)

    def class_member(self, rep, lower, upper=None) -> TemplateSet | None:
        # B ~ rep iff all but finitely many blocks B_c span exactly cl(R_c) and
        # the sum of |B_c| - |R_c| is 0: every tail block needs such a spanning
        # choice, and the head plus finitely many deviating tail blocks must balance
        r, lo = TemplateSet.coerce(rep), TemplateSet.coerce(lower)
        up = TemplateSet.coerce(upper) if upper is not None else TemplateSet.full()
        head, cycle = self._window(r, lo, up)
        comp = self.component
        parts = list(zip(*(self._blocks(t, head + cycle) for t in (lo, up, r))))

        def grow(lp: int, pool: int, rp: int, size: int) -> int:
            # independent extension of lp inside pool up to `size`, rep's elements first
            return self._extend(self._extend(lp, pool & rp, size), pool, size)

        ranges = []  # bounds on |B_c| - |R_c| over independent L_c <= B_c <= U_c
        for lp, upp, rp in parts:
            if lp & ~upp or not comp.independent_mask(lp):
                return None
            ranges.append((lp.bit_count() - rp.bit_count(), comp.rank_mask(upp) - rp.bit_count()))
        spanning = []  # per tail block: L_c <= B_c <= U_c spanning exactly cl(R_c)
        for lp, upp, rp in parts[head:]:
            span = comp.span_mask(rp)
            chosen = grow(lp, upp & span, rp, rp.bit_count())
            if chosen.bit_count() != rp.bit_count() or chosen & ~span:
                return None
            spanning.append(chosen)
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

        # past the head, block c repeats block head + (c - head) % cycle, since
        # cycle * block is a multiple of every template's period
        masks = []
        for c, shift in enumerate(shifts):
            lp, upp, rp = parts[min(c, head + (c - head) % cycle)]
            masks.append(grow(lp, upp, rp, rp.bit_count() + shift))
        start = len(shifts)
        masks += [spanning[(c - head) % cycle] for c in range(start, start + cycle)]
        return self._template(masks, start, cycle)

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
