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
from .errors import DependenceError, SpecError
from .templates import _LIMIT_ERROR, _PERIOD_LIMIT, TemplateSet

INFINITE = inf

# input bound: the block analysis refuses a head of more blocks than this
_HEAD_LIMIT = 100_000
# blocks per run when `_blocks` slices a template's mask
_RUN = 256


def _join(masks: list[int], width: int) -> int:
    """The `width`-bit masks laid end to end, masks[0] lowest.

    Neighbours are paired level by level, so a long list costs O(n log n)
    bit operations, not the O(n^2) of shifting each mask into one growing int.
    """
    while len(masks) > 1:
        if len(masks) % 2:
            masks = masks + [0]
        masks = [lo | hi << width for lo, hi in zip(masks[::2], masks[1::2])]
        width <<= 1
    return masks[0] if masks else 0


def _natural_ids(xs: Iterable[int]) -> frozenset:
    """The ids of a finite set, refused unless each is a natural number."""
    ids = frozenset(int(v) for v in xs)
    if ids and min(ids) < 0:
        raise SpecError("element ids are natural numbers")
    return ids


class FinitaryMatroid:
    """Countable matroid of infinite rank with decidable template reasoning."""

    kind = "abstract"

    # finite sets -----------------------------------------------------------

    def finite_rank(self, xs: Iterable[int]) -> int:
        raise NotImplementedError

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

    def rank_change(self, xs, ys, add: Iterable[int] = (), remove: Iterable[int] = ()) -> int:
        """r((X | A) / (Y - Z)) - r(X / Y), read on the blocks that A and Z touch.

        It is the sum over those blocks c of g_c(X | A, Y - Z) - g_c(X, Y),
        where g_c(X, Y) = rank(X_c | Y_c) - rank(Y_c); every other block keeps
        its term, so this is the change of the relative rank whenever
        r(X / Y) is finite.  Of X and Y (templates or finite sets) only the
        membership of ids in those blocks is asked.
        """
        raise NotImplementedError

    def _circuit_partner(self, grown, e, pool, base) -> int:
        """Smallest f in pool whose removal makes grown (dependent, grown - e not) independent."""
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
        return len(_natural_ids(xs))

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

    def rank_change(self, xs, ys, add: Iterable[int] = (), remove: Iterable[int] = ()) -> int:
        # each element is its own block, where g(X, Y) = [e in X - Y]
        added, removed = frozenset(add), frozenset(remove)
        return sum(((e in xs or e in added) and (e not in ys or e in removed))
                   - (e in xs and e not in ys) for e in added | removed)

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
        """(head length, tail cycle) so block patterns repeat beyond the head; the
        cycle is bounded in elements, as `_blocks` builds (head + cycle) * block bits."""
        top = max(t.threshold for t in templates)
        head = -(-top // self.block)
        if head > _HEAD_LIMIT:
            raise SpecError("template threshold too large for block analysis")
        cycle = 1
        for t in templates:
            cycle = lcm(cycle, t.period // gcd(t.period, self.block))
        if cycle * self.block > _PERIOD_LIMIT:
            raise SpecError("combined template period too large for block analysis")
        return head, cycle

    def _split(self, *sets) -> tuple[int, int, zip]:
        """(head, cycle, the sets' component masks side by side per block) over
        their common window; None stands for the empty set."""
        ts = [TemplateSet.empty() if s is None else TemplateSet.coerce(s) for s in sets]
        head, cycle = self._window(*ts)
        count = head + cycle
        return head, cycle, zip(*[self._blocks(t, count) for t in ts])

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
        """Template with block c < start given by masks[c], then the `cycle`
        masks of masks[start:] repeating."""
        cut, period = start * self.block, cycle * self.block
        if max(period, cut) > _PERIOD_LIMIT:
            raise SpecError(_LIMIT_ERROR)
        # the tail's first block sits at cut, which is residue cut % period
        tail, shift = _join(masks[start:], self.block), cut % period
        res = (tail << shift | tail >> period - shift) & ((1 << period) - 1)
        return TemplateSet._from_masks(period, res, cut, _join(masks[:start], self.block))

    # finite sets -----------------------------------------------------------

    def finite_rank(self, xs: Iterable[int]) -> int:
        blocks: dict[int, int] = {}
        for e in _natural_ids(xs):
            c, p = divmod(e, self.block)
            blocks[c] = blocks.get(c, 0) | 1 << p
        return sum(map(self.component.rank_mask, blocks.values()))

    # templates -------------------------------------------------------------

    def certify(self, template, over=None) -> bool:
        _, _, blocks = self._split(template, over)
        rank = self.component.rank_mask
        return all(rank(tp | op) == (tp & ~op).bit_count() + rank(op) for tp, op in blocks)

    def relative_rank(self, xs, ys) -> int | float:
        head, _, blocks = self._split(xs, ys)
        rank = self.component.rank_mask
        gains = [rank(xp | yp) - rank(yp) for xp, yp in blocks]
        return INFINITE if any(gains[head:]) else sum(gains)

    def max_independent_subtemplate(self, template, over=None) -> TemplateSet:
        head, cycle, blocks = self._split(template, over)
        chosen = [self._extend(0, tp, self.block, op) for tp, op in blocks]
        return self._template(chosen, head, cycle)

    def rank_change(self, xs, ys, add: Iterable[int] = (), remove: Iterable[int] = ()) -> int:
        block, rank = self.block, self.component.rank_mask
        blocks: dict[int, list[int]] = {}  # block start -> [added mask, removed mask]
        for side, elements in enumerate((add, remove)):
            for e in elements:
                start, p = e - e % block, e % block
                blocks.setdefault(start, [0, 0])[side] |= 1 << p
        change = 0
        for start, (a, z) in blocks.items():
            xp = sum(1 << p for p in range(block) if start + p in xs)
            yp = sum(1 << p for p in range(block) if start + p in ys)
            change += rank(xp | a | yp & ~z) - rank(yp & ~z) - rank(xp | yp) + rank(yp)
        return change

    def _circuit_partner(self, grown, e, pool, base) -> int:
        start, rank = e - e % self.block, self.component.rank_mask
        g, q, o = (t.mask_below(start + self.block) >> start for t in (grown, pool, base))
        return next(start + p for p in range(self.block)
                    if q >> p & 1 and rank(g & ~(1 << p) | o) == g.bit_count() - 1 + rank(o))

    def class_member(self, rep, lower, upper=None) -> TemplateSet | None:
        # B ~ rep iff all but finitely many blocks B_c span exactly cl(R_c) and
        # the sum of |B_c| - |R_c| is 0: every tail block needs such a spanning
        # choice, and the head plus finitely many deviating tail blocks must balance
        head, cycle, parts = self._split(lower, TemplateSet.full() if upper is None else upper, rep)
        parts = list(parts)
        comp = self.component

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
    otherwise contract `protected` into `over` and swap elements of inner into
    outer one at a time, always taking the smallest id that keeps
    independence; both the swap test and the partner are read on e's block
    alone, so the two entry checks are the only window-wide ones.  Callers
    re-verify the postcondition with an independent rank computation.
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
        # contract the protected elements in place: the reduced overlap is still
        # finite, and both reduced sets stay infinite and independent over base
        fixed = TemplateSet.from_finite(shield)
        base = base | fixed
        inner_t = matroid.max_independent_subtemplate(inner_t - fixed, over=base)
        outer_t = outer_t - fixed

    swaps_in = (inner_t - outer_t).first(count)
    current = outer_t
    picked: list[int] = []
    for e in swaps_in:
        grown, pool = current.patch(add=[e]), current - inner_t
        # current is independent over `base` and e lies in neither, so grown is
        # independent iff e adds one to the rank of its block; otherwise, as a direct
        # sum contracted by `base` is a direct sum, grown's one circuit lies in e's
        # block, and it meets the pool because inner is independent over base
        found = (pool.first(1)[0] if matroid.rank_change(current, base, add=[e]) == 1
                 else matroid._circuit_partner(grown, e, pool, base))
        current = grown.patch(remove=[found])
        picked.append(found)
    return frozenset(picked)
