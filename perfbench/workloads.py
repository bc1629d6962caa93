"""Workload generators: input files, operation lists and reference checks.

Each generator takes a `random.Random` and a directory, writes every input
file the program will read, and returns a `Workload`.  An operation is one
command line for `matroid_forge.cli.dispatch` plus a check that compares the
exit code and the text report against an answer from `reference` (or against
a property the method must have).  A check returns None when the output is
right and a short description of the mismatch otherwise.

The operation list is built in fixed slots, so every seed gives the same
number of operations of each kind and size class; the seed picks the
instances inside each slot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import reference as ref
from reference import INF, PSet

# Swap counts above this are out of reach of the 64-patch searches in
# gentrunc._class_members_between and gentrunc._class_triggered_by.
PATCH_CAP = 64
# Swap counts of the task operations of each shape.  Those above PATCH_CAP get
# a wrong verdict from the program today; their inputs do not depend on the
# seed, so every run fails the same share.
SWAPS = tuple(range(3, PATCH_CAP, 5))
CAPPED_SWAPS = (65, 71, 77, 83, 89, 95)

Check = Callable[[int, str], "str | None"]


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check
    # for an operation that fails today because of a known fault: a check that
    # passes only on the wrong output that fault gives
    known_fault: Check | None = None


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    inputs: list[tuple[str, Path]] = field(default_factory=list)  # (file kind, path)


class Inputs:
    """Writes numbered input files and remembers them for set-up loading."""

    def __init__(self, directory: Path, workload: Workload):
        self.directory = directory
        self.workload = workload

    def write(self, kind: str, text: str) -> str:
        path = self.directory / f"{len(self.workload.inputs):04d}-{kind}.txt"
        path.write_text(text, encoding="utf-8")
        self.workload.inputs.append((kind, path))
        return str(path)


# -- report parsing -------------------------------------------------------------


def field_value(report: str, key: str) -> str | None:
    """Value of the first `key value` line of a text report."""
    for line in report.splitlines():
        head, _, rest = line.partition(" ")
        if head == key:
            return rest
    return None


def class_lines(report: str) -> list[PSet]:
    return [ref.parse_setspec(line[len("class "):])
            for line in report.splitlines() if line.startswith("class ")]


def parse_braced(text: str) -> frozenset:
    body = text.strip()[1:-1]
    return frozenset(int(v) for v in body.split(",") if v)


def parse_condition(text: str) -> tuple[frozenset, frozenset]:
    """(ones, zeros) of a `{e->v, ...}` condition."""
    ones, zeros = set(), set()
    for item in text.strip()[1:-1].split(","):
        if item.strip():
            e, v = item.split("->")
            (ones if v.strip() == "1" else zeros).add(int(e))
    return frozenset(ones), frozenset(zeros)


def expect_exit(code: int, want: int, report: str) -> str | None:
    if code != want:
        return f"exit {code}, expected {want}: {field_value(report, 'error') or field_value(report, 'verdict')}"
    return None


def verdict_check(want_code: int, want_prefix: str) -> Check:
    def check(code: int, report: str) -> str | None:
        verdict = field_value(report, "verdict") or ""
        if code != want_code or not verdict.startswith(want_prefix):
            return f"verdict {verdict!r} exit {code}, expected {want_prefix!r} exit {want_code}"
        return None
    return check


def exact_verdict_check(want_code: int, want: str) -> Check:
    def check(code: int, report: str) -> str | None:
        verdict = field_value(report, "verdict")
        if code != want_code or verdict != want:
            return f"verdict {verdict!r} exit {code}, expected {want!r} exit {want_code}"
        return None
    return check


def truth_check(want: bool) -> Check:
    return verdict_check(0 if want else 1, str(want))


def field_check(key: str, want: str) -> Check:
    def check(code: int, report: str) -> str | None:
        got = field_value(report, key)
        if code != 0 or got != want:
            return f"{key} {got!r} exit {code}, expected {want!r}"
        return None
    return check


def seed_check(prefix: str, reps: list[PSet]) -> Check:
    def check(code: int, report: str) -> str | None:
        bad = expect_exit(code, 0, report)
        if bad:
            return bad
        got = class_lines(report)
        unmatched = list(reps)
        for g in got:
            hit = next((r for r in unmatched if ref.same_set(g, r)), None)
            if hit is None:
                return f"seed {prefix}: class {g.directive()} is not a reference class"
            unmatched.remove(hit)
        if unmatched or field_value(report, "classes") != str(len(reps)):
            return f"seed {prefix}: {len(got)} classes, expected {len(reps)}"
        return None
    return check


# -- finite-bridge ----------------------------------------------------------------

K5_EDGES = list(combinations("abcde", 2))


@dataclass
class FiniteCase:
    text: str
    n: int
    rank: Callable


def uniform_case(k: int, n: int) -> FiniteCase:
    return FiniteCase(f"matroid u{k}{n}\nkind uniform\nparams k={k} n={n}\n", n,
                      lambda s: ref.uniform_rank(k, s))


def graphic_case(rng: random.Random, name: str, edges: list) -> FiniteCase:
    """The cycle matroid of `edges` with vertices renamed and edges reordered by the seed."""
    vertices = sorted({v for e in edges for v in e})
    names = dict(zip(vertices, rng.sample([f"v{i}" for i in range(len(vertices))], len(vertices))))
    edges = [(names[u], names[v]) if rng.random() < 0.5 else (names[v], names[u]) for u, v in edges]
    rng.shuffle(edges)
    text = f"matroid {name}\nkind graphic\n" + "".join(f"edge {u} {v}\n" for u, v in edges)
    return FiniteCase(text, len(edges), lambda s: ref.graphic_rank(edges, s))


def wheel_edges(spokes: int) -> list:
    rim = [f"r{i}" for i in range(spokes)]
    return [("h", v) for v in rim] + [(rim[i], rim[(i + 1) % spokes]) for i in range(spokes)]


def linear_case(rng: random.Random, p: int, rows: list) -> FiniteCase:
    """The column matroid of `rows` after seeded row mixing, column scaling and permutation."""
    height, width = len(rows), len(rows[0])
    while True:
        mix = [[rng.randrange(p) for _ in range(height)] for _ in range(height)]
        if ref.gfp_rank(p, mix, range(1, height + 1)) == height:
            break
    scale = [rng.randrange(1, p) for _ in range(width)]
    order = rng.sample(range(width), width)
    rows = [[sum(mix[i][k] * rows[k][c] for k in range(height)) * scale[c] % p for c in order]
            for i in range(height)]
    text = (f"matroid gf{p}\nkind linear\nprime {p}\n"
            + "".join("row " + " ".join(map(str, r)) + "\n" for r in rows))
    return FiniteCase(text, width, lambda s: ref.gfp_rank(p, rows, s))


def finite_cases(rng: random.Random) -> list[FiniteCase]:
    """Fixed matroids on 6-10 elements, each relabelled by the seed.

    The structures (and so the cost of every operation on them) are the same
    for every seed; the matrices come from a constant generator.
    """
    cases = [uniform_case(k, n) for k, n in ((4, 7), (4, 8), (3, 9), (4, 9), (2, 10), (3, 10))]
    graphs = [("wheel3", wheel_edges(3)), ("k5minus3", K5_EDGES[:7]), ("wheel4", wheel_edges(4)),
              ("k5minus1", K5_EDGES[:9]), ("k5", K5_EDGES), ("wheel5", wheel_edges(5))]
    cases += [graphic_case(rng, name, edges) for name, edges in graphs]
    fixed = random.Random("finite-bridge matrices")
    for p, height, widths in ((2, 3, range(7, 11)), (2, 4, (7, 9, 10)), (3, 3, range(7, 11)),
                              (3, 4, (9,))):
        for n in widths:
            rows = [[fixed.randrange(p) for _ in range(n)] for _ in range(height)]
            cases.append(linear_case(rng, p, rows))
    return cases


def family_text(sets) -> str:
    return "family f\n" + "".join(
        "set " + " ".join(map(str, sorted(s))) + "\n"
        for s in sorted(sets, key=lambda s: (len(s), sorted(s))))


def explicit_text(n: int, bases) -> str:
    return ("matroid candidate\nkind explicit\nground " + " ".join(map(str, range(1, n + 1)))
            + "\n" + "".join("base " + " ".join(map(str, sorted(b))) + "\n" for b in bases))


def enumerate_check(levels) -> Check:
    want = {frozenset(level) for level in levels}

    def check(code: int, report: str) -> str | None:
        bad = expect_exit(code, 0, report)
        if bad:
            return bad
        got = set()
        for line in report.splitlines():
            if line.startswith("family-"):
                got.add(frozenset(parse_braced(w) for w in line.split()[1:]))
        if field_value(report, "families") != str(len(want)) or got != want:
            return f"enumerate returned {len(got)} families, expected the {len(want)} size levels"
        return None
    return check


def verify_check(is_level: bool) -> Check:
    if not is_level:
        return verdict_check(1, "violation(")

    def check(code: int, report: str) -> str | None:
        bad = verdict_check(0, "ok")(code, report)
        if bad:
            return bad
        if field_value(report, "definition-check") != "ok":
            return "definition-check is not ok for a complete size level"
        return None
    return check


def perturb(rng: random.Random, case: FiniteCase, levels, size: int, how: int) -> list[frozenset]:
    """The size level with one set removed (how 0), or with an independent set of
    another size (how 1) or a dependent set of the same size (how 2) added."""
    level = levels[size]
    if how == 0 and len(level) >= 2:
        drop = rng.choice(level)
        return [s for s in level if s != drop]
    dependent = [frozenset(c) for c in combinations(range(1, case.n + 1), size)
                 if case.rank(c) < size]
    if how == 2 and dependent:
        return level + [rng.choice(dependent)]
    return level + [rng.choice([s for i, lv in enumerate(levels) if i != size for s in lv])]


# Work caps, in sets times subsets of the ground set, keep the heaviest
# operations (enumeration and the quarantine check of a candidate) between
# about 50 and 150 ms, so the upper tail that op_p90_ms reads is dense.
ENUMERATE_MAX_WORK = 80_000
CANDIDATE_MAX_WORK = 50_000


def finite_bridge(rng: random.Random, directory: Path) -> Workload:
    """Finite kernel only: enumerate, verify (levels and perturbed copies), classify."""
    wl = Workload()
    io = Inputs(directory, wl)
    for slot, case in enumerate(finite_cases(rng)):
        levels = ref.size_levels(case.n, case.rank)
        r = len(levels) - 1
        m = io.write("matroid", case.text)
        if sum(map(len, levels)) << case.n <= ENUMERATE_MAX_WORK:
            wl.ops.append(Op("gentrunc-enumerate", ["gentrunc", "enumerate", "--matroid", m],
                             enumerate_check(levels)))
        for i, size in enumerate((max(1, r // 2), r)):
            fam = io.write("family", family_text(levels[size]))
            wl.ops.append(Op("gentrunc-verify", ["gentrunc", "verify", "--matroid", m,
                                                 "--family", fam], verify_check(True)))
            fam = io.write("family", family_text(perturb(rng, case, levels, size, (slot + i) % 3)))
            wl.ops.append(Op("gentrunc-verify", ["gentrunc", "verify", "--matroid", m,
                                                 "--family", fam], verify_check(False)))
        size = max(i for i, lv in enumerate(levels) if len(lv) << case.n <= CANDIDATE_MAX_WORK)
        cand = io.write("matroid", explicit_text(case.n, levels[size]))
        wl.ops.append(Op("classify-truncation",
                         ["classify-truncation", "--matroid", m, "--candidate", cand],
                         field_check("level", "trivial" if size == r else str(size))))
    return wl


# -- free-classes -------------------------------------------------------------------

FREE_MATROID = "matroid free\nkind free\n"
# period pairs of the equivalence queries, by growing lcm (24 to 1920)
PERIOD_PAIRS = ((6, 8), (8, 12), (9, 12), (12, 16), (10, 12), (16, 24), (18, 24), (14, 12),
                (20, 24), (30, 40), (21, 18), (32, 48), (36, 40), (28, 30), (40, 48), (60, 64),
                (72, 80), (90, 96), (120, 128), (96, 90))


def random_template(rng: random.Random, period: int, threshold: int) -> PSet:
    """Seeded residues (half of them) and low part below a fixed period and threshold."""
    residues = rng.sample(range(period), max(1, period // 2))
    return PSet(period, residues, threshold, [n for n in range(threshold) if rng.random() < 0.5])


def stretch(s: PSet, factor: int) -> PSet:
    """The same set written with `factor` times the period."""
    period = s.period * factor
    return PSet(period, [n for n in range(period) if n % s.period in s.residues],
                s.threshold, s.low)


def swap_patch(s: PSet, out, into, top: int) -> PSet:
    """s with the members `out` dropped and the non-members `into` added, all below `top`."""
    drop, grow = set(out), set(into)
    top = max(top, s.threshold)
    return PSet(s.period, s.residues, top,
                [n for n in range(top) if (n in s and n not in drop) or n in grow])


def random_patch(rng: random.Random, s: PSet, removed: int, added: int, top: int) -> PSet:
    inside = s.members_below(top)
    outside = [n for n in range(top) if n not in s]
    return swap_patch(s, rng.sample(inside, min(removed, len(inside))),
                      rng.sample(outside, min(added, len(outside))), top)


def task_text(lower: PSet, upper: PSet) -> str:
    return f"task t\nlower {lower.directive()}\nupper {upper.directive()}\n"


def family_of(reps) -> str:
    return "family f\n" + "".join(f"class {r.directive()}\n" for r in reps)


def evens_task(shape: str, swaps: int) -> tuple[PSet, PSet]:
    odd_head = [2 * i + 1 for i in range(swaps)]
    if shape == "cover":
        return PSet.finite(()), PSet(1, (0,), 2 * swaps, odd_head)
    return PSet.finite(odd_head), PSet(2, (1,))


def evens_relative(rng: random.Random, swaps: int) -> PSet:
    """A member of the class of `evens` that differs from it only above 2*swaps."""
    start = 2 * swaps
    k = rng.randint(0, 3)
    out = rng.sample(range(start, start + 40, 2), k)
    into = rng.sample(range(start + 1, start + 40, 2), k)
    return swap_patch(PSet(2, (0,)), out, into, start + 40)


def seeded_prefix(rng: random.Random, length: int, tail: str) -> str:
    """Seeded bits ending in `tail`; the tail fixes the largest seed periods."""
    return "".join(rng.choice("01") for _ in range(length - len(tail))) + tail


def free_classes(rng: random.Random, directory: Path) -> Workload:
    """Templates, equivalence and the finitary task search on the free matroid."""
    wl = Workload()
    io = Inputs(directory, wl)
    free = io.write("matroid", FREE_MATROID)

    pairs = [(seeded_prefix(rng, n, "101"), seeded_prefix(rng, n, "010")) for n in range(4, 11)]
    for prefix in (p for pair in pairs for p in pair):
        reps = ref.seed_representatives(1, [0], prefix)
        wl.ops.append(Op("forcing-seed", ["forcing", "seed", "--matroid", free,
                                          "--prefix", prefix], seed_check(prefix, reps)))

    # merged seed families, for the prefixes of length 4 to 8: two disagreeing
    # prefixes give an almost-spanning pair; a prefix merged with its own head
    # gives a family
    for j, (a, b) in enumerate(pairs[:5]):
        if j % 2 == 0:
            b = a[:len(a) // 2]
        merged = []
        for rep in ref.seed_representatives(1, [0], a) + ref.seed_representatives(1, [0], b):
            if not any(ref.same_set(rep, m) for m in merged):
                merged.append(rep)
        rng.shuffle(merged)
        fam = io.write("family", family_of(merged))
        want = ref.free_family_verdict(merged, [])
        wl.ops.append(Op("gentrunc-verify-finitary",
                         ["gentrunc", "verify-finitary", "--matroid", free, "--family", fam],
                         verdict_check(0 if want == "ok" else 1, want)))

    # equivalence queries on template pairs of mixed periods; the slot fixes
    # the periods, the size and the kind of pair, the seed fills them in
    for i in range(60):
        period_a, period_b = PERIOD_PAIRS[i % len(PERIOD_PAIRS)]
        top = 200 + 90 * (i % 21)
        a = random_template(rng, period_a, top)
        k = 1 + i % 12
        form = i % 4
        if form == 0:
            b = random_patch(rng, a, k, k, top + 40)
        elif form == 1:
            b = random_patch(rng, a, k, k + 1, top + 40)
        elif form == 2:
            b = random_template(rng, period_b, top)
        else:
            b = a.without(rng.sample(a.members_below(top), 3))
        if form != 2:
            b = stretch(b, ref.lcm(period_a, period_b) // period_a)
        if i % 8 >= 4:
            a, b = b, a
        action = ("strong", "almost-spans", "classify")[i % 3]
        if action == "classify":
            target = (a, ref.ALL.without(rng.sample(range(top), 1 + i % 9)),
                      PSet.finite(a.members_below(top // 4)))[(i // 3) % 3]
            wl.ops.append(Op("equiv-classify",
                             ["equiv", "classify", "--matroid", free,
                              "--set", io.write("setspec", target.directive())],
                             field_check("class", ref.free_class_label(target))))
            continue
        want = ref.free_strongly_equivalent(a, b) if action == "strong" \
            else ref.free_almost_spans(a, b)
        wl.ops.append(Op(f"equiv-{action}",
                         ["equiv", action, "--matroid", free,
                          "--left", io.write("setspec", a.directive()),
                          "--right", io.write("setspec", b.directive())],
                         truth_check(want)))

    # the task search for the class of evens, per shape and swap count; the
    # seed picks the member of the class below the cap; `cover` is
    # satisfiable, `odd-head` is not
    for shape in ("cover", "odd-head"):
        for s in SWAPS + CAPPED_SWAPS:
            capped = s > PATCH_CAP
            rep = PSet(2, (0,)) if capped else evens_relative(rng, s)
            lower, upper = evens_task(shape, s)
            fam = io.write("family", family_of([rep]))
            tasks = io.write("tasks", task_text(lower, upper))
            want = ref.free_family_verdict([rep], [(lower, upper)])
            # past the cap the program flips the verdict
            wrong = "unmet tasks: 1" if want == "ok" else "ok"
            wl.ops.append(Op("gentrunc-verify-finitary-task",
                             ["gentrunc", "verify-finitary", "--matroid", free,
                              "--family", fam, "--tasks", tasks],
                             verdict_check(0 if want == "ok" else 1, want),
                             exact_verdict_check(0 if wrong == "ok" else 1, wrong)
                             if capped else None))
    return wl


# -- periodic-forcing ---------------------------------------------------------------


@dataclass
class Schema:
    text: str
    sums: ref.BlockSum
    basis: list[int]  # ascending greedy basis of the component, as positions


def uniform_schema(k: int, n: int) -> Schema:
    text = (f"matroid u{k}{n}sum\nkind periodic-sum\ncomponent kind uniform\n"
            f"component params k={k} n={n}\n")
    return Schema(text, ref.BlockSum(n, lambda pos: ref.uniform_rank(k, pos)), list(range(k)))


def triangle_schema() -> Schema:
    edges = [("a", "b"), ("b", "c"), ("a", "c")]
    text = "matroid trisum\nkind periodic-sum\ncomponent kind graphic\n" + "".join(
        f"component edge {u} {v}\n" for u, v in edges)
    return Schema(text, ref.BlockSum(3, lambda pos: ref.graphic_rank(edges, [p + 1 for p in pos])),
                  [0, 1])


SCHEMAS = (uniform_schema(1, 2), uniform_schema(2, 3), uniform_schema(2, 4), triangle_schema())


def step_check(sums: ref.BlockSum, reps, lower: PSet, upper: PSet, depth: int,
               chain: dict, key: str, first: bool) -> Check:
    """Properties every step certificate has, recomputed with the blockwise rank.

    The first step of a task stores its condition in `chain[key]`; the second,
    one depth higher, must extend it.
    """
    gain = [r for r in reps if sums.relative_rank(lower, r) != INF]
    guard = [r for r in reps if sums.relative_rank(r, upper) != INF]

    def check(code: int, report: str) -> str | None:
        bad = verdict_check(0, "ok")(code, report)
        if bad:
            return bad
        ones, zeros = parse_condition(field_value(report, "condition") or "{}")
        if any(e not in upper or e in lower for e in ones | zeros):
            return "condition assigns an element outside the task gap"
        for rep in gain:
            if sums.relative_rank(PSet.finite(ones), rep) < depth:
                return f"ones gain less than {depth} over {rep.directive()}"
        left = upper.without(zeros)
        for rep in guard:
            if sums.relative_rank(rep, left) < depth:
                return f"{rep.directive()} keeps less than {depth} over upper minus zeros"
        if first:
            chain[key] = (ones, zeros)
        elif key not in chain or not (ones >= chain[key][0] and zeros >= chain[key][1]):
            return f"depth-{depth} condition does not extend the depth-{depth - 1} one"
        return None
    return check


def independent_template(rng: random.Random, schema: Schema, periods: int, blocks: int) -> PSet:
    block = schema.sums.block
    return schema.sums.greedy_part(random_template(rng, block * periods, block * blocks))


def union_of(sets) -> PSet:
    """Union of templates with threshold 0."""
    period = 1
    for s in sets:
        period = ref.lcm(period, s.period)
    return PSet(period, [n for n in range(period) if any(n in s for s in sets)], 0)


# (prefix, depth) of the forcing-step tasks of each schema; the `10` and `011`
# families cost about twice as much per depth as `01`, so the depths are
# paired with the families to spread the costs evenly up to about 200 ms
STEP_SLOTS = (("01", 2), ("01", 8), ("01", 12), ("01", 15), ("10", 4), ("10", 10), ("011", 7))


def periodic_forcing(rng: random.Random, directory: Path) -> Workload:
    """Forcing steps, seeds and equivalence on periodic sums of small components."""
    wl = Workload()
    io = Inputs(directory, wl)
    chain: dict = {}
    for index, schema in enumerate(SCHEMAS):
        sums = schema.sums
        m = io.write("matroid", schema.text)

        for length in range(2, 8):
            prefix = seeded_prefix(rng, length, "01" if length % 2 else "10")
            reps = ref.seed_representatives(sums.block, schema.basis, prefix)
            wl.ops.append(Op("forcing-seed", ["forcing", "seed", "--matroid", m,
                                              "--prefix", prefix], seed_check(prefix, reps)))

        # steps at depths d and d+1 on one task; the task's upper set is the
        # independent part of the classes' union, the lower set a seeded
        # finite part of it
        for slot, (prefix, depth) in enumerate(STEP_SLOTS):
            reps = ref.seed_representatives(sums.block, schema.basis, prefix)
            upper = sums.greedy_part(union_of(reps))
            lower = PSet.finite(rng.sample(upper.members_below(8 * sums.block), slot % 3))
            claims = (all(sums.relative_rank(r, lower) == INF for r in reps)
                      and all(sums.relative_rank(upper, r) == INF for r in reps))
            if not claims:
                raise AssertionError(f"step preconditions fail for prefix {prefix}")
            fam = io.write("family", family_of(reps))
            task = io.write("tasks", task_text(lower, upper))
            depth = min(15, max(2, depth + index % 3 - 1))
            for d in (depth, depth + 1):
                wl.ops.append(Op("forcing-step",
                                 ["forcing", "step", "--matroid", m, "--family", fam,
                                  "--task", task, "--depth", str(d)],
                                 step_check(sums, reps, lower, upper, d, chain, task,
                                            first=d == depth)))

        # equivalence queries on independent templates: seed classes and
        # independent parts of seeded templates
        for i in range(10):
            reps = ref.seed_representatives(sums.block, schema.basis,
                                            seeded_prefix(rng, 4 + i % 3, ""))
            a = independent_template(rng, schema, 4 + 4 * i, 20 + 20 * i) if i % 2 else reps[-1]
            if i % 3 == 0:
                b = reps[-2]
            else:
                b = independent_template(rng, schema, 4 + 4 * ((i + 5) % 10), 220 - 20 * i)
            action = ("strong", "almost-spans", "classify", "strong", "almost-spans")[i % 5]
            if action == "classify":
                wl.ops.append(Op("equiv-classify",
                                 ["equiv", "classify", "--matroid", m,
                                  "--set", io.write("setspec", a.directive())],
                                 field_check("class", sums.class_label(a))))
                continue
            want = sums.strongly_equivalent(a, b) if action == "strong" \
                else sums.relative_rank(a, b) != INF
            wl.ops.append(Op(f"equiv-{action}",
                             ["equiv", action, "--matroid", m,
                              "--left", io.write("setspec", a.directive()),
                              "--right", io.write("setspec", b.directive())],
                             truth_check(want)))
    return wl


WORKLOADS = {
    "finite-bridge": finite_bridge,
    "free-classes": free_classes,
    "periodic-forcing": periodic_forcing,
}

# A round's operation list joins this many instances of the workload, drawn one
# after the other from the seed's random stream.  With more distinct inputs in
# a round the figures depend less on the draw of any one instance.
INSTANCES = 2


def build(name: str, seed: int, directory: Path) -> Workload:
    """The operation list of one round of workload `name` for `seed`, its inputs under `directory`."""
    rng = random.Random(f"{name}:{seed}")
    whole = Workload()
    for i in range(INSTANCES):
        part_dir = directory / str(i)
        part_dir.mkdir()
        part = WORKLOADS[name](rng, part_dir)
        whole.ops += part.ops
        whole.inputs += part.inputs
    return whole
