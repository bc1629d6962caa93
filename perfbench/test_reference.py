"""Hand-worked cases for the benchmark's reference computations, and checks of how it runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference as ref
import workloads
from reference import INF, PSet

BENCH = Path(__file__).resolve().parent

EVENS = PSet(2, (0,))
ODDS = PSet(2, (1,))


# -- finite rank routines ---------------------------------------------------------


def test_levels_of_u24():
    levels = ref.size_levels(4, lambda s: ref.uniform_rank(2, s))
    assert levels == [
        [frozenset()],
        [frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})],
        [frozenset(p) for p in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))],
    ]


def test_union_find_rank():
    triangle_with_pendant = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
    rank = lambda s: ref.graphic_rank(triangle_with_pendant, s)  # noqa: E731
    assert rank([1, 2, 3]) == 2
    assert rank([1, 2, 3, 4]) == 3
    assert rank([3, 4]) == 2
    assert ref.graphic_rank([("a", "b"), ("a", "b")], [1, 2]) == 1  # parallel edges
    assert ref.graphic_rank([("a", "a")], [1]) == 0  # a loop


def test_gfp_rank():
    # columns 1 + 2 = 3 over GF(2)
    assert ref.gfp_rank(2, [[1, 0, 1], [0, 1, 1]], [1, 2, 3]) == 2
    assert ref.gfp_rank(2, [[1, 0, 1], [0, 1, 1]], [3]) == 1
    assert ref.gfp_rank(2, [[1, 1], [1, 1]], [1, 2]) == 1
    # det [[1, 1], [1, 2]] = 1 and det [[1, 2], [2, 1]] = -3 over GF(3)
    assert ref.gfp_rank(3, [[1, 1], [1, 2]], [1, 2]) == 2
    assert ref.gfp_rank(3, [[1, 2], [2, 1]], [1, 2]) == 1
    assert ref.gfp_rank(3, [[0, 0], [0, 0]], [1, 2]) == 0


# -- templates and the free matroid --------------------------------------------------


def test_parse_template_with_exclusions():
    s = ref.parse_setspec("template d=4 res=1,3 t=5 low=0,2 minus=9")
    assert s.members_below(16) == [0, 2, 5, 7, 11, 13, 15]
    assert ref.same_set(ref.parse_setspec("mult 4 1"), PSet(4, (1,)))
    assert ref.same_set(ref.parse_setspec("set 3 1"), PSet.finite({1, 3}))


def test_template_difference_finiteness():
    assert ref.difference_size(EVENS, ODDS) == INF
    assert ref.difference_size(PSet(4, (0,)), EVENS) == 0
    assert ref.difference_size(EVENS, PSet(4, (0,))) == INF
    assert ref.difference_size(EVENS, EVENS.without({0, 2, 40})) == 3
    # equal sets written with different periods and thresholds
    assert ref.same_set(PSet(6, (0, 2, 4), 3, (0, 2)), EVENS.without(()))


def test_free_balance():
    swapped = PSet(2, (0,), 4, (1, 2))  # evens - {0} + {1}
    assert ref.free_strongly_equivalent(EVENS, swapped)
    assert not ref.free_strongly_equivalent(EVENS, swapped.without({2}))
    assert ref.free_almost_spans(swapped.without({2}), EVENS)
    assert not ref.free_almost_spans(EVENS, ODDS)
    assert ref.free_class_label(PSet.finite({4, 5, 6})) == "finite(3)"
    assert ref.free_class_label(ref.ALL.without({0, 5})) == "cofinite(2)"
    assert ref.free_class_label(EVENS) == "wild-candidate"


@pytest.mark.parametrize("swaps", [64, 65])
def test_evens_tasks_at_the_patch_cap(swaps):
    """Both shapes have the same true verdict on either side of the 64-patch cap."""
    cover = workloads.evens_task("cover", swaps)
    odd_head = workloads.evens_task("odd-head", swaps)
    assert cover[1].members_below(2 * swaps + 3) == \
        [2 * i + 1 for i in range(swaps)] + [2 * swaps, 2 * swaps + 1, 2 * swaps + 2]
    # B = (odds below 2s) | (evens from 2s) trades exactly s evens for s odds
    assert ref.free_family_verdict([EVENS], [cover]) == "ok"
    # a member of the class of evens containing s odds exists, none inside odds does
    assert ref.free_triggered(EVENS, odd_head[0])
    assert not ref.free_settled(EVENS, *odd_head)
    assert ref.free_family_verdict([EVENS], [odd_head]) == "unmet tasks: 1"


def test_comparable_family():
    assert ref.free_family_verdict([EVENS, PSet(4, (0,))], []) == "violation(3"
    assert ref.free_family_verdict([EVENS, ODDS], []) == "ok"
    assert ref.free_family_verdict([EVENS, EVENS.without({0})], []) == "violation(3"
    with pytest.raises(ValueError):  # evens - {0} + {1} is in the class of evens
        ref.free_family_verdict([EVENS, PSet(2, (0,), 4, (1, 2))], [])


def test_free_seed_representatives():
    reps = ref.seed_representatives(1, [0], "10")
    assert ref.same_set(reps[0], ODDS)
    assert ref.same_set(reps[1], PSet(8, (2,)))


# -- periodic sums ---------------------------------------------------------------------


U12 = ref.BlockSum(2, lambda pos: ref.uniform_rank(1, pos))
TRIANGLE = ref.BlockSum(3, lambda pos: ref.graphic_rank([("a", "b"), ("b", "c"), ("a", "c")],
                                                        [p + 1 for p in pos]))


def test_blockwise_rank_u12():
    assert U12.relative_rank(ref.ALL, EVENS) == 0
    assert U12.relative_rank(EVENS, ref.EMPTY) == INF
    assert U12.relative_rank(PSet.finite({0, 1, 2}), ref.EMPTY) == 2
    assert U12.relative_rank(PSet.finite({0, 2}), ODDS) == 0
    assert U12.class_label(EVENS) == "cofinite(0)"
    assert U12.class_label(PSet(4, (0,))) == "wild-candidate"
    assert U12.strongly_equivalent(EVENS, ODDS)


def test_blockwise_rank_triangle():
    assert ref.same_set(TRIANGLE.greedy_part(ref.ALL), PSet(3, (0, 1)))
    assert TRIANGLE.relative_rank(PSet(3, (2,)), PSet(3, (0, 1))) == 0
    assert TRIANGLE.relative_rank(PSet(3, (0, 1)), PSet(3, (2,))) == INF
    assert TRIANGLE.relative_rank(PSet.finite({0, 1, 2, 3}), PSet(3, (2,))) == 2


def test_periodic_seed_representatives():
    # U(1,2): the canonical base is the evens, so index class 1 mod 2 maps to 2 mod 4
    assert ref.same_set(ref.seed_representatives(2, [0], "1")[0], PSet(4, (2,)))
    # triangle: base positions 0, 1 of each block; index 1 mod 4 -> {1, 7, 13, ...}
    assert ref.same_set(ref.seed_representatives(3, [0, 1], "0")[0], PSet(6, (1,)))


# -- the workloads and how a run behaves -----------------------------------------------


def test_capped_task_operations_do_not_depend_on_the_seed(tmp_path):
    texts = []
    for seed in (1, 2):
        directory = tmp_path / str(seed)
        directory.mkdir()
        wl = workloads.free_classes(random.Random(seed), directory)
        capped = [op for op in wl.ops if op.known_fault]
        assert len(capped) == 2 * len(workloads.CAPPED_SWAPS)
        assert all(s > workloads.PATCH_CAP for s in workloads.CAPPED_SWAPS)
        texts.append([Path(a).read_text() for op in capped for a in op.argv if a.startswith(str(directory))])
    assert texts[0] == texts[1]


def test_a_capped_operation_accepts_only_the_known_wrong_verdict(tmp_path):
    wl = workloads.free_classes(random.Random(1), tmp_path)
    capped = [op for op in wl.ops if op.known_fault]
    cover, odd_head = capped[0], capped[len(workloads.CAPPED_SWAPS)]
    assert cover.check(0, "verdict ok\n") is None
    assert cover.known_fault(1, "verdict unmet tasks: 1\n") is None
    assert odd_head.check(1, "verdict unmet tasks: 1\n") is None
    assert odd_head.known_fault(0, "verdict ok\n") is None
    for op in (cover, odd_head):
        assert op.known_fault(2, "error fuel exhausted\n")
        assert op.known_fault(1, "verdict unmet tasks: 2\n")
    assert cover.known_fault(0, "verdict ok\n")
    assert odd_head.known_fault(1, "verdict unmet tasks: 1\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_operations(tmp_path, name):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    ops_a = workloads.WORKLOADS[name](random.Random(7), a).ops
    ops_b = workloads.WORKLOADS[name](random.Random(7), b).ops
    assert [op.kind for op in ops_a] == [op.kind for op in ops_b]
    assert sorted(p.read_text() for p in a.iterdir()) == sorted(p.read_text() for p in b.iterdir())
    assert len(ops_a) >= 100


def test_a_round_joins_distinct_instances(tmp_path):
    wl = workloads.build("periodic-forcing", 1, tmp_path)
    parts = [tmp_path / str(i) for i in range(workloads.INSTANCES)]
    assert sorted(tmp_path.iterdir()) == parts
    size = len(wl.ops) // workloads.INSTANCES
    kinds = [[op.kind for op in wl.ops[i * size:(i + 1) * size]] for i in range(workloads.INSTANCES)]
    assert all(k == kinds[0] for k in kinds)
    texts = [sorted(p.read_text() for p in part.iterdir()) for part in parts]
    assert len(set(map(tuple, texts))) == workloads.INSTANCES


def run_bench(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "free-classes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=180)


def test_refuses_a_lowered_ground_bound():
    proc = run_bench(BENCH.parent, {**os.environ, "MATROID_FORGE_MAX_GROUND": "8"})
    assert proc.returncode != 0
    assert "MATROID_FORGE_MAX_GROUND" in proc.stderr and not proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "MATROID_FORGE_MAX_GROUND"}
    proc = run_bench(tmp_path, env)
    assert proc.returncode != 0 and not proc.stdout
