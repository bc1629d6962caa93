"""Declared bounds, their environment-variable override, and concurrent query safety."""

import random
import threading
import time

import pytest

from matroid_forge import (
    BoundError,
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    check_base_axioms,
    classify_truncation,
    enumerate_gen_truncations,
    truncate_to,
)
from matroid_forge.cli import EXIT_OK, EXIT_USAGE, dispatch
from matroid_forge.core import LINEAR_MAX_PRIME, UNIFORM_MAX_GROUND, exhaustive_bound

# K5 plus a pendant path of three edges: a graphic matroid on 13 elements
K5_PLUS_PATH = [(u, v) for i, u in enumerate("abcde") for v in "abcde"[i + 1:]] + [
    ("e", "f"), ("f", "g"), ("g", "h")
]


class TestBoundOverride:
    def test_lowers_only(self, monkeypatch):
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "8")
        assert exhaustive_bound(12) == 8
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "40")
        assert exhaustive_bound(12) == 12

    def test_axiom_check_respects_override(self, monkeypatch):
        ground = set(range(1, 10))
        fam = [frozenset(ground)]
        assert check_base_axioms(ground, fam).ok
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "8")
        with pytest.raises(BoundError):
            check_base_axioms(ground, fam)


class TestEnumerationBounds:
    """Enumerating paths refuse a ground set past the declared bound before any work."""

    @pytest.fixture()
    def files(self, tmp_path):
        texts = {
            "u13": "matroid u13\nkind uniform\nparams k=6 n=13\n",
            "g13": "matroid g13\nkind graphic\n"
                   + "".join(f"edge {u} {v}\n" for u, v in K5_PLUS_PATH),
            "u9": "matroid u9\nkind uniform\nparams k=4 n=9\n",
            "l13": "matroid l13\nkind linear\nprime 3\n"
                   + "".join("row " + " ".join(str((i * j + i) % 3) for j in range(13)) + "\n"
                             for i in range(3)),
        }
        for name, text in texts.items():
            (tmp_path / f"{name}.txt").write_text(text)
        return {name: str(tmp_path / f"{name}.txt") for name in texts}

    def commands(self, path):
        return [
            ["truncate", "--level", "trivial", "--matroid", path],
            ["truncate", "--level", "2", "--matroid", path],
            ["truncate", "--level", "-1", "--matroid", path],
            ["classify-truncation", "--matroid", path, "--candidate", path],
            ["axioms", "check", "--matroid", path],
        ]

    def test_thirteen_elements_exit_two(self, files):
        for name in ("u13", "g13"):
            for argv in self.commands(files[name]):
                code, report = dispatch(argv)
                errors = [v for k, v in report.rows if k == "error"]
                assert code == EXIT_USAGE, (name, argv)
                assert errors and "limited to 12 elements, got 13" in errors[0], (name, argv)

    def test_bound_checked_before_any_rank(self, files, monkeypatch):
        # no command may rank a set of a ground past the bound, even to check a level
        calls = []
        rank_of = LinearMatroid._rank_of

        def counted(matroid, mask):
            calls.append(mask)
            return rank_of(matroid, mask)

        monkeypatch.setattr(LinearMatroid, "_rank_of", counted)
        for argv in self.commands(files["l13"]):
            code, report = dispatch(argv)
            errors = [v for k, v in report.rows if k == "error"]
            assert code == EXIT_USAGE, argv
            assert errors and "limited to 12 elements, got 13" in errors[0], argv
        assert calls == []

    def test_override_lowers_bound(self, files, monkeypatch):
        for argv in self.commands(files["u9"]):
            assert dispatch(argv)[0] == EXIT_OK, argv
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "8")
        for argv in self.commands(files["u9"]):
            assert dispatch(argv)[0] == EXIT_USAGE, argv

    def test_level_enumeration_bound(self, tmp_path, monkeypatch):
        with pytest.raises(BoundError, match="level enumeration limited to 10 elements, got 11"):
            enumerate_gen_truncations(UniformMatroid(2, 11))
        path = tmp_path / "u211.txt"
        path.write_text("matroid u211\nkind uniform\nparams k=2 n=11\n")
        code, report = dispatch(["gentrunc", "enumerate", "--matroid", str(path)])
        assert code == EXIT_USAGE
        assert ("error", "level enumeration limited to 10 elements, got 11") in report.rows
        assert len(enumerate_gen_truncations(UniformMatroid(2, 6))) == 3
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "5")
        with pytest.raises(BoundError, match="level enumeration limited to 5 elements, got 6"):
            enumerate_gen_truncations(UniformMatroid(2, 6))

    def test_library_guards(self, monkeypatch):
        u9 = UniformMatroid(4, 9)
        explicit = ExplicitMatroid(u9.ground, u9.bases(), _checked=True)
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "8")
        for call in (UniformMatroid(4, 9).bases, lambda: truncate_to(u9, 2),
                     lambda: classify_truncation(u9, explicit)):
            with pytest.raises(BoundError):
                call()
        # an explicit base list is not enumerated, so it is not guarded
        assert len(explicit.bases()) == 126


class TestConstructionBounds:
    """A tiny file asking for a huge uniform ground or prime is refused before any work."""

    @pytest.mark.parametrize("text, error", [
        ("matroid u\nkind uniform\nparams k=1 n=10000000\n",
         "line 3: uniform matroid limited to 65536 elements, got 10000000"),
        ("matroid l\nkind linear\nprime 2305843009213693951\nrow 1 0\n",
         "line 3: linear matroid prime limited to 2147483648, got 2305843009213693951"),
    ])
    def test_huge_parameter_exits_two_fast(self, tmp_path, text, error):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        start = time.perf_counter()
        code, report = dispatch(["axioms", "check", "--matroid", str(path)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert ("error", error) in report.rows

    def test_bounds_are_inclusive_and_not_lowered(self, monkeypatch):
        monkeypatch.setenv("MATROID_FORGE_MAX_GROUND", "5")
        assert len(UniformMatroid(1, UNIFORM_MAX_GROUND).ground) == UNIFORM_MAX_GROUND
        assert LinearMatroid(LINEAR_MAX_PRIME - 1, [[1, 2]]).full_rank == 1  # 2^31 - 1 is prime
        with pytest.raises(BoundError):
            UniformMatroid(1, UNIFORM_MAX_GROUND + 1)
        with pytest.raises(BoundError):
            LinearMatroid(LINEAR_MAX_PRIME + 1, [[1]])


def test_concurrent_queries_agree():
    # one matroid queried from many threads: results match a serial pass
    m = GraphicMatroid(
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "a"), ("b", "d")]
    )
    rng = random.Random(0)
    queries = [
        frozenset(e for e in m.ground if rng.random() < 0.5) for _ in range(400)
    ]
    expected = [m.rank(q) for q in queries]
    results: dict[int, list[int]] = {}

    def worker(idx: int) -> None:
        results[idx] = [m.rank(q) for q in queries]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got in results.values():
        assert got == expected

    u = UniformMatroid(2, 4)
    assert u.rank({1, 2, 3}) == 2  # unrelated instance unaffected
