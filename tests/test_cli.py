import hashlib
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from matroid_forge import (
    ExplicitMatroid,
    FreeMatroid,
    OracleMatroid,
    PeriodicSumMatroid,
    UniformMatroid,
    cotruncate,
    enumerate_gen_truncations,
    enumerate_raw,
    relative_rank_difference_check,
    strongly_equivalent,
    truncate_to,
    verify_family,
    verify_is_gen_truncation,
)
from matroid_forge import selftest as st
from matroid_forge.cli import EXIT_UNKNOWN, EXIT_USAGE, _run, build_parser, dispatch, main
from matroid_forge.equivalence import UNKNOWN
from matroid_forge.cli import _tri_exit
from matroid_forge.files import parse_matroid_text


def report_rows(report):
    out = {}
    for k, v in report.rows:
        out.setdefault(k, []).append(v)
    return out


def verdict_lines(capsys, argv):
    """(exit code, `verdict` and `unmet` lines of the text report); JSON must agree."""
    code = main(argv)
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith(("verdict ", "unmet "))]
    assert main(["--json", *argv]) == code
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [f"{k} {v}" for k, v in rows if k in ("verdict", "unmet")] == lines
    return code, lines


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "u34.txt").write_text("matroid u34\nkind uniform\nparams k=3 n=4\n")
    (tmp_path / "ex.txt").write_text(
        "matroid pair\nkind explicit\nground 1 2 3\nbase 1 2\nbase 2 3\n"
    )
    (tmp_path / "free.txt").write_text("matroid f\nkind free\n")
    (tmp_path / "ds.txt").write_text(
        "matroid ds\nkind periodic-sum\ncomponent kind uniform\ncomponent params k=1 n=2\n"
    )
    (tmp_path / "fam.txt").write_text("family seeds\nclass mult 4\n")
    (tmp_path / "famfin.txt").write_text("family t\nset 1 2\nset 1 3\nset 2 3\n")
    (tmp_path / "badfam.txt").write_text("family bad\nset 1 2\n")
    (tmp_path / "task.txt").write_text("task t0\nlower set\nupper odds\n")
    return tmp_path


class TestExitCodes:
    def test_ok_is_zero(self, workdir):
        code, _ = dispatch(["axioms", "check", "--matroid", str(workdir / "ex.txt")])
        assert code == 0

    def test_violation_is_one(self, workdir):
        code, report = dispatch([
            "gentrunc", "verify",
            "--matroid", str(workdir / "u34.txt"),
            "--family", str(workdir / "badfam.txt"),
        ])
        assert code == 1
        assert "violation" in report_rows(report)["verdict"][0]

    def test_usage_is_two(self, workdir):
        code, report = dispatch(["axioms", "check", "--matroid", str(workdir / "missing.txt")])
        assert code == 2
        code, _ = dispatch(["equiv", "strong", "--matroid", str(workdir / "free.txt")])
        assert code == 2

    def test_hostile_template_is_two(self, workdir):
        huge = 10**12
        (workdir / "wide.txt").write_text(
            "matroid w\nkind periodic-sum\ncomponent kind uniform\ncomponent params k=1 n=64\n")
        # the last two have tail cycles of 15,625 and 15,627 blocks of 64
        # elements: 10**6 elements is the limit
        for matroid, spec, code in (
            ("free.txt", f"template d={huge} res=0", EXIT_USAGE),
            ("free.txt", f"template t={huge}", EXIT_USAGE),
            ("free.txt", f"template minus={huge}", EXIT_USAGE),
            ("free.txt", f"set {huge}", EXIT_USAGE),
            ("wide.txt", "template d=999983 res=0", EXIT_USAGE),
            ("wide.txt", "template d=15627 res=0", EXIT_USAGE),
            ("wide.txt", "template d=15625 res=0", 0),
        ):
            start = time.perf_counter()
            got, report = dispatch([
                "equiv", "classify", "--matroid", str(workdir / matroid), "--set", spec,
            ])
            assert got == code, spec
            assert time.perf_counter() - start < 1
        assert report_rows(report)["class"] == ["wild-candidate"]

    @pytest.mark.parametrize("matroid, spec, error", [
        ("matroid l\nkind linear\nprime\nrow 1 0\n", None,
         "line 3: prime takes exactly one value"),
        ("matroid u\nkind uniform\nparams k=a n=3\n", None,
         "line 3: expected an integer, got 'a'"),
        ("matroid u\nkind uniform\nparams k=1 n=3 q=7\n", None,
         "line 3: unknown params fields ['q']"),
        (None, "template d=abc res=0", "line 1: expected an integer, got 'abc'"),
        (None, "template t=x", "line 1: expected an integer, got 'x'"),
        (None, "template d=4 res=a", "line 1: expected integers, got a"),
    ])
    def test_malformed_number_is_two(self, workdir, matroid, spec, error):
        # a malformed number is a parse error naming its line once, not a crash
        if matroid is None:
            argv = ["equiv", "classify", "--matroid", str(workdir / "free.txt"), "--set", spec]
        else:
            (workdir / "bad.txt").write_text(matroid)
            argv = ["axioms", "check", "--matroid", str(workdir / "bad.txt")]
        code, report = dispatch(argv)
        assert code == EXIT_USAGE
        assert report_rows(report)["error"] == [error]

    def test_setspec_errors_name_their_line(self, workdir):
        # a `set` member the template refuses and a shorthand with extra words
        # are parse errors naming their line, as a bad `template` line is
        (workdir / "negfam.txt").write_text("family f\nclass evens\nclass set -1\n")
        for argv, error in (
            (["gentrunc", "verify-finitary", "--family", str(workdir / "negfam.txt")],
             "line 3: template members are natural numbers"),
            (["equiv", "classify", "--set", "evens 3"], "line 1: evens takes no arguments"),
        ):
            code, report = dispatch([*argv, "--matroid", str(workdir / "free.txt")])
            assert (code, report_rows(report)["error"]) == (EXIT_USAGE, [error]), argv

    def test_forcing_depth_past_the_bound_is_two(self, workdir, monkeypatch):
        calls = []
        rank = FreeMatroid.relative_rank
        monkeypatch.setattr(FreeMatroid, "relative_rank",
                            lambda *args: calls.append(args) or rank(*args))
        start = time.perf_counter()
        code, report = dispatch([
            "forcing", "step", "--matroid", str(workdir / "free.txt"),
            "--family", str(workdir / "fam.txt"), "--task", str(workdir / "task.txt"),
            "--depth", "1001",
        ])
        assert time.perf_counter() - start < 1
        assert (code, report_rows(report)["error"]) == (
            EXIT_USAGE, ["forcing depth limited to 1000, got 1001"])
        assert calls == []

    def test_false_equiv_is_one(self, workdir):
        code, _ = dispatch([
            "equiv", "almost-spans",
            "--matroid", str(workdir / "free.txt"),
            "--left", "evens", "--right", "odds",
        ])
        assert code == 1

    def test_unknown_maps_to_three(self):
        # no supported schema produces unknown; the mapping is still part of
        # the contract and is pinned here
        assert _tri_exit(UNKNOWN) == EXIT_UNKNOWN

    def test_argparse_usage_error(self, workdir):
        assert main(["no-such-command"]) == EXIT_USAGE
        free = str(workdir / "free.txt")
        for command in (
            ["equiv", "classify", "--matroid", free, "--set", "evens"],
            ["gentrunc", "verify-finitary", "--matroid", free, "--family", str(workdir / "fam.txt")],
            ["forcing", "seed", "--matroid", free, "--prefix", "1"],
        ):
            assert main(command) == 0
            assert main(command + ["--fuel", "256"]) == EXIT_USAGE


class TestFileErrors:
    """A file that cannot be read, decoded or written exits 2 with an error naming it."""

    def test_directory_input(self, workdir):
        code, report = dispatch(["axioms", "check", "--matroid", str(workdir)])
        assert code == EXIT_USAGE
        assert report_rows(report)["error"] == [
            f"cannot read matroid file {workdir}: Is a directory"]

    def test_undecodable_input(self, workdir):
        path = workdir / "bom.txt"
        path.write_bytes(b"\xff\xfe")
        code, report = dispatch(["axioms", "check", "--matroid", str(path)])
        assert code == EXIT_USAGE
        assert report_rows(report)["error"] == [
            f"cannot decode matroid file {path} as UTF-8: invalid start byte at byte 0"]

    def test_unwritable_report(self, workdir, capsys):
        target = workdir / "missing" / "r.txt"
        code = main(["--report", str(target), "axioms", "check",
                     "--matroid", str(workdir / "ex.txt")])
        out = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "verdict ok" in out.out
        assert out.err == f"error cannot write report file {target}: No such file or directory\n"

    @pytest.mark.parametrize("argv, label", [
        (["truncate", "--level", "-1", "--matroid", "u34.txt"], "matroid"),
        (["forcing", "seed", "--matroid", "free.txt", "--prefix", "01"], "family"),
    ])
    def test_unwritable_out(self, workdir, argv, label):
        target = workdir / "missing" / "x.txt"
        argv = [str(workdir / a) if a.endswith(".txt") else a for a in argv]
        code, report = dispatch([*argv, "--out", str(target)])
        assert code == EXIT_USAGE
        assert report_rows(report)["error"] == [
            f"cannot write {label} file {target}: No such file or directory"]


class TestTaskErrors:
    """`gentrunc verify-finitary` and `forcing step` refuse a bad task or family alike."""

    @pytest.mark.parametrize("matroid, family, task, error", [
        ("ds.txt", "fam.txt", "task t\nlower all\nupper all\n", "lower set is not independent"),
        ("free.txt", "fam.txt", "task t\nlower odds\nupper evens\n",
         "lower set must be contained in the upper set"),
        ("free.txt", "famfin.txt", "task t\nlower set\nupper odds\n",
         "finitary families take `class` lines"),
    ], ids=["dependent-lower", "not-nested", "set-family"])
    def test_same_error_rows(self, workdir, matroid, family, task, error):
        (workdir / "bad-task.txt").write_text(task)
        common = ["--matroid", str(workdir / matroid), "--family", str(workdir / family)]
        tasks = str(workdir / "bad-task.txt")
        for argv in (["gentrunc", "verify-finitary", *common, "--tasks", tasks],
                     ["forcing", "step", *common, "--task", tasks]):
            code, report = dispatch(argv)
            assert (code, report_rows(report)["error"]) == (EXIT_USAGE, [error]), argv

    @pytest.mark.parametrize("action", ["step", "check-claims"])
    def test_forcing_refuses_a_second_task(self, workdir, action):
        # task a alone gives `ok`; task b is not even nested, and a forcing
        # command would not read it
        (workdir / "two.txt").write_text("task a\nlower set\nupper odds\n"
                                         "task b\nlower odds\nupper evens\n")
        code, report = dispatch(["forcing", action, "--matroid", str(workdir / "free.txt"),
                                 "--family", str(workdir / "fam.txt"),
                                 "--task", str(workdir / "two.txt")])
        rows = report_rows(report)
        assert (code, rows["error"]) == (EXIT_USAGE,
                                         [f"{action} takes one task per --task file, got 2"])
        assert "task" not in rows


def test_readme_cli_block_parses():
    """Every command line of the README's CLI block parses, with and without its `[...]` parts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("matroid-forge ")]
    assert lines
    for line in lines:
        for text in (re.sub(r"\s*\[[^]]*\]", "", line), re.sub(r"\[([^]]*)\]", r"\1", line)):
            try:
                build_parser().parse_args(shlex.split(text)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {text}")


class TestCommands:
    def test_truncate_emits_matroid(self, workdir, capsys):
        out = workdir / "u24.txt"
        code, _ = dispatch([
            "truncate", "--level=-1",
            "--matroid", str(workdir / "u34.txt"),
            "--out", str(out),
        ])
        assert code == 0
        produced = parse_matroid_text(out.read_text())
        assert produced.bases_set() == UniformMatroid(2, 4).bases_set()

    def test_classify_truncation(self, workdir):
        out = workdir / "u24.txt"
        dispatch(["truncate", "--level", "2", "--matroid", str(workdir / "u34.txt"),
                  "--out", str(out)])
        code, report = dispatch([
            "classify-truncation", "--matroid", str(workdir / "u34.txt"),
            "--candidate", str(out),
        ])
        assert code == 0
        assert report_rows(report)["level"] == ["2"]
        code, report = dispatch([
            "classify-truncation", "--matroid", str(workdir / "u34.txt"),
            "--candidate", str(workdir / "u34.txt"),
        ])
        assert report_rows(report)["level"] == ["trivial"]

    def test_equiv_strong(self, workdir):
        code, _ = dispatch([
            "equiv", "strong", "--matroid", str(workdir / "free.txt"),
            "--left", "set 0 1", "--right", "set 1 2",
        ])
        assert code == 0

    def test_equiv_rejects_infinite_spec_on_finite_matroid(self, workdir):
        (workdir / "u24.txt").write_text("matroid u\nkind uniform\nparams k=2 n=4\n")
        code, _ = dispatch([
            "equiv", "strong", "--matroid", str(workdir / "u24.txt"),
            "--left", "evens", "--right", "odds",
        ])
        assert code == EXIT_USAGE

    def test_equiv_classify(self, workdir):
        # the second inline spec is longer than a file name may be
        low = ",".join(str(n) for n in range(0, 300, 3))
        for spec in ("evens", f"template d=4 res=1 t=300 low={low}"):
            code, report = dispatch([
                "equiv", "classify", "--matroid", str(workdir / "free.txt"),
                "--set", spec,
            ])
            assert code == 0
            assert report_rows(report)["class"] == ["wild-candidate"]

    def test_gentrunc_enumerate(self, workdir):
        (workdir / "u23.txt").write_text("matroid u23\nkind uniform\nparams k=2 n=3\n")
        code, report = dispatch(["gentrunc", "enumerate", "--matroid", str(workdir / "u23.txt")])
        assert code == 0
        assert report_rows(report)["families"] == ["3"]
        code, raw = dispatch(["gentrunc", "enumerate", "--raw",
                              "--matroid", str(workdir / "u23.txt")])
        assert report_rows(raw)["families"] == ["3"]

    def test_gentrunc_verify_ok(self, workdir):
        (workdir / "u23.txt").write_text("matroid u23\nkind uniform\nparams k=2 n=3\n")
        code, report = dispatch([
            "gentrunc", "verify", "--matroid", str(workdir / "u23.txt"),
            "--family", str(workdir / "famfin.txt"),
        ])
        assert code == 0
        assert report_rows(report)["definition-check"] == ["ok"]

    def test_gentrunc_verify_finitary(self, workdir, capsys):
        argv = ["gentrunc", "verify-finitary", "--matroid", str(workdir / "free.txt"),
                "--family", str(workdir / "fam.txt")]
        assert verdict_lines(capsys, argv) == (0, ["verdict ok"])
        # [mult 4] cannot settle (empty, odds)
        assert verdict_lines(capsys, [*argv, "--tasks", str(workdir / "task.txt")]) == (1, [
            "verdict unmet tasks: 1", "unmet lower=(set ) upper=(template d=2 res=1 t=0)"])

    def test_forcing_step(self, workdir):
        code, report = dispatch([
            "forcing", "step", "--matroid", str(workdir / "free.txt"),
            "--family", str(workdir / "fam.txt"),
            "--task", str(workdir / "task.txt"),
            "--depth", "3",
        ])
        assert code == 0
        got = report_rows(report)
        assert got["condition"] == ["{1->1, 3->1, 5->1}"]
        assert len([m for m in got["met"]]) == 3

        # both classes are gain and guard classes on the periodic sum; the
        # depth-3 guard rows meet their dense sets with no new assignment
        (workdir / "blocks.txt").write_text(
            "family blocks\nclass template d=4 res=0\nclass template d=4 res=3\n")
        (workdir / "blocktask.txt").write_text("task t\nlower set\nupper template d=4 res=0,3\n")
        code, report = dispatch([
            "forcing", "step", "--matroid", str(workdir / "ds.txt"),
            "--family", str(workdir / "blocks.txt"),
            "--task", str(workdir / "blocktask.txt"),
            "--depth", "3",
        ])
        assert code == 0
        got = report_rows(report)
        a, b = "rep=(template d=4 res=0 t=0)", "rep=(template d=4 res=3 t=0)"
        assert got["condition"] == [
            "{0->1, 3->1, 4->0, 7->0, 8->1, 11->1, 12->0, 15->0, 16->0, 19->0, 20->1, 23->1}"]
        assert got["met"] == [
            f"gain {a} n=1 add=[3->1] rank=1",
            f"gain {b} n=1 add=[0->1] rank=1",
            f"guard {a} n=1 add=[4->0] rank=1",
            f"guard {b} n=1 add=[7->0] rank=1",
            f"gain {a} n=2 add=[11->1] rank=2",
            f"gain {b} n=2 add=[8->1] rank=2",
            f"guard {a} n=2 add=[12->0, 16->0] rank=3",
            f"guard {b} n=2 add=[15->0, 19->0] rank=3",
            f"gain {a} n=3 add=[23->1] rank=3",
            f"gain {b} n=3 add=[20->1] rank=3",
            f"guard {a} n=3 add=[-] rank=3",
            f"guard {b} n=3 add=[-] rank=3",
        ]
        assert got["forced-in"] == ["set 0 3 8 11 20 23"]
        assert got["excluded"] == ["{4,7,12,15,16,19}"]
        assert got["evidence"] == [
            f"gain {a} rank=3 >= 3",
            f"gain {b} rank=3 >= 3",
            f"guard {a} rank=3 >= 3",
            f"guard {b} rank=3 >= 3",
        ]

    def test_guard_witness_far_past_the_head(self, workdir):
        # every guard swap on sums of U(2,4) meets a dependent block of the upper set
        # 25,000 blocks in; the partner is decided on that block, not found by a scan
        (workdir / "u24.txt").write_text(
            "matroid u24\nkind periodic-sum\ncomponent kind uniform\ncomponent params k=2 n=4\n")
        (workdir / "far.txt").write_text("family far\nclass template d=4 res=2 t=100000\n")
        (workdir / "halves.txt").write_text("task t\nlower set\nupper template d=4 res=0,1\n")
        code, report = dispatch([
            "forcing", "step", "--matroid", str(workdir / "u24.txt"),
            "--family", str(workdir / "far.txt"),
            "--task", str(workdir / "halves.txt"),
            "--depth", "3",
        ])
        assert code == 0
        got = report_rows(report)
        assert got["excluded"] == ["{100000,100001,100004,100005,100008,100012}"]
        assert got["verdict"] == ["ok"]

    def test_drifting_rank_ledger_is_an_error(self, workdir, monkeypatch):
        # a schema whose local rank change lies fails the re-check before any evidence
        change = PeriodicSumMatroid.rank_change
        monkeypatch.setattr(PeriodicSumMatroid, "rank_change",
                            lambda *args, **kw: change(*args, **kw) + 1)
        (workdir / "ab.txt").write_text("family ab\nclass template d=4 res=0\n"
                                        "class template d=4 res=3\n")
        (workdir / "both.txt").write_text("task t\nlower set\nupper template d=4 res=0,3\n")
        code, report = dispatch([
            "forcing", "step", "--matroid", str(workdir / "ds.txt"),
            "--family", str(workdir / "ab.txt"), "--task", str(workdir / "both.txt"),
            "--depth", "3",
        ])
        got = report_rows(report)
        assert code == EXIT_USAGE
        assert got["error"] == ["certificate failed independent re-verification"]
        assert "evidence" not in got

    def test_forcing_claims_violation(self, workdir, capsys):
        # evens with 0 swapped for 1 has evens in its class, which settles (evens, all)
        (workdir / "full.txt").write_text("family whole\nclass all\n")
        (workdir / "swap.txt").write_text("family swap\nclass template d=2 res=0 t=2 low=1\n")
        (workdir / "wide.txt").write_text("task t1\nlower evens\nupper all\n")
        cases = [
            ("full.txt", "task.txt", "claim2-violated(template d=1 res=0 t=0)"),
            ("fam.txt", "wide.txt", "claim1-violated(template d=4 res=0 t=0)"),
            ("swap.txt", "wide.txt", "task-satisfiable-directly(template d=2 res=0 t=0)"),
        ]
        for family, task, verdict in cases:
            for action in ("check-claims", "step"):  # step reports its ClaimError
                argv = ["forcing", action, "--matroid", str(workdir / "free.txt"),
                        "--family", str(workdir / family), "--task", str(workdir / task)]
                assert verdict_lines(capsys, argv) == (1, [f"verdict {verdict}"])

    def test_comparable_family_rows(self, workdir, capsys):
        # in sort_key order (mult 4, mult 8) is the first comparable pair,
        # although (8k+2, 4k+2) comes first in the file
        (workdir / "cmp.txt").write_text(
            "family cmp\nclass template d=8 res=2\nclass template d=4 res=2\n"
            "class odds\nclass mult 8\nclass mult 4\n"
        )
        free, fam = str(workdir / "free.txt"), str(workdir / "cmp.txt")
        pair = "template d=4 res=0 t=0, template d=8 res=0 t=0"
        argv = ["gentrunc", "verify-finitary", "--matroid", free, "--family", fam]
        assert verdict_lines(capsys, argv) == (1, [f"verdict violation(3; {pair})"])
        for action in ("check-claims", "step"):
            code, report = dispatch(["forcing", action, "--matroid", free, "--family", fam,
                                     "--task", str(workdir / "task.txt")])
            assert code == 2
            assert pair.replace(", ", " and ") in report_rows(report)["error"][0]

    def test_equivalent_classes_refused(self, workdir):
        # evens with 0 swapped for 1 names the class of evens
        (workdir / "same.txt").write_text(
            "family same\nclass mult 4\nclass evens\nclass template d=2 res=0 t=2 low=1\n"
        )
        free, fam = str(workdir / "free.txt"), str(workdir / "same.txt")
        task = ["--task", str(workdir / "task.txt")]
        for argv in (["gentrunc", "verify-finitary"], ["forcing", "check-claims", *task],
                     ["forcing", "step", *task]):
            code, report = dispatch([*argv, "--matroid", free, "--family", fam])
            assert code == 2
            assert "name the same class" in report_rows(report)["error"][0]

    def test_forcing_seed(self, workdir):
        out = workdir / "seed.txt"
        code, report = dispatch([
            "forcing", "seed", "--matroid", str(workdir / "free.txt"),
            "--prefix", "10", "--out", str(out),
        ])
        assert code == 0
        assert "class" in out.read_text()

    def test_selftest(self, workdir):
        lemmas = ["relative-rank-additivity", "cotruncation-meets-truncation",
                  "finite-equivalence-is-equal-size", "relative-rank-difference-check",
                  "template-almost-spanning", "template-vs-restriction-rank",
                  "rank-change-is-local"]
        oracle = ["enumeration-matches-raw-oracle", "family-check-matches-definition"]
        for action, names in (("lemmas", lemmas), ("oracle", oracle)):
            code, report = dispatch(["selftest", action])
            assert code == 0
            assert report_rows(report)["check"] == [f"{name} ok" for name in names]


class Skewed(UniformMatroid):
    """A uniform matroid whose relative rank counts element 1 twice."""

    def relative_rank(self, xs, ys):
        return super().relative_rank(xs, ys) + (1 in xs)


class OffByOne(FreeMatroid):
    def relative_rank(self, xs, ys):
        return super().relative_rank(xs, ys) + 1


class ChangeOffByOne(PeriodicSumMatroid):
    """Sums of U(2,4) whose local rank change is one too large."""

    def rank_change(self, xs, ys, add=(), remove=()):
        return super().rank_change(xs, ys, add, remove) + 1


SKEWED, OFF_BY_ONE = Skewed(2, 4), OffByOne()
CHANGE_OFF = ChangeOffByOne(UniformMatroid(2, 4))
LOPSIDED = ExplicitMatroid({1, 2, 3}, [{1, 2}, {3}], _checked=True)  # bases break exchange
DROPPING = OracleMatroid({1, 2}, lambda s: len(s) % 2)  # r({1, 2}) = 0 < r({1})
rr = SKEWED.relative_rank

# tag -> (the invariant on a wrong input, whether its law fails on the witness alone)
WRONG_INPUTS = {
    "additivity": (lambda: st.chain_additivity(SKEWED, st.every_chain(SKEWED.ground)),
                   lambda a, b, c: rr(a, c) != rr(b, c) + rr(a, b)),
    "cotruncation": (lambda: st.cotruncation_meets_truncation(LOPSIDED),
                     lambda k: cotruncate(LOPSIDED, k).bases_set()
                     != truncate_to(LOPSIDED, LOPSIDED.full_rank - k).bases_set()),
    "balanced-difference": (lambda: st.balanced_difference_law(SKEWED),
                            lambda a, b: bool(strongly_equivalent(SKEWED, a, b))
                            != (len(a) == len(b))),
    "difference-check": (lambda: st.difference_check_law(SKEWED),
                         lambda a, b, x: relative_rank_difference_check(SKEWED, a, b, x)
                         != bool(strongly_equivalent(SKEWED, a, b))),
    "restriction": (lambda: st.restriction_agreement(OFF_BY_ONE, (8,), random.Random(0), 10, 0.3),
                    lambda n, xs, ys: OFF_BY_ONE.relative_rank(xs, ys)
                    != OFF_BY_ONE.restrict(n).relative_rank(xs, ys)),
    "rank-change": (lambda: st.local_rank_change_law(CHANGE_OFF, random.Random(0), 10),
                    lambda x, y, a, z: CHANGE_OFF.rank_change(x, y, add=a, remove=z)
                    != CHANGE_OFF.relative_rank(x | a, y - z) - CHANGE_OFF.relative_rank(x, y)),
    "enumeration": (lambda: st.enumeration_matches_raw(DROPPING),
                    lambda members: (frozenset(members) in enumerate_gen_truncations(DROPPING))
                    != (frozenset(members) in enumerate_raw(DROPPING))),
    # LOPSIDED's level {1,2} passes conditions 1-3, but {3} is an independent
    # extension of {} that the level lacks, so the definition check fails it
    "definition-bridge": (lambda: st.definition_bridge(LOPSIDED, st.level_families(LOPSIDED)),
                          lambda members: verify_family(LOPSIDED, members).ok
                          != verify_is_gen_truncation(LOPSIDED, ExplicitMatroid(
                              LOPSIDED.ground, members, _checked=True)).ok),
}


@pytest.mark.parametrize("tag", WRONG_INPUTS)
def test_invariant_flags_wrong_input(tag):
    run, fails_on = WRONG_INPUTS[tag]
    verdict = run()
    assert verdict.tag == tag and fails_on(*verdict.witness)


class TestReports:
    def test_deterministic_verdicts(self, workdir):
        args = ["gentrunc", "enumerate", "--matroid", str(workdir / "u34.txt")]
        _, first = dispatch(args)
        _, second = dispatch(args)
        assert first.rows == second.rows

    def test_json_rendering(self, workdir, capsys):
        code = main(["--json", "axioms", "check", "--matroid", str(workdir / "ex.txt")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert ["verdict", "ok"] in payload["rows"]

    def test_report_file(self, workdir, capsys):
        target = workdir / "report.txt"
        main(["--report", str(target), "axioms", "check", "--matroid", str(workdir / "ex.txt")])
        capsys.readouterr()
        assert "verdict ok" in target.read_text()

    def test_inputs_digested(self, workdir):
        _, report = dispatch(["axioms", "check", "--matroid", str(workdir / "ex.txt")])
        inputs = report_rows(report)["input"]
        assert len(inputs) == 1 and "sha256=" in inputs[0]

    @pytest.mark.parametrize("argv", [
        ["forcing", "step", "--matroid", "free.txt", "--family", "fam.txt", "--task", "task.txt"],
        ["gentrunc", "verify-finitary", "--matroid", "free.txt", "--family", "fam.txt",
         "--tasks", "task.txt"],
    ])
    def test_each_input_read_once(self, workdir, monkeypatch, argv):
        # every read appends a comment to the file, so a second read of it
        # would see other bytes than the first
        reads = []
        real_read = Path.read_bytes

        def read_bytes(path):
            data = real_read(path)
            reads.append((str(path), data))
            path.write_bytes(data + b"# read\n")
            return data

        def read_text(path, *args, **kwargs):
            return read_bytes(path).decode("utf-8")

        monkeypatch.setattr(Path, "read_bytes", read_bytes)
        monkeypatch.setattr(Path, "read_text", read_text)
        argv = [str(workdir / a) if a.endswith(".txt") else a for a in argv]
        code, report = dispatch(argv)
        assert code in (0, 1) and "error" not in report_rows(report)
        paths = [a for a in argv if a.endswith(".txt")]
        assert sorted(path for path, _ in reads) == sorted(paths)
        digests = {f"{path} sha256={hashlib.sha256(data).hexdigest()}" for path, data in reads}
        assert {row.split("=", 1)[1] for row in report_rows(report)["input"]} == digests


class TestParserCache:
    def test_cached_parser_matches_fresh(self, workdir, capsys):
        u34, ex, free = (str(workdir / f) for f in ("u34.txt", "ex.txt", "free.txt"))
        runs = [
            ["--json", "axioms", "check", "--matroid", ex],
            ["gentrunc", "enumerate", "--matroid", u34, "--seed", "5"],
            ["--seed", "3", "equiv", "strong", "--matroid", free,
             "--left", "set 0 1", "--right", "set 1 2", "--json"],
            ["truncate", "--level", "-1", "--matroid", u34],
            ["--json", "--seed", "7", "classify-truncation", "--matroid", u34, "--candidate", ex],
            ["selftest", "lemmas", "--seed", "2"],
        ]
        for _ in range(2):
            for argv in runs:
                fresh = build_parser.__wrapped__().parse_args(argv)
                assert vars(build_parser().parse_args(argv)) == vars(fresh)
                code, report = dispatch(argv)
                want_code, want = _run(fresh)
                assert (code, report.rows) == (want_code, want.rows), argv
            # a usage error in between leaves the shared parser intact
            assert main(["equiv", "classify", "--matroid", free, "--set", "evens",
                         "--fuel", "256"]) == EXIT_USAGE
        assert report_rows(dispatch(runs[2])[1])["seed"] == ["3"]
        assert build_parser() is build_parser()
        capsys.readouterr()
