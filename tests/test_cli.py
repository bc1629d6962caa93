import json
import time

import pytest

from matroid_forge import UniformMatroid
from matroid_forge.cli import EXIT_UNKNOWN, EXIT_USAGE, _run, build_parser, dispatch, main
from matroid_forge.equivalence import UNKNOWN
from matroid_forge.cli import _tri_exit
from matroid_forge.files import parse_matroid_text


def report_rows(report):
    out = {}
    for k, v in report.rows:
        out.setdefault(k, []).append(v)
    return out


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
        for spec in (f"template d={huge} res=0", f"template t={huge}",
                     f"template minus={huge}", f"set {huge}"):
            start = time.perf_counter()
            code, _ = dispatch([
                "equiv", "classify", "--matroid", str(workdir / "free.txt"), "--set", spec,
            ])
            assert code == EXIT_USAGE
            assert time.perf_counter() - start < 1

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

    def test_gentrunc_verify_finitary(self, workdir):
        code, report = dispatch([
            "gentrunc", "verify-finitary", "--matroid", str(workdir / "free.txt"),
            "--family", str(workdir / "fam.txt"),
            "--tasks", str(workdir / "task.txt"),
        ])
        assert code == 1  # [mult 4] cannot settle (empty, odds)
        assert "unmet" in report_rows(report)

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

    def test_forcing_claims_violation(self, workdir):
        (workdir / "full.txt").write_text("family whole\nclass all\n")
        code, report = dispatch([
            "forcing", "check-claims", "--matroid", str(workdir / "free.txt"),
            "--family", str(workdir / "full.txt"),
            "--task", str(workdir / "task.txt"),
        ])
        assert code == 1
        assert "claim2-violated" in report_rows(report)["verdict"][0]

    def test_comparable_family_rows(self, workdir):
        # in sort_key order (mult 4, mult 8) is the first comparable pair,
        # although (8k+2, 4k+2) comes first in the file
        (workdir / "cmp.txt").write_text(
            "family cmp\nclass template d=8 res=2\nclass template d=4 res=2\n"
            "class odds\nclass mult 8\nclass mult 4\n"
        )
        free, fam = str(workdir / "free.txt"), str(workdir / "cmp.txt")
        code, report = dispatch(["gentrunc", "verify-finitary", "--matroid", free, "--family", fam])
        assert code == 1
        pair = "template d=4 res=0 t=0, template d=8 res=0 t=0"
        assert report_rows(report)["verdict"] == [f"violation(3; {pair})"]
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
        assert dispatch(["selftest", "lemmas"])[0] == 0
        assert dispatch(["selftest", "oracle"])[0] == 0


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
