"""Command-line entry point.

Exit codes: 0 true/ok, 1 false/violation, 2 usage or domain error, 3 unknown.
Every command produces a structured report (key/value text, or JSON with
--json) whose verdict fields are deterministic given the same inputs and
seed; input files are echoed with a sha256 digest so runs can be replayed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .core import ExplicitMatroid, FiniteMatroid, Verdict, check_base_axioms, fmt, size_order
from .equivalence import UNKNOWN, almost_spans, classify_class, strongly_equivalent
from .errors import ClaimError, MatroidForgeError
from .files import (
    emit_family_text,
    emit_matroid_text,
    parse_family_text,
    parse_matroid_text,
    parse_setspec_text,
    parse_tasks_text,
)
from .finitary import FinitaryMatroid
from .forcing import check_claim_preconditions, forcing_step, make_task, seed_family
from .gentrunc import (
    TruncationFamily,
    enumerate_gen_truncations,
    enumerate_raw,
    verify_family,
    verify_family_finitary,
    verify_is_gen_truncation,
)
from .selftest import lemma_suite, oracle_suite
from .truncation import TruncationLevel, apply_level, classify_truncation

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3


def _io_failure(action: str, label: str, path: str, exc: OSError) -> str:
    return f"cannot {action} {label} file {path}: {exc.strerror or exc}"


def _write_output(label: str, path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise MatroidForgeError(_io_failure("write", label, path, exc)) from exc


class Report:
    """Ordered key/value report; text and JSON renderings carry the same data."""

    def __init__(self, command: str, seed: int = 0):
        self.rows: list[tuple[str, str]] = [("command", command), ("seed", str(seed))]
        self.started = time.perf_counter()

    def add(self, key: str, value) -> None:
        self.rows.append((key, str(value)))

    def read_input(self, label: str, path: str) -> str:
        """The text of an input file, read once; its `input` row carries the
        sha256 of exactly the bytes returned.  A file that cannot be read or
        is not UTF-8 is an input error."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise MatroidForgeError(_io_failure("read", label, path, exc)) from exc
        self.rows.append(("input", f"{label}={path} sha256={hashlib.sha256(data).hexdigest()}"))
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MatroidForgeError(f"cannot decode {label} file {path} as UTF-8: {exc.reason} "
                                    f"at byte {exc.start}") from exc

    def to_text(self) -> str:
        elapsed = int((time.perf_counter() - self.started) * 1000)
        lines = [f"{k} {v}" for k, v in self.rows]
        lines.append(f"elapsed-ms {elapsed}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        elapsed = int((time.perf_counter() - self.started) * 1000)
        data: dict = {"rows": [[k, v] for k, v in self.rows], "elapsed_ms": elapsed}
        return json.dumps(data, indent=2) + "\n"


def _load_matroid(report: Report, path: str):
    return parse_matroid_text(report.read_input("matroid", path))


def _load_finite(report: Report, path: str) -> FiniteMatroid:
    m = _load_matroid(report, path)
    if not isinstance(m, FiniteMatroid):
        raise MatroidForgeError("this command needs a finite matroid")
    return m


def _load_finitary(report: Report, path: str) -> FinitaryMatroid:
    m = _load_matroid(report, path)
    if not isinstance(m, FinitaryMatroid):
        raise MatroidForgeError("this command needs a finitary schema (free or periodic-sum)")
    return m


def _load_classes(report: Report, matroid: FinitaryMatroid, path: str) -> TruncationFamily:
    _, mode, members = parse_family_text(report.read_input("family", path))
    if mode != "classes":
        raise MatroidForgeError("finitary families take `class` lines")
    return TruncationFamily.build(matroid, members)


def _load_setspec(report: Report, label: str, value: str):
    try:
        is_file = Path(value).is_file()
    except OSError:  # e.g. a long inline spec exceeds the file-name limit
        is_file = False
    if is_file:
        return parse_setspec_text(report.read_input(label, value))
    return parse_setspec_text(value)


def _tri_exit(value) -> int:
    if value is UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_OK if value else EXIT_VIOLATION


def _verdict_exit(report: Report, verdict: Verdict) -> int:
    """Add the `verdict` row and return its exit code: the one place a verdict is rendered.

    A forcing claim reads `claimN-violated(rep)` or
    `task-satisfiable-directly(member)`; unmet task pairs (a `4` violation,
    which only `verify_family_finitary` reports) read `unmet tasks: N`,
    followed by one `unmet` row per pair; any other verdict reads as
    `str(verdict)`.
    """
    tag, witness = verdict.tag, verdict.witness
    unmet = witness if tag == "4" else ()
    if tag in ("claim1", "claim2"):
        report.add("verdict", f"{tag}-violated({fmt(witness[0])})")
    elif tag == "task-satisfiable-directly":
        report.add("verdict", f"{tag}({fmt(witness[1])})")
    elif unmet:
        report.add("verdict", f"unmet tasks: {len(unmet)}")
    else:
        report.add("verdict", verdict)
    for lower, upper in unmet:
        report.add("unmet", f"lower=({fmt(lower)}) upper=({fmt(upper)})")
    return EXIT_OK if verdict else EXIT_VIOLATION


def _common_flags(parser: argparse.ArgumentParser, trailing: bool) -> None:
    # the flags are valid before or after the subcommand; trailing copies
    # suppress their defaults so they never clobber a leading occurrence
    absent = argparse.SUPPRESS
    parser.add_argument("--json", action="store_true",
                        default=absent if trailing else False,
                        help="emit the report as JSON")
    parser.add_argument("--report", metavar="PATH",
                        default=absent if trailing else None,
                        help="also write the report to a file")
    parser.add_argument("--seed", type=int,
                        default=absent if trailing else 0,
                        help="seed for randomized suites")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared.

    Parsing leaves the parser unchanged, so one instance serves every call;
    `build_parser.__wrapped__()` builds a fresh one.
    """
    parser = argparse.ArgumentParser(
        prog="matroid-forge",
        description="matroid truncation workbench",
    )
    _common_flags(parser, trailing=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("axioms", help="base-axiom checks")
    p.add_argument("action", choices=["check"])
    p.add_argument("--matroid", required=True)

    p = sub.add_parser("truncate", help="apply a truncation level")
    p.add_argument("--level", required=True, help="k, -n, or 'trivial'")
    p.add_argument("--matroid", required=True)
    p.add_argument("--out", help="write the resulting matroid file here")

    p = sub.add_parser("classify-truncation", help="find the level relating two matroids")
    p.add_argument("--matroid", required=True)
    p.add_argument("--candidate", required=True)

    p = sub.add_parser("equiv", help="almost-spanning and strong equivalence")
    p.add_argument("action", choices=["strong", "almost-spans", "classify"])
    p.add_argument("--matroid", required=True)
    p.add_argument("--left", help="set spec (inline or file)")
    p.add_argument("--right", help="set spec (inline or file)")
    p.add_argument("--set", dest="single", help="set spec for classify")

    p = sub.add_parser("gentrunc", help="generalised-truncation verification")
    p.add_argument("action", choices=["verify", "enumerate", "verify-finitary"])
    p.add_argument("--matroid", required=True)
    p.add_argument("--family")
    p.add_argument("--tasks")
    p.add_argument("--raw", action="store_true", help="use the brute-force oracle")

    p = sub.add_parser("forcing", help="finite-depth forcing step")
    p.add_argument("action", choices=["step", "seed", "check-claims"])
    p.add_argument("--matroid", required=True)
    p.add_argument("--family")
    p.add_argument("--task")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--prefix")
    p.add_argument("--out", help="write the seed family file here")

    p = sub.add_parser("selftest", help="built-in invariant suites")
    p.add_argument("action", choices=["lemmas", "oracle"])

    for child in sub.choices.values():
        _common_flags(child, trailing=True)
    return parser


def _cmd_axioms(args, report: Report) -> int:
    matroid = _load_finite(report, args.matroid)
    return _verdict_exit(report, check_base_axioms(matroid.ground, matroid.bases()))


def _cmd_truncate(args, report: Report) -> int:
    matroid = _load_finite(report, args.matroid)
    level = TruncationLevel.parse(args.level)
    result = apply_level(matroid, level)
    bases = len(result.base_masks())  # bound-guarded, so it runs before the text is built
    text = emit_matroid_text(result)
    report.add("level", level)
    report.add("bases", bases)
    if args.out:
        _write_output("matroid", args.out, text)
        report.add("out", args.out)
    else:
        report.add("matroid-text", "\n" + text.rstrip())
    return EXIT_OK


def _cmd_classify_truncation(args, report: Report) -> int:
    matroid = _load_finite(report, args.matroid)
    candidate = _load_finite(report, args.candidate)
    level = classify_truncation(matroid, candidate)
    report.add("level", "none" if level is None else level)
    return EXIT_OK if level is not None else EXIT_VIOLATION


def _cmd_equiv(args, report: Report) -> int:
    matroid = _load_matroid(report, args.matroid)
    if args.action == "classify":
        if not args.single:
            raise MatroidForgeError("classify needs --set")
        label = classify_class(matroid, _load_setspec(report, "set", args.single))
        report.add("class", label)
        return EXIT_OK
    if not args.left or not args.right:
        raise MatroidForgeError(f"{args.action} needs --left and --right")
    left = _load_setspec(report, "left", args.left)
    right = _load_setspec(report, "right", args.right)
    if args.action == "strong":
        answer = strongly_equivalent(matroid, left, right)
    else:
        answer = almost_spans(matroid, left, right)
    report.add("verdict", answer)
    return _tri_exit(answer)


def _cmd_gentrunc(args, report: Report) -> int:
    if args.action == "verify":
        matroid = _load_finite(report, args.matroid)
        if not args.family:
            raise MatroidForgeError("verify needs --family")
        _, mode, members = parse_family_text(report.read_input("family", args.family))
        if mode != "finite":
            raise MatroidForgeError("finite matroids take `set`-style families")
        verdict = verify_family(matroid, members)
        code = _verdict_exit(report, verdict)
        if verdict.ok:
            candidate = ExplicitMatroid(matroid.ground, members, name="candidate", _checked=True)
            report.add("definition-check", verify_is_gen_truncation(matroid, candidate))
        return code
    if args.action == "enumerate":
        matroid = _load_finite(report, args.matroid)
        families = enumerate_raw(matroid) if args.raw else enumerate_gen_truncations(matroid)
        report.add("families", len(families))
        for i, fam in enumerate(families):
            members = " ".join(fmt(b) for b in sorted(fam, key=size_order))
            report.add(f"family-{i}", members)
        return EXIT_OK
    matroid = _load_finitary(report, args.matroid)
    if not args.family:
        raise MatroidForgeError("verify-finitary needs --family")
    family = _load_classes(report, matroid, args.family)
    tasks = []
    if args.tasks:
        tasks = [(lo, up) for _, lo, up in parse_tasks_text(report.read_input("tasks", args.tasks))]
    return _verdict_exit(report, verify_family_finitary(matroid, family, tasks))


def _cmd_forcing(args, report: Report) -> int:
    matroid = _load_finitary(report, args.matroid)
    if args.action == "seed":
        if not args.prefix:
            raise MatroidForgeError("seed needs --prefix")
        family = seed_family(matroid, args.prefix)
        text = emit_family_text(f"seed{args.prefix}", family.representatives)
        report.add("classes", len(family.representatives))
        if args.out:
            _write_output("family", args.out, text)
            report.add("out", args.out)
        else:
            report.add("family-text", "\n" + text.rstrip())
        return EXIT_OK
    if not args.family or not args.task:
        raise MatroidForgeError(f"{args.action} needs --family and --task")
    family = _load_classes(report, matroid, args.family)
    tasks = parse_tasks_text(report.read_input("task", args.task))
    if len(tasks) > 1:
        raise MatroidForgeError(f"{args.action} takes one task per --task file, got {len(tasks)}")
    name, lower, upper = tasks[0]
    task = make_task(matroid, lower, upper)
    report.add("task", name)
    if args.action == "check-claims":
        return _verdict_exit(report, check_claim_preconditions(matroid, family, task))
    try:
        cert = forcing_step(matroid, family, task, args.depth)
    except ClaimError as exc:
        return _verdict_exit(report, exc.result)
    for line in cert.lines():
        key, _, value = line.partition(" ")
        report.add(key, value)
    return _verdict_exit(report, Verdict.passed())


def _cmd_selftest(args, report: Report) -> int:
    suite = lemma_suite(args.seed) if args.action == "lemmas" else oracle_suite()
    for name, subject, verdict in suite:
        report.add("check", f"{name} ok" if verdict else f"{name} FAIL {subject!r}: {verdict}")
    failed = not all(verdict for _, _, verdict in suite)
    report.add("verdict", "FAIL" if failed else "ok")
    return EXIT_VIOLATION if failed else EXIT_OK


_HANDLERS = {
    "axioms": _cmd_axioms,
    "truncate": _cmd_truncate,
    "classify-truncation": _cmd_classify_truncation,
    "equiv": _cmd_equiv,
    "gentrunc": _cmd_gentrunc,
    "forcing": _cmd_forcing,
    "selftest": _cmd_selftest,
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace `build_parser().parse_args(argv)` gives, in one argparse pass.

    When `argv[0]` names a command, the full parser would hand the rest to
    that command's subparser alone, so the subparser parses it here, into a
    namespace that holds the top-level defaults and the command.  Any other
    command line (a leading global flag, `-h`, an unknown command), and one
    that leaves words unparsed, goes through the full parser, so usage errors
    keep its wording.  A usage error raises SystemExit, as `parse_args` does.
    """
    parser = build_parser()
    start, commands = argparse.Namespace(), {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            commands = action.choices
        elif action.default is not argparse.SUPPRESS:
            setattr(start, action.dest, action.default)
    if argv and argv[0] in commands:
        start.command = argv[0]
        args, unparsed = commands[argv[0]].parse_known_args(argv[1:], start)
        if not unparsed:
            return args
    return parser.parse_args(argv)


def dispatch(argv: list[str]) -> tuple[int, Report]:
    """Route one command line; returns (exit code, report).

    An argparse usage error raises SystemExit, as `parse_args` does.
    """
    return _run(_parse_args(argv))


def _run(args: argparse.Namespace) -> tuple[int, Report]:
    label = args.command + (f" {args.action}" if getattr(args, "action", None) else "")
    report = Report(label, args.seed)
    try:
        code = _HANDLERS[args.command](args, report)
    except MatroidForgeError as exc:
        report.add("error", str(exc))
        return EXIT_USAGE, report
    report.add("exit", str(code))
    return code, report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse usage errors
        return EXIT_USAGE if exc.code else EXIT_OK
    code, report = _run(args)
    rendered = report.to_json() if args.json else report.to_text()
    sys.stdout.write(rendered)
    if args.report:
        try:
            _write_output("report", args.report, rendered)
        except MatroidForgeError as exc:
            # the report on standard output stays whole; the failure goes to stderr
            sys.stderr.write(f"error {exc}\n")
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
