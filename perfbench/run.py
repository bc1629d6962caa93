"""Run one benchmark workload against the matroid_forge sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's input files (generated from the seed) and
computes the reference answers.  It then runs whole rounds of the workload's
operation list, one in-process `matroid_forge.cli.dispatch` call plus report
rendering per operation, for about `--seconds` (it stops at the round
boundary nearest to that time), and checks every output against its
reference answer.  Before each round it times program set-up afresh:
importing matroid_forge and loading every input file once through `files`.  `setup_s` is the median of these set-up times, so they are
spread over the run like the operations.  With `--trace 1` set-up runs once,
the public entry points of each module are wrapped, and the per-layer metrics
replace the end-to-end ones.

The last line of standard output is the JSON result; the line before it
names the interpreter and CPU count.  Full results, and the span file of a
traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

# a traced run stores at most this many spans (28 bytes each); later ones are
# still counted and timed
SPAN_CAP = 200_000


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(inputs) -> tuple[float, object]:
    """Import matroid_forge afresh and parse every input file once; returns (seconds, cli)."""
    for name in [n for n in sys.modules if n == "matroid_forge" or n.startswith("matroid_forge.")]:
        del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    cli = importlib.import_module("matroid_forge.cli")
    files = sys.modules["matroid_forge.files"]
    parsers = {"matroid": files.parse_matroid_text, "family": files.parse_family_text,
               "tasks": files.parse_tasks_text, "setspec": files.parse_setspec_text}
    for kind, path in inputs:
        parsers[kind](path.read_text(encoding="utf-8"))
    return time.perf_counter() - start, cli


def verify(op, code: int | None, text: str) -> tuple[str | None, bool]:
    """(problem or None, whether the problem is the op's known fault)."""
    if code is None:
        return text, False
    try:
        problem = op.check(code, text)
        known = bool(problem) and op.known_fault is not None and op.known_fault(code, text) is None
    except Exception as exc:  # output the check cannot even read
        return f"unreadable output ({type(exc).__name__}: {exc})", False
    return problem, known


def run_round(cli, ops, tracer: Tracer | None, failures: list) -> list[float]:
    """One pass over `ops`: the latencies; failures are appended as (op, problem, known)."""
    gc.collect()
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            code, report = cli.dispatch(op.argv)
            text = report.to_text()
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code, text = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        problem, known = verify(op, code, text)
        if problem:
            failures.append((op, problem, known))
    return latencies


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if "MATROID_FORGE_MAX_GROUND" in os.environ:
        fail("MATROID_FORGE_MAX_GROUND is set; it lowers the exhaustive bounds and "
             "changes what the operations do, so the benchmark refuses to run")
    if not (SRC / "matroid_forge" / "cli.py").is_file():
        fail(f"no matroid_forge sources under {SRC}")
    sys.path.insert(0, str(SRC))

    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs_dir = run_dir / "inputs"
    inputs_dir.mkdir(parents=True)
    try:
        workload = build(args.workload, args.seed, inputs_dir)
        tracer = Tracer(SPAN_CAP) if args.trace else None
        setup_times: list[float] = []
        rounds: list[list[float]] = []
        failures: list[tuple] = []
        # whole rounds until the round boundary nearest to the deadline: the
        # next round starts only if it should end less than half a round late
        deadline = time.perf_counter() + args.seconds
        last_round = 0.0
        while not rounds or time.perf_counter() + last_round / 2 < deadline:
            began = time.perf_counter()
            # a traced run keeps its first import, which carries the wrappers
            if not rounds or tracer is None:
                elapsed, cli = set_up(workload.inputs)
                setup_times.append(elapsed)
                if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
                    fail(f"imported matroid_forge from {cli.__file__}, not from {SRC}")
                if tracer is not None:
                    tracer.install()
            rounds.append(run_round(cli, workload.ops, tracer, failures))
            last_round = time.perf_counter() - began
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    unexpected = [(op, problem) for op, problem, known in failures if not known]
    for op, problem in unexpected[:10]:
        print(f"perfbench: unexpected failure: {' '.join(op.argv)}: {problem[:300]}",
              file=sys.stderr)
    latencies = [latency for lat in rounds for latency in lat]
    throughput = len(latencies) / sum(latencies)
    if args.trace:
        metrics = tracer.layer_metrics(len(rounds))
        tracer.write_spans(run_dir / "spans.tsv")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (throughput, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[-1] * 1e3, "ms"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
        }
    result = {
        "correct": not unexpected,
        "attempted": len(workload.ops) * len(rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    environment = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "rounds": len(rounds), "ops_per_round": len(workload.ops),
        "expected_failed_per_round": sum(op.known_fault is not None for op in workload.ops),
        "ops_per_s": round(throughput, 3),
    }
    details = {
        "setup_times_s": setup_times,
        "failures": [[" ".join(op.argv), problem[:300]] for op, problem, _ in failures[:20]],
        "round_latencies_ms": [[round(x * 1e3, 3) for x in lat] for lat in rounds],
    }
    if tracer is not None:
        details["spans_written"] = len(tracer.span_start)
        details["spans_dropped"] = tracer.dropped_spans
    (run_dir / "result.json").write_text(
        json.dumps({"environment": environment, "details": details, "result": result},
                   indent=2) + "\n", encoding="utf-8")
    print(" ".join(f"{k}={v}" for k, v in environment.items()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
