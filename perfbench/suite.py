"""Run every workload over several seeds, untraced and traced, and summarise.

    python3 perfbench/suite.py

Each workload runs untraced on seeds 1 to 10 and traced on seeds 1 to 3, for
the run length in BENCHMARK.json.  Each run is a separate `perfbench/run.py`
process, one at a time.  For every workload the summary gives each
end-to-end metric's median, quartiles and quartile spread (Q3 - Q1 as a share
of the median) over the untraced runs, the attempted and failed counts, the
traced runs' per-layer medians, and the tracing overhead (untraced over
traced `ops_per_s` on the same seeds).  It is printed as Markdown and written
to perfbench/out/summary.md and summary.json; the README's reference figures
come from this command.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("finite-bridge", "free-classes", "periodic-forcing")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SEEDS = range(1, 11)
TRACE_SEEDS = range(1, 4)
TOP_LAYERS = 14


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(environment, result) of one run.py process."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, env_line, result_line = proc.stdout.strip().splitlines()
    env = dict(item.split("=", 1) for item in env_line.split())
    return env, json.loads(result_line)


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, spread) with `statistics.quantiles(values, n=4)`."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> None:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    summary: dict = {"seconds": seconds, "workloads": {}}
    lines = [f"Runs of {seconds} s; seeds {SEEDS[0]}-{SEEDS[-1]} untraced, "
             f"{TRACE_SEEDS[0]}-{TRACE_SEEDS[-1]} traced.", ""]
    for workload in WORKLOADS:
        plain = {s: run_once(workload, s, seconds, 0) for s in SEEDS}
        traced = {s: run_once(workload, s, seconds, 1) for s in TRACE_SEEDS}
        env = next(iter(plain.values()))[0]
        entry: dict = {"python": env["python"], "nproc": env["nproc"],
                       "attempted": [r["attempted"] for _, r in plain.values()],
                       "failed": [r["failed"] for _, r in plain.values()],
                       "correct": all(r["correct"] for _, r in list(plain.values()) + list(traced.values())),
                       "ops_per_round": env["ops_per_round"],
                       "expected_failed_per_round": env["expected_failed_per_round"],
                       "end_to_end": {}, "per_layer": {}}
        block = [f"### {workload}", "",
                  f"python {env['python']}, nproc {env['nproc']}; {env['ops_per_round']} operations "
                  f"per round, {env['expected_failed_per_round']} expected to fail; "
                  f"correct: {entry['correct']}", "",
                  f"attempted per run: {entry['attempted']}", f"failed per run: {entry['failed']}", "",
                  "| metric | unit | median | Q1 | Q3 | spread |", "|---|---|---|---|---|---|"]
        for name, unit in END_TO_END:
            med, q1, q3, spread = quartiles([r["metrics"][name]["value"] for _, r in plain.values()])
            entry["end_to_end"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                         "spread": spread}
            block.append(f"| {name} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
        untraced = statistics.median(float(plain[s][0]["ops_per_s"]) for s in traced)
        with_trace = statistics.median(float(e["ops_per_s"]) for e, _ in traced.values())
        entry["trace_overhead"] = {"untraced_ops_per_s": untraced, "traced_ops_per_s": with_trace}
        block += ["", f"tracing: {with_trace:.4g} ops/s traced vs {untraced:.4g} untraced on the "
                  f"same seeds ({untraced / with_trace:.2f}x slower).", ""]
        for name in next(iter(traced.values()))[1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in traced.values()]
            entry["per_layer"][name] = statistics.median(values)
        top = sorted((n for n in entry["per_layer"] if n.endswith(".self_ms")),
                     key=lambda n: -entry["per_layer"][n])[:TOP_LAYERS]
        block += ["| layer (per round, traced median) | self ms | calls |", "|---|---|---|"]
        for name in top:
            base = name[: -len(".self_ms")]
            block.append(f"| {base} | {entry['per_layer'][name]:.1f} | "
                         f"{entry['per_layer'][base + '.calls']:.0f} |")
        ratio = entry["per_layer"]["core.rank_cache_hit_ratio"]
        block += [f"| core.rank_cache_hit_ratio | {ratio:.3f} | "
                  f"{entry['per_layer']['core._rank_of.calls']:.0f} backend evaluations |", ""]
        summary["workloads"][workload] = entry
        lines += block
        print("\n".join(block), flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    (out / "summary.md").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
