#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--repeat N] [--out FILE]

``--trace 0`` (default) is the untraced pass and prints the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` is the traced pass, prints the
per-layer metrics and writes the spans to ``.ledger_work/trace.json``.
With ``--workload`` the last line of stdout is the JSON object the
benchmark driver reads.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit("ledger: no src/repro beside the benchmark; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

from ledger_inputs import FULL, SMOKE, WORK, WORKLOADS, build_inputs  # noqa: E402
from ledger_layers import SpanRecorder, trace_in_process, trace_serve  # noqa: E402
from ledger_serve import run_serve  # noqa: E402
from ledger_stats import relative_spread  # noqa: E402
from ledger_workloads import run_in_process  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: A smoke run measures this long per workload unless ``--seconds`` says so.
SMOKE_SECONDS = 0.3


def metric_specs(trace: bool) -> list[dict]:
    return SPEC["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 recorder=None) -> dict:  # fmt: skip
    """One run of one workload: inputs from the seed, measure, verify."""
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        inputs = build_inputs(workload, SMOKE if smoke else FULL, seed, Path(workdir))
        serve = workload.kind == "serve"
        if trace:
            result = (trace_serve if serve else trace_in_process)(
                inputs, seconds, recorder
            )
        else:
            result = (run_serve if serve else run_in_process)(inputs, seconds)
    # The driver wants every listed metric on every run; a metric this
    # workload's pass does not measure, or whose probe broke, stays None
    # here and is printed as null in the table and as 0 on the JSON line.
    measured = result["metrics"]
    result["metrics"] = {
        spec["name"]: measured.get(spec["name"]) for spec in metric_specs(trace)
    }
    unknown = set(measured) - set(result["metrics"])
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return result


def driver_line(result: dict, trace: bool) -> str:
    metrics = {
        spec["name"]: {
            "value": float(result["metrics"][spec["name"]] or 0.0),
            "unit": spec["unit"],
        }
        for spec in metric_specs(trace)
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def format_cell(value) -> str:
    if value is None:
        return "null"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_results(results: dict[str, dict], trace: bool) -> None:
    """End-to-end: one row per workload.  Per-layer: one row per metric
    (there are too many for columns), one column per workload."""
    specs = metric_specs(trace)
    if trace:
        header = ["metric", "unit", *results]
        rows = [
            [spec["name"], spec["unit"],
             *(format_cell(r["metrics"][spec["name"]]) for r in results.values())]
            for spec in specs
        ]  # fmt: skip
    else:
        header = ["workload", "ops", "failed", "speed",
                  *(f"{spec['name']} [{spec['unit']}]" for spec in specs)]  # fmt: skip
        rows = [
            [name, str(r["samples"]), str(r["failed"]), format_cell(r["speed"]),
             *(format_cell(r["metrics"][spec["name"]]) for spec in specs)]
            for name, r in results.items()
        ]  # fmt: skip
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())


def repeat_check(args, names: list[str]) -> int:
    """Run every workload ``--repeat`` times, a fresh process and another
    seed each time as the driver does, and hold each end-to-end metric's
    spread (quartile distance over median) against its bound."""
    specs = metric_specs(False)
    worst = 0
    print(f"{'workload':<18}{'metric':<22}{'median':>12}{'spread':>9}{'bound':>7}")
    for name in names:
        values: dict[str, list[float]] = {spec["name"]: [] for spec in specs}
        for offset in range(args.repeat):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed + offset), "--trace", "0"]  # fmt: skip
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"ledger: {name} seed {args.seed + offset} failed")
                return 1
            line = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
            for metric, entry in line["metrics"].items():
                values[metric].append(entry["value"])
        for spec in specs:
            series = values[spec["name"]]
            spread = relative_spread(series)
            # The driver does not hold setup_s to its spread, only its median.
            over = spread > spec["bound"] and spec["name"] != "setup_s"
            worst |= over
            note = " OVER" if over else "" if spread * 3 <= spec["bound"] else " >1/3"
            print(
                f"{name:<18}{spec['name']:<22}{statistics.median(series):>12.4g}"
                f"{spread:>9.4f}{spec['bound']:>7.2f}{note}"
            )
    return int(worst)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        return repeat_check(args, names)

    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else SPEC["run_seconds"]
    trace = bool(args.trace)
    recorder = SpanRecorder() if trace else None
    results = {
        name: run_workload(name, args.seed, seconds, trace, args.smoke, recorder)
        for name in names
    }
    if recorder is not None:
        recorder.write(WORK / "trace.json")
    print_results(results, trace)
    if args.out:
        args.out.write_text(
            json.dumps({"seed": args.seed, "trace": trace, "smoke": args.smoke,
                        "results": results}, indent=1),
            encoding="utf-8",
        )  # fmt: skip
    failed = sum(result["failed"] for result in results.values())
    if args.workload:
        print(driver_line(results[args.workload], trace))
    else:
        attempted = sum(result["attempted"] for result in results.values())
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed}))  # fmt: skip
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
