"""Run-to-run spread of the benchmark: one run per seed, then median and quartiles.

    python3 perfbench/spread.py --workload anc-io --runs 10 [--trace 0] [--record perfbench/baseline.json]

Runs ``run.py`` once per seed (``--first-seed``, +1, ...) one after another
and prints, for every metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median next to the metric's bound.  ``--record`` merges the
summary, with the machine line of the first run, into a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    machine = None
    failed = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        machine = machine or next(json.loads(x.split(" = ", 1)[1]) for x in lines if x.startswith("machine = "))
        result = json.loads(lines[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                         if args.trace == 0), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:34s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
              f"spread {spread:7.4f}  bound {bounds.get(name)}")
    print(f"failed checks over {args.runs} runs: {failed}")

    if args.record is not None:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record["machine"] = machine
        key = f"{args.workload} trace={args.trace}"
        record.setdefault("runs", {})[key] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "seconds": args.seconds,
            "failed": failed,
            "metrics": summary,
        }
        args.record.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
