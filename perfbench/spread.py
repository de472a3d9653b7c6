"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads tiny_graph ...]
                                [--against OUT.json] [--out OUT.json]

Runs perfbench/run.py once per workload and seed, one process at a time, with
BENCHMARK.json's run_seconds. For each metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next
to the metric's bound. With --against, it also compares each median with the
one stored in an earlier --out file and flags a change for the worse that
exceeds the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed deliveries")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--against", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    earlier = json.loads(args.against.read_text()) if args.against else {}

    summary, ok = {}, True
    for workload in args.workloads:
        runs = [run(workload, seed, bench["run_seconds"]) for seed in args.seeds]
        summary[workload] = {name: summarize([r[name] for r in runs]) for name in metrics}
        for name, s in summary[workload].items():
            bound = metrics[name]["bound"]
            flags = []
            if name != "setup_s" and s["spread"] > bound:
                flags.append("SPREAD>BOUND")
            elif name != "setup_s" and s["spread"] > bound / 3:
                flags.append("spread>bound/3")
            if workload in earlier:
                before = earlier[workload][name]["median"]
                change = s["median"] / before - 1.0
                worse = change if metrics[name]["better"] == "lower" else -change
                flags.append(f"vs earlier {change:+.3f}")
                if worse > bound:
                    flags.append("WORSE>BOUND")
            ok &= not {"SPREAD>BOUND", "WORSE>BOUND"} & set(flags)
            print(f"{workload:12s} {name:22s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  bound {bound}  "
                  + " ".join(flags), flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, **summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
