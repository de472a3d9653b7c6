"""Benchmark of flowsplat's provider pipeline.

    python3 perfbench/run.py --workload qvga_window --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1                 # every workload, one process each

One workload runs in this process from one closed-loop caller; BLAS is held
to one thread. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The full
result, machine info and (traced runs) the spans are written to `.perfbench/`
at the root of the checkout. See perfbench/README.md for the metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# the keys of workloads.WORKLOADS, listed here so that arguments are checked before import
WORKLOAD_NAMES = ("qvga_window", "tiny_graph", "dspt_replay")


def import_library():
    """Import flowsplat from this checkout's src/, or exit with status 1 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import flowsplat
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import flowsplat from {src}: {exc}")
    if Path(flowsplat.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: flowsplat imported from {flowsplat.__file__}, not from {src}")


def run_one(args) -> int:
    started = time.monotonic()
    import_library()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(OUT / f"{stem}-spans.jsonl")
    result["machine"] = workloads.machine_info()
    result["failed_frac"] = result["failed"] / max(result["attempted"], 1)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} shape={result['shape']} "
          f"timed_s={result['timed_s']:.2f} keyframes={result['keyframes']} "
          f"setup_samples={len(result['setup_samples_s'])}")
    if "fastest" in result:
        fast = result["fastest"]
        print(f"# timings over the fastest tenth: keyframes={fast['keyframes']} "
              f"edges={fast['edges']} beyond_p90={fast['edges_beyond_p90']}; "
              f"all keyframes: {result['keyframes_per_s_all']:.4g} 1/s")
    for name, m in result["metrics"].items():
        print(f"{args.workload:12s} {name:58s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:12s} {'failed_frac':58s} {result['failed_frac']:14.6g} "
          f"({result['failed']}/{result['attempted']} deliveries)")
    for problem in result["problems"]:
        print(f"# failed: {problem}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
