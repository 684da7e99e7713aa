#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_sa1d from source and runs one workload.

    python3 perfbench/run.py --workload square-fresh --seed 42 --seconds 30 --trace 0

Run it from the root of a checkout. It configures and builds the benchmark
package (perfbench/CMakeLists.txt, which compiles the program's sources from
src/) in Release under .bench_build/perfbench, runs the workload on a 4-rank
simulated Machine, checks every output against the serial reference, prints
every metric by name and unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a Chrome trace-event file under .bench_build/perfbench/traces.
--write-spec regenerates BENCHMARK.json from the tables below, the one place
the metric names and units are defined. README.md documents the workloads and
what each metric should move.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_sa1d"

RUN_SECONDS = 36
DEFAULT_SEED = 42
BUILD_LIMIT_S = 800  # a checkout's first run compiles the program
RUN_LIMIT_S = 170  # a run after the build must end well inside 180 s

BACKENDS = ["auto", "sa1d", "ring1d", "summa2d", "split3d"]

WORKLOADS = [
    {"name": "square-fresh",
     "why": "one-shot C=A*A on clustered hv15r-like: inspector, symbolic pass, baseline routes "
            "and merges; bypasses plan replay"},
    {"name": "square-replay",
     "why": "cached-plan replays of A*A on eukarya-like with cycling values: numeric pass and "
            "value-only comm; bypasses inspector and merges"},
    {"name": "mcl",
     "why": "Markov clustering solves: pruning changes the pattern every round, so every round "
            "rebuilds its plan; adds the app's inflate/prune"},
]

END_TO_END = (
    [{"name": f"{b}.wall_s", "unit": "s", "better": "lower", "bound": 0.25} for b in BACKENDS]
    + [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.25},
        {"name": "pass_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
    ]
)


def _per_layer():
    rows = []
    for b in BACKENDS:
        rows += [
            # End-to-end, but too noisy on a shared host to carry a bound.
            (f"{b}.wall_tail_s", "s", "lower"),
            (f"kernels.{b}.comp_s", "s", "lower"),
            (f"kernels.{b}.ns_per_flop", "ns", "lower"),
            (f"dist.{b}.plan_s", "s", "lower"),
            (f"dist.{b}.other_s", "s", "lower"),
            (f"dist.{b}.imbalance", "ratio", "lower"),
            (f"dist.{b}.replay_ratio", "ratio", "higher"),
            (f"runtime.{b}.net_mib", "MiB", "lower"),
            (f"runtime.{b}.net_msgs", "count", "lower"),
            (f"runtime.{b}.comm_wait_s", "s", "lower"),
            (f"runtime.{b}.comm_hidden_s", "s", "higher"),
            (f"runtime.{b}.sync_wait_s", "s", "lower"),
            (f"runtime.{b}.peak_mib", "MiB", "lower"),
            (f"apps.{b}.mcl_iterations", "count", "lower"),
            (f"apps.{b}.mcl_round_s", "s", "lower"),
        ]
    rows += [
        ("kernels.flops", "count", "lower"),
        ("kernels.serial_symbolic_s", "s", "lower"),
        ("kernels.serial_numeric_s", "s", "lower"),
        ("kernels.floor_ns_per_op", "ns", "lower"),
        ("core.sa1d.rdma_mib", "MiB", "lower"),
        ("core.sa1d.rdma_msgs", "count", "lower"),
        ("runtime.auto.pick", "enum", "lower"),
        ("runtime.auto.regret", "ratio", "lower"),
        ("runtime.auto.pred_ratio", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


PER_LAYER = _per_layer()


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once per checkout) and builds the benchmark in Release."""
    if not (ROOT / "src").is_dir():
        fail(f"program sources not found at {ROOT / 'src'}; run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    deadline = time.monotonic() + BUILD_LIMIT_S
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="write BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args()

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    build()
    deadline = time.monotonic() + RUN_LIMIT_S

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if k not in ("SA1D_COST_PARAMS", "SA1D_SCALE")}
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"benchmark exited with code {r.returncode}")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark did not end with a JSON result")

    wanted = PER_LAYER if args.trace else END_TO_END
    names = {m["name"] for m in wanted}
    got = raw.get("metrics", {})
    missing = sorted(names - got.keys())
    extra = sorted(got.keys() - names)
    if missing or extra:
        fail(f"metric set differs from the spec: missing {missing}, unexpected {extra}")
    bad = [n for n in names if not isinstance(got[n], (int, float)) or not math.isfinite(got[n])]
    if bad:
        fail(f"non-finite metrics: {sorted(bad)}")

    for line in lines[:-1]:
        print(line)
    width = max(len(n) for n in names)
    for m in wanted:
        print(f"  {m['name']:<{width}}  {got[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
