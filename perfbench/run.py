"""iclmanip benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload eval-fresh --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from its
`src/` directory and nowhere else. With `--trace 0` the last line of
standard output is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced unit and the
tracing overhead. See perfbench/BENCHMARK.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed  # perfbench/ is sys.path[0] when run as a script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("eval-fresh", "ablation-sweeps", "remote-eval")
SETUP_PROBES = 7


def import_program():
    """Import iclmanip from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "iclmanip" / "__init__.py").is_file():
        sys.exit(f"perfbench: no iclmanip sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import iclmanip

    if Path(iclmanip.__file__).resolve().parent != (src / "iclmanip").resolve():
        sys.exit(f"perfbench: imported iclmanip from {iclmanip.__file__}, not {src}")
    return iclmanip


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Time for fresh interpreters to import iclmanip and build the
    workload's fixtures, one probe after another: (wall, reference) seconds
    per probe, the second rescaled to the reference host speed."""
    speed = hostspeed.HostSpeed()
    walls, cpus = [], []
    for _ in range(probes):
        speed.sample(0.1)
        cpu0 = children_cpu()
        t0 = time.monotonic()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            check=True,
            timeout=60,
            stdout=subprocess.PIPE,
            text=True,
        )
        walls.append(float(proc.stdout.split()[-1]) - t0)
        cpus.append(children_cpu() - cpu0)  # includes the probe's short tear-down
    return walls, [speed.reference_seconds(w, c) for w, c in zip(walls, cpus)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_units(workload, blocks, tally, seconds: float, speed: hostspeed.HostSpeed):
    """Closed loop: run units back to back until `seconds` have passed.

    After each unit the reference kernel runs for a tenth of the unit's
    wall time, so host-speed samples are spread like the units."""
    walls, cpus, episodes = [], [], []
    started = time.perf_counter()
    unit = 0
    while unit == 0 or time.perf_counter() - started < seconds:
        bases = [blocks.next() for _ in range(workload.blocks_per_unit)]
        scored_before = tally.scored
        c0 = time.process_time()
        t0 = time.perf_counter()
        calls = workload.run(bases)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        workload.check(unit, calls, tally)
        episodes.append(tally.scored - scored_before)
        speed.sample(max(0.1 * walls[-1], 0.01))
        unit += 1
    return walls, cpus, episodes


def end_to_end(args, workloads, sizes) -> tuple[dict, object]:
    setup_wall, setup = setup_seconds(args.workload, args.seed, 1 if args.smoke else SETUP_PROBES)
    blocks = workloads.SeedBlocks(args.seed)
    tally = workloads.Tally()
    speed = hostspeed.HostSpeed()
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, args.workdir)
    try:
        walls, cpus, episodes = run_units(workload, blocks, tally, args.seconds, speed)
        workload.finish(tally)
    finally:
        workload.close()
    rate = sum(episodes) / sum(speed.reference_seconds(w, c) for w, c in zip(walls, cpus))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok_share = 1.0 - tally.not_ok / max(tally.attempted, 1)
    print(
        f"setup_s        {statistics.median(setup):.4f} s at reference speed, median of {len(setup)} "
        f"fresh interpreters ({statistics.median(setup_wall):.4f} s wall)"
    )
    print(
        f"episodes_per_s {rate:.2f} episodes/s at reference speed: {sum(episodes)} episodes over "
        f"{len(walls)} units ({sum(episodes) / sum(walls):.2f}/s wall, host speed {speed.factor:.3f})"
    )
    print(f"peak_rss_mb    {peak_mb:.1f} MB, 1 sample (whole run)")
    print(f"ok_share       {ok_share:.4f}, {tally.attempted} episodes attempted (failed_share {1 - ok_share:.4f})")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "episodes_per_s": metric(rate, "episodes/s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "ok_share": metric(ok_share, "ratio"),
    }, tally


def per_layer(args, workloads, sizes) -> tuple[dict, object]:
    import tracer

    blocks = workloads.SeedBlocks(args.seed)
    tally = workloads.Tally()
    workload = workloads.WORKLOADS[args.workload](sizes, args.seed, args.workdir)
    walls = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [wall s, episodes]
    reported = None
    started = time.perf_counter()
    unit = 0
    try:
        # Traced and untraced units alternate in pairs (T U U T ...) so
        # drift cancels; each unit has its own seeds, so a cache persisting
        # across units cannot shrink the traced pass. The first traced unit
        # gives the per-layer numbers; all units give the overhead.
        while unit < 2 or time.perf_counter() - started < args.seconds:
            traced = unit % 4 in (0, 3)
            bases = [blocks.next() for _ in range(workload.blocks_per_unit)]
            scored_before = tally.scored
            if traced:
                with tracer.Tracer() as trace:
                    calls = workload.run(bases)
                wall = trace.wall_s()
            else:
                t0 = time.perf_counter()
                calls = workload.run(bases)
                wall = time.perf_counter() - t0
            workload.check(unit, calls, tally)
            walls[traced][0] += wall
            walls[traced][1] += tally.scored - scored_before
            if traced and reported is None:
                reported = trace.metrics(tally.scored - scored_before)
                for name in trace.absent:
                    print(f"trace: {name} is absent", file=sys.stderr)
                trace.write_spans(args.workdir.parent / f"spans-{args.workload}-seed{args.seed}.tsv")
            unit += 1
        workload.finish(tally)
    finally:
        workload.close()
    per_episode = {k: w / max(n, 1) for k, (w, n) in walls.items()}
    reported["trace_overhead_share"] = per_episode[True] / per_episode[False] - 1.0
    units = dict(tracer.per_layer_metrics())
    for name in sorted(reported):
        print(f"{name:45s} {reported[name]:.6g} {units[name]}")
    return {name: metric(reported[name], units[name]) for name, _ in tracer.per_layer_metrics()}, tally


def run_all(args, argv: list[str]) -> int:
    """Every workload in its own interpreter, then one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--workload", name]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, timeout=900, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"== summary (seed {args.seed})")
    print(f"{'metric':45s} {'unit':11s}" + "".join(f"{name:>17s}" for name in WORKLOAD_NAMES))
    for metric_name, first in results[WORKLOAD_NAMES[0]]["metrics"].items():
        row = "".join(f"{results[name]['metrics'][metric_name]['value']:17.6g}" for name in WORKLOAD_NAMES)
        print(f"{metric_name:45s} {first['unit']:11s}{row}")
    print(f"{'correct':57s}" + "".join(f"{str(results[name]['correct']):>17s}" for name in WORKLOAD_NAMES))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one unit; finishes in seconds")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_program()
    if args.workload == "all":
        return run_all(args, argv)
    if args.smoke:
        args.seconds = 0.0  # one unit (two when traced)
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    args.workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        metrics, tally = (per_layer if args.trace else end_to_end)(args, workloads, sizes)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    kinds = tally.kinds()
    if kinds:
        print("failures by kind: " + json.dumps(kinds))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
