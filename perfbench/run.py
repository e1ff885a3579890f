"""The repository benchmark: whole solves, ATPG flows and service traffic.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-hard --seed 1 \\
        --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen; each module's
docstring says what it runs):

* ``engine-hard`` -- in-process CDCL solves that spend seconds in
  search, plain and with a checked DRUP proof (``engine_hard.py``);
* ``atpg-flow`` -- stuck-at ATPG through the fresh per-fault path and
  the persistent incremental path (``atpg_flow.py``);
* ``service-mix`` -- a seeded job stream through ``repro serve`` over
  TCP (``service_mix.py``).

Every workload reports the same end-to-end metrics, each with its
meaning in that workload:

==========  ======================  ======================  ================
metric      engine-hard             atpg-flow               service-mix
==========  ======================  ======================  ================
setup_s     instance generation     circuits + fault lists  jobs + server
                                                            start
ok_ratio    1 - failed / attempted (solves, fault targets, jobs)
main_s      CPU s, plain solves     CPU s, fresh path       wall s, stream
alt_s       CPU s, proof solve +    CPU s, incremental      wall s summed
            check of each UNSAT     path                    over resubmits
p50_ms      CPU ms per plain solve  CPU ms per fresh fault  wall ms per job
p95_ms      (named instances only)  (``solve_fault``)       (all jobs)
==========  ======================  ======================  ================

Every time is scaled to a nominal machine speed: a fixed calibration
kernel of the benchmark's own is timed next to the measured work, and
the work's seconds are multiplied by the kernel's nominal time over
its measured time (``common.Speed``).  On a shared machine this takes
out the 20-40% drift in CPU speed from minute to minute, which would
otherwise swamp any change worth measuring.  ``speed.kernel_ms`` in a
traced run shows the speed a run saw.

``setup_s`` is the median of several set-ups in the run.  The other
metrics are medians over passes.  The in-process workloads repeat
whole passes on their last set-up until ``--seconds`` have gone by (at
least one); the service sends its fixed stream once after each set-up,
to a freshly started server.

``--trace 1`` runs one pass and then the per-layer attribution: it
times the public entry points of each layer from here (the program
carries no extra tracing) and reports every ``per_layer`` metric.  A
layer a workload does not exercise reads 0.  ``trace.overhead`` is the
traced run's measured time over its untraced pass.

The last line of stdout is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); a readable report goes to
stderr.  ``correct`` is false when any answer is wrong, except the one
known, attributed defect the service stream exposes on purpose
(ROADMAP item 1, see ``service_mix.py``): those wrong answers count in
``failed`` and lower ``ok_ratio``, and are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (NOMINAL_KERNEL_S, ROOT, WORK_DIR,  # noqa: E402
                    Outcome, import_program, kernel, median,
                    percentile, wall)

SETUP_REPS = {"engine-hard": 5, "atpg-flow": 9, "service-mix": 2}
#: Workload-specific names of the generic end-to-end metrics, shown
#: beside them in the readable report.
ALIASES = {
    "engine-hard": {"main_s": "hard_solve_s", "alt_s": "hard_certified_s"},
    "atpg-flow": {"main_s": "atpg_fresh_s",
                  "alt_s": "atpg_incremental_s"},
    "service-mix": {"p50_ms": "svc_p50_ms", "p95_ms": "svc_p95_ms"},
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def workload_module(name: str):
    import atpg_flow
    import engine_hard
    import service_mix
    return {"engine-hard": engine_hard, "atpg-flow": atpg_flow,
            "service-mix": service_mix}[name]


def measure(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Set up several times, measure, and (traced) attribute.

    In-process workloads measure passes on the last set-up until
    ``seconds`` have gone by.  The service measures one stream per
    set-up, each on a freshly started server with a cold cache.
    """
    import pins

    module = workload_module(name)
    expected = pins.BY_WORKLOAD[name]
    teardown = getattr(module, "teardown", None)
    per_setup = teardown is not None
    reps = 1 if trace else SETUP_REPS[name]
    out = Outcome()
    setup_s, passes, pass_wall = [], [], []
    for rep in range(reps):
        before = kernel()
        start = wall()
        inst = module.setup(seed, expected)
        took = wall() - start
        setup_s.append(took * 2 * NOMINAL_KERNEL_S / (before + kernel()))
        try:
            if not per_setup and rep < reps - 1:
                continue
            began = wall()
            while True:
                start = wall()
                passes.append(module.one_pass(inst, out, expected))
                pass_wall.append(wall() - start)
                if trace or per_setup or wall() - began >= seconds:
                    break
            if trace:
                start = wall()
                out.layers = module.layers(inst, passes[0], out)
                extra = wall() - start
                out.layers["trace.overhead"] = \
                    (pass_wall[0] + extra) / pass_wall[0]
                out.layers["failed_ratio"] = out.failed / out.attempted
        finally:
            if teardown is not None:
                out.notes += teardown(inst)
    out.passes = len(passes)
    out.metrics = {
        "setup_s": median(setup_s),
        "ok_ratio": (out.attempted - out.failed) / out.attempted,
        "main_s": median(p["main_s"] for p in passes),
        "alt_s": median(p["alt_s"] for p in passes),
        "p50_ms": median(percentile(p["ops_ms"], 50) for p in passes),
        "p95_ms": median(percentile(p["ops_ms"], 95) for p in passes),
    }
    out.notes.append(f"p50_ms and p95_ms: percentiles of "
                     f"{len(passes[0]['ops_ms'])} operations per pass, "
                     f"median over {len(passes)} pass(es)")
    for index, (rec, took) in enumerate(zip(passes, pass_wall)):
        out.notes.append(
            f"pass {index}: {took:.1f} s wall, main_s "
            f"{rec['main_s']:.4g}, alt_s {rec['alt_s']:.4g}, "
            f"calibration kernel {rec['kernel_s'] * 1e3:.3g} ms")
    return out


def report(name: str, out: Outcome, metrics, stream) -> None:
    aliases = ALIASES[name]
    print(f"perfbench {name}: {out.attempted} operations, "
          f"{out.failed} failed ({len(out.known)} known defect, "
          f"{len(out.unexpected)} unexpected), failed_ratio "
          f"{out.failed / out.attempted:.4g}", file=stream)
    for key, entry in metrics.items():
        alias = f"  [{aliases[key]}]" if key in aliases else ""
        print(f"  {key:34s} {entry['value']:.6g} {entry['unit']}{alias}",
              file=stream)
    if name == "service-mix" and "main_s" in metrics:
        jobs = out.attempted / out.passes
        print(f"  svc_jobs_per_s = {jobs / metrics['main_s']['value']:.4g}"
              f" 1/s ({jobs:.0f} jobs per stream)", file=stream)
    for note in out.notes:
        print(f"  note: {note}", file=stream)
    if out.known:
        print(f"  known defect, {len(out.known)} answers, e.g. "
              f"{out.known[0]}", file=stream)
    for problem in out.unexpected[:20]:
        print(f"  FAILED: {problem}", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP_REPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec, units = load_spec()
    import_program()
    # A terminated run still stops the server it started (the finally
    # blocks below and in measure() run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out.layers if args.trace else out.metrics
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from "
                         f"BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": units[m["name"]]} for m in wanted}
    report(args.workload, out, metrics, sys.stderr)
    print(json.dumps({"correct": not out.unexpected,
                      "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
