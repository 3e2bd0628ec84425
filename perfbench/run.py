"""Benchmark of the fittedq laboratory: one workload per invocation.

    python3 perfbench/run.py --workload fqi-tabular --seed 0 --seconds 28 --trace 0

Run from the repository root.  The harness starts fresh interpreters
(``worker.py``) with ``src`` on the path and OpenBLAS/OpenMP/MKL pinned to
one thread: several that only set up, for ``setup_s``, then one that runs
the workload through the runner for ``--seconds``.  Both kinds time a
fixed kernel alongside (``worker.HostProbe``), and the timings are
reported at the reference host speed ``PROBE_REF_S``.  It prints a table of
every metric with its unit, sample counts and provenance, and as its last
line one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run that follows the
timed runs.  ``--workload all`` runs every workload in turn and prints
only the tables.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = HERE.parent
# Fresh interpreters timed for setup_s: half before the timed runs and half
# after, so that one slow stretch of the host does not set the median.
SETUP_SAMPLES = 8
# The probe kernel's time at the reference host speed: a time t measured
# while the kernel took k seconds is reported as t * PROBE_REF_S / k.  It
# is a round figure near the kernel's time on a 2-CPU Xeon host in its
# faster stretches; there, reported times read about 0.8x the wall times.
PROBE_REF_S = 0.0005
DEADLINE_S = 170        # the whole invocation, setup and tracing included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def call_worker(args, timeout):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(workload, seed, n):
    """(spawn-to-first-seed seconds, probe kernel seconds) of ``n`` fresh
    interpreters."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        res = call_worker(["setup", workload.name, str(seed)], 60)
        times.append((res["ready"] - start, res["probe_s"]))
    return times


def at_reference_speed(times):
    """Each (seconds, probe kernel seconds) pair as seconds at PROBE_REF_S."""
    return [t * PROBE_REF_S / k for t, k in times]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unavailable"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (table lines, result object)."""
    started = time.perf_counter()
    setup = []
    if not trace:
        # The first interpreter may compile bytecode; it is not counted.
        setup = setup_times(workload, seed, 1 + SETUP_SAMPLES // 2)[1:]
    out_dir = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        budget = DEADLINE_S - (time.perf_counter() - started)
        res = call_worker(["run", workload.name, str(seed), str(seconds),
                           "1" if trace else "0", str(out_dir)], budget)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not trace:
        setup += setup_times(workload, seed, SETUP_SAMPLES // 2)

    if not res["probes"]:
        raise RuntimeError("no host probe ran during the timed runs")
    seed_p50 = statistics.median(at_reference_speed(
        zip(res["seed_times"], res["seed_probe_s"])))
    prov = dict(res["provenance"], git_commit=git_commit())
    lines = [f"workload {workload.name}: {workload.why}",
             f"provenance {json.dumps(prov, sort_keys=True)}"]
    if trace:
        tr = res["trace"]
        metrics = tr["metrics"]
        lines.append(f"traced run: {tr['traced_seeds']} seeds, {tr['spans']} spans, "
                     f"{tr['distinct_payoffs']} distinct payoffs")
        seed_wall = sum(v for k, (v, _) in metrics.items() if k.startswith("phase."))
        lines.append("top self time: " + ", ".join(
            f"{name} {s:.3f} s ({s / seed_wall:.0%})" for s, name in tr["top_self"]))
        lines.append("phase split: " + ", ".join(
            f"{k[6:-2]} {v / seed_wall:.1%}" for k, (v, _) in metrics.items()
            if k.startswith("phase.")))
        for name, ok, detail in tr["checks"]:
            lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name} ({detail})")
        checks_ok = bool(tr["checks"]) and all(ok for _, ok, _ in tr["checks"])
    else:
        metrics = {
            "setup_s": (statistics.median(at_reference_speed(setup)), "s"),
            "seed_s.p50": (seed_p50, "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        }
        checks_ok = True
    attempted, failed = res["attempted"], res["failed"]
    gaps = res["result_gaps"]
    checked_against = ("reference.json" if res["reference_checked"]
                       else "the first run (no reference for this seed)")
    lines += [
        f"samples: {len(setup)} setups, {len(res['run_times'])} runs of "
        f"{workload.seeds_per_run} seeds, {len(res['seed_times'])} seed timings, "
        f"{res['probes']} host probes",
        f"wall time p50 (not at reference speed): seed "
        f"{statistics.median(res['seed_times']):.6g} s"
        + (f", setup {statistics.median(t for t, _ in setup):.6g} s" if setup else ""),
        f"probe kernel p50: {statistics.median(res['seed_probe_s']) * 1e3:.4g} ms "
        f"over seeds (reference {PROBE_REF_S * 1e3:g} ms)"
        + (f", {statistics.median(k for _, k in setup) * 1e3:.4g} ms after setups"
           if setup else ""),
        f"run_s {statistics.median(res['run_times']):.6g} s "
        f"(median over runs of {workload.seeds_per_run} seeds)",
        f"work_per_s {workload.work_per_seed / seed_p50:.6g} 1/s "
        f"({workload.work_per_seed} {workload.work_unit} per seed / seed_s.p50)",
        f"fail_frac {failed}/{attempted} = {failed / attempted:.4f} ratio "
        f"(fingerprints checked against {checked_against})",
        f"result_gap {statistics.median(gaps) if gaps else float('nan'):.6g} value "
        f"({workload.gap_source}, median of {len(gaps)} seeds)",
    ]
    lines += [f"  failure: {msg}" for msg in res["failures"]]
    lines.append(f"fingerprints {json.dumps(res['fingerprints'], sort_keys=True)}")
    lines += [f"{name:48s} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fittedq" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'fittedq'} not found; run from a "
              "fittedq checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            lines, result = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
