"""One benchmark process: runs a workload through the fittedq runner.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and
BLAS threads pinned, in one of two modes:

``setup WORKLOAD SEED``
    Import fittedq, parse the workload's config and build its model, then
    print the clock reading at which the first seed could start and the
    host's speed just after (see ``HostProbe``).

``run WORKLOAD SEED SECONDS TRACE OUT_DIR``
    Repeat one runner call (``parse_config`` then ``run_experiment``,
    which writes a CSV per seed and ``report.json``) over the workload's
    seed list until SECONDS have passed, timing each seed and each run and
    fingerprinting every seed's output.  ``HostProbe`` samples the host's
    speed during each seed.  With TRACE=1 one more run of the leading
    seeds follows under the span tracer.  Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, expected_calls

MIN_RUNS = 2            # a run's outputs are checked against an earlier run
REFERENCE = Path(__file__).with_name("reference.json")
PROBE_PERIOD_S = 0.1    # one probe per 100 ms of a timed run, about 1% of it
SETUP_PROBES = 30       # probes after each setup


class HostProbe:
    """Measures the host's speed by timing a small fixed kernel.

    The host's CPUs slow by up to 2x for seconds to minutes at a time,
    in user and system time alike, so a wall time says as much about the
    host as about the program.  The kernel mixes the program's kinds of
    work: Python arithmetic, small numpy calls (``rng.choice`` with
    probabilities, as the tabular sampler makes) and a small matrix
    product (as the ReLU heads make).  Dividing a seed's time by the
    kernel's mean time over that seed gives the seed's cost in kernels,
    which stays put while the host's speed moves.

    During timed runs a SIGALRM handler samples the kernel every
    ``PROBE_PERIOD_S``.  It draws from its own generator, so the program's
    random streams and outputs are untouched (the fingerprints check
    this).
    """

    def __init__(self):
        import numpy as np

        self._rng = np.random.default_rng(0)
        self._p = np.full(50, 1 / 50)
        self._a = self._rng.standard_normal((64, 32))
        self._b = self._rng.standard_normal((32, 32))
        # (clock at entry, kernel seconds, seconds spent in all) per probe
        self.samples = []

    def _kernel(self, n):
        rng, p = self._rng, self._p
        total = float((self._a @ self._b).sum())
        for i in range(n):
            total += int(rng.choice(50, p=p)) + float(rng.uniform(-1.0, 1.0)) + i * 0.5
        return total

    def sample(self, *_signal_args):
        entered = time.perf_counter()
        self._kernel(4)             # refill the caches the program evicted
        start = time.perf_counter()
        self._kernel(40)
        end = time.perf_counter()
        self.samples.append((entered, end - start, end - entered))

    def kernel_mean_s(self, first=0, before=float("inf")):
        """Mean kernel seconds of the probes from index ``first`` that
        started before the clock read ``before``, or None without any."""
        kernel_s = [k for entered, k, _ in self.samples[first:] if entered < before]
        return statistics.fmean(kernel_s) if kernel_s else None

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)     # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup_main(workload, workload_seed):
    from fittedq import runner

    doc = workload.config(workload_seed, "unused")
    config = runner.parse_config(json.dumps(doc))
    runner.build_model(config.document["model"], config.base_dir)
    ready = time.perf_counter()
    probe = HostProbe()
    for _ in range(SETUP_PROBES):
        probe.sample()
    print(json.dumps({"ready": ready, "probe_s": probe.kernel_mean_s()}))


# --------------------------------------------------------------------------
# Output fingerprints: criterion 13's notion of "same output".

def _strip_csv(text, timing_columns):
    lines = text.splitlines()
    keep = [i for i, name in enumerate(lines[0].split(","))
            if name not in timing_columns]
    return "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprints(out_dir, timing_columns):
    """(per-seed fingerprints, report fingerprint, per-seed report entries).

    A seed's fingerprint covers its CSV without timing columns and its
    ``per_seed`` entry in the report; the report's covers the rest of the
    report without wall time and paths.
    """
    report = json.loads((out_dir / "report.json").read_text())
    per_seed = {}
    entries = {}
    for entry in report["per_seed"]:
        csv_path = entry.pop("trace_csv")
        csv = (_strip_csv(Path(csv_path).read_text(), timing_columns)
               if csv_path else "")
        per_seed[entry["seed"]] = _digest(csv + "\0" + json.dumps(entry, sort_keys=True))
        entries[entry["seed"]] = entry
    for key in ("total_wall_ms", "artifacts"):
        report.pop(key)
    report["config"].pop("output_dir")
    return per_seed, _digest(json.dumps(report, sort_keys=True)), entries


def bytes_written(out_dir):
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# --------------------------------------------------------------------------
# The timed loop

class Bench:
    def __init__(self, workload, workload_seed, out_dir, probe):
        import numpy as np

        from fittedq import exact, fqi, runner

        self.np = np
        self.runner = runner
        self.workload = workload
        self.workload_seed = workload_seed
        self.out_dir = out_dir
        self.seeds = workload.run_seeds(workload_seed)
        self.probe = probe
        # per runner seed call: wall seconds less the probes', and the mean
        # kernel seconds of the probes in it (None without any)
        self.seed_log = []
        self.results = {}           # seed -> FqiResult of the first run, for the ReLU gap
        self.gaps = {}              # seed -> result_gap of the first run
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.first = None           # fingerprints of the first timed run
        reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
        self.expected = ([reference] if reference.get("workload_seed") == workload_seed
                         else [])

        # Oracles and models come first, so the tracer never sees them.
        parsed = runner.parse_config(json.dumps(workload.config(workload_seed, "unused")))
        model = runner.build_model(parsed.document["model"])
        if workload.gap_source == "eval_value":
            q_star, _ = exact.value_iteration(model, tol=1e-10)
            self.v_start = float(q_star[0].max())
        self.model = model

        timed = runner.run_single_seed

        def run_single_seed(command, model_doc, algo_doc, seed, *args, **kwargs):
            first_probe = len(probe.samples)
            start = time.perf_counter()
            try:
                return timed(command, model_doc, algo_doc, seed, *args, **kwargs)
            finally:
                end = time.perf_counter()
                spent = sum(t for entered, _, t in probe.samples[first_probe:]
                            if entered < end)
                self.seed_log.append((end - start - spent,
                                      probe.kernel_mean_s(first_probe, end)))
        runner.run_single_seed = run_single_seed

        if workload.gap_source == "monte_carlo_one_step_error":
            run_fqi = fqi.run_fqi

            def capture(model, config):
                result = run_fqi(model, config)
                if self.first is None:
                    self.results[config.seed] = result
                return result
            fqi.run_fqi = capture

    def run_once(self, label, seeds):
        """One runner call over ``seeds``, its outputs checked; returns the
        run's wall seconds, its seeds' wall seconds and their fingerprints."""
        out = self.out_dir / label
        doc = self.workload.config(self.workload_seed, str(out), seeds)
        first_seed = len(self.seed_log)
        start = time.perf_counter()
        try:
            self.runner.run_experiment(self.runner.parse_config(json.dumps(doc)))
        except RuntimeError:    # every seed failed; report.json says why
            pass
        wall = time.perf_counter() - start
        seed_times = self.seed_log[first_seed:]
        per_seed, report_fp, entries = fingerprints(out, self.runner.TIMING_COLUMNS)
        gaps = self.result_gaps(entries)
        self.check(label, seeds, per_seed, report_fp, entries, gaps)
        if self.first is None:
            self.first = {"seeds": {str(s): fp for s, fp in per_seed.items()},
                          "report": report_fp}
            self.gaps = gaps
        return wall, seed_times, per_seed

    def result_gaps(self, entries):
        """Distance from the oracle per successful seed (lower is better).

        The ReLU gap is left to ``relu_gaps``.
        """
        source = self.workload.gap_source
        gaps = {}
        for seed, entry in entries.items():
            if entry["status"] != "ok":
                continue
            if source == "eval_value":
                gaps[seed] = self.v_start - entry["metrics"]["eval_value"]
            elif source != "monte_carlo_one_step_error":
                gaps[seed] = entry["metrics"][source]
        return gaps

    def relu_gaps(self):
        """The ReLU gap of the first run's seeds, checked like the others.

        It is a diagnostic the program does not run, with arrays far larger
        than the fit's, so it runs once after every timed and traced run:
        its allocations stay out of the measured runs' heap and peak RSS.
        Fingerprints already show that later runs fitted the same networks.
        """
        from fittedq import diagnostics

        for seed, result in self.results.items():
            gap = self.gaps[seed] = diagnostics.monte_carlo_one_step_error(
                result.q_final, result.q_penultimate, self.model,
                n_points=1500, n_noise=32,
                rng=self.np.random.default_rng(1234)).value
            if not gap_plausible(self.np, gap):
                self.failed += 1
                self.failures.append(f"run0 seed {seed}: result_gap {gap!r} beats the oracle")

    def check(self, label, seeds, per_seed, report_fp, entries, gaps):
        """Count each seed that raised, erred, or changed its output.

        A report fingerprint that differs fails every seed of the run; the
        traced run covers fewer seeds, so its report is not compared.
        """
        expected = self.expected + ([self.first] if self.first else [])
        report_differs = label != "traced" and any(
            exp["report"] != report_fp for exp in expected)
        for seed in seeds:
            self.attempted += 1
            entry = entries.get(seed, {"status": "missing"})
            if entry["status"] != "ok":
                problem = f"status {entry['status']}: {entry.get('error')}"
            elif any(exp["seeds"].get(str(seed), per_seed[seed]) != per_seed[seed]
                     for exp in expected):
                problem = "output fingerprint differs from an earlier run or reference.json"
            elif seed in gaps and not gap_plausible(self.np, gaps[seed]):
                problem = f"result_gap {gaps[seed]!r} beats the oracle"
            elif report_differs:
                problem = "report.json fingerprint differs"
            else:
                continue
            self.failed += 1
            self.failures.append(f"{label} seed {seed}: {problem}")

    def timed_runs(self, seconds):
        """Repeat the runner call until ``seconds`` pass (at least MIN_RUNS),
        sampling the host's speed throughout."""
        start = time.perf_counter()
        run_times, seed_times = [], []
        self.probe.start()
        try:
            while True:
                label = f"run{len(run_times)}"
                wall, times, _ = self.run_once(label, self.seeds)
                run_times.append(wall)
                seed_times.extend(times)
                elapsed = time.perf_counter() - start
                # stop where the expected overrun and underrun balance
                if len(run_times) >= MIN_RUNS and elapsed + wall / 2 > seconds:
                    return run_times, seed_times
        finally:
            self.probe.stop()


def gap_plausible(np, gap):
    """A gap is finite and not below the oracle's own error (at most 5e-11)."""
    return bool(np.isfinite(gap) and gap >= -1e-9)


def peak_rss_kb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def provenance(workload_seed):
    import platform

    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 prints instead
        pass
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": affinity or os.cpu_count(),
        "pinned": {k: os.environ.get(k) for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": workload_seed,
    }


def traced_run(bench, untraced_p50):
    import numpy as np

    from tracer import NAMES, PHASES, SEED_ROOT, Tracer

    workload = bench.workload
    seeds = bench.seeds[:workload.traced_seeds]
    tracer = Tracer()
    tracer.install()
    try:
        _, _, per_seed = bench.run_once("traced", seeds)
    finally:
        tracer.uninstall()
    written = bytes_written(bench.out_dir / "traced")

    spans = tracer.spans()
    name_ids = spans["name"]
    calls = np.bincount(name_ids, minlength=len(NAMES))
    self_s = np.bincount(name_ids, weights=spans["self"], minlength=len(NAMES))
    in_seed = spans["seed"] >= 0
    phase_s = np.bincount(spans["phase"][in_seed], weights=spans["self"][in_seed],
                          minlength=len(PHASES))
    metrics = {}
    for i, name in enumerate(NAMES):
        metrics[f"{name}.calls"] = (int(calls[i]), "count")
        metrics[f"{name}.self_s"] = (float(self_s[i]), "s")
    count = dict(zip(NAMES, calls.tolist()))
    solves = count["matrix_game.solve"]
    reads = (count["approximators.TabularQ.evaluate_all"]
             + count["approximators.SparseReluQ.evaluate_all"])
    backward = count["approximators.ReluHead.forward_backward"]
    metrics["matrix_game.solve.distinct_frac"] = (
        len(tracer.payoffs) / solves if solves else 0.0, "ratio")
    metrics["approximators.evaluate_all.per_transition"] = (
        reads / count["envs.sample_transition"] if count["envs.sample_transition"] else 0.0,
        "reads/sample")
    metrics["approximators.ReluHead.forward.per_backward"] = (
        count["approximators.ReluHead.forward"] / backward if backward else 0.0, "ratio")
    metrics["runner.bytes_written"] = (written, "bytes")
    for i, phase in enumerate(PHASES):
        metrics[f"phase.{phase}_s"] = (float(phase_s[i]), "s")

    roots = np.nonzero(name_ids == NAMES.index(SEED_ROOT))[0]
    traced_seed_s = spans["end"][roots] - spans["start"][roots]
    metrics["trace.overhead"] = (float(np.median(traced_seed_s)) / untraced_p50, "ratio")

    checks = []
    config = workload.config(bench.workload_seed, "", seeds)
    for name, want in expected_calls(workload, config, len(seeds)).items():
        checks.append((f"{name}.calls == {want}", count[name] == want,
                       f"got {count[name]}"))
    for root, wall in zip(roots.tolist(), traced_seed_s.tolist()):
        total = float(spans["self"][spans["seed"] == root].sum())
        checks.append((f"self times of seed span {root} sum to its wall time",
                       bool(abs(total - wall) <= 1e-6 * max(wall, 1.0)),
                       f"{total:.6f} s vs {wall:.6f} s"))
    phase_total = float(phase_s.sum())
    checks.append(("phases partition the traced seeds' wall time",
                   bool(abs(phase_total - traced_seed_s.sum()) <= 1e-6 * max(phase_total, 1.0)),
                   f"{phase_total:.6f} s vs {traced_seed_s.sum():.6f} s"))
    for seed, fp in per_seed.items():
        checks.append((f"traced seed {seed} output equals the untraced one",
                       bench.first["seeds"].get(str(seed)) == fp, fp[:12]))

    np.savez_compressed(bench.out_dir.parent / f"trace-{workload.name}.npz",
                        names=np.array(NAMES), **spans)
    top = sorted(((float(self_s[i]), NAMES[i]) for i in range(len(NAMES))), reverse=True)
    return {"metrics": metrics, "checks": checks, "top_self": top[:6],
            "traced_seeds": len(seeds), "spans": len(name_ids),
            "distinct_payoffs": len(tracer.payoffs)}


def run_main(workload, workload_seed, seconds, trace, out_dir):
    probe = HostProbe()
    bench = Bench(workload, workload_seed, out_dir, probe)
    run_times, seeds = bench.timed_runs(seconds)
    # A seed too short to hold a probe takes the mean of all probes.
    mean_probe_s = probe.kernel_mean_s()
    seed_times = [wall for wall, _ in seeds]
    result = {
        "run_times": run_times,
        "seed_times": seed_times,
        "seed_probe_s": [p if p is not None else mean_probe_s for _, p in seeds],
        "probes": len(probe.samples),
        "peak_rss_kb": peak_rss_kb(),
        "provenance": provenance(workload_seed),
    }
    if trace:
        result["trace"] = traced_run(bench, statistics.median(seed_times))
    if workload.gap_source == "monte_carlo_one_step_error":
        bench.relu_gaps()
    result.update(result_gaps=list(bench.gaps.values()),fingerprints=dict(bench.first, workload_seed=workload_seed),
                  attempted=bench.attempted, failed=bench.failed,
                  failures=bench.failures,
                  reference_checked=bool(bench.expected))
    print(json.dumps(result))


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "setup":
        setup_main(workload, seed)
    else:
        run_main(workload, seed, float(argv[3]), argv[4] == "1", Path(argv[5]))


if __name__ == "__main__":
    main(sys.argv[1:])
