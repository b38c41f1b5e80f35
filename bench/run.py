"""gpdalg benchmark: seeded desk-scale workloads, timed end to end and,
in a separate traced run, layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --write-expected      # store default-seed outputs

Run from the root of a source checkout: the package is imported from
./src and nothing else of the repository is needed apart from the test
fixtures.  One client runs a closed loop: the next report starts when
the previous one has finished.  Reports run in whole passes over the
workload's inputs, in a seeded order per pass, until --seconds have
gone by and at least the workload's minimum number of passes is done,
so every input is weighted equally in every metric.

Human-readable lines go first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics.
Inputs, spans and a result record go under .bench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120
# report_s_tail is the percentile with this many inputs' worth of
# samples beyond it.  Each input is run once per pass, so a fraction of
# one half puts the percentile in the middle of one input's samples,
# away from the jump between two inputs, and keeps it the same on every
# run.  Runs make enough passes for TAIL_BEYOND samples beyond it.
TAIL_INPUTS = {"groupoid_verify": 2.5, "leavitt_verify": 1.5, "charp_oracle": 0.5,
               "cli_cold": 3.5}
TAIL_BEYOND = 10
START_UP_REPEATS = 5
START_UP_EVERY_S = 2.0

# Calibration against the drift of a shared host: see ReferenceClock.
REF_ITERATIONS = 1000
REF_COMPUTE_S = 0.0035
REF_START_UP = ("-I", "-c", "import argparse, dataclasses, fractions")
REF_START_UP_S = 0.1
REF_WINDOW = 5
_ZERO = Fraction(0)


class ReferenceClock:
    """Follows the speed of the host while the reports run.

    On a shared host the same reports run up to a fifth slower for
    seconds to minutes at a time, which no run length averages out.  A
    fixed reference load that does not use the package runs after every
    report.  It is the same kind of work as the report: pure-Python
    computation (exact fractions summed in a dict keyed by tuples) for
    in-process reports, and a fresh isolated interpreter importing the
    standard modules the package uses for cli_cold.  A report's time is
    scaled by the load's nominal time over the mean time of the loads
    run just before and after it, so it is given in seconds of a host on
    which the load takes its nominal time.  Raw times and the mean scale
    are printed and kept in the result record.
    """

    def __init__(self, cold: bool):
        self.cold = cold
        self.nominal = REF_START_UP_S if cold else REF_COMPUTE_S
        self.units = []

    def tick(self) -> int:
        """Runs the load once; returns its index."""
        t0 = perf_counter()
        if self.cold:
            _spawn([sys.executable, *REF_START_UP])
        else:
            acc = {}
            for i in range(REF_ITERATIONS):
                key = (i % 97, i % 13)
                acc[key] = acc.get(key, _ZERO) + Fraction(i, 7)
        self.units.append(perf_counter() - t0)
        return len(self.units) - 1

    def factor(self, index=None) -> float:
        """Scale for a time measured next to load `index`, or for the
        whole run when index is None."""
        if index is None:
            window = self.units
        else:
            window = self.units[max(0, index - REF_WINDOW): index + REF_WINDOW + 1]
        return self.nominal * len(window) / math.fsum(window)

    def calibrate(self, samples):
        """Scaled seconds of (raw seconds, load index) samples."""
        return [dt * self.factor(i) for dt, i in samples]


def machine() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
    }


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _spawn(cmd):
    """Run a child to completion.  Output goes to pipes: with a timeout,
    waiting on a child without pipes polls with sleeps of up to 50 ms,
    which would be timed too."""
    return subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          check=True, timeout=CHILD_TIMEOUT_S)


class Runner:
    """Runs the report of a case in process through gpdalg.cli.main, or
    as a fresh interpreter for the cli_cold workload."""

    def __init__(self, workload, cli, workdir, clock, tracer=None):
        self.cold = workload == "cli_cold"
        self.cli = cli
        self.workdir = workdir
        self.clock = clock
        self.tracer = tracer
        self.spans_file = workdir / "child_spans.json"

    def path(self, case) -> str:
        return str(ROOT / case.filename) if case.text is None else str(self.workdir / case.filename)

    def report(self, case, traced=False):
        """(seconds, exit code, stdout, stderr)."""
        run = self._run_child if self.cold else self._run_in_process
        return run(case.argv(self.path(case)), traced)

    def run(self, case, traced=False):
        """report() and the index of the reference load run right after it."""
        return (*self.report(case, traced), self.clock.tick())

    def _run_in_process(self, argv, traced):
        out, err = io.StringIO(), io.StringIO()
        # the wrappers are bound only for a traced report, so untraced
        # reports run the package's own functions
        restore = spans.install(self.cli, self.tracer) if traced else None
        span = self.tracer.span(spans.ROOT) if traced else contextlib.nullcontext()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                with span:
                    rc = self.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 1
            except Exception:  # the interpreter would print it and exit 1
                traceback.print_exc()
                rc = 1
        dt = perf_counter() - t0
        if restore:
            restore()
        return dt, rc, out.getvalue(), err.getvalue()

    def _run_child(self, argv, traced):
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(self.spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "gpdalg.cli", *argv]
        t0 = perf_counter()
        try:
            p = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                               text=True, encoding="utf-8", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            return perf_counter() - t0, "timeout", e.stdout or "", e.stderr or ""
        dt = perf_counter() - t0
        if traced:
            with contextlib.suppress(OSError, ValueError):
                with open(self.spans_file, encoding="utf-8") as fh:
                    base = len(self.tracer.spans)
                    for rec in json.load(fh):
                        if rec[3] is not None:
                            rec[3] += base
                        rec[4] = self.tracer.report
                        self.tracer.spans.append(rec)
        return dt, p.returncode, p.stdout, p.stderr


def _purge_package():
    for name in [m for m in sys.modules if m == "gpdalg" or m.startswith("gpdalg.")]:
        del sys.modules[name]


def setup_once(workload, seed, workdir, clock):
    """Import the package, generate and write the inputs, warm up.
    Returns (seconds, gpdalg.cli module, cases)."""
    import workloads
    _purge_package()
    t0 = perf_counter()
    import gpdalg.cli as cli
    cases = workloads.build_cases(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for case in cases:
        if case.text is not None:
            (workdir / case.filename).write_text(case.text, encoding="utf-8")
    # One report per kind of invocation, on its smallest input, compiles
    # bytecode and fills lazy state on every path the timed loop takes.
    # Fresh processes share only the bytecode, so cli_cold warms up one
    # process per subcommand.
    runner = Runner(workload, cli, workdir, clock)
    smallest = {}
    for case in cases:
        size = len(case.text) if case.text is not None else 0
        kind = case.command if runner.cold else case.kind
        if kind not in smallest or size < smallest[kind][0]:
            smallest[kind] = (size, case)
    for _, case in smallest.values():
        runner.report(case)
    return perf_counter() - t0, cli, cases


def load_expected(workload) -> dict:
    if not EXPECTED.is_file():
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


class Gate:
    """Checks every report and counts failures."""

    def __init__(self, workload, cases):
        import gate
        self.gate = gate
        expected = load_expected(workload)
        self.expected = {}
        for case in cases:
            self.expected[case.name] = expected.get(case.key(ROOT))
        self.attempted = 0
        self.failed = 0
        self.unexpected = {}
        self.known = {}

    def check(self, case, rc, out, err) -> int:
        """Records the outcome; returns the T of verified_pairs, or 0."""
        self.attempted += 1
        reasons = self.gate.check(case, rc, out, err, self.expected[case.name])
        if reasons:
            self.failed += 1
            bad = self.gate.unexpected(case, reasons)
            target = self.unexpected if bad else self.known
            target.setdefault(case.name, "; ".join(bad or reasons))
            return 0
        return self.gate.checks_done(self.gate.parse_report(out, case.fmt))

    def mismatch(self, case):
        """A traced report whose stdout differs from the untraced one."""
        self.failed += 1
        self.unexpected.setdefault(case.name, "traced stdout differs from untraced stdout")


def tail(values, q):
    """Nearest-rank percentile q (0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb(cold: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_loop(workload, seconds, rng, cases, runner, gate):
    """Closed loop of whole untraced passes.  Returns (raw seconds, load
    index), the check count and the case name of each report."""
    samples, checks, names = [], [], []
    start = perf_counter()
    passes = 0
    min_passes = math.ceil(TAIL_BEYOND / TAIL_INPUTS[workload])
    while passes < min_passes or perf_counter() - start < seconds:
        order = list(cases)
        rng.shuffle(order)
        for case in order:
            dt, rc, out, err, ref = runner.run(case)
            samples.append((dt, ref))
            checks.append(gate.check(case, rc, out, err))
            names.append(case.name)
        passes += 1
    return samples, checks, names


def traced_loop(seconds, rng, cases, runner, gate):
    """Passes in which every case runs untraced and traced, in a seeded
    order, with stdout compared byte for byte.  Start-up samples are
    taken every START_UP_EVERY_S in between, at least START_UP_REPEATS of
    them.  Returns the raw seconds of the untraced and of the traced
    reports, and the start-up samples."""
    plain, traced, start_up = [], [], []
    start = last_sample = perf_counter()
    while not plain or perf_counter() - start < seconds:
        order = list(cases)
        rng.shuffle(order)
        for case in order:
            runner.tracer.report += 1
            outs = {}
            for mode in (False, True) if rng.random() < 0.5 else (True, False):
                dt, rc, out, err, _ = runner.run(case, traced=mode)
                (traced if mode else plain).append(dt)
                gate.check(case, rc, out, err)
                outs[mode] = out
            if outs[True] != outs[False]:
                gate.mismatch(case)
            if perf_counter() - last_sample >= START_UP_EVERY_S:
                start_up.append(start_up_sample())
                last_sample = perf_counter()
    while len(start_up) < START_UP_REPEATS:
        start_up.append(start_up_sample())
    return plain, traced, start_up


def start_up_sample():
    """Seconds of a fresh `python -c pass` and of a fresh
    `python -c "import gpdalg.cli"`."""
    out = []
    for code in ("pass", "import gpdalg.cli"):
        t0 = perf_counter()
        _spawn([sys.executable, "-c", code])
        out.append(perf_counter() - t0)
    return out


PER_LAYER_TIMES = (
    "groupoid.parse_s", "groupoid.validate_s", "groupoid.structure_s",
    "algebra.decompose_s", "algebra.verify_isomorphism_s",
    "verdicts.verdicts_s", "verdicts.oracle_s.trace_form",
    "verdicts.oracle_s.exhaustive", "verdicts.oracle_s.filtration",
    "leavitt.parse_s", "leavitt.verdicts_s", "leavitt.condition_ne_s",
    "leavitt.enumerate_cycles_s", "leavitt.graph_groupoid_s",
    "leavitt.as_finite_groupoid_s", "leavitt.verify_relations_s",
    "isg.parse_s", "isg.verdicts_s", "isg.base_change_s",
    "report.render_s",
)
PER_LAYER_COUNTS = (
    "groupoid.arrows", "groupoid.compositions", "algebra.checks",
    "verdicts.oracle_runs", "verdicts.oracle_dimension", "verdicts.radical_dimension",
    "leavitt.relation_checks", "leavitt.boundary_paths", "isg.pair_checks",
)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> int:
    workload = args.workload
    workdir = WORK / f"{workload}-{os.getpid()}"
    info = machine()
    clock = ReferenceClock(workload == "cli_cold")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            dt, cli, cases = setup_once(workload, args.seed, workdir, clock)
            setups.append((dt, clock.tick()))
        tracer = spans.Tracer() if args.trace else None
        runner = Runner(workload, cli, workdir, clock, tracer)
        gate = Gate(workload, cases)
        rng = random.Random(f"order:{workload}:{args.seed}")
        cold = workload == "cli_cold"
        record = {"workload": workload, "seed": args.seed, "trace": args.trace,
                  "machine": info, "cases": len(cases)}
        if args.trace:
            plain, traced, start_up = traced_loop(args.seconds, rng, cases, runner, gate)
            interp = statistics.median(p for p, _ in start_up)
            imp = statistics.median(i for _, i in start_up) - interp
            reports = len(traced)
            times, counts = spans.layer_totals(tracer.spans)
            layer_sum = sum(times.values()) / reports
            plain_mean = statistics.fmean(plain)
            raw = {k: times.get(k, 0.0) / reports for k in PER_LAYER_TIMES}
            raw["cli.interpreter_s"] = interp
            raw["cli.import_s"] = imp
            raw["cli.glue_s"] = plain_mean - layer_sum - ((interp + imp) if cold else 0.0)
            raw["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            scale = clock.factor()
            metrics = {k: _metric(v * scale, "s") for k, v in raw.items()}
            metrics.update({k: _metric(counts.get(k, 0) / reports, "count")
                            for k in PER_LAYER_COUNTS})
            spans_path = WORK / f"spans-{workload}-seed{args.seed}.json"
            WORK.mkdir(exist_ok=True)
            tracer.dump(spans_path)
            record.update({"untraced_mean_s": plain_mean,
                           "traced_mean_s": statistics.fmean(traced),
                           "untraced_p50_s": statistics.median(plain),
                           "layer_self_sum_s": layer_sum, "spans": str(spans_path)})
            print(f"{workload}: {reports} traced and {len(plain)} untraced reports; raw "
                  f"untraced mean {plain_mean:.6f} s = layers {layer_sum:.6f} s + glue "
                  f"{raw['cli.glue_s']:.6f} s"
                  + (f" + start-up {interp + imp:.6f} s" if cold else ""))
        else:
            samples, checks, order_log = timed_loop(workload, args.seconds, rng, cases,
                                                    runner, gate)
            q = 100.0 * (1 - TAIL_INPUTS[workload] / len(cases))
            scaled = clock.calibrate(samples)
            plain = [dt for dt, _ in samples]
            raw = {
                "setup_s": statistics.median(dt for dt, _ in setups),
                "report_s_p50": statistics.median(plain),
                "report_s_tail": tail(plain, q),
                "reports_per_s": len(plain) / math.fsum(plain),
                "checks_per_s": sum(checks) / math.fsum(plain),
            }
            scale = clock.factor()
            metrics = {
                "setup_s": _metric(statistics.median(clock.calibrate(setups)), "s"),
                "report_s_p50": _metric(statistics.median(scaled), "s"),
                "report_s_tail": _metric(tail(scaled, q), "s"),
                "reports_per_s": _metric(len(scaled) / math.fsum(scaled), "1/s"),
                "checks_per_s": _metric(sum(checks) / math.fsum(scaled), "1/s"),
                "peak_rss_mb": _metric(peak_rss_mb(cold), "MiB"),
            }
            per_input = {}
            for case, dt, cal in zip(order_log, plain, scaled):
                per_input.setdefault(case, []).append((dt, cal))
            record["per_input_median_s"] = {
                name: [statistics.median(v[0] for v in vals), statistics.median(v[1] for v in vals)]
                for name, vals in sorted(per_input.items())}
            record.update({"tail_percentile": q, "samples": len(samples),
                           "setup_runs_s": [dt for dt, _ in setups],
                           "error_rate": gate.failed / gate.attempted})
            print(f"{workload}: {len(samples)} reports over {len(cases)} inputs; "
                  f"report_s_tail is p{q:.1f} of {len(samples)} samples")
            print(f"error_rate = {gate.failed / gate.attempted:.6f} ratio "
                  f"({gate.failed} of {gate.attempted} reports failed the gate)")
        record.update({"raw": raw, "scale": scale, "reference_units": len(clock.units),
                       "known_failures": gate.known, "unexpected_failures": gate.unexpected,
                       "metrics": metrics})
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"result-{workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(f"machine: Python {info['python']}, nproc {info['nproc']}, {info['cpu']}")
        print(f"host speed scale {scale:.4f} over {len(clock.units)} reference loads; "
              f"times below are calibrated (bench/README.md), raw values in brackets")
        for name, reason in sorted(gate.known.items()):
            print(f"known defect: {name}: {reason}")
        for name, reason in sorted(gate.unexpected.items()):
            print(f"FAILED: {name}: {reason}")
        for name, m in metrics.items():
            extra = f"  (raw {raw[name]:.6g})" if name in raw else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
        print(json.dumps({"correct": not gate.unexpected, "attempted": gate.attempted,
                          "failed": gate.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_expected() -> int:
    """Store the stdout of every default-seed report that passes the gate
    on its predictions, keyed by invocation and input bytes."""
    import gate as gate_mod
    import workloads

    stored = {}
    for workload in workloads.WORKLOADS:
        workdir = WORK / f"{workload}-{os.getpid()}"
        try:
            clock = ReferenceClock(workload == "cli_cold")
            _, cli, cases = setup_once(workload, workloads.DEFAULT_SEED, workdir, clock)
            runner = Runner(workload, cli, workdir, clock)
            table = stored[workload] = {}
            for case in cases:
                _, rc, out, err = runner.report(case)
                reasons = gate_mod.check(case, rc, out, err, None)
                if reasons:
                    print(f"not stored: {workload} {case.name}: {'; '.join(reasons)}")
                    continue
                table[case.key(ROOT)] = out
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()
    if not (SRC / "gpdalg" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a gpdalg checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.write_expected:
        return write_expected()
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
