"""The macaulay benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload ideal-verify --seed 1 --seconds 30 --trace 0

Every job goes through the public CLI in-process (``cli.main([...])`` with
stdout captured), in one process with no threads: a closed loop with one
client, each job starting when the previous one has finished.  Set-up
imports the package from ``src/``, makes the workload's inputs from the
seed and writes them to files; the timed phase sees only those files.

``--trace 0`` runs jobs for ``--seconds`` seconds and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
over the job pool and reports the per-layer metrics; it also writes the
spans, the size of every job and the environment to
``bench/out/trace-<workload>.json.gz``.  Every report is checked after the
timed or traced phase.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer, macaulay_modules
from workloads import WORKLOADS, verdicts_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7

# On a shared 2-core VM, machine speed was measured to drift by a factor of
# 1.2 to 2 within seconds, and raw job timings spread by 15-35% between
# runs.  So the job loop measures the machine's current slowness every
# CALIBRATE_EVERY_S of job time, and divides each job's time by the mean of
# the two measurements around it: times are reported at reference speed.
# Slowness is the time of fixed stdlib loops over their reference times.
# Arithmetic-bound and argparse-bound code slow down differently, so each
# workload blends an arithmetic loop and a parser loop in the proportion of
# its own work (``PARSER_SHARE``).  The loops share no code with the
# package, so a change to the package moves the scaled times in full.
REFERENCE_ARITH_S = 0.00075
REFERENCE_PARSER_S = 0.0005
CALIBRATE_EVERY_S = 0.02
CALIBRATE_LOOPS = 3

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def arith_loop() -> None:
    """Fraction, big-integer and dict work, like the rank kernels'."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    x = 1
    for i in range(1, 300):
        acc += Fraction(i % 7 - 3, i)
        x = (x * 6364136223846793005 + i) % (1 << 127)
        table[x % 1009] = table.get(x % 1009, 0) + 1


def parser_loop() -> None:
    """Build an argparse parser, parse one command, dump a small report."""
    parser = argparse.ArgumentParser(prog="calibration")
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("one", "two", "three", "four"):
        p = sub.add_parser(name, help="a subcommand")
        p.add_argument("A", type=int)
        p.add_argument("--m-max", type=int, default=3)
    args = parser.parse_args(["two", "5", "--m-max", "4"])
    json.dumps({"command": args.subcommand, "outputs": {"terms": [[5, 2], [3, 1]], "value": "1/2"}}, indent=2)


def slowness(parser_share: float) -> float:
    """How many times slower than the reference the machine runs now."""
    total = 0.0
    for share, loop, reference in ((1 - parser_share, arith_loop, REFERENCE_ARITH_S),
                                   (parser_share, parser_loop, REFERENCE_PARSER_S)):
        if share:
            t0 = perf_counter()
            for _ in range(CALIBRATE_LOOPS):
                loop()
            total += share * (perf_counter() - t0) / (CALIBRATE_LOOPS * reference)
    return total


def fresh_import() -> SimpleNamespace:
    """Import the package from ``src/`` anew, dropping any loaded copy."""
    for name in [m.__name__ for m in macaulay_modules()]:
        del sys.modules[name]
    cli = importlib.import_module("macaulay.cli")
    if Path(cli.__file__).resolve().parent != SRC / "macaulay":
        raise ImportError(f"imported {cli.__file__}, not the checkout's src/macaulay")
    return SimpleNamespace(cli=cli, **{m: sys.modules[f"macaulay.{m}"] for m in ("binom", "poly", "hermitian", "oracle")})


def setup(workload, seed: int, inputs: Path, blocks: int):
    """Import, generate and write the inputs ``SETUP_REPEATS`` times.

    Returns the last round's modules and jobs, and the median set-up time
    scaled to the reference speed.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = slowness(workload.PARSER_SHARE)
        t0 = perf_counter()
        mods = fresh_import()
        jobs = workload.generate(mods, mods.oracle.SplitMix64(seed), inputs, blocks)
        seconds = perf_counter() - t0
        times.append(seconds * 2 / (before + slowness(workload.PARSER_SHARE)))
    return mods, jobs, statistics.median(times)


class Runner:
    """Runs CLI jobs in-process, one after another, and keeps what each returned."""

    def __init__(self, mods: SimpleNamespace, parser_share: float) -> None:
        self.cli = mods.cli
        self.parser_share = parser_share
        self.tracer: Tracer | None = None

    def call(self, argv: list[str]) -> tuple[int | None, str, float]:
        """Exit code (None if the CLI raised), captured output, seconds."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a job that raises is a failed job
                err.write(repr(exc))
            t1 = perf_counter()
        return rc, out.getvalue() or err.getvalue(), t1 - t0

    def report(self, argv: list[str]) -> tuple[int | None, dict | None, str]:
        """Run a job and parse its structured report (None if unparseable)."""
        rc, text, _ = self.call(argv)
        try:
            return rc, json.loads(text), text
        except json.JSONDecodeError:
            return rc, None, text

    def run(self, jobs, order, seconds: float = math.inf) -> list[tuple]:
        """Run ``jobs[i]`` for each i of ``order`` until it ends or ``seconds`` pass.

        Returns (job index, rc, output, seconds, scale) per job, where
        ``scale`` turns the job's seconds into seconds at the reference speed.
        """
        results = []
        calibrations = [slowness(self.parser_share)]
        segment: list[tuple] = []
        work = 0.0
        order = iter(order)
        deadline = perf_counter() + seconds
        while True:
            i = next(order, None) if perf_counter() < deadline else None
            if segment and (i is None or work >= CALIBRATE_EVERY_S):
                calibrations.append(slowness(self.parser_share))
                scale = 2 / (calibrations[-2] + calibrations[-1])
                results.extend((*row, scale) for row in segment)
                segment, work = [], 0.0
            if i is None:
                return results
            if self.tracer is not None:
                self.tracer.job = len(results) + len(segment)
            rc, text, dt = self.call(jobs[i].argv)
            segment.append((i, rc, text, dt))
            work += dt


def failure(workload, job, rc, text) -> str | None:
    """Why a job failed, or None: it raised, exited non-zero, printed an
    unparseable report, got a violated verdict or failed the workload's check."""
    if rc != 0:
        return f"exit code {rc}: {text[-200:]}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "unparseable report"
    if report.get("command") != job.argv[2]:
        return f"report for {report.get('command')!r}"
    try:
        return verdicts_pass(report) or workload.check(job, report)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks {exc!r}"


def check_all(workload, jobs, results, runner: Runner) -> dict:
    """Check every job's report, plus the workload's untimed cross-check."""
    bad_sources, cross_checked = workload.cross_check(jobs, runner.report)
    reasons = []
    for i, rc, text, *_ in results:
        job = jobs[i]
        why = failure(workload, job, rc, text)
        if why is None and job.source in bad_sources:
            why = "exact and modular-checked H_I tables differ"
        if why is not None:
            reasons.append(f"{' '.join(job.argv[2:])}: {why}")
    return {
        "correct": not reasons,
        "attempted": len(results),
        "failed": len(reasons),
        "failed_frac": len(reasons) / len(results),
        "cross_checked": cross_checked,
        "reasons": reasons[:20],
    }


def git_sha() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, blocks: int | None = None,
                 out_dir: Path = BENCH_DIR / "out", after_setup=None) -> dict:
    """One benchmark run.  ``blocks`` shrinks the pool for tests, and
    ``after_setup(mods)`` lets a test break the program on purpose.  The
    package modules loaded before the call are restored after it."""
    workload = WORKLOADS[name]
    blocks = blocks or workload.BLOCKS
    inputs = out_dir / f"inputs-{os.getpid()}-{name}"
    saved = {m.__name__: m for m in macaulay_modules()}
    sys.path.insert(0, str(SRC))
    try:
        inputs.mkdir(parents=True, exist_ok=True)
        mods, jobs, setup_s = setup(workload, seed, inputs, blocks)
        if after_setup is not None:
            after_setup(mods)
        runner = Runner(mods, workload.PARSER_SHARE)
        warm = runner.run(jobs, range(len(jobs) // blocks))
        if trace:
            return traced_run(workload, mods, runner, jobs, warm, seed, out_dir)
        return timed_run(workload, runner, jobs, warm, seconds, setup_s)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        sys.path.remove(str(SRC))
        for mod in macaulay_modules():
            del sys.modules[mod.__name__]
        sys.modules.update(saved)


def timed_run(workload, runner: Runner, jobs, warm, seconds: float, setup_s: float) -> dict:
    results = runner.run(jobs, itertools.cycle(range(len(jobs))), seconds)
    outcome = check_all(workload, jobs, warm + results, runner)
    scaled = [dt * scale for *_, dt, scale in results]
    raw = [dt for *_, dt, _ in results]
    values = {
        "jobs_per_s": len(results) / sum(scaled),
        "job_p50_ms": percentile(scaled, 50) * 1e3,
        "job_p95_ms": percentile(scaled, 95) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outcome["metrics"] = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    outcome["samples"] = len(results)
    outcome["unscaled"] = {
        "jobs_per_s": len(raw) / sum(raw),
        "job_p50_ms": percentile(raw, 50) * 1e3,
        "job_p95_ms": percentile(raw, 95) * 1e3,
    }
    return outcome


def traced_run(workload, mods, runner: Runner, jobs, warm, seed, out_dir: Path) -> dict:
    every = range(len(jobs))
    plain = runner.run(jobs, every)
    cache = mods.poly.monomials_of_degree.cache_info
    before = cache()
    tracer = Tracer()
    runner.tracer = tracer
    with tracer.installed(vars(mods)):
        traced = runner.run(jobs, every)
    runner.tracer = None
    after = cache()
    hits, lookups = after.hits - before.hits, after.hits + after.misses - before.hits - before.misses
    wall = sum(dt for *_, dt, _ in traced)
    scale = sum(dt * s for *_, dt, s in traced) / wall
    plain_rate = len(plain) / sum(dt * s for *_, dt, s in plain)
    metrics = tracer.metrics(wall, scale, len(traced), plain_rate, hits / lookups if lookups else 0.0)
    outcome = check_all(workload, jobs, warm + plain + traced, runner)
    outcome["metrics"] = metrics
    outcome["samples"] = len(traced)
    write_trace(out_dir / f"trace-{workload.name}.json.gz", workload, seed, jobs, traced, tracer, metrics)
    return outcome


def write_trace(path: Path, workload, seed, jobs, traced, tracer: Tracer, metrics) -> None:
    """Environment, overhead, per-job sizes and every span of the traced pass."""
    doc = {
        "workload": workload.name,
        "seed": seed,
        "env": {
            "python": sys.version,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_sha": git_sha(),
        },
        "overhead": {k: metrics[k]["value"] for k in ("trace.jobs_per_s", "trace.untraced_jobs_per_s", "trace.overhead_frac")},
        "metrics": metrics,
        "self_s_by_span": {k: {"self_s": s, "calls": c} for k, (s, c) in tracer.totals().items() if c},
        "jobs": [
            {"job": j, "argv": jobs[i].argv[2:], "kind": jobs[i].kind, "size": jobs[i].size,
             "seconds": dt, "scale": scale, "exit_code": rc, "inner": tracer.job_sizes.get(j, [])}
            for j, (i, rc, _, dt, scale) in enumerate(traced)
        ],
        "spans": tracer.spans(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "macaulay" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'macaulay'}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key:45s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'failed_frac':45s} {result['failed_frac']:>14.6g} ratio  ({result['failed']}/{result['attempted']})")
    print(f"{'samples':45s} {result['samples']:>14d} jobs  (cross-checked inputs: {result['cross_checked']})")
    for key, value in result.get("unscaled", {}).items():
        print(f"{'unscaled ' + key:45s} {value:>14.6g}")
    for reason in result["reasons"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
