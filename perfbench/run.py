"""End-to-end and per-layer benchmark of the l0convex CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each of
them in turn and print one row per workload.  Run it from anywhere; it
benchmarks the package source under `src/` of the checkout it sits in.

--trace 0 (timed run): a closed loop with one client.  It starts
`python -m l0convex.cli` as a child process, one invocation at a time,
for S seconds (longer if needed to reach the 100 invocations that a
90th percentile with ten samples beyond it needs).  Every output is
checked against the hand-written oracle in workloads.py, and repeated
invocations must print byte-identical reports.

The host's speed drifts by up to 1.7x over minutes (measured on a
shared 2-core VM), which swamps run-to-run comparisons of raw seconds.
So after every second invocation the loop also times a bare
`python -c pass` start, which runs no l0convex code, and the bounded
timings are ratios to it: each invocation is divided by the median of
the five bare starts nearest it (about ten invocations, a few seconds),
which follows the drift but not the jitter of a single start.
End-to-end metrics:

    run_rel      median of (invocation wall time / nearby bare start wall time)
    run_rel_p90  90th percentile of the same ratios
    cpu_rel      median of (invocation CPU time / nearby bare start CPU time),
                 user+sys from the child's rusage
    setup_s      set-up time: `python -c "import l0convex.cli"`, timed before
                 every 8th invocation, as the median ratio to the nearby bare
                 starts times REFERENCE_START_S (70 ms), i.e. seconds on a
                 host whose bare start takes 70 ms
    peak_rss_mb  median peak resident set size of one invocation
    run_s, run_s_p90, cpu_s, setup_raw_s, python_start_s
                 the raw seconds behind the ratios (table and result file)
    error_rate   failed / attempted invocations (table and counts only:
                 a metric that is 0 on correct code has no relative bound)

--trace 1 (traced run): the same invocations run in this process by
calling `l0convex.cli.main`, alternating an untraced pass with a pass
traced by tracer.py, until S seconds have passed.  It reports the
per-layer metrics named in BENCHMARK.json: call counts (which must
repeat exactly from pass to pass), self times (median over passes) and
the traced/untraced wall-time ratio.  With `--workload all` it also
checks that the workloads cover the layers (see `coverage`).

Each run writes a result file to --out (default perfbench/results/),
which also records the environment and every invocation's arguments,
config and sample count; traced runs also write their spans there.
The last line of stdout is one JSON object: correct, attempted,
failed, metrics.  compare.py diffs two sets of result files.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import stats
from tracer import MODULES, Tracer, instrument, restore
from workloads import WORKLOADS, Invocation, schedule

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
STARTED = time.perf_counter()

MIN_INVOCATIONS = 100  # a 90th percentile needs ten samples beyond it
TIME_LIMIT_S = 150  # stop measuring by then, whatever the counts
SETUP_REPEATS = 7  # import timings behind the traced run's start-up share
SETUP_EVERY = 8  # the timed run times the import before every 8th invocation
REFERENCE_EVERY = 2  # ... and a bare interpreter start after every 2nd
REFERENCE_HALF_WINDOW = 2  # each invocation is divided by the median of 5 starts
TAIL_PERCENT = 90
# setup_s is quoted in seconds on a host whose bare start takes this long
# (about the median on the 2-core VM the bounds were set on).
REFERENCE_START_S = 0.070
TIMED_UNITS = {
    "run_rel": "x", "run_rel_p90": "x", "cpu_rel": "x", "setup_s": "s", "peak_rss_mb": "MB",
    "run_s": "s", "run_s_p90": "s", "cpu_s": "s", "setup_raw_s": "s", "python_start_s": "s",
}

# Coverage rule for the traced run over all workloads: each of these
# layers takes at least HEAVY_FACTOR times the share of traced time on
# its heaviest workload that it takes on its lightest one.
CONTRASTED_LAYERS = ("l0", "seminorms", "concatenation", "syntax")
HEAVY_FACTOR = 2.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (as opposed to a wrong output)."""


# -- running the CLI ---------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


class ChildRunner:
    """Starts the CLI as child processes, one at a time, in `work`."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SOURCE))
        self.env.pop("PYTHONHOME", None)
        self._files = contextlib.ExitStack()
        self.stdout = self._files.enter_context(open(work / "stdout", "w+b"))
        self.stderr = self._files.enter_context(open(work / "stderr", "w+b"))

    def close(self) -> None:
        self._files.close()

    def run(self, args) -> Outcome:
        for f in (self.stdout, self.stderr):
            f.seek(0)
            f.truncate()
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=self.work,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=self.stdout,
            stderr=self.stderr,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = []
        for f in (self.stdout, self.stderr):
            f.seek(0)
            outputs.append(f.read().decode("utf-8", "replace"))
        return Outcome(
            proc.returncode,
            *outputs,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        )

    def cli(self, inv: Invocation) -> Outcome:
        return self.run(("-m", "l0convex.cli", *inv.args))


class Checker:
    """Applies the oracle and the byte-identical-output rule; counts failures."""

    def __init__(self):
        self.first_output: dict[tuple, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[dict] = []

    def check(self, inv: Invocation, outcome: Outcome) -> None:
        self.attempted += 1
        error = inv.check(outcome.code, outcome.out)
        if error is None and self.first_output.setdefault(inv.key(), outcome.out) != outcome.out:
            error = "output differs from the first output for the same arguments and config"
        if error is not None:
            self.fail(inv, error, outcome.err)

    def fail(self, inv: Invocation, error: str, stderr: str = "") -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append({"args": list(inv.args), "error": error, "stderr": stderr[-800:]})


def _write_configs(corpus: list[Invocation], work: Path) -> None:
    for inv in corpus:
        if inv.config is not None:
            name, text = inv.config
            (work / name).write_text(text)


def _invocation_record(counts: dict[tuple, list]) -> list[dict]:
    return [dict(inv.describe(), count=n) for inv, n in counts.values()]


# -- timed run ---------------------------------------------------------------------


def timed_run(workload, seed: int, seconds: float, work: Path) -> dict:
    rng = random.Random(seed)
    corpus = workload.build(rng)
    _write_configs(corpus, work)
    checker = Checker()
    counts: dict[tuple, list] = {}
    walls, cpus, rss, setup = [], [], [], []
    setup_ref: list[int] = []  # per import timing: the reference start timed after it
    refs: list[Outcome] = []  # bare interpreter starts
    ref_index: list[int] = []  # per invocation: the reference start timed right after it
    runner = ChildRunner(work)
    try:
        # the first invocation also compiles the package's bytecode: checked, not timed
        jobs = schedule(corpus, rng)
        warm = next(jobs)
        checker.check(warm, runner.cli(warm))
        deadline = time.perf_counter() + seconds
        for k, inv in enumerate(jobs):
            now = time.perf_counter()
            if now - STARTED > TIME_LIMIT_S or (now >= deadline and len(walls) >= MIN_INVOCATIONS):
                break
            if k % SETUP_EVERY == 0:
                setup.append(_import_time(runner))
                setup_ref.append(len(refs))
            outcome = runner.cli(inv)
            checker.check(inv, outcome)
            counts.setdefault(inv.key(), [inv, 0])[1] += 1
            walls.append(outcome.wall_s)
            cpus.append(outcome.cpu_s)
            rss.append(outcome.rss_mb)
            ref_index.append(len(refs))
            if k % REFERENCE_EVERY == REFERENCE_EVERY - 1:
                refs.append(_reference_start(runner))
        if ref_index and ref_index[-1] == len(refs):
            refs.append(_reference_start(runner))
    finally:
        runner.close()
    ref_wall = stats.rolling_median([r.wall_s for r in refs], REFERENCE_HALF_WINDOW)
    ref_cpu = stats.rolling_median([r.cpu_s for r in refs], REFERENCE_HALF_WINDOW)
    run_rel = [w / ref_wall[j] for w, j in zip(walls, ref_index)]
    cpu_rel = [c / ref_cpu[j] for c, j in zip(cpus, ref_index)]
    setup_rel = [t / ref_wall[j] for t, j in zip(setup, setup_ref)]
    tails = [stats.tail_percentile(v, TAIL_PERCENT) for v in (walls, run_rel)]
    if None in tails:
        raise BenchmarkError(
            f"only {len(walls)} invocations in {TIME_LIMIT_S} s; the 90th percentile "
            f"needs {MIN_INVOCATIONS}"
        )
    metrics = {
        "run_rel": statistics.median(run_rel),
        "run_rel_p90": tails[1],
        "cpu_rel": statistics.median(cpu_rel),
        "setup_s": REFERENCE_START_S * statistics.median(setup_rel),
        "peak_rss_mb": statistics.median(rss),
        "run_s": statistics.median(walls),
        "run_s_p90": tails[0],
        "cpu_s": statistics.median(cpus),
        "setup_raw_s": statistics.median(setup),
        "python_start_s": statistics.median([r.wall_s for r in refs]),
    }
    samples = {
        "wall_s": walls, "cpu_s": cpus, "rss_mb": rss, "setup_s": setup,
        "reference_index": ref_index, "setup_reference_index": setup_ref,
        "reference_wall_s": [r.wall_s for r in refs],
        "reference_cpu_s": [r.cpu_s for r in refs],
    }
    return {
        "metrics": metrics,
        "invocations": _invocation_record(counts),
        "samples": samples,
        "checker": checker,
    }


def _import_time(runner: ChildRunner) -> float:
    outcome = runner.run(("-c", "import l0convex.cli"))
    if outcome.code != 0:
        raise BenchmarkError(f"importing l0convex.cli failed:\n{outcome.err}")
    return outcome.wall_s


def _reference_start(runner: ChildRunner) -> Outcome:
    """A bare interpreter start, which runs no l0convex code."""
    ref = runner.run(("-c", "pass"))
    if ref.code != 0:
        raise BenchmarkError(f"a bare interpreter start failed:\n{ref.err}")
    return ref


# -- traced run --------------------------------------------------------------------


def _in_process(cli, inv: Invocation) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(inv.args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation; keep measuring
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue())


def _pass(cli, invocations, checker: Checker) -> float:
    started = time.perf_counter()
    outcomes = [_in_process(cli, inv) for inv in invocations]
    wall = time.perf_counter() - started
    for inv, outcome in zip(invocations, outcomes):
        checker.check(inv, outcome)
    return wall


def _summarise(tracer: Tracer) -> dict:
    inclusive, exclusive = tracer.totals()
    return {
        "calls": tracer.calls(),
        "inclusive": inclusive,
        "self": exclusive,
        "module_self": {
            m: sum(v for k, v in exclusive.items() if k.startswith(m + ".")) for m in MODULES
        },
        "root_s": tracer.root_time(),
        "canonical_inputs": tracer.canonical_inputs,
        "max_bits": tracer.max_bits,
    }


def _is_count(name: str) -> bool:
    """Metrics that must repeat exactly for the same seed."""
    return name.endswith(".calls") or name in ("l0.max_bits", "l0.EcRv.canonical_input_ratio")


def layer_metric(name: str, summary: dict) -> float:
    """One per-layer metric, by its `<module>.<function>.<what>` name."""
    if name == "l0.max_bits":
        return summary["max_bits"]
    if name == "l0.EcRv.canonical_input_ratio":
        built = summary["calls"]["l0.EcRv.new"]
        return summary["canonical_inputs"] / built if built else 0.0
    if name == "cli.emit_s":
        return summary["inclusive"].get("cli._emit", 0.0)
    if name.endswith(".calls"):
        return summary["calls"][name[: -len(".calls")]]
    if name.endswith(".self_s"):
        span = name[: -len(".self_s")]
        if span in summary["module_self"]:
            return summary["module_self"][span]
        return summary["self"].get(span, 0.0)
    raise BenchmarkError(f"no rule computes the per-layer metric {name!r}")


def traced_run(
    workload, seed: int, seconds: float, work: Path, names: list[str], spans_path: Path
) -> dict:
    rng = random.Random(seed)
    corpus = workload.build(rng)
    _write_configs(corpus, work)
    jobs = schedule(corpus, rng)
    invocations = [next(jobs) for _ in range(workload.traced_invocations)]
    checker = Checker()
    runner = ChildRunner(work)
    try:  # compiles the package's bytecode before the import is timed
        checker.check(invocations[0], runner.cli(invocations[0]))
        setup_s = statistics.median([_import_time(runner) for _ in range(SETUP_REPEATS)])
    finally:
        runner.close()

    os.chdir(work)
    sys.path.insert(0, str(SOURCE))
    started = time.perf_counter()
    cli = importlib.import_module("l0convex.cli")
    import_s = time.perf_counter() - started
    if not Path(cli.__file__).resolve().is_relative_to(SOURCE):
        raise BenchmarkError(f"imported l0convex from {cli.__file__}, not from {SOURCE}")

    plain, traced, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    while not summaries or (
        time.perf_counter() < deadline and time.perf_counter() - STARTED < TIME_LIMIT_S
    ):
        plain.append(_pass(cli, invocations, checker))
        tracer = Tracer()
        patches = instrument(tracer)
        try:
            traced.append(_pass(cli, invocations, checker))
        finally:
            restore(patches)
        summaries.append(_summarise(tracer))
    tracer.write_csv_gz(spans_path)

    metrics = {}
    for name in names:
        if name == "trace_overhead_ratio":
            metrics[name] = statistics.median(traced) / statistics.median(plain)
        elif name == "cli.import_s":
            metrics[name] = import_s
        else:
            values = [layer_metric(name, s) for s in summaries]
            if _is_count(name) and len(set(values)) > 1:
                checker.fail(invocations[0], f"{name} differs between passes: {values}")
            metrics[name] = values[0] if _is_count(name) else statistics.median(values)
    # Shares of a whole invocation as the timed run sees it: start-up, then
    # cli.main with each module's traced share scaled to the untraced time.
    startup = len(invocations) * setup_s
    total = statistics.median(plain) + startup
    root_s = statistics.median([s["root_s"] for s in summaries])
    shares = {"start-up": startup / total}
    for m in MODULES:
        traced_share = statistics.median([s["module_self"][m] for s in summaries]) / root_s
        shares[m] = traced_share * (1 - shares["start-up"])
    return {
        "metrics": metrics,
        "shares": shares,
        "passes": len(summaries),
        "spans": tracer.span_count(),
        "invocations": [dict(inv.describe(), count=len(summaries) * 2) for inv in invocations],
        "checker": checker,
    }


def coverage(results: dict[str, dict], names: list[str]) -> list[str]:
    """Problems with how the traced workloads cover the layers."""
    problems = [
        f"{name} is zero on every workload"
        for name in names
        if not any(r["metrics"][name] for r in results.values())
    ]
    for layer in CONTRASTED_LAYERS:
        shares = {w: r["shares"][layer] for w, r in results.items()}
        heavy, light = max(shares, key=shares.get), min(shares, key=shares.get)
        if shares[heavy] < HEAVY_FACTOR * shares[light] or shares[heavy] == 0:
            problems.append(
                f"{layer} is not heavy on one workload and light on another: "
                + ", ".join(f"{w} {s:.1%}" for w, s in shares.items())
            )
    return problems


# -- output --------------------------------------------------------------------------


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def print_tables(records: dict[str, dict], units: dict[str, str], trace: int) -> None:
    workloads = list(records)
    names = list(units)
    if not trace:
        header = ["workload"] + [f"{n} [{u}]" for n, u in TIMED_UNITS.items()]
        header += ["error_rate [share]", "invocations [count]"]
        rows = [
            [w]
            + [_fmt(r["metrics"][n]) for n in TIMED_UNITS]
            + [_fmt(r["failed"] / r["attempted"]), str(len(r["samples"]["wall_s"]))]
            for w, r in records.items()
        ]
        _print_grid(header, rows)
        return
    rows = [
        [f"{n} [{units[n]}]"] + [_fmt(records[w]["metrics"][n]) for w in workloads] for n in names
    ]
    rows.append(["passes [count]"] + [str(records[w]["passes"]) for w in workloads])
    rows.append(["spans per pass [count]"] + [str(records[w]["spans"]) for w in workloads])
    _print_grid(["metric [unit]"] + workloads, rows)
    print("\nshare of invocation time: interpreter start-up and import, then each")
    print("module's self time inside cli.main (traced shares scaled to untraced time)")
    _print_grid(
        ["layer"] + workloads,
        [[m] + [f"{records[w]['shares'][m]:.1%}" for w in workloads]
         for m in records[workloads[0]]["shares"]],
    )


def _print_grid(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def run_workload(name: str, args, units: dict[str, str], out_dir: Path) -> dict:
    """Run one workload in this process and write its result file."""
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(WORKLOADS[name], args.seed, args.seconds, work, list(units),
                            out_dir / f"{stem}-spans.csv.gz")
    else:
        result = timed_run(WORKLOADS[name], args.seed, args.seconds, work)
        missing = set(units) - set(result["metrics"])
        if missing:
            raise BenchmarkError(f"no rule computes the end-to-end metrics {sorted(missing)}")
    checker = result.pop("checker")
    record = {
        "benchmark": "perfbench",
        "env": environment(),
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "units": units,
        **result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def run_each_workload(args, out_dir: Path) -> dict[str, dict]:
    """`--workload all`: each workload in a fresh process, so every traced
    run times its own first import of the package."""
    records = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"{name} exited with {proc.returncode}:\n{proc.stderr}")
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        records[name] = json.loads((out_dir / f"{stem}.json").read_text())
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "results",
                        help="directory for result files (default: perfbench/results)")
    args = parser.parse_args(argv)

    if not (SOURCE / "l0convex" / "cli.py").is_file():
        print(f"error: no l0convex source under {SOURCE}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    out_dir = args.out.resolve()
    try:
        if args.workload == "all":
            records = run_each_workload(args, out_dir)
        else:
            records = {args.workload: run_workload(args.workload, args, units, out_dir)}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print_tables(records, units, args.trace)
    problems = coverage(records, list(units)) if args.trace and len(records) > 1 else []
    for problem in problems:
        print(f"coverage: {problem}")
    for r in records.values():
        for e in r["errors"]:
            print(f"failed: {e['args']}: {e['error']}", file=sys.stderr)
    failed = sum(r["failed"] for r in records.values())
    qualify = len(records) > 1
    summary = {
        "correct": failed == 0 and not problems,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": {
            (f"{w}.{n}" if qualify else n): {"value": v, "unit": units[n]}
            for w, r in records.items()
            for n, v in r["metrics"].items()
            if n in units
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
