#!/usr/bin/env python3
"""Benchmark for the vcsndp toolkit.

    python3 perfbench/run.py --workload general-er --seed 1 --seconds 30 --trace 0

Runs one seeded workload through the public CLI entry point
`vcsndp.cli.run` in a closed loop (one client; the next item starts when
the previous one returns), from the source tree next to this directory.
The timed phase runs whole passes over the workload's corpus for up to
`--seconds` (always at least one pass), so every run times the same mix of
items. Every output is checked independently after the timed phase. The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of one traced pass over the corpus with `--trace 1`.
Lines before it list every metric with its unit and direction. Work files,
a detailed `result.json` and, for traced runs, `spans.jsonl` go to
`.perfbench_work/<workload>-s<seed>-t<trace>/`.

Workloads:
  general-er     solve, general mode, on the acceptance criterion-2 corpus
  single-source  solve with mode auto-detection on source-rooted instances
  family-check   family --check over (terminals, k) in (12,3) (10,3) (20,2)
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
try:
    import tracer as tracing
    import vcsndp
    import workloads
    from vcsndp.cli import run as cli_run
except ImportError as exc:
    sys.exit(f"error: cannot import the vcsndp sources under {ROOT / 'src'}: "
             f"{exc}")
if Path(vcsndp.__file__).resolve().parent != ROOT / "src" / "vcsndp":
    sys.exit(f"error: vcsndp was imported from {vcsndp.__file__}, "
             f"not from {ROOT / 'src'}")

SETUP_REPEATS = 5  # this process plus four set-up-only children
TAIL_BEYOND = 10   # samples the tail percentile must leave above it

END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "item_s_p50": ("s", "lower"),
    "item_s_tail": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
# traced-run metrics that do not come from the spans
TRACE_EXTRAS = {"trace.overhead_s": "s", "trace.hooks_missing": "count",
                "cost_total": "cost", "cert_ratio_mean": "ratio"}
HIGHER_IS_BETTER = {"pipeline.class_reuse", "family.good_ratio"}


def per_layer_spec():
    """Unit and direction of every metric a traced run prints."""
    units = {name: unit for name, (_, unit) in tracing.layer_metrics([]).items()}
    units.update(TRACE_EXTRAS)
    return {name: (unit, "higher" if name in HIGHER_IS_BETTER else "lower")
            for name, unit in units.items()}


@dataclass
class Attempt:
    item: object
    code: int | None
    seconds: float
    stdout: str
    files: dict
    error: str = ""
    check: object = None


@dataclass
class Pass:
    attempts: list = field(default_factory=list)
    elapsed: float = 0.0


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the corpus, print the set-up time, exit")
    return ap.parse_args(argv)


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    rank = pct / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n):
    """Highest percentile with TAIL_BEYOND samples above it, at least 50."""
    return max(50.0, 100.0 * (1 - TAIL_BEYOND / n))


class Runner:
    def __init__(self, items, workdir):
        self.items = items
        self.outdir = workdir / "out"
        self.outdir.mkdir()
        self.count = 0

    def attempt(self, item, tracer=None):
        extra, files = workloads.output_args(
            item, str(self.outdir / f"{item.key}.a{self.count:04d}"))
        self.count += 1
        out, err = io.StringIO(), io.StringIO()
        argv = [*item.argv, *extra]
        error = ""
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli_run(argv, out=out, err=err)
            else:
                with tracer.item_span(item.key):
                    code = cli_run(argv, out=out, err=err)
        except Exception as exc:  # an item that raises is a failed item
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code not in (0, None):
            error = err.getvalue().strip()
        return Attempt(item, code, seconds, out.getvalue(), files, error)

    def closed_loop(self, seconds):
        """Whole passes over the corpus, items back to back, while the
        next pass is expected to end within `seconds`."""
        run = Pass()
        start = time.perf_counter()
        passes = 0
        while True:
            for item in self.items:
                run.attempts.append(self.attempt(item))
            passes += 1
            run.elapsed = time.perf_counter() - start
            if run.elapsed * (passes + 1) / passes > seconds:
                return run

    def one_pass(self, items, tracer=None):
        run = Pass()
        start = time.perf_counter()
        for item in items:
            run.attempts.append(self.attempt(item, tracer))
        run.elapsed = time.perf_counter() - start
        return run


def check_attempts(workload, attempts):
    """Check every attempt; a repeat must reproduce the first output."""
    Check = workloads.Check
    first = {}
    for a in attempts:
        if a.code is None:
            a.check = Check(False, a.error, b"")
            continue
        c = workloads.check(workload, a.item, a.code, a.stdout, a.files)
        if c.ok and first.setdefault(a.item.key, c.blob) != c.blob:
            c = Check(False, "output differs from an earlier attempt", c.blob)
        if not c.ok and a.error:
            c = Check(False, f"{c.reason}: {a.error}", c.blob)
        a.check = c


def corpus_summary(items, attempts):
    """Digest and quality figures over the first attempt of each item."""
    first = {}
    for a in attempts:
        first.setdefault(a.item.key, a.check)
    digest = hashlib.sha256()
    cost = 0
    ratios = []
    for item in items:
        c = first[item.key]
        digest.update(item.key.encode() + b"\0" + c.blob + b"\0")
        cost += c.cost or 0
        ratios.extend(c.ratios)
    return {
        "digest": digest.hexdigest(),
        "cost_total": float(cost),
        "cert_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
    }


def measure_setup_children(args, count):
    """Set-up time of fresh processes, each importing and building anew."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _metric_line(name, value, unit, better, note=""):
    return f"  {name:<40} {value:>14.6g} {unit:<6} {better:<7}{note}"


def main(argv=None):
    args = _parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    suffix = "setup" if args.setup_only else f"t{args.trace}"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{suffix}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "corpus").mkdir(parents=True)
    items = workloads.build_corpus(args.workload, args.seed, workdir / "corpus")
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(items, workdir)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "corpus_items": len(items)}
    if args.workload == "family-check":
        detail["goodness_steps"] = {
            f"{tau},{k}": workloads.goodness_steps(tau, k)
            for tau, k in workloads.FAMILY_SIZES}
    if args.trace == 0:
        timed = runner.closed_loop(args.seconds)
        attempts = timed.attempts
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_attempts(args.workload, attempts)
        setups = [setup_s] + measure_setup_children(args, SETUP_REPEATS - 1)
        times = [a.seconds for a in timed.attempts]
        tail_pct = tail_percentile(len(times))
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": len(times) / timed.elapsed,
            "item_s_p50": statistics.median(times),
            "item_s_tail": percentile(times, tail_pct),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: (values[name], unit)
                   for name, (unit, _) in END_TO_END.items()}
        notes = {"setup_s": f"  median of {len(setups)} set-ups",
                 "item_s_p50": f"  n={len(times)}",
                 "item_s_tail": f"  p{tail_pct:.1f}, n={len(times)}"}
        directions = {name: better for name, (_, better) in END_TO_END.items()}
        detail.update(timed_seconds=timed.elapsed, setups=setups,
                      tail_percentile=tail_pct, item_seconds=times)
    else:
        plain = runner.one_pass(items)
        tr = tracing.Tracer()
        with tr.installed():
            traced = runner.one_pass(items, tr)
        attempts = plain.attempts + traced.attempts
        check_attempts(args.workload, attempts)
        overhead = (statistics.median(a.seconds for a in traced.attempts)
                    - statistics.median(a.seconds for a in plain.attempts))
        metrics = tracing.layer_metrics(tr.spans)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.hooks_missing"] = (len(tr.missing), "count")
        notes = {"trace.overhead_s": "  traced minus untraced item_s_p50"}
        directions = {name: better
                      for name, (_, better) in per_layer_spec().items()}
        detail.update(hooks_missing=tr.missing, spans=len(tr.spans))
        with open(workdir / "spans.jsonl", "w") as fh:
            for sp in tr.spans:
                fh.write(json.dumps(sp.__dict__) + "\n")

    summary = corpus_summary(items, attempts)
    if args.trace == 1:
        for name in ("cost_total", "cert_ratio_mean"):
            metrics[name] = (summary[name], TRACE_EXTRAS[name])
    failures = [(a.item.key, a.check.reason) for a in attempts
                if not a.check.ok]
    detail.update(summary, attempted=len(attempts), failed=len(failures),
                  failures=failures[:20])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(attempts)} items checked, {len(failures)} failed, "
          f"corpus {len(items)} items, digest {summary['digest'][:16]}")
    for size, steps in detail.get("goodness_steps", {}).items():
        print(f"  goodness check at (terminals,k)=({size}): ~{steps} steps, "
              f"budget {workloads.GOODNESS_BUDGET}")
    for key, reason in failures[:5]:
        print(f"  FAILED {key}: {reason}")
    for name, (value, unit) in metrics.items():
        print(_metric_line(name, value, unit, directions.get(name, ""),
                           notes.get(name, "")))
    print(_metric_line("failure_rate", len(failures) / len(attempts), "ratio",
                       "lower", f"  {len(failures)}/{len(attempts)}"))
    if args.trace == 0:
        print(_metric_line("cost_total", summary["cost_total"], "cost",
                           "lower", "  sum over the corpus"))
        print(_metric_line("cert_ratio_mean", summary["cert_ratio_mean"],
                           "ratio", "lower", "  per-class cost / LP bound"))
    (workdir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(attempts),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
