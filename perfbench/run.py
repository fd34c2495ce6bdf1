"""The matvines benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``enumerate``, ``agreement``, ``structure`` and ``cli`` (see
``workloads.py``).  The run imports ``matvines`` from ``src/`` of the same
checkout, prepares its inputs from the seed, and runs jobs until ``S``
seconds are used.  Human-readable lines starting with ``#`` come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run measures half its time
untraced and half traced, and reports the per-layer metrics and the
tracing overhead.  The full record of each run, with the machine facts, is
written to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_shim
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("enumerate", "agreement", "structure", "cli")
# set-up (import of matvines in a fresh interpreter, input preparation and
# warm-up) is repeated and its median reported
SETUP_REPEATS = 3
# the tail is the mean of this many slowest samples, those beyond its percentile
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, float, int]:
    """The tail of ``values``: the mean of the ``TAIL_BEYOND`` largest, the
    value and rank of the highest percentile that has them beyond it, and
    the sample count.  With too few samples for that percentile to reach
    the median, the maximum stands for all three.

    The mean is what a run reports.  The percentile is the latency of one
    call: on two shared vCPUs the structure construct call at that rank read
    between 105 and 252 ms in ten runs of the same code (quartile spread
    0.31 of the median), and the mean of the ten beyond it spread 0.085.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        top = ordered[-1] if ordered else 0.0
        return top, top, 100.0, n
    return (statistics.fmean(ordered[-TAIL_BEYOND:]), ordered[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) / n, n)


# -- facts -----------------------------------------------------------------


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own repository; None in a plain source tree,
    without letting git search the directories above it."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_lines(package: Path) -> dict[str, int]:
    """Total lines, and net lines (neither blank nor comment-only), of the
    package's Python sources."""
    total = net = 0
    for path in sorted(package.glob("*.py")):
        for line in path.read_text().splitlines():
            total += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                net += 1
    return {"total": total, "net": net}


def facts(args) -> dict:
    try:
        networkx = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        networkx = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "networkx": networkx, "git_sha": _git_sha(ROOT),
        "source_lines": source_lines(ROOT / "src" / "matvines"),
    }


# -- measuring -------------------------------------------------------------


def measure(workload, seconds: float) -> dict:
    """Run whole jobs until the next one would be expected to end more than
    half a job past ``seconds``."""
    jobs: list[list] = []
    job_times = []
    start = time.perf_counter()
    while True:
        outcomes: list = []
        t = time.perf_counter()
        workload.run_job(len(job_times), outcomes)
        job_times.append(time.perf_counter() - t)
        jobs.append(outcomes)
        elapsed = time.perf_counter() - start
        if elapsed + median(job_times) / 2 >= seconds:
            break
    return {"jobs": jobs, "job_times": job_times, "elapsed": elapsed}


def flat(jobs: list[list]) -> list:
    return [o for job in jobs for o in job]


def latency(jobs: list[list]) -> dict:
    """Median and tail latency of jobs of operations, and the error rate.

    Latency is over operations that completed or ran into the deadline (a
    timed-out operation counts at the time it was stopped, a lower bound of
    its latency); an operation that failed fast counts as a failure only.
    When every job has at least twice ``TAIL_BEYOND`` latencies, median and
    tail are taken per job and their medians over the jobs reported: a
    structure job repeats the same construct calls, and pooling two jobs
    would move the tail to a higher percentile of those calls.  Otherwise
    they are taken over all operations of the run.
    """
    samples = [[o.seconds for o in job if o.status != "failed"] for job in jobs]
    if samples and all(len(s) >= 2 * TAIL_BEYOND for s in samples):
        per_job = [(median(s), *tail(s)) for s in samples]
        p50, value, at_pct, pct, count = (median([row[i] for row in per_job]) for i in range(5))
    else:
        pooled = [x for s in samples for x in s]
        p50 = median(pooled)
        value, at_pct, pct, count = tail(pooled)
    outcomes = flat(jobs)
    failed = sum(1 for o in outcomes if o.status != "ok")
    return {"p50_ms": 1000.0 * p50, "tail_ms": 1000.0 * value,
            "percentile_ms": 1000.0 * at_pct, "tail_percentile": pct, "samples": count,
            "attempted": len(outcomes),
            "failed": failed, "error_rate": failed / len(outcomes) if outcomes else 0.0}


def summarize(jobs: list[list], job_times: list[float], elapsed: float) -> dict:
    """Latency of each class of operation and of all of them, throughput,
    and the median time of a job.

    ``tail_ms`` is the largest tail of any class.  A workload mixes its
    classes in a proportion the benchmark chose, so the tail of the mixture
    would be the tail of no caller; and the construct tail of ``structure``
    is the same calls in every run, where its convert inputs, some with slow
    canonical forms, change with the seed.
    """
    out = latency(jobs)
    out["classes"] = {cls: latency([[o for o in job if o.cls == cls] for job in jobs])
                      for cls in sorted({o.cls for o in flat(jobs)})}
    worst = max(out["classes"], key=lambda c: out["classes"][c]["tail_ms"])
    out.update({key: out["classes"][worst][key]
                for key in ("tail_ms", "percentile_ms", "tail_percentile", "samples")},
               tail_class=worst)
    out["wall_s"] = median(job_times)
    out["ops_per_s"] = (out["attempted"] - out["failed"]) / elapsed
    return out


def summarize_phase(phase: dict) -> dict:
    return summarize(phase["jobs"], phase["job_times"], phase["elapsed"])


END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
              "peak_rss_mb": "MB"}


def failure_summary(outcomes) -> list[dict]:
    groups: dict[tuple[str, str, str], int] = {}
    for o in outcomes:
        if o.status != "ok":
            key = (o.op, o.status, o.detail)
            groups[key] = groups.get(key, 0) + 1
    return [{"op": op, "status": status, "detail": detail, "count": count}
            for (op, status, detail), count in sorted(groups.items())]


# -- per-layer metrics -----------------------------------------------------


def per_layer(workload_name: str, rows: list[list], jobs: int,
              untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Calls and self seconds per job at each traced boundary, the derived
    ratios, the CLI import times, and the tracing overhead, each with its
    unit."""
    agg = tracing.aggregate(rows)
    out = {}
    for layer, module, attr in tracing.TARGETS:
        name = tracing.span_name(layer, module, attr)
        row = agg.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"] / jobs, "count")
        out[f"{name}.self_s"] = (row["self_s"] / jobs, "s")
    fml = out["kernels._bits.find_mat_labeling.calls"][0]
    out["kernels.agreement.graphs_per_find_mat_labeling_call"] = (
        workloads.AGREEMENT_GRAPHS / fml if workload_name == "agreement" and fml else 0.0,
        "graphs/call")
    keys = out["kernels.enumeration._canonical_key.calls"][0]
    out["kernels.enumeration.keys_per_class"] = (
        keys / workloads.ENUMERATE_CLASSES if workload_name == "enumerate" else 0.0,
        "keys/class")
    out["frontend.cli.import_ms"] = (1000.0 * median(
        tracing.durations(rows, cli_shim.IMPORT_SPAN)), "ms")
    out["frontend.cli.networkx_import_ms"] = (1000.0 * median(
        tracing.durations(rows, cli_shim.NETWORKX_SPAN)), "ms")
    out["trace.wall_s_overhead"] = (traced["wall_s"] - untraced["wall_s"], "s")
    out["trace.ops_per_s_overhead"] = (traced["ops_per_s"] - untraced["ops_per_s"], "1/s")
    return out


def traced_run(args, workload) -> tuple[list[dict], dict]:
    """Half the time untraced, half traced; per-layer metrics per job of the
    traced half, and the difference between the halves."""
    untraced = measure(workload, args.seconds / 2)
    recorder = tracing.Recorder()
    if args.workload == "cli":
        workload.shim = HERE / "cli_shim.py"
    else:
        tracing.install(recorder)
        workload.checking = recorder.paused
    traced = measure(workload, args.seconds / 2)
    if args.workload == "cli":
        rows = []
        for path in workload.span_files:
            base = len(rows)
            rows += [[name, start, end, parent + base if parent >= 0 else -1]
                     for name, start, end, parent in tracing.load_rows(path)]
    else:
        rows = recorder.rows()
    tracing.write_rows(OUT / "spans" / f"{args.workload}.json", rows)
    metrics = per_layer(args.workload, rows, len(traced["job_times"]),
                        summarize_phase(untraced), summarize_phase(traced))
    return [untraced, traced], metrics


# -- main ------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import matvines; "
                "print(time.perf_counter() - t)")


def import_seconds(src: Path) -> float:
    """Time of ``import matvines`` in a fresh interpreter: the run's own
    import happens once, and set-up is timed several times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def make_workload(name: str, mv, work: Path):
    if name == "cli":
        return workloads.Cli(ROOT, work)
    return {"enumerate": workloads.Enumerate, "agreement": workloads.Agreement,
            "structure": workloads.Structure}[name](mv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "matvines" / "__init__.py").is_file():
        print(f"error: no matvines sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"

    mv = None
    if args.workload != "cli":
        import matvines as mv
        if not Path(mv.__file__).resolve().is_relative_to(src.resolve()):
            print(f"error: imported matvines from {mv.__file__}, not {src}", file=sys.stderr)
            return 2
    workload = make_workload(args.workload, mv, work)
    imports, prepares = [], []
    for _ in range(SETUP_REPEATS):
        # a CLI command imports matvines in its own process, timed as it runs
        imports.append(0.0 if args.workload == "cli" else import_seconds(src))
        t = time.perf_counter()
        workload.prepare(args.seed)
        prepares.append(time.perf_counter() - t)
    setup_s = median([i + p for i, p in zip(imports, prepares)])

    record = {"facts": facts(args), "setup": {"import_s": imports, "prepare_s": prepares}}
    if args.trace:
        phases, metrics = traced_run(args, workload)
    else:
        phases = [measure(workload, args.seconds)]
        summary = summarize_phase(phases[0])
        values = {"setup_s": setup_s, "ops_per_s": summary["ops_per_s"],
                  "p50_ms": summary["p50_ms"], "tail_ms": summary["tail_ms"],
                  "peak_rss_mb": resource.getrusage(workload.rusage).ru_maxrss / 1024.0}
        metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}

    outcomes = [o for phase in phases for o in flat(phase["jobs"])]
    wrong = sum(1 for o in outcomes if o.status == "wrong")
    failed = sum(1 for o in outcomes if o.status != "ok")
    summary = summarize_phase(phases[0])
    classes = summary.pop("classes")
    failures = failure_summary(outcomes)
    record.update({"job_times": [p["job_times"] for p in phases], "summary": summary,
                   "operations": [[o.cls, o.op, o.seconds, o.status] for o in outcomes],
                   "classes": classes, "failures": failures,
                   "metrics": {name: value for name, (value, _) in metrics.items()}})

    print(f"# matvines benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# facts: " + json.dumps(record["facts"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# wall_s = {summary['wall_s']:.6g} s (median time of one job, "
          f"{len(phases[0]['job_times'])} jobs)")
    for cls, row in classes.items():
        print(f"# {cls}_p50_ms = {row['p50_ms']:.6g} ms, {cls}_tail_ms = "
              f"{row['tail_ms']:.6g} ms (mean beyond p{row['tail_percentile']:.2f} = "
              f"{row['percentile_ms']:.6g} ms, of {row['samples']}), "
              f"error_rate = {row['error_rate']:.4g} ({row['failed']}/{row['attempted']})")
    print(f"# tail_ms is the tail of class {summary['tail_class']}")
    print(f"# error_rate = {failed / len(outcomes):.4g} ({failed}/{len(outcomes)})")
    for f in failures:
        print(f"# failed x{f['count']}: {f['op']}: {f['status']}: {f['detail']}")

    shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
