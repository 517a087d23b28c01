"""srkilling benchmark: cold CLI wall time per workload, or a traced breakdown.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 35 --trace 0

With `--trace 0` the workload's seeded job list (see workloads.py) runs as
`python -m srkilling.cli ...`, each job in a fresh process, one at a time:
a closed loop with one client.  The list repeats round-robin; after the
first full pass a job starts only if its last wall time still fits in
`--seconds`.  Every answer is judged by the oracle in workloads.py.  The
end-to-end metrics are

    wall_s       sum over the jobs of each job's median fresh-process wall time
    setup_s      median wall time of a fresh `python -c "import srkilling.cli"`,
                 sampled before every job (at least SETUP_SAMPLES times)
    peak_rss_mb  highest max-RSS over the job processes

With `--trace 1` the job list runs in-process instead (tracing.py): twice
under the tracer in one fresh process (cold, then warm) and once untraced
in another; it reports the per-layer metrics of both traced passes and the
tracing overhead (traced cold minus untraced cold job-list time).  The
traced passes run the list once each, whatever `--seconds` says.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A record of the run (environment,
job list, every sample with the sha256 of its stdout) is written to
perfbench/out/.  `--workload all` runs every workload in turn and prefixes
each metric with the workload name.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9  # at least, after one discarded warm-up import
IMPORT_CMD = [sys.executable, "-c", "import srkilling.cli"]
JOB_TIMEOUT_S = 120
TRACE_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Jobs import srkilling from this checkout, and each uses one core."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_process(argv: list[str], cwd: Path, stdout_path: Path, timeout: float) -> dict:
    """Run argv to completion; its wall time, exit code (None on timeout) and
    max-RSS, read from this child's own rusage."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "returncode": proc.returncode if ready else None,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def run_job(job: workloads.Job, workdir: Path, index: int) -> dict:
    path = workdir / f"job{index}.out"
    cmd = [sys.executable, "-m", "srkilling.cli", *job.argv]
    sample = run_process(cmd, workdir, path, JOB_TIMEOUT_S)
    stdout = path.read_bytes()
    sample["sha256"] = hashlib.sha256(stdout).hexdigest()
    sample["error"] = workloads.judge(job, sample["returncode"], stdout)
    return sample


def import_sample(workdir: Path) -> float:
    """Wall time of one fresh `python -c "import srkilling.cli"`."""
    s = run_process(IMPORT_CMD, workdir, workdir / "setup.out", JOB_TIMEOUT_S)
    if s["returncode"] != 0:
        raise RuntimeError("`import srkilling.cli` failed in a fresh process")
    return s["wall_s"]


def closed_loop(jobs: list[workloads.Job], seconds: float, workdir: Path) -> tuple[list[list[dict]], list[float]]:
    """Per job, its samples, and the set-up samples.  Jobs run round-robin,
    one at a time; a set-up sample precedes each job, so both spread over
    the whole run, and the run stops before a job that would not fit."""
    samples: list[list[dict]] = [[] for _ in jobs]
    setup: list[float] = []
    import_sample(workdir)  # warm-up, discarded
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(jobs)
        if k >= len(jobs):
            left = seconds - (time.perf_counter() - start)
            if samples[i][-1]["wall_s"] + statistics.median(setup) > left:
                break
        setup.append(import_sample(workdir))
        samples[i].append(run_job(jobs[i], workdir, i))
        k += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_sample(workdir))
    return samples, setup


def environment(seed: int, jobs: list[workloads.Job]) -> dict:
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # not a git checkout
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srkilling").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "thread_env": dict.fromkeys(THREAD_VARS, "1"),
        "jobs": [["srkilling", *job.argv] for job in jobs],
    }


def bench_cold(name: str, jobs: list[workloads.Job], seconds: float, workdir: Path) -> dict:
    samples, setup = closed_loop(jobs, seconds, workdir)
    flat = [s for per_job in samples for s in per_job]
    medians = [statistics.median(s["wall_s"] for s in per_job) for per_job in samples]
    metrics = {
        "wall_s": {"value": sum(medians), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": max(s["maxrss_mb"] for s in flat), "unit": "MB"},
    }
    failed = sum(1 for s in flat if s["error"])
    print(f"workload {name}: {len(flat)} fresh-process jobs in a closed loop, one client")
    print(f"  wall_s      {metrics['wall_s']['value']:9.3f} s   sum of per-job medians")
    print(f"  setup_s     {metrics['setup_s']['value']:9.3f} s   median of {len(setup)} imports")
    print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:9.1f} MB  max over {len(flat)} jobs")
    print(f"  failed_ratio {failed}/{len(flat)} = {failed / len(flat):.3f}")
    jobs_out = []
    for job, per_job, med in zip(jobs, samples, medians):
        shas = sorted({s["sha256"] for s in per_job})
        errors = [s["error"] for s in per_job if s["error"]]
        print(f"    {job.name:30s} median {med:8.3f} s  n={len(per_job)}  sha256 {','.join(h[:12] for h in shas)}"
              + (f"  FAILED: {errors[0]}" if errors else ""))
        jobs_out.append({"job": job.name, "argv": job.argv, "median_wall_s": med, "samples": per_job})
    return {
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": metrics,
        "setup_samples_s": setup,
        "jobs": jobs_out,
    }


def run_trace_script(name: str, seed: int, workdir: Path, label: str, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "tracing.py"), "--workload", name, "--seed", str(seed), *extra]
    path = workdir / f"{label}.out"
    s = run_process(cmd, workdir, path, TRACE_TIMEOUT_S)
    if s["returncode"] != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {s['returncode']}; see {path.with_suffix('.err')}")
    return json.loads(path.read_text(encoding="utf-8").splitlines()[-1])


def bench_traced(name: str, seed: int, workdir: Path) -> dict:
    untraced = run_trace_script(name, seed, workdir, "untraced", ["--untraced"])
    traced = run_trace_script(name, seed, workdir, "traced", ["--spans", str(workdir / "spans.jsonl")])
    metrics = {}
    for prefix, p in (("cold", traced["passes"][0]), ("warm", traced["passes"][1])):
        for metric, unit, _ in tracing.METRICS:
            metrics[f"{prefix}.{metric}"] = {"value": p["metrics"][metric], "unit": unit}
    overhead = traced["passes"][0]["metrics"]["job_list_s"] - untraced["passes"][0]["metrics"]["job_list_s"]
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    results = [r for run in (untraced, traced) for p in run["passes"] for r in p["results"]]
    failed = sum(1 for r in results if r["error"])
    print(f"workload {name}: traced in-process run, {len(results)} jobs")
    for metric, _, _ in tracing.METRICS:
        cold, warm = metrics[f"cold.{metric}"]["value"], metrics[f"warm.{metric}"]["value"]
        print(f"  {metric:42s} cold {cold:12.4f}  warm {warm:12.4f}")
    print(f"  trace_overhead_s {overhead:.4f} s (untraced cold job list "
          f"{untraced['passes'][0]['metrics']['job_list_s']:.3f} s)")
    print(f"  failed_ratio {failed}/{len(results)} = {failed / len(results):.3f}")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "untraced": untraced,
        "traced": traced,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    jobs = workloads.WORKLOADS[name](seed)
    workdir = OUT / f"{name}-seed{seed}-trace{int(traced)}"
    workloads.write_inputs(jobs, workdir)
    result = bench_traced(name, seed, workdir) if traced else bench_cold(name, jobs, seconds, workdir)
    record = {"workload": name, "seconds": seconds, "trace": int(traced),
              "environment": environment(seed, jobs), **result}
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="srkilling benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # Terminated runs unwind through run_process, which stops the running job.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "srkilling" / "cli.py").is_file():
        print(f"no srkilling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
