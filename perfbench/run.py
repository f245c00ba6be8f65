"""The ecta benchmark: run one workload, check every verdict, print metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload region --seed 1 --seconds 20 --trace 0

Every job runs in a fresh interpreter, one at a time, because the
package keeps process-global caches.  The run repeats passes over the
workload's jobs until ``--seconds`` have gone by and reports medians over
the passes.  With ``--trace 1`` it makes one plain pass and one traced
pass instead, and reports the per-layer metrics.  The last line of
standard output is the JSON result; the exit code is nonzero when any
job failed or disagreed with its reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOADS = ("region", "zone", "diverge")
JOB_TIMEOUT_S = 60
CLI_REPEATS = 3
# Times are reported at the core speed at which one round of
# ``child.kernel`` takes this long.  On a shared machine the speed of
# one core drifts by a third or more within a minute, so each job's
# times are scaled by the kernel speed measured while it ran.
KERNEL_REFERENCE_S = 1e-4

# Functions each workload must reach; an unreached one means the
# workload no longer measures what it was chosen for.
REACHED = {
    "region": (
        "core.parse_guard", "automaton.parse_ecta", "region_automaton.build",
        "region_automaton.language_empty", "regions.decompose",
        "regions.region_to_zone", "regions.region_of", "analysis.post_edge",
        "analysis.pre_edge", "edbm.normalize", "edbm.subtract", "edbm.sample",
        "edbm.with_cells", "edbm.is_empty",
    ),
    "zone": (
        "core.parse_guard", "automaton.parse_ecta", "analysis.forw_exact",
        "analysis.back_exact", "analysis.post_edge", "analysis.pre_edge",
        "edbm.normalize", "edbm.future", "edbm.past", "edbm.intersect",
        "edbm.release", "edbm.includes", "edbm.is_empty",
    ),
    "diverge": (
        "analysis.forw_exact", "analysis.back_exact", "analysis.post_edge",
        "analysis.pre_edge", "edbm.includes", "edbm.is_empty", "edbm.normalize",
    ),
}

# One small ``ecta check`` per workload: (input file stem, arguments, verdict).
CLI_CHECK = {
    "region": ("ainf", ["--method", "region", "--cmax", "1"], "non_empty"),
    "zone": ("ainf", ["--method", "forward"], "non_empty"),
    "diverge": ("ainf", ["--method", "backward", "--literal-accept", "--fuel", "40"], "unknown"),
}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_job(job: dict, trace: bool, env: dict[str, str]) -> dict:
    """Run one job in a fresh interpreter; errors come back as records."""
    payload = json.dumps({**job, "trace": trace})
    spawn = _now_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spawn), payload],
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S, env=env,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(jobs: list[dict], trace: bool, env: dict[str, str]) -> dict[str, dict]:
    return {job["id"]: run_job(job, trace, env) for job in jobs}


def work_of(record: dict) -> dict:
    """The deterministic part of a job record: verdict and work counts."""
    work = {"verdict": record.get("verdict"), **record.get("counts", {})}
    trace = record.get("trace")
    if trace:
        work["normalize"] = trace["edbm.normalize"]["calls"]
        work["regions_out"] = trace["regions.decompose"]["regions_out"]
        work["zones_out"] = sum(
            trace[k]["zones_out"] for k in ("analysis.post_edge", "analysis.pre_edge")
        )
    return work


def check(
    jobs: list[dict], passes: list[dict[str, dict]], refs: dict[str, list[tuple[str, str]]]
) -> dict[str, list[str]]:
    """Problems per job id: errors, wrong answers, disagreements and
    work counts that differ between passes."""
    problems: dict[str, list[str]] = {job["id"]: [] for job in jobs}
    groups: dict[str, set[str]] = {}
    for job in jobs:
        jid = job["id"]
        records = [p[jid] for p in passes]
        for r in records:
            if "error" in r:
                problems[jid].append(r["error"])
        ok = [r for r in records if "error" not in r]
        if not ok:
            continue
        first = ok[0]
        base = work_of(first)
        works = [{k: work_of(r)[k] for k in base} for r in ok]
        if any(w != base for w in works):
            problems[jid].append(f"work counts differ between passes: {works}")
        for key, want in (job.get("expect") or {}).items():
            got = first.get(key, first["counts"].get(key))
            if got != want:
                problems[jid].append(f"{key} is {got!r}, expected {want!r}")
        if job.get("group") and first["verdict"] in ("empty", "non_empty"):
            groups.setdefault(job["group"], set()).add(first["verdict"])
    for group, ref in refs.items():
        for _, verdict in ref:
            if verdict in ("empty", "non_empty"):
                groups.setdefault(group, set()).add(verdict)
    for job in jobs:
        verdicts = groups.get(job.get("group"), set())
        if len(verdicts) > 1:
            problems[job["id"]].append(
                f"verdicts disagree on {job['group']}: {sorted(verdicts)}; references {refs.get(job['group'])}"
            )
    return {jid: p for jid, p in problems.items() if p}


def _scaled(record: dict, key: str) -> float:
    """A job's set-up or verdict time at reference speed."""
    kernel = record["setup_kernel_s" if key == "setup_s" else "kernel_s"]
    return record[key] * KERNEL_REFERENCE_S / kernel


def end_to_end(passes: list[dict[str, dict]]) -> dict[str, float]:
    attempted = sum(len(p) for p in passes)
    passes = [[r for r in p.values() if "error" not in r] for p in passes]
    records = [r for p in passes for r in p]
    if not records:
        return {}
    return {
        "setup_s": statistics.median(_scaled(r, "setup_s") for r in records),
        "verdict_s": statistics.median(sum(_scaled(r, "verdict_s") for r in p) for p in passes),
        "slowest_job_s": statistics.median(
            max((_scaled(r, "verdict_s") for r in p), default=0.0) for p in passes
        ),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "decided_ratio": sum(r["verdict"] in ("empty", "non_empty") for r in records)
        / attempted,
    }


def per_layer(traced: dict[str, dict], plain_verdict_s: float) -> dict[str, float]:
    """Sums of the traced pass's per-job statistics, as named metrics,
    with self times at reference speed."""
    totals: dict[str, dict[str, float]] = {}
    for record in traced.values():
        speed = KERNEL_REFERENCE_S / record["kernel_s"] if "error" not in record else 1.0
        for prefix, stat in record.get("trace", {}).items():
            into = totals.setdefault(prefix, {})
            for key, value in stat.items():
                into[key] = into.get(key, 0) + (value * speed if key == "self_s" else value)
    out: dict[str, float] = {}
    for prefix, stat in totals.items():
        for key, value in stat.items():
            out[f"{prefix}.{key}"] = value
    includes = totals["edbm.includes"]
    out["edbm.includes.true_ratio"] = includes["true"] / includes["calls"] if includes["calls"] else 0.0
    misses = totals["regions.decompose_misses"]
    out["regions.normalize_per_region"] = misses["normalize"] / misses["regions"] if misses["regions"] else 0.0
    out["analysis.dequeued"] = sum(
        totals[k]["dequeued"] for k in ("analysis.forw_exact", "analysis.back_exact")
    )
    out["trace.overhead"] = end_to_end([traced])["verdict_s"] / plain_verdict_s
    return out


def cli_check_s(workload: str, workdir: Path, env: dict[str, str]) -> tuple[float, str | None]:
    """Median wall time of a small ``ecta check`` run, and a problem if
    its verdict is wrong."""
    stem, args, want = CLI_CHECK[workload]
    times = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ecta.cli", "check", str(workdir / f"{stem}.json"), *args, "--json"],
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S, env=env,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            return statistics.median(times), f"ecta check exited {proc.returncode}"
        got = json.loads(proc.stdout)["verdict"]
        if got != want:
            return statistics.median(times), f"ecta check said {got!r}, expected {want!r}"
    return statistics.median(times), None


def environment() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "ecta").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    head = "unknown"
    head_file = ROOT / ".git" / "HEAD"
    if head_file.is_file():
        head = head_file.read_text().strip()
        if head.startswith("ref: "):
            ref = ROOT / ".git" / head[5:]
            head = ref.read_text().strip() if ref.is_file() else head
    return {
        "python": platform.python_version(),
        "head": head,
        "nproc": str(os.cpu_count()),
        "source_sha256": digest.hexdigest(),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool,
    results: Path | None = RESULTS, small: bool = False,
) -> dict:
    """Run one workload and return its report; ``results=None`` writes
    nothing outside a temporary directory."""
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import inputs

    env = _child_env()
    with contextlib.ExitStack() as stack:
        if results is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        else:
            workdir = results / f"{workload}-s{seed}-inputs"
            workdir.mkdir(parents=True, exist_ok=True)
        jobs, refs = inputs.make_jobs(workload, seed, workdir, small)
        start = time.monotonic()
        passes = [run_pass(jobs, False, env)]
        while not trace and time.monotonic() - start < seconds:
            passes.append(run_pass(jobs, False, env))
        checked = passes + ([run_pass(jobs, True, env)] if trace else [])
        problems = check(jobs, checked, refs)
        metrics = end_to_end(passes)
        if trace and metrics:
            metrics = per_layer(checked[-1], metrics["verdict_s"])
            metrics["cli.check_s"], cli_problem = cli_check_s(workload, workdir, env)
            if cli_problem:
                problems.setdefault("cli", []).append(cli_problem)
            for name in REACHED[workload]:
                if not metrics.get(f"{name}.calls"):
                    problems.setdefault("trace", []).append(f"{name} was never reached")
    report = {
        "workload": workload, "seed": seed, "trace": trace, "env": environment(),
        "passes": len(passes), "jobs_per_pass": len(jobs),
        "attempted": sum(len(p) for p in checked),
        "problems": problems,
        "metrics": metrics,
        "jobs": {
            job["id"]: {
                "work": work_of(checked[-1][job["id"]]),
                "verdict_s": [p[job["id"]].get("verdict_s") for p in checked],
                "setup_s": [p[job["id"]].get("setup_s") for p in checked],
                "kernel_s": [p[job["id"]].get("kernel_s") for p in checked],
                "setup_kernel_s": [p[job["id"]].get("setup_kernel_s") for p in checked],
            }
            for job in jobs
        },
    }
    if results is not None:
        _compare_with_previous(report, results / f"{workload}-s{seed}{'-trace' if trace else ''}.json")
    report["failed"] = len(checked) * sum(p in report["jobs"] for p in problems)
    return report


def _compare_with_previous(report: dict, path: Path) -> None:
    """Work counts must repeat across runs of the same sources and seed."""
    if path.is_file():
        previous = json.loads(path.read_text())
        if previous["env"]["source_sha256"] == report["env"]["source_sha256"]:
            for jid, job in report["jobs"].items():
                before = previous["jobs"].get(jid, {}).get("work")
                if before is not None and before != job["work"]:
                    report["problems"].setdefault(jid, []).append(
                        f"work counts differ from the previous run: {before} then {job['work']}"
                    )
    path.write_text(json.dumps(report, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ecta" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC / 'ecta'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    report = run_workload(args.workload, args.seed, args.seconds, trace)
    env = report["env"]
    print(f"env python={env['python']} head={env['head']} nproc={env['nproc']}")
    print(
        f"workload={args.workload} seed={args.seed} passes={report['passes']} "
        f"jobs/pass={report['jobs_per_pass']} attempted={report['attempted']} "
        f"failed={report['failed']} error_ratio={report['failed'] / report['attempted']:.4f}"
    )
    for jid, problems in report["problems"].items():
        for problem in problems:
            print(f"FAIL {jid}: {problem}", file=sys.stderr)
    missing = sorted(set(declared) - set(report["metrics"]))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": report["metrics"][name], "unit": unit} for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct, "attempted": report["attempted"],
        "failed": report["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
