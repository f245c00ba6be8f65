"""Run one benchmark job in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPAWN_NS JOB_JSON``, with the
package sources on ``PYTHONPATH``.  ``SPAWN_NS`` is the parent's
``CLOCK_MONOTONIC`` reading just before it started this process, so the
set-up time covers interpreter start, ``import ecta`` and parsing the
job's input file.  Prints one JSON record on standard output.

The record also holds the speed of the core while the job ran: the CPU
time per round of ``kernel``, timed once before the job, once after
it, and every ``SAMPLE_PERIOD_S`` during it from a second thread.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

KERNEL_ROUNDS = 100
SAMPLE_ROUNDS = 5
SAMPLE_PERIOD_S = 0.05


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def kernel(rounds: int) -> float:
    """CPU seconds per round of a fixed pure-Python computation that does
    not touch ``ecta``: a shortest-path closure over ``(value, strict)``
    bounds, the same shape of work as ``Edbm.normalize``."""
    start = time.thread_time()
    n = 9
    m = [[(0 if i == j else (i * 7 + j * 3) % 11 - 3, (i + j) % 2 == 0) for j in range(n)] for i in range(n)]
    for _ in range(rounds):
        for k in range(n):
            mk = m[k]
            for i in range(n):
                a, mi = m[i][k], m[i]
                for j in range(n):
                    s = (a[0] + mk[j][0], a[1] or mk[j][1])
                    c = mi[j]
                    if s[0] < c[0] or (s[0] == c[0] and s[1] and not c[1]):
                        mi[j] = s
        m = [list(row) for row in m]
    return (time.thread_time() - start) / rounds


class Sampler(threading.Thread):
    """Times a few kernel rounds every ``SAMPLE_PERIOD_S`` until stopped.

    It holds the interpreter lock for about 1% of the time.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.wait(SAMPLE_PERIOD_S):
            self.samples.append(kernel(SAMPLE_ROUNDS))

    def stop(self) -> list[float]:
        self.halt.set()
        self.join()
        return self.samples


def run(job: dict, ecta) -> dict:
    """Run ``job`` on the parsed input and return its verdict and counts.

    Functions are looked up on the package at call time so that a
    tracer installed after import sees the calls.
    """
    A, _ = ecta.parse_ecta(Path(job["file"]).read_text(encoding="utf-8"))
    ready = _now_ns()
    before = kernel(KERNEL_ROUNDS)
    sampler = Sampler()
    sampler.start()
    start = _now_ns()
    if job["kind"] == "build":
        R = ecta.build(A, job["cmax"], job["quantifier"], job["variant"])
        verdict = ecta.EMPTY if ecta.language_empty(R) else ecta.NON_EMPTY
        done = _now_ns()
        record = {"verdict": verdict, "counts": {"states": len(R.states), "edges": len(R.edges)}}
    else:
        search = ecta.forw_exact if job["kind"] == "forward" else ecta.back_exact
        result = search(A, fuel=job["fuel"], literal_accept=job["literal"])
        done = _now_ns()
        record = {"verdict": result.verdict, "counts": {"dequeued": result.steps_used}}
    samples = sampler.stop()
    record["setup_kernel_s"] = before
    record["kernel_s"] = statistics.fmean([before, *samples, kernel(KERNEL_ROUNDS)])
    if job.get("words"):
        record["words"] = sorted("".join(w) for w in ecta.ra_bounded_language(R, job["words"]))
    record["ready_ns"] = ready
    record["verdict_s"] = (done - start) / 1e9
    return record


def main() -> None:
    spawn_ns, job = int(sys.argv[1]), json.loads(sys.argv[2])
    import ecta

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    record = run(job, ecta)
    record["setup_s"] = (record.pop("ready_ns") - spawn_ns) / 1e9
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["trace"] = tracer.stats
    print(json.dumps(record))


if __name__ == "__main__":
    main()
