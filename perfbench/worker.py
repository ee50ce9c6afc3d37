"""One workload process: set-up, then a timed closed loop against the CLI.

Started by run.py in a fresh interpreter.  It imports bellkron from the
checkout's ``src``, generates the set-up inputs, sends every distinct request
template once untimed, each followed by a host-speed kernel run, prints
``READY`` with the kernel's median and total time (run.py stops the set-up
clock on that line) and, in ``run`` mode, goes on to the timed cycles.  One client
sends one request at a time from this thread through
``bellkron.cli.main(argv, out=buffer)``; each response is judged by the
correctness gate after its timer stops.

With ``--trace 1`` every cycle runs twice on the same inputs, once plain and
once with the tracer installed, in alternating order; the plain passes give
the denominator of ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from bellkron import cli  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, function_table, layer_metrics  # noqa: E402

# Stop starting cycles after this much wall time, so that a slow machine
# still finishes inside the 180 s a run may take.
WALL_LIMIT_S = 120.0
MAX_REPORTED_FAILURES = 5


def call(argv):
    """(exit code, stdout text, seconds) of one in-process CLI request.

    A full collection first, untimed, so that garbage left by the previous
    request and by the correctness gate is not collected inside this one.
    """
    gc.collect()
    buf = io.StringIO()
    start = perf_counter()
    try:
        code = cli.main(argv, out=buf)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, buf.getvalue(), perf_counter() - start


class Gate:
    """Counts attempted and failed requests, keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, request, code, text: str) -> None:
        self.attempted += 1
        reason = oracles.judge(request, code, text)
        if reason is not None:
            self.fail(f"{request.template} {' '.join(request.argv)}: {reason}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REPORTED_FAILURES:
            self.reasons.append(reason)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if not os.path.abspath(cli.__file__).startswith(os.path.join(SRC, "bellkron")):
        print(f"bellkron imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    wall_start = perf_counter()
    setup_reqs = workloads.make_requests(args.workload, args.seed, -1, args.workdir)
    setup_out, kernel_s = [], []
    for req in setup_reqs:
        setup_out.append(call(req.argv))
        kernel_s.append(hostspeed.kernel_seconds())
    # run.py takes the kernel runs out of the set-up time and scales the rest.
    print(f"READY {statistics.median(kernel_s)!r} {sum(kernel_s)!r}", flush=True)
    if args.mode == "setup":
        return 0

    gate = Gate()
    digest = hashlib.sha256()
    for req, (code, text, _) in zip(setup_reqs, setup_out):
        gate.judge(req, code, text)
        digest.update(text.encode())
    del setup_out

    loop = TracedLoop(gate, digest, args.spans) if args.trace else TimedLoop(gate, digest)
    min_requests = 1 if args.trace else workloads.MIN_TIMED_REQUESTS
    cycle = 0
    while True:
        reqs = workloads.make_requests(args.workload, args.seed, cycle, args.workdir)
        loop.run_cycle(cycle, reqs)
        cycle += 1
        if loop.timed_s >= args.seconds and loop.requests >= min_requests:
            break
        if perf_counter() - wall_start > WALL_LIMIT_S:
            break

    result = loop.result()
    result.update(cycles=cycle, attempted=gate.attempted, failed=gate.failed,
                  failures=gate.reasons, digest=digest.hexdigest(),
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


class TimedLoop:
    """Untraced cycles: the end-to-end latencies, each followed, untimed,
    by one run of the host-speed kernel."""

    def __init__(self, gate: Gate, digest):
        self.gate, self.digest = gate, digest
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []
        self.templates: list[str] = []
        self.cycles: list[int] = []

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)

    @property
    def requests(self) -> int:
        return len(self.latencies)

    def run_cycle(self, cycle: int, reqs) -> None:
        for req in reqs:
            code, text, seconds = call(req.argv)
            self.latencies.append(seconds)
            self.templates.append(req.template)
            self.cycles.append(cycle)
            self.gate.judge(req, code, text)
            if cycle == 0:
                self.digest.update(text.encode())
            self.kernel_s.append(hostspeed.kernel_seconds())

    def result(self) -> dict:
        return {"latencies": self.latencies, "kernel_s": self.kernel_s,
                "templates": self.templates, "cycle_of": self.cycles}


class TracedLoop:
    """Each cycle plain and traced on the same inputs: the per-layer metrics
    and the tracing overhead."""

    def __init__(self, gate: Gate, digest, spans_path: str | None):
        self.gate, self.digest = gate, digest
        self.spans_path = spans_path
        self.tracer = Tracer()
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.traced_cycles = 0
        self.output_bytes = 0
        self.requests = 0

    @property
    def timed_s(self) -> float:
        return self.plain_s + self.traced_s

    def run_cycle(self, cycle: int, reqs) -> None:
        texts = {}
        for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
            if traced:
                self.tracer.install()
            try:
                outs = []
                for pos, req in enumerate(reqs):
                    self.tracer.request = f"{cycle}.{pos}"
                    outs.append(call(req.argv))
            finally:
                self.tracer.uninstall()
            for req, (code, text, seconds) in zip(reqs, outs):
                self.gate.judge(req, code, text)
                if traced:
                    self.traced_s += seconds
                    self.output_bytes += len(text.encode())
                else:
                    self.plain_s += seconds
            texts[traced] = [text for _, text, _ in outs]
        for req, plain, traced in zip(reqs, texts[False], texts[True]):
            if plain != traced:
                self.gate.fail(f"{req.template}: stdout differs with tracing on")
            if cycle == 0:
                self.digest.update(plain.encode())
        self.traced_cycles += 1
        self.requests += len(reqs)

    def result(self) -> dict:
        spans = self.tracer.spans
        metrics = layer_metrics(spans, self.tracer.counters, self.traced_cycles)
        metrics["cli.output_bytes"] = self.output_bytes / self.traced_cycles
        metrics["trace.overhead"] = self.traced_s / self.plain_s
        if self.spans_path:
            self.tracer.dump(self.spans_path)
        return {"layers": metrics, "functions": function_table(spans),
                "traced_cycles": self.traced_cycles, "spans": len(spans)}


if __name__ == "__main__":
    sys.exit(main())
