"""bellkron benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload moments --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``moments`` and ``compose``; ``all`` runs
both in turn, each with its own report and result line.

``--trace 0`` measures the end-to-end metrics with tracing off: three fresh
interpreters each set the workload up (import, input generation, one untimed
pass over every request template) and the median of their set-up times is
``setup_s``; the last of them then runs the timed cycles.  Every time is
scaled to a reference host speed with the kernel of hostspeed.py.
``--trace 1`` runs the traced loop instead and reports the per-layer
metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run exits 0
only when it measured; a failed request makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("moments", "compose")
SETUPS = 3
DEADLINE_S = 170.0
ROADMAP_ROWS = (
    ("normal_moments.symmetrized_moment_vector", "d5,8",
     "symmetrized_moment_vector d=5 n=8 (ROADMAP: 1.42 s)"),
    ("matrix_calculus.poly_jet", "4x1,8",
     "poly_jet in the exp route n_x=4 n=8 (ROADMAP: 268 ms)"),
    ("faa_di_bruno.faa_total_derivative", "7,3x1,3x3",
     "faa_total_derivative n_x=n_y=3 n=7 (ROADMAP: 190 ms)"),
)


class WorkerError(Exception):
    pass


def start_worker(args, mode: str, workdir: str, deadline: float, extra=()):
    """Launch a worker; return (process, set-up seconds until its READY less
    the kernel runs in it, median kernel seconds of its set-up pass)."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", workdir, *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, deadline - perf_counter())):
                raise WorkerError(f"{mode} worker gave no READY before the deadline")
            line = proc.stdout.readline()
        setup_s = perf_counter() - start
        fields = line.split()
        if len(fields) != 3 or fields[0] != "READY":
            raise WorkerError(f"{mode} worker ended during set-up (exit {proc.wait()})")
        kernel_s, kernel_total_s = float(fields[1]), float(fields[2])
        return proc, setup_s - kernel_total_s, kernel_s
    except BaseException:
        stop(proc)
        raise


def finish(proc, deadline: float) -> None:
    try:
        code = proc.wait(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerError("worker ran past the deadline") from None
    finally:
        proc.stdout.close()
    if code != 0:
        raise WorkerError(f"worker exited with {code}")


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(args, workdir: str, deadline: float) -> tuple[dict, list[float], list[float]]:
    """Result of the measuring worker, plus each set-up's time and the
    median kernel time of its set-up pass."""
    setups, kernels = [], []
    result_path = os.path.join(workdir, "result.json")
    extra = ["--result", result_path]
    if args.trace:
        extra += ["--spans", os.path.join(
            ROOT, ".perfbench", f"trace-{args.workload}-seed{args.seed}.jsonl")]
    for i in range(1 if args.trace else SETUPS):
        inputs = os.path.join(workdir, f"inputs{i}")
        os.mkdir(inputs)
        last = i == (0 if args.trace else SETUPS - 1)
        proc, setup_s, kernel_s = start_worker(args, "run" if last else "setup",
                                               inputs, deadline, extra if last else ())
        finish(proc, deadline)
        setups.append(setup_s)
        kernels.append(kernel_s)
    with open(result_path) as fh:
        return json.load(fh), setups, kernels


def cycle_throughputs(res: dict) -> list[float]:
    """Requests per second of timed request time, per cycle."""
    per: dict[int, list[float]] = {}
    for cycle, seconds in zip(res["cycle_of"], res["latencies"]):
        per.setdefault(cycle, []).append(seconds)
    return [len(d) / sum(d) for d in per.values()]


def scaled_latencies(res: dict) -> list[float]:
    """Each timed latency scaled to the reference host speed by the kernel
    run that followed it (see hostspeed.py)."""
    return [s * hostspeed.REF_S / k for s, k in zip(res["latencies"], res["kernel_s"])]


def end_to_end(res: dict, setups: list[float], kernels: list[float]) -> dict:
    lat = scaled_latencies(res)
    scaled_setups = [s * hostspeed.REF_S / k for s, k in zip(setups, kernels)]
    return {
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * nearest_rank(lat, 0.9), "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(scaled_setups), "s"),
    }


LAYER_UNITS = {"overhead": "ratio", "_s": "s/cycle",
               "output_bytes": "B/cycle", "bytes_computed": "B/cycle",
               "peak_entries": "count"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count/cycle"


def print_end_to_end(args, res: dict, setups: list[float], kernels: list[float],
                     metrics: dict) -> None:
    raw = res["latencies"]
    lat = scaled_latencies(res)
    templates = res["templates"]
    seen, repeats = set(), 0
    for t in templates:
        repeats += t in seen
        seen.add(t)
    beyond = len(lat) - math.ceil(0.9 * len(lat))
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} timed requests "
          f"in {res['cycles']} cycles, {sum(raw):.2f} s timed, closed loop, 1 client")
    print(f"  times scaled to a host where the speed kernel takes "
          f"{1e3 * hostspeed.REF_S:.1f} ms (see hostspeed.py):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:12.4f} {unit}")
    print(f"  latency samples {len(lat)} ({beyond} beyond p90"
          f"{'; fewer than 10, p90 is indicative only' if beyond < 10 else ''})")
    print(f"  unscaled wall times: {len(raw) / sum(raw):.4f} 1/s, "
          f"p50 {1e3 * statistics.median(raw):.4f} ms, "
          f"p90 {1e3 * nearest_rank(raw, 0.9):.4f} ms, set-up "
          f"{statistics.median(setups):.4f} s")
    print(f"  speed kernel (ms): median {1e3 * statistics.median(res['kernel_s']):.3f} "
          f"in the timed loop, {' '.join(f'{1e3 * k:.3f}' for k in kernels)} in the set-ups")
    print(f"  error_rate       {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} of {res['attempted']} requests)")
    print(f"  setup runs (s)   {' '.join(f'{s:.3f}' for s in setups)}")
    print(f"  cycle rps        {' '.join(f'{r:.3f}' for r in cycle_throughputs(res))}")
    print(f"  shape repeat share: {repeats / len(templates):.3f} of timed requests "
          f"repeat an earlier timed shape; 1.000 counting the set-up pass")
    by_tpl: dict[str, list[float]] = {}
    for t, s in zip(templates, lat):
        by_tpl.setdefault(t, []).append(s)
    p50, p90 = statistics.median(lat), nearest_rank(lat, 0.9)
    ranked = sorted(lat)
    print("  template                        n   median_ms  rank_share   (scaled)")
    for t, d in sorted(by_tpl.items(), key=lambda kv: statistics.median(kv[1])):
        lo = sum(1 for v in ranked if v < min(d)) / len(ranked)
        hi = sum(1 for v in ranked if v <= max(d)) / len(ranked)
        mark = (" <p50" if min(d) <= p50 <= max(d) else "") + \
               (" <p90" if min(d) <= p90 <= max(d) else "")
        print(f"  {t:30s} {len(d):3d} {1e3 * statistics.median(d):10.2f}  "
              f"{lo:.2f}-{hi:.2f}{mark}")


def print_traced(res: dict, metrics: dict) -> None:
    print(f"traced run: {res['traced_cycles']} cycles plain and traced, "
          f"{res['spans']} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6f} {unit}")
    rows = res["functions"]
    print("  function                                   call shape     spans   total_s  median_ms")
    for name, sig, count, total, median in rows[:25]:
        print(f"  {name:42s} {sig:12s} {count:7d} {total:9.4f} {1e3 * median:10.3f}")
    for name, sig, label in ROADMAP_ROWS:
        for r in rows:
            if r[0] == name and r[1] == sig:
                print(f"  ROADMAP item 1 timing, {label}: {r[2]} spans, "
                      f"total {r[3]:.4f} s, median {1e3 * r[4]:.2f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bellkron", "cli.py")):
        print(f"no bellkron sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(argparse.Namespace(**{**vars(args), "workload": w}))
             for w in chosen]
    return max(codes)


def run_workload(args) -> int:
    deadline = perf_counter() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        res, setups, kernels = measure(args, workdir, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {k: (v, layer_unit(k)) for k, v in sorted(res["layers"].items())}
        print_traced(res, metrics)
    else:
        metrics = end_to_end(res, setups, kernels)
        print_end_to_end(args, res, setups, kernels, metrics)
    print(f"  stdout sha256 (set-up pass + first cycle): {res['digest']}")
    for reason in res["failures"]:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
