"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from worker import call  # noqa: E402


def _listing(workdir):
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("workload", sorted(workloads.MIXES))
def test_inputs_identical_for_a_seed(tmp_path, workload):
    runs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        reqs = [r for cycle in (-1, 0, 1)
                for r in workloads.make_requests(workload, 7, cycle, str(d))]
        argv = [[a.replace(str(d), "<dir>") for a in r.argv] for r in reqs]
        runs.append((argv, _listing(d)))
    assert runs[0] == runs[1]
    other = tmp_path / "c"
    other.mkdir()
    workloads.make_requests(workload, 8, 0, str(other))
    assert _listing(other) != _listing(tmp_path / "a")


def test_cycle_holds_every_weighted_template():
    for workload, mix in workloads.MIXES.items():
        keys = [t.key for t in workloads.cycle_templates(workload)]
        assert sorted(keys) == sorted(t.key for t, n in mix for _ in range(n))


def test_end_to_end_scales_by_kernel_time():
    import hostspeed
    import run
    ref = hostspeed.REF_S
    res = {"latencies": [0.010, 0.020, 0.030, 0.040],
           "kernel_s": [ref, 2 * ref, ref, 2 * ref], "peak_rss_kb": 1024}
    m = run.end_to_end(res, setups=[3.0, 4.0, 6.0], kernels=[ref, 2 * ref, 2 * ref])
    # scaled latencies 10, 10, 30, 20 ms; scaled set-ups 3, 2, 3 s
    assert m["throughput_rps"] == (pytest.approx(4 / 0.070), "1/s")
    assert m["latency_p50_ms"] == (pytest.approx(15.0), "ms")
    assert m["latency_p90_ms"] == (pytest.approx(30.0), "ms")
    assert m["setup_s"] == (pytest.approx(3.0), "s")


def _span(i, parent, start, end, layer="kron_ops", name="kron_ops.kron", entries=0):
    return (i, "r0", name, layer, start, end, parent, "", entries)


def test_self_time_on_synthetic_tree():
    spans = [
        _span(0, -1, 0.0, 10.0, layer="cli", name="cli.main"),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 3.5, 6.0),        # overlaps span 1 by 0.5
        _span(4, 0, 9.0, 12.0),       # runs past its parent's end
        _span(5, -1, 20.0, 21.0, layer="partitions", name="partitions.x"),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    m = layer_metrics(spans, {}, cycles=2)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["kron_ops.self_s"] == pytest.approx((2.0 + 1.0 + 2.5 + 3.0) / 2)
    assert m["kron_ops.calls"] == pytest.approx(2.0)
    assert m["partitions.self_s"] == pytest.approx(0.5)


def test_kron_entries_count_outermost_calls_only():
    spans = [
        _span(0, -1, 0.0, 1.0, name="kron_ops.kron_chain", entries=64),
        _span(1, 0, 0.1, 0.2, name="kron_ops.kron", entries=16),
        _span(2, 0, 0.3, 0.4, name="kron_ops.kron", entries=64),
        _span(3, -1, 2.0, 3.0, name="kron_ops.kron_power", entries=27),
    ]
    m = layer_metrics(spans, {}, cycles=1)
    assert m["kron_ops.kron_entries"] == 64 + 27
    assert m["kron_ops.peak_entries"] == 64


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    from bellkron import kron_ops, normal_moments
    original = kron_ops.kron
    tracer = Tracer()
    tracer.install()
    try:
        assert normal_moments.kron is kron_ops.kron is not original
        req = next(r for r in workloads.make_requests("moments", 3, 0, str(tmp_path))
                   if r.template.startswith("scalar:"))
        code, text, _ = call(req.argv)
    finally:
        tracer.uninstall()
    assert kron_ops.kron is original and normal_moments.kron is original
    assert code == 0 and oracles.judge(req, code, text) is None
    names = {s[2] for s in tracer.spans}
    assert "cli.main" in names and "normal_moments.scalar_moment" in names
    roots = [s for s in tracer.spans if s[6] == -1]
    assert [s[2] for s in roots] == ["cli.main"]


# ---------------------------------------------------------------------------
# correctness gate


def _requests(tmp_path):
    """One response of each kind the gate parses, small shapes."""
    reqs = []
    for cycle in (0, 1, 2):
        rng = np.random.default_rng(cycle)
        d = str(tmp_path)
        for fmt in workloads.FORMATS:
            stem = os.path.join(d, f"{cycle}{fmt}")
            reqs.append(workloads._scalar_request(rng, stem, 3, 4, fmt))
            reqs.append(workloads._vector_request(rng, stem + "s", 3, 4, True, fmt))
            reqs.append(workloads._vector_request(rng, stem + "r", 2, 5, False, fmt))
        reqs.append(workloads._poly_request(rng, stem + "p", 2, 2, 1, 4, True))
        reqs.append(workloads._poly_request(rng, stem + "q", 2, 2, 2, 4, False))
        reqs.append(workloads._exp_request(rng, stem + "e", 2, 5, True))
        reqs.append(workloads._exp_request(rng, stem + "f", 2, 5, False))
    for req in reqs:
        req.template = req.check["kind"]
    return reqs


def _perturb(req, text: str) -> str:
    """The response with its largest-magnitude value scaled by 1 + 1e-6."""
    kind, fmt = req.check["kind"], req.check.get("format", "json")
    if fmt == "json":
        report = json.loads(text)
        key = {"scalar": "value", "vector": "moment"}.get(kind, "matrix")
        if key == "value":
            report[key] *= 1 + 1e-6
        else:
            flat = np.asarray(report[key], dtype=float)
            idx = np.unravel_index(int(np.argmax(np.abs(flat))), flat.shape)
            flat[idx] *= 1 + 1e-6
            report[key] = flat.tolist()
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        vals = [abs(float(r[1])) for r in rows[1:]]
        row = rows[1 + int(np.argmax(vals))]
        row[1] = repr(float(row[1]) * (1 + 1e-6))
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        return buf.getvalue()
    lines = text.splitlines()
    if kind == "scalar":
        head, value = lines[0].rsplit(": ", 1)
        lines[0] = f"{head}: {float(value) * (1 + 1e-6)!r}"
    else:
        vals = [abs(float(line.rsplit(" ", 1)[1])) for line in lines[1:]]
        i = 1 + int(np.argmax(vals))
        label, value = lines[i].rsplit(" ", 1)
        lines[i] = f"{label} {float(value) * (1 + 1e-6)!r}"
    return "\n".join(lines) + "\n"


def test_gate_accepts_and_rejects_perturbed_values(tmp_path):
    for req in _requests(tmp_path):
        code, text, _ = call(req.argv)
        assert oracles.judge(req, code, text) is None, req.argv
        bad = _perturb(req, text)
        assert bad != text
        assert oracles.judge(req, code, bad) is not None, req.argv


def test_gate_rejects_unexpected_exit_code(tmp_path):
    req = _requests(tmp_path)[0]
    code, text, _ = call(req.argv)
    assert code == 0
    for wrong in (1, 2, 3, "raised RuntimeError: boom"):
        assert "exit code" in oracles.judge(req, wrong, text)


def test_gate_checks_bell_and_verify(tmp_path):
    bell = workloads._bell_request(6, 3)
    code, text, _ = call(bell.argv)
    assert oracles.judge(bell, code, text) is None
    report = json.loads(text)
    report["terms"][0]["coefficient"] += 1
    assert "coefficient sum" in oracles.judge(bell, code, json.dumps(report))
    ver = workloads._verify_request(0, 0, "moments")
    report = {"suite": "moments", "seed": ver.check["seed"], "passed": True,
              "checks": [{"passed": True}]}
    assert oracles.judge(ver, 0, json.dumps(report)) is None
    report["checks"][0]["passed"] = False
    assert oracles.judge(ver, 0, json.dumps(report)) is not None
