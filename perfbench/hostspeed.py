"""Host-speed calibration: a fixed kernel that shares no code with bellkron.

The 2-core VM this benchmark was tuned on changes speed by up to a factor
of two for tens of seconds at a time, whatever runs on it (a pure-Python
loop slows as much as a bellkron request).  Raw wall times therefore mostly
report which spell a run fell in.  The benchmark times this kernel next to
every measured interval and scales the interval by ``REF_S / kernel time``:
the result is the wall time the interval would have taken on a host where
the kernel takes ``REF_S``.  A change to bellkron moves the interval but not
the kernel, so the scaled time still shows it.

The kernel mixes the four kinds of work the requests do: interpreted
Python on dicts and lists, building thousands of small strings from digits
and float reprs (the CLI's report emission), small numpy products, and a
fresh multi-megabyte array, which page-faults like the large Kronecker and
Bell intermediates.  Different work slows by different amounts when the
host is busy; with all four, the scaled request times over 40 s windows of
two 4-minute traces spread by at most 0.056 of their median (quartile
distance), against up to 0.52 unscaled.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# About the median kernel time on the host the benchmark was tuned on (2 vCPUs,
# CPython 3.11, numpy with single-threaded BLAS).  Only a scale: any fixed
# value gives the same ratios between runs.
REF_S = 0.012

_A = np.random.default_rng(0).uniform(size=(40, 40))
_B = _A[:30, :30].copy()
_V = np.random.default_rng(1).normal(size=3000).tolist()


def _kernel() -> int:
    acc: dict[int, int] = {}
    for i in range(3000):
        k = (i * 7919) % 257
        acc[k] = acc.get(k, 0) + i
        row = [k, i, k + i]
        row.sort()
    labels = ["".join(str(d) for d in (i % 4, i // 4 % 4, i // 16 % 4, i // 64 % 4))
              for i in range(3000)]
    text = ",".join(f"{label}:{v!r}" for label, v in zip(labels, _V))
    x = _A
    for _ in range(150):
        x = (x @ _A) * 0.01 + _A.T
    big = np.kron(_B, _B).sum()
    return len(acc) + len(text) + int(x[0, 0] + big)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel.  The garbage
    collector is held off meanwhile, so that garbage the caller left does
    not land in the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()

