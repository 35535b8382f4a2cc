"""Host-speed calibration of instance wall times.

On a shared virtual machine the speed of the host moves in phases. On a
2-vCPU virtual machine, a fixed pure-Python loop timed every 0.8 s for 40 s
took between 14.9 and 24.2 ms per call, in phases of about 10 s. Raw instance
times then spread 12–25% between 25 s runs of the same workload, more than
any useful regression bound.

So each instance is bracketed by a fixed reference computation that belongs to
the benchmark, never to the program: shortest paths with ``heapq`` on a fixed
graph, small dense matrix products, and matrix-vector products on an 8 MB
matrix that streams from memory as the simplex does, the kinds of work the
workloads do. An instance's calibrated time is its wall time times
``REF_NOMINAL_S / r``, where ``r`` is the median of the reference times taken
nearest to it. ``REF_NOMINAL_S`` is the reference's median time on a quiet
host, so calibrated times read as wall times on that host. Set-up times are
scaled the same way by three references taken right after set-up. The reference code
and ``REF_NOMINAL_S`` must not change between the commits being compared.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.0075
WINDOW = 2  # references on each side of an instance that set its calibration

_rng = np.random.default_rng(0)
_N = 400
_ADJ: list[list[tuple[int, float]]] = [[] for _ in range(_N)]
for _u, _v, _w in zip(_rng.integers(0, _N, 2000).tolist(), _rng.integers(0, _N, 2000).tolist(),
                      _rng.random(2000).tolist()):
    _ADJ[_u].append((_v, _w))
    _ADJ[_v].append((_u, _w))
_MAT = _rng.random((120, 120))
_BIG = _rng.random((1000, 1000))


def reference_s() -> float:
    """Wall time of the fixed reference computation (about 7 ms on a quiet host)."""
    t0 = perf_counter()
    for src in range(4):
        dist = [float("inf")] * _N
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    x = _MAT
    for _ in range(20):
        x = np.tanh(x @ _MAT * 0.01)
    y = _BIG[0]
    for _ in range(8):
        y = np.tanh(_BIG @ y * 0.01)
    return perf_counter() - t0


def at_nominal(t: float, refs: list[float]) -> float:
    """A time measured among reference times ``refs``, scaled to the nominal host speed."""
    return t * REF_NOMINAL_S / statistics.median(refs)


def calibrated(times: list[float], refs: list[float]) -> list[float]:
    """Scale instance i, run between refs[i] and refs[i + 1], to the nominal host speed."""
    return [at_nominal(t, refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(times)]
