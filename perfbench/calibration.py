"""Fixed reference work that measures how fast the shared host runs right now.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts by
tens of percent over minutes, with nothing running in the VM. That drift moves
every timing of a run together, so the worker times this fixed work right
after each op, in the same process and on the same thread, and the op's time
is reported scaled by ``REFERENCE_S / calibration time``: the time the op
would take on a host that runs the calibration in ``REFERENCE_S``. Each set-up
sample is scaled the same way, by a calibration timed right after the import.

The work is a mix of the resources the program uses, so that one factor fits
every workload: a Python loop of small numpy calls on one thread (the oracle's
and the per-block paths' kind of work), and two threads of GIL-releasing numpy
vector work, which need both vCPUs as the sampler and the threaded BLAS calls
do. It calls no BLAS routine and nothing in the program. Its inputs are fixed,
so it is the same work in every run, and it adds the same amount to the
worker's peak RSS in every run (README.md gives the amounts).
"""

from __future__ import annotations

import threading
import time

import numpy as np

# About the calibration's median time on the 2-vCPU sizing machine; a unit
# conversion, so that scaled times read close to wall seconds.
REFERENCE_S = 0.08


def _small_calls() -> None:
    a = np.eye(2)
    s = 0.0
    for i in range(8000):
        s += float(np.trace(a @ a)) + i * 0.5


def _vector(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(50):
        x = rng.standard_normal(20_000)
        (x * x).sum()
        np.sort(x)


def calibrate() -> float:
    """Seconds the reference work takes now."""
    start = time.perf_counter()
    _small_calls()
    workers = [threading.Thread(target=_vector, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - start
