"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host is a few virtual CPUs of a shared machine, and its
speed switches with what the other tenants run: measured on a 2-CPU
host, the same sequential job took 12 ms in one run and 16 ms in the
next, and within a run the speed changed from one job to the next.
Every job slows or speeds up with the host, so the benchmark times this
task just before and just after each job and scales the job's wall time
to a host that runs the task in :data:`REFERENCE_S` (see ``run.py``).

The task uses nothing from the program under test.  It does the kinds
of work a job does, in two parts of about equal length: a compute part
(small numpy linear algebra, as in the kernels, and interpreted Python,
as in the runtime's bookkeeping) and a hand-off part (a turn passed
around eight threads that wait on one condition, as the rank threads
wait on the router).  The hand-off part is there because the parallel
jobs slow down more than plain compute when the host is busy: their
time goes mostly to thread switches.  Its inputs are fixed, so every
run does the same work whatever the workload seed.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Callable

import numpy as np

#: The task's usual wall time (both parts), in seconds, on the host the
#: benchmark's first numbers were measured on (README.md, "Host").
#: Scaled times are seconds on a host that runs the task this fast.
REFERENCE_S = 0.0065

_CUBE = np.random.default_rng(0).random((2048, 48))
_ROUNDS = 2
_LOOP = 8000
_RING = 8
_LAPS = 10


def _linear_algebra() -> int:
    """Orthogonal-subspace projection rounds on a fixed cube."""
    picks = []
    residual = _CUBE
    for _ in range(_ROUNDS):
        i = int(np.argmax(np.einsum("ij,ij->i", residual, residual)))
        picks.append(i)
        basis = _CUBE[picks].T
        projector = np.eye(basis.shape[0]) - basis @ np.linalg.pinv(basis)
        residual = _CUBE @ projector
    return picks[-1]


def _interpreted() -> int:
    table: dict[int, int] = {}
    for k in range(_LOOP):
        table[k % 97] = table.get(k % 97, 0) + k
    return len(table)


def _handoffs() -> int:
    """Pass a turn around a ring of threads that wait on one condition,
    each pass waking all of them, as the rank threads wait on the
    router."""
    cond = threading.Condition()
    turn = [0]
    total = _RING * _LAPS

    def member(rank: int) -> None:
        with cond:
            while True:
                while turn[0] < total and turn[0] % _RING != rank:
                    cond.wait(timeout=1.0)
                if turn[0] >= total:
                    return
                turn[0] += 1
                cond.notify_all()

    ring = [
        threading.Thread(target=member, args=(r,), name=f"perfbench-ring-{r}")
        for r in range(_RING)
    ]
    for thread in ring:
        thread.start()
    for thread in ring:
        thread.join()
    return total


def _timed(task: Callable[[], Any]) -> float:
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def reference_times() -> tuple[float, float]:
    """Wall times of one run of the reference task's compute part (linear
    algebra and interpreted Python) and of its thread hand-offs, with
    garbage collection off so that the program's leftover objects do
    not land in them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        compute = _timed(_linear_algebra) + _timed(_interpreted)
        return compute, _timed(_handoffs)
    finally:
        if enabled:
            gc.enable()
