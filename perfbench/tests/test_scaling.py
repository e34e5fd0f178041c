"""Job times are scaled by the reference task timed around each job.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import pytest

import calibration
import run
from workloads import WORKLOADS, Scene


def test_scaled_follows_the_host():
    ref = calibration.REFERENCE_S
    usual = (ref / 2, ref / 2)
    slow = (ref, ref)
    times = [0.1, 0.1, 0.2]
    hosts = [(usual, usual), (slow, slow), (usual, slow)]
    assert run.scaled(times, hosts) == pytest.approx([0.1, 0.05, 0.2 / 1.5])


def test_reference_times_are_positive():
    compute, handoff = calibration.reference_times()
    assert compute > 0 and handoff > 0


def test_pass_brackets_every_job(tmp_path):
    scene = Scene(WORKLOADS["detect"], 7, tmp_path)
    samples = run.run_pass([scene], 0.0, sequential=True)
    jobs = len(samples.parallel)
    assert jobs == len(samples.sequential) == 2
    assert len(samples.calibration) == 1 + 2 * jobs
    assert len(samples.parallel_host) == len(samples.sequential_host) == jobs
    # Each job's "after" reference run is the next job's "before".
    assert samples.parallel_host[0][1] == samples.sequential_host[0][0]
    assert samples.sequential_host[0][1] == samples.parallel_host[1][0]
