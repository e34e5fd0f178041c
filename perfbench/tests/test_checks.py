"""The per-job output check counts a corrupted output as a failed job.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import dataclasses

import numpy as np
import pytest

import run
from workloads import WORKLOADS, Reference, Scene


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload_scene(request, tmp_path_factory):
    return Scene(WORKLOADS[request.param], 7, tmp_path_factory.mktemp("cube"))


def _job(scene, outputs):
    wall, _, problems = run.timed_job(lambda image: (outputs, None), scene)
    assert wall > 0
    return problems


def _swap_one_pick(result, n_pixels):
    picks = result.flat_indices.copy()
    others = np.setdiff1d(np.arange(n_pixels), picks)
    picks[1] = others[0]
    return dataclasses.replace(result, flat_indices=picks)


def _permute_labels(result, seed=0):
    labels = result.labels
    shuffled = np.random.default_rng(seed).permutation(labels.ravel())
    return dataclasses.replace(result, labels=shuffled.reshape(labels.shape))


def test_parallel_job_passes(workload_scene):
    scene = workload_scene
    _, runs, problems = run.timed_job(run.parallel_work(scene), scene)
    assert problems == []
    assert len(runs) == len(scene.workload.stages)


def test_corrupted_output_fails(workload_scene):
    scene = workload_scene
    reference = scene.reference
    if scene.workload.detector:
        corrupt = [_swap_one_pick(reference.outputs[0], scene.workload.pixels)]
        assert len(_job(scene, corrupt)) == 1
    else:
        for stage in range(len(reference.outputs)):
            outputs = list(reference.outputs)
            outputs[stage] = _permute_labels(outputs[stage])
            problems = _job(scene, outputs)
            algorithm = scene.workload.stages[stage][0]
            assert [p.split(":")[0] for p in problems] == [algorithm]


def test_raising_job_fails(workload_scene):
    scene = workload_scene

    def boom(image):
        raise ValueError("no result")

    _, runs, problems = run.timed_job(boom, scene)
    assert runs is None
    assert problems == ["raised ValueError: no result"]


def test_pass_counts_failed_jobs(workload_scene):
    scene = workload_scene
    reference = scene.reference
    bad = copy.copy(scene)
    if scene.workload.detector:
        wrong = [_swap_one_pick(reference.outputs[0], scene.workload.pixels)]
        bad.reference = Reference(wrong, [])
    else:
        bad.reference = Reference(
            reference.outputs, [a + 50.0 for a in reference.accuracies]
        )
    samples = run.run_pass([scene, bad], 0.0, sequential=True)
    assert samples.attempted == 4
    assert [f.split(":")[0] for f in samples.failures] == ["parallel", "sequential"]
    assert len(samples.makespans) == 1
