"""The benchmark's workloads: scene, parallel and sequential jobs, checks.

A job reads the scene back from its ENVI file, runs the workload's
algorithms, and checks the outputs against the sequential reference
computed once at set-up.  The program under test only ever sees the
generated cube; the ground truth stays with the benchmark.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.cluster.presets import fully_heterogeneous
from repro.core import atdca, morph_classify, pct_classify, run_parallel, ufcls
from repro.hsi import SceneConfig, make_wtc_scene, score_classification
from repro.hsi.metrics import match_targets
from repro.io import envi

#: A detector finds a ground hot spot when its best SAD is below this
#: (the rule ``repro.core.SceneAnalysis.summary`` uses).
HOTSPOT_SAD = 0.02

#: Classifier accuracy tolerances against the sequential classifier,
#: in overall-accuracy points, as ``tests/test_parallel_equivalence.py``
#: holds the parallel classifiers: PCT within 20 either way, MORPH no
#: more than 10 below.
PCT_TOLERANCE = 20.0
MORPH_DROP = 10.0

_SEQUENTIAL: Mapping[str, Callable[..., Any]] = {
    "atdca": atdca,
    "ufcls": ufcls,
    "pct": pct_classify,
    "morph": morph_classify,
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input: a scene shape and the algorithms a job runs.

    Attributes:
        name: workload name as passed to ``--workload``.
        rows, cols, bands: scene shape.
        stages: ``(algorithm, params)`` pairs run in order by every job;
            ``params`` go to :func:`repro.core.run_parallel` and, as
            keyword arguments, to the sequential reference.
    """

    name: str
    rows: int
    cols: int
    bands: int
    stages: tuple[tuple[str, Mapping[str, Any]], ...]

    @property
    def detector(self) -> bool:
        return self.stages[0][0] in ("atdca", "ufcls")

    @property
    def pixels(self) -> int:
        return self.rows * self.cols

    @property
    def disk_bytes(self) -> int:
        """Size of the float32 cube on disk, from the array shape."""
        return self.rows * self.cols * self.bands * 4


# Sizes keep a parallel+sequential job pair, with the reference task
# around each job, near 0.3 s on one CPU, so a 33 s run gives about 100
# parallel jobs and a p90 with ten samples beyond it.  See README.md for
# why each workload exists.
WORKLOADS: Mapping[str, Workload] = {
    "detect": Workload(
        "detect", 256, 32, 48, (("atdca", {"n_targets": 18}),),
    ),
    "unmix": Workload(
        "unmix", 128, 8, 32, (("ufcls", {"n_targets": 8}),),
    ),
    "classify": Workload(
        "classify", 256, 32, 32,
        (("pct", {"n_classes": 24}), ("morph", {"n_classes": 24})),
    ),
}


def _sequential_args(params: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
    count_key = "n_targets" if "n_targets" in params else "n_classes"
    extra = {k: v for k, v in params.items() if k != count_key}
    return int(params[count_key]), extra


@dataclasses.dataclass
class Reference:
    """What a job's outputs are checked against.

    Attributes:
        outputs: the sequential algorithms' outputs on the cube as read
            back from disk, one per stage.
        accuracies: overall accuracy of each sequential classifier
            against ground truth (empty for detectors).
    """

    outputs: list[Any]
    accuracies: list[float]


class Scene:
    """A generated scene written to disk, with its ground truth and the
    sequential reference its jobs are checked against."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        self.workload = workload
        scene = make_wtc_scene(SceneConfig(
            rows=workload.rows, cols=workload.cols, bands=workload.bands,
            seed=seed,
        ))
        self.truth = scene.truth
        self.class_names = scene.class_names
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"{workload.name}-seed{seed}.bsq"
        envi.write_envi(self.path, scene.image)
        self.platform = fully_heterogeneous()
        self.reference = self._reference()

    def read(self):
        # Looked up through the module so the traced pass's wrapper on
        # ``repro.io.envi.read_envi`` sees the call.
        return envi.read_envi(self.path)

    def accuracy(self, labels: np.ndarray) -> float:
        return float(score_classification(
            self.truth.class_map, labels, self.class_names
        ).overall)

    def _reference(self) -> Reference:
        outputs = self.sequential_outputs(self.read())
        accuracies = (
            [] if self.workload.detector
            else [self.accuracy(out.labels) for out in outputs]
        )
        return Reference(outputs, accuracies)

    def sequential_outputs(self, image) -> list[Any]:
        outputs = []
        for algorithm, params in self.workload.stages:
            count, extra = _sequential_args(params)
            outputs.append(_SEQUENTIAL[algorithm](image, count, **extra))
        return outputs

    def parallel_runs(self, image, obs=None) -> list[Any]:
        """One :class:`repro.core.ParallelRun` per stage, on the paper's
        16-node fully heterogeneous network with WEA partitions."""
        return [
            run_parallel(
                algorithm, image, self.platform, params=params,
                variant="hetero", backend="sim", obs=obs,
            )
            for algorithm, params in self.workload.stages
        ]

    def truth_match_pct(self, outputs: list[Any]) -> float:
        """How much of the ground truth the outputs recover, in percent.

        Detectors: the share of hot spots matched below
        :data:`HOTSPOT_SAD`.  Classifiers: mean overall accuracy.
        """
        if self.workload.detector:
            matches = match_targets(
                outputs[0].signatures, self.truth.target_signatures()
            )
            found = sum(1 for m in matches.values() if m["sad"] < HOTSPOT_SAD)
            return 100.0 * found / len(matches)
        return float(np.mean([self.accuracy(out.labels) for out in outputs]))


def check(scene: Scene, outputs: list[Any]) -> list[str]:
    """Problems with a job's outputs; an empty list means the job passed.

    Detectors must pick exactly the reference's pixels, in order.
    Classifiers must label the whole scene and stay within the accuracy
    tolerances of the sequential classifier.
    """
    problems = []
    reference = scene.reference
    stages = scene.workload.stages
    if len(outputs) != len(stages):
        return [f"expected {len(stages)} outputs, got {len(outputs)}"]
    for i, ((algorithm, _), out) in enumerate(zip(stages, outputs)):
        ref = reference.outputs[i]
        if scene.workload.detector:
            if not np.array_equal(out.flat_indices, ref.flat_indices):
                problems.append(
                    f"{algorithm}: picked {out.flat_indices.tolist()}, "
                    f"reference {ref.flat_indices.tolist()}"
                )
            continue
        if out.labels.shape != ref.labels.shape:
            problems.append(
                f"{algorithm}: label map {out.labels.shape}, "
                f"expected {ref.labels.shape}"
            )
            continue
        got = scene.accuracy(out.labels)
        want = reference.accuracies[i]
        if algorithm == "pct" and abs(got - want) >= PCT_TOLERANCE:
            problems.append(
                f"pct: accuracy {got:.1f}% vs sequential {want:.1f}%"
            )
        if algorithm == "morph" and got <= want - MORPH_DROP:
            problems.append(
                f"morph: accuracy {got:.1f}% vs sequential {want:.1f}%"
            )
    return problems
