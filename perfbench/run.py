"""Wall-clock benchmark of the parallel detectors and classifiers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload detect --seed 7 --seconds 33 --trace 0

One process runs one workload as a closed loop: a single client issues
a job, waits for it, checks its output, and issues the next.  A job
reads the scene from its ENVI file, runs it through
``repro.core.run_parallel(backend="sim")`` on the paper's 16-node fully
heterogeneous network, and checks the result against the sequential
reference.  A sequential job (the same work through the sequential
algorithms) follows every parallel job, and the fixed reference task
in ``calibration.py`` runs before and after every job.  Reported wall
times are scaled to the reference host speed with it (see
:func:`scaled`), so a shared host's drift does not read as a change of
the program.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes an
untraced pass, a traced pass that splits the wall time across the
program's layers (see ``layers.py``), and a pass with an observability
session attached, and prints the per-layer metrics.  The last line of
standard output is one JSON object; a fuller record, stamped with the
host and seed, goes to ``.perfbench_out/``.  The process pins itself to
one CPU (see :func:`pin_to_one_cpu`).  The exit code is 1 when any job
failed its check, and 2 when there is no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

#: Set-up repeats per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Scenes per run, made from seeds ``seed * SCENES + i``; jobs take them
#: in turn.  The detectors' and classifiers' work depends on the data,
#: so one scene per run makes the figures depend on the seed.
SCENES = 8

#: Reference-task runs after each set-up repeat; ``setup_s`` is scaled
#: by their median.
SETUP_CALIBRATIONS = 5

#: Shares of ``--seconds`` given to the untraced, traced and
#: observability-session passes of a ``--trace 1`` run.
TRACE_SPLIT = (0.4, 0.4, 0.2)

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "seq_job_s.p50": "s",
    "pixels_per_s": "px/s",
    "peak_rss_mib": "MiB",
    "truth_match_pct": "%",
    "virtual_makespan": "virtual_s",
}


#: One run of the reference task: (compute part, hand-off part) in s.
Reference = tuple[float, float]


@dataclasses.dataclass
class Pass:
    """Samples from one closed-loop pass over a workload.

    ``makespans``, ``truth`` and ``last_runs`` come from parallel jobs
    that passed their check; ``cpu_s`` is process CPU time spent in
    parallel jobs.  ``calibration`` holds the reference task's times in
    the order they were taken, and ``parallel_host`` and
    ``sequential_host`` the two taken just before and just after each
    job.
    """

    parallel: list[float] = dataclasses.field(default_factory=list)
    sequential: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    makespans: list[float] = dataclasses.field(default_factory=list)
    truth: list[float] = dataclasses.field(default_factory=list)
    last_runs: list[Any] = dataclasses.field(default_factory=list)
    cpu_s: float = 0.0
    calibration: list[Reference] = dataclasses.field(default_factory=list)
    parallel_host: list[tuple[Reference, Reference]] = dataclasses.field(
        default_factory=list)
    sequential_host: list[tuple[Reference, Reference]] = dataclasses.field(
        default_factory=list)

    def calibrate(self, hosts: list[tuple[Reference, Reference]]) -> None:
        """Time the reference task, and pair it with the one before as
        the host speed around the job that ran between them."""
        from calibration import reference_times

        before = self.calibration[-1]
        self.calibration.append(reference_times())
        hosts.append((before, self.calibration[-1]))

    def p50(self) -> float:
        return statistics.median(scaled(self.parallel, self.parallel_host))

    def seq_p50(self) -> float:
        return statistics.median(
            scaled(self.sequential, self.sequential_host)
        )


def timed_job(work, scene) -> tuple[float, Any, list[str]]:
    """Time one job from the disk read through the output check.

    ``work(image)`` returns ``(outputs, runs)``; a job that raises
    counts as failed.
    """
    from workloads import check

    t0 = time.perf_counter()
    try:
        outputs, runs = work(scene.read())
        problems = check(scene, outputs)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed job
        runs, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - t0, runs, problems


def parallel_work(scene, obs=None):
    def work(image):
        runs = scene.parallel_runs(image, obs=obs)
        return [r.output for r in runs], runs

    return work


def sequential_work(scene):
    return lambda image: (scene.sequential_outputs(image), None)


def run_pass(
    scenes, seconds: float, *, sequential: bool,
    obs_factory=None, on_job=None,
) -> Pass:
    """Alternate parallel (and, if asked, sequential) jobs for ``seconds``
    (and at least two), taking the scenes in turn; time the reference
    task before and after each job."""
    from calibration import reference_times

    samples = Pass(calibration=[reference_times()])
    deadline = time.perf_counter() + seconds
    while len(samples.parallel) < 2 or time.perf_counter() < deadline:
        job = len(samples.parallel)
        scene = scenes[job % len(scenes)]
        if on_job is not None:
            on_job(job)
        obs = obs_factory() if obs_factory is not None else None
        c0 = time.process_time()
        wall, runs, problems = timed_job(parallel_work(scene, obs), scene)
        samples.cpu_s += time.process_time() - c0
        samples.attempted += 1
        samples.parallel.append(wall)
        samples.calibrate(samples.parallel_host)
        if problems:
            samples.failures.append("parallel: " + "; ".join(problems))
        else:
            samples.makespans.append(sum(r.makespan for r in runs))
            samples.truth.append(scene.truth_match_pct([r.output for r in runs]))
            samples.last_runs = runs
        if sequential:
            wall, _, problems = timed_job(sequential_work(scene), scene)
            samples.attempted += 1
            samples.sequential.append(wall)
            samples.calibrate(samples.sequential_host)
            if problems:
                samples.failures.append("sequential: " + "; ".join(problems))
    return samples


def set_up(
    workload, seed: int
) -> tuple[list[Any], list[float], list[Reference]]:
    """Scene synthesis, ENVI write, platform and sequential reference for
    each of :data:`SCENES` scenes, then one untimed warm-up job; repeated
    :data:`SETUP_REPEATS` times, each repeat followed by
    :data:`SETUP_CALIBRATIONS` runs of the reference task.  Returns the
    last repeat's scenes, every repeat's time and every reference time."""
    from calibration import reference_times
    from workloads import Scene

    times, calibration = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        scenes = [
            Scene(workload, seed * SCENES + i, OUT / "work")
            for i in range(SCENES)
        ]
        _, _, problems = timed_job(parallel_work(scenes[0]), scenes[0])
        times.append(time.perf_counter() - t0)
        if problems:
            raise RuntimeError("warm-up job failed: " + "; ".join(problems))
        calibration += [reference_times() for _ in range(SETUP_CALIBRATIONS)]
    return scenes, times, calibration


def host_scale(calibration: list[Reference]) -> float:
    """Factor that turns wall times taken while the reference task took
    ``calibration`` into seconds at the reference host speed."""
    from calibration import REFERENCE_S

    return REFERENCE_S / statistics.median(sum(c) for c in calibration)


def scaled(
    times: list[float], hosts: list[tuple[Reference, Reference]]
) -> list[float]:
    """Each of ``times`` scaled by the reference task's times just before
    and just after it.  The host's speed switches within a second, so
    the scale is taken from around the job, not from the whole run."""
    return [t * host_scale(list(h)) for t, h in zip(times, hosts)]


def end_to_end(workload, samples: Pass, setup_s: float) -> dict[str, float] | None:
    """The end-to-end metrics (``None`` when no job passed its check);
    wall times are in seconds at the reference host speed."""
    if not samples.makespans:
        return None
    par = scaled(samples.parallel, samples.parallel_host)
    return {
        "setup_s": setup_s,
        "job_s.p50": statistics.median(par),
        "job_s.p90": statistics.quantiles(par, n=10, method="inclusive")[8],
        "seq_job_s.p50": samples.seq_p50(),
        "pixels_per_s": workload.pixels * len(par) / sum(par),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "truth_match_pct": statistics.fmean(samples.truth),
        "virtual_makespan": statistics.median(samples.makespans),
    }


def per_layer(workload, scenes, seconds: float) -> tuple[dict | None, list, Any]:
    """The three passes of a ``--trace 1`` run and the metrics they give
    (``None`` when a pass had no job that passed its check)."""
    from layers import Recorder, layer_metrics
    from repro.obs import ObsSession
    from repro.perf import imbalance_of_run

    share = [seconds * f for f in TRACE_SPLIT]
    plain = run_pass(scenes, share[0], sequential=True)
    recorder = Recorder()

    def next_job(i: int) -> None:
        recorder.job = i

    with recorder.patched():
        traced = run_pass(scenes, share[1], sequential=False,
                          on_job=next_job)
    with_obs = run_pass(scenes, share[2], sequential=False,
                        obs_factory=ObsSession.create)
    passes = [plain, traced, with_obs]
    if not all(p.makespans for p in passes):
        return None, passes, recorder
    master = f"sim-rank-{scenes[0].platform.master_rank}"
    metrics = layer_metrics(
        recorder.spans, len(traced.parallel), master, traced.cpu_s
    )
    scores = [imbalance_of_run(r.sim) for r in traced.last_runs]
    ledgers = [r.sim.master_breakdown() for r in traced.last_runs]
    metrics.update({
        "io.read_mib": workload.disk_bytes / 2**20,
        "scheduling.d_all": statistics.fmean(s.d_all for s in scores),
        "scheduling.d_minus": statistics.fmean(s.d_minus for s in scores),
        "engine.virtual_com_s": sum(led["com"] for led in ledgers),
        "engine.virtual_seq_s": sum(led["seq"] for led in ledgers),
        "engine.virtual_par_s": sum(led["par"] for led in ledgers),
        "obs.overhead_x": with_obs.p50() / plain.p50(),
        "process.cpu_per_wall": plain.cpu_s / sum(plain.parallel),
        "runtime.overhead_x": plain.p50() / plain.seq_p50(),
        "trace.overhead_x": traced.p50() / plain.p50(),
        "host.reference_s": statistics.median(
            sum(c) for p in passes for c in p.calibration
        ),
    })
    return metrics, passes, recorder


def pin_to_one_cpu() -> list[int]:
    """Pin this process, and so every rank thread it starts, to one CPU;
    returns the CPUs it may run on.

    The 16 rank threads hand the interpreter lock and the router's lock
    back and forth hundreds of times a job.  Spread over two CPUs, each
    hand-off wakes a thread on the other CPU, and any stall of that CPU
    by another tenant of the host stalls the whole job: measured on a
    2-CPU host, parallel job times then moved by 2-4x between runs
    while pinned runs stayed within about 10%.  The program holds the
    interpreter lock for nearly all its work (about 1.1 CPU-seconds per
    wall second unpinned), so one CPU is what it can use.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return sorted(os.sched_getaffinity(0))
    return []


def stamp(seed: int) -> dict[str, Any]:
    import numpy as np
    from repro.obs.provenance import provenance

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        **provenance(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("detect", "unmix", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cpus = pin_to_one_cpu()

    t0 = time.perf_counter()
    import workloads  # imports the program under test
    import_s = time.perf_counter() - t0
    from calibration import REFERENCE_S

    workload = workloads.WORKLOADS[args.workload]
    scenes, setup_times, setup_calibration = set_up(workload, args.seed)
    setup_s = (import_s + statistics.median(setup_times)) * host_scale(
        setup_calibration
    )
    record: dict[str, Any] = {
        "workload": workload.name,
        "scene": [workload.rows, workload.cols, workload.bands],
        "scene_seeds": [args.seed * SCENES + i for i in range(SCENES)],
        "stages": [[a, dict(p)] for a, p in workload.stages],
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**stamp(args.seed), "cpus": cpus},
        "setup": {"import_s": import_s, "repeats_s": setup_times,
                  "calibration_s": setup_calibration},
        "reference_s": REFERENCE_S,
    }
    if args.trace:
        metrics, passes, recorder = per_layer(
            workload, scenes, args.seconds
        )
        from layers import LAYER_MAP, UNITS

        units = UNITS
        record["layers"] = {
            layer: {
                "metrics": {n: metrics[n] for n, _ in pairs},
                "moves": moves,
            }
            for layer, (pairs, moves) in LAYER_MAP.items()
        }
        record["unpatched"] = recorder.missing
        recorder.write(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl.gz")
    else:
        passes = [run_pass(scenes, args.seconds, sequential=True)]
        metrics = end_to_end(workload, passes[0], setup_s)
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    if metrics is None:
        print(f"perfbench: {len(failures)} of {attempted} jobs failed and no "
              "job passed, so there is nothing to measure", file=sys.stderr)
        return 1
    record["samples"] = {
        "parallel_jobs": [len(p.parallel) for p in passes],
        "sequential_jobs": [len(p.sequential) for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "parallel_s": [p.parallel for p in passes],
        "sequential_s": [p.sequential for p in passes],
        "calibration_s": [p.calibration for p in passes],
        "parallel_host_s": [p.parallel_host for p in passes],
        "sequential_host_s": [p.sequential_host for p in passes],
    }
    record["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()
    }
    record["unscaled"] = {
        "job_s.p50": statistics.median(passes[0].parallel),
        "seq_job_s.p50": statistics.median(passes[0].sequential),
        "setup_s": import_s + statistics.median(setup_times),
        "reference_s.p50": statistics.median(
            sum(c) for c in passes[0].calibration
        ),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    results = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    prov = record["provenance"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"nproc={prov['nproc']} python={prov['python']} "
          f"numpy={prov['numpy']} blas={prov['blas']} git={prov['git_sha']}")
    print(f"  jobs: parallel={record['samples']['parallel_jobs']} "
          f"sequential={record['samples']['sequential_jobs']}")
    for name, entry in record["metrics"].items():
        print(f"  {name:26s} {entry['value']:.6g} {entry['unit']}")
    print("  unscaled: " + " ".join(
        f"{name}={value:.6g}" for name, value in record["unscaled"].items()
    ) + f" (reference {REFERENCE_S:g} s)")
    print(f"  {'failed_frac':26s} {record['samples']['failed_frac']:.6g} fraction")
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
