"""Repeat loops, statistics and the report of one benchmark run.

Host speed on a shared machine drifts by up to 2x for minutes at a time, so
every repeat is timed between two runs of a fixed reference kernel, and each
phase time is scaled to a host on which that kernel takes
``REFERENCE_KERNEL_S``. The metric is the median of the scaled values over
the repeats. README.md (section "Steadiness") gives the measurements behind
this.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from capchain import netsim
from harness import Repeat, run_repeat
from tracing import PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

RUN_PY = Path(__file__).resolve().with_name("run.py")
SPAN_DIR = RUN_PY.parent.parent / ".perfbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenario_s": "s",
    "requests_per_s": "1/s",
    "blocks_per_s": "1/s",
    "artifacts_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

# Extra topology builds per repeat: set-up takes milliseconds, so it gets
# more samples than the other phases.
SETUP_SAMPLES_PER_REPEAT = 4
MIN_REPEATS = 3
PHASES = ("setup_s", "run_s", "artifacts_s", "replay_s")
SCENARIO_PHASES = ("setup_s", "run_s", "artifacts_s")

#: Seconds the reference kernel takes on the reference host: about its fastest
#: time on the 2-vCPU machine the benchmark was built on.
REFERENCE_KERNEL_S = 0.015


def reference_kernel_s() -> float:
    """Host seconds for a fixed mix of dict building, JSON and SHA-256.

    It shares no code with capchain, so a change to the program never moves
    it; only the host's speed does. Garbage left by the previous repeat is
    collected first, outside the timed region.
    """
    gc.collect()
    t0 = perf_counter()
    rows = {f"k{i}": {"id": i, "name": f"node-{i}", "tags": [i, str(i)]} for i in range(4000)}
    text = json.dumps(rows, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    sum(len(v["tags"]) for v in json.loads(text).values() if v["id"] % 3)
    return perf_counter() - t0


class HostClock:
    """Scales each repeat's phase times by the kernel runs on either side of it."""

    def __init__(self) -> None:
        self._last = reference_kernel_s()

    def scale(self) -> float:
        """Factor for the work done since the previous call."""
        now = reference_kernel_s()
        factor = REFERENCE_KERNEL_S / ((self._last + now) / 2)
        self._last = now
        return factor


def scaled_phases(repeat: Repeat, factor: float) -> dict:
    return {phase: getattr(repeat, phase) * factor for phase in PHASES}


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


class Checks:
    """Operations attempted and missed across every repeat of one workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.sha256 = None

    def add(self, repeat) -> None:
        self.attempted += repeat.attempted
        self.failures += repeat.failures
        if self.sha256 is None:
            self.sha256 = repeat.sha256
        elif repeat.sha256 != self.sha256:
            self.failures.append(f"artifact sha256 {repeat.sha256} != {self.sha256}")


def peak_rss_kb() -> int:
    """High-water resident memory of this process's own address space, in KiB.

    After fork (or vfork) and exec, ``ru_maxrss`` starts from the parent's
    high-water mark, so a probe spawned by a large parent would inherit it.
    ``VmHWM`` belongs to the address space exec created; ``ru_maxrss`` is
    the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def probe_main(workload: str, seed: int) -> int:
    """Body of the memory probe: one repeat, then its peak memory as JSON."""
    repeat = run_repeat(WORKLOADS[workload](seed))
    print(json.dumps({"peak_rss_mb": peak_rss_kb() / 1024, "sha256": repeat.sha256,
                      "attempted": repeat.attempted, "failures": repeat.failures}))
    return 0


def rss_probe(workload: str, seed: int) -> dict:
    """One repeat in a fresh interpreter, reporting its own peak resident memory.

    A process's peak never decreases, so the figure must come from a process
    that ran exactly one repeat: no earlier repeat and no traced run.
    """
    command = [sys.executable, str(RUN_PY), "--rss-probe",
               "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"rss probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def measure_end_to_end(workload: str, seed: int, seconds: float,
                       checks: Checks) -> tuple[dict, int]:
    probe = rss_probe(workload, seed)
    checks.add(SimpleNamespace(**probe))
    config = WORKLOADS[workload](seed)
    samples, setups = [], []
    clock = HostClock()
    deadline = perf_counter() + seconds
    while len(samples) < MIN_REPEATS or perf_counter() < deadline:
        repeat = run_repeat(config, check_receipts=not samples)
        checks.add(repeat)
        builds = [repeat.setup_s]
        for _ in range(SETUP_SAMPLES_PER_REPEAT):
            t0 = perf_counter()
            netsim.Simulation(config)
            builds.append(perf_counter() - t0)
        factor = clock.scale()
        sample = scaled_phases(repeat, factor)
        sample["scenario_s"] = sum(sample[p] for p in SCENARIO_PHASES)
        sample["requests_per_s"] = repeat.requests / sample["run_s"]
        sample["blocks_per_s"] = repeat.blocks / sample["run_s"]
        samples.append(sample)
        setups += [build * factor for build in builds]
    metrics = {name: median_of(samples, name) for name in END_TO_END_UNITS
               if name not in ("setup_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = probe["peak_rss_mb"]
    return {name: metrics[name] for name in END_TO_END_UNITS}, len(samples)


def measure_per_layer(workload: str, seed: int, seconds: float,
                      checks: Checks) -> tuple[dict, int]:
    """Alternate untraced and traced repeats; layer values are lower medians over
    the traced ones, so counts stay whole numbers."""
    config = WORKLOADS[workload](seed)
    untraced, traced, layers = [], [], []
    clock = HostClock()
    deadline = perf_counter() + seconds
    while len(traced) < MIN_REPEATS or perf_counter() < deadline:
        repeat = run_repeat(config, check_receipts=not untraced)
        checks.add(repeat)
        untraced.append(scaled_phases(repeat, clock.scale()))
        tracer = Tracer()
        with tracer.installed():
            repeat = run_repeat(config)
        checks.add(repeat)
        factor = clock.scale()
        traced.append(scaled_phases(repeat, factor))
        layer = tracer.layer_metrics(repeat.transactions)
        layers.append({name: value * factor if PER_LAYER_UNITS[name] in ("s", "us") else value
                       for name, value in layer.items()})
    tracer.write_spans(SPAN_DIR / f"spans-{workload}.tsv.gz")
    metrics = {name: statistics.median_low(layer[name] for layer in layers)
               for name in layers[0]}
    for samples in (untraced, traced):
        for sample in samples:
            sample["scenario_s"] = sum(sample[p] for p in SCENARIO_PHASES)
    metrics["tracing_overhead_frac"] = (median_of(traced, "scenario_s")
                                        / median_of(untraced, "scenario_s") - 1)
    return metrics, len(traced)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Checks]:
    """Measure one workload, print its report, return its metrics and checks."""
    checks = Checks()
    if trace:
        values, repeats = measure_per_layer(workload, seed, seconds, checks)
        units = dict(PER_LAYER_UNITS, tracing_overhead_frac="ratio")
    else:
        values, repeats = measure_end_to_end(workload, seed, seconds, checks)
        units = END_TO_END_UNITS
    failed_frac = len(checks.failures) / checks.attempted
    print(f"workload {workload}  seed {seed}  repeats {repeats}  "
          f"{'traced' if trace else 'untraced'}")
    print(f"  artifact_sha256  {checks.sha256}")
    for name, value in values.items():
        print(f"  {name:<34} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<34} {failed_frac:>14.6g} "
          f"({len(checks.failures)} of {checks.attempted} operations)")
    for failure in checks.failures[:20]:
        print(f"  FAILED: {failure}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return metrics, checks
