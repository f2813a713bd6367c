"""Benchmark workloads and their seeded input generator.

Every workload uses the ``rmse1`` scene recipe (three -40 dB targets, five
clutter paths and a -10 dB direct path) with QPSK symbols at a bit error rate
of 1e-2, the paper's demodulation-error regime.  Workloads differ in the
data size M = N and in the receivers they run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ofdmradar import bench, scene

BER = 1e-2
DUAL = ("CS-ANL1", "CS-AN")
BASELINES = ("CS-L1", "2D-MUSIC")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    The first ``panel`` trials of a run make its quality metrics, so two runs
    with one seed report identical accuracy however fast the code is.  A run
    then keeps timing further trials while the next one is expected to end
    within the run's time.

    The remaining fields are the run's correctness floors, set from the
    receivers' behaviour over many seeds (see README.md): the median over
    the panel's ADMM solves, and the largest single solve, of the optimality
    violation over ``lam``; and the lowest panel identification rate of
    CS-ANL1.  Zero means the workload has no such solve or receiver.
    """

    name: str
    size: int
    receivers: tuple[str, ...]
    panel: int
    violation_p50_max: float = 0.0
    violation_max: float = 0.0
    csanl1_ident_min: float = 0.0

    def spec(self) -> bench.ScenarioSpec:
        base = bench.preset("rmse1")
        return replace(base, config=replace(base.config, M=self.size, N=self.size), ber=BER)


# On one core of the reference host a dual-16 trial takes 4.5-7 s, a dual-8
# trial 0.35-0.5 s and a baselines-16 trial 12-21 s.  The dual-16 and
# baselines-16 panels take about 30 s; their trial time varies with the
# scene (ADMM and FISTA iteration counts), so a shorter panel spreads more
# across seeds, and a longer one makes a set of repeated runs too long.
# The dual-8 panel takes about 20 s, leaving time for more trials.
WORKLOADS = {w.name: w for w in (
    Workload("dual-16", 16, DUAL, panel=5, violation_p50_max=3.2, violation_max=6.0,
             csanl1_ident_min=0.3),
    Workload("dual-8", 8, DUAL, panel=45, violation_p50_max=1.0, violation_max=3.0,
             csanl1_ident_min=0.25),
    Workload("baselines-16", 16, BASELINES, panel=2),
)}


@dataclass(frozen=True)
class Trial:
    index: int
    scene: scene.Scene
    measurement: scene.Measurement


def make_trial(workload: Workload, seed: int, index: int) -> Trial:
    """Scene and measurement of one trial, drawn from SeedSequence((seed, index))."""
    spec = workload.spec()
    rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
    drawn = bench.draw_scene(spec, rng)
    measurement = scene.simulate(drawn, spec.config, scene.qpsk(), BER, rng)
    return Trial(index, drawn, measurement)


def make_inputs(workload: Workload, seed: int, count: int) -> list[Trial]:
    """Trials 0..count-1 of a seed."""
    return [make_trial(workload, seed, index) for index in range(count)]
