"""Metamorphic tests of the dual receivers, end to end from a measurement to its paths.

Each test transforms one measurement by a symmetry of the program and compares the
receiver's output on both, so it needs no oracle (Chen et al., *Metamorphic testing: a
review of challenges and opportunities*, ACM Comput. Surv. 2018):

- modulation of r by the 2-D ramp exp(i 2 pi (m phi0 - n psi0)), with (phi0, psi0) on
  the readout lattice, shifts every path by (phi0, psi0);
- a common phase exp(i theta) on r rotates every amplitude by it;
- conjugation of r and the symbols reflects every path to (-phi, -psi).

Each is an orthogonal change of frame of the sweep's real lift, so the sweeps, the stop
and the paths must agree up to rounding.  Modulation and conjugation move entries of
the lift between the index pairs and signs of its gather table, and the common phase
rotates the lift's border and corner.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from ofdmradar import Measurement, bench, qpsk, simulate
from ofdmradar.extract import GRID_FACTOR

# The benchmark's dual-receiver sweep cap.
MAX_ITERS = 600
SIZES = pytest.mark.parametrize("M, N", [(8, 8), (3, 5)], ids=["8x8", "3x5"])
RECEIVERS = pytest.mark.parametrize("name", ["CS-ANL1", "CS-AN"])
# Paths agree within this many resolution cells on each axis.
CELL_TOL = 1e-6


@lru_cache(maxsize=None)
def instance(M, N):
    """Trial 0 of seed 1 of the ``rmse1`` recipe at M x N and BER 1e-2, as the benchmark
    draws its trials: (config, measurement)."""
    spec = bench.preset("rmse1")
    config = replace(spec.config, M=M, N=N)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0)))
    drawn = bench.draw_scene(replace(spec, config=config), rng)
    return config, simulate(drawn, config, qpsk(), 1e-2, rng)


def receive(name, config, measurement):
    """(sweeps, converged, paths as (phi, psi, alpha) rows) of one dual receiver."""
    settings = bench.receiver_settings(name, measurement, config, 0, MAX_ITERS, GRID_FACTOR)
    estimate, solution, _ = bench.run_receiver(measurement, settings)
    paths = np.array([(p.phi, p.psi, p.alpha) for p in estimate.paths], dtype=complex)
    return solution.diagnostics.iterations, solution.diagnostics.converged, paths.reshape(-1, 3)


@lru_cache(maxsize=None)
def base(name, M, N):
    return receive(name, *instance(M, N))


def assert_same_paths(got, want, M, N, amplitude_rtol):
    """``got`` and ``want`` are one set of paths: each of ``want`` has one partner in
    ``got`` within CELL_TOL cells on both axes (wrapped), with its amplitude within
    ``amplitude_rtol`` of the largest amplitude."""
    assert got.shape == want.shape
    scale = np.abs(want[:, 2]).max() if len(want) else 1.0
    unused = list(range(len(got)))
    for phi, psi, alpha in want:
        for i in unused:
            d_phi = (got[i, 0].real - phi.real + 0.5) % 1.0 - 0.5
            d_psi = (got[i, 1].real - psi.real + 0.5) % 1.0 - 0.5
            if abs(d_phi) * M <= CELL_TOL and abs(d_psi) * N <= CELL_TOL:
                assert abs(got[i, 2] - alpha) <= amplitude_rtol * scale
                unused.remove(i)
                break
        else:
            raise AssertionError(f"no path near ({phi.real}, {psi.real})")


def assert_same_solve(name, M, N, config, measurement, want_paths, amplitude_rtol=1e-6):
    sweeps, converged, paths = base(name, M, N)
    got_sweeps, got_converged, got_paths = receive(name, config, measurement)
    assert (got_sweeps, got_converged) == (sweeps, converged)
    assert_same_paths(got_paths, want_paths, M, N, amplitude_rtol)


@SIZES
@RECEIVERS
def test_modulation_on_the_readout_lattice_shifts_every_path(name, M, N):
    config, meas = instance(M, N)
    phi0, psi0 = 5 / (GRID_FACTOR * M), 7 / (GRID_FACTOR * N)
    m, n = np.arange(M)[:, None], np.arange(N)[None, :]
    ramp = np.exp(2j * np.pi * (m * phi0 - n * psi0)).ravel(order="F")
    paths = base(name, M, N)[2].copy()
    paths[:, 0] = (paths[:, 0].real + phi0) % 1.0
    paths[:, 1] = (paths[:, 1].real + psi0) % 1.0
    assert_same_solve(name, M, N, config, Measurement(S_hat=meas.S_hat, r_bar=meas.r_bar * ramp),
                      paths)


@SIZES
@RECEIVERS
def test_common_phase_rotates_every_amplitude(name, M, N):
    config, meas = instance(M, N)
    phase = np.exp(0.7j)
    paths = base(name, M, N)[2].copy()
    paths[:, 2] *= phase
    assert_same_solve(name, M, N, config,
                      Measurement(S_hat=meas.S_hat, r_bar=meas.r_bar * phase), paths)


@SIZES
@RECEIVERS
def test_conjugation_reflects_every_path(name, M, N):
    config, meas = instance(M, N)
    paths = base(name, M, N)[2].copy()
    paths[:, 0] = -paths[:, 0].real % 1.0
    paths[:, 1] = -paths[:, 1].real % 1.0
    paths[:, 2] = np.conj(paths[:, 2])
    assert_same_solve(name, M, N, config,
                      Measurement(S_hat=np.conj(meas.S_hat), r_bar=np.conj(meas.r_bar)), paths)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the residual stop is absolute, so "
                   "scaling the data changes the sweep at which a solve stops")
@pytest.mark.parametrize("c", [0.1, 10.0])
@SIZES
@RECEIVERS
def test_scaling_the_data_and_the_noise_scales_every_amplitude(name, M, N, c):
    config, meas = instance(M, N)
    scaled = replace(config, noise_power_db=config.noise_power_db + 20.0 * math.log10(c))
    paths = base(name, M, N)[2].copy()
    paths[:, 2] *= c
    assert_same_solve(name, M, N, scaled,
                      Measurement(S_hat=meas.S_hat, r_bar=c * meas.r_bar), paths,
                      amplitude_rtol=1e-6 * c)
