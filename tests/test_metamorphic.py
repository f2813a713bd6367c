"""Metamorphic tests of the four receivers, end to end from a measurement to its paths.

Each test transforms one measurement by a symmetry of the program and compares the
receiver's output on both, so it needs no oracle (Chen et al., *Metamorphic testing: a
review of challenges and opportunities*, ACM Comput. Surv. 2018):

- modulation of r by the 2-D ramp exp(i 2 pi (m phi0 - n psi0)), with (phi0, psi0) on
  the receiver's lattice, shifts every path by (phi0, psi0);
- a common phase exp(i theta) on r rotates every amplitude by it;
- conjugation of r and the symbols reflects every path to (-phi, -psi);
- scaling r and the noise level by c scales every amplitude by c.

For the dual receivers each is an orthogonal change of frame of the sweep's real lift,
so the sweeps, the stop and the paths must agree up to rounding.  Modulation and
conjugation move entries of the lift between the index pairs and signs of its gather
table, and the common phase rotates the lift's border and corner.  Their scale test
fails: the residual stop is absolute.  The baselines run under the benchmark protocol
(``bench.run_algorithm``, MUSIC at the trial's path count), where each symmetry permutes
the 4x lattice that CS-L1's dictionary and MUSIC's scan share, so CS-L1's iteration
count must agree exactly.  They are tested at 5x7 for odd MN rather than at 3x5, where
MUSIC's order cap leaves it no paths.
"""

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from ofdmradar import Measurement, baselines, bench, qpsk, simulate
from ofdmradar.extract import GRID_FACTOR

# The benchmark's dual-receiver sweep cap.
MAX_ITERS = 600
DUAL = ("CS-ANL1", "CS-AN")
# Paths agree within this many resolution cells on each axis.
CELL_TOL = 1e-6


def cases(names, sizes, *marks):
    return [pytest.param(name, M, N, id=f"{name}-{M}x{N}", marks=marks)
            for M, N in sizes for name in names]


DUAL_SIZES = [(8, 8), (3, 5)]
BASELINE_CASES = cases(("CS-L1", "2D-MUSIC"), [(8, 8), (5, 7)])
RECEIVERS = pytest.mark.parametrize("name, M, N", cases(DUAL, DUAL_SIZES) + BASELINE_CASES)


@lru_cache(maxsize=None)
def instance(M, N):
    """Trial 0 of seed 1 of the ``rmse1`` recipe at M x N and BER 1e-2, as the benchmark
    draws its trials: (config, measurement, path count)."""
    spec = bench.preset("rmse1")
    config = replace(spec.config, M=M, N=N)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0)))
    drawn = bench.draw_scene(replace(spec, config=config), rng)
    return config, simulate(drawn, config, qpsk(), 1e-2, rng), drawn.K


def receive(name, config, measurement, n_paths):
    """(iterations, converged, paths as (phi, psi, alpha) rows) of one receiver: ADMM sweeps
    and the stop for the dual receivers, and CS-L1's iterations; None where there is none."""
    if name in DUAL:
        _, estimate, solution, _ = bench.run_receiver(name, measurement, config,
                                                      max_iters=MAX_ITERS)
        iterations, converged = solution.diagnostics.iterations, solution.diagnostics.converged
    else:
        solves = []
        csl1_solve = baselines._csl1_solve

        def recording(*args):
            solves.append(csl1_solve(*args))
            return solves[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(baselines, "_csl1_solve", recording)
            estimate = bench.run_algorithm(name, measurement, config, n_paths)
        iterations, converged = (solves[0][1] if solves else None), None
    paths = np.array([(p.phi, p.psi, p.alpha) for p in estimate.paths], dtype=complex)
    return iterations, converged, paths.reshape(-1, 3)


@lru_cache(maxsize=None)
def base(name, M, N):
    config, measurement, n_paths = instance(M, N)
    return receive(name, config, measurement, n_paths)


def lattice(name):
    """Grid oversampling of the lattice the receiver's paths live on."""
    return GRID_FACTOR if name in DUAL else bench.BASELINE_GRID_FACTOR


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


def assert_same_solve(name, M, N, config, measurement, want_paths, scale=1.0):
    """The receiver's output on ``measurement`` is its output on the untransformed one, with
    paths ``want_paths`` and amplitudes within a tolerance of ``scale`` times the largest:
    1e-6 for the dual receivers' Newton readout, 1e-10 for the baselines' lattice."""
    iterations, converged, paths = base(name, M, N)
    assert len(paths), "the receiver emits no paths, so the test checks nothing"
    got_iterations, got_converged, got_paths = receive(name, config, measurement,
                                                       instance(M, N)[2])
    assert (got_iterations, got_converged) == (iterations, converged)
    assert_same_paths(got_paths, want_paths, M, N, (1e-6 if name in DUAL else 1e-10) * scale)


@RECEIVERS
def test_modulation_on_the_readout_lattice_shifts_every_path(name, M, N):
    config, meas, _ = instance(M, N)
    phi0, psi0 = 5 / (lattice(name) * M), 7 / (lattice(name) * N)
    m, n = np.arange(M)[:, None], np.arange(N)[None, :]
    ramp = np.exp(2j * np.pi * (m * phi0 - n * psi0)).ravel(order="F")
    paths = base(name, M, N)[2].copy()
    paths[:, 0] = (paths[:, 0].real + phi0) % 1.0
    paths[:, 1] = (paths[:, 1].real + psi0) % 1.0
    assert_same_solve(name, M, N, config, Measurement(S_hat=meas.S_hat, r_bar=meas.r_bar * ramp),
                      paths)


@RECEIVERS
def test_common_phase_rotates_every_amplitude(name, M, N):
    config, meas, _ = instance(M, N)
    phase = np.exp(0.7j)
    paths = base(name, M, N)[2].copy()
    paths[:, 2] *= phase
    assert_same_solve(name, M, N, config,
                      Measurement(S_hat=meas.S_hat, r_bar=meas.r_bar * phase), paths)


@RECEIVERS
def test_conjugation_reflects_every_path(name, M, N):
    config, meas, _ = instance(M, N)
    paths = base(name, M, N)[2].copy()
    paths[:, 0] = -paths[:, 0].real % 1.0
    paths[:, 1] = -paths[:, 1].real % 1.0
    paths[:, 2] = np.conj(paths[:, 2])
    assert_same_solve(name, M, N, config,
                      Measurement(S_hat=np.conj(meas.S_hat), r_bar=np.conj(meas.r_bar)), paths)


@pytest.mark.parametrize("c", [0.1, 10.0])
@pytest.mark.parametrize("name, M, N", cases(DUAL, DUAL_SIZES, pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the residual stop is absolute, so scaling the "
    "data changes the sweep at which a solve stops")) + BASELINE_CASES)
def test_scaling_the_data_and_the_noise_scales_every_amplitude(name, M, N, c):
    config, meas, _ = instance(M, N)
    scaled = replace(config, noise_power_db=config.noise_power_db + 20.0 * math.log10(c))
    paths = base(name, M, N)[2].copy()
    paths[:, 2] *= c
    assert_same_solve(name, M, N, scaled,
                      Measurement(S_hat=meas.S_hat, r_bar=c * meas.r_bar), paths, scale=c)
