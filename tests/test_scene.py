import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmradar import (C_LIGHT, ConfigError, Measurement, Path, RadarConfig, Scene,
                       atoms, bpsk, generate_symbols, inject_demod_errors, measure,
                       normalized_to_physical, physical_to_normalized, qpsk,
                       steering, synthesize_clean)
from conftest import atom, small_config


class TestConfig:
    def test_derived_quantities(self):
        cfg = small_config()
        assert cfg.T == pytest.approx(2e-4)
        assert cfg.T_bar == pytest.approx(3e-4)
        assert cfg.sigma2 == pytest.approx(0.01)

    def test_timing_is_derived_from_the_free_parameters(self):
        cfg = small_config()
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "M", "N", "delta_f", "T_cp", "f_c", "noise_power_db"]
        cfg = dataclasses.replace(cfg, delta_f=1e4)
        assert (cfg.T, cfg.T_bar) == (1.0 / 1e4, 1.0 / 1e4 + 1e-4)

    def test_small_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            RadarConfig(M=1, N=4, delta_f=5e3, T_cp=1e-4, f_c=2e9, noise_power_db=-20)

    @pytest.mark.parametrize("field", ["M", "N"])
    @pytest.mark.parametrize("value", [8.5, 8.0, True])
    def test_dimension_that_is_not_a_whole_number_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a whole number"):
            dataclasses.replace(small_config(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("noise_power_db", math.nan), ("noise_power_db", math.inf), ("f_c", math.nan),
        ("f_c", math.inf), ("delta_f", math.nan), ("T_cp", math.nan)])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(small_config(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("delta_f", -5e3), ("delta_f", 0.0), ("delta_f", math.inf), ("T_cp", -1e-4),
        ("T_cp", -math.inf), ("f_c", -2e9), ("f_c", 0.0)])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(small_config(), **{field: value})

    def test_zero_cyclic_prefix_accepted(self):
        cfg = dataclasses.replace(small_config(), T_cp=0.0)
        assert cfg.T_bar == cfg.T

    def test_minus_infinite_noise_power_is_noiseless(self):
        assert small_config(noise_power_db=-math.inf).sigma2 == 0.0


class TestPath:
    def test_has_no_instance_dict(self):
        assert not hasattr(Path(1.0, 0.1, 0.2), "__dict__")

    @pytest.mark.parametrize("field, value", [("phi", 1.0), ("psi", -0.1)])
    def test_replace_validates(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(Path(1.0, 0.1, 0.2), **{field: value})

    def test_value_equality_and_hash(self):
        a, b = Path(1 + 2j, 0.1, 0.2), Path(1 + 2j, 0.1, 0.2)
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash((1 + 2j, 0.1, 0.2))
        assert a != Path(1 + 2j, 0.1, 0.3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.phi = 0.5


class TestSteering:
    def test_zero_frequency(self):
        assert np.allclose(steering([0.0], 4), np.ones((4, 1)))
        assert np.allclose(steering([0.0, 0.0], 3), np.ones((3, 2)))

    def test_half_cycle(self):
        assert np.allclose(steering([0.5], 2)[:, 0], [1, -1])
        assert np.allclose(steering([0.5], 3)[:, 0], [1, -1, 1])

    def test_roots_of_unity(self):
        w = np.exp(2j * np.pi / 3)
        S = steering([0.25, 1 / 3], 4)
        assert np.allclose(S[:, 0], [1, 1j, -1, -1j])
        assert np.allclose(S[:3, 1], [1, w, w ** 2])

    def test_out_of_range_rejected(self):
        for freqs in ([1.0], [-0.1], [0.2, 1.0], [np.nan]):
            with pytest.raises(ConfigError, match=r"\[0, 1\)"):
                steering(freqs, 4)

    @given(phi=st.floats(0, 1, exclude_max=True), m=st.integers(0, 7))
    def test_element_formula(self, phi, m):
        vec = steering([0.1, phi], 8)[:, 1]
        assert vec[m] == pytest.approx(np.exp(2j * np.pi * m * phi))


class TestAtom:
    def test_dc(self):
        assert np.allclose(atom(0, 0, 2, 2), np.ones(4))

    def test_doppler_only(self):
        assert np.allclose(atom(0.5, 0, 2, 2), [1, -1, 1, -1])

    def test_exponent_formula(self):
        # Entry n*M+m must equal exp(i(2 pi m phi - 2 pi n psi)).
        got = atom(0.25, 0.5, 2, 2)
        want = [np.exp(1j * (2 * np.pi * m * 0.25 - 2 * np.pi * n * 0.5))
                for n in range(2) for m in range(2)]
        assert np.allclose(got, want)
        assert np.allclose(got, [1, 1j, -1, -1j])

    @given(phi=st.floats(0, 1, exclude_max=True), psi=st.floats(0, 1, exclude_max=True))
    @settings(max_examples=25)
    def test_matches_bruteforce(self, phi, psi):
        M, N = 3, 4
        a = atom(phi, psi, M, N)
        for n in range(N):
            for m in range(M):
                want = np.exp(1j * (2 * np.pi * m * phi - 2 * np.pi * n * psi))
                assert a[n * M + m] == pytest.approx(want)

    def test_columns_match_double_loop(self, rng):
        M, N = 5, 7
        freqs = rng.uniform(size=(6, 2))
        A = atoms(freqs, M, N)
        assert A.shape == (M * N, 6)
        for k, (phi, psi) in enumerate(freqs):
            want = np.array([np.exp(1j * (2 * np.pi * m * phi - 2 * np.pi * n * psi))
                             for n in range(N) for m in range(M)])
            assert np.max(np.abs(A[:, k] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            atoms([(0.2, 0.3), (0.4, 1.0)], 3, 4)


class TestSynthesize:
    def test_single_dc_path(self):
        cfg = small_config(4, 4)
        z = synthesize_clean(Scene(targets=(Path(1.0, 0.0, 0.0),)), cfg)
        assert np.allclose(z, np.ones(16))
        z = synthesize_clean(Scene(targets=(Path(2j, 0.0, 0.0),)), cfg)
        assert np.allclose(z, 2j * np.ones(16))

    def test_two_paths_against_loop(self, rng):
        M, N = 2, 2
        cfg = small_config(M, N)
        paths = (Path(1.5 + 0.5j, 0.3, 0.7), Path(-0.2 + 1j, 0.8, 0.1))
        z = synthesize_clean(Scene(targets=paths), cfg)
        # brute-force triple loop oracle
        want = np.zeros(M * N, dtype=complex)
        for n in range(N):
            for m in range(M):
                for p in paths:
                    want[n * M + m] += p.alpha * np.exp(
                        1j * (2 * np.pi * m * p.phi - 2 * np.pi * n * p.psi))
        assert np.allclose(z, want, atol=1e-13)

    def test_single_path_equals_atom(self):
        cfg = small_config(5, 6)
        p = Path(1.0, 0.37, 0.81)
        z = synthesize_clean(Scene(targets=(p,)), cfg)
        assert np.allclose(z, atom(p.phi, p.psi, 5, 6))

    def test_empty_scene_rejected(self):
        with pytest.raises(ConfigError):
            Scene(targets=())


class TestSymbols:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_symbols(cfg, qpsk(), 42)
        b = generate_symbols(cfg, qpsk(), 42)
        assert np.array_equal(a, b)

    def test_bpsk_values(self):
        S = generate_symbols(small_config(), bpsk(), 0)
        assert set(np.unique(S)) <= {1 + 0j, -1 + 0j}

    def test_qpsk_unit_magnitude(self):
        S = generate_symbols(small_config(), qpsk(), 1)
        assert np.allclose(np.abs(S), 1.0)


class TestDemodErrors:
    def test_zero_ber(self):
        S = generate_symbols(small_config(), qpsk(), 3)
        S_hat, mask = inject_demod_errors(S, 0.0, qpsk(), 4)
        assert np.array_equal(S_hat, S)
        assert not mask.any()

    def test_half_ber_flip_fraction(self):
        cfg = RadarConfig(M=64, N=64, delta_f=5e3, T_cp=1e-4, f_c=2e9, noise_power_db=-20)
        S = generate_symbols(cfg, bpsk(), 5)
        _, mask = inject_demod_errors(S, 0.5, bpsk(), 6)
        frac = mask.mean()
        se = np.sqrt(0.25 / mask.size)
        assert abs(frac - 0.5) < 3 * se

    def test_single_bit_flip_is_gray_adjacent(self):
        # Replay inject_demod_errors' one uniform draw to count each symbol's flipped
        # label bits: one flip moves to a 90-degree neighbour, two to the antipode.
        S = generate_symbols(small_config(), qpsk(), 3)
        S_hat, _ = inject_demod_errors(S, 0.5, qpsk(), 4)
        n_flips = (np.random.default_rng(4).random(S.shape + (2,)) < 0.5).sum(axis=-1)
        moved = np.abs(S_hat - S)
        assert (n_flips == 1).any() and (n_flips == 2).any()
        assert np.allclose(moved[n_flips == 1], np.sqrt(2), rtol=1e-12, atol=0)
        assert np.allclose(moved[n_flips == 2], 2.0, rtol=1e-12, atol=0)
        assert not moved[n_flips == 0].any()

    @pytest.mark.parametrize("constellation", [qpsk(), bpsk()], ids=["qpsk", "bpsk"])
    def test_flipped_symbols_are_nested_in_ber(self, constellation):
        # One uniform draw per label bit, whatever the BER, so a symbol flipped at
        # a lower BER is flipped at every higher one.
        S = generate_symbols(small_config(64, 64), constellation, 5)
        masks = [inject_demod_errors(S, ber, constellation, 6)[1] for ber in (1e-3, 1e-2, 1e-1)]
        assert masks[0].any()
        for inner, outer in zip(masks, masks[1:]):
            assert not (inner & ~outer).any()
            assert outer.sum() > inner.sum()

    @pytest.mark.parametrize("points", [np.array([1.0, 1j, -1.0]), 2 * qpsk()],
                             ids=["three", "off-circle"])
    def test_other_constellation_rejected(self, points):
        S = generate_symbols(small_config(), points, 3)
        with pytest.raises(ConfigError, match="constellation"):
            inject_demod_errors(S, 0.1, points, 4)

    def test_symbols_off_the_constellation_rejected(self):
        S = generate_symbols(small_config(), qpsk(), 3)
        S[2, 5] *= 1j ** 0.5
        with pytest.raises(ConfigError, match="symbols do not belong to the constellation"):
            inject_demod_errors(S, 0.1, qpsk(), 4)

    def test_bad_ber_rejected(self):
        S = generate_symbols(small_config(), qpsk(), 3)
        with pytest.raises(ConfigError):
            inject_demod_errors(S, 0.6, qpsk(), 4)


class TestMeasure:
    def test_noiseless_error_free(self, rng):
        cfg = small_config(4, 4, noise_power_db=-np.inf)
        scene = Scene(targets=(Path(1.0, 0.22, 0.61),))
        S = generate_symbols(cfg, qpsk(), 7)
        meas = measure(scene, S, S, cfg, 8)
        z = synthesize_clean(scene, cfg)
        assert np.allclose(meas.r_bar, meas.s_tilde * z)
        assert np.allclose(meas.e_bar_true, 0)

    def test_single_error_location(self):
        cfg = small_config(4, 4, noise_power_db=-np.inf)
        scene = Scene(targets=(Path(1.0, 0.22, 0.61),))
        S = generate_symbols(cfg, bpsk(), 7)
        S_hat = S.copy()
        m0, n0 = 2, 3
        S_hat[m0, n0] = -S_hat[m0, n0]
        meas = measure(scene, S, S_hat, cfg, 8)
        z = synthesize_clean(scene, cfg)
        j = n0 * 4 + m0
        nz = np.flatnonzero(np.abs(meas.e_bar_true) > 0)
        assert list(nz) == [j]
        assert meas.e_bar_true[j] == pytest.approx((S[m0, n0] - S_hat[m0, n0]) * z[j])

    def test_noise_variance(self):
        cfg = small_config(8, 8, noise_power_db=-10.0)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3), Path(0.5, 0.7, 0.8)))
        samples = []
        for seed in range(40):
            S = generate_symbols(cfg, qpsk(), seed)
            meas = measure(scene, S, S, cfg, 1000 + seed)
            z = synthesize_clean(scene, cfg)
            samples.append(meas.r_bar - meas.s_tilde * z - meas.e_bar_true)
        v = np.concatenate(samples)
        var = np.mean(np.abs(v) ** 2)
        se = 0.1 / np.sqrt(len(v))  # var of |v|^2 is sigma^4 for circular Gaussian
        assert abs(var - 0.1) < 3 * se

    def test_reconstruction_identity(self):
        cfg = small_config(8, 8, noise_power_db=-10.0)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3),), clutter=(Path(2.0, 0.9, 0.5),))
        S = generate_symbols(cfg, qpsk(), 1)
        S_hat, _ = inject_demod_errors(S, 0.1, qpsk(), 2)
        meas = measure(scene, S, S_hat, cfg, 3)
        z = synthesize_clean(scene, cfg)
        lhs = meas.r_bar - meas.s_tilde * z - meas.e_bar_true - meas.v_bar_true
        assert np.abs(lhs).max() < 1e-12 * np.abs(meas.r_bar).max()

    def test_zero_symbol_rejected(self):
        cfg = small_config(4, 4)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3),))
        S = generate_symbols(cfg, qpsk(), 7)
        S_hat = S.copy()
        S_hat[0, 0] = 0
        with pytest.raises(ConfigError):
            measure(scene, S, S_hat, cfg, 8)
        with pytest.raises(ConfigError):
            Measurement(S_hat=S_hat, r_bar=np.zeros(16, complex))

    def test_symbol_shapes_must_agree(self):
        cfg = small_config(4, 4)
        scene = Scene(targets=(Path(1.0, 0.2, 0.3),))
        S = generate_symbols(cfg, qpsk(), 7)
        with pytest.raises(ConfigError, match="same shape"):
            measure(scene, S, S[:, :3], cfg, 8)

    def test_r_bar_must_have_length_mn(self):
        S_hat = generate_symbols(small_config(4, 4), qpsk(), 7)
        with pytest.raises(ConfigError, match="r_bar must have length M\\*N=16"):
            Measurement(S_hat=S_hat, r_bar=np.zeros(15, complex))

    @pytest.mark.parametrize("field", ["e_bar_true", "v_bar_true"])
    @pytest.mark.parametrize("bad", [np.full(16, np.nan, complex), np.r_[np.zeros(15), np.inf],
                                     np.zeros(15, complex), np.zeros((4, 4), complex)])
    def test_ground_truth_must_be_finite_and_of_length_mn(self, field, bad):
        S_hat = generate_symbols(small_config(4, 4), qpsk(), 7)
        Measurement(S_hat=S_hat, r_bar=np.zeros(16, complex), **{field: np.ones(16, complex)})
        with pytest.raises(ConfigError, match=field):
            Measurement(S_hat=S_hat, r_bar=np.zeros(16, complex), **{field: bad})


class TestPhysicalMapping:
    def test_origin(self):
        cfg = small_config()
        assert physical_to_normalized(0.0, 0.0, cfg) == (0.0, 0.0)

    def test_range_formula(self):
        cfg = small_config()
        _, psi = physical_to_normalized(30e3, 0.0, cfg)
        assert psi == pytest.approx(5e3 * 30e3 / C_LIGHT)
        assert psi == pytest.approx(0.5003, abs=5e-4)

    def test_negative_velocity_wraps(self):
        cfg = small_config()
        phi, _ = physical_to_normalized(0.0, -10.0, cfg)
        assert phi == pytest.approx(1.0 - (10.0 * 2e9 / C_LIGHT) * 3e-4)
        assert phi == pytest.approx(0.97999, abs=1e-5)

    def test_negative_range_rejected(self):
        with pytest.raises(ConfigError):
            physical_to_normalized(-1.0, 0.0, small_config())

    def test_range_past_the_unambiguous_delay_rejected(self):
        cfg = small_config()
        with pytest.raises(ConfigError, match="unambiguous delay interval"):
            physical_to_normalized(1.001 * C_LIGHT / cfg.delta_f, 0.0, cfg)

    @pytest.mark.parametrize("phi, psi", [(1.0, 0.2), (-0.1, 0.2), (0.2, 1.0), (0.2, -1e-3)])
    def test_normalized_pair_outside_the_unit_interval_rejected(self, phi, psi):
        with pytest.raises(ConfigError, match="must be in \\[0, 1\\)"):
            normalized_to_physical(phi, psi, small_config())

    @given(range_m=st.floats(0, 55e3), velocity=st.floats(-240, 240))
    @settings(max_examples=60)
    def test_round_trip(self, range_m, velocity):
        cfg = small_config()
        phi, psi = physical_to_normalized(range_m, velocity, cfg)
        r2, v2 = normalized_to_physical(phi, psi, cfg)
        assert r2 == pytest.approx(range_m, rel=1e-9, abs=1e-6)
        assert v2 == pytest.approx(velocity, rel=1e-9, abs=1e-9)
