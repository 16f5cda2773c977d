"""Kernel tests: probe states, rotations, dephasing channel, outcome probabilities."""

import itertools

import numpy as np
import pytest

from qmetro.quantum import (
    NOISELESS,
    NoiseModel,
    measurement_probabilities,
    noisy_rotation,
    probe_state,
    profile_grid,
    pure_to_density,
)

from oracles import (
    dephase_two_qubit,
    dephasing_kraus,
    evolve_pure,
    kraus_sequence_oracle,
    kraus_sum_dephase,
    rotation_unitary,
)

KET_DD = np.array([1, 0, 0, 0], dtype=complex)
KET_DU = np.array([0, 1, 0, 0], dtype=complex)
KET_UD = np.array([0, 0, 1, 0], dtype=complex)
BELL = np.array([0, 1, 0, 1], dtype=complex)[[0, 1, 1, 0]] / np.sqrt(2)  # (0,1,1,0)/sqrt2


def random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestProbeState:
    def test_separable_endpoint(self):
        assert np.allclose(probe_state(0.0), KET_UD)

    def test_bell_state(self):
        assert np.allclose(probe_state(0.5), BELL)

    def test_direct_substitution(self):
        expected = np.array([0, np.sqrt(1 / 3), np.sqrt(2 / 3), 0])
        assert np.allclose(probe_state(1 / 3), expected)

    @pytest.mark.parametrize("alpha", [-0.1, 1.1, 2.0])
    def test_domain_error(self, alpha):
        with pytest.raises(ValueError):
            probe_state(alpha)

    def test_normalized(self):
        for alpha in np.linspace(0, 1, 11):
            assert abs(np.linalg.norm(probe_state(alpha)) - 1) < 1e-12


class TestRotationUnitary:
    def test_zero_rotation_is_identity(self):
        assert np.allclose(rotation_unitary(0.0), np.eye(4), atol=1e-15)

    def test_pi_swaps_with_sign(self):
        # hand tensor-product evaluation with cos(pi/2)=0, sin(pi/2)=1
        assert np.allclose(rotation_unitary(np.pi) @ KET_DU, -KET_UD, atol=1e-15)

    def test_unitarity_sampled(self):
        rng = np.random.default_rng(7)
        for phi in rng.uniform(0, 2 * np.pi, size=1000):
            u = rotation_unitary(phi)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rotation_unitary(np.nan)


class TestEvolvePure:
    def test_identity(self):
        assert np.allclose(evolve_pure(KET_DU, 0.0), KET_DU)

    def test_bell_quarter_turn(self):
        expected = np.array([1, 0, 0, -1]) / np.sqrt(2)
        assert np.allclose(evolve_pure(BELL, np.pi / 2), expected, atol=1e-15)

    def test_separable_quarter_turn(self):
        expected = np.array([0.5, -0.5, 0.5, -0.5])
        assert np.allclose(evolve_pure(KET_UD, np.pi / 2), expected, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            assert abs(np.linalg.norm(evolve_pure(psi, rng.uniform(0, 7))) - 1) < 1e-12


class TestPureToDensity:
    def test_basis_state(self):
        rho = pure_to_density(KET_DD)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(rho, expected)

    def test_bell_outer_product(self):
        rho = pure_to_density(BELL)
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        assert np.allclose(rho, expected)

    def test_purity(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        eigs = np.sort(np.linalg.eigvalsh(pure_to_density(psi)))
        assert np.allclose(eigs, [0, 0, 0, 1], atol=1e-10)


class TestDephasing:
    def test_eta_one_is_identity(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng)
        assert np.allclose(dephase_two_qubit(rho, 1.0), rho)

    def test_eta_zero_kills_coherences(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng)
        out = dephase_two_qubit(rho, 0.0)
        assert np.allclose(out, np.diag(np.diag(rho)))

    def test_bell_coherence_scaling(self):
        rho = pure_to_density(BELL)
        out = dephase_two_qubit(rho, 0.81)
        # both qubit labels differ between du and ud: factor sqrt(eta)**2 = 0.81
        assert np.isclose(out[1, 2], 0.81 * rho[1, 2])
        assert np.isclose(out[2, 1], 0.81 * rho[2, 1])
        assert np.allclose(np.diag(out), np.diag(rho))

    def test_matches_explicit_kraus_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rho = random_density(rng)
            eta = rng.uniform(0, 1)
            assert np.allclose(dephase_two_qubit(rho, eta), kraus_sum_dephase(rho, eta), atol=1e-12)

    def test_monotone_coherence_shrink(self):
        rng = np.random.default_rng(9)
        for eta in rng.uniform(0, 1, size=20):
            rho = random_density(rng)
            out = dephase_two_qubit(rho, eta)
            assert np.all(np.abs(out) <= np.abs(rho) + 1e-15)

    def test_kraus_completeness(self):
        rng = np.random.default_rng(10)
        for eta in rng.uniform(0, 1, size=100):
            k0, k1 = dephasing_kraus(eta)
            assert np.allclose(k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(2), atol=1e-12)
            total = sum(
                np.kron(a, b).conj().T @ np.kron(a, b)
                for a, b in itertools.product((k0, k1), repeat=2)
            )
            assert np.allclose(total, np.eye(4), atol=1e-12)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            dephase_two_qubit(np.eye(4) / 4, 1.5)


class TestNoisyRotation:
    def test_noiseless_reduction(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng)
        phi = 1.1
        u = rotation_unitary(phi)
        for n in (1, 3, 5):
            out = noisy_rotation(rho, phi, NoiseModel(1.0, n))
            assert np.allclose(out, u @ rho @ u.conj().T, atol=1e-12)

    def test_single_step_composition(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng)
        out = noisy_rotation(rho, 0.7, NoiseModel(0.6, 1))
        u = rotation_unitary(0.7)
        expected = u @ dephase_two_qubit(rho, 0.6) @ u.conj().T
        assert np.allclose(out, expected, atol=1e-14)

    def test_bell_matches_sequence_oracle(self):
        rho = pure_to_density(BELL)
        out = noisy_rotation(rho, np.pi / 2, NoiseModel(0.5, 5))
        oracle = kraus_sequence_oracle(rho, np.pi / 2, 0.5, 5)
        assert np.allclose(out, oracle, atol=1e-12)

    def test_channel_contract(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            rho = random_density(rng)
            noise = NoiseModel(rng.uniform(0, 1), int(rng.integers(1, 6)))
            out = noisy_rotation(rho, rng.uniform(-np.pi, np.pi), noise)
            assert abs(np.trace(out).real - 1) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


class TestMeasurementProbabilities:
    def test_identity_evolution(self):
        for alpha in (0.0, 0.25, 0.7):
            probs = measurement_probabilities(alpha, 0.0)
            assert np.allclose(probs, [0, alpha, 1 - alpha, 0], atol=1e-14)

    def test_bell_quarter_turn(self):
        probs = measurement_probabilities(0.5, np.pi / 2)
        assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_separable_quarter_turn(self):
        probs = measurement_probabilities(0.0, np.pi / 2)
        assert np.allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_profiles_normalized(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            noise = NoiseModel(rng.uniform(0, 1), int(rng.integers(1, 6)))
            probs = measurement_probabilities(rng.uniform(0, 1), rng.uniform(0, np.pi), noise)
            assert abs(probs.sum() - 1) <= 1e-10
            assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_pure_density_path_equivalence(self):
        # profile_grid's pure-amplitude branch against the shared channel at eta=1
        rng = np.random.default_rng(16)
        phis = rng.uniform(0, np.pi, size=1000)
        alphas = rng.uniform(0, 1, size=1000)
        for alpha, phi in zip(alphas, phis):
            pure = profile_grid(alpha, [phi])[0]
            rho = noisy_rotation(pure_to_density(probe_state(alpha)), phi, NoiseModel(1.0, 1))
            assert np.allclose(pure, np.diag(rho).real, atol=1e-12)

    def test_profile_grid_matches_pointwise(self):
        nodes = np.linspace(0, np.pi, 50)
        noise = NoiseModel(0.8, 3)
        grid = profile_grid(0.3, nodes, noise)
        rho = pure_to_density(probe_state(0.3))
        for idx in (0, 17, 49):
            oracle = np.diag(kraus_sequence_oracle(rho, nodes[idx], 0.8, 3)).real
            assert np.allclose(grid[idx], oracle, atol=1e-12)
        assert NOISELESS.eta == 1.0

    @pytest.mark.parametrize("noise", [NOISELESS, NoiseModel(0.8, 3)], ids=["pure", "noisy"])
    def test_non_finite_angle_rejected(self, noise):
        with pytest.raises(ValueError, match="finite"):
            profile_grid(0.3, [0.1, np.nan], noise)
