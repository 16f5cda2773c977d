"""Two-qubit states, rotation unitaries, dephasing channels, and outcome probabilities.

Everything here is exact dense 4x4 (or 2x2) arithmetic on numpy arrays.
Basis ordering is (dd, du, ud, uu) with qubit 1 as the leading tensor
factor. The model is real: probe amplitudes, rotations and the dephasing
mask are float64, and the channel keeps a complex state complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (qubit-1 bit, qubit-2 bit) of each basis index
_BITS = np.array([(i >> 1, i & 1) for i in range(4)])

# number of qubits on which the basis labels of row r and column c differ
_DIFF_COUNT = (_BITS[:, None, :] != _BITS[None, :, :]).sum(axis=2)


@dataclass(frozen=True)
class NoiseModel:
    """Dephasing strength eta (1 = none, 0 = total) applied in n_steps slices."""

    eta: float = 1.0
    n_steps: int = 1

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


NOISELESS = NoiseModel()


def probe_state(alpha: float) -> np.ndarray:
    """Probe family sqrt(alpha)|du> + sqrt(1-alpha)|ud>.

    alpha=0 and alpha=1 are separable; alpha=1/2 is the maximally
    entangled Bell state Psi+.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return np.array([0.0, np.sqrt(alpha), np.sqrt(1.0 - alpha), 0.0])


def pure_to_density(state: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi|, in the state's dtype."""
    psi = np.asarray(state)
    return np.outer(psi, psi.conj())


def _dephase_mask(eta: float) -> np.ndarray:
    # off-diagonal entry (r, c) shrinks by sqrt(eta) per differing qubit label
    return np.sqrt(eta) ** _DIFF_COUNT


def _rotation_batch(phis: np.ndarray) -> np.ndarray:
    """Stack of two-qubit rotations R(phi) (x) R(phi), shape (len(phis), 4, 4).

    Each qubit turns by the real 2x2 R(phi) = [[cos(phi/2), sin(phi/2)],
    [-sin(phi/2), cos(phi/2)]].
    """
    finite = np.isfinite(phis)
    if not finite.all():
        raise ValueError(f"angles must be finite, got {phis[~finite][0]}")
    c, s = np.cos(phis / 2.0), np.sin(phis / 2.0)
    r = np.empty((len(phis), 2, 2))
    r[:, 0, 0] = c
    r[:, 0, 1] = s
    r[:, 1, 0] = -s
    r[:, 1, 1] = c
    return np.einsum("gij,gkl->gikjl", r, r).reshape(len(phis), 4, 4)


def noisy_rotation(rho: np.ndarray, phis: float | np.ndarray, noise: NoiseModel) -> np.ndarray:
    """n_steps repetitions of [dephase by eta, then rotate by phi/n_steps], per angle.

    phis is one angle or an array of them; the result has shape
    np.shape(phis) + (4, 4), real for a real rho and complex for a complex one.
    """
    phis = np.asarray(phis, dtype=float)
    flat = phis.reshape(-1)
    rho = np.asarray(rho)
    out = np.broadcast_to(rho, (len(flat), 4, 4)).astype(np.result_type(rho, float))
    u = _rotation_batch(flat / noise.n_steps)
    ut = u.transpose(0, 2, 1)  # real, so transpose == conjugate transpose
    mask = _dephase_mask(noise.eta)
    for _ in range(noise.n_steps):
        out = u @ (out * mask) @ ut
    return out.reshape(phis.shape + (4, 4))


def profile_grid(alpha: float, phis: np.ndarray, noise: NoiseModel = NOISELESS) -> np.ndarray:
    """Outcome probabilities for each angle in phis, shape (len(phis), 4).

    Noiseless probes go through the pure-amplitude path; noisy probes through
    the density-matrix channel.
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if noise.eta == 1.0:
        return (_rotation_batch(phis) @ probe_state(alpha)) ** 2
    rho = noisy_rotation(pure_to_density(probe_state(alpha)), phis, noise)
    return np.diagonal(rho, axis1=1, axis2=2)


def measurement_probabilities(alpha: float, phi: float, noise: NoiseModel = NOISELESS) -> np.ndarray:
    """Probability of each computational-basis outcome after the noisy rotation."""
    return profile_grid(alpha, np.array([float(phi)]), noise)[0]
