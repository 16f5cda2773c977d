"""Literal reference implementations the tests check the library against.

Each oracle spells out one textbook formula with no batching or masking, so
a disagreement points at the optimized path in `qmetro`.
"""

import itertools
import math

import numpy as np

from qmetro.bayes import _as_counts
from qmetro.quantum import _dephase_mask


def single_qubit_rotation(phi):
    """Real 2x2 rotation [[cos(phi/2), sin(phi/2)], [-sin(phi/2), cos(phi/2)]]."""
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, s], [-s, c]])


def rotation_unitary(phi):
    """Two-qubit rotation R(phi) (x) R(phi), acting independently on each qubit."""
    r = single_qubit_rotation(phi)
    return np.kron(r, r).astype(complex)


def evolve_pure(state, phi):
    """Apply the two-qubit rotation to a pure state."""
    return rotation_unitary(phi) @ np.asarray(state, dtype=complex)


def dephasing_kraus(eta):
    """Single-qubit dephasing Kraus pair (K0, K1) for strength eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    root = np.sqrt(eta)
    k0 = np.sqrt((1.0 + root) / 2.0) * np.eye(2)
    k1 = np.sqrt((1.0 - root) / 2.0) * np.diag([1.0, -1.0])
    return k0, k1


def dephase_two_qubit(rho, eta):
    """The library's masked two-qubit dephasing step applied to one density matrix.

    Equals sum_{j,l} (K_j (x) K_l) rho (K_j (x) K_l)^dagger; the diagonal is
    preserved exactly and each off-diagonal entry is scaled by sqrt(eta) per
    qubit on which the row and column basis labels differ.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return np.asarray(rho, dtype=complex) * _dephase_mask(eta)


def kraus_sum_dephase(rho, eta):
    """Literal 4-term two-qubit Kraus sum, used as the oracle for the masked path."""
    k0, k1 = dephasing_kraus(eta)
    out = np.zeros((4, 4), dtype=complex)
    for kj, kl in itertools.product((k0, k1), repeat=2):
        op = np.kron(kj, kl)
        out += op @ rho @ op.conj().T
    return out


def kraus_sequence_oracle(rho, phi, eta, n):
    """Expand all 4**n dephase-then-rotate Kraus sequences explicitly."""
    k0, k1 = dephasing_kraus(eta)
    u = rotation_unitary(phi / n)
    lams = [u @ np.kron(kj, kl) for kj, kl in itertools.product((k0, k1), repeat=2)]
    out = np.zeros((4, 4), dtype=complex)
    for seq in itertools.product(lams, repeat=n):
        op = np.eye(4, dtype=complex)
        for lam in seq:
            op = lam @ op
        out += op @ rho @ op.conj().T
    return out


def log_multinomial_coeff(counts):
    """log[nu! / (k1! k2! k3! k4!)] with nu = sum of counts."""
    k = _as_counts(counts)
    return math.lgamma(int(k.sum()) + 1) - sum(math.lgamma(int(ki) + 1) for ki in k)


def likelihood(profile_at, counts, phi):
    """Unnormalized multinomial likelihood of the counts at angle phi, with 0**0 = 1."""
    k = _as_counts(counts)
    probs = np.asarray(profile_at(phi), dtype=float)
    value = math.exp(log_multinomial_coeff(k))
    for ki, pi in zip(k, probs):
        if ki > 0:
            value *= pi ** int(ki)
    return value
