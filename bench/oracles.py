"""Independent oracles the benchmark checks qsreg's outputs against.

None of these call into qsreg: the Hamiltonian is assembled from 2x2 Pauli
matrices and diagonalised with numpy, circuits are simulated from the
benchmark's own gate data (see ``circuits.py``), and the cost model is
recomputed with scipy's Lambert W and regularised incomplete gamma.
Qubit 0 is the leftmost Pauli character and the most significant bit of a
basis-state index, as in qsreg's documented file format.
"""
from __future__ import annotations

import math

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_hamiltonian(num_qubits: int, terms) -> np.ndarray:
    """sum_k w_k * (P_k0 kron P_k1 kron ...) for terms given as (weight, string)."""
    h = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    for weight, ops in terms:
        if len(ops) != num_qubits:
            raise ValueError(f"Pauli string {ops!r} does not act on {num_qubits} qubits")
        m = np.ones((1, 1), dtype=complex)
        for label in ops:
            m = np.kron(m, _PAULI[label])
        h += weight * m
    return h


def ground_energy(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def simulate(circuit, thetas) -> np.ndarray:
    """Final states, shape (B, 2^n), of ``circuit`` at each row of ``thetas`` from |0...0>."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    n = circuit.num_qubits
    dim = 2**n
    batch = thetas.shape[0]
    state = np.zeros((batch, dim), dtype=complex)
    state[:, 0] = 1.0
    index = np.arange(dim)
    for kind, qubits, param, scale in circuit.gates:
        if kind == "CNOT":
            control, target = qubits
            flip = (index >> (n - 1 - control)) & 1
            state = state[:, index ^ (flip << (n - 1 - target))]
        elif kind == "X":
            state = state[:, index ^ (1 << (n - 1 - qubits[0]))]
        elif kind == "RY":
            half = 0.5 * scale * thetas[:, param]
            c, s = np.cos(half), np.sin(half)
            q = qubits[0]
            psi = state.reshape(batch, 2**q, 2, 2 ** (n - q - 1))
            zero, one = psi[:, :, 0, :], psi[:, :, 1, :]
            psi = np.stack(
                (c[:, None, None] * zero - s[:, None, None] * one,
                 s[:, None, None] * zero + c[:, None, None] * one),
                axis=2,
            )
            state = psi.reshape(batch, dim)
        else:
            raise ValueError(f"oracle does not simulate gate kind {kind!r}")
    return state


def energies(circuit, h: np.ndarray, thetas) -> np.ndarray:
    """<psi(theta)|H|psi(theta)> for each row of ``thetas``."""
    states = simulate(circuit, thetas)
    return np.einsum("bi,ij,bj->b", states.conj(), h, states).real


def cost_model(m: float, p: float, s: float) -> dict:
    """Crossovers, threshold and efficiency of the cost model from scipy's special functions.

    n_star = r/ln2 with r = p/s; the crossings of (m n 2^(-n/r))^p = 1 are
    -n_star * W_k(-1/(m n_star)) on branches k = 0 (lower) and k = -1 (upper);
    the threshold is a = ceil(n_upper); and the efficiency
    (1/a) * integral_1^a ratio(n) dn equals
    (m/c)^p * Gamma(p+1) * [Q(p+1, c) - Q(p+1, a c)] / (a c) with c = s ln2,
    where Q is the regularised upper incomplete gamma function.
    """
    from scipy.special import gamma, gammainc, gammaincc, lambertw

    n_star = p / s / math.log(2.0)
    arg = -1.0 / (m * n_star)
    n_lower = float(-n_star * lambertw(arg, 0).real)
    n_upper = float(-n_star * lambertw(arg, -1).real)
    threshold = math.ceil(n_upper)
    c = s * math.log(2.0)
    x0, x1 = c, threshold * c
    # take the difference on the side of the gamma mode that avoids cancellation
    if x1 <= p + 1.0:
        window = gammainc(p + 1.0, x1) - gammainc(p + 1.0, x0)
    else:
        window = gammaincc(p + 1.0, x0) - gammaincc(p + 1.0, x1)
    eff = (m / c) ** p * gamma(p + 1.0) * window / (threshold * c)
    return {"n_lower": n_lower, "n_upper": n_upper, "threshold": threshold, "efficiency": float(eff)}
