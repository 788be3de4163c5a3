"""Parametrized state-preparation circuits with declared frequency bounds.

Each ansatz carries one bandwidth annotation per rotation parameter: an upper
bound on the harmonic content that any expectation-value objective built on it
can show along that axis.  The bound is a property of the circuit topology
(how rotations re-interfere through entangling gates), so it is annotated by
hand and checked empirically by :func:`verify_bandwidth`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import ObjectiveSpec, evaluate, evaluate_batch
from .observables import ObservableSum
from .regression import _check_bandwidths, _check_integer, lattice_axes
from .statevector import Gate, apply_circuit

__all__ = [
    "Ansatz",
    "deuteron_ansatz_1",
    "deuteron_ansatz_2",
    "exact_objective",
    "BandwidthAxisCheck",
    "BandwidthReport",
    "verify_bandwidth",
]


@dataclass(frozen=True)
class Ansatz:
    """A gate-sequence builder plus per-parameter bandwidth bounds.

    ``builder`` must depend on theta only through gate angles: the gate count,
    kinds and wiring (the gate layout) are theta-independent, and
    :meth:`states` raises ``ValueError`` when they are not.  Parameters live on
    the torus ]-pi, pi]^n and every objective built on the ansatz is
    2*pi-periodic per parameter.
    """

    name: str
    num_qubits: int
    num_params: int
    bandwidths: tuple[int, ...]
    param_names: tuple[str, ...]
    builder: Callable[[np.ndarray], list[Gate]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bandwidths", _check_bandwidths(self.bandwidths))
        if len(self.bandwidths) != self.num_params:
            raise ValueError("need one bandwidth per parameter")
        if len(self.param_names) != self.num_params:
            raise ValueError("need one name per parameter")

    def build(self, theta) -> list[Gate]:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got shape {theta.shape}")
        return self.builder(theta)

    def states(self, points) -> np.ndarray:
        """Amplitudes at each row of ``points`` (shape (B, num_params)), shape (B, 2**num_qubits).

        ``builder`` runs once per point; each rotation's B angles are then
        stacked into one array, so the B circuits are simulated in one
        :func:`apply_circuit` pass.
        """
        circuits = [self.build(theta) for theta in np.asarray(points, dtype=float)]
        if not circuits:
            raise ValueError("need at least one parameter point")
        layout = [(gate.kind, gate.qubits) for gate in circuits[0]]
        for gates in circuits[1:]:
            if [(gate.kind, gate.qubits) for gate in gates] != layout:
                raise ValueError(f"ansatz {self.name!r}: builder emitted a different gate layout at another point")
        batch = [
            gate if gate.angle is None else Gate(gate.kind, gate.qubits, np.array([c[i].angle for c in circuits]))
            for i, gate in enumerate(circuits[0])
        ]
        return apply_circuit(batch, self.num_qubits, len(circuits))


def deuteron_ansatz_1() -> Ansatz:
    """Two-qubit, one-parameter circuit for the 2-qubit deuteron benchmark.

    X on qubit 0 prepares the reference state |10>; RY(theta) on qubit 1
    followed by CNOT(1 -> 0) sweeps cos(theta/2)|10> + sin(theta/2)|01>.
    The single rotation never re-interferes with itself, so the objective
    carries the fundamental frequency only: S = 1.
    """

    def builder(theta: np.ndarray) -> list[Gate]:
        return [Gate("X", (0,)), Gate("RY", (1,), float(theta[0])), Gate("CNOT", (1, 0))]

    return Ansatz(
        name="deuteron-1",
        num_qubits=2,
        num_params=1,
        bandwidths=(1,),
        param_names=("theta",),
        builder=builder,
    )


def deuteron_ansatz_2() -> Ansatz:
    """Three-qubit, two-parameter circuit for the 3-qubit deuteron benchmark.

    The theta rotation on qubit 2 propagates to qubit 1 through qubit 0 via
    two CNOTs; the independent eta rotation on qubit 1 is partially reversed
    after that influence arrives, which doubles its frequency bound.  Final
    state: cos(eta)cos(theta/2)|100> + sin(eta)cos(theta/2)|010>
    + sin(theta/2)|001>, hence bandwidths S_theta = 1, S_eta = 2.
    """

    def builder(theta: np.ndarray) -> list[Gate]:
        th, eta = float(theta[0]), float(theta[1])
        return [
            Gate("X", (0,)),
            Gate("RY", (1,), eta),
            Gate("RY", (2,), th),
            Gate("CNOT", (2, 0)),
            Gate("CNOT", (0, 1)),
            Gate("RY", (1,), -eta),
            Gate("CNOT", (0, 1)),
            Gate("CNOT", (1, 0)),
        ]

    return Ansatz(
        name="deuteron-2",
        num_qubits=3,
        num_params=2,
        bandwidths=(1, 2),
        param_names=("theta", "eta"),
        builder=builder,
    )


def exact_objective(ansatz: Ansatz, observable: ObservableSum, theta) -> float:
    """Noiseless weighted expectation value at ``theta`` (no accounting)."""
    return evaluate(ObjectiveSpec(ansatz, observable), theta)


@dataclass(frozen=True)
class BandwidthAxisCheck:
    """Observed harmonic content along one parameter axis."""

    axis: int
    name: str
    declared: int
    observed: int
    passed: bool
    slice_max_harmonics: tuple[int, ...]


@dataclass(frozen=True)
class BandwidthReport:
    checks: tuple[BandwidthAxisCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failing_axes(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def observed_bandwidths(self) -> tuple[int, ...]:
        return tuple(c.observed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(
                f"axis {c.axis} ({c.name}): declared <= {c.declared}, "
                f"observed max harmonic {c.observed} [{status}]"
            )
        return lines


def verify_bandwidth(
    ansatz: Ansatz,
    observable: ObservableSum,
    grid_points_per_axis: int = 64,
    tolerance: float = 1e-8,
    slices_per_axis: int = 5,
    seed: int = 202,
) -> BandwidthReport:
    """Empirical check of the declared bandwidth bounds.

    For each axis the exact objective is scanned on a uniform 1-D grid while
    the other parameters sit at random slice values (multidimensional content
    can hide on special slices such as 0, hence several random slices).  The
    discrete Fourier transform of each scan gives the largest harmonic index
    whose magnitude exceeds ``tolerance`` relative to the largest magnitude;
    the axis passes iff that index stays within the declared bound on every
    slice.  All slices of all axes are evaluated as one batched query.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be a finite number in (0, 1), got {tolerance!r}")
    grid_points_per_axis = _check_integer(grid_points_per_axis, "grid_points_per_axis", minimum=1)
    slices_per_axis = _check_integer(slices_per_axis, "slices_per_axis", minimum=1)
    seed = _check_integer(seed, "seed", minimum=0)
    max_s = max(ansatz.bandwidths)
    if grid_points_per_axis <= 2 * max_s + 1:
        raise ValueError(
            f"insufficient grid resolution: need > {2 * max_s + 1} points per axis"
        )
    axes = ansatz.num_params
    n_slices = slices_per_axis if axes > 1 else 1
    grid = lattice_axes([grid_points_per_axis])[0]
    # points[a, s, g] sits at slice s's random offsets with axis a replaced by grid value g
    offsets = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(axes, n_slices, axes))
    points = np.repeat(offsets[:, :, None, :], grid.size, axis=2)
    for axis in range(axes):
        points[axis, :, :, axis] = grid
    values = evaluate_batch(ObjectiveSpec(ansatz, observable), points.reshape(-1, axes))
    amplitudes = np.abs(np.fft.rfft(values.reshape(axes, n_slices, grid.size), axis=-1)) / grid_points_per_axis
    # highest harmonic above tolerance * the slice's largest amplitude; a flat (all-zero) slice gives 0
    above = amplitudes > tolerance * amplitudes.max(axis=-1, keepdims=True)
    slice_maxima = np.where(above.any(axis=-1), above.shape[-1] - 1 - np.argmax(above[..., ::-1], axis=-1), 0)

    observed = slice_maxima.max(axis=1)
    return BandwidthReport(checks=tuple(
        BandwidthAxisCheck(
            axis=axis,
            name=ansatz.param_names[axis],
            declared=declared,
            observed=int(observed[axis]),
            passed=bool(observed[axis] <= declared),
            slice_max_harmonics=tuple(int(m) for m in slice_maxima[axis]),
        )
        for axis, declared in enumerate(ansatz.bandwidths)
    ))
