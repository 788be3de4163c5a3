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
from .regression import _check_bandwidths, lattice_axes
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
        state = apply_circuit(batch, self.num_qubits)
        # a circuit without rotations is the same at every point
        return state if state.ndim == 2 else np.tile(state, (len(circuits), 1))

    def state(self, theta) -> np.ndarray:
        return self.states(np.atleast_1d(np.asarray(theta, dtype=float))[None])[0]


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
    slice.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be a finite number in (0, 1), got {tolerance!r}")
    if slices_per_axis < 1:
        raise ValueError(f"need at least one slice per axis, got {slices_per_axis}")
    max_s = max(ansatz.bandwidths)
    if grid_points_per_axis <= 2 * max_s + 1:
        raise ValueError(
            f"insufficient grid resolution: need > {2 * max_s + 1} points per axis"
        )
    spec = ObjectiveSpec(ansatz, observable)
    rng = np.random.default_rng(seed)
    grid = lattice_axes([grid_points_per_axis])[0]

    checks = []
    for axis in range(ansatz.num_params):
        n_slices = slices_per_axis if ansatz.num_params > 1 else 1
        slice_maxima = []
        for _ in range(n_slices):
            points = np.tile(rng.uniform(-np.pi, np.pi, size=ansatz.num_params), (grid.size, 1))
            points[:, axis] = grid
            values = evaluate_batch(spec, points)
            amplitudes = np.abs(np.fft.rfft(values)) / grid_points_per_axis
            top = float(amplitudes.max())
            if top == 0.0:
                slice_maxima.append(0)
                continue
            above = np.nonzero(amplitudes > tolerance * top)[0]
            slice_maxima.append(int(above.max()) if above.size else 0)
        observed = max(slice_maxima)
        checks.append(
            BandwidthAxisCheck(
                axis=axis,
                name=ansatz.param_names[axis],
                declared=ansatz.bandwidths[axis],
                observed=observed,
                passed=observed <= ansatz.bandwidths[axis],
                slice_max_harmonics=tuple(slice_maxima),
            )
        )
    return BandwidthReport(checks=tuple(checks))
