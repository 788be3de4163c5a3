"""Parametrized state-preparation circuits with declared frequency bounds.

Each ansatz carries one bandwidth per rotation parameter: an upper bound on
the harmonic content that any expectation-value objective built on it can show
along that axis.  A circuit read from data by :func:`_parse_circuit` derives
it as the sum of |scale| over the rotations of that parameter, the spectrum
bound of Pauli-rotation encodings (Schuld, Sweke & Meyer 2021,
arXiv:2008.08605), and :func:`verify_bandwidth` checks it empirically.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import ObjectiveSpec, evaluate, evaluate_batch
from .observables import ObservableSum
from .regression import _check_bandwidths, _check_integer, _json_object, lattice_axes
from .statevector import Gate, apply_circuit

__all__ = [
    "Ansatz",
    "exact_objective",
    "BandwidthAxisCheck",
    "BandwidthReport",
    "verify_bandwidth",
]

# verify_bandwidth: random slices per axis (one for a one-parameter ansatz) and the seed of their offsets
_SLICES_PER_AXIS = 5
_SLICE_SEED = 202


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
        for name in ("num_qubits", "num_params"):
            object.__setattr__(self, name, _check_integer(getattr(self, name), name, minimum=1))
        object.__setattr__(self, "bandwidths", _check_bandwidths(self.bandwidths))
        if len(self.bandwidths) != self.num_params:
            raise ValueError("need one bandwidth per parameter")
        if len(self.param_names) != self.num_params:
            raise ValueError("need one name per parameter")

    def build(self, theta) -> list[Gate]:
        """The circuit at ``theta``: one point, shape (num_params,), or B points, shape (B, num_params).

        The point array is checked once and ``builder`` runs on each row.  One
        point's circuit is returned as built; for B > 1 the gates are the first
        row's with each rotation's B angles stacked into one array, so that
        :func:`apply_circuit` simulates the B circuits in one pass.  A row
        whose gate layout differs from the first row's raises ``ValueError``.
        """
        theta = np.asarray(theta, dtype=float)
        points = theta.reshape(1, -1) if theta.ndim < 2 else theta
        if points.ndim != 2 or points.shape[1] != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got shape {theta.shape}")
        if len(points) == 0:
            raise ValueError("need at least one parameter point")
        circuits = [self.builder(row) for row in points]
        if len(circuits) == 1:
            return circuits[0]
        layout = [(gate.kind, gate.qubits) for gate in circuits[0]]
        for gates in circuits[1:]:
            if [(gate.kind, gate.qubits) for gate in gates] != layout:
                raise ValueError(f"ansatz {self.name!r}: builder emitted a different gate layout at another point")
        return [
            gate if gate.angle is None else Gate(gate.kind, gate.qubits, np.array([c[i].angle for c in circuits]))
            for i, gate in enumerate(circuits[0])
        ]

    def states(self, points) -> np.ndarray:
        """Amplitudes at each row of ``points`` (shape (B, num_params)), shape (B, 2**num_qubits):
        the B circuits of :meth:`build`, simulated in one :func:`apply_circuit` pass."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must have shape (B, {self.num_params}), got {points.shape}")
        return apply_circuit(self.build(points), self.num_qubits, len(points))


def _parse_circuit(name: str, text: str) -> Ansatz:
    """The ansatz of a circuit document ``{"num_qubits", "params", "gates"}``.

    The document has exactly these keys: ``num_qubits`` an integer, ``params``
    a list of strings that names the parameters, and ``gates`` a list.  A
    gate is ``[kind, qubits]``, or ``[kind, qubits, param, scale]`` for a
    rotation by the nonzero integer ``scale`` times theta[param].  Parameter
    j's bandwidth is the sum of |scale| over its rotations.  The fixed gates
    are built once and shared by every point, and the circuit is simulated
    once at theta = 0, so a bad key, kind, qubit or index raises
    ``ValueError`` here.
    """
    doc = _json_object(text, f"circuit {name!r}", ("num_qubits", "params", "gates"))
    # type() is int, not isinstance: a boolean is an int too, and 2.0 is no JSON integer
    if type(doc["num_qubits"]) is not int:
        raise ValueError(f"circuit {name!r}: 'num_qubits' must be an integer, got {doc['num_qubits']!r}")
    if not isinstance(doc["params"], list) or not all(isinstance(p, str) for p in doc["params"]):
        raise ValueError(f"circuit {name!r}: 'params' must be a list of strings, got {doc['params']!r}")
    if not isinstance(doc["gates"], list):
        raise ValueError(f"circuit {name!r}: 'gates' must be a list, got {doc['gates']!r}")
    names = tuple(doc["params"])
    bandwidths = [0] * len(names)
    steps = []  # (shared fixed gate or None, kind, qubits, param, scale)
    for entry in doc["gates"]:
        if not isinstance(entry, list) or len(entry) not in (2, 4) or not isinstance(entry[1], list):
            raise ValueError(f"circuit {name!r}: a gate is [kind, qubits] or [kind, qubits, param, scale] "
                             f"with a list of qubits, got {entry!r}")
        kind, qubits, *rotation = entry
        qubits = tuple(qubits)
        if not rotation:
            steps.append((Gate(kind, qubits), kind, qubits, None, 0))
            continue
        param, scale = rotation
        if type(param) is not int or not 0 <= param < len(names):
            raise ValueError(f"circuit {name!r}: parameter index must be an integer in [0, {len(names)}), "
                             f"got {param!r}")
        if type(scale) is not int or scale == 0:
            raise ValueError(f"circuit {name!r}: scale must be a nonzero integer, got {scale!r}")
        bandwidths[param] += abs(scale)
        steps.append((None, kind, qubits, param, scale))

    def builder(theta: np.ndarray) -> list[Gate]:
        return [gate if param is None else Gate(kind, qubits, float(scale * theta[param]))
                for gate, kind, qubits, param, scale in steps]

    ansatz = Ansatz(name, doc["num_qubits"], len(names), tuple(bandwidths), names, builder)
    ansatz.states(np.zeros((1, ansatz.num_params)))
    return ansatz


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
) -> BandwidthReport:
    """Empirical check of the declared bandwidth bounds.

    For each axis the exact objective is scanned on a uniform 1-D grid while
    the other parameters sit at random slice values (multidimensional content
    can hide on special slices such as 0, hence 5 random slices, drawn from a
    fixed seed).  The discrete Fourier transform of each scan gives the
    largest harmonic index whose magnitude exceeds ``tolerance`` relative to
    the largest magnitude; the axis passes iff that index stays within the
    declared bound on every slice.  All slices of all axes are evaluated as
    one batched query.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance must be a finite number in (0, 1), got {tolerance!r}")
    grid_points_per_axis = _check_integer(grid_points_per_axis, "grid_points_per_axis", minimum=1)
    max_s = max(ansatz.bandwidths)
    if grid_points_per_axis <= 2 * max_s + 1:
        raise ValueError(
            f"insufficient grid resolution: need > {2 * max_s + 1} points per axis"
        )
    axes = ansatz.num_params
    n_slices = _SLICES_PER_AXIS if axes > 1 else 1
    grid = lattice_axes([grid_points_per_axis])[0]
    # points[a, s, g] sits at slice s's random offsets with axis a replaced by grid value g
    offsets = np.random.default_rng(_SLICE_SEED).uniform(-np.pi, np.pi, size=(axes, n_slices, axes))
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
