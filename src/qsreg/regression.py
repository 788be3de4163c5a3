"""Trigonometric least-squares reconstruction of band-limited periodic objectives.

A function on ]-pi, pi]^n whose harmonic content along axis j is bounded by
S_j lives exactly in the tensor-product basis of {1, cos(k*t), sin(k*t)}
with k <= S_j, of total size T = prod_j (2*S_j + 1).  Sampling it noiselessly
on the T-point uniform lattice determines it completely: one point more per
axis than the strict lower bound 2*S_j.  With noisy samples the least-squares
solve averages the noise, and oversampling the lattice buys precision at the
cost of extra samples.

Basis enumeration order (normative for persistence): dimension-major tensor
products, each dimension ordered [1, cos(1t), sin(1t), cos(2t), sin(2t), ...].
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FourierBasis",
    "SampleSet",
    "FourierModel",
    "wrap_angles",
    "lattice_axes",
    "uniform_lattice",
    "nyquist_lattice",
    "fit_fourier_model",
]

_DOMAIN_SLACK = 1e-9


def _check_points(x, ndim: int | None = None) -> np.ndarray:
    points = np.asarray(x, dtype=float)
    if points.ndim == 1:
        points = points[:, None] if ndim in (None, 1) else points[None, :]
    if points.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
    if ndim is not None and points.shape[1] != ndim:
        raise ValueError(f"points have dimension {points.shape[1]}, expected {ndim}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    return points


def _check_integer(value, name: str, minimum: int) -> int:
    if type(value) is int and value >= minimum:
        return value  # the common case, taken per sample and per call, without the checks below
    # a fractional, non-finite or boolean value would otherwise be truncated by int()
    if (
        isinstance(value, (bool, np.bool_))
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value != int(value)
    ):
        raise ValueError(f"only integers are allowed for {name}, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _check_real(value, name: str, minimum: float) -> float:
    # a boolean or a string would otherwise pass float() as a number
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return float(value)


def _check_bandwidths(bandwidths) -> tuple[int, ...]:
    entries = list(bandwidths) if np.ndim(bandwidths) else [bandwidths]
    if not entries:
        raise ValueError("need at least one bandwidth")
    return tuple(_check_integer(s, "bandwidths", minimum=0) for s in entries)


def wrap_angles(theta) -> np.ndarray:
    """Map finite angles into the half-open torus domain ]-pi, pi]."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not np.isfinite(theta).all():
        raise ValueError("angles must be finite")
    return theta - 2.0 * np.pi * np.ceil((theta - np.pi) / (2.0 * np.pi))


def lattice_axes(counts) -> list[np.ndarray]:
    """Per-axis coordinates of the uniform lattice inside ]-pi, pi].

    Axis j contributes points -pi + 2*pi*(i+1)/M_j for i = 0..M_j-1, so the
    endpoint pi is included and -pi is excluded.
    """
    entries = list(counts) if np.ndim(counts) else [counts]
    counts = [_check_integer(m, "lattice counts", minimum=1) for m in entries]
    return [-np.pi + 2.0 * np.pi * (np.arange(m) + 1) / m for m in counts]


def uniform_lattice(counts) -> np.ndarray:
    """Cartesian product of the :func:`lattice_axes` grids, one point per row.

    Enumeration is dimension-major (axis 0 slowest), matching the basis
    enumeration order.
    """
    axes = lattice_axes(counts)
    # row-major cell indices, one row per axis; cheaper than meshgrid at lattice sizes
    cells = np.indices([len(coords) for coords in axes]).reshape(len(axes), -1)
    return np.stack([coords[i] for coords, i in zip(axes, cells)], axis=-1)


def nyquist_lattice(bandwidths) -> np.ndarray:
    """The minimal uniform lattice for exact reconstruction: 2*S_j+1 per axis."""
    bw = _check_bandwidths(bandwidths)
    return uniform_lattice([2 * s + 1 for s in bw])


@dataclass(frozen=True)
class FourierBasis:
    """Tensor-product sinusoid basis with per-axis bandwidths."""

    bandwidths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bandwidths", _check_bandwidths(self.bandwidths))

    @property
    def ndim(self) -> int:
        return len(self.bandwidths)

    @property
    def size(self) -> int:
        """Total number of basis functions, prod(2*S_j+1)."""
        return int(np.prod([2 * s + 1 for s in self.bandwidths]))

    def _axis_table(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Columns [1, cos(k t), sin(k t), ..., sin(S_j t)] of one axis at ``values``."""
        cols = [np.ones_like(values)]
        for k in range(1, self.bandwidths[axis] + 1):
            cols += [np.cos(k * values), np.sin(k * values)]
        return np.stack(cols, axis=-1)

    def _axis_jet(self, values: np.ndarray, axis: int) -> np.ndarray:
        """The :meth:`_axis_table` columns and their first and second derivatives
        at ``values``, stacked last: shape ``(len(values), 2*S_j+1, 3)``."""
        table = self._axis_table(values, axis)
        k = np.repeat(np.arange(self.bandwidths[axis] + 1), 2)[1:]  # 0, 1, 1, 2, 2, ...
        # (cos kt)' = -k sin kt and (sin kt)' = k cos kt; both second derivatives are -k^2 times
        first = np.zeros_like(table)
        first[:, 1::2] = -k[1::2] * table[:, 2::2]
        first[:, 2::2] = k[2::2] * table[:, 1::2]
        return np.stack([table, first, -(k * k) * table], axis=-1)

    def design_matrix(self, points) -> np.ndarray:
        """Rows = points, columns = basis functions in enumeration order."""
        points = _check_points(points, self.ndim)
        design = np.ones((points.shape[0], 1))
        for axis in range(self.ndim):
            table = self._axis_table(points[:, axis], axis)
            design = np.einsum("pi,pj->pij", design, table).reshape(points.shape[0], -1)
        return design


@dataclass
class SampleSet:
    """Parameter points with measured objective values and their provenance."""

    points: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = _check_points(self.points)
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points and values lengths differ")
        if self.points.shape[0] < 1:
            raise ValueError("need at least one sample")
        lo, hi = self.points.min(initial=0.0), self.points.max(initial=0.0)
        if lo <= -np.pi - _DOMAIN_SLACK or hi > np.pi + _DOMAIN_SLACK:
            raise ValueError("sample points must lie in ]-pi, pi]")

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def ndim(self) -> int:
        return int(self.points.shape[1])


@dataclass
class FourierModel:
    """A fitted trigonometric model: coefficients over a FourierBasis.

    Evaluation is 2*pi-periodic per coordinate.  ``metadata`` records
    provenance (sample count, residual norm, mode, seed, flags).
    """

    bandwidths: tuple[int, ...]
    coefficients: np.ndarray
    metadata: dict = field(default_factory=dict)
    basis: FourierBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bandwidths = _check_bandwidths(self.bandwidths)
        self.basis = FourierBasis(self.bandwidths)
        self.coefficients = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("coefficients must be finite")
        if self.coefficients.size != self.basis.size:
            raise ValueError(
                f"got {self.coefficients.size} coefficients for a basis of size {self.basis.size}"
            )

    @property
    def ndim(self) -> int:
        return len(self.bandwidths)

    def _grid_slabs(self, axes):
        """Model values on the Cartesian product of per-axis coordinates ``axes``,
        one leading-axis coordinate at a time.

        Yields, for each coordinate of axis 0 in order, the flat array of values
        over the remaining axes in lexicographic order.  The coefficients are
        contracted once over axes 1..n-1 into a ``(2*S_0+1) x prod_{j>0} M_j``
        partial, so memory is that partial plus one slab, never the whole grid.
        """
        # move axis 0's coefficient index last so the contraction of axes 1..n-1 leaves it first
        sizes = [2 * s + 1 for s in self.bandwidths]
        partial = np.moveaxis(self.coefficients.reshape(sizes), 0, -1)
        for axis in range(1, self.ndim):
            # contracts axis j's leading coefficient index and appends its points last
            table = self.basis._axis_table(axes[axis], axis)
            partial = partial.reshape(table.shape[1], -1).T @ table.T
        partial = partial.reshape(sizes[0], -1)
        for row in self.basis._axis_table(axes[0], 0):
            yield row @ partial

    def _value_derivatives(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values ``(P,)``, gradients ``(P, n)`` and Hessians ``(P, n, n)`` of the
        model at ``P`` points, from one batched separable contraction with the
        per-axis derivative tables of :meth:`FourierBasis._axis_jet`."""
        points = np.asarray(points, dtype=float)
        count, n = points.shape
        values = np.broadcast_to(self.coefficients, (count, self.coefficients.size))
        for axis in range(n):
            jet = self.basis._axis_jet(points[:, axis], axis)
            # contracts axis j's coefficient index and appends its derivative order last
            values = values.reshape(count, jet.shape[1], -1).transpose(0, 2, 1) @ jet
        values = values.reshape(count, -1)  # index sum_j d_j * 3^(n-1-j), d_j = derivative order
        unit = 3 ** np.arange(n - 1, -1, -1)
        return values[:, 0], values[:, unit], values[:, unit[:, None] + unit[None, :]]

    def evaluate(self, theta) -> float:
        """The model at one point: the one row of :meth:`evaluate_many`."""
        return self.evaluate_many(np.asarray(theta, dtype=float).reshape(1, -1)).item()

    def evaluate_many(self, points) -> np.ndarray:
        return self.basis.design_matrix(points) @ self.coefficients

    def to_dict(self) -> dict:
        return {
            "bandwidths": list(self.bandwidths),
            "coefficients": [float(c) for c in self.coefficients],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FourierModel":
        if set(doc) != {"bandwidths", "coefficients", "metadata"}:
            raise ValueError(
                "model document needs exactly 'bandwidths', 'coefficients', 'metadata'"
            )
        coefficients = doc["coefficients"]
        # np.asarray would read "1" and true as numbers and null as nan
        if not isinstance(coefficients, list) or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool) for c in coefficients
        ):
            raise ValueError("model coefficients must be a list of real numbers")
        return cls(
            bandwidths=doc["bandwidths"],
            coefficients=coefficients,
            metadata=dict(doc["metadata"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FourierModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def fit_fourier_model(samples: SampleSet, basis: FourierBasis) -> FourierModel:
    """Least-squares fit of the sample values in the given basis.

    Among all least-squares minimizers the minimum-norm one is returned, so
    rank deficiency (undersampled lattices, duplicated points) is handled
    without special cases.  The residual norm is recorded in the metadata.
    """
    if samples.ndim != basis.ndim:
        raise ValueError("sample dimension does not match basis dimension")
    design = basis.design_matrix(samples.points)
    # rcond=None applies the cutoff max(rows, cols) * eps * largest_singular_value,
    # which also selects the minimum-norm (kernel-orthogonal) solution.
    coeffs, _, rank, _ = np.linalg.lstsq(design, samples.values, rcond=None)
    metadata = dict(samples.metadata)
    metadata.update(
        sample_count=len(samples),
        residual_norm=float(np.linalg.norm(design @ coeffs - samples.values)),
        rank=int(rank),
        undersampled=bool(metadata.get("undersampled", False)),
    )
    return FourierModel(
        bandwidths=basis.bandwidths,
        coefficients=coeffs,
        metadata=metadata,
    )
