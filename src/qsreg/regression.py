"""Trigonometric least-squares reconstruction of band-limited periodic objectives.

A function on ]-pi, pi]^n whose harmonic content along axis j is bounded by
S_j lives exactly in the tensor-product basis of {1, cos(k*t), sin(k*t)}
with k <= S_j, of total size T = prod_j (2*S_j + 1).  Sampling it noiselessly
on the T-point uniform lattice determines it completely: one point more per
axis than the strict lower bound 2*S_j.  With noisy samples the least-squares
solve averages the noise, and oversampling the lattice buys precision at the
cost of extra samples.

Inside the package a lattice is named by its per-axis counts M: the fit and
the minimiser's scan share one read-only table per axis count and bandwidth
(M_j, S_j), built once by :func:`_lattice_factor`.

Basis enumeration order (normative for persistence): dimension-major tensor
products, each dimension ordered [1, cos(1t), sin(1t), cos(2t), sin(2t), ...].
"""
from __future__ import annotations

import functools
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
# entries of each per-axis table cache: a problem needs a few, so this only bounds what a long-running process keeps
_TABLE_CACHE_SIZE = 64


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


def _json_object(source, what: str, keys, error=ValueError) -> dict:
    """The JSON object ``source``, decoded first when it is text, whose keys are exactly ``keys``;
    else ``error`` names ``what`` and the keys."""
    rule = f"{what} must be a JSON object with keys {', '.join(map(repr, keys))}"
    if isinstance(source, str):
        try:
            source = json.loads(source)
        except json.JSONDecodeError as exc:
            raise error(f"{rule}; it is not JSON: {exc}") from exc
    if not isinstance(source, dict):
        raise error(f"{rule}, got {source!r:.40}")
    missing = ", ".join(repr(key) for key in keys if key not in source)
    unknown = ", ".join(repr(key) for key in source if key not in keys)
    faults = [f"{label} {found}" for label, found in (("missing", missing), ("unknown", unknown)) if found]
    if faults:
        raise error(f"{rule}; {' and '.join(faults)}")
    return source


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
    points = np.empty([len(coords) for coords in axes] + [len(axes)])
    for axis, coords in enumerate(axes):
        # broadcast axis j's coordinates along its own index of the grid
        points[..., axis] = coords.reshape([-1] + [1] * (len(axes) - 1 - axis))
    return points.reshape(-1, len(axes))


def nyquist_lattice(bandwidths) -> np.ndarray:
    """The minimal uniform lattice for exact reconstruction: 2*S_j+1 per axis."""
    bw = _check_bandwidths(bandwidths)
    return uniform_lattice([2 * s + 1 for s in bw])


def _lattice_counts_of(points: np.ndarray) -> list[int] | None:
    """The counts M if ``points`` are exactly ``uniform_lattice(M)``, else None."""
    # distinct values per column; their product bounds the lattice before any is built
    counts = (1 + np.count_nonzero(np.diff(np.sort(points, axis=0), axis=0), axis=0)).tolist()
    if math.prod(counts) != len(points):
        return None
    return counts if np.array_equal(points, uniform_lattice(counts)) else None


def _kron_apply(matrices, vector: np.ndarray) -> np.ndarray:
    """``(matrices[0] kron matrices[1] kron ...) @ vector``, one axis at a time,
    without forming the Kronecker product."""
    result = vector
    for matrix in matrices:
        # contracts the leading axis's input index and appends its output index last
        result = result.reshape(matrix.shape[1], -1).T @ matrix.T
    return result.reshape(-1)


def _axis_table(values: np.ndarray, bandwidth: int) -> np.ndarray:
    """Columns [1, cos(k t), sin(k t), ..., sin(S t)] of one axis of bandwidth S at ``values``."""
    angles = np.multiply.outer(values, np.arange(1, bandwidth + 1))
    table = np.empty((len(values), 2 * bandwidth + 1))
    table[:, 0] = 1.0
    np.cos(angles, out=table[:, 1::2])
    np.sin(angles, out=table[:, 2::2])
    return table


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _lattice_factor(count: int, bandwidth: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(table, pinv, rank)`` of one axis with ``count`` lattice points and this bandwidth, read-only.

    ``table`` is the axis's :func:`_axis_table` on :func:`lattice_axes`, and
    ``pinv`` its pseudo-inverse with lstsq's cutoff, of rank ``rank``.
    """
    table = _axis_table(lattice_axes([count])[0], bandwidth)
    table.flags.writeable = False
    u, singular, vt = np.linalg.svd(table, full_matrices=False)
    # lstsq's cutoff per axis (singular values come sorted, the largest >= 1)
    rank = int(np.count_nonzero(singular > max(table.shape) * np.finfo(float).eps * singular[0]))
    pinv = (vt[:rank].T / singular[:rank]) @ u[:, :rank].T
    pinv.flags.writeable = False
    return table, pinv, rank


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _jet_layout(bandwidths: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Index arrays for :meth:`FourierModel._value_derivatives`, read-only.

    For every basis column of every axis in turn (the :func:`_axis_table`
    columns, concatenated): its axis, its frequency k, whether it is a sine,
    and its first derivative's factor, -k for a cosine (times sin kt) and k
    for a sine (times cos kt).  Then, in the contracted jet, the index of
    each gradient entry and of each Hessian entry.
    """
    ndim = len(bandwidths)
    sizes = [2 * s + 1 for s in bandwidths]
    axis = np.repeat(np.arange(ndim), sizes)
    local = np.arange(sum(sizes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    frequency = (local + 1) // 2
    is_sine = (local > 0) & (local % 2 == 0)
    # the jet index is sum_j d_j * 3^(n-1-j), d_j = the derivative order along axis j
    unit = 3 ** np.arange(ndim - 1, -1, -1)
    layout = axis, frequency, is_sine, np.where(is_sine, frequency, -frequency), unit, unit[:, None] + unit
    for array in layout:
        array.flags.writeable = False
    return layout


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

    def design_matrix(self, points) -> np.ndarray:
        """Rows = points, columns = basis functions in enumeration order."""
        points = _check_points(points, self.ndim)
        design = np.ones((points.shape[0], 1))
        for axis in range(self.ndim):
            table = _axis_table(points[:, axis], self.bandwidths[axis])
            design = np.einsum("pi,pj->pij", design, table).reshape(points.shape[0], -1)
        return design


# eq=False: records compare by identity, where a generated __eq__ would raise on an array field
@dataclass(eq=False)
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
        if not np.isfinite(self.values).all():
            row = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise ValueError(f"sample values must be finite: row {row} is {self.values[row]}")
        lo, hi = self.points.min(initial=0.0), self.points.max(initial=0.0)
        if lo <= -np.pi - _DOMAIN_SLACK or hi > np.pi + _DOMAIN_SLACK:
            raise ValueError("sample points must lie in ]-pi, pi]")

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @property
    def ndim(self) -> int:
        return int(self.points.shape[1])


# eq=False: see SampleSet
@dataclass(eq=False)
class FourierModel:
    """A fitted trigonometric model: coefficients over a FourierBasis.

    Evaluation is 2*pi-periodic per coordinate.  ``metadata`` records
    provenance (sample count, residual norm, mode, seed, flags).
    """

    bandwidths: tuple[int, ...]
    coefficients: np.ndarray
    metadata: dict = field(default_factory=dict)
    basis: FourierBasis = field(init=False, repr=False)

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

    def _grid_partial(self, counts) -> tuple[np.ndarray, np.ndarray]:
        """``(table, partial)`` of ``uniform_lattice(counts)``: its values are
        ``table @ partial``, one row per axis-0 coordinate and one column per
        cell of axes 1..n-1 in lexicographic order.

        ``table`` is axis 0's basis table, ``(M_0, 2*S_0+1)``, and ``partial``
        the coefficients contracted once over axes 1..n-1, ``(2*S_0+1,
        prod_{j>0} M_j)``.  The tables are those of :func:`_lattice_factor`,
        cached per (M_j, S_j) and shared with the fit.
        """
        tables = [_lattice_factor(m, s)[0] for m, s in zip(counts, self.bandwidths)]
        leading = tables[0].shape[1]
        # the identity keeps axis 0's coefficient index, which the contraction leaves first
        partial = _kron_apply([np.eye(leading)] + tables[1:], self.coefficients).reshape(leading, -1)
        return tables[0], partial

    def _value_derivatives(self, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Values ``(P,)``, gradients ``(P, n)`` and Hessians ``(P, n, n)`` of the
        model at ``P`` points, from one batched separable contraction with the
        per-axis tables of the basis columns and their first and second derivatives."""
        points = np.asarray(points, dtype=float)
        axis, k, is_sine, slope, gradient, hessian = _jet_layout(self.bandwidths)
        angles = points[:, axis] * k
        cosine, sine = np.cos(angles), np.sin(angles)
        # (cos kt)' = -k sin kt and (sin kt)' = k cos kt; both second derivatives are -k^2 times
        jet = np.empty(angles.shape + (3,))
        jet[..., 0] = np.where(is_sine, sine, cosine)
        np.multiply(slope, np.where(is_sine, cosine, sine), out=jet[..., 1])
        np.multiply(-(k * k), jet[..., 0], out=jet[..., 2])
        values = self.coefficients[None]  # one row, broadcast over the points by the first product
        start = 0
        for s in self.bandwidths:
            # contracts axis j's coefficient index and appends its derivative order last
            size = 2 * s + 1
            values = values.reshape(len(values), size, -1).swapaxes(1, 2) @ jet[:, start:start + size]
            start += size
        values = values.reshape(len(points), -1)
        return values[:, 0], values[:, gradient], values[:, hessian]

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
    def from_dict(cls, doc) -> "FourierModel":
        """The model of a :meth:`to_dict` document, or of its JSON text."""
        doc = _json_object(doc, "model document", ("bandwidths", "coefficients", "metadata"))
        coefficients = doc["coefficients"]
        # np.asarray would read "1" and true as numbers and null as nan
        if not isinstance(coefficients, list) or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool) for c in coefficients
        ):
            raise ValueError("model coefficients must be a list of real numbers")
        if not isinstance(doc["metadata"], dict):
            raise ValueError(f"model metadata must be a JSON object, got {doc['metadata']!r:.40}")
        return cls(doc["bandwidths"], coefficients, dict(doc["metadata"]))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FourierModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(fh.read())


def fit_fourier_model(samples: SampleSet, basis: FourierBasis) -> FourierModel:
    """Least-squares fit of the sample values in the given basis.

    Among all least-squares minimizers the minimum-norm one is returned, so
    rank deficiency (undersampled lattices, duplicated points) is handled
    without special cases.  When the points are exactly a full
    :func:`uniform_lattice`, the design matrix is the Kronecker product of the
    per-axis tables A_j, and the fit contracts the values with one
    pseudo-inverse pinv A_j per axis (Nakanishi et al. 2020): the same
    minimum-norm solution, of rank prod_j rank A_j, without the design matrix.
    Any other point set is solved by ``lstsq`` on the design matrix.  The
    residual norm and the rank are recorded in the metadata.
    """
    if samples.ndim != basis.ndim:
        raise ValueError("sample dimension does not match basis dimension")
    counts = _lattice_counts_of(samples.points)
    if counts is None:
        design = basis.design_matrix(samples.points)
        # rcond=None applies the cutoff max(rows, cols) * eps * largest_singular_value,
        # which also selects the minimum-norm (kernel-orthogonal) solution.
        coeffs, _, rank, _ = np.linalg.lstsq(design, samples.values, rcond=None)
        fitted = design @ coeffs
    else:
        # axes with equal counts and bandwidths share one cached table, pseudo-inverse and rank
        tables, pinvs, ranks = zip(*(_lattice_factor(m, s) for m, s in zip(counts, basis.bandwidths)))
        coeffs = _kron_apply(pinvs, samples.values)
        fitted = _kron_apply(tables, coeffs)
        rank = math.prod(ranks)
    metadata = dict(samples.metadata)
    metadata.update(
        sample_count=len(samples),
        residual_norm=float(np.linalg.norm(fitted - samples.values)),
        rank=int(rank),
        undersampled=bool(metadata.get("undersampled", False)),
    )
    return FourierModel(
        bandwidths=basis.bandwidths,
        coefficients=coeffs,
        metadata=metadata,
    )
