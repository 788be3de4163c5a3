import numpy as np
import pytest

from qsreg import ObjectiveSpec, evaluate_batch, exact_spectrum, nelder_mead_minimize
from qsreg.ansatz import exact_objective
from qsreg.cli import load_problem

ORACLE_CHUNK = 65_536


@pytest.fixture(scope="session")
def deuteron1():
    """(ansatz, observable) for the 2-qubit benchmark problem."""
    return load_problem("deuteron-1")


@pytest.fixture(scope="session")
def deuteron2():
    """(ansatz, observable) for the 3-qubit benchmark problem."""
    return load_problem("deuteron-2")


@pytest.fixture(scope="session")
def lam_d1(deuteron1):
    return exact_spectrum(deuteron1[1]).min_eigenvalue


@pytest.fixture(scope="session")
def lam_d2(deuteron2):
    return exact_spectrum(deuteron2[1]).min_eigenvalue


def term_groups(observable):
    """The observable's measurement groups as indices into its ``terms``, in group order."""
    measured = [index for index, (_, pauli) in enumerate(observable.terms) if not pauli.is_identity]
    plan = observable.measurement.plan
    return [tuple(measured[k] for k in positions) for _, positions in plan.groups] if plan else []


def scan_polish_min(ansatz, observable, scan_per_axis=400):
    """Independent oracle: dense grid scan of the exact objective plus a tight
    simplex polish.  Returns (theta_min, value_min)."""
    axes = [np.linspace(-np.pi, np.pi, scan_per_axis, endpoint=False) + np.pi / scan_per_axis
            for _ in range(ansatz.num_params)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    spec = ObjectiveSpec(ansatz, observable)
    # chunked so a fine 2-D grid never holds millions of statevectors at once
    values = np.concatenate([evaluate_batch(spec, points[i:i + ORACLE_CHUNK])
                             for i in range(0, len(points), ORACLE_CHUNK)])
    best = int(np.argmin(values))
    result = nelder_mead_minimize(
        lambda th: exact_objective(ansatz, observable, th),
        points[best],
        max_evals=4000,
        xtol=1e-10,
        ftol=None,
    )
    return result.theta_min, result.value_min
