"""The simulation engine's outputs, pinned as literals recorded before its kernels were rebuilt.

Objective values are ``float.hex`` strings.  Amplitudes and expectations of
the random circuits are pinned by digest: a SHA-256 of the values'
``float.hex`` after ``+ 0.0``, which maps -0.0 to 0.0, so two results share a
digest exactly when they compare ``==`` element by element.  Sampled values
are integers over ``shots``, so their numerators are pinned.

``sin``, ``cos`` and complex ``exp`` are not correctly rounded on every
platform, and one ulp there moves every later digit.  The literals hold on
platforms whose transcendentals give ``_PLATFORM_DIGEST`` at the angles used
here; elsewhere the tests skip and say why.
"""
import hashlib

import numpy as np
import pytest

from qsreg import Gate, ObjectiveSpec, PauliString, evaluate_batch
from qsreg.cli import load_problem
from qsreg.statevector import apply_circuit, child_seed, exact_expectation, sampled_expectation

SHOTS = 1000

_POINTS = {
    "deuteron-1": np.array([[0.0], [0.7], [-2.1], [3.0]]),
    "deuteron-2": np.array([[0.0, 0.0], [0.3, -1.2], [2.5, 0.4], [-3.0, 2.9]]),
}

_KINDS = ("H", "X", "Y", "Z", "RX", "RY", "RZ", "CNOT")


def _digest(values) -> str:
    values = np.asarray(values)
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    text = "".join(float(v).hex() for part in parts for v in np.ravel(part + 0.0))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _circuit(index: int, batch: int):
    """Circuit ``index`` of the pinned set on its n = 1 + index % 4 qubits: every gate kind, then 10 more."""
    rng = np.random.default_rng([2024, index, batch])
    n = 1 + index % 4
    kinds = [kind for kind in _KINDS if n > 1 or kind != "CNOT"]
    gates = []
    for kind in list(rng.permutation(kinds)) + list(rng.choice(kinds, size=10)):
        if kind == "CNOT":
            control, target = rng.choice(n, size=2, replace=False)
            gates.append(Gate("CNOT", (int(control), int(target))))
        elif kind.startswith("R"):
            angle = float(rng.uniform(-7, 7)) if rng.random() < 0.5 else rng.uniform(-7, 7, batch)
            gates.append(Gate(str(kind), (int(rng.integers(n)),), angle))
        else:
            gates.append(Gate(str(kind), (int(rng.integers(n)),)))
    # three strings that share one random product basis, so they commute qubit-wise
    basis = rng.choice(list("XYZ"), size=n)
    strings = tuple(
        PauliString("".join(np.where(rng.random(n) < 0.6, basis, "I"))) for _ in range(3)
    )
    return n, gates, strings


def _platform_digest() -> str:
    halves = [0.5 * np.ravel(points) for points in _POINTS.values()]
    for index in range(20):
        for batch in (1, 7):
            halves += [0.5 * np.ravel(gate.angle) for gate in _circuit(index, batch)[1] if gate.angle is not None]
    half = np.concatenate(halves)
    return _digest([np.cos(half), np.sin(half), np.exp(-1j * half).real, np.exp(-1j * half).imag,
                    np.exp(1j * half).real, np.exp(1j * half).imag])


_PLATFORM_DIGEST = "03d2e8bbeb7c6a20"

pytestmark = pytest.mark.skipif(
    _platform_digest() != _PLATFORM_DIGEST,
    reason="sin, cos or complex exp round differently here from where the literals were recorded",
)

# evaluate_batch at _POINTS: exact mode (the same for every seed) and 1,000 shots with seeds 0-2
EXPECTED_VALUES = {
    ("deuteron-1", "exact"): [
        "-0x1.bf0f5a1016ce0p-2", "-0x1.b4d7b2180ec9cp+0",
        "0x1.99e6125d25dccp+3", "0x1.729c69a1ea7e6p+3",
    ],
    ("deuteron-1", "shots", 0): [
        "-0x1.d9659a6c30070p-2", "-0x1.c1c1c1000ff04p+0",
        "0x1.9970020a601a0p+3", "0x1.7204d3fa3d9e4p+3",
    ],
    ("deuteron-1", "shots", 1): [
        "-0x1.d09e2fa2d2490p-2", "-0x1.b0a51bfb2aa5cp+0",
        "0x1.9cf75ab52d48ep+3", "0x1.749af1f4e0a36p+3",
    ],
    ("deuteron-1", "shots", 2): [
        "-0x1.74704e607a020p-2", "-0x1.a7664f7b79848p+0",
        "0x1.9655b5088ae90p+3", "0x1.71225181b0776p+3",
    ],
    ("deuteron-2", "exact"): [
        "-0x1.bf0f5a1016d00p-2", "0x1.f873eb710d246p+3",
        "0x1.eb5586fa7be3ep+3", "0x1.36de8778dbdedp+4",
    ],
    ("deuteron-2", "shots", 0): [
        "-0x1.575bc9bb86900p-1", "0x1.f90d93bb4d0c7p+3",
        "0x1.e1e275c20a375p+3", "0x1.37cef56ee0102p+4",
    ],
    ("deuteron-2", "shots", 1): [
        "-0x1.7a5fdd0a5ca60p-1", "0x1.00ef586bb81b2p+4",
        "0x1.ebf8a1951934ep+3", "0x1.3dbf0e90bc7b4p+4",
    ],
    ("deuteron-2", "shots", 2): [
        "-0x1.1153a31dda660p-1", "0x1.ea4c9ccbd327bp+3",
        "0x1.da8cd9f633ac0p+3", "0x1.34149b5cdfa16p+4",
    ],
}

# (circuit index, batch size): digests of amplitudes and exact expectations, sampled numerators
EXPECTED_CIRCUITS = {
    (0, 1): ("7fc060def523f0d6", "bf5d7a6344a016a7", [[1000, 1000, -126]]),
    (0, 7): ("9d623de54403366f", "2200fa649dbb1570", [
        [-870, 1000, -844], [-248, 1000, -244], [856, 1000, 850], [370, 1000, 394], [-436, 1000, -480],
        [222, 1000, 248], [964, 1000, 956],
    ]),
    (1, 1): ("bb22e84d8f805366", "04595664cdd0667a", [[-44, 0, 0]]),
    (1, 7): ("2c7cec417d62fe75", "e9bef61fa4d18dfe", [
        [-758, 1000, 350], [-746, 1000, -670], [-142, 1000, -242], [28, 1000, 10], [-658, 1000, 522],
        [132, 1000, 314], [808, 1000, -664],
    ]),
    (2, 1): ("31384cb788081de5", "f6f3f0aa106b6367", [[464, 1000, 58]]),
    (2, 7): ("ebe5db500b237d94", "63bc9954c5fc09bb", [
        [-10, -4, 148], [40, -28, 490], [-36, -34, -204], [14, -42, 506], [-16, -10, 536], [20, 78, 348],
        [46, -12, 524],
    ]),
    (3, 1): ("aab46d62d0d2e610", "dbb77c9c6b602b8d", [[-622, -604, 834]]),
    (3, 7): ("5740ee958ddf61be", "32ab6b1c70614dc7", [
        [0, -36, -16], [32, 0, 12], [-26, 0, -20], [12, -2, 26], [-52, 36, -30], [-32, 24, 4], [-22, -44, 8],
    ]),
    (4, 1): ("4290b87659644c21", "66769eacb892aa8b", [[96, -84, -12]]),
    (4, 7): ("f48d075875fc91ce", "81a12b37c82690d4", [
        [730, 800, 758], [-728, -738, -730], [970, 968, 980], [-658, -632, -610], [-866, -886, -862],
        [586, 546, 592], [-970, -974, -976],
    ]),
    (5, 1): ("3d75da3bc1fef066", "2dc9d2266842c204", [[162, -208, 188]]),
    (5, 7): ("5e836cc59cf49088", "7a714f19970d8962", [
        [-30, 1000, 12], [2, 1000, -8], [-10, 1000, -26], [-24, 1000, 16], [0, 1000, 46], [-42, 1000, -14],
        [-18, 1000, -24],
    ]),
    (6, 1): ("51a236dd853f8b84", "40e06af7142a6dac", [[2, 1000, 8]]),
    (6, 7): ("cf77107f82ad1de9", "a190b6ea55b1d50f", [
        [324, 2, -62], [84, 28, 0], [-76, 24, -36], [-144, 38, 42], [-188, 18, 8], [202, 26, 42],
        [-38, 2, -56],
    ]),
    (7, 1): ("e83ee8f666c0ad6f", "ce5e9e96044f98a1", [[38, -186, -32]]),
    (7, 7): ("82cce85da029b312", "4f20b91671700e1e", [
        [-32, 194, -34], [-54, -446, -22], [56, 16, 10], [-26, 166, -42], [-10, -408, 28], [-48, 186, -2],
        [-6, 14, -40],
    ]),
    (8, 1): ("5da3fc5b01d5abd2", "deb6d32ed2ecd612", [[1000, 1000, 126]]),
    (8, 7): ("2e3f0435739a7750", "a165e02471219450", [
        [842, 836, 802], [726, 732, 704], [-860, -862, -882], [580, 610, 624], [-708, -730, -726],
        [230, 140, 164], [-46, -46, -130],
    ]),
    (9, 1): ("bf9f9160a84443c7", "81e82d1a0468875e", [[1000, 108, 1000]]),
    (9, 7): ("1b2a99ea4e69694b", "ebdb0d42250af4fe", [
        [96, -16, 78], [102, 18, 90], [-556, -16, -528], [756, -36, 676], [88, 16, 62], [-854, -22, -848],
        [-684, 8, -690],
    ]),
    (10, 1): ("d3b634d8c16e77fd", "bb2f06e71059bc7b", [[32, 14, -2]]),
    (10, 7): ("5f840cb2a1b02a3d", "7bc6954f6fbda709", [
        [-658, -638, -588], [316, 292, 306], [506, 516, 460], [366, 352, 374], [748, 764, 752],
        [242, 172, 206], [-630, -578, -602],
    ]),
    (11, 1): ("e52d9768453b3ee6", "d81bf9f02754e10e", [[106, -6, 126]]),
    (11, 7): ("804c7a0730f13a2b", "bceba36bb6925c47", [
        [-4, 452, 228], [-28, 452, 868], [0, 422, -922], [8, 494, -372], [12, 418, -938], [-18, 502, -784],
        [-42, 444, -692],
    ]),
    (12, 1): ("1ac9d10cbca137f8", "554727bae0842831", [[1000, -70, -58]]),
    (12, 7): ("d378b05cd731ffa4", "eede88f996431976", [
        [1000, 1000, 1000], [1000, 1000, 1000], [1000, 1000, 1000], [1000, 1000, 1000], [1000, 1000, 1000],
        [1000, 1000, 1000], [1000, 1000, 1000],
    ]),
    (13, 1): ("6cf1adb2e45ee79f", "746910f8119bd66d", [[-656, -708, 26]]),
    (13, 7): ("f6f6656cb1b06203", "351bc30b073659cd", [
        [182, -96, -42], [-22, 224, 124], [-136, 76, 86], [54, 56, 80], [26, -80, -4], [-170, -76, -50],
        [-288, -158, -126],
    ]),
    (14, 1): ("335a1686b6e51f3b", "bc88cc197ff8558b", [[22, -182, 8]]),
    (14, 7): ("e328e910801060df", "187363e02429f57d", [
        [148, 120, 176], [-564, 76, 160], [-138, 10, 158], [868, -4, 236], [-614, -36, 148], [756, 56, 102],
        [56, 82, 200],
    ]),
    (15, 1): ("3a076076af5dffc2", "f0481ded5a6f3390", [[-58, 36, 34]]),
    (15, 7): ("edd371a72c4348a2", "c063c66260c64996", [
        [52, -30, 396], [14, -52, -64], [-60, -12, -226], [16, -42, 306], [64, -12, 650], [-82, 42, 66],
        [-14, -8, -368],
    ]),
    (16, 1): ("54e24efd0703f991", "5990071739fa829c", [[1000, -684, 1000]]),
    (16, 7): ("ecc7616d24a414da", "ea4263fa09546f44", [
        [838, 1000, 830], [-38, 1000, -20], [-432, 1000, -374], [912, 1000, 898], [-968, 1000, -980],
        [-518, 1000, -586], [-88, 1000, -74],
    ]),
    (17, 1): ("370e62a8c6c7f63f", "6649f0ad772a4b42", [[-72, 0, 866]]),
    (17, 7): ("513f0956ac75cc5a", "019b02b58428096a", [
        [-108, -584, -562], [318, -576, -580], [-300, -586, -542], [454, -564, -586], [-12, -520, -582],
        [346, -524, -612], [-30, -582, -582],
    ]),
    (18, 1): ("4b192e35bfaaaa34", "d0b7fe191335e798", [[16, 726, -396]]),
    (18, 7): ("18e1ab4d2243b2a6", "8e0ae225bd56a10b", [
        [-28, -18, -4], [6, 2, 22], [24, -28, -20], [0, 58, 4], [-40, -58, 0], [-48, -22, -24],
        [26, -34, -6],
    ]),
    (19, 1): ("4dc573ff37f411e8", "9865399150fda5e5", [[6, 6, 22]]),
    (19, 7): ("b4b2fb949867bd31", "edf80f622a0c9552", [
        [-522, -682, -18], [100, 676, -50], [-48, -230, -54], [-220, -824, 2], [-206, -416, -18],
        [14, 250, 4], [2, 804, 28],
    ]),
}


@pytest.mark.parametrize("problem", sorted(_POINTS))
@pytest.mark.parametrize("mode", ["exact", "shots"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_objective_values_are_the_recorded_ones(problem, mode, seed):
    ansatz, observable = load_problem(problem)
    spec = ObjectiveSpec(ansatz, observable, mode, shots=SHOTS if mode == "shots" else None, seed=seed)
    values = evaluate_batch(spec, _POINTS[problem])
    key = (problem, "exact") if mode == "exact" else (problem, "shots", seed)
    assert [float(v).hex() for v in values] == EXPECTED_VALUES[key]


@pytest.mark.parametrize("index", range(20))
@pytest.mark.parametrize("batch", [1, 7])
def test_random_circuit_outputs_are_the_recorded_ones(index, batch):
    n, gates, strings = _circuit(index, batch)
    states = apply_circuit(gates, n, batch)
    generators = [np.random.default_rng(child_seed(index, row)) for row in range(batch)]
    sampled = sampled_expectation(states, strings, SHOTS, generators)
    amplitudes, exact, numerators = EXPECTED_CIRCUITS[index, batch]
    assert _digest(states) == amplitudes
    assert _digest(exact_expectation(states, strings)) == exact
    assert np.array_equal(sampled, np.array(numerators) / SHOTS)
