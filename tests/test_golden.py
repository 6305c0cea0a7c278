"""The pinned seed-7 command set, compared with checked-in golden values.

``tools/pinned_digests.py`` holds artifacts byte for byte, on one numpy/BLAS
build only. This test holds their numbers at tolerances instead, so it can
run on any build. ``tests/golden/generate_seed7.py`` wrote the golden file
and documents what each category holds.

Each tolerance is about 30 times the largest drift measured on one machine
(numpy 2.4.6, Python 3.11, x86-64 with AVX-512), rounded up to a power of
ten. The drift was measured against six variants of the same run:

- numpy's AVX-512 loops switched off (``NPY_DISABLE_CPU_FEATURES="X86_V4
  AVX512_ICL AVX512_SPR"``), which changes the last bit of some ``exp`` and
  ``log2`` results, as another numpy build would;
- one BLAS thread and two BLAS threads (no change at all);
- the carrier frequency, the bandwidth or the element spacing raised by one
  ulp.

The JPTA solver turns such last-bit differences into a different phase/delay
bank of nearly the same objective, and the capacities of the stepped beams
move most. The factor of 30 leaves room for builds that round differently
from the ones measured, which were all numpy 2.4.6.
"""

import json

import numpy as np
import pytest

from golden.generate_seed7 import GOLDEN, extract, run_commands

NUM_ANTENNAS = 16

# category -> (tolerance, largest measured drift); capacities and objectives
# relative to the golden value, gains relative to the peak gain N
TOLERANCES = {
    # measured 2.8e-8: sweep_num_antennas 32 antennas, stepped minimum (spacing + 1 ulp)
    "capacity": (1e-6, 2.8e-8),
    # measured 1.6e-9 of N: stepped pattern at 15 deg (every variant that moved)
    "gain": (1e-7, 1.6e-9),
    # measured 2.7e-15: slanted objective (spacing + 1 ulp); the objective
    # sits at a maximum, so a moved bank changes it only to second order
    "objective": (1e-13, 2.7e-15),
    # integers: every variant kept them
    "exact": (0.0, 0.0),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return extract(run_commands(tmp_path_factory.mktemp("seed7")))


def test_golden_covers_every_category(golden, current):
    assert set(golden) == set(current) == set(TOLERANCES)
    for category, values in golden.items():
        assert values, category
        assert sorted(current[category]) == sorted(values), category


@pytest.mark.parametrize("category", sorted(TOLERANCES))
def test_values_match_golden(golden, current, category):
    tol, measured = TOLERANCES[category]
    assert measured <= tol
    labels = sorted(golden[category])
    want = np.array([golden[category][lab] for lab in labels], dtype=float)
    got = np.array([current[category][lab] for lab in labels], dtype=float)
    scale = np.full(want.shape, float(NUM_ANTENNAS)) if category == "gain" else np.abs(want)
    err = np.abs(got - want)
    # relative to the scale, and absolute where the scale is 0; CI shows this line
    drift = float(np.max(err / np.where(scale > 0, scale, 1.0)))
    print(f"golden {category}: max drift {drift:.3g} (tolerance {tol:g}, measured {measured:g})")
    bad = np.flatnonzero(err > tol * scale)
    assert bad.size == 0, [(labels[i], got[i], want[i]) for i in bad[:5]]
