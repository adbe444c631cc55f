import math

import numpy as np
import pytest

from magbeam.geometry import (CoilGeometry, layout_mutual_matrix,
                              loop_samples, mutual_inductance, tabletop_layout)
from magbeam.scenario import table_scenario


def _agm_elliptic(m):
    """Complete elliptic integrals K(m), E(m) by the arithmetic-geometric mean."""
    a, b = 1.0, math.sqrt(1.0 - m)
    c2_sum = m / 2.0
    p = 1.0
    while abs(a - b) > 1e-15:
        c = (a - b) / 2.0
        a, b = (a + b) / 2.0, math.sqrt(a * b)
        p *= 2.0
        c2_sum += p * c * c / 2.0
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - c2_sum)


def coaxial_mutual(r_a, r_b, sep, turns):
    """Exact coaxial-loop mutual inductance via elliptic integrals."""
    m = 4.0 * r_a * r_b / ((r_a + r_b) ** 2 + sep ** 2)
    k = math.sqrt(m)
    kk, ee = _agm_elliptic(m)
    mu0 = 4e-7 * math.pi
    return turns * mu0 * math.sqrt(r_a * r_b) * ((2.0 / k - k) * kk - (2.0 / k) * ee)


class TestMutualInductance:
    def test_coaxial_against_elliptic_oracle(self):
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        b = CoilGeometry(center=(0, 0, 0.10), radius=0.02, turns=50)
        got = mutual_inductance(a, b, 256)
        ref = coaxial_mutual(0.10, 0.02, 0.10, 250 * 50)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_quadrature_convergence(self):
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        b = CoilGeometry(center=(0.2, 0, 0.10), radius=0.02, turns=50)
        coarse = mutual_inductance(a, b, 256)
        fine = mutual_inductance(a, b, 512)
        assert abs(fine - coarse) <= 1e-3 * abs(coarse)

    def test_symmetry(self):
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        b = CoilGeometry(center=(0.3, 0.1, 0.10), radius=0.02, turns=50)
        assert mutual_inductance(a, b, 128) == pytest.approx(
            mutual_inductance(b, a, 128), rel=1e-12)

    def test_decays_with_separation(self):
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        values = [abs(mutual_inductance(
            a, CoilGeometry(center=(0, 0, z), radius=0.02, turns=50), 128))
            for z in (0.3, 0.5, 0.8, 1.3)]
        assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 0.02 * values[0]

    def test_coincident_rejected(self):
        a = CoilGeometry(center=(0, 0, 0), radius=0.05, turns=10)
        with pytest.raises(ValueError):
            mutual_inductance(a, a, 64)

    def test_sample_orientation(self):
        coil = CoilGeometry(center=(0, 0, 0), radius=1.0, turns=1)
        pts, dl = loop_samples(coil, 256)
        # counterclockwise about +z: r x dl points along +z
        cross = np.cross(pts, dl).sum(axis=0)
        assert cross[2] > 0


class TestTabletopLayout:
    def test_matches_bundled_inductance_table(self):
        # the first charger/receiver pair sits 0.2 m off-axis with a 0.1 m
        # vertical gap; the integral lands within the dataset's tolerance
        txs, rxs = tabletop_layout()
        got = abs(mutual_inductance(txs[0], rxs[0], 256))
        assert got == pytest.approx(0.9468e-6, rel=0.25)

    def test_full_matrix_magnitudes(self):
        txs, rxs = tabletop_layout()
        computed = np.abs(layout_mutual_matrix(txs, rxs, 128))
        reference = table_scenario().mutual_tx_rx
        assert np.all(np.abs(computed - reference) <= 0.25 * reference)
