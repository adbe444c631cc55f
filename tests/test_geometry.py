import math

import numpy as np
import pytest

from magbeam.geometry import (MU_0, CoilGeometry, _frame, layout_mutual_matrix,
                              loop_samples, mutual_inductance, tabletop_layout)
from magbeam.scenario import table_scenario


def _agm_elliptic(m, kp):
    """Complete elliptic integrals K(m), E(m) by the arithmetic-geometric mean,
    given the complementary modulus kp = sqrt(1 - m)."""
    a, b = 1.0, kp
    c2_sum = m / 2.0
    p = 1.0
    while abs(a - b) > 1e-15:
        c = (a - b) / 2.0
        a, b = (a + b) / 2.0, math.sqrt(a * b)
        p *= 2.0
        c2_sum += p * c * c / 2.0
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - c2_sum)


def _moduli(r_b, rho, z):
    """k^2 and k' of a loop of radius r_b seen from (rho, z); k'^2 is taken as
    ((r_b - rho)^2 + z^2) / ((r_b + rho)^2 + z^2), which keeps its digits next
    to the wire, where sqrt(1 - k^2) loses them all."""
    dd = (r_b + rho) ** 2 + z ** 2
    return 4.0 * r_b * rho / dd, math.sqrt(((r_b - rho) ** 2 + z ** 2) / dd)


def coaxial_mutual(r_a, r_b, sep, turns):
    """Exact coaxial-loop mutual inductance via elliptic integrals."""
    m, kp = _moduli(r_b, r_a, sep)
    k = math.sqrt(m)
    kk, ee = _agm_elliptic(m, kp)
    mu0 = 4e-7 * math.pi
    return turns * mu0 * math.sqrt(r_a * r_b) * ((2.0 / k - k) * kk - (2.0 / k) * ee)


def coaxial_mutual_series(r_a, r_b, sep, turns):
    """Coaxial-loop mutual inductance with no cancellation, for the far field.

    (2 - k^2) K - 2 E = (pi k^4 / 16) 2F1(3/2, 3/2; 3; k^2), summed term by
    term; every term is positive.
    """
    m = 4.0 * r_a * r_b / ((r_a + r_b) ** 2 + sep ** 2)
    total, term, n = 0.0, 1.0, 0
    while term > 1e-18 * total:
        total += term
        term *= (1.5 + n) ** 2 / ((3.0 + n) * (n + 1.0)) * m
        n += 1
    mu0 = 4e-7 * math.pi
    return turns * mu0 * math.sqrt(r_a * r_b) * math.pi * m ** 1.5 / 16.0 * total


def pairwise_mutual_matrix(tx_coils, rx_coils, quadrature_points):
    """The integral pair by pair, as a plain double loop: the reference."""
    out = np.empty((len(tx_coils), len(rx_coils)))
    for i, a in enumerate(tx_coils):
        for j, b in enumerate(rx_coils):
            pa, dla = loop_samples(a, quadrature_points)
            pb, dlb = loop_samples(b, quadrature_points)
            # squared distances summed one coordinate at a time, x then y then z
            # as np.sum(axis=2) adds them, with no (q, q, 3) array
            dist = np.zeros((len(pa), len(pb)))
            for c in range(3):
                diff = np.subtract.outer(pa[:, c], pb[:, c])
                diff *= diff
                dist += diff
            np.sqrt(dist, out=dist)
            integral = float(np.sum((dla @ dlb.T) / dist))
            out[i, j] = MU_0 / (4.0 * math.pi) * a.turns * b.turns * integral
    return out


def sampled_mutual(a, b, quadrature_points):
    """``mutual_inductance(a, b, quadrature_points)`` summed sample by sample in
    plain floats, from the textbook vector potential of b,
    A_phi = (mu0 / pi k) sqrt(r_b / rho) ((1 - k^2 / 2) K - E), with k' from
    ``_moduli``."""
    n = np.asarray(b.axis, dtype=float) / np.linalg.norm(b.axis)
    total = 0.0
    for p, dl in zip(*loop_samples(a, quadrature_points)):
        r = p - np.asarray(b.center, dtype=float)
        n_x_r = np.cross(n, r)
        rho = math.sqrt(n_x_r @ n_x_r)
        m, kp = _moduli(b.radius, rho, float(n @ r))
        kk, ee = _agm_elliptic(m, kp)
        a_phi = MU_0 / (math.pi * math.sqrt(m)) * math.sqrt(b.radius / rho) \
            * ((1.0 - m / 2.0) * kk - ee)
        total += a_phi * float(n_x_r @ dl) / rho
    return a.turns * b.turns * total


def inclined_coils(rng, count, z):
    """Coils of mixed radius and turns about random axes near height z."""
    return [CoilGeometry(center=(*rng.uniform(-0.8, 0.8, 2), z + rng.uniform(-0.05, 0.05)),
                         radius=float(rng.uniform(0.01, 0.15)),
                         turns=int(rng.integers(1, 300)),
                         axis=tuple(rng.standard_normal(3)))
            for _ in range(count)]


class TestMutualInductance:
    def test_coaxial_against_elliptic_oracle(self):
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        b = CoilGeometry(center=(0, 0, 0.10), radius=0.02, turns=50)
        got = mutual_inductance(a, b, 256)
        ref = coaxial_mutual(0.10, 0.02, 0.10, 250 * 50)
        assert got == pytest.approx(ref, rel=1e-13, abs=0)

    @pytest.mark.parametrize("ratio", [10.0, 100.0, 1e3, 1e4])
    def test_coaxial_far_field(self, ratio):
        # the naive K - E oracle above is off by x50 at z/a = 1e4
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        b = CoilGeometry(center=(0, 0, 0.10 * ratio), radius=0.02, turns=50)
        ref = coaxial_mutual_series(0.10, 0.02, 0.10 * ratio, 250 * 50)
        assert mutual_inductance(a, b, 64) == pytest.approx(ref, rel=1e-12, abs=0)
        assert mutual_inductance(b, a, 64) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_coaxial_next_to_the_wire(self):
        # equal radii 1e-7 m apart: every sample sits 1e-6 radii from the
        # other coil's wire, where k'^2 is 2.5e-13
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=3)
        b = CoilGeometry(center=(0, 0, 1e-7), radius=0.10, turns=2)
        ref = coaxial_mutual(0.10, 0.10, 1e-7, 3 * 2)
        assert mutual_inductance(a, b, 64) == pytest.approx(ref, rel=1e-12, abs=0)
        assert mutual_inductance(b, a, 64) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_inclined_pair_next_to_the_wire(self):
        # b's axis nu leans from a's radius at its first sample s0 toward a's
        # axis, so s0 is a's extreme point along nu; b's wire runs 1e-7 m
        # beyond s0 (1e-6 radii), parallel to a there, in the plane normal to
        # nu: all of a stays on one side of that plane
        axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        a = CoilGeometry(center=(0.3, -0.2, 0.1), radius=0.05, turns=7, axis=tuple(axis))
        points, dl = loop_samples(a, 64)
        nu = (points[0] - np.asarray(a.center)) / a.radius + 1.5 * axis
        nu /= np.linalg.norm(nu)
        radial = np.cross(nu, dl[0] / np.linalg.norm(dl[0]))   # b's, at its near point
        b = CoilGeometry(center=tuple(points[0] + 1e-7 * nu - 0.1 * radial), radius=0.1,
                         turns=5, axis=tuple(nu))
        ref = sampled_mutual(a, b, 64)
        assert mutual_inductance(a, b, 64) == pytest.approx(ref, rel=1e-12, abs=0)

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
            mutual_inductance(b, a, 128), rel=1e-12, abs=0)

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


class TestCoilGeometry:
    @pytest.mark.parametrize("kwargs", [
        {"radius": math.nan}, {"radius": math.inf}, {"radius": 0.0},
        {"center": (0.0, math.nan, 0.0)}, {"center": (0.0, 0.0, -math.inf)},
        {"center": (0.0, 0.0)}, {"axis": (0.0, math.inf, 1.0)},
        {"axis": (math.nan, 0.0, 1.0)}, {"axis": (0.0, 0.0, 0.0)}, {"axis": (0.0, 1.0)},
        {"turns": 2.5}, {"turns": 0},
    ])
    def test_malformed_coil_rejected(self, kwargs):
        # NaN and infinite sizes gave NaN inductances, turns=2.5 was kept and
        # a 2-component center failed as a NumPy broadcast error
        coil = {"center": (0.0, 0.0, 0.0), "radius": 0.1, "turns": 3, **kwargs}
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CoilGeometry(**coil)


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


class TestLayoutMatrix:
    @pytest.mark.parametrize("q", [32, 64, 128])
    def test_matches_converged_pairwise_loop(self, q):
        rng = np.random.default_rng([q, 3])
        txs = inclined_coils(rng, 5, 0.0)
        rxs = inclined_coils(rng, 4, 0.4)
        ref = pairwise_mutual_matrix(txs, rxs, 2048)
        np.testing.assert_allclose(layout_mutual_matrix(txs, rxs, q), ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(layout_mutual_matrix(rxs, txs, q), ref.T, rtol=1e-12, atol=0)

    def test_pair_is_the_one_by_one_case(self):
        rng = np.random.default_rng(5)
        a, = inclined_coils(rng, 1, 0.0)
        b, = inclined_coils(rng, 1, 0.4)
        assert mutual_inductance(a, b, 64) == layout_mutual_matrix([a], [b], 64)[0, 0]

    def test_frame_is_np_cross(self):
        for axis in [(0, 0, 1), (1, 0, 0), (0.95, 0.1, -0.2), (-0.3, 2.0, 0.7)]:
            n = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
            ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
            e1 = np.cross(n, ref)
            e1 /= np.linalg.norm(e1)
            got = _frame(axis)
            assert np.array_equal(got[0], e1) and np.array_equal(got[1], np.cross(n, e1))

    def test_coincident_pair_inside_a_batch_rejected(self):
        rng = np.random.default_rng(9)
        txs = inclined_coils(rng, 3, 0.0)
        rxs = inclined_coils(rng, 2, 0.4)
        with pytest.raises(ValueError, match="singular"):
            layout_mutual_matrix(txs, [rxs[0], txs[1], rxs[1]], 32)

    def test_empty_layouts_keep_their_shape(self):
        txs, rxs = tabletop_layout()
        assert layout_mutual_matrix([], rxs, 16).shape == (0, 4)
        assert layout_mutual_matrix(txs, [], 16).shape == (5, 0)

    @pytest.mark.parametrize("q", [0, -3, 2.0, 64.5, None])
    def test_quadrature_points_must_be_a_positive_integer(self, q):
        a = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        b = CoilGeometry(center=(0, 0, 0.10), radius=0.02, turns=50)
        with pytest.raises(ValueError, match="quadrature_points"):
            mutual_inductance(a, b, q)
        with pytest.raises(ValueError, match="quadrature_points"):
            layout_mutual_matrix([], [b], q)

    @pytest.mark.parametrize("n_points", [0, -1, 2.5])
    def test_loop_samples_count_must_be_a_positive_integer(self, n_points):
        # 0 divided by zero, -1 gave empty arrays and 2.5 three points
        coil = CoilGeometry(center=(0, 0, 0), radius=0.10, turns=250)
        with pytest.raises(ValueError, match="quadrature_points"):
            loop_samples(coil, n_points)
