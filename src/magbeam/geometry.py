"""First-principles mutual inductance of circular coils (double line integral).

A convenience for generating synthetic scenarios; the bundled tabletop
dataset keeps its measured inductance table as the source of truth.
Self-inductance is never computed: at resonance it cancels against the
tuning capacitance and drops out of every working equation.
"""

import math
from dataclasses import dataclass

import numpy as np

MU_0 = 4.0e-7 * math.pi  # vacuum permeability, H/m


@dataclass(frozen=True)
class CoilGeometry:
    """A circular multi-turn loop: center (m), radius (m), turns, axis."""

    center: tuple
    radius: float
    turns: int = 1
    axis: tuple = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.turns < 1:
            raise ValueError("turns must be >= 1")
        ax = np.asarray(self.axis, dtype=float)
        if np.linalg.norm(ax) == 0:
            raise ValueError("axis must be a nonzero vector")


def _frame(axis):
    """Deterministic orthonormal pair perpendicular to the axis."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    ref = np.array([1.0, 0.0, 0.0]) if abs(n[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return e1, e2


def loop_samples(coil: CoilGeometry, n_points: int):
    """Midpoint samples of the loop and the tangent increments dl.

    The angular rule is the periodic trapezoid (= midpoint) rule, which
    converges spectrally for smooth non-singular integrands.
    """
    e1, e2 = _frame(coil.axis)
    theta = (np.arange(n_points) + 0.5) * (2.0 * math.pi / n_points)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    points = np.asarray(coil.center, dtype=float) + coil.radius * (c * e1 + s * e2)
    dl = coil.radius * (2.0 * math.pi / n_points) * (-s * e1 + c * e2)
    return points, dl


def mutual_inductance(coil_a: CoilGeometry, coil_b: CoilGeometry,
                      quadrature_points: int = 256) -> float:
    """Mutual inductance of two non-intersecting circular coils, henries.

    Evaluates the double line integral of dl_a . dl_b / |r_ab| over both
    loops, scaled by mu0/(4 pi) and the turn counts.  The sign follows the
    shared orientation convention (counterclockwise about each coil axis).
    """
    pa, dla = loop_samples(coil_a, quadrature_points)
    pb, dlb = loop_samples(coil_b, quadrature_points)
    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    if float(dist.min()) < 1e-9 * max(coil_a.radius, coil_b.radius):
        raise ValueError("coils coincide or intersect; the integral is singular")
    dots = dla @ dlb.T
    integral = float(np.sum(dots / dist))
    return MU_0 / (4.0 * math.pi) * coil_a.turns * coil_b.turns * integral


def tabletop_layout():
    """Coil geometry matching the bundled tabletop dataset's description.

    Five 10 cm / 250-turn charger coils 10 cm below the surface, four
    2 cm / 50-turn receiver coils on it; returns (tx_coils, rx_coils).
    """
    tx_xy = [(0.7, 0.7), (-0.7, 0.7), (-0.7, -0.7), (0.7, -0.7), (0.0, 0.0)]
    rx_xy = [(0.7, 0.5), (-0.3, 0.6), (-0.2, -0.1), (0.3, -0.3)]
    txs = [CoilGeometry(center=(x, y, 0.0), radius=0.10, turns=250) for x, y in tx_xy]
    rxs = [CoilGeometry(center=(x, y, 0.10), radius=0.02, turns=50) for x, y in rx_xy]
    return txs, rxs


def layout_mutual_matrix(tx_coils, rx_coils, quadrature_points: int = 256) -> np.ndarray:
    """N x Q matrix of pairwise mutual inductances for a coil layout."""
    return np.array([[mutual_inductance(a, b, quadrature_points) for b in rx_coils]
                     for a in tx_coils])

