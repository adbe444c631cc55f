"""First-principles mutual inductance of circular coils (double line integral).

A convenience for generating synthetic scenarios; the bundled tabletop
dataset keeps its measured inductance table as the source of truth.
Self-inductance is never computed: at resonance it cancels against the
tuning capacitance and drops out of every working equation.

``layout_mutual_matrix`` is the one implementation of the integral and
``mutual_inductance`` its 1 x 1 case.  It takes one TX coil at a time against
all Q RX coils in two reused (Q, q, q) float64 buffers, 0.5 MB each at Q = 4,
q = 128, so memory is bounded by one TX row whatever N is.  Its arithmetic is
the earlier per-pair loop's, in the same order, so every inductance is
bit-identical to it; that loop re-sampled both coils per pair and formed a
strided (q, q, 3) difference array.  Per pair, 16 chargers against 4
receivers on a 2-vCPU Xeon VM (medians of 15 in-process runs), in us:

    q                           128    256
    earlier, per pair          1288   4552
    one pair (Q = 1)            319   1023
    row of Q = 4 receivers      188    804
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
    e1 = _cross(n, (1.0, 0.0, 0.0) if abs(n[0]) <= 0.9 else (0.0, 1.0, 0.0))
    e1 /= np.linalg.norm(e1)
    return e1, _cross(n, e1)


def _cross(a, b):
    """``np.cross`` of two 3-vectors, same formula, without its per-call set-up."""
    a0, a1, a2 = (float(v) for v in a)
    b0, b1, b2 = (float(v) for v in b)
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def loop_samples(coil: CoilGeometry, n_points: int):
    """Midpoint samples of the loop and the tangent increments dl.

    The angular rule is the periodic trapezoid (= midpoint) rule, which
    converges spectrally for smooth non-singular integrands.  ``n_points``,
    the layout's ``quadrature_points``, must be an integer >= 1, or
    ``ValueError`` is raised.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 1:
        raise ValueError(f"quadrature_points must be an integer >= 1, got {n_points!r}")
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
    This is the 1 x 1 case of ``layout_mutual_matrix``.
    """
    return float(layout_mutual_matrix([coil_a], [coil_b], quadrature_points)[0, 0])


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
    """N x Q matrix of pairwise mutual inductances for a coil layout.

    Each coil is sampled once.  One TX coil at a time meets all Q RX coils:
    the squared x, y and z sample differences are added in that order into
    a (Q, q, q) buffer of distances, the dl . dl products come from one
    batched matmul into a second one, and each pair's q x q block of their
    ratio is summed contiguously.  A pair whose samples (nearly) touch raises
    ``ValueError`` before anything is divided.
    """
    q = quadrature_points
    tx_coils, rx_coils = list(tx_coils), list(rx_coils)
    tx = [loop_samples(coil, q) for coil in tx_coils]
    rx = [loop_samples(coil, q) for coil in rx_coils]
    n_rx = len(rx_coils)
    out = np.empty((len(tx_coils), n_rx))
    if out.size == 0:
        return out
    pb = np.stack([points for points, _ in rx])[:, None]          # (Q, 1, q, 3)
    dlb_t = np.stack([dl for _, dl in rx]).transpose(0, 2, 1)     # (Q, 3, q)
    rx_radius = np.array([coil.radius for coil in rx_coils])
    rx_turns = np.array([coil.turns for coil in rx_coils], dtype=float)
    dist = np.empty((n_rx, q, q))
    work = np.empty_like(dist)
    for i, (coil, (pa, dla)) in enumerate(zip(tx_coils, tx)):
        for k in range(3):
            np.subtract(pa[:, None, k], pb[..., k], out=work)
            if k == 0:
                np.multiply(work, work, out=dist)
            else:
                np.multiply(work, work, out=work)
                np.add(dist, work, out=dist)
        np.sqrt(dist, out=dist)
        closest = dist.reshape(n_rx, -1).min(axis=1)
        if np.any(closest < 1e-9 * np.maximum(coil.radius, rx_radius)):
            raise ValueError("coils coincide or intersect; the integral is singular")
        np.matmul(dla, dlb_t, out=work)
        np.divide(work, dist, out=work)
        integral = work.reshape(n_rx, -1).sum(axis=1)
        out[i] = MU_0 / (4.0 * math.pi) * coil.turns * rx_turns * integral
    return out
