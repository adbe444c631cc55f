"""First-principles mutual inductance of circular coils.

A convenience for generating synthetic scenarios; the bundled tabletop
dataset keeps its measured inductance table as the source of truth.
Self-inductance is never computed: at resonance it cancels against the
tuning capacitance and drops out of every working equation.

``layout_mutual_matrix`` is the one implementation and ``mutual_inductance``
its 1 x 1 case.  Neumann's double line integral over both loops becomes a
single one: a circular loop's vector potential has a closed form in complete
elliptic integrals (W. R. Smythe, *Static and Dynamic Electricity*, sec. 7.10),
and the mutual inductance is its line integral around the other loop
(S. Babic et al., "Mutual inductance calculation between circular filaments
arbitrarily positioned in space", IEEE Trans. Magn., 2010).  A pair costs q
samples of one coil instead of q^2 sample pairs; the elliptic factor is exact
to rounding, so the only approximation is the periodic trapezoid rule around
the sampled coil.  Coils that coincide or intersect are refused: a sample
closer to the other coil's wire than 1e-9 times the larger of the two radii
raises ``ValueError``.  Per pair, 16 chargers against 4 receivers on a
2-vCPU Xeon VM (medians of 3 alternating rounds of 15 in-process runs), in us:

    q                                       128    256
    q x q double sum, one pair (Q = 1)      222   1358
    q x q double sum, per pair of 16 x 4    200    708
    this, one pair (Q = 1)                  148    165
    this, per pair of 16 x 4                 31     57

A single pair is mostly fixed NumPy call overhead; the whole 16 x 4 layout
takes 2.0 ms at q = 128, against 12.8 ms for the double sum.
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
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValueError(f"center must be three finite coordinates, got {self.center!r}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        if not isinstance(self.turns, (int, np.integer)) or self.turns < 1:
            raise ValueError(f"turns must be an integer >= 1, got {self.turns!r}")
        ax = np.asarray(self.axis, dtype=float)
        if ax.shape != (3,) or not np.all(np.isfinite(ax)) or np.linalg.norm(ax) == 0:
            raise ValueError(f"axis must be a finite nonzero 3-vector, got {self.axis!r}")


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


def _check_quadrature_points(n_points):
    if not isinstance(n_points, (int, np.integer)) or n_points < 1:
        raise ValueError(f"quadrature_points must be an integer >= 1, got {n_points!r}")


def loop_samples(coil: CoilGeometry, n_points: int):
    """Midpoint samples of the loop and the tangent increments dl.

    The angular rule is the periodic trapezoid (= midpoint) rule, which
    converges spectrally for smooth non-singular integrands.  ``n_points``,
    the layout's ``quadrature_points``, must be an integer >= 1, or
    ``ValueError`` is raised.
    """
    _check_quadrature_points(n_points)
    e1, e2 = _frame(coil.axis)
    theta = (np.arange(n_points) + 0.5) * (2.0 * math.pi / n_points)
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    points = np.asarray(coil.center, dtype=float) + coil.radius * (c * e1 + s * e2)
    dl = coil.radius * (2.0 * math.pi / n_points) * (-s * e1 + c * e2)
    return points, dl


def mutual_inductance(coil_a: CoilGeometry, coil_b: CoilGeometry,
                      quadrature_points: int = 256) -> float:
    """Mutual inductance of two non-intersecting circular coils, henries.

    The line integral around ``coil_a``, sampled at ``quadrature_points``
    points, of the exact vector potential of ``coil_b``, scaled by the turn
    counts; this is the 1 x 1 case of ``layout_mutual_matrix``.  Swapping the
    coils changes the result only by the quadrature error, which falls
    spectrally with ``quadrature_points``.  The sign follows the shared
    orientation convention (counterclockwise about each coil axis).
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


def _elliptic_g(k2, kp):
    """((2 - k^2) K(k) - 2 E(k)) / k^4 from k^2 and k' = sqrt(1 - k^2) > 0.

    By the arithmetic-geometric mean of 1 and k', the numerator is
    (pi / 2 a_inf) sum_(n >= 1) 2^n c_n^2 with c_1 = k^2 / (4 a_1) and
    c_(n+1) = c_n^2 / (4 a_(n+1)).  Carrying d_n = c_n / k^2 keeps every term
    positive, so nothing cancels as k -> 0 and the value is finite at k = 0.
    """
    mean, geo = (1.0 + kp) / 2.0, np.sqrt(kp)
    d = 0.25 / mean
    total = term = 2.0 * d * d
    weight = 2.0
    while (term > 1e-17 * total).any():
        mean, geo = (mean + geo) / 2.0, np.sqrt(mean * geo)
        d = k2 * d * d / (4.0 * mean)
        weight *= 2.0
        term = weight * d * d
        total = total + term
    return math.pi / (2.0 * mean) * total


def layout_mutual_matrix(tx_coils, rx_coils, quadrature_points: int = 256) -> np.ndarray:
    """N x Q matrix of pairwise mutual inductances for a coil layout.

    M_ab = mu0 N_a N_b \\oint_a (A_b / I) . dl_a over ``loop_samples`` of TX
    coil a, with RX coil b's exact vector potential.  A sample r from b's
    center has z = r . n_b and rho = |n_b x r|; with D = (b + rho)^2 + z^2
    and k^2 = 4 b rho / D, A_b / I = (mu0 / 4 pi) 16 b^2 G D^(-3/2) (n_b x r),
    G = ``_elliptic_g``: the textbook A_phi = mu0 I sqrt(D) ((2 - k^2) K - 2 E)
    / (4 pi rho) with k^4 taken out, so it holds on b's axis too.  All
    N x Q x q samples are evaluated at once, in about a dozen float64 arrays
    of that size.  A sample of a within 1e-9 max(radius_a, radius_b) of b's
    wire raises ``ValueError`` before anything is divided.
    """
    _check_quadrature_points(quadrature_points)
    tx_coils, rx_coils = list(tx_coils), list(rx_coils)
    if not (tx_coils and rx_coils):
        return np.empty((len(tx_coils), len(rx_coils)))
    # component axis first: TX samples (3, N, 1, q), RX coils (3, 1, Q, 1),
    # per-sample quantities (N, Q, q)
    samples = zip(*(loop_samples(coil, quadrature_points) for coil in tx_coils))
    points, dl = (np.stack(x).transpose(2, 0, 1)[:, :, None] for x in samples)
    axes = np.array([coil.axis for coil in rx_coils], dtype=float)
    n = (axes / np.linalg.norm(axes, axis=1, keepdims=True)).T[:, None, :, None]
    r = points - np.array([coil.center for coil in rx_coils], dtype=float).T[:, None, :, None]
    radius = np.array([coil.radius for coil in rx_coils])[:, None]
    n_x_r = n[[1, 2, 0]] * r[[2, 0, 1]] - n[[2, 0, 1]] * r[[1, 2, 0]]
    z = (n * r).sum(axis=0)
    rho = np.sqrt((n_x_r * n_x_r).sum(axis=0))
    gap2 = (radius - rho) ** 2 + z * z                 # squared distance to b's wire
    tx_radius = np.array([coil.radius for coil in tx_coils])[:, None, None]
    if (gap2 < (1e-9 * np.maximum(tx_radius, radius)) ** 2).any():
        raise ValueError("coils coincide or intersect; the integral is singular")
    dd = (radius + rho) ** 2 + z * z
    g = _elliptic_g(4.0 * radius * rho / dd, np.sqrt(gap2 / dd))
    line = (g * (n_x_r * dl).sum(axis=0) / (dd * np.sqrt(dd))).sum(axis=-1)
    turns = np.outer([coil.turns for coil in tx_coils], [coil.turns for coil in rx_coils])
    return MU_0 / (4.0 * math.pi) * 16.0 * turns * radius[:, 0] ** 2 * line
