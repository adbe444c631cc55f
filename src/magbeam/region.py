"""Tracing the multi-user power region boundary by profile sweeps.

Each boundary point fixes a power-profile vector and maximizes the
delivered sum power with one joint relaxation, rounded to a schedule that
delivers it (a bisection over fixed-target solves runs only where a
higher-rank relaxation rounds more than ``eps`` below its bound); a
two-user sweep walks the first share over a uniform grid.  The
uncoordinated identical-current baseline is reported per profile through
its profile-capped sum power (its current direction is fixed, so a
profile is only honored up to the worst-served receiver).
"""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .beamforming import (DEFAULT_OPTIONS, PowerProfile,
                          benchmark_uncoordinated, profile_capped_power,
                          solve_p0_bisection)
from .circuit import build_impedance
from .scenario import scenario_hash


@dataclass(frozen=True)
class PowerRegionPoint:
    alpha: PowerProfile
    p_star: float
    per_rx: np.ndarray
    constrained: bool
    solution_method: str
    sdr_rank: int = 1


def boundary_point(scenario, alpha, constrained=True, eps=1e-2,
                   options=None, model=None) -> PowerRegionPoint:
    """Maximum-sum-power point of the region for one profile vector."""
    if not isinstance(alpha, PowerProfile):
        alpha = PowerProfile(alpha)
    opts = replace(options or DEFAULT_OPTIONS, use_peak_constraints=constrained)
    model = build_impedance(scenario) if model is None else model
    p_star, sol = solve_p0_bisection(scenario, alpha, eps, opts, model)
    return PowerRegionPoint(alpha=alpha, p_star=float(p_star),
                            per_rx=sol.per_rx_power, constrained=constrained,
                            solution_method=sol.method, sdr_rank=sol.sdr_rank)


def benchmark_point(scenario, alpha, constrained=True, model=None) -> PowerRegionPoint:
    """Profile-capped point of the identical-current baseline."""
    if not isinstance(alpha, PowerProfile):
        alpha = PowerProfile(alpha)
    sol = benchmark_uncoordinated(scenario, max_feasible=True,
                                  use_peak_constraints=constrained, model=model)
    return PowerRegionPoint(alpha=alpha, p_star=profile_capped_power(sol, alpha),
                            per_rx=sol.per_rx_power, constrained=constrained,
                            solution_method=sol.method, sdr_rank=1)


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


def sweep_region(scenario, grid_size=40, constrained=True, baseline=False,
                 alphas=None, eps=1e-2, options=None) -> RegionSweep:
    """Boundary points over a profile grid (two-user) or an explicit list.

    Points come back sorted by profile regardless of evaluation order so
    sweeps are reproducible even if boundary points are computed in
    parallel some day.
    """
    if alphas is None:
        if scenario.n_rx != 2:
            raise ValueError("the grid sweep is two-user; pass explicit alphas "
                             f"for Q={scenario.n_rx}")
        profiles = two_user_profiles(grid_size)
    else:
        profiles = [a if isinstance(a, PowerProfile) else PowerProfile(a)
                    for a in alphas]
    model = build_impedance(scenario)
    points = [boundary_point(scenario, prof, constrained, eps, options, model)
              for prof in profiles]
    base = [benchmark_point(scenario, prof, constrained, model)
            for prof in profiles] if baseline else []
    order = sorted(range(len(profiles)), key=lambda i: tuple(profiles[i].alpha))
    points = [points[i] for i in order]
    base = [base[i] for i in order] if base else []
    settings = {"grid_size": grid_size if alphas is None else None,
                "constrained": constrained, "baseline": baseline, "eps": eps,
                "tool_version": __version__}
    return RegionSweep(points=points, baseline_points=base,
                       scenario_digest=scenario_hash(scenario), settings=settings)


def write_region_csv(sweep: RegionSweep, path):
    """One row per point: profile, sum power, per-RX powers, bookkeeping."""
    all_points = [(p, "beamforming") for p in sweep.points] + \
                 [(p, "baseline") for p in sweep.baseline_points]
    if not all_points:
        raise ValueError("empty sweep")
    q = all_points[0][0].per_rx.size
    header = [f"alpha_{i + 1}" for i in range(q)] + ["p_star"] + \
             [f"p_rx_{i + 1}" for i in range(q)] + \
             ["scheme", "method", "sdr_rank", "constrained"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, scheme in all_points:
            writer.writerow([repr(float(a)) for a in point.alpha.alpha]
                            + [repr(float(point.p_star))]
                            + [repr(float(v)) for v in point.per_rx]
                            + [scheme, point.solution_method, point.sdr_rank,
                               int(point.constrained)])


def write_sweep_summary(sweep: RegionSweep, path):
    doc = {"scenario_sha256": sweep.scenario_digest,
           "settings": sweep.settings,
           "n_points": len(sweep.points),
           "n_baseline_points": len(sweep.baseline_points)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
