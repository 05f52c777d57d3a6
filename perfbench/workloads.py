"""The benchmark's four workloads, made from the benchmark seed.

Each workload is a list of variants; one variant is one CLI task
invocation (a run file plus the task name).  The seed moves inputs without
changing the amount of work: grid offsets that keep the anchor endpoints,
the ladder's wall radius r0, and the invariance suite's random matrices.
Seed 0 gives the canonical inputs of the project README and acceptance
suite exactly.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

WORKLOADS = ("admixture-sweep", "plateau-sweep", "trimer-ladder",
             "invariance-batch")

#: golden-ratio step: seed 0 gives offset 0, consecutive seeds spread evenly
_PHI = 0.6180339887498949


@dataclass(frozen=True)
class Variant:
    label: str
    task: str
    config: str                  # run-file text
    params: dict = field(default_factory=dict)


def seed_fraction(seed: int) -> float:
    """Offset in [0, 1) drawn from the seed; exactly 0 for seed 0."""
    return (seed * _PHI) % 1.0


def _admixture(seed: int) -> list[Variant]:
    # the scan window's upper edge moves the whole 2000-point root-scan grid
    # while theta keeps its anchor endpoints 0 and pi/2
    kappa_max = 10.0 + 0.5 * seed_fraction(seed)
    config = (
        "task = theta-sweep\n"
        "mode = asymptotic\n"
        "a_alpha = closed\n"
        "a_beta = unitary\n"
        "a_gamma = closed\n"
        "theta_count = 201\n"
        f"kappa_max = {kappa_max!r}\n"
        "s_max = 5\n"
        "format = csv,json,svg\n")
    params = {"theta_min": 0.0, "theta_max": math.pi / 2, "theta_count": 201,
              "kappa_max": kappa_max, "s_max": 5.0}
    return [Variant("theta-sweep", "theta-sweep", config, params)]


def _plateau(seed: int) -> list[Variant]:
    # shift the log-spaced R grid by less than one of its 128 steps
    shift = 10.0 ** (seed_fraction(seed) * 8.0 / 128.0)
    r_min, r_max = 1e-2 * shift, 1e6 * shift
    out = []
    # criterion 5: both mixed-pair curves plateau at theta = 0, and at
    # least one curve at pi/2
    for label, theta, anchor, exact in (("theta=0", "0", 0.41370, 2),
                                        ("theta=pi/2", repr(math.pi / 2),
                                         1.00624, None)):
        config = (
            "task = r-sweep\n"
            "mode = finite\n"
            f"theta = {theta}\n"
            "a_alpha = 1\n"
            "a_beta = 1e6\n"
            "a_gamma = closed\n"
            f"R_min = {r_min!r}\n"
            f"R_max = {r_max!r}\n"
            "R_count = 129\n")
        out.append(Variant(label, "r-sweep", config,
                           {"anchor": anchor, "exact_hits": exact}))
    return out


def _ladder(seed: int) -> list[Variant]:
    r0 = 1e-3 * 10.0 ** (0.5 * seed_fraction(seed))
    out = []
    for kappa, n_levels in ((1.00624, 4), (0.41370, 3)):
        config = (
            "task = ladder\n"
            f"kappa = {kappa!r}\n"
            f"n_levels = {n_levels}\n"
            f"r0 = {r0!r}\n")
        out.append(Variant(f"kappa={kappa}", "ladder", config,
                           {"kappa": kappa, "n_levels": n_levels, "r0": r0}))
    return out


def _invariance(seed: int) -> list[Variant]:
    config = (
        "task = invariance-suite\n"
        "trials = 50\n"
        "R = 1\n"
        f"seed = {seed}\n")
    return [Variant("trials=50", "invariance-suite", config,
                    {"trials": 50})]


_BUILDERS = {
    "admixture-sweep": _admixture,
    "plateau-sweep": _plateau,
    "trimer-ladder": _ladder,
    "invariance-batch": _invariance,
}


def variants(workload: str, seed: int) -> list[Variant]:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return _BUILDERS[workload](seed)
