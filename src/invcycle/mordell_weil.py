"""Shioda-Tate rank accounting and Mordell-Weil discriminant arithmetic.

The Picard number and the torsion order are inputs here, not theorems:
callers obtain them from declared assumptions and this module only does
the exact bookkeeping on top of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kodaira import fiber_profile
from .lattice import FrozenRecord
from .surfaces import SurfaceConfig


class ShiodaTateResult(FrozenRecord):
    """trivial_rank is 2 + the sum over fibers of (components - 1);
    trivial_disc is the product of |det| of the fiber root lattices."""

    __slots__ = ("rho", "trivial_rank", "mw_rank", "trivial_disc")


def _trivial_summands(config: SurfaceConfig) -> tuple[int, int, int]:
    """One walk over the fibers: the trivial lattice's rank and
    discriminant, and the lcm D of the local height contribution
    denominators."""
    rank, disc, d = 2, 1, 1
    for _, f in config.fibers:
        profile = fiber_profile(f)
        rank += profile.root_rank
        disc *= profile.root_disc
        d = math.lcm(d, *profile.contribution_denominators)
    return rank, disc, d


def shioda_tate(config: SurfaceConfig, rho: int) -> ShiodaTateResult:
    trivial_rank, trivial_disc, _ = _trivial_summands(config)
    return ShiodaTateResult(rho, trivial_rank, rho - trivial_rank, trivial_disc)


class DiscConsistency(FrozenRecord):
    __slots__ = ("consistent", "mw_rank", "mwl_disc", "denominator_bound", "reason")


def check_disc_consistency(
    config: SurfaceConfig, candidate_disc: int, rho: int, torsion_order: int
) -> DiscConsistency:
    """Test a candidate Neron-Severi discriminant against the height bound.

    disc(MWL) = disc_NS * torsion^2 / (product of the fiber root lattice
    determinants), in lowest terms.  Its denominator must divide D^r,
    where D is the lcm of the local height contribution denominators over
    all fibers; a rank-0 Mordell-Weil group forces disc(MWL) = 1 exactly.
    The caller keeps rho at or above the rank of the trivial lattice.
    """
    trivial_rank, trivial_disc, d = _trivial_summands(config)
    r = rho - trivial_rank
    disc = Fraction(candidate_disc * torsion_order * torsion_order, trivial_disc)
    bound = d**r
    reason = None
    if r == 0 and disc != 1:
        reason = f"rank-0 Mordell-Weil lattice must have discriminant 1, got {disc}"
    elif r > 0 and bound % disc.denominator != 0:
        reason = (
            f"disc(MWL) = {disc} has denominator {disc.denominator}, "
            f"which does not divide the bound {bound}"
        )
    return DiscConsistency(reason is None, r, disc, bound, reason)
