"""Shioda-Tate rank accounting and Mordell-Weil discriminant arithmetic.

The Picard number and the torsion order are declared inputs, not
theorems.  `shioda_tate` walks a stage's fibers once; the pipeline reads
this record and alone makes the height checks (`check_disc_consistency`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .kodaira import fiber_profile
from .lattice import FrozenRecord
from .surfaces import SurfaceConfig


class ShiodaTateResult(FrozenRecord):
    """trivial_rank is 2 + the sum over fibers of (components - 1);
    trivial_disc is the product of |det| of the fiber root lattices;
    height_lcm is the lcm D of the local height contribution denominators."""

    __slots__ = ("rho", "trivial_rank", "mw_rank", "trivial_disc", "height_lcm")


def shioda_tate(config: SurfaceConfig, rho: int) -> ShiodaTateResult:
    """A stage's one walk over its fibers; mw_rank = rho - trivial_rank,
    unchecked.  The discriminant checks read this record."""
    rank, disc, d = 2, 1, 1
    for _, f in config.fibers:
        profile = fiber_profile(f)
        rank += profile.root_rank
        disc *= profile.root_disc
        d = math.lcm(d, *profile.contribution_denominators)
    return ShiodaTateResult(rho, rank, rho - rank, disc, d)


class DiscConsistency(FrozenRecord):
    __slots__ = ("consistent", "mwl_disc", "denominator_bound", "reason")


def check_disc_consistency(
    st: ShiodaTateResult, candidate_disc: int, torsion_order: int
) -> DiscConsistency:
    """Test a candidate Neron-Severi discriminant against the height bound.

    disc(MWL) = disc_NS * torsion^2 / (product of the fiber root lattice
    determinants), in lowest terms.  Its denominator must divide D^r,
    where D is the lcm of the local height contribution denominators over
    all fibers and r = st.mw_rank; a rank-0 Mordell-Weil group forces
    disc(MWL) = 1 exactly.  The caller keeps st.mw_rank >= 0.
    """
    r = st.mw_rank
    disc = Fraction(candidate_disc * torsion_order * torsion_order, st.trivial_disc)
    bound = st.height_lcm**r
    reason = None
    if r == 0 and disc != 1:
        reason = f"rank-0 Mordell-Weil lattice must have discriminant 1, got {disc}"
    elif r > 0 and bound % disc.denominator != 0:
        reason = (
            f"disc(MWL) = {disc} has denominator {disc.denominator}, "
            f"which does not divide the bound {bound}"
        )
    return DiscConsistency(reason is None, disc, bound, reason)
