"""Shioda-Tate accounting and Mordell-Weil discriminant checks."""

from fractions import Fraction

import pytest

from invcycle.kodaira import fiber
from invcycle.mordell_weil import check_disc_consistency, shioda_tate
from invcycle.surfaces import SurfaceConfig


def config(tokens, genus=0):
    return SurfaceConfig(
        name="t",
        base_genus=genus,
        fibers=tuple((str(i), fiber(tok)) for i, tok in enumerate(tokens)),
    )


# Stage fiber multisets for the two bundled pipelines.
SEED1 = config(["II*", "IV*", "I0*"])
EX1_Y0 = config(["II*", "II*", "IV"])
EX1_Y1 = config(["IV*", "IV*", "IV*"])
EX1_Y2 = config(["I0*", "I0*", "IV", "IV*"])
EX1_ST = config(["IV*", "IV"], genus=1)

SEED2 = config(["II*", "I1*", "I1*"])
EX2_Y0 = config(["II*", "II*", "I2", "I2"])
EX2_Y1 = config(["IV*", "I1*", "I1*", "I2"])
EX2_ST = config(["IV*", "I2", "I2"], genus=1)


class TestShiodaTate:
    @pytest.mark.parametrize(
        "cfg,rho,trivial_rank,r,trivial_disc",
        [
            (SEED1, 20, 20, 0, 12),
            (EX1_Y0, 20, 20, 0, 3),
            (EX1_Y1, 20, 20, 0, 27),
            (EX1_Y2, 20, 18, 2, 144),
            (EX1_ST, 12, 10, 2, 9),
            (SEED2, 20, 20, 0, 16),
            (EX2_Y0, 20, 20, 0, 4),
            (EX2_Y1, 20, 19, 1, 96),
            (EX2_ST, 12, 10, 2, 12),
        ],
    )
    def test_stage_table(self, cfg, rho, trivial_rank, r, trivial_disc):
        result = shioda_tate(cfg, rho)
        assert result.trivial_rank == trivial_rank
        assert result.mw_rank == r
        assert result.trivial_disc == trivial_disc

    def test_rho_below_trivial_rank(self):
        assert shioda_tate(EX1_Y0, 19).mw_rank < 0
        assert shioda_tate(SEED1, 17).mw_rank < 0


def mwl_disc(cfg, disc_ns, rho, torsion_order):
    return check_disc_consistency(shioda_tate(cfg, rho), disc_ns, torsion_order).mwl_disc


class TestMwlDiscriminant:
    def test_example1_y2(self):
        assert mwl_disc(EX1_Y2, 48, 20, 1) == Fraction(1, 3)

    def test_example1_family_stage_with_torsion(self):
        # disc_NS = 3, torsion 3: 3 * 9 / 9 = 3
        assert mwl_disc(EX1_ST, 3, 12, 3) == 3

    def test_example1_family_stage_torsion_free(self):
        assert mwl_disc(EX1_ST, 3, 12, 1) == Fraction(1, 3)

    def test_rank0_stage_comes_out_one(self):
        assert mwl_disc(EX1_Y0, 3, 20, 1) == 1
        assert mwl_disc(EX2_Y0, 4, 20, 1) == 1

    def test_example2_y1(self):
        assert mwl_disc(EX2_Y1, 16, 20, 1) == Fraction(1, 6)
        assert mwl_disc(EX2_Y1, 64, 20, 1) == Fraction(2, 3)


def denominator_bound(cfg, r):
    """D^r, read off at rho = trivial rank + r; the candidate disc and the
    torsion order do not enter it."""
    rho = shioda_tate(cfg, 20).trivial_rank + r
    return check_disc_consistency(shioda_tate(cfg, rho), 1, 1).denominator_bound


class TestDenominatorBound:
    def test_rank0_bound_is_one(self):
        assert denominator_bound(EX1_Y0, 0) == 1

    def test_example1_y2(self):
        # I0* gives {1,2}, IV {1,3}, IV* {1,3}: lcm 6, r = 2
        assert denominator_bound(EX1_Y2, 2) == 36

    def test_example1_family_stage(self):
        assert denominator_bound(EX1_ST, 2) == 9

    def test_example2_y1(self):
        # IV* {1,3}, I1* {1,2,4}, I2 {1,2}: lcm 12
        assert denominator_bound(EX2_Y1, 1) == 12

    def test_in_fibers(self):
        cfg = config(["I5", "I6"])
        # divisors of 5 and 6: lcm 30
        assert denominator_bound(cfg, 1) == 30
        assert denominator_bound(cfg, 3) == 27000


def check(cfg, candidate_disc, rho, torsion_order):
    return check_disc_consistency(shioda_tate(cfg, rho), candidate_disc, torsion_order)


class TestDiscConsistency:
    def test_rank0_accepts_matching_disc(self):
        assert shioda_tate(EX1_Y0, 20).mw_rank == 0
        result = check(EX1_Y0, 3, 20, 1)
        assert result.consistent
        assert result.mwl_disc == 1
        assert result.denominator_bound == 1
        assert result.reason is None

    def test_rank0_rejects_other_disc(self):
        result = check(EX1_Y0, 12, 20, 1)
        assert not result.consistent
        assert result.mwl_disc == 4
        assert "discriminant 1" in result.reason

    def test_height_bound_excludes_small_disc(self):
        # Candidate 3 on the rank-2 stage: disc(MWL) = 1/48, bound 36.
        result = check(EX1_Y2, 3, 20, 1)
        assert not result.consistent
        assert result.mwl_disc == Fraction(1, 48)
        assert result.denominator_bound == 36
        assert "does not divide" in result.reason

    def test_height_bound_admits_surviving_discs(self):
        for cand, disc in ((12, Fraction(1, 12)), (48, Fraction(1, 3))):
            result = check(EX1_Y2, cand, 20, 1)
            assert result.consistent
            assert result.mwl_disc == disc

    def test_example2_candidates(self):
        bad = check(EX2_Y1, 4, 20, 1)
        assert not bad.consistent
        assert bad.mwl_disc == Fraction(1, 24)
        for cand in (16, 64):
            assert check(EX2_Y1, cand, 20, 1).consistent
