"""Surface configurations, numerical invariants, quadratic base change."""

import random

import pytest

from invcycle.jsonio import SchemaError, parse_branch_spec, parse_surface_config
from invcycle.kodaira import fiber, is_star
from invcycle.surfaces import (
    BranchSpec,
    SurfaceConfig,
    SurfaceError,
    invariants,
    quadratic_base_change,
)


def config(name, genus, tokens):
    return SurfaceConfig(
        name=name,
        base_genus=genus,
        fibers=tuple((str(i), fiber(tok)) for i, tok in enumerate(tokens)),
    )


KUMMER_SEED = config("seed1", 0, ["II*", "IV*", "I0*"])
SEED2 = config("seed2", 0, ["II*", "I1*", "I1*"])


class TestConfig:
    def test_euler_total(self):
        assert KUMMER_SEED.euler_total() == 24
        assert SEED2.euler_total() == 24

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            parse_surface_config({
                "name": "dup",
                "base_genus": 0,
                "fibers": [{"label": "0", "type": "II*"}, {"label": "0", "type": "IV*"}],
            })

    def test_fiber_tokens_sorted_multiset(self):
        assert KUMMER_SEED.fiber_tokens() == ("I0*", "II*", "IV*")


class TestInvariants:
    def test_k3(self):
        inv = invariants(KUMMER_SEED)
        assert (inv.e, inv.d, inv.p_g, inv.q, inv.b1, inv.b2, inv.h11) == (
            24, 2, 1, 0, 0, 22, 20,
        )
        assert inv.kind == "K3"
        assert not inv.extrapolated

    def test_rational_elliptic(self):
        cfg = config("rat", 0, ["II*", "II"])
        inv = invariants(cfg)
        assert (inv.e, inv.d, inv.p_g, inv.q) == (12, 1, 0, 0)
        assert inv.kind == "rational-elliptic"

    def test_elliptic_elliptic(self):
        cfg = config("ee", 1, ["IV*", "IV"])
        inv = invariants(cfg)
        assert (inv.e, inv.d, inv.p_g, inv.q, inv.b1, inv.b2, inv.h11) == (
            12, 1, 1, 1, 2, 14, 12,
        )
        assert inv.kind == "elliptic-elliptic"

    def test_trivial_family(self):
        cfg = config("triv", 1, [])
        inv = invariants(cfg)
        assert (inv.e, inv.d) == (0, 0)
        assert inv.kind == "trivial-family-abelian"
        assert inv.extrapolated

    def test_euler_must_be_divisible_by_12(self):
        cfg = config("bad", 0, ["II*", "III"])  # e = 13
        with pytest.raises(SurfaceError, match="not divisible by 12"):
            invariants(cfg)


class TestBranchSpec:
    def test_odd_count_rejected(self):
        with pytest.raises(SchemaError, match="branch locus has 1 points; an even count is required"):
            parse_branch_spec({"branch": ["0"]})
        with pytest.raises(SchemaError, match="branch locus has 3 points; an even count is required"):
            parse_branch_spec({"branch": ["0", "1", "2"]})

    def test_empty_allowed(self):
        spec = BranchSpec(frozenset())
        assert spec.sorted_labels() == ()


class TestQuadraticBaseChange:
    def test_kummer_stage_y0(self):
        result = quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset({"1", "2"})))
        tokens = sorted(f.token for _, f in result.config.fibers)
        assert tokens == ["II*", "II*", "IV"]
        assert result.delta == 2
        assert result.config.base_genus == 0
        assert result.euler_after == 24

    def test_kummer_stage_y1(self):
        result = quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset({"0", "2"})))
        assert sorted(f.token for _, f in result.config.fibers) == ["IV*", "IV*", "IV*"]
        assert result.delta == 2

    def test_kummer_stage_y2(self):
        result = quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset({"0", "1"})))
        assert sorted(f.token for _, f in result.config.fibers) == [
            "I0*", "I0*", "IV", "IV*",
        ]
        assert result.delta == 2

    def test_kummer_family_stage(self):
        result = quadratic_base_change(
            KUMMER_SEED, BranchSpec(frozenset({"0", "1", "2", "t"}))
        )
        assert sorted(f.token for _, f in result.config.fibers) == ["IV", "IV*"]
        assert result.delta == 3
        assert result.config.base_genus == 1
        assert result.euler_after == 12
        assert result.d_before == 2
        assert result.d_after == 1

    def test_unbranched_fibers_duplicate_with_suffixes(self):
        result = quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset({"1", "2"})))
        labels = sorted(lab for lab, _ in result.config.fibers)
        assert labels == ["0.1", "0.2", "1"]

    def test_fresh_labels_are_smooth_branch_points(self):
        result = quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset({"0", "zzz"})))
        assert result.delta == 1
        assert (result.log[-1].label, result.log[-1].source_token) == ("zzz", None)

    def test_genus_zero_needs_two_branch_points(self):
        with pytest.raises(ValueError):
            quadratic_base_change(KUMMER_SEED, BranchSpec(frozenset()))

    def test_unbranched_double_cover_of_genus_one(self):
        cfg = config("ee-seed", 1, ["IV*", "IV"])
        result = quadratic_base_change(cfg, BranchSpec(frozenset()))
        assert result.delta == 0
        assert result.config.base_genus == 1
        assert result.euler_after == 2 * result.euler_before

    def test_seed2_stages(self):
        y0 = quadratic_base_change(SEED2, BranchSpec(frozenset({"1", "2"})))
        assert sorted(f.token for _, f in y0.config.fibers) == ["I2", "I2", "II*", "II*"]
        y1 = quadratic_base_change(SEED2, BranchSpec(frozenset({"0", "2"})))
        assert sorted(f.token for _, f in y1.config.fibers) == ["I1*", "I1*", "I2", "IV*"]
        st_stage = quadratic_base_change(SEED2, BranchSpec(frozenset({"0", "1", "2", "t"})))
        assert sorted(f.token for _, f in st_stage.config.fibers) == ["I2", "I2", "IV*"]
        assert st_stage.config.base_genus == 1

    def test_delta_four_trivial_family(self):
        cfg = config("quad", 0, ["I0*", "I0*", "I0*", "I0*"])
        result = quadratic_base_change(cfg, BranchSpec(frozenset({"0", "1", "2", "3"})))
        assert result.delta == 4
        assert result.d_after == 0
        inv = invariants(result.config)
        assert inv.kind == "trivial-family-abelian"
        assert inv.extrapolated

    def test_branch_log_provenance(self):
        result = quadratic_base_change(
            KUMMER_SEED, BranchSpec(frozenset({"0", "1", "2", "t"}))
        )
        by_label = {row.label: row for row in result.log}
        assert by_label["0"].table_source == "paper"
        assert by_label["0"].branched and by_label["0"].star
        assert by_label["0"].delta == 1
        assert by_label["t"].table_source == "trivial"
        assert by_label["t"].delta == 0


def random_config(rng):
    genus = rng.randint(0, 2)
    n_fibers = rng.randint(0, 6)
    tokens = []
    for _ in range(n_fibers):
        kind = rng.choice(["II", "III", "IV", "II*", "III*", "IV*", "I", "I*"])
        if kind in ("I", "I*"):
            tokens.append(f"I{rng.randint(0, 9)}{'*' if kind == 'I*' else ''}")
        else:
            tokens.append(kind)
    return SurfaceConfig(
        name="rand",
        base_genus=genus,
        fibers=tuple((str(i), fiber(tok)) for i, tok in enumerate(tokens)),
    )


class TestEulerDefectLaw:
    def test_randomized_defect_law(self):
        # 2 e - e' = 12 delta across random configurations and branch sets
        rng = random.Random(20240817)
        runs = 0
        while runs < 1000:
            cfg = random_config(rng)
            labels = [lab for lab, _ in cfg.fibers]
            pool = labels + ["u", "v"]
            k = rng.randint(0, len(pool))
            chosen = set(rng.sample(pool, k))
            if len(chosen) % 2:
                continue
            if cfg.base_genus == 0 and not chosen:
                continue
            branch = BranchSpec(frozenset(chosen))
            result = quadratic_base_change(cfg, branch)
            stars_branched = sum(
                1 for lab, f in cfg.fibers if lab in chosen and is_star(f)
            )
            assert 2 * result.euler_before - result.euler_after == 12 * stars_branched
            assert result.delta == stars_branched
            runs += 1
