"""Kodaira fiber arithmetic: tokens, Euler numbers, base change, profiles."""

import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcycle import cli, kodaira, lattice
from invcycle.kodaira import (
    FiberTokenError,
    KodairaFiber,
    base_change_source,
    delta,
    euler_number,
    fiber,
    fiber_profile,
    is_star,
    quadratic_base_change_fiber,
)
from invcycle.lattice import GramLattice
from invcycle.pipeline import run_example

from oracles import root_gram

FIXED_EULER = {
    "II": 2,
    "III": 3,
    "IV": 4,
    "IV*": 8,
    "III*": 9,
    "II*": 10,
}

STAR_IMAGES = {
    "II*": "IV*",
    "III*": "I0*",
    "IV*": "IV",
}

NONSTAR_IMAGES = {
    "II": "IV",
    "III": "I0*",
    "IV": "IV*",
}


def all_tokens(nmax=20):
    tokens = list(FIXED_EULER)
    for n in range(nmax + 1):
        tokens.append(f"I{n}")
        tokens.append(f"I{n}*")
    return tokens


def root_lattice(profile):
    """A fiber's root lattice up to sign: root_gram of its type, or rank 0."""
    if profile.root_type is None:
        return GramLattice([])
    return root_gram(profile.root_type, profile.root_rank)


class TestTokens:
    def test_roundtrip(self):
        for tok in all_tokens():
            assert fiber(tok).token == tok

    def test_star_flag(self):
        assert is_star(fiber("II*"))
        assert is_star(fiber("I0*"))
        assert is_star(fiber("I7*"))
        assert not is_star(fiber("II"))
        assert not is_star(fiber("I0"))
        assert not is_star(fiber("I7"))

    @pytest.mark.parametrize("bad", ["", "V", "I", "I*", "I-1", "I2**", "i2", "II**", "I03"])
    def test_bad_tokens(self, bad):
        with pytest.raises(FiberTokenError):
            fiber(bad)

    def test_fiber_equality(self):
        assert fiber("I3") == KodairaFiber(kind="I", n=3)
        assert fiber("II*") == fiber("II*")
        assert fiber("I1*") != fiber("II*")


class TestEulerNumbers:
    def test_fixed_kinds(self):
        for tok, e in FIXED_EULER.items():
            assert euler_number(fiber(tok)) == e

    def test_i_series(self):
        for n in range(21):
            assert euler_number(fiber(f"I{n}")) == n
            assert euler_number(fiber(f"I{n}*")) == 6 + n


class TestBaseChange:
    def test_star_rows_golden(self):
        for src, img in STAR_IMAGES.items():
            assert quadratic_base_change_fiber(fiber(src)).token == img
        for n in range(21):
            got = quadratic_base_change_fiber(fiber(f"I{n}*"))
            assert got.token == f"I{2 * n}"

    def test_nonstar_rows(self):
        for src, img in NONSTAR_IMAGES.items():
            assert quadratic_base_change_fiber(fiber(src)).token == img
        for n in range(21):
            got = quadratic_base_change_fiber(fiber(f"I{n}"))
            assert got.token == f"I{2 * n}"

    def test_row_provenance_split(self):
        # star rows come from the published table, the rest are derived
        for tok in ("II*", "III*", "IV*", "I0*", "I5*"):
            assert base_change_source(fiber(tok)) == "paper"
        for tok in ("II", "III", "IV", "I0", "I5"):
            assert base_change_source(fiber(tok)) == "derived"

    def test_delta_is_star_indicator(self):
        for tok in all_tokens():
            f = fiber(tok)
            assert delta(f) == (1 if is_star(f) else 0)

    def test_euler_defect_identity(self):
        # 2 e(F) - e(F') = 12 delta(F) for every type
        for tok in all_tokens():
            f = fiber(tok)
            image = quadratic_base_change_fiber(f)
            assert 2 * euler_number(f) - euler_number(image) == 12 * delta(f)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=500))
    def test_i_series_scaling(self, n):
        assert quadratic_base_change_fiber(fiber(f"I{n}")).token == f"I{2 * n}"
        assert quadratic_base_change_fiber(fiber(f"I{n}*")).token == f"I{2 * n}"


class TestProfiles:
    @pytest.mark.parametrize(
        "tok,components,rootdisc,denoms",
        [
            ("II", 1, 1, {1}),
            ("III", 2, 2, {1, 2}),
            ("IV", 3, 3, {1, 3}),
            ("IV*", 7, 3, {1, 3}),
            ("III*", 8, 2, {1, 2}),
            ("II*", 9, 1, {1}),
            ("I0", 1, 1, {1}),
            ("I1", 1, 1, {1}),
            ("I2", 2, 2, {1, 2}),
            ("I6", 6, 6, {1, 2, 3, 6}),
            ("I0*", 5, 4, {1, 2}),
            ("I1*", 6, 4, {1, 2, 4}),
            ("I4*", 9, 4, {1, 2, 4}),
        ],
    )
    def test_profile_table(self, tok, components, rootdisc, denoms):
        profile = fiber_profile(fiber(tok))
        assert profile.components == components
        assert root_lattice(profile).disc() == rootdisc
        assert profile.contribution_denominators == frozenset(denoms)

    def test_root_lattice_rank_matches_components(self):
        for tok in all_tokens(12):
            profile = fiber_profile(fiber(tok))
            assert root_lattice(profile).rank == profile.components - 1

    def test_star_odd_multiplicity(self):
        for tok in all_tokens(8):
            f = fiber(tok)
            profile = fiber_profile(f)
            if is_star(f):
                assert profile.odd_multiplicity_components == 4
            else:
                assert profile.odd_multiplicity_components is None

    def test_euler_in_profile(self):
        for tok in all_tokens(12):
            f = fiber(tok)
            assert fiber_profile(f).euler == euler_number(f)


class TestCatalogAgainstMatrices:
    """The closed forms of the catalog agree with the Cartan matrices."""

    @pytest.mark.parametrize(
        "tok",
        list(FIXED_EULER)
        + [f"I{n}" for n in range(41)]
        + [f"I{n}*" for n in range(21)],
    )
    def test_root_lattice_closed_forms(self, tok):
        f = fiber(tok)
        profile = fiber_profile(f)
        assert profile.root_rank == profile.components - 1
        if profile.root_type is None:
            assert (profile.root_rank, profile.root_disc) == (0, 1)
        else:
            gram = root_gram(profile.root_type, profile.root_rank)
            assert profile.root_rank == gram.rank
            assert profile.root_disc == gram.disc()
        if f.kind == "I":
            m = max(f.n, 1)
            assert profile.contribution_denominators == {d for d in range(1, m + 1) if m % d == 0}


def _fiber_info(capsys, token):
    assert cli.main(["fiber", "info", token]) == 0
    return json.loads(capsys.readouterr().out)


class TestLargeISeries:
    def test_i_million_closed_form(self, capsys):
        doc = _fiber_info(capsys, "I1000000")
        assert doc["components"] == 10**6
        assert doc["root_lattice_disc"] == 10**6
        divisors = [2**i * 5**j for i in range(7) for j in range(7)]
        assert doc["contribution_denominators"] == sorted(divisors)
        assert len(divisors) == 49

    def test_prime_n(self, capsys):
        doc = _fiber_info(capsys, "I999983")
        assert doc["components"] == doc["root_lattice_disc"] == 999983
        assert doc["contribution_denominators"] == [1, 999983]

    def test_no_matrix_on_the_hot_path(self, capsys):
        # root_gram is a test oracle: no module of the package can build a root matrix.
        package = [module for name, module in sys.modules.items() if name.split(".")[0] == "invcycle"]
        assert lattice in package
        assert [module for module in package if hasattr(module, "root_gram")] == []
        assert run_example(1)["status"] == "verified"
        assert run_example(2)["status"] == "conditional"
        assert _fiber_info(capsys, "I1000000")["root_lattice_disc"] == 10**6


class TestFiberLimit:
    """`fiber` rejects I_n and I_n* above MAX_FIBER_N; only tokens are parsed here."""

    LIMIT = kodaira.MAX_FIBER_N

    def test_limit_is_accepted(self):
        assert fiber(f"I{self.LIMIT}") == KodairaFiber("I", self.LIMIT)
        assert fiber(f"I{self.LIMIT}*") == KodairaFiber("I*", self.LIMIT)

    @pytest.mark.parametrize("suffix", ["", "*"])
    def test_one_above_names_the_token(self, suffix):
        token = f"I{self.LIMIT + 1}{suffix}"
        with pytest.raises(FiberTokenError, match=re.escape(f"fiber token '{token}': n exceeds")):
            fiber(token)

    def test_huge_body_rejected_before_conversion(self):
        token = "I" + "9" * 5000  # int() refuses more than 4300 digits by default
        with pytest.raises(FiberTokenError, match="exceeds the limit"):
            fiber(token)

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(FiberTokenError, match="unrecognized"):
            fiber("I²")

    def test_cli_fiber_info_exits_1(self, capsys):
        token = f"I{self.LIMIT + 1}"
        assert cli.main(["fiber", "info", token]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: token: fiber token '{token}': n exceeds the limit {self.LIMIT}\n"
        )

    def test_config_names_the_field(self):
        from invcycle.jsonio import ParseError, parse_surface_config

        doc = {
            "name": "big",
            "base_genus": 0,
            "fibers": [{"label": "0", "type": "II*"}, {"label": "1", "type": f"I{self.LIMIT + 1}"}],
        }
        with pytest.raises(ParseError, match=r"^config\.fibers\[1\]\.type: fiber token"):
            parse_surface_config(doc)
