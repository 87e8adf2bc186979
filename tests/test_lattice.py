"""Lattice arithmetic: Gram matrices, SNF, binary forms, overlattices."""

import gc
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invcycle import cli, lattice
from invcycle.lattice import (
    BinaryEvenForm,
    GramLattice,
    enumerate_even_overlattices,
    enumerate_even_posdef_binary,
    reduce_binary,
    smith_normal_form,
    sublattice_index_from_discs,
)

from oracles import (
    binary_classes_by_theta,
    det_permutation_expansion,
    even_overlattices_bruteforce,
    even_overlattices_by_closure,
    even_posdef_binary_scan,
    random_even_posdef_gram,
    reduce_triple,
    root_gram,
    theta_fingerprint,
)

A2 = GramLattice([[2, 1], [1, 2]])


def cli_error(capsys, argv):
    """The stderr of `verify lattice *argv`, which must exit 1 with no stdout."""
    code = cli.main(["lattice", *argv])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    return err


def overlattices_argv(rank, m):
    """`overlattices` on 2m^2 times the identity, where an index-m search starts."""
    gram = [[2 * m * m if i == j else 0 for j in range(rank)] for i in range(rank)]
    return ["overlattices", "--gram", str(gram), "--index", str(m)]


_PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
# Discriminants up to 10^7, two thirds of them divisible by 4, 8, 9, 25
# or the square of a prime below 1000: the cases where square roots
# modulo a prime power have no unique lift.
_ENUM_DISCS = st.one_of(
    st.integers(min_value=1, max_value=10**7),
    st.sampled_from((4, 8, 9, 25)).flatmap(
        lambda m: st.integers(min_value=1, max_value=10**7 // m).map(lambda k: m * k)
    ),
    st.sampled_from(_PRIMES_BELOW_1000).flatmap(
        lambda p: st.integers(min_value=1, max_value=10**7 // (p * p)).map(lambda k: p * p * k)
    ),
)
A2_SCALED = GramLattice([[4, 2], [2, 4]])
DIAG44 = GramLattice([[4, 0], [0, 4]])


@st.composite
def even_grams_with_index(draw):
    """An even nondegenerate Gram of rank 2, 3 or 4 and a small index m.

    The Gram is B A B^T times a scale: A a random integral lattice with
    diagonal entries of either sign (definite or indefinite), B a
    lower-triangular basis whose pivots divide m, so that m^2 often
    divides the determinant, and the scale 1 or m for an even A, 1, 2 or
    2m for an odd one.  An odd A at scale 1 can leave no even overlattice
    although m^2 divides the determinant.
    """
    n = draw(st.sampled_from((2, 3, 4)))
    m = draw(st.integers(2, {2: 10, 3: 6, 4: 4}[n]))
    even = draw(st.booleans())
    ambient = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            ambient[i][j] = ambient[j][i] = draw(st.integers(-3, 3))
        ambient[i][i] = draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1))) * (2 if even else 1)
    basis = [[0] * n for _ in range(n)]
    for i in range(n):
        basis[i][i] = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
        for j in range(i):
            basis[i][j] = draw(st.integers(0, basis[j][j] - 1))
    scale = draw(st.sampled_from((1, m) if even else (1, 2, 2 * m)))
    gram = [
        [scale * sum(u[p] * ambient[p][q] * v[q] for p in range(n) for q in range(n)) for v in basis]
        for u in basis
    ]
    assume(all(gram[i][i] % 2 == 0 for i in range(n)) and det_permutation_expansion(gram) != 0)
    return gram, m


class TestGramLattice:
    def test_construction_and_disc(self):
        assert A2.rank == 2
        assert A2.det() == 3
        assert A2.disc() == 3
        assert A2_SCALED.disc() == 12
        assert DIAG44.disc() == 16

    def test_rank_zero_is_identity(self):
        empty = GramLattice([])
        assert empty.rank == 0
        assert empty.det() == 1

    def test_even_and_posdef(self):
        assert A2.is_even()
        assert not GramLattice([[1, 0], [0, 2]]).is_even()
        # Positive definiteness is a property of the binary form.
        assert BinaryEvenForm.from_gram(A2).is_positive_definite()
        assert not BinaryEvenForm.from_gram(GramLattice([[-2, 0], [0, 2]])).is_positive_definite()
        assert not BinaryEvenForm.from_gram(GramLattice([[2, 3], [3, 2]])).is_positive_definite()


class TestRootLattices:
    # Negated Cartan matrices carry determinants n+1, 4, 3, 2, 1.
    @pytest.mark.parametrize(
        "kind,rank,det",
        [
            ("A", 1, 2),
            ("A", 2, 3),
            ("A", 5, 6),
            ("D", 4, 4),
            ("D", 5, 4),
            ("D", 8, 4),
            ("E", 6, 3),
            ("E", 7, 2),
            ("E", 8, 1),
        ],
    )
    def test_determinants(self, kind, rank, det):
        lattice = root_gram(kind, rank)
        assert lattice.rank == rank
        assert lattice.det() == det
        assert lattice.is_even()
        # Sylvester: every leading principal minor is positive.
        for k in range(1, rank + 1):
            assert det_permutation_expansion([row[:k] for row in lattice.gram[:k]]) > 0

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            root_gram("D", 3)
        with pytest.raises(ValueError):
            root_gram("E", 9)
        with pytest.raises(ValueError):
            root_gram("B", 2)


class TestSmithNormalForm:
    def test_a2(self):
        D, U, V = smith_normal_form([[2, 1], [1, 2]])
        assert D == ((1, 0), (0, 3))

    def test_scaled(self):
        D, U, V = smith_normal_form([[4, 2], [2, 4]])
        assert D == ((2, 0), (0, 6))

    @pytest.mark.parametrize(
        "gram, diagonal",
        [
            (A2.gram, (1, 3)),
            (((-2, -1), (-1, -2)), (1, 3)),  # the negated A2
            (DIAG44.gram, (4, 4)),
            (((2, 0), (0, 6)), (2, 6)),
            (root_gram("E", 8).gram, (1,) * 8),
        ],
        ids=["A2", "minus-A2", "diag-4-4", "diag-2-6", "E8"],
    )
    def test_diagonal_is_the_discriminant_group(self, gram, diagonal):
        # The invariant factors above 1 are the discriminant group L*/L.
        D, _U, _V = smith_normal_form(gram)
        assert tuple(D[i][i] for i in range(len(gram))) == diagonal

    def test_transform_identity(self):
        M = [[4, 2], [2, 4]]
        D, U, V = smith_normal_form(M)
        n = len(M)
        UM = [[sum(U[i][k] * M[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert tuple(tuple(r) for r in UMV) == D

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_snf_properties(self, matrix):
        n = len(matrix)
        D, U, V = smith_normal_form(matrix)
        UM = [[sum(U[i][k] * matrix[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        UMV = [[sum(UM[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert tuple(tuple(r) for r in UMV) == D
        assert abs(det_permutation_expansion([list(r) for r in U])) == 1
        assert abs(det_permutation_expansion([list(r) for r in V])) == 1
        diag = [D[i][i] for i in range(n)]
        assert all(D[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert all(x >= 0 for x in diag)
        for i in range(n - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # zeros sort to the end
            if diag[i] == 0:
                assert diag[i + 1] == 0


class TestBinaryForms:
    def test_reduce_frozen_cases(self):
        # (a, b, c) in raw form -> reduced triple
        cases = [
            ((1, 1, 1), (1, 1, 1)),
            ((1, -1, 1), (1, 1, 1)),
            ((3, 2, 1), (1, 0, 2)),
            ((1, 2, 2), (1, 0, 1)),
            ((5, 13, 9), (1, 1, 3)),
            ((2, 2, 2), (2, 2, 2)),
            ((1, 0, 12), (1, 0, 12)),
        ]
        for raw, expected in cases:
            reduced = reduce_binary(BinaryEvenForm(*raw))
            assert (reduced.a, reduced.b, reduced.c) == expected

    def test_reduce_is_canonical_domain(self):
        for d in range(1, 80):
            for a, b, c in enumerate_even_posdef_binary(d):
                assert 0 <= b <= a <= c
                again = reduce_binary(BinaryEvenForm(a, b, c))
                assert again == BinaryEvenForm(a, b, c)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    )
    def test_reduce_invariant_under_unimodular_change(self, a, b, c, p, q, r):
        if 4 * a * c - b * b <= 0:
            return
        # Build a unimodular matrix [[p, q], [r, s]] with det +-1.
        ps_minus_qr = None
        for s in range(-3, 4):
            if p * s - q * r in (1, -1):
                ps_minus_qr = s
                break
        if ps_minus_qr is None:
            return
        s = ps_minus_qr
        gram = [[2 * a, b], [b, 2 * c]]
        T = [[p, q], [r, s]]
        new = [
            [
                sum(T[i][k] * gram[k][l] * T[j][l] for k in range(2) for l in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        f1 = reduce_binary(BinaryEvenForm(a, b, c))
        f2 = reduce_binary(BinaryEvenForm.from_gram(GramLattice(new)))
        assert f1 == f2

    def test_reduce_agrees_with_textbook_loop(self):
        rng = random.Random(7)
        for _ in range(300):
            a = rng.randint(1, 20)
            b = rng.randint(-40, 40)
            c = rng.randint(1, 20)
            if 4 * a * c - b * b <= 0:
                continue
            mine = reduce_binary(BinaryEvenForm(a, b, c))
            assert (mine.a, mine.b, mine.c) == reduce_triple(a, b, c)

    def test_is_isometric(self):
        # Even positive-definite binary lattices are isometric exactly when
        # their reduced forms agree.
        def reduced(lattice):
            return reduce_binary(BinaryEvenForm.from_gram(lattice))

        assert reduced(GramLattice([[2, 1], [1, 2]])) == reduced(GramLattice([[2, -1], [-1, 2]]))
        assert reduced(GramLattice([[2, 0], [0, 6]])) != reduced(A2_SCALED)


class TestEnumeration:
    def test_frozen_small_discs(self):
        tbl = {
            3: [(1, 1, 1)],
            4: [(1, 0, 1)],
            12: [(1, 0, 3), (2, 2, 2)],
            16: [(1, 0, 4), (2, 0, 2)],
            48: [(1, 0, 12), (2, 0, 6), (3, 0, 4), (4, 4, 4)],
            64: [(1, 0, 16), (2, 0, 8), (4, 0, 4), (4, 4, 5)],
        }
        for d, expected in tbl.items():
            got = enumerate_even_posdef_binary(d)
            assert got == expected, d

    def test_empty_for_impossible_discs(self):
        # no even binary form has disc 1 or 2
        assert enumerate_even_posdef_binary(1) == []
        assert enumerate_even_posdef_binary(2) == []

    def test_nonpositive_disc_rejected(self, capsys):
        for disc in (0, -4):
            assert cli_error(capsys, ["enumerate", "--disc", str(disc)]) == (
                "error: --disc: discriminant must be a positive integer\n"
            )

    def test_against_scan_every_disc_to_20000(self):
        for d in range(1, 20001):
            got = enumerate_even_posdef_binary(d)
            assert got == even_posdef_binary_scan(d), d

    @settings(max_examples=30, deadline=None)
    @given(_ENUM_DISCS)
    def test_against_scan_to_ten_million(self, disc):
        got = enumerate_even_posdef_binary(disc)
        assert got == even_posdef_binary_scan(disc)

    def test_pinned_disc_1600000(self):
        # 16 * 10^5 = 2^9 * 5^5: many roots modulo powers of 2 and 5.
        got = enumerate_even_posdef_binary(16 * 10**5)
        assert got == even_posdef_binary_scan(16 * 10**5)
        assert len(got) == 486
        assert got[:3] == [(1, 0, 400000), (2, 0, 200000), (4, 0, 100000)]
        assert got[-1] == (712, 688, 728)

    def test_disc_limit(self, capsys, monkeypatch):
        disc = lattice.MAX_CLASS_DISC + 1
        assert cli_error(capsys, ["enumerate", "--disc", str(disc)]) == (
            f"error: --disc: discriminant {disc} exceeds the class-enumeration limit {disc - 1}\n"
        )

        # At the limit the check passes; stop before the sqrt(disc) tables are built.
        class Reached(Exception):
            pass

        def stop(n):
            raise Reached

        monkeypatch.setattr(lattice, "_smallest_prime_factors", stop)
        with pytest.raises(Reached):
            cli.main(["lattice", "enumerate", "--disc", str(lattice.MAX_CLASS_DISC)])

    def test_cli_disc_above_limit_exits_1(self, capsys):
        assert cli.main(["lattice", "enumerate", "--disc", str(10**30)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --disc: discriminant {10**30} exceeds the class-enumeration limit {10**12}\n"
        )

    def test_against_theta_oracle_to_200(self):
        for d in range(1, 201):
            oracle = binary_classes_by_theta(d)
            mine = enumerate_even_posdef_binary(d)
            assert len(mine) == len(oracle), d
            fingerprints = sorted(theta_fingerprint(a, b, c, 2 * d) for a, b, c in mine)
            assert fingerprints == oracle, d


class TestOverlattices:
    def test_diag44_index2(self):
        overs = enumerate_even_overlattices(DIAG44, 2)
        assert len(overs) == 1
        reduced = reduce_binary(BinaryEvenForm.from_gram(overs[0]))
        assert (reduced.a, reduced.b, reduced.c) == (1, 0, 1)
        assert overs[0].disc() == 4

    def test_a2_scaled_index_2_empty(self):
        # 12 / 4 = 3 admits only A2, but no index-2 vector glues evenly
        assert enumerate_even_overlattices(A2_SCALED, 2) == []

    def test_index_not_dividing(self, capsys, monkeypatch):
        # 2^2 does not divide det(A2) = 3: the command answers without a search.
        def forbidden(gram, m):
            raise AssertionError("the search ran")

        monkeypatch.setattr(lattice, "_even_hermite_grams", forbidden)
        assert cli.main(["lattice", "overlattices", "--gram", "[[2,1],[1,2]]", "--index", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["overlattices"] == []

    def test_a2_rescaled3_index3(self):
        overs = enumerate_even_overlattices(GramLattice([[6, 3], [3, 6]]), 3)
        assert len(overs) == 1
        reduced = reduce_binary(BinaryEvenForm.from_gram(overs[0]))
        assert (reduced.a, reduced.b, reduced.c) == (1, 1, 1)

    def test_against_coset_oracle(self):
        rng = random.Random(91)
        for _ in range(200):
            gram = random_even_posdef_gram(rng)
            m = rng.choice([2, 2, 2, 3, 3, 4, 5])
            oracle = even_overlattices_bruteforce(gram, m)
            mine = enumerate_even_overlattices(GramLattice(gram), m)
            triples = sorted(
                (lambda f: (f.a, f.b, f.c))(reduce_binary(BinaryEvenForm.from_gram(o)))
                for o in mine
            )
            assert triples == oracle, (gram, m)
            for o in mine:
                assert o.is_even()
                assert o.disc() * m * m == GramLattice(gram).disc()

    @settings(max_examples=200, deadline=None)
    @given(even_grams_with_index())
    def test_against_closure_oracle(self, case):
        gram, m = case
        mine = enumerate_even_overlattices(GramLattice(gram), m)
        assert [o.gram for o in mine] == even_overlattices_by_closure(gram, m)

    def test_search_limit(self, capsys, monkeypatch):
        # Any search reached raises Reached, which cli.main lets escape.
        class Reached(Exception):
            pass

        def stop(gram, m):
            raise Reached

        monkeypatch.setattr(lattice, "_even_hermite_grams", stop)
        assert cli_error(capsys, overlattices_argv(2, 1)) == (
            "error: --index: overlattice index must be an integer >= 2\n"
        )
        # m^max(rank-1, 1) just past the limit at ranks 0 to 5.  At rank 1
        # the search would scan 1..m for divisors: hours at m = 10^12.
        past = ((0, 10**4 + 1), (1, 10**4 + 1), (1, 10**12), (2, 10**4 + 1), (3, 101), (5, 11))
        for rank, m in past:
            assert cli_error(capsys, overlattices_argv(rank, m)) == (
                f"error: --index: index {m} at rank {rank} exceeds the overlattice search limit: "
                f"{'m' if rank < 2 else 'm^(rank-1)'} must be at most 10000\n"
            )

        # At the limit the check passes and the search starts.
        for rank, m in ((1, 10**4), (2, 10**4), (3, 100), (5, 10)):
            with pytest.raises(Reached):
                cli.main(["lattice", *overlattices_argv(rank, m)])

    def test_leaves_no_reference_cycle(self):
        # A search that calls itself through a closure would leave a cycle
        # for the cyclic collector on every call.
        gc.collect()
        gc.disable()
        try:
            overs = enumerate_even_overlattices(GramLattice([[8, 0], [0, 8]]), 4)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert overs


class TestIndexFromDiscs:
    def test_frozen(self):
        assert sublattice_index_from_discs(48, 3) == 4
        assert sublattice_index_from_discs(64, 4) == 4
        assert sublattice_index_from_discs(16, 4) == 2
        assert sublattice_index_from_discs(3, 3) == 1

    def test_rejects_non_square_ratio(self):
        assert sublattice_index_from_discs(24, 3) is None
        assert sublattice_index_from_discs(3, 48) is None
