"""Seeded input generators for the three benchmark workloads.

A workload is an endless, deterministic stream of operations made from a
seed.  An operation is the argv of one `verify` call plus the input files
it names; the program under test sees only those, never the seed.

Streams are built in blocks.  Every block draws each size parameter once
from each of a fixed set of equal-width strata on a log scale, then
shuffles the block.  Any whole number of blocks is therefore a
representative sample, which keeps a run's mix steady whether the program
gets through three blocks or thirty.  Stratification only spreads the
draws evenly; no draw is dropped for being slow or for hitting a defect.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bundled", "certificates", "building-blocks")

# Behaviour-relevant properties an op can have before it runs.
SQUARE_FACTOR = "square_factor"  # some 2 <= m <= 10 with m^2 | disc reaches overlattice enumeration

# disc(T') range of the certificates workload, log-uniform, and its strata per block.
CERT_DISC_RANGE = (10**2, 10**5)
CERT_BLOCK = 16
# Size ranges of the building-blocks workload, log-uniform per kind.
BB_ENUM_DISC = (10**2, 10**6)
BB_REDUCE_DIGITS = (100, 400)
# `fiber info I<n>` costs O(n^3) through the root-lattice determinant.
BB_FIBER_N = (2, 128)
BB_OVERLATTICE_INDICES = tuple(range(2, 9))
# Strata per kind in one block: fiber cost grows fastest, so its range is
# cut finest; overlattices take one stratum per index.
BB_STRATA = {"enumerate": 4, "reduce": 4, "overlattices": len(BB_OVERLATTICE_INDICES), "fiber": 8}

# Ops per block of each workload's stream.
BLOCK = {"bundled": 8, "certificates": CERT_BLOCK, "building-blocks": sum(BB_STRATA.values())}

RIGIDITY_INDEX_BOUND = 10  # default of transcendental.rigidity_transfer


@dataclass(frozen=True)
class Op:
    """One `verify` call: argv, the digest key of its inputs, and what the checks need."""

    kind: str
    argv: tuple[str, ...]
    key: str
    props: frozenset[str]
    params: dict


def _key(argv, files: dict[str, str]) -> str:
    body = json.dumps([[files.get(a, a) for a in argv]], sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()[:10]


def _log_uniform_int(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _stratum_draw(rng: random.Random, lo: float, hi: float, k: int, strata: int) -> int:
    """Log-uniform integer from the k-th of `strata` equal log-width slices of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    w = (b - a) / strata
    return int(round(math.exp(rng.uniform(a + k * w, a + (k + 1) * w))))


class Deck:
    """Draws without replacement from `cards`, reshuffling when empty.

    Over any window of len(cards) draws every card appears about once, so
    a run's mix of the discrete choices varies far less between seeds
    than independent draws would.
    """

    def __init__(self, rng: random.Random, cards):
        self.rng = rng
        self.cards = list(cards)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.cards)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def has_square_factor(disc: int) -> bool:
    """Whether rigidity_transfer enumerates overlattices for a lattice of this disc."""
    return any(disc % (m * m) == 0 for m in range(2, RIGIDITY_INDEX_BOUND + 1))


# ---------------------------------------------------------------- bundled


def bundled_stream(seed: int):
    """`example 1 --json` and `example 2 --json`, alternating; the seed picks which goes first."""
    first = 1 + seed % 2
    for i in itertools.count():
        number = str(first if i % 2 == 0 else 3 - first)
        argv = ("example", number, "--json")
        yield Op("example", argv, _key(argv, {}), frozenset(), {"example": int(number)})


# ----------------------------------------------------------- certificates

# token -> (euler number, root-lattice rank, star, base-change image or None if smooth)
_STARS = {f"I{n}*": (6 + n, 4 + n, True, f"I{2 * n}" if n else None) for n in range(7)}
_STARS.update({"II*": (10, 8, True, "IV*"), "III*": (9, 7, True, "I0*"), "IV*": (8, 6, True, "IV")})
_OTHERS = {f"I{n}": (n, n - 1, False, None) for n in range(1, 7)}
_OTHERS.update({"II": (2, 0, False, None), "III": (3, 1, False, None), "IV": (4, 2, False, None)})


def _rank(token: str) -> int:
    if token in _STARS:
        return _STARS[token][1]
    if token in _OTHERS:
        return _OTHERS[token][1]
    if token.startswith("I") and not token.endswith("*"):
        return int(token[1:]) - 1  # I_2n images of I_n* stars
    raise KeyError(token)


def _trivial_rank(tokens) -> int:
    return 2 + sum(_rank(t) for t in tokens if t != "I0")


@functools.cache
def admissible_configs() -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    """Every (stars, others) fiber multiset that makes an admissible seed.

    Genus 0, Euler number 24 (a K3), exactly three star fibers, and a
    trivial lattice that fits under the Picard number at every stage:
    rank <= 20 at X and at each K3 stage Y_k, and rank <= 12 at the
    elliptic-elliptic family stage S_t (h11 = 12 there), so that
    Shioda-Tate accounting is defined everywhere.
    """
    out = []
    for stars in itertools.combinations_with_replacement(sorted(_STARS), 3):
        rest = 24 - sum(_STARS[s][0] for s in stars)
        if rest < 0:
            continue
        for count in range(0, rest + 1):
            for others in itertools.combinations_with_replacement(sorted(_OTHERS), count):
                if sum(_OTHERS[o][0] for o in others) != rest:
                    continue
                images = [_STARS[s][3] for s in stars]
                family = [i for i in images if i] + list(others) * 2
                ok = _trivial_rank(stars + others) <= 20 and _trivial_rank(family) <= 12
                for k in range(3):
                    kept = [i for j, i in enumerate(images) if j != k and i]
                    ok = ok and _trivial_rank(kept + [stars[k]] * 2 + list(others) * 2) <= 20
                if ok:
                    out.append((stars, others))
    return tuple(out)


def _random_even_form(rng: random.Random, disc: int) -> tuple[int, int, int]:
    """A reduced (a, b, c) with 4ac - b^2 close to `disc`, for an even Gram [[2a, b], [b, 2c]]."""
    a = max(1, _log_uniform_int(rng, 1, max(1.0, math.sqrt(disc / 3))))
    b = rng.randint(0, a)
    c = max(a, round((disc + b * b) / (4 * a)))
    return a, b, c


def _principal(disc: int) -> tuple[int, int, int]:
    b = disc % 2
    return 1, b, (disc + b * b) // 4


def _gram(a: int, b: int, c: int, scale: int = 1) -> list[list[int]]:
    return [[2 * a * scale, b * scale], [b * scale, 2 * c * scale]]


def _stage_tokens(stars, others, k) -> list[str]:
    images = [_STARS[s][3] for j, s in enumerate(stars) if j != k]
    return sorted([i for i in images if i] + [stars[k]] * 2 + list(others) * 2)


_PROVENANCE = {
    "picard_maximal": "benchmark input: every stage attains rho = h11",
    "constant_transcendental_vhs": "benchmark input: isotrivial family",
    "specialization_injective": "benchmark input: specialization is injective",
    "seed_transcendental_lattice": "benchmark input: seed lattice 2T'",
    "shioda_inose_cover": "benchmark input: Shioda-Inose partner stage",
}


class CertificateDecks:
    """The discrete choices of the certificates generator, each dealt from a deck."""

    def __init__(self, rng: random.Random):
        self.config = Deck(rng, admissible_configs())
        self.si_stage = Deck(rng, range(3))
        # Which of X, S_t, Y0, Y1, Y2 get a torsion assumption: every subset once per deck.
        self.torsion_stages = Deck(rng, range(32))
        self.torsion_order = Deck(rng, (1,) * 8 + (2, 3))
        self.fact_count = Deck(rng, range(4))
        self.denominator_bound = Deck(rng, (False, True))


def certificate_files(
    rng: random.Random, decks: CertificateDecks, disc: int, name: str
) -> tuple[dict, dict, dict, dict]:
    """One generated K3 certificate: (config, branch, assumptions, params)."""
    stars, others = decks.config.draw()
    tokens = list(stars) + list(others)
    rng.shuffle(tokens)
    fibers = [{"label": str(i), "type": t} for i, t in enumerate(tokens)]
    star_labels = [f["label"] for f in fibers if f["type"].endswith("*")]
    ordered_stars = tuple(f["type"] for f in fibers if f["type"].endswith("*"))
    config = {"name": name, "base_genus": 0, "fibers": fibers}
    branch = {"branch": star_labels + ["t"]}

    a, b, c = _random_even_form(rng, disc)
    if rng.random() < 0.5:
        b = -b
    if rng.random() < 0.5:
        a, c = c, a  # not reduced as given
    t_disc = 4 * a * c - b * b
    assumptions = [
        {"name": n, "provenance": _PROVENANCE[n]}
        for n in ("picard_maximal", "constant_transcendental_vhs", "specialization_injective")
    ]
    assumptions.append(
        {
            "name": "seed_transcendental_lattice",
            "payload": {"gram": _gram(a, b, c, 2)},
            "provenance": _PROVENANCE["seed_transcendental_lattice"],
        }
    )
    si_stage = decks.si_stage.draw()
    assumptions.append(
        {
            "name": "shioda_inose_cover",
            "payload": {"stage": f"Y{si_stage}"},
            "provenance": _PROVENANCE["shioda_inose_cover"],
        }
    )
    torsion_stages = decks.torsion_stages.draw()
    for bit, stage in enumerate(("X", "S_t", "Y0", "Y1", "Y2")):
        if torsion_stages >> bit & 1:
            order = decks.torsion_order.draw()
            assumptions.append(
                {
                    "name": "torsion_order",
                    "payload": {"stage": stage, "order": order},
                    "provenance": f"benchmark input: torsion order {order} at {stage}",
                }
            )
    # Exclusion facts name forms of the three candidate discriminants
    # (T', 2T', 4T' and the principal forms), or an unrelated form.
    forms = [
        _gram(a, b, c),
        _gram(a, b, c, 2),
        _gram(a, b, c, 4),
        _gram(*_principal(t_disc)),
        _gram(*_principal(4 * t_disc)),
        _gram(*_principal(16 * t_disc)),
        _gram(*_random_even_form(rng, rng.randint(3, 4 * t_disc))),
    ]
    for i in range(decks.fact_count.draw()):
        form = rng.choice(forms)
        if rng.random() < 0.5:
            fact = {"kind": "not_isomorphic_to", "form": form}
        else:
            k = rng.randrange(3)
            fact = {
                "kind": "no_fibration_with_fibers",
                "form": form,
                "fibers": _stage_tokens(ordered_stars, others, k),
            }
        fact["provenance"] = f"benchmark input: exclusion fact {i}"
        assumptions.append({"name": "exclusion_fact", "payload": fact, "provenance": fact["provenance"]})
    if decks.denominator_bound.draw():
        fact = {"kind": "denominator_bound", "provenance": "benchmark input: height bound"}
        assumptions.append({"name": "exclusion_fact", "payload": fact, "provenance": fact["provenance"]})
    params = {"t_disc": t_disc, "seed_disc": 4 * t_disc}
    return config, branch, {"assumptions": assumptions}, params


def certificate_stream(seed: int, workdir: Path):
    rng = random.Random(f"certificates/{seed}")
    decks = CertificateDecks(rng)
    for block in itertools.count():
        strata = list(range(CERT_BLOCK))
        rng.shuffle(strata)
        for pos, k in enumerate(strata):
            disc = _stratum_draw(rng, *CERT_DISC_RANGE, k, CERT_BLOCK)
            name = f"bench-{seed}-{block * CERT_BLOCK + pos}"
            config, branch, assumptions, params = certificate_files(rng, decks, disc, name)
            files = {}
            paths = []
            for stem, doc in (("config", config), ("branch", branch), ("assumptions", assumptions)):
                path = workdir / f"{name}.{stem}.json"
                text = json.dumps(doc, indent=1)
                path.write_text(text, encoding="utf-8")
                files[str(path)] = text
                paths.append(str(path))
            argv = (
                "custom", "--config", paths[0], "--branch", paths[1],
                "--assumptions", paths[2], "--json",
            )
            props = frozenset({SQUARE_FACTOR}) if has_square_factor(params["t_disc"]) else frozenset()
            yield Op("custom", argv, _key(argv, files), props, params)


# -------------------------------------------------------- building-blocks


def _change_basis(gram: list[list[int]], basis: list[list[int]]) -> list[list[int]]:
    """Gram of the rows of `basis` (in the coordinates of `gram`)."""
    n = len(gram)
    return [
        [sum(u[p] * gram[p][q] * v[q] for p in range(n) for q in range(n)) for v in basis]
        for u in basis
    ]


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def m_torsion(gram: list[list[int]], m: int) -> int:
    """|A[m]|, the m-torsion of the discriminant group of a rank-2 Gram.

    It sets the cost of enumerating index-m overlattices: at m = 8 a draw
    with |A[8]| = 64 takes about 20 times as long as one with 16.
    """
    d1 = math.gcd(gram[0][0], gram[0][1], gram[1][1])
    d2 = (gram[0][0] * gram[1][1] - gram[0][1] ** 2) // d1
    return math.gcd(d1, m) * math.gcd(d2, m)


@functools.cache
def _m_torsion_cards(m: int) -> tuple[int, ...]:
    """A deck of |A[m]| values in the proportions `_sublattice_gram` draws them."""
    rng = random.Random(f"m-torsion/{m}")
    counts = collections.Counter(m_torsion(_sublattice_gram(rng, m), m) for _ in range(480))
    return tuple(t for t, n in sorted(counts.items()) for _ in range(max(1, round(24 * n / 480))))


class BuildingBlockDecks:
    """The m-torsion of each overlattice draw, dealt from a deck per index."""

    def __init__(self, rng: random.Random):
        self.m_torsion = {m: Deck(rng, _m_torsion_cards(m)) for m in BB_OVERLATTICE_INDICES}


def building_block_op(rng: random.Random, decks: BuildingBlockDecks, kind: str, stratum: int) -> Op:
    strata = BB_STRATA[kind]
    if kind == "enumerate":
        disc = _stratum_draw(rng, *BB_ENUM_DISC, stratum, strata)
        argv = ("lattice", "enumerate", "--disc", str(disc))
        return Op(kind, argv, _key(argv, {}), frozenset(), {"disc": disc})
    if kind == "reduce":
        lo, hi = BB_REDUCE_DIGITS
        w = (hi - lo) / strata
        digits = rng.randint(int(lo + stratum * w), int(lo + (stratum + 1) * w) - 1)
        a = rng.randrange(10 ** (digits - 1), 10**digits)
        b = rng.randint(-a + 1, a)
        c = a + rng.randrange(10 ** (digits - 1))
        gram = _gram(a, b, c)
        for _ in range(rng.randint(2, 4)):
            t = rng.randint(1, 10**6) * rng.choice((-1, 1))
            gram = _change_basis(gram, [[0, 1], [1, t]])  # keeps the lattice, unreduces it
        argv = ("lattice", "reduce", "--gram", json.dumps(gram))
        return Op(kind, argv, _key(argv, {}), frozenset(), {"gram": gram})
    if kind == "overlattices":
        m = BB_OVERLATTICE_INDICES[stratum]
        target = decks.m_torsion[m].draw()
        gram = _sublattice_gram(rng, m)
        while m_torsion(gram, m) != target:
            gram = _sublattice_gram(rng, m)
        argv = ("lattice", "overlattices", "--gram", json.dumps(gram), "--index", str(m))
        det = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
        props = frozenset({SQUARE_FACTOR})  # m^2 | det by construction
        return Op(kind, argv, _key(argv, {}), props, {"gram": gram, "index": m, "det": det})
    if kind == "fiber":
        n = _stratum_draw(rng, *BB_FIBER_N, stratum, strata)
        argv = ("fiber", "info", f"I{n}")
        return Op(kind, argv, _key(argv, {}), frozenset(), {"n": n})
    raise ValueError(kind)


def _sublattice_gram(rng: random.Random, m: int) -> list[list[int]]:
    """An even positive-definite Gram with m^2 | det: an index-m sublattice of a random integral lattice.

    The ambient lattice is even half of the time, so some draws have an
    even overlattice of index m and some have none.
    """
    while True:
        a, c = rng.randint(1, 12), rng.randint(1, 12)
        b = rng.randint(-min(a, c), min(a, c))
        ambient = [[a, b], [b, c]] if rng.random() < 0.5 else [[2 * a, b], [b, 2 * c]]
        if ambient[0][0] * ambient[1][1] - b * b <= 0:
            continue
        m1 = rng.choice(_divisors(m))
        m2 = m // m1
        k = rng.randrange(m2) if m2 > 1 else 0
        gram = _change_basis(ambient, [[m1, 0], [k, m2]])
        if gram[0][0] % 2 == 0 and gram[1][1] % 2 == 0:
            return gram


def building_block_stream(seed: int):
    rng = random.Random(f"building-blocks/{seed}")
    decks = BuildingBlockDecks(rng)
    while True:
        block = [(kind, s) for kind, strata in BB_STRATA.items() for s in range(strata)]
        rng.shuffle(block)
        for kind, stratum in block:
            yield building_block_op(rng, decks, kind, stratum)


def stream(workload: str, seed: int, workdir: Path):
    """The op stream of a workload; `workdir` receives generated input files."""
    if workload == "bundled":
        return bundled_stream(seed)
    if workload == "certificates":
        return certificate_stream(seed, workdir)
    if workload == "building-blocks":
        return building_block_stream(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
