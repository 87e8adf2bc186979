"""Kodaira fiber catalog.

One table gives, per fixed fiber type, the Euler number, the component
count, the type, rank and discriminant of the root lattice spanned by the
non-identity components, the denominators that local height
contributions can produce, and the image under a quadratic base change
ramified at the fiber; the I_n and I_n* series follow closed-form rules.
These are closed forms (Schuett-Shioda, Mordell-Weil Lattices, ch. 5-6):
no Gram matrix is built.
"""

from __future__ import annotations

import math

from .lattice import FrozenRecord

_PARAMETRIC_KINDS = ("I", "I*")


class FiberProfile(FrozenRecord):
    """Component-level data of a fiber inside the Neron-Severi lattice.

    root_type is the Dynkin type, None when there is no root lattice;
    root_rank is components - 1; odd_multiplicity_components is set for
    star fibers only.
    """

    __slots__ = (
        "euler", "components", "root_type", "root_rank", "root_disc",
        "odd_multiplicity_components", "contribution_denominators",
    )


# Fixed kind -> (its profile, the token of its image under a ramified
# quadratic base change).  Profiles are immutable, so fiber_profile hands
# out these shared records.  Star images come from the published table;
# non-star images follow from the doubled vanishing order (see
# base_change_source).
_CATALOG = {
    "II": (FiberProfile(2, 1, None, 0, 1, None, frozenset({1})), "IV"),
    "III": (FiberProfile(3, 2, "A", 1, 2, None, frozenset({1, 2})), "I0*"),
    "IV": (FiberProfile(4, 3, "A", 2, 3, None, frozenset({1, 3})), "IV*"),
    "IV*": (FiberProfile(8, 7, "E", 6, 3, 4, frozenset({1, 3})), "IV"),
    "III*": (FiberProfile(9, 8, "E", 7, 2, 4, frozenset({1, 2})), "I0*"),
    "II*": (FiberProfile(10, 9, "E", 8, 1, 4, frozenset({1})), "IV*"),
}


# Largest n accepted in an I_n or I_n* token.  The I_n height denominators
# are the divisors of n, found by trial division up to sqrt(n), and a
# base change turns I_n* into I_2n; at this limit that is at most
# 1.5 * 10^6 divisions (under 0.1 s on a 2-vCPU x86-64 VM).
MAX_FIBER_N = 10**12


class FiberTokenError(ValueError):
    """Unrecognized Kodaira fiber token."""


class KodairaFiber(FrozenRecord):
    """A Kodaira fiber type: kind in {I, I*, II, III, IV, II*, III*, IV*}.

    The multiplicity parameter n is present exactly for the I and I*
    series (n >= 0), else None; only `fiber` and `quadratic_base_change_fiber` build one.
    """

    __slots__ = ("kind", "n")

    @property
    def token(self) -> str:
        if self.kind == "I":
            return f"I{self.n}"
        if self.kind == "I*":
            return f"I{self.n}*"
        return self.kind

    def __str__(self) -> str:
        return self.token

    def __repr__(self) -> str:
        return f"fiber({self.token!r})"


def fiber(token: str) -> KodairaFiber:
    """Parse a fiber token: 'I0', 'I12', 'I0*', 'II', 'III*', 'IV*', ..."""
    if token in _CATALOG:
        return KodairaFiber(token, None)
    # Parametric series; note 'II*' is fixed while 'I1*' is parametric.
    if token.startswith("I") and len(token) > 1:
        body, star = (token[1:-1], True) if token.endswith("*") else (token[1:], False)
        if body.isascii() and body.isdigit() and (body == "0" or body[0] != "0"):
            # Digit count first: int() of a huge digit string is slow or refused.
            if len(body) > len(str(MAX_FIBER_N)) or int(body) > MAX_FIBER_N:
                raise FiberTokenError(
                    f"fiber token {token!r}: n exceeds the limit {MAX_FIBER_N}"
                )
            return KodairaFiber("I*" if star else "I", int(body))
    raise FiberTokenError(f"unrecognized fiber token {token!r}")


def is_star(f: KodairaFiber) -> bool:
    return f.kind.endswith("*")


def euler_number(f: KodairaFiber) -> int:
    if f.kind == "I":
        return f.n
    if f.kind == "I*":
        return 6 + f.n
    return _CATALOG[f.kind][0].euler


def quadratic_base_change_fiber(f: KodairaFiber) -> KodairaFiber:
    """Fiber type over a branch point of a quadratic base change."""
    if f.kind in _PARAMETRIC_KINDS:
        return KodairaFiber("I", 2 * f.n)
    return fiber(_CATALOG[f.kind][1])


def base_change_source(f: KodairaFiber) -> str:
    """Provenance tag of the base-change image: 'paper' for the star rows
    of the published table, 'derived' for the rest."""
    return "paper" if is_star(f) else "derived"


def delta(f: KodairaFiber) -> int:
    """Euler defect of a ramified quadratic base change at this fiber.

    delta = (2 e(F) - e(F')) / 12; always 0 or 1, and 1 exactly for the
    star fibers.
    """
    return 1 if is_star(f) else 0


def _divisors(n: int) -> frozenset[int]:
    """Divisors of n >= 1, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return frozenset(small + [n // d for d in small])


def fiber_profile(f: KodairaFiber) -> FiberProfile:
    n = f.n
    if f.kind == "I":
        if n < 2:
            return FiberProfile(n, 1, None, 0, 1, None, frozenset({1}))
        return FiberProfile(n, n, "A", n - 1, n, None, _divisors(n))
    if f.kind == "I*":
        denoms = frozenset({1, 2} if n == 0 else {1, 2, 4})
        return FiberProfile(6 + n, 5 + n, "D", 4 + n, 4, 4, denoms)
    return _CATALOG[f.kind][0]
