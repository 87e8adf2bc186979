"""Relatively minimal elliptic surfaces described by their singular fibers.

A configuration is the base-curve genus plus a labelled list of singular
fibers.  Numerical invariants follow from the Euler number; a quadratic
base change transforms the configuration and is accounted for point by
point, including the Euler defect contributed by star fibers.
"""

from __future__ import annotations

from .kodaira import (
    KodairaFiber,
    base_change_source,
    delta as fiber_delta,
    euler_number,
    is_star,
    quadratic_base_change_fiber,
)
from .lattice import FrozenRecord


class SurfaceError(ValueError):
    """A configuration that the operation cannot carry."""


class SurfaceConfig(FrozenRecord):
    """Genus of the base curve plus the labelled singular fibers."""

    __slots__ = ("name", "base_genus", "fibers")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.fibers)

    def euler_total(self) -> int:
        return sum(euler_number(f) for _, f in self.fibers)

    def fiber_tokens(self) -> tuple[str, ...]:
        """Sorted multiset of fiber tokens, for comparisons."""
        return tuple(sorted(f.token for _, f in self.fibers))


class SurfaceInvariants(FrozenRecord):
    """extrapolated: the formulas are stretched outside their usual range (d = 0)."""

    __slots__ = ("e", "d", "p_g", "q", "b1", "b2", "h11", "kind", "extrapolated")


def invariants(config: SurfaceConfig) -> SurfaceInvariants:
    """Numerical invariants from the Euler number and the base genus.  Only
    a seed can fail 12 | e: a cover of an e = 24 seed has e = 48 - 12 delta."""
    e = config.euler_total()
    if e % 12 != 0:
        raise SurfaceError(f"config.fibers: total Euler number {e} is not divisible by 12")
    d = e // 12
    g = config.base_genus
    p_g = d + g - 1
    q = g
    b1 = 2 * q
    b2 = e - 2 + 2 * b1
    h11 = b2 - 2 * p_g
    if g == 0 and d == 1:
        kind = "rational-elliptic"
    elif g == 0 and d == 2:
        kind = "K3"
    elif g == 1 and d == 1:
        kind = "elliptic-elliptic"
    elif d == 0:
        kind = "trivial-family-abelian"
    else:
        kind = "other"
    return SurfaceInvariants(e, d, p_g, q, b1, b2, h11, kind, d == 0)


class BranchSpec(FrozenRecord):
    """Even-cardinality set of branch point labels for a double cover."""

    __slots__ = ("labels",)

    def sorted_labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.labels))


class BranchPointRecord(FrozenRecord):
    """One row of the base-change log.

    source_token is None for a fresh smooth branch point; images are
    (new label, fiber token) pairs; table_source is 'paper', 'derived'
    or 'trivial'.
    """

    __slots__ = ("label", "source_token", "branched", "star", "images", "delta", "table_source")


class BaseChangeResult(FrozenRecord):
    __slots__ = ("config", "delta", "euler_before", "euler_after", "d_before", "d_after", "log")


def quadratic_base_change(
    config: SurfaceConfig, branch: BranchSpec, *, name: str | None = None
) -> BaseChangeResult:
    """Double cover of the base, ramified exactly over the branch labels.

    Branched fibers are replaced by their base-change image (smooth
    images disappear from the list); unbranched fibers appear twice with
    suffixed labels.  Branch labels that name no fiber are fresh smooth
    points.  The Euler defect is the number of branched star fibers.  An
    error names the field of the `config` or `branch` document at fault:
    a base genus the cover would make negative, or a branched fiber whose
    label is that of a copy of an unbranched one.
    """
    fresh = sorted(branch.labels - set(config.labels()))
    g = config.base_genus
    g_new = 2 * g - 1 + len(branch.labels) // 2
    if g_new < 0:
        raise SurfaceError(
            "branch.branch: a double cover of a genus-0 base needs at least two branch points"
        )

    new_fibers: list[tuple[str, KodairaFiber]] = []
    log: list[BranchPointRecord] = []
    total_delta = 0
    for label, f in config.fibers:
        if label in branch.labels:
            image = quadratic_base_change_fiber(f)
            d = fiber_delta(f)
            total_delta += d
            images: tuple[tuple[str, str], ...]
            if image.kind == "I" and image.n == 0:
                images = ()
            else:
                new_fibers.append((label, image))
                images = ((label, image.token),)
            log.append(
                BranchPointRecord(label, f.token, True, is_star(f), images, d, base_change_source(f))
            )
        else:
            first, second = f"{label}.1", f"{label}.2"
            new_fibers.append((first, f))
            new_fibers.append((second, f))
            log.append(
                BranchPointRecord(
                    label, f.token, False, is_star(f), ((first, f.token), (second, f.token)), 0,
                    "trivial",
                )
            )
    for label in fresh:
        log.append(BranchPointRecord(label, None, True, None, (), 0, "trivial"))

    # The config's labels are distinct, so only a copy 'L.1' or 'L.2' of an
    # unbranched fiber L can repeat a label: that of a branched fiber, whose
    # image keeps its label.
    seen: set[str] = set()
    for label, _f in new_fibers:
        if label in seen:
            raise SurfaceError(
                f"config.fibers[{config.labels().index(label)}].label: {label!r} is also the label "
                f"of a copy of the unbranched fiber {label.rsplit('.', 1)[0]!r}; "
                "fiber labels must be distinct"
            )
        seen.add(label)
    new_config = SurfaceConfig(
        name if name is not None else f"{config.name}^(2)", g_new, tuple(new_fibers)
    )
    e_before = config.euler_total()
    d_before = e_before // 12 if e_before % 12 == 0 else None
    d_after = None if d_before is None else 2 * d_before - total_delta
    e_after = new_config.euler_total()
    return BaseChangeResult(new_config, total_delta, e_before, e_after, d_before, d_after, tuple(log))
