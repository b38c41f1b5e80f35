"""Chain-condition verdicts.

verdicts() reads facts off the block layout, a BlockShape: the algebra
of a groupoid with finitely many orbits is a finite product of matrix
algebras M_n(R[G]) over isotropy group algebras, one block per orbit,
so

  * Noetherian  iff the coefficient ring is Noetherian and every
    isotropy group algebra is (finite groups: module-finite transfer;
    infinite cyclic: Laurent polynomials, Hilbert basis theorem);
  * Artinian    iff the coefficient ring is Artinian and every isotropy
    group is finite (Connell's theorem for group rings);
  * semisimple  iff the coefficient ring is a finite product of fields
    none of whose characteristics divides any isotropy order
    (Maschke's theorem), with all isotropy finite.

The certified semisimplicity oracle that checks the last of these
verdicts independently lives in `oracle`.
"""
from __future__ import annotations

from .group_algebra import BlockShape, IntegerGroup
from .rings import render_ring_descriptor, ring_predicates
from .value import Value

CITE_BLOCK = "block reduction"
CITE_CONNELL = "Connell"
CITE_MASCHKE = "Maschke"
CITE_HILBERT = "Hilbert basis"


class Verdict(Value):
    __slots__ = ("noetherian", "artinian", "semisimple", "shape_string", "justification")


def verdicts(shape: BlockShape) -> Verdict:
    """The chain conditions of the block algebra shape, over shape.ring."""
    ring = shape.ring
    preds = ring_predicates(ring)
    rname = render_ring_descriptor(ring)
    shape_string = shape.render()
    groups = [group for _, group in shape.blocks]
    finite_orders = [group.size for group in groups if not isinstance(group, IntegerGroup)]
    infinite_isotropy = len(finite_orders) < len(groups)
    lines = [f"algebra decomposes as {shape_string} [{CITE_BLOCK}]"]

    noetherian = preds.noetherian
    if noetherian:
        line = (
            f"Noetherian: {rname} is Noetherian and each isotropy group algebra "
            f"over it is Noetherian [{CITE_BLOCK}]"
        )
        if infinite_isotropy:
            line += f"; infinite cyclic isotropy gives Laurent polynomial entries [{CITE_HILBERT}]"
        lines.append(line)
    else:
        lines.append(f"not Noetherian: {rname} is not Noetherian [{CITE_BLOCK}]")

    bad_char = None
    for p in sorted(preds.characteristics - {0}):
        for i, n in enumerate(finite_orders):
            if n % p == 0:
                bad_char = (p, i, n)
                break
        if bad_char:
            break

    artinian = preds.artinian and not infinite_isotropy
    if artinian:
        lines.append(
            f"Artinian: {rname} is Artinian and every isotropy group is finite [{CITE_CONNELL}]"
        )
    elif not preds.artinian:
        lines.append(f"not Artinian: {rname} is not Artinian [{CITE_CONNELL}]")
    else:
        lines.append(
            f"not Artinian: an orbit has infinite cyclic isotropy, so the arrow "
            f"space is infinite [{CITE_CONNELL}]"
        )

    semisimple = preds.field_product and not infinite_isotropy and bad_char is None
    if semisimple:
        chars = "{" + ",".join(str(c) for c in sorted(preds.characteristics)) + "}"
        lines.append(
            f"semisimple: {rname} is a finite product of fields with characteristics "
            f"{chars}, none dividing an isotropy order [{CITE_MASCHKE}]"
        )
    elif not preds.field_product:
        lines.append(
            f"not semisimple: {rname} is not a finite product of fields [{CITE_MASCHKE}]"
        )
    elif infinite_isotropy:
        lines.append(
            f"not semisimple: infinite cyclic isotropy, Laurent entries are never "
            f"semisimple [{CITE_MASCHKE}]"
        )
    else:
        p, i, n = bad_char
        lines.append(
            f"not semisimple: characteristic {p} divides the isotropy order {n} "
            f"of orbit {i} [{CITE_MASCHKE}]"
        )

    return Verdict(noetherian, artinian, semisimple, shape_string, tuple(lines))
