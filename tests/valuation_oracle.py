"""The norm-bounded valuation oracle for localfield.valuation_and_unit.

localfield reads a valuation off residues modulo p^k at the lifted root,
doubling k until the residue is nonzero.  This module fixes the precision
in advance instead: ord_p of the absolute norm of the integral y = d*x
bounds v(y) at any place over p, so one evaluation modulo p^(vmax + 1)
decides it.  It shares the lifted root with the code under test, not
the precision rule."""

from period_index.cyclo import CycloElem, field_norm, lifted_root
from period_index.localfield import Place, _p_adic_split


def valuation_and_unit(x: CycloElem, place: Place) -> tuple:
    """(v, u): the valuation of x at the place and the residue of x / p^v."""
    if x.is_zero():
        raise ZeroDivisionError("valuation of zero")
    p = place.p
    d = x.den
    y = x * d
    vmax, _ = _p_adic_split(int(field_norm(y).numerator), p)
    modulus = p ** (vmax + 1)
    root = lifted_root(x.n, p, place.omega, vmax + 1)
    e = sum(c * pow(root, i, modulus) for i, c in enumerate(y.num)) % modulus
    if e == 0:
        raise ArithmeticError("valuation exceeded its norm bound")
    vy, _ = _p_adic_split(e, p)
    dk, du = _p_adic_split(d, p)
    return vy - dk, (e // p**vy) % p * pow(du, -1, p) % p
