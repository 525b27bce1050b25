"""Exact references over Q(zeta_n) for the basis layer, which reads E[n]
at one auxiliary prime: the Weil pairing by Miller's loop over L with its
auxiliary-point pool, the discrete log of a root of unity, the
coordinate-wise Galois action on points, and the basis, table and Galois
matrices built from them.  Slow, and independent of the F_p code."""

from period_index.cyclo import CycloElem, context, galois_apply
from period_index.ecq import torsion_pool


class Collision(ArithmeticError):
    """The evaluation point meets a zero or a pole of a Miller function."""


def _line(cv, V, W, X):
    """(line through V and W, vertical at V + W) evaluated at X, as
    numerator and denominator, and V + W; V, W affine."""
    chord = cv.chord(V, W)
    if chord is None:  # W = -V: the vertical through V, and V + W = O
        return X[0] - V[0], CycloElem.rational(cv.n, 1), None
    lam, nu = chord
    S = cv._third(V, W, chord)
    return X[1] - lam * X[0] - nu, X[0] - S[0], S


def miller(cv, n: int, P, X) -> tuple:
    """f(X) as (numerator, denominator), div f = n(P) - n(O), by Miller's
    double-and-add loop over L; raises Collision when a factor vanishes."""
    if X is None:
        raise Collision("evaluation at infinity")
    one = CycloElem.rational(cv.n, 1)
    num, den, V = one, one, P
    for bit in bin(n)[3:]:
        for W in (None, P) if bit == "1" else (None,):
            if W is None:
                num, den = num * num, den * den
                W = V
            if V is None:  # kP = O already: the lines left cancel
                V = W
                continue
            a, b, V = _line(cv, V, W, X)
            if a.is_zero() or b.is_zero():
                raise Collision("line or vertical through the evaluation point")
            num, den = num * a, den * b
    if V is not None:
        raise ValueError("point is not %d-torsion" % n)
    return num, den


def weil_pairing(cv, n: int, P, Q, pool) -> CycloElem:
    """e_n(P, Q) exactly, with auxiliary points drawn from the pool in
    order until the four Miller evaluations avoid zeros and poles."""
    if P is None or Q is None or P == Q:
        return CycloElem.rational(cv.n, 1)
    if n == 2:
        return CycloElem.rational(cv.n, -1)
    for R in pool:
        try:
            a = miller(cv, n, P, cv.add(Q, R))
            b = miller(cv, n, Q, cv.neg(R))
            c = miller(cv, n, P, R)
            d = miller(cv, n, Q, cv.add(P, cv.neg(R)))
        except Collision:
            continue
        return (a[0] * b[0] * c[1] * d[1]) / (a[1] * b[1] * c[0] * d[0])
    raise ArithmeticError("auxiliary pool exhausted")


def zeta_dlog(value: CycloElem, n: int) -> int:
    """k with value = (zeta of exact order n)^k, inside level value.n."""
    z, step = CycloElem.rational(value.n, 1), CycloElem.zeta(value.n, value.n // n)
    for k in range(n):
        if z == value:
            return k
        z = z * step
    raise ValueError("not an n-th root of unity: %r" % (value,))


def galois_point(cv, t: int, P):
    """sigma_t applied coordinate-wise; the model must be rational."""
    assert cv.is_rational_model()
    return None if P is None else (galois_apply(P[0], t), galois_apply(P[1], t))


def reference_basis(cv, n: int, S, T) -> tuple:
    """(T', table) with T' = u^-1 * T for e_n(S, T) = zeta^u, and the
    table L-point -> (i, j) for i*S + j*T' over all of E[n]."""
    pool = torsion_pool(cv, S, T, n)
    assert len(set(pool)) == n * n
    u = zeta_dlog(weil_pairing(cv, n, S, T, pool), n)
    inv = pow(u, -1, n)
    table = {P: (k // n, (k % n) * u % n) for k, P in enumerate(pool)}
    return pool[inv], table


def reference_representation(cv, n: int, S, T, table) -> dict:
    """t -> ((i, j), (k, l)) with sigma_t(S) = i*S + k*T and
    sigma_t(T) = j*S + l*T, read in the exact table."""
    rep = {}
    for t in context(n).units:
        i, k = table[galois_point(cv, t, S)]
        j, l = table[galois_point(cv, t, T)]
        rep[t] = ((i, j), (k, l))
    return rep
