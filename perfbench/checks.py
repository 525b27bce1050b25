"""Independent checks of a certificate's claims, in plain integer arithmetic.

Nothing here calls ``period_index``: primes are tested by trial division,
norms by the explicit norm forms of Q, Q(zeta_3) and Q(i), and the
divisibility witnesses by this file's own group law on E(F_p).  Each check
returns a list of failures, empty when the certificate passes.
"""

from __future__ import annotations

from math import gcd, isqrt

NORM_LEVELS = (2, 3, 4)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    for d in range(3, isqrt(m) + 1, 2):
        if m % d == 0:
            return False
    return True


def _int(text) -> int:
    if not isinstance(text, str) or not text.lstrip("-").isdigit():
        raise ValueError("not a decimal integer string: %r" % (text,))
    return int(text)


def _ratio(text) -> tuple:
    """(num, den) of a decimal "a" or "a/b" string, den > 0."""
    if not isinstance(text, str):
        raise ValueError("not a rational string: %r" % (text,))
    num, _, den = text.partition("/")
    num, den = _int(num), _int(den) if den else 1
    if den <= 0:
        raise ValueError("bad denominator in %r" % text)
    return num, den


def norm(coords: list, level: int) -> int:
    """N(pi) for pi on the power basis of Q(zeta_level), level 2, 3 or 4."""
    c = [_int(x) for x in coords]
    if level == 2:
        (a,) = c
        return a
    a, b = c
    if level == 3:
        return a * a - a * b + b * b
    if level == 4:
        return a * a + b * b
    raise ValueError("no norm form at level %d" % level)


# ------------------------------------------------------ E(F_p), own group law


def reduce_coord(coords, root: int, p: int):
    """Image of a power-basis value under zeta -> root mod p; None when a
    denominator vanishes mod p."""
    if isinstance(coords, str):
        coords = [coords]
    acc, power = 0, 1
    for text in coords:
        num, den = _ratio(text)
        if den % p == 0:
            return None
        acc = (acc + num * pow(den, -1, p) * power) % p
        power = power * root % p
    return acc


class CurveModP:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p; None is O."""

    def __init__(self, a: list, p: int):
        self.a1, self.a2, self.a3, self.a4, self.a6 = a
        self.p = p

    def on_curve(self, P) -> bool:
        if P is None:
            return True
        x, y, p = P[0], P[1], self.p
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
        return (lhs - rhs) % p == 0

    def neg(self, P):
        if P is None:
            return None
        x, y = P
        return (x, (-y - self.a1 * x - self.a3) % self.p)

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if (y1 + y2 + self.a1 * x2 + self.a3) % p == 0:
                return None
            num = 3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1
            den = 2 * y1 + self.a1 * x1 + self.a3
        else:
            num, den = y2 - y1, x2 - x1
        lam = num * pow(den % p, -1, p) % p
        nu = (y1 - lam * x1) % p
        x3 = (lam * lam + self.a1 * lam - self.a2 - x1 - x2) % p
        y3 = (-(lam + self.a1) * x3 - nu - self.a3) % p
        return (x3, y3)

    def mul(self, k: int, P):
        acc = None
        while k:
            if k & 1:
                acc = self.add(acc, P)
            P = self.add(P, P)
            k >>= 1
        return acc


def _fp_point(raw, p: int):
    if raw is None or raw == "infinity":
        return None
    x, y = raw
    return (_int(x) % p, _int(y) % p)


# ------------------------------------------------------------------ checks


def check_summary(cert: dict) -> list:
    ctx, sm = cert["context"], cert["summary"]
    n, ell = _int(ctx["n"]), _int(ctx["ell"])
    period, index = _int(sm["period"]), _int(sm["index"])
    out = []
    if period != n:
        out.append("summary.period %d is not n = %d" % (period, n))
    if index != n * ell:
        out.append("summary.index %d is not n*ell = %d" % (index, n * ell))
    if period <= 0 or index % period or (period * period) % index:
        out.append("summary: period %d does not divide index %d dividing period^2" % (period, index))
    return out


def check_primes(cert: dict) -> list:
    level = _int(cert["route"]["construction_level"])
    pair = cert["pair"]
    out = []
    ps = []
    for side in ("first", "second"):
        p = _int(pair[side]["p"])
        ps.append(p)
        if not is_prime(p):
            out.append("pair.%s.p %d is not prime" % (side, p))
        if p % level != 1:
            out.append("pair.%s.p %d is not split at level %d" % (side, p, level))
        place = pair[side]["place"]
        root = _int(place["root"])
        if _int(place["p"]) != p or _int(place["level"]) != level:
            out.append("pair.%s.place does not sit over p = %d at level %d" % (side, p, level))
        elif not _exact_order(root, level, p):
            out.append("pair.%s.place.root %d is not a primitive %d-th root mod %d" % (side, root, level, p))
    if ps[0] == ps[1]:
        out.append("pair: both primes are %d" % ps[0])
    return out


def _exact_order(root: int, level: int, p: int) -> bool:
    if pow(root, level, p) != 1:
        return False
    return all(pow(root, level // q, p) != 1 for q in range(2, level + 1) if level % q == 0 and is_prime(q))


def check_norms(cert: dict) -> list:
    level = _int(cert["route"]["construction_level"])
    out = []
    for side in ("first", "second"):
        side_obj = cert["pair"][side]
        p = _int(side_obj["p"])
        if level not in NORM_LEVELS:
            out.append("pair.%s.pi: no norm form at level %d" % (side, level))
            continue
        nm = norm(side_obj["pi"], level)
        if abs(nm) != p:
            out.append("pair.%s.pi: |N(pi)| = %d, not p = %d" % (side, abs(nm), p))
    return out


def check_witnesses(cert: dict) -> list:
    curve = cert["inputs"]["curve"]
    first = cert["pair"]["first"]
    p, root = _int(first["p"]), _int(first["place"]["root"])
    div = first["conditions"]["generators_divisible"]
    target = _int(div["level"])
    coeffs = [reduce_coord(c, root, p) for c in curve["coefficients"]]
    if None in coeffs:
        return ["inputs.curve.coefficients: not integral at p = %d" % p]
    E = CurveModP(coeffs, p)
    gens = curve["mw_generators"]
    out = []
    seen = set()
    for idx_text, raw in div["witnesses"]:
        idx = _int(idx_text)
        seen.add(idx)
        W = _fp_point(raw, p)
        if not E.on_curve(W):
            out.append("witness %d: %r is not on E mod %d" % (idx, raw, p))
            continue
        g = gens[idx]
        gx, gy = reduce_coord(g["x"], root, p), reduce_coord(g["y"], root, p)
        gbar = None if gx is None or gy is None else (gx, gy)
        if E.mul(target, W) != gbar:
            out.append("witness %d: %d*W != reduced generator mod %d" % (idx, target, p))
    if seen != set(range(len(gens))):
        out.append("witnesses cover generators %r of %d" % (sorted(seen), len(gens)))
    return out


def check_invariants(cert: dict) -> list:
    """The target-level invariants recorded over the pair sum to 0 in Q/Z."""
    rows = cert["obstruction"]["descended_rows"]
    pair_ps = {_int(cert["pair"][s]["p"]) for s in ("first", "second")}
    if {_int(r["p"]) for r in rows} != pair_ps:
        return ["obstruction.descended_rows do not cover the pair %r" % sorted(pair_ps)]
    fracs = [_ratio(r["invariant"]) for r in rows]
    den = 1
    for _, d in fracs:
        den = den * d // gcd(den, d)
    total = sum(k * (den // d) for k, d in fracs)
    if total % den:
        return ["obstruction.descended_rows sum to %d/%d, not 0 in Q/Z" % (total % den, den)]
    return []


PRIME_POWER_CHECKS = (check_summary, check_primes, check_norms, check_witnesses, check_invariants)


def check_composite(cert: dict) -> list:
    parts = cert["parts"]
    periods = [_int(pt["summary"]["period"]) for pt in parts]
    indices = [_int(pt["summary"]["index"]) for pt in parts]
    sm = cert["summary"]
    out = []
    prod_p, prod_i = 1, 1
    for a, b in zip(periods, indices):
        prod_p, prod_i = prod_p * a, prod_i * b
    if _int(sm["period"]) != prod_p:
        out.append("summary.period %s is not the product %d of the parts" % (sm["period"], prod_p))
    if _int(sm["index"]) != prod_i:
        out.append("summary.index %s is not the product %d of the parts" % (sm["index"], prod_i))
    for i in range(len(periods)):
        for j in range(i + 1, len(periods)):
            if gcd(periods[i], periods[j]) != 1:
                out.append("parts[%d] and parts[%d] have periods sharing a factor" % (i, j))
    return out


def check_certificate(cert: dict) -> list:
    """Every independent check that applies to the certificate's kind.

    A certificate too malformed to read fails with the reason."""
    try:
        if cert.get("kind") == "composite":
            out = check_composite(cert)
            for i, part in enumerate(cert["parts"]):
                out += ["parts[%d]: %s" % (i, m) for m in check_certificate(part)]
            return out
        if cert.get("kind") != "prime-power":
            return ["kind %r has no independent checks" % (cert.get("kind"),)]
        out = []
        for check in PRIME_POWER_CHECKS:
            out += check(cert)
        return out
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return ["unreadable certificate: %s: %s" % (type(e).__name__, e)]
