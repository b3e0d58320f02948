"""Rational R-matrices built on the split-Casimir eigenprojectors.

Sector families act on the tensor square of one half-spinor space and are
fixed, up to normalization, by the ratio constraints between neighbouring
eigenprojector coefficients.  The full family acts on the tensor square of
the reducible 2^r spinor space as a series in the antisymmetrized gamma
invariants, with coefficients generated by a two-step recurrence.

Each family has one representation, its cleared degree parts: with
R(u) = sum_a c_a(u) M_a for rational c_a and parameter-free M_a, and Q the
lcm of the denominators of the c_a, Q(u) R(u) = sum_d u^d S_d.  For a sector
family the M_a are the eigenprojectors and the c_a the taus; Q is built from
the taus alone, so its roots, the family's poles, are known before any
projector.  The full series has polynomial coefficients (Q = 1), and its
parts are those of its even and odd invariants added degree by degree.  A
matrix at a point is sum_d u^d/Q(u) S_d, and every check reads these parts.

Unitarity, swap symmetry, the chirality split and the factorization of the
even part are identities in u, decided on the u^n coefficients of their
cleared sides; only the braid grids and the plain spot check sample points.
The scalar identities in u (the tau ratios, the large-u limits and the
coefficient recurrence) are polynomial identities too: a coefficient is a
pair (num, den) of ``Poly``, and a/b = c/d is decided as a d = c b.

Both braid identities are decided on Clifford monomial classes.  On
V (x) V (x) V put x_a = G_a (x) G_a (x) 1 and y_a = 1 (x) G_a (x) G_a.  By
the Clifford relations the x_a commute, the y_a commute, all square to 1,
and x_a y_b = -y_b x_a for a != b, so each product of them is +-x_A y_B =
G_A (x) +-G_(A delta B) (x) G_B.  As tr G_C = 0 for nonempty C, the 4^r
products G_C are a basis of End V, so the x_A y_B are linearly independent.
A family sum_j chi_j(u) e_j(g), g_a = G_a (x) G_a, has R12 = sum_j chi_j
e_j(x) and R23 = sum_j chi_j e_j(y).  By the generating functions
prod_a (1 + s x_a), the x_A y_B coefficient of R12(u) R23(u+v) R12(v) is
L(n) = chi_b(u+v) sum_ik F_ik (-1)^(b k) chi_i(u) chi_k(v), b = |B|, with
F_ik the s^i t^k coefficient of (s-t)^n11 (s+t)^n10 (1-st)^n01 (1+st)^n00:
it depends only on the class n = (|A & B|, |A - B|, |B - A|, rest).  The
right side's is L(swap n), swap n = (n11, n01, n10, n00), so the equation
holds exactly when L(n) = L(swap n) for n10 < n01, polynomial identities
in (u, v) on integer coefficients (the equation is cubic in R, so clearing
denominators is harmless).  The full series has chi_j = c_j.

A sector family is the block of its class lift X = sum_k tau_k (Pi_(r-2k) +
Pi_(r+2k)), Pi_m = 4^-r sum_j K_m(j) e_j(g) the projector on the Bell
vectors of class m, K_m(j) a Krawtchouk value.  X is even in the g_a, so
with s = (-1)^r, (LHS - RHS)(1 + s x_[2r])(1 + s y_[2r]) = 0 says that the
equation holds on Delta_+^(x)3 and on Delta_-^(x)3; on classes it adds to
each d(n) = L(n) - L(swap n) its complements in A, in B and in both.  The
premise: the Clifford relations, tr G_C = 0 and, for the sector families,
that each equals the lift on its block.  A grid point passes when every
nonzero class difference vanishes there, and no point forms a matrix.

The plain form R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u) is the braid
equation at (v, u) once the braid family is P times the plain one, which is
checked as an identity in u.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, lcm

from . import oracles
from .casimir import invariant_I, sector_indices, split_casimir_rho
from .clifford import build_gamma, integrity_report, product_trace_failures
from .linalg import ExactMatrix, kron_sum, lincomb, permutation_operator
from .ratfunc import Poly, limit_at_infinity, rising_factorial
from .records import PASS, VerificationRecord, mismatch
from .scalar import Rat
from .spectra import c2k_eigenvalue, rho_projectors, sector_spectral

FORMS = ("plain", "braid")


def tau_coefficient(k: int, form: str = "plain") -> tuple[Poly, Poly]:
    """Coefficient (num, den) of the projector with label r - 2k, the same
    at every rank r.

    Plain form: product over m = 1..k of (u - (2m-1)) / (u + (2m-1)); the
    braid form carries an extra (-1)^k from the swap eigenvalue.
    """
    if form not in FORMS:
        raise ValueError(f"unknown form {form!r}")
    num = Poly.const(1)
    den = Poly.const(1)
    for m in range(1, k + 1):
        num = num * Poly([-(2 * m - 1), 1])
        den = den * Poly([2 * m - 1, 1])
    if form == "braid" and k % 2:
        num = -num
    return num, den


class RMatrixFamily:
    """R(u) = sum_d u^d/q(u) parts[d]: one family with the denominators of
    its coefficients cleared by their lcm q, so the parts are parameter-free.
    """

    __slots__ = ("q", "parts")

    def __init__(self, q: Poly, parts: tuple[ExactMatrix, ...]):
        self.q, self.parts = q, parts

    def evaluate(self, u) -> ExactMatrix:
        u = Rat(u)
        scale = 1 / self.q(u)
        return lincomb(self.parts[0].dim, [(scale * u**d, part) for d, part in enumerate(self.parts)])


def _degree_parts(dim: int, terms) -> tuple[ExactMatrix, ...]:
    """sum_t p_t(u) M_t collected by degree, for terms (p_t, M_t) with
    polynomials p_t and parameter-free M_t: part d is sum_t [u^d]p_t M_t, up
    to the highest degree of the p_t, so no coefficient is cut off.
    """
    degree = max(p.degree for p, _ in terms)
    return tuple(lincomb(dim, [(p.coeffs[d], m) for p, m in terms if d <= p.degree]) for d in range(degree + 1))


def _cleared_family(dim: int, q: Poly, terms) -> RMatrixFamily:
    """The family sum_a c_a(u) M_a, for terms ((num_a, den_a), M_a) with
    c_a = num_a/den_a and every den_a dividing q: its parts are the degree
    parts of q(u) sum_a c_a(u) M_a.  A den_a that does not divide q is
    refused, naming its coefficient.
    """
    for a, ((_, den), _) in enumerate(terms):
        if not q.divmod(den)[1].is_zero():
            raise ValueError(f"the denominator {den} of coefficient {a} does not divide q = {q}")
    return RMatrixFamily(q=q, parts=_degree_parts(dim, [(num * q.divmod(den)[0], m) for (num, den), m in terms]))


def _degree_checks(record: VerificationRecord, prefix: str, lhs, rhs) -> None:
    """One check per power u^n of two sides given by their degree parts, up
    to the higher degree; a part missing on one side is zero.
    """
    zero = ExactMatrix.zero(lhs[0].dim)
    for n, (a, b) in enumerate(zip_longest(lhs, rhs, fillvalue=zero)):
        record.add_equal(f"{prefix}{n}", a, b)


def tau_denominator(r: int) -> Poly:
    """Q, the lcm of the tau denominators of a sector family: the family's
    poles are its roots.  It is built from the taus alone, no projector;
    the braid form only flips the sign of odd numerators, so it is the same.
    """
    q = Poly.const(1)
    for k in range(r // 2 + 1):
        _, den = tau_coefficient(k)
        q = q * den.divmod(q.gcd(den))[0]
    return q


def ybe_pole(q: Poly, u, v) -> bool:
    """True when u, v or u + v is a root of q, the cleared denominator of a
    family, so the braid equation at (u, v) is undefined.
    """
    return any(not q(x) for x in (u, v, u + v))


@lru_cache(maxsize=None)
def sector_r_matrix(r: int, eps: str, form: str = "plain") -> RMatrixFamily:
    """R(u) = sum_k tau_k(u) P_(r-2k) on the compressed block of the sector
    eps eps, built once per rank, chirality and form.  A bad eps is refused
    by the sector build before any operator is built.
    """
    if r < 2:
        raise ValueError("rank must be at least 2")
    projectors = sector_spectral(r, eps + eps).projectors
    terms = [(tau_coefficient(k, form), projectors[r - 2 * k]) for k in range(r // 2 + 1)]
    return _cleared_family(4 ** (r - 1), tau_denominator(r), terms)


# -- deterministic pole-free spectral grid ----------------------------------


def admissible_grid(r: int) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    """2r+3 values of u (thirds) and of v (sevenths), never integer.

    All coefficient poles sit at integers, and u + v = (7p + 3q)/21 is never
    an integer either, so every grid pair is admissible by construction.
    """
    count = 2 * r + 3
    us, p = [], 1
    while len(us) < count:
        if p % 3:
            us.append(Rat(p, 3))
        p += 1
    vs, q = [], 1
    while len(vs) < count:
        if q % 7:
            vs.append(Rat(q, 7))
        q += 1
    return tuple(us), tuple(vs)


# -- Yang-Baxter verification on Clifford monomial classes -----------------


@lru_cache(maxsize=None)
def _binomials(plus: int, minus: int) -> tuple[int, ...]:
    """The coefficients of (1 + w)^plus (1 - w)^minus, constant term first."""
    out = [1]
    for sign in [1] * plus + [-1] * minus:
        out = [x + sign * y for x, y in zip(out + [0], [0] + out)]
    return tuple(out)


def _classes(n: int):
    """Every class (n11, n10, n01, n00) of pairs of subsets of n indices."""
    for n11 in range(n + 1):
        for n10 in range(n + 1 - n11):
            for n01 in range(n + 1 - n11 - n10):
                yield n11, n10, n01, n - n11 - n10 - n01


def _add(terms) -> dict:
    """sum of c * p over the terms (c, p), for integers c and polynomials p
    in (u, v) as {(i, j): nonzero coefficient of u^i v^j}.
    """
    out: dict = {}
    for c, p in terms:
        for key, x in p.items():
            out[key] = out.get(key, 0) + c * x
    return {key: x for key, x in out.items() if x}


def _class_side(chi, shifted, n) -> dict:
    """L(n) = chi_b(u+v) sum_ik F_ik (-1)^(b k) chi_i(u) chi_k(v), with
    shifted[b] the terms of chi_b(u+v).  F = sum_pq h_p g_q s^(p+q) t^(a-p+q)
    for a = n11 + n10, with h_p t^(a-p) s^p the terms of (s-t)^n11 (s+t)^n10
    and g_q (st)^q those of (1-st)^n01 (1+st)^n00; each sum_i F_ik chi_i(u)
    is formed first.
    """
    n11, n10, n01, n00 = n
    a, b = n11 + n10, n11 + n01
    width = max(map(len, chi))
    rows: dict = {}
    for p, h in enumerate(_binomials(n10, n11)):  # (s - t)^n11 (s + t)^n10 up to (-1)^n11
        for q, g in enumerate(_binomials(n00, n01)):
            row = rows.setdefault(a - p + q, [0] * width)
            for x, c in enumerate(chi[p + q]):
                row[x] += h * g * c
    w = [[0] * width for _ in range(width)]
    for k, row in rows.items():
        sign = -1 if (n11 + b * k) % 2 else 1
        for x, cx in enumerate(row):
            if cx:
                wx = w[x]
                for y, cy in enumerate(chi[k]):
                    wx[y] += sign * cx * cy
    out = [[0] * (2 * width) for _ in range(2 * width)]
    for (x, y), c in shifted[b]:
        for x2, wx in enumerate(w):
            ox = out[x + x2]
            for y2, c2 in enumerate(wx):
                if c2:
                    ox[y + y2] += c * c2
    return {(x, y): c for x, ox in enumerate(out) for y, c in enumerate(ox) if c}


def _class_failures(chi, s=None):
    """(n, lhs, rhs) for each class n on which the sides of the braid equation
    of sum_j chi_j(u) e_j(g) differ, chi_j integer coefficient lists: with s
    None L(n) and L(swap n), n10 < n01; with s = (-1)^r the coefficients of
    LHS and RHS times (1 + s x_[2r])(1 + s y_[2r]), on every class.
    """
    shifted = [[((x, m - x), c * comb(m, x)) for m, c in enumerate(cs) if c for x in range(m + 1)] for cs in chi]
    side = lru_cache(maxsize=None)(lambda n: _class_side(chi, shifted, n))
    for n in _classes(len(chi) - 1):
        n11, n10, n01, n00 = n
        if s is None and n10 >= n01:
            continue
        terms = [(1, n)]
        if s is not None:  # the complements in A, in B and in both, with (-1)^|B|
            sign = -1 if (n11 + n01) % 2 else 1
            terms += [(s * sign, (n01, n00, n11, n10)), (s, (n10, n11, n00, n01)), (sign, (n00, n01, n10, n11))]
        lhs = _add((c, side(m)) for c, m in terms)
        rhs = _add((c, side((m[0], m[2], m[1], m[3]))) for c, m in terms)
        if lhs != rhs:
            yield n, lhs, rhs


def _class_label(n) -> str:
    """The class n and its smallest representative x_A y_B."""
    n11, n10, n01, _ = n
    a, b = range(1, n11 + n10 + 1), [*range(1, n11 + 1), *range(n11 + n10 + 1, n11 + n10 + n01 + 1)]
    return f"class (n11, n10, n01, n00) = {n}, x_A y_B with A = {{{str(list(a))[1:-1]}}}, B = {{{str(b)[1:-1]}}}"


@lru_cache(maxsize=None)
def _leg_premises(r: int) -> tuple[tuple[str, str], ...]:
    """(check id, witness or "") of the premises on the 2^r leg."""
    rep = build_gamma(r)
    failed = (f"{c.check_id}: {c.witness}" for c in integrity_report(rep).checks if c.status != PASS)
    traces = product_trace_failures(rep)
    return ("gamma-integrity", next(failed, "")), ("gamma-products-are-traceless", next(traces, ""))


class BraidClasses:
    """A family sum_j chi_j(u) e_j(g) with cleared denominator q: its braid
    identity record, nonzero class differences (n, {(i, j): u^i v^j
    coefficient}) and premise, the first failed premise witness or None.
    """

    __slots__ = ("q", "record", "premise", "diffs")

    def __init__(self, q: Poly, record: VerificationRecord, premise: str | None, diffs: tuple):
        self.q, self.record, self.premise, self.diffs = q, record, premise, diffs

    def grid(self, name: str, points) -> VerificationRecord:
        """One braid Yang-Baxter check per point (u, v).  A pole hit fails,
        and without the premise every other point fails with its witness.
        With it, Q(u) Q(u+v) Q(v) is not zero away from a pole, so a point
        fails exactly at the first class difference that does not vanish.
        """
        record = VerificationRecord(name=name)
        for u, v in points:
            u, v = Rat(u), Rat(v)
            check_id = f"point-u{u}-v{v}"
            if ybe_pole(self.q, u, v):
                record.add(check_id, False, "pole hit")
            elif self.premise is not None:
                record.add(check_id, False, self.premise)
            else:
                values = ((n, sum(c * u**i * v**j for (i, j), c in d.items())) for n, d in self.diffs)
                failed = (f"{_class_label(n)}: LHS - RHS, cleared, is {x} here" for n, x in values if x)
                record.add_first_failure(check_id, failed)
        return record


def _braid_classes(name: str, q: Poly, r: int, chi, s=None, lifts=()) -> BraidClasses:
    """The braid classes of sum_j chi_j(u) e_j(g), chi_j polynomials, with s
    as in ``_class_failures`` and lifts the (check id, failures) of the
    premise beyond the leg's.  A failure's witness is its class and the first
    u^i v^j coefficient of the cleared sides that differs, with both values.
    """
    record = VerificationRecord(name=name)
    premise = [record.add(check_id, not witness, witness) for check_id, witness in _leg_premises(r)]
    premise += [record.add_first_failure(check_id, failures) for check_id, failures in lifts]
    den = lcm(*(p.den for p in chi))
    failures = list(_class_failures([[c * (den // p.den) for c in p.ints] for p in chi], s))
    diffs = tuple((n, _add([(1, lhs), (-1, rhs)])) for n, lhs, rhs in failures)
    witnesses = (  # min(d) is the first u^i v^j coefficient on which the sides differ
        f"{_class_label(n)}: u^{i} v^{j} coefficient {lhs.get((i, j), 0)} != {rhs.get((i, j), 0)}"
        for (n, lhs, rhs), (_, d) in zip(failures, diffs)
        for i, j in [min(d)]
    )
    record.add_first_failure("both-sides-agree-on-every-class", witnesses)
    failed = (f"premise {check.check_id} fails: {check.witness}" for check in premise if check.status != PASS)
    return BraidClasses(q=q, record=record, premise=next(failed, None), diffs=diffs)


def grid_points(r: int) -> list:
    """Every pair (u, v) of the admissible grid."""
    us, vs = admissible_grid(r)
    return [(u, v) for u in us for v in vs]


def _krawtchouk(n: int, m: int, j: int) -> int:
    """K_m(j) = sum_i (-1)^i binom(j, i) binom(n - j, m - i)."""
    return sum((-1) ** i * comb(j, i) * comb(n - j, m - i) for i in range(min(j, m) + 1))


def _class_lift(r: int, coefficients) -> list[Poly]:
    """chi_j = sum_k p_k (K_(r-2k)(j) + K_(r+2k)(j)), k = 0 contributing K_r
    once, for the coefficients p_k of the labels r - 2k: 4^r times the
    coefficient of e_j(g) in X = sum_k p_k (Pi_(r-2k) + Pi_(r+2k)).
    """
    labels = [{r - 2 * k, r + 2 * k} for k in range(len(coefficients))]
    return [
        sum((p * sum(_krawtchouk(2 * r, m, j) for m in ms) for p, ms in zip(coefficients, labels)), Poly())
        for j in range(2 * r + 1)
    ]


def _lift_failures(r: int, eps: str, chi):
    """Witness against: each cleared degree part S_d of the braid sector
    family eps is 4^-r sum_j [u^d]chi_j e_j(g) on its block, entrywise.
    """
    family = sector_r_matrix(r, eps, "braid")
    dim, block = 4 ** (r - 1), sector_indices(r, eps + eps)
    terms = [(c, invariant_I(r, j).restrict(block) * Rat(1, 4**r * factorial(j))) for j, c in enumerate(chi) if c.ints]
    for d in range(max(len(family.parts), *(c.degree + 1 for c, _ in terms))):
        lift = lincomb(dim, [(c.coeffs[d], e) for c, e in terms if d <= c.degree])
        part = family.parts[d] if d < len(family.parts) else ExactMatrix.zero(dim)
        if witness := mismatch(part, lift):
            yield f"S_{d} is not its class lift: {witness}"


@lru_cache(maxsize=None)
def _sector_braid_classes(r: int) -> BraidClasses:
    """Both braid sector families, by their class lift with p_k = Q tau_k."""
    q = tau_denominator(r)
    taus = [tau_coefficient(k, "braid") for k in range(r // 2 + 1)]
    chi = _class_lift(r, [num * q.divmod(den)[0] for num, den in taus])
    lifts = [(f"family-is-its-class-lift-eps{eps}", _lift_failures(r, eps, chi)) for eps in "+-"]
    return _braid_classes(f"yang-baxter-identity r={r} eps=+- form=braid", q, r, chi, (-1) ** r, lifts)


def ybe_identity_check(r: int) -> VerificationRecord:
    """The braid equation of both sector families as an identity in (u, v)."""
    record = _sector_braid_classes(r).record
    return VerificationRecord(name=record.name, checks=list(record.checks))


def ybe_point(r: int, eps: str, u, v):
    """One braid Yang-Baxter point of a sector family; None signals a pole."""
    u, v = Rat(u), Rat(v)
    if ybe_pole(sector_r_matrix(r, eps, "braid").q, u, v):
        return None
    return ybe_check(r, [(u, v)]).ok


def ybe_check(r: int, points=None) -> VerificationRecord:
    """The braid Yang-Baxter equation of both sector families at the given
    points, by default the admissible grid, which is pole-free by
    construction, so a pole hit is a failure.  The classes decide both
    chiralities at once, so a point passes when the equation holds on both.
    """
    return _sector_braid_classes(r).grid(
        f"yang-baxter-grid r={r} eps=+- form=braid",
        grid_points(r) if points is None else points,
    )


def swap_relation_check(r: int, eps: str) -> VerificationRecord:
    """The braid family is P times the plain one, as an identity in u: the
    same Q clears both forms, so it holds exactly when each cleared degree
    part S_d of the braid form is P S_d of the plain form.
    """
    record = _swap_relation(r, eps)
    return VerificationRecord(name=record.name, checks=list(record.checks))


@lru_cache(maxsize=None)
def _swap_relation(r: int, eps: str) -> VerificationRecord:
    """The swap relation's record, built once per family and rank; callers
    read it and must not mutate it.
    """
    swap = permutation_operator(2 ** (r - 1))
    zero = ExactMatrix.zero(4 ** (r - 1))
    parts = zip_longest(sector_r_matrix(r, eps, "braid").parts, sector_r_matrix(r, eps, "plain").parts, fillvalue=zero)
    failures = (
        f"S_{d} of the braid form is not P S_{d} of the plain form: {witness}"
        for d, (braid, plain) in enumerate(parts)
        if (witness := mismatch(braid, swap @ plain))
    )
    record = VerificationRecord(name=f"swap-relation r={r} eps={eps}")
    record.add_first_failure("braid-parts-equal-swap-times-plain-parts", failures)
    return record


def plain_ybe_spot_check(r: int, eps: str, points) -> VerificationRecord:
    """R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u), decided as the braid
    point (v, u): given the swap relation, moving the swaps of the braid
    sides to the left leaves P12 P23 P12 = P13 times the plain sides.
    Without the relation every point fails with its witness.
    """
    points = [(Rat(u), Rat(v)) for u, v in points]
    record = VerificationRecord(name=f"plain-yang-baxter r={r} eps={eps}")
    [relation] = _swap_relation(r, eps).checks
    if relation.status == PASS:
        braid = _sector_braid_classes(r).grid(record.name, [(v, u) for u, v in points])
        outcomes = [(check.status == PASS, check.witness) for check in braid.checks]
    else:
        outcomes = [(False, relation.witness)] * len(points)
    for (u, v), (passed, witness) in zip(points, outcomes):
        record.add(f"point-u{u}-v{v}", passed, witness)
    return record


def unitarity_check(r: int, eps: str) -> VerificationRecord:
    """R12(u) R21(-u) = 1, with R21 = P R12 P, as an identity in u: with
    Q(u) R(u) = sum_d u^d S_d, the u^n coefficient of
    sum_de (-1)^e u^(d+e) S_d P S_e P is that of Q(u) Q(-u) times 1.
    """
    record = VerificationRecord(name=f"unitarity r={r} eps={eps}")
    family = sector_r_matrix(r, eps, "plain")
    dim = 4 ** (r - 1)
    swap = permutation_operator(2 ** (r - 1))
    swapped = [swap @ part @ swap for part in family.parts]
    products = [
        (Poly([0] * (d + e) + [(-1) ** e]), a @ b) for d, a in enumerate(family.parts) for e, b in enumerate(swapped)
    ]
    q_minus = Poly([c * (-1) ** d for d, c in enumerate(family.q.coeffs)])
    identity = _degree_parts(dim, [(family.q * q_minus, ExactMatrix.identity(dim))])
    _degree_checks(record, "coefficient-u^", _degree_parts(dim, products), identity)
    return record


def symmetry_check(r: int, eps: str) -> VerificationRecord:
    """R21(u) = R12(u) as an identity in u: conjugation by the swap fixes
    each cleared degree part, P S_d P = S_d.
    """
    record = VerificationRecord(name=f"swap-symmetry r={r} eps={eps}")
    parts = sector_r_matrix(r, eps, "plain").parts
    swap = permutation_operator(2 ** (r - 1))
    _degree_checks(record, "coefficient-u^", [swap @ part @ swap for part in parts], parts)
    return record


def asymptotic_check(r: int) -> VerificationRecord:
    """u (tau_{r-2k}(u) - 1) -> -2k^2 at large u, matching the split-Casimir
    eigenvalue difference 4(r-1)(c_{r-2k} - c_r) exactly.
    """
    record = VerificationRecord(name=f"large-u-asymptotics r={r}")
    for k in range(r // 2 + 1):
        num, den = tau_coefficient(k, "plain")
        limit = limit_at_infinity(Poly.x() * (num - den), den)  # u (num/den - 1)
        record.add_equal(f"limit-k{k}", limit, Rat(-2 * k * k))
        diff = 4 * (r - 1) * (c2k_eigenvalue(r, r - 2 * k) - c2k_eigenvalue(r, r))
        record.add_equal(f"casimir-difference-k{k}", diff, Rat(-2 * k * k))
    return record


def tau_ratio_constraints(r: int) -> VerificationRecord:
    """Neighbouring coefficient ratios tau_(l+2)/tau_l = (u + d)/(u - d),
    d = r - 1 - l, as polynomial identities, cross-multiplied; and the
    unscaled form recovered from independent quadratic-Casimir values.
    """
    record = VerificationRecord(name=f"coefficient-ratio-constraints r={r}")
    coeffs = {r - 2 * k: tau_coefficient(k, "plain") for k in range(r // 2 + 1)}
    for label in sorted(coeffs):
        if label + 2 not in coeffs:
            continue
        d = r - 1 - label
        (num_hi, den_hi), (num_lo, den_lo) = coeffs[label + 2], coeffs[label]
        # (num_hi/den_hi) / (num_lo/den_lo) = (u + d)/(u - d)
        plus, minus = Poly([d, 1]), Poly([-d, 1])
        record.add_equal(f"scaled-ratio-label{label}", num_hi * den_lo * minus, plus * den_hi * num_lo)
        if label + 2 == r:
            c_hi = oracles.c2_closed_form("T_r_plus", r)
        else:
            c_hi = oracles.c2_closed_form("T_k", r, label + 2)
        c_lo = oracles.c2_closed_form("T_k", r, label)
        quarter = (c_hi - c_lo) / 4
        record.add_equal(f"casimir-quarter-difference-label{label}", quarter, Rat(d, 4 * (r - 1)))
        shift = 4 * (r - 1) * quarter
        # (u + shift)/(u - shift) = (u + d)/(u - d)
        record.add_equal(f"rescaling-consistency-label{label}", Poly([shift, 1]) * minus, plus * Poly([-shift, 1]))
    return record


# -- coefficient recurrence on the full reducible square --------------------


class CoefficientFamily:
    """Coefficients of the invariant expansion R(u) = sum_k c_k(u)/k! I_k.

    even[k] is the coefficient of I_{2k}, odd[k] of I_{2k+1}; both satisfy
    c_{k+2}(u) = ((k + u)/(k + 2 - 2r - u)) c_k(u).
    """

    __slots__ = ("r", "even", "odd")

    def __init__(self, r: int, even: tuple[Poly, ...], odd: tuple[Poly, ...]):
        self.r, self.even, self.odd = r, even, odd


def _recurrence_step(r: int, k: int) -> tuple[Poly, Poly]:
    """c_{k+2}(u) / c_k(u) = (k + u) / (k + 2 - 2r - u), as (num, den)."""
    return Poly([k, 1]), Poly([k + 2 - 2 * r, -1])


def recurrence_coefficients(r: int) -> tuple[tuple[tuple[Poly, Poly], ...], ...]:
    """(even, odd), both parity families generated from the unit seed by the
    recurrence, each coefficient a pair (num, den); step k takes c_k to
    c_{k+2}, in the family of the parity of k.
    """
    one = (Poly.const(1), Poly.const(1))
    even, odd = [one], [one]
    for k in range(2 * r - 1):
        family = odd if k % 2 else even
        (num, den), (step_num, step_den) = family[-1], _recurrence_step(r, k)
        family.append((num * step_num, den * step_den))
    return tuple(even), tuple(odd)


def closed_form_coefficients(r: int) -> CoefficientFamily:
    """Polynomial closed forms, unit normalization:

    even[k] = (-1)^k rf(u/2, k) rf(u/2, r-k),
    odd[k]  = (-1)^k rf((u+1)/2, k) rf((u+1)/2, r-k-1) / 2,

    with rf the rising factorial; no poles, so evaluation is total.
    """
    half_u = Poly([0, Rat(1, 2)])
    half_u1 = Poly([Rat(1, 2), Rat(1, 2)])
    even = []
    for k in range(r + 1):
        p = rising_factorial(half_u, k) * rising_factorial(half_u, r - k)
        even.append(p * ((-1) ** k))
    odd = []
    for k in range(r):
        p = rising_factorial(half_u1, k) * rising_factorial(half_u1, r - k - 1)
        odd.append(p * Rat((-1) ** k, 2))
    return CoefficientFamily(r=r, even=tuple(even), odd=tuple(odd))


def coefficient_consistency(r: int) -> VerificationRecord:
    """Closed forms satisfy the recurrence and agree with the generated
    family up to one overall normalization per parity, both as polynomial
    identities, cross-multiplied.
    """
    record = VerificationRecord(name=f"coefficient-recurrence r={r}")
    rec_even, rec_odd = recurrence_coefficients(r)
    closed = closed_form_coefficients(r)
    for parity, rec_fam, closed_fam, offset in (
        ("even", rec_even, closed.even, 0),
        ("odd", rec_odd, closed.odd, 1),
    ):
        for j in range(len(closed_fam) - 1):
            k = 2 * j + offset
            step_num, step_den = _recurrence_step(r, k)
            # c_(j+1) = c_j step_num/step_den
            record.add_equal(
                f"closed-form-recurrence-{parity}-k{k}", closed_fam[j + 1] * step_den, closed_fam[j] * step_num
            )
        (seed_num, seed_den), seed_closed = rec_fam[0], closed_fam[0]
        for j, ((num, den), closed_j) in enumerate(zip(rec_fam, closed_fam)):
            # (num/den) seed_closed = closed_j (seed_num/seed_den)
            record.add_equal(
                f"normalization-ratio-{parity}-j{j}", num * seed_closed * seed_den, closed_j * seed_num * den
            )
    return record


@lru_cache(maxsize=None)
def _full_series(r: int) -> tuple[RMatrixFamily, RMatrixFamily, RMatrixFamily]:
    """(full, even, odd): the series R(u) = sum_k c_k(u)/k! I_k and its sums
    over the even and the odd k, each built once per rank.  The closed forms
    are polynomials, so Q = 1, the parts are their degree parts, and the
    full series' parts are the even and odd parts added degree by degree.
    """
    closed = closed_form_coefficients(r)
    one = Poly.const(1)

    def parity(first: int, coeffs) -> RMatrixFamily:
        ks = range(first, 2 * r + 1, 2)
        terms = [(c * Rat(1, factorial(k)), invariant_I(r, k)) for k, c in zip(ks, coeffs)]
        return RMatrixFamily(q=one, parts=_degree_parts(4**r, terms))

    even, odd = parity(0, closed.even), parity(1, closed.odd)
    zero = ExactMatrix.zero(4**r)
    parts = tuple(a + b for a, b in zip_longest(even.parts, odd.parts, fillvalue=zero))
    return RMatrixFamily(q=one, parts=parts), even, odd


def full_r_matrix(r: int, u) -> ExactMatrix:
    """R(u) = sum_{k=0}^{2r} c_k(u)/k! I_k on the 4^r-dim reducible square."""
    return _full_series(r)[0].evaluate(u)


def full_r_matrix_parts(r: int, u) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """(full, even part, odd part); the parts sum to the full matrix."""
    _, even, odd = _full_series(r)
    even, odd = even.evaluate(u), odd.evaluate(u)
    return even + odd, even, odd


def chirality_split_check(r: int) -> VerificationRecord:
    """The even/odd parts are exactly the images of the chirality-sum
    projectors, as identities in u: the two projectors resolve the identity,
    and S R_d = R_d S = E_d and A R_d = R_d A = O_d for the degree parts of
    the full series R and of its even and odd parts E and O.
    """
    record = VerificationRecord(name=f"chirality-split r={r}")
    gamma = build_gamma(r)
    ident = ExactMatrix.identity(2**r)
    sym = kron_sum([(Rat(1, 2), ident, ident), (Rat(1, 2), gamma.chirality, gamma.chirality)])
    anti = kron_sum([(Rat(1, 2), ident, ident), (Rat(-1, 2), gamma.chirality, gamma.chirality)])
    record.add_equal("projector-resolution", sym + anti, ExactMatrix.identity(4**r))
    record.add_equal("projector-idempotent", sym @ sym, sym)
    full, even, odd = _full_series(r)
    for name, projector, part in (("even", sym, even), ("odd", anti, odd)):
        _degree_checks(record, f"{name}-part-left-u^", [projector @ p for p in full.parts], part.parts)
        _degree_checks(record, f"{name}-part-right-u^", [p @ projector for p in full.parts], part.parts)
    return record


@lru_cache(maxsize=None)
def _full_braid_classes(r: int) -> BraidClasses:
    """The full series, chi_k = c_k from the closed forms as ``_full_series``
    reads them: polynomials, so the family has no poles.
    """
    closed = closed_form_coefficients(r)
    chi = [(closed.odd if k % 2 else closed.even)[k // 2] for k in range(2 * r + 1)]
    return _braid_classes(f"yang-baxter-identity r={r} family=full", Poly.const(1), r, chi)


def full_ybe_identity_check(r: int) -> VerificationRecord:
    """The braid equation of the full series as an identity in (u, v)."""
    record = _full_braid_classes(r).record
    return VerificationRecord(name=record.name, checks=list(record.checks))


def full_ybe_check(r: int, points=None) -> VerificationRecord:
    """Braid Yang-Baxter for the full invariant-series R-matrix at the given
    points of the 2^r-leg triple product, by default the admissible grid.
    """
    return _full_braid_classes(r).grid(f"full-yang-baxter r={r}", grid_points(r) if points is None else points)


# -- the symmetric-part factorization and its lemmas ------------------------


def top_projector_relations(r: int) -> VerificationRecord:
    """Action of the even invariants on the top equal-chirality projector:
    I_{2k}/(2k)! scales it by (-1)^k binomial(r, k), and the split Casimir
    by its top eigenvalue.
    """
    record = VerificationRecord(name=f"top-projector-relations r={r}")
    top = rho_projectors(r)[r]
    for k in range(r + 1):
        lhs = invariant_I(r, 2 * k) @ top
        rhs = top * Rat((-1) ** k * comb(r, k) * factorial(2 * k))
        record.add_equal(f"invariant-scaling-k{k}", lhs, rhs)
    casimir_action = split_casimir_rho(r).matrix @ top
    record.add_equal("casimir-top-eigenvalue", casimir_action, top * c2k_eigenvalue(r, r))
    return record


def rising_factorial_identity() -> VerificationRecord:
    """sum_k binom(r,k) rf(x,k) rf(x,r-k) = prod_{k=0}^{r-1} (2x+k) as an
    identity of polynomials in x, for r = 2..8.
    """
    record = VerificationRecord(name="rising-factorial-identity")
    x = Poly.x()
    for r in range(2, 9):
        lhs = Poly()
        for k in range(r + 1):
            lhs += rising_factorial(x, k) * rising_factorial(x, r - k) * comb(r, k)
        rhs = Poly.const(1)
        for k in range(r):
            rhs *= Poly([k, 2])
        record.add_equal(f"r{r}", lhs, rhs)
    return record


def symmetric_part_factorization(r: int) -> VerificationRecord:
    """The even part E(u) of the invariant-series R-matrix equals
    prod_{k=0}^{r-1} (u+k) times the sum of the two equal-chirality sector
    solutions in braid form, as an identity in u: the same Q clears both,
    Q(u) R^eps(u) = sum_d u^d S^eps_d, and Q(u) E(u) must equal
    prod_k (u+k) (S^+(u) (+) S^-(u)) part by part.
    """
    record = VerificationRecord(name=f"symmetric-part-factorization r={r}")
    record.extend(top_projector_relations(r))
    dim = 4**r
    q = tau_denominator(r)
    rising = rising_factorial(Poly.x(), r)  # prod_{k<r} (u+k)
    even = [(q * Poly([0] * d + [1]), part) for d, part in enumerate(_full_series(r)[1].parts)]
    lifted = [
        (rising * Poly([0] * d + [1]), part.embed(sector_indices(r, eps + eps), dim))
        for eps in "+-"
        for d, part in enumerate(sector_r_matrix(r, eps, "braid").parts)
    ]
    _degree_checks(record, "coefficient-u^", _degree_parts(dim, even), _degree_parts(dim, lifted))
    return record
