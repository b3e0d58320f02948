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

Yang-Baxter checks run over a deterministic pole-free grid of rational
spectral parameters.  Both sides of the braid equation are trilinear in the
S_d, so Q(u) Q(u+v) Q(v) (LHS - RHS) = sum_ij u^i v^j D_ij exactly.

Each D_ij is built only on the columns of the Levi slice, a subset of
e_0 (x) V (x) V.  The slice decides only when a premise holds, checked in
four parts; ``clifford`` holds the last three, which read only the leg:

- every degree part commutes with L (x) 1 + 1 (x) L for the chain
  generators L = L_(i,i+1) (restricted to the half-spinor leg for a sector
  family), the full series also with gamma_1 (x) gamma_1;
- the orbit of e_0 under these maps covers the basis of the leg;
- the leg basis is a weight basis: the Cartan generators L_(2k-1,2k),
  which are chain generators, are diagonal, and e_j has the weight w(j)
  read off their diagonals;
- the Levi subalgebra fixes the line of e_0.  With sigma_k the sign of
  w(0)_k, the Levi is the Cartan and the root spaces of the roots
  sigma_a eps_a - sigma_b eps_b.

Then each D_ij commutes with the same maps on the triple product, and with
the group they generate.  The Weyl group of the Levi permutes the
coordinates of the weights twisted by sigma, and is carried by group
elements that keep the line of e_0.  So a D_ij that kills e_0 (x) x (x) y
for every weight vector x (x) y of V (x) V whose twisted weight
sigma (w(x) + w(y)) is weakly decreasing kills e_0 (x) V (x) V; those
vectors are the slice.  Since L(x)1(x)1 + 1(x)Delta(L) sends e (x) w to
Le (x) w + e (x) Delta(L) w, and gamma_1^(x)3 sends it to
gamma_1 e (x) (gamma_1 (x) gamma_1) w, a D_ij that kills e (x) V (x) V also
kills Le (x) V (x) V and gamma_1 e (x) V (x) V, so by the orbit it kills
everything.  The twist matters on Delta_-, where e_0 has weight
(+, ..., +, -): in plain coordinates w(0) + eps_r - eps_1 is a weight there,
so the Levi of the plain roots eps_a - eps_b would not fix the line of e_0.
The slice is the only path that decides a grid point, and no point forms a
matrix on the triple product: under the premise a point passes exactly when
sum_ij u^i v^j D_ij vanishes on the slice, and without it every point fails
with the witness of the first failed premise check.

The plain form R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u) is the braid
equation at (v, u) once the braid family is P times the plain one, which is
checked as an identity in u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial

from . import oracles
from .casimir import invariant_I, sector_indices, split_casimir_rho
from .clifford import (
    build_gamma,
    cartan_generators,
    chain_generators,
    chain_pairs,
    commutation_failures,
    half_spinor_blocks,
    leg_weights,
    levi_failures,
    orbit_failures,
    rotation_generators,
    twist,
    weight_basis_failures,
)
from .linalg import (
    ExactMatrix,
    ScaledSum,
    integer_parts,
    kron_sum,
    leg_products,
    lincomb,
    permutation_operator,
)
from .ratfunc import Poly, RationalFunction, rising_factorial
from .records import PASS, VerificationRecord, mismatch
from .scalar import Rat
from .spectra import c2k_eigenvalue, rho_projectors, sector_spectral

FORMS = ("plain", "braid")


def tau_coefficient(r: int, k: int, form: str = "plain") -> RationalFunction:
    """Coefficient of the projector with label r - 2k.

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
    return RationalFunction(num, den)


@dataclass(frozen=True)
class RMatrixFamily:
    """R(u) = sum_d u^d/q(u) parts[d]: one family with the denominators of
    its coefficients cleared by their lcm q, so the parts are parameter-free.
    """

    q: Poly
    parts: tuple[ExactMatrix, ...]

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
    """The family sum_a c_a(u) M_a, for terms (c_a, M_a) with rational
    functions c_a whose denominators all divide q: its parts are the degree
    parts of q(u) sum_a c_a(u) M_a.
    """
    return RMatrixFamily(q=q, parts=_degree_parts(dim, [(c.num * q.divmod(c.den)[0], m) for c, m in terms]))


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
        den = tau_coefficient(r, k).den
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
    eps eps, built once per rank, chirality and form.
    """
    if r < 2:
        raise ValueError("rank must be at least 2")
    if eps not in ("+", "-"):
        raise ValueError("eps must be '+' or '-'")
    projectors = sector_spectral(r, eps + eps).projectors
    terms = [(tau_coefficient(r, k, form), projectors[r - 2 * k]) for k in range(r // 2 + 1)]
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


# -- Yang-Baxter verification ----------------------------------------------


def _sliced_braid_differences(parts: tuple[ExactMatrix, ...], leg: int, rows) -> tuple:
    """((i, j), sliced D_ij) for each D_ij of LHS - RHS that is not zero on
    the slice columns ``rows``, for the family R(u) = sum_d u^d parts[d] on
    the tensor square of a leg V of dimension leg.  A slice column i < leg^2
    is the basis vector e_0 (x) e_(i // leg) (x) e_(i % leg).

    With K_abc = (R_a x 1)(1 x R_b)(R_c x 1) - (1 x R_c)(R_b x 1)(1 x R_a),
    LHS - RHS = sum_abc u^a (u+v)^b v^c K_abc, and the binomial expansion of
    (u+v)^b gives sum_ij u^i v^j D_ij.
    The products are formed on transposes, so each runs over the rows of
    the slice, from the rightmost factor of K_abc to the leftmost, and
    each factor R_d^T x 1 or 1 x R_d^T acts on those rows by index arithmetic
    on the legs.  They run on integer parts: with R_d^T = c_d/den Z_d, K_abc
    is c_a c_b c_c/den^3 times a difference of products of the Z_d.  The
    pair products of one b are shared by the triples of that b.  Each K_abc
    is formed once, as one difference of its two triple products, and added
    in place into the integer accumulators of its D_ij, which are made
    canonical once, at the end.
    """
    dim = leg**3
    square = leg * leg
    den, factors = integer_parts([m.transpose() for m in parts])
    start = ({i: {i: 1} for i in rows}, {})  # the slice rows of the identity
    left = [leg_products([(1, start, z, leg)], square) for _, z in factors]  # (R_d x 1)^T
    right = [leg_products([(1, start, z, 1)], square) for _, z in factors]  # (1 x R_d)^T
    sums: dict = {}
    for b, (c_b, z_b) in enumerate(factors):
        # ((1 x R_b)(R_c x 1))^T and ((R_b x 1)(1 x R_a))^T on the slice
        right_left = [leg_products([(1, x, z_b, 1)], square) for x in left]
        left_right = [leg_products([(1, x, z_b, leg)], square) for x in right]
        for a, (c_a, z_a) in enumerate(factors):
            for c, (c_c, z_c) in enumerate(factors):
                k_abc = leg_products([(1, right_left[c], z_a, leg), (-1, left_right[a], z_c, 1)], square)
                for m in range(b + 1):
                    key = (a + m, c + b - m)
                    if key not in sums:
                        sums[key] = ScaledSum(dim, den**3)
                    sums[key].add(comb(b, m) * c_a * c_b * c_c, 0, k_abc)
    diffs = ((key, total.matrix()) for key, total in sorted(sums.items()))
    return tuple((key, d.transpose()) for key, d in diffs if d)


def _levi_rows(weights) -> list[int]:
    """The slice: the flat indices x * leg + y of the basis vectors x (x) y
    of V (x) V whose weight, twisted by sigma, is weakly decreasing.
    """
    sigma = twist(weights)
    twisted = [tuple(s * c for s, c in zip(sigma, w)) for w in weights]
    rows = []
    for x, wx in enumerate(twisted):
        for y, wy in enumerate(twisted):
            nu = [a + b for a, b in zip(wx, wy)]
            if all(p >= q for p, q in zip(nu, nu[1:])):
                rows.append(x * len(weights) + y)
    return rows


def _first_nonzero(m: ExactMatrix) -> str:
    return mismatch(m, ExactMatrix.zero(m.dim))


@dataclass(frozen=True)
class BraidFamily:
    """One family R(x) on the tensor square of a leg of dimension leg, its
    braid coefficients on the Levi slice, and the identity record whose
    premise says whether the slice decides.  premise is None when the
    premise holds, else the witness of its first failed check.
    """

    family: RMatrixFamily
    record: VerificationRecord
    premise: str | None
    diffs: tuple
    leg: int

    def grid(self, name: str, points) -> VerificationRecord:
        """One braid Yang-Baxter check per point (u, v).

        A pole hit is a failure.  Without the premise the slice decides
        nothing, so every other point fails with the premise's witness.  With
        it, Q(u) Q(u+v) Q(v) is not zero away from a pole, so the equation
        holds exactly when sum_ij u^i v^j D_ij vanishes on the slice; a
        failure's witness is the first nonzero entry of that sum.
        """
        record = VerificationRecord(name=name)
        for u, v in points:
            u, v = Rat(u), Rat(v)
            check_id = f"point-u{u}-v{v}"
            if ybe_pole(self.family.q, u, v):
                record.add(check_id, False, "pole hit")
            elif self.premise is not None:
                record.add(check_id, False, self.premise)
            else:
                total = lincomb(self.leg**3, [(u**i * v**j, d) for (i, j), d in self.diffs])
                if total.is_zero():
                    record.add(check_id, True)
                else:
                    witness = _first_nonzero(total)
                    record.add(check_id, False, f"Q(u) Q(u+v) Q(v) (LHS - RHS) is nonzero on the slice: {witness}")
        return record


def _braid_family(name: str, family: RMatrixFamily, r: int, gens, group=()) -> BraidFamily:
    """The braid slice of a family on the tensor square of a leg V, with
    gens the rotation generators on V in basis_pairs(2r) order and group the
    (label, g) of further group elements g that act as g (x) g.
    """
    leg = gens[0].dim
    chain = chain_generators(r, gens)
    symmetries = [(f"L_{pair}", g, True) for pair, g in zip(chain_pairs(r), chain)]
    symmetries += [(label, g, False) for label, g in group]
    cartan = cartan_generators(r, gens)
    weights = leg_weights(cartan)
    rows = _levi_rows(weights)
    record = VerificationRecord(name=name)
    premise = [
        record.add_first_failure(
            "degree-parts-commute-with-symmetries",
            commutation_failures([(f"S_{d}", part) for d, part in enumerate(family.parts)], symmetries),
        ),
        record.add_first_failure("orbit-of-e0-covers-leg", orbit_failures(symmetries, leg)),
        record.add_first_failure("leg-basis-is-a-weight-basis", weight_basis_failures(cartan)),
        record.add_first_failure("levi-fixes-the-line-of-e0", levi_failures(weights, r, chain, gens)),
    ]
    diffs = _sliced_braid_differences(family.parts, leg, rows)
    first = (f"D_{key} is nonzero on the slice: {_first_nonzero(d)}" for key, d in diffs)
    record.add_first_failure("every-D_ij-vanishes-on-the-slice", first)
    failed = (f"premise {check.check_id} fails: {check.witness}" for check in premise if check.status != PASS)
    return BraidFamily(family=family, record=record, premise=next(failed, None), diffs=diffs, leg=leg)


def grid_points(r: int) -> list:
    """Every pair (u, v) of the admissible grid."""
    us, vs = admissible_grid(r)
    return [(u, v) for u in us for v in vs]


@lru_cache(maxsize=None)
def _sector_braid_slice(r: int, eps: str) -> BraidFamily:
    """The braid sector family, Q(u) R(u) = sum_d u^d S_d."""
    name = f"yang-baxter-identity r={r} eps={eps} form=braid"
    return _braid_family(name, sector_r_matrix(r, eps, "braid"), r, half_spinor_blocks(r, eps))


def ybe_identity_check(r: int, eps: str = "+") -> VerificationRecord:
    """The braid equation of a sector family as an identity in (u, v): the
    equivariance premise and every D_ij vanishing on the slice.
    """
    record = _sector_braid_slice(r, eps).record
    return VerificationRecord(name=record.name, checks=list(record.checks))


def ybe_point(r: int, eps: str, u, v):
    """One braid Yang-Baxter point of a sector family; None signals a pole."""
    u, v = Rat(u), Rat(v)
    if ybe_pole(sector_r_matrix(r, eps, "braid").q, u, v):
        return None
    return ybe_check(r, eps, [(u, v)]).ok


def ybe_check(r: int, eps: str = "+", points=None) -> VerificationRecord:
    """The braid Yang-Baxter equation of a sector family at the given points,
    by default the admissible grid.

    That grid is pole-free by construction, so a pole hit is a failure.
    """
    return _sector_braid_slice(r, eps).grid(
        f"yang-baxter-grid r={r} eps={eps} form=braid",
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
        braid = _sector_braid_slice(r, eps).grid(record.name, [(v, u) for u, v in points])
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
    x = RationalFunction.x()
    for k in range(r // 2 + 1):
        tau = tau_coefficient(r, k, "plain")
        limit = (x * (tau - RationalFunction.const(1))).limit_at_infinity()
        record.add_equal(f"limit-k{k}", limit, Rat(-2 * k * k))
        diff = 4 * (r - 1) * (c2k_eigenvalue(r, r - 2 * k) - c2k_eigenvalue(r, r))
        record.add_equal(f"casimir-difference-k{k}", diff, Rat(-2 * k * k))
    return record


def tau_ratio_constraints(r: int) -> VerificationRecord:
    """Neighbouring coefficient ratios as rational-function identities, and
    the unscaled form recovered from independent quadratic-Casimir values.
    """
    record = VerificationRecord(name=f"coefficient-ratio-constraints r={r}")
    coeffs = {r - 2 * k: tau_coefficient(r, k, "plain") for k in range(r // 2 + 1)}
    for label in sorted(coeffs):
        if label + 2 not in coeffs:
            continue
        d = r - 1 - label
        ratio = coeffs[label + 2] / coeffs[label]
        expected = RationalFunction(Poly([d, 1]), Poly([-d, 1]))
        record.add_equal(f"scaled-ratio-label{label}", ratio, expected)
        if label + 2 == r:
            c_hi = oracles.c2_closed_form("T_r_plus", r)
        else:
            c_hi = oracles.c2_closed_form("T_k", r, label + 2)
        c_lo = oracles.c2_closed_form("T_k", r, label)
        quarter = (c_hi - c_lo) / 4
        record.add_equal(f"casimir-quarter-difference-label{label}", quarter, Rat(d, 4 * (r - 1)))
        unscaled = RationalFunction(
            Poly([4 * (r - 1) * quarter, 1]), Poly([-4 * (r - 1) * quarter, 1])
        )
        record.add_equal(f"rescaling-consistency-label{label}", unscaled, expected)
    return record


# -- coefficient recurrence on the full reducible square --------------------


@dataclass(frozen=True)
class CoefficientFamily:
    """Coefficients of the invariant expansion R(u) = sum_k c_k(u)/k! I_k.

    even[k] is the coefficient of I_{2k}, odd[k] of I_{2k+1}; both satisfy
    c_{k+2}(u) = ((k + u)/(k + 2 - 2r - u)) c_k(u).
    """

    r: int
    even: tuple[RationalFunction, ...]
    odd: tuple[RationalFunction, ...]


def _recurrence_step(r: int, k: int) -> RationalFunction:
    """c_{k+2}(u) / c_k(u) = (k + u) / (k + 2 - 2r - u)."""
    return RationalFunction(Poly([k, 1]), Poly([k + 2 - 2 * r, -1]))


def recurrence_coefficients(r: int) -> CoefficientFamily:
    """Both parity families generated from the unit seed by the recurrence;
    step k takes c_k to c_{k+2}, in the family of the parity of k.
    """
    even, odd = [RationalFunction.const(1)], [RationalFunction.const(1)]
    for k in range(2 * r - 1):
        family = odd if k % 2 else even
        family.append(family[-1] * _recurrence_step(r, k))
    return CoefficientFamily(r=r, even=tuple(even), odd=tuple(odd))


@lru_cache(maxsize=None)
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
        even.append(RationalFunction(p * ((-1) ** k)))
    odd = []
    for k in range(r):
        p = rising_factorial(half_u1, k) * rising_factorial(half_u1, r - k - 1)
        odd.append(RationalFunction(p * (Rat((-1) ** k, 2))))
    return CoefficientFamily(r=r, even=tuple(even), odd=tuple(odd))


def coefficient_consistency(r: int) -> VerificationRecord:
    """Closed forms satisfy the recurrence and agree with the generated
    family up to one overall normalization per parity.
    """
    record = VerificationRecord(name=f"coefficient-recurrence r={r}")
    rec = recurrence_coefficients(r)
    closed = closed_form_coefficients(r)
    for parity, rec_fam, closed_fam, offset in (
        ("even", rec.even, closed.even, 0),
        ("odd", rec.odd, closed.odd, 1),
    ):
        for j in range(len(closed_fam) - 1):
            k = 2 * j + offset
            record.add_equal(
                f"closed-form-recurrence-{parity}-k{k}", closed_fam[j + 1], closed_fam[j] * _recurrence_step(r, k)
            )
        for j in range(len(closed_fam)):
            record.add_equal(
                f"normalization-ratio-{parity}-j{j}", rec_fam[j] * closed_fam[0], closed_fam[j] * rec_fam[0]
            )
    return record


@lru_cache(maxsize=None)
def _full_series(r: int) -> tuple[RMatrixFamily, RMatrixFamily, RMatrixFamily]:
    """(full, even, odd): the series R(u) = sum_k c_k(u)/k! I_k and its sums
    over the even and the odd k, each built once per rank.  The closed forms
    are polynomials, so Q = 1, and the full series' parts are the even and
    odd parts added degree by degree.
    """
    closed = closed_form_coefficients(r)
    one = Poly.const(1)

    def parity(first: int, coeffs) -> RMatrixFamily:
        ks = range(first, 2 * r + 1, 2)
        return _cleared_family(4**r, one, [(c * Rat(1, factorial(k)), invariant_I(r, k)) for k, c in zip(ks, coeffs)])

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
def _full_braid_slice(r: int) -> BraidFamily:
    """The full series, R(u) = sum_d u^d R_d; its coefficients are
    polynomials, so it has no poles.
    """
    gamma_1 = build_gamma(r).gammas[0]  # exchanges the two chiralities
    return _braid_family(
        f"yang-baxter-identity r={r} family=full", _full_series(r)[0], r, rotation_generators(r), [("gamma_1", gamma_1)]
    )


def full_ybe_identity_check(r: int) -> VerificationRecord:
    """The braid equation of the full series as an identity in (u, v)."""
    record = _full_braid_slice(r).record
    return VerificationRecord(name=record.name, checks=list(record.checks))


def full_ybe_check(r: int, points=None) -> VerificationRecord:
    """Braid Yang-Baxter for the full invariant-series R-matrix at the given
    points of the 2^r-leg triple product, by default the admissible grid.
    """
    return _full_braid_slice(r).grid(f"full-yang-baxter r={r}", grid_points(r) if points is None else points)


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
