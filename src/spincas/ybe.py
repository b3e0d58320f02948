"""Rational R-matrices built on the split-Casimir eigenprojectors.

Sector families act on the tensor square of one half-spinor space and are
fixed, up to normalization, by the ratio constraints between neighbouring
eigenprojector coefficients.  The full family acts on the tensor square of
the reducible 2^r spinor space as a series in the antisymmetrized gamma
invariants, with coefficients generated by a two-step recurrence.

Yang-Baxter checks run over a deterministic pole-free grid of rational
spectral parameters.  Each family is written as Q(u) R(u) = sum_a p_a(u) M_a
with polynomials p_a and parameter-free matrices M_a: the eigenprojectors
with the tau denominators cleared by their lcm Q, or the u-degree parts R_d
of the full series (Q = 1).  Both sides of the braid equation are then
trilinear in the M_a, so Q(u) Q(u+v) Q(v) (LHS - RHS) = sum_ij u^i v^j D_ij
exactly.

Each D_ij is built only on the columns e_0 (x) V (x) V, a 1/dim V slice.  The
slice decides only when an equivariance premise holds: every degree part
commutes with L (x) 1 + 1 (x) L for the chain generators L = L_(i,i+1)
(restricted to the half-spinor leg for a sector family), the full series
also with gamma_1 (x) gamma_1, and the orbit of e_0 under these maps covers
the basis of the leg.  Then each D_ij commutes with the same maps on the
triple product, and since L(x)1(x)1 + 1(x)Delta(L) sends e (x) w to
Le (x) w + e (x) Delta(L) w, and gamma_1^(x)3 sends it to
gamma_1 e (x) (gamma_1 (x) gamma_1) w, a D_ij that kills e (x) V (x) V also
kills Le (x) V (x) V and gamma_1 e (x) V (x) V, so it kills everything.  The
slice is the only path that decides a grid point, and no point forms a matrix
on the triple product: under the premise a point passes exactly when
sum_ij u^i v^j D_ij vanishes on the slice, and without it every point fails
with the witness of the failed premise check.

The plain form R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u) is the braid
equation at (v, u) once the braid family is P times the plain one, which is
checked as an identity in u.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial

from .casimir import invariant_I, sector_indices, split_casimir_rho
from .clifford import build_gamma, chain_generators, chain_pairs, half_spinor_blocks
from .linalg import (
    ExactMatrix,
    NotABasisMap,
    ScaledSum,
    diagonal_action,
    first_difference,
    integer_parts,
    kron,
    kron_sum,
    leg_products,
    lincomb,
    permutation_operator,
)
from .ratfunc import Poly, RationalFunction, rising_factorial
from .records import PASS, VerificationRecord, diff_witness
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
    """Projector expansion of one sector R-matrix on the compressed block."""

    r: int
    eps: str
    form: str
    terms: tuple[tuple[int, RationalFunction], ...]  # (label, coefficient)

    @property
    def sector(self) -> str:
        return self.eps + self.eps

    def projector(self, label: int) -> ExactMatrix:
        return sector_spectral(self.r, self.sector).projectors[label]

    def is_pole(self, u) -> bool:
        return any(coeff.is_pole(u) for _, coeff in self.terms)

    def ybe_pole(self, u, v) -> bool:
        """True when u, v or u + v is a pole, so the YBE at (u, v) is undefined."""
        return self.is_pole(u) or self.is_pole(v) or self.is_pole(u + v)

    def evaluate(self, u) -> ExactMatrix:
        u = Rat(u)
        data = sector_spectral(self.r, self.sector)
        return lincomb(
            data.block.dim, [(coeff(u), data.projectors[label]) for label, coeff in self.terms]
        )


@lru_cache(maxsize=None)
def sector_r_matrix(r: int, eps: str, form: str = "plain") -> RMatrixFamily:
    if r < 2:
        raise ValueError("rank must be at least 2")
    if eps not in ("+", "-"):
        raise ValueError("eps must be '+' or '-'")
    terms = tuple(
        (r - 2 * k, tau_coefficient(r, k, form)) for k in range(r // 2 + 1)
    )
    return RMatrixFamily(r=r, eps=eps, form=form, terms=terms)


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


def _degree_parts(dim: int, terms) -> tuple[ExactMatrix, ...]:
    """S_0, ..., S_D with Q(u) sum_a c_a(u) M_a = sum_d u^d S_d, for terms
    (c_a, M_a) with rational functions c_a and Q the lcm of their
    denominators.  D is the highest degree the cleared numerators actually
    have, so no coefficient is cut off.
    """
    q = Poly.const(1)
    for coeff, _ in terms:
        q = q * coeff.den.divmod(q.gcd(coeff.den))[0]
    cleared = [(coeff.num * q.divmod(coeff.den)[0], m) for coeff, m in terms]
    degree = max(p.degree for p, _ in cleared)
    return tuple(
        lincomb(dim, [(p.coeffs[d], m) for p, m in cleared if d <= p.degree])
        for d in range(degree + 1)
    )


def _sliced_braid_differences(parts: tuple[ExactMatrix, ...], leg: int) -> tuple[int, tuple]:
    """(count, nonzero) for the D_ij of LHS - RHS, restricted to the columns
    e_0 (x) V (x) V, for the family R(u) = sum_d u^d parts[d] on the tensor
    square of a leg V of dimension leg.  count is the number of D_ij in the
    expansion; nonzero lists ((i, j), sliced D_ij) for those not zero there.

    With K_abc = (R_a x 1)(1 x R_b)(R_c x 1) - (1 x R_c)(R_b x 1)(1 x R_a),
    LHS - RHS = sum_abc u^a (u+v)^b v^c K_abc, and the binomial expansion of
    (u+v)^b gives sum_ij u^i v^j D_ij.  The slice is the first leg^2 columns.
    The products are formed on transposes, so each runs over the leg^2 rows
    of the slice, from the rightmost factor of K_abc to the leftmost, and
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
    start = ({i: {i: 1} for i in range(square)}, {})  # the slice rows of the identity
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
    return len(sums), tuple((key, d.transpose()) for key, d in diffs if d)


def _commutation_failures(parts, symmetries, leg: int):
    """Witnesses against: every degree part commutes with every symmetry on
    the tensor square of the leg.  A symmetry is (label, matrix, lie): a Lie
    generator L acts as L (x) 1 + 1 (x) L, a group element g as g (x) g.
    """
    for label, g, lie in symmetries:
        action = diagonal_action(g) if lie else kron(g, g)
        for d, part in enumerate(parts):
            lhs, rhs = part @ action, action @ part
            if lhs != rhs:
                witness = diff_witness(first_difference(lhs, rhs))
                yield f"S_{d} does not commute with {label}: {witness}"
                return


def _orbit_failures(symmetries, leg: int):
    """Witness against: each symmetry sends each basis vector of the leg to a
    nonzero multiple of one basis vector, and the orbit of e_0 under them
    covers the basis.
    """
    images = []
    for label, g, _ in symmetries:
        try:
            images.append(g.basis_map()[0])
        except NotABasisMap as exc:
            yield f"{label} {exc}"
            return
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [image[j] for j in frontier for image in images if image[j] not in reached]
        reached.update(frontier)
    if len(reached) < leg:
        missed = min(set(range(leg)) - reached)
        yield f"the orbit of e_0 reaches {len(reached)} of {leg} basis vectors; e_{missed} is missed"


def _first_nonzero(m: ExactMatrix) -> str:
    return diff_witness(first_difference(m, ExactMatrix.zero(m.dim)))


@dataclass(frozen=True)
class BraidFamily:
    """One family R(x) on the tensor square of a leg of dimension leg, its
    braid coefficients on the slice e_0 (x) V (x) V, and the identity record
    whose premise says whether the slice decides.  premise is None when the
    premise holds, else the witness of its first failed check.
    """

    record: VerificationRecord
    premise: str | None
    diffs: tuple
    leg: int
    ybe_pole: Callable  # (u, v) -> True when u, v or u + v is a pole

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
            if self.ybe_pole(u, v):
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


def _braid_family(name: str, parts, symmetries, leg: int, ybe_pole) -> BraidFamily:
    record = VerificationRecord(name=name)
    premise = [
        record.add_first_failure(
            "degree-parts-commute-with-symmetries", _commutation_failures(parts, symmetries, leg)
        ),
        record.add_first_failure("orbit-of-e0-covers-leg", _orbit_failures(symmetries, leg)),
    ]
    count, diffs = _sliced_braid_differences(parts, leg)
    first = (f"D_{key} is nonzero on the slice: {_first_nonzero(d)}" for key, d in diffs)
    record.add_first_failure(f"all-{count}-D_ij-vanish-on-{leg * leg}-slice-columns", first)
    failed = (f"premise {check.check_id} fails: {check.witness}" for check in premise if check.status != PASS)
    return BraidFamily(record=record, premise=next(failed, None), diffs=diffs, leg=leg, ybe_pole=ybe_pole)


def grid_points(r: int) -> list:
    """Every pair (u, v) of the admissible grid."""
    us, vs = admissible_grid(r)
    return [(u, v) for u in us for v in vs]


def _chain_symmetries(r: int, gens) -> list:
    return [(f"L_{pair}", g, True) for pair, g in zip(chain_pairs(r), gens)]


def _sector_symmetries(r: int, eps: str) -> list:
    """The chain generators restricted to the half-spinor leg Delta_eps."""
    blocks = half_spinor_blocks(r)[0 if eps == "+" else 1]
    return _chain_symmetries(r, chain_generators(r, blocks))


def _full_symmetries(r: int) -> list:
    """The chain generators and gamma_1, which exchanges the two chiralities,
    on the full spinor leg.
    """
    gamma_1 = build_gamma(r).gammas[0]
    return _chain_symmetries(r, chain_generators(r)) + [("gamma_1", gamma_1, False)]


def _sector_parts(r: int, eps: str, form: str) -> tuple[ExactMatrix, ...]:
    """One sector family, its tau denominators cleared by their lcm Q:
    Q(u) R(u) = sum_d u^d S_d.  The two forms' taus differ only in sign.
    """
    family = sector_r_matrix(r, eps, form)
    terms = [(coeff, family.projector(label)) for label, coeff in family.terms]
    return _degree_parts(4 ** (r - 1), terms)


@lru_cache(maxsize=None)
def _sector_braid_slice(r: int, eps: str) -> BraidFamily:
    """The braid sector family, Q(u) R(u) = sum_d u^d S_d."""
    return _braid_family(
        f"yang-baxter-identity r={r} eps={eps} form=braid",
        _sector_parts(r, eps, "braid"),
        _sector_symmetries(r, eps),
        2 ** (r - 1),
        sector_r_matrix(r, eps, "braid").ybe_pole,
    )


def ybe_identity_check(r: int, eps: str = "+") -> VerificationRecord:
    """The braid equation of a sector family as an identity in (u, v): the
    equivariance premise and every D_ij vanishing on the slice.
    """
    record = _sector_braid_slice(r, eps).record
    return VerificationRecord(name=record.name, checks=list(record.checks))


def ybe_point(r: int, eps: str, u, v):
    """One braid Yang-Baxter point of a sector family; None signals a pole."""
    u, v = Rat(u), Rat(v)
    if sector_r_matrix(r, eps, "braid").ybe_pole(u, v):
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
    parts = zip_longest(_sector_parts(r, eps, "braid"), _sector_parts(r, eps, "plain"), fillvalue=zero)
    failures = (
        f"S_{d} of the braid form is not P S_{d} of the plain form: {diff_witness(first_difference(lhs, rhs))}"
        for d, (lhs, rhs) in enumerate((braid, swap @ plain) for braid, plain in parts)
        if lhs != rhs
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
    """R12(u) R21(-u) = identity, with R21 = P R12 P."""
    record = VerificationRecord(name=f"unitarity r={r} eps={eps}")
    family = sector_r_matrix(r, eps, "plain")
    half = 2 ** (r - 1)
    swap = permutation_operator(half)
    ident = ExactMatrix.identity(half * half)
    for u in admissible_grid(r)[0][:10]:
        if family.is_pole(u) or family.is_pole(-u):
            record.add(f"u{u}", False, "pole hit")
            continue
        product = family.evaluate(u) @ swap @ family.evaluate(-u) @ swap
        record.add_equal(f"u{u}", product, ident)
    return record


def symmetry_check(r: int, eps: str) -> VerificationRecord:
    """R21(u) = R12(u): conjugation by the swap leaves the R-matrix fixed."""
    record = VerificationRecord(name=f"swap-symmetry r={r} eps={eps}")
    family = sector_r_matrix(r, eps, "plain")
    half = 2 ** (r - 1)
    swap = permutation_operator(half)
    for u in admissible_grid(r)[0][:10]:
        if family.is_pole(u):
            record.add(f"u{u}", False, "pole hit")
            continue
        value = family.evaluate(u)
        record.add(f"u{u}", swap @ value @ swap == value)
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
        record.add(f"limit-k{k}", limit == Rat(-2 * k * k), f"limit {limit}")
        diff = 4 * (r - 1) * (c2k_eigenvalue(r, r - 2 * k) - c2k_eigenvalue(r, r))
        record.add(f"casimir-difference-k{k}", diff == Rat(-2 * k * k))
    return record


def tau_ratio_constraints(r: int) -> VerificationRecord:
    """Neighbouring coefficient ratios as rational-function identities, and
    the unscaled form recovered from independent quadratic-Casimir values.
    """
    from . import oracles

    record = VerificationRecord(name=f"coefficient-ratio-constraints r={r}")
    family = sector_r_matrix(r, "+", "plain")
    coeffs = dict(family.terms)
    for label in sorted(coeffs):
        if label + 2 not in coeffs:
            continue
        d = r - 1 - label
        ratio = coeffs[label + 2] / coeffs[label]
        expected = RationalFunction(Poly([d, 1]), Poly([-d, 1]))
        record.add(f"scaled-ratio-label{label}", ratio == expected)
        if label + 2 == r:
            c_hi = oracles.c2_closed_form("T_r_plus", r)
        else:
            c_hi = oracles.c2_closed_form("T_k", r, label + 2)
        c_lo = oracles.c2_closed_form("T_k", r, label)
        quarter = (c_hi - c_lo) / 4
        record.add(
            f"casimir-quarter-difference-label{label}",
            quarter == Rat(d, 4 * (r - 1)),
            f"{quarter} != {d}/(4(r-1))",
        )
        unscaled = RationalFunction(
            Poly([4 * (r - 1) * quarter, 1]), Poly([-4 * (r - 1) * quarter, 1])
        )
        record.add(f"rescaling-consistency-label{label}", unscaled == expected)
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


def recurrence_coefficients(r: int) -> CoefficientFamily:
    """Both parity families generated from the unit seed by the recurrence."""
    even = [RationalFunction.const(1)]
    for k in range(0, 2 * r - 1, 2):
        step = RationalFunction(Poly([k, 1]), Poly([k + 2 - 2 * r, -1]))
        even.append(even[-1] * step)
    odd = [RationalFunction.const(1)]
    for k in range(1, 2 * r - 2, 2):
        step = RationalFunction(Poly([k, 1]), Poly([k + 2 - 2 * r, -1]))
        odd.append(odd[-1] * step)
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
            step = RationalFunction(Poly([k, 1]), Poly([k + 2 - 2 * r, -1]))
            record.add(
                f"closed-form-recurrence-{parity}-k{k}",
                closed_fam[j + 1] == closed_fam[j] * step,
            )
        for j in range(len(closed_fam)):
            record.add(
                f"normalization-ratio-{parity}-j{j}",
                rec_fam[j] * closed_fam[0] == closed_fam[j] * rec_fam[0],
            )
    return record


@lru_cache(maxsize=None)
def full_r_matrix_coefficients(r: int) -> tuple[ExactMatrix, ...]:
    """R_0, ..., R_D with R(u) = sum_d u^d R_d, where D is the highest degree
    the closed-form coefficients actually have (they are polynomials, so
    nothing is cleared).
    """
    closed = closed_form_coefficients(r)
    series = [(coeff, 2 * k) for k, coeff in enumerate(closed.even)]
    series += [(coeff, 2 * k + 1) for k, coeff in enumerate(closed.odd)]
    return _degree_parts(4**r, [(coeff * Rat(1, factorial(k)), invariant_I(r, k)) for coeff, k in series])


def full_r_matrix(r: int, u) -> ExactMatrix:
    """R(u) = sum_{k=0}^{2r} c_k(u)/k! I_k on the 4^r-dim reducible square."""
    return full_r_matrix_parts(r, u)[0]


def full_r_matrix_parts(r: int, u) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """(full, even part, odd part); the parts sum to the full matrix."""
    u = Rat(u)
    closed = closed_form_coefficients(r)
    even_terms = [
        (coeff(u) / factorial(2 * k), invariant_I(r, 2 * k)) for k, coeff in enumerate(closed.even)
    ]
    odd_terms = [
        (coeff(u) / factorial(2 * k + 1), invariant_I(r, 2 * k + 1)) for k, coeff in enumerate(closed.odd)
    ]
    even, odd = lincomb(4**r, even_terms), lincomb(4**r, odd_terms)
    return even + odd, even, odd


def chirality_split_check(r: int) -> VerificationRecord:
    """The even/odd parts are exactly the images of the chirality-sum
    projectors: S R = R S = even part, and the two projectors resolve the
    identity.
    """
    record = VerificationRecord(name=f"chirality-split r={r}")
    gamma = build_gamma(r)
    dim = 4**r
    ident = ExactMatrix.identity(2**r)
    sym = kron_sum([(Rat(1, 2), ident, ident), (Rat(1, 2), gamma.chirality, gamma.chirality)])
    anti = ExactMatrix.identity(dim) - sym
    record.add("projector-resolution", sym + anti == ExactMatrix.identity(dim))
    record.add("projector-idempotent", sym @ sym == sym)
    for u in admissible_grid(r)[0][:3]:
        full, even, odd = full_r_matrix_parts(r, u)
        record.add(f"even-part-left-u{u}", sym @ full == even)
        record.add(f"even-part-right-u{u}", full @ sym == even)
        record.add(f"odd-part-left-u{u}", anti @ full == odd)
        record.add(f"odd-part-right-u{u}", full @ anti == odd)
    return record


@lru_cache(maxsize=None)
def _full_braid_slice(r: int) -> BraidFamily:
    """The full series, R(u) = sum_d u^d R_d; its coefficients are
    polynomials, so it has no poles.
    """
    return _braid_family(
        f"yang-baxter-identity r={r} family=full",
        full_r_matrix_coefficients(r),
        _full_symmetries(r),
        2**r,
        lambda u, v: False,
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
    record.add(
        "casimir-top-eigenvalue",
        casimir_action == top * c2k_eigenvalue(r, r),
    )
    return record


def rising_factorial_identity() -> VerificationRecord:
    """sum_k binom(r,k) rf(x,k) rf(x,r-k) = prod_{k=0}^{r-1} (2x+k) at 20
    rational x, for r = 2..8.
    """
    record = VerificationRecord(name="rising-factorial-identity")
    xs = [Rat(2 * j + 1, 7) for j in range(20)]
    x_poly = Poly.x()
    for r in range(2, 9):
        ok = True
        for x in xs:
            lhs = sum(
                comb(r, k)
                * rising_factorial(x_poly, k)(x)
                * rising_factorial(x_poly, r - k)(x)
                for k in range(r + 1)
            )
            rhs = Rat(1)
            for k in range(r):
                rhs *= 2 * x + k
            if lhs != rhs:
                ok = False
        record.add(f"r{r}", ok)
    return record


def symmetric_part_factorization(r: int) -> VerificationRecord:
    """The even part of the invariant-series R-matrix equals
    prod_{k=0}^{r-1} (u+k) times the sum of the two equal-chirality sector
    solutions in braid form, entrywise at every sampled point.
    """
    record = VerificationRecord(name=f"symmetric-part-factorization r={r}")
    record.extend(top_projector_relations(r))
    dim = 4**r
    plus = sector_r_matrix(r, "+", "braid")
    minus = sector_r_matrix(r, "-", "braid")
    for u in admissible_grid(r)[0][:10]:
        if plus.is_pole(u):
            record.add(f"u{u}", False, "pole hit")
            continue
        _, even, _ = full_r_matrix_parts(r, u)
        lifted = plus.evaluate(u).embed(sector_indices(r, "++"), dim) + minus.evaluate(
            u
        ).embed(sector_indices(r, "--"), dim)
        scale = Rat(1)
        for k in range(r):
            scale *= u + k
        rhs = lifted * scale
        record.add_equal(f"u{u}", even, rhs)
    return record
