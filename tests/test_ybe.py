import functools
import json
import re
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from spincas import _backend, casimir, clifford, oracles, report, spectra, ybe
from spincas.clifford import build_gamma
from spincas.cli import main
from spincas.linalg import ExactMatrix, kron, lincomb, permutation_operator
from spincas.ratfunc import Poly, limit_at_infinity, poly_from_roots, rising_factorial
from spincas.records import FAIL, PASS, VerificationRecord, mismatch
from spincas.scalar import Rat

from failing import failing_checks, replace


def at(tau, u):
    """The value num(u)/den(u) of a coefficient pair."""
    num, den = tau
    return num(u) / den(u)


def test_tau_coefficients():
    top = ybe.tau_coefficient(0)
    assert top == (Poly.const(1), Poly.const(1))
    first = ybe.tau_coefficient(1)
    assert at(first, Rat(3)) == Rat(1, 2)
    braid = ybe.tau_coefficient(1, "braid")
    assert at(braid, Rat(3)) == Rat(-1, 2)
    assert first[1](Rat(-1)) == 0  # the pole at u = -1


@pytest.mark.parametrize("form", ["brade", "Braid", ""])
def test_tau_coefficient_refuses_an_unknown_form(form):
    with pytest.raises(ValueError, match="unknown form"):
        ybe.tau_coefficient(1, form)


def test_cleared_family_refuses_a_q_missing_a_factor():
    # at r=4, Q = (u + 1)(u + 3) and tau_2 has denominator (u + 1)(u + 3):
    # with (u + 3) left out of q, tau_2 cannot be cleared
    r = 4
    terms = [(ybe.tau_coefficient(k), ExactMatrix.identity(2)) for k in range(r // 2 + 1)]
    assert ybe._cleared_family(2, ybe.tau_denominator(r), terms).q == ybe.tau_denominator(r)
    with pytest.raises(ValueError, match=r"denominator Poly\(\[3, 4, 1\]\) of coefficient 2 does not divide"):
        ybe._cleared_family(2, Poly([1, 1]), terms)


@pytest.mark.parametrize(
    "u, v, hit",
    [
        (Rat(-1, 3), Rat(1, 7), True),  # u at the root of 3u + 1
        (Rat(2, 5), Rat(-1, 3), True),  # v at it
        (Rat(1, 2), Rat(-5), True),  # v at the root of u + 5
        (Rat(-7, 3), Rat(-8, 3), True),  # only u + v = -5 at a root
        (Rat(-1, 3) + Rat(1, 1000), Rat(1, 7), False),
        (Rat(2, 5), Rat(-1, 3) - Rat(1, 1000), False),
        (Rat(-7, 3), Rat(-8, 3) + Rat(1, 1000), False),
        (Rat(-1), Rat(-3), False),  # integers, none a root
    ],
)
def test_ybe_pole_finds_roots_off_the_integers(u, v, hit):
    q = Poly([1, 3]) * Poly([5, 1])  # (3u + 1)(u + 5)
    assert ybe.ybe_pole(q, u, v) is hit


def test_family_structure():
    # Q is the lcm of the tau denominators, and Q(u) R(u) has one part per
    # power of u up to the degree of Q
    for r, eps, roots in [(3, "-", [1]), (4, "+", [1, 3]), (5, "-", [1, 3])]:
        q = Poly.const(1)
        for root in roots:
            q = q * Poly([root, 1])
        assert ybe.tau_denominator(r) == q
        # the braid form flips only numerator signs, so one Q serves both forms
        assert all(ybe.tau_coefficient(k, "braid")[1] == ybe.tau_coefficient(k)[1] for k in range(r // 2 + 1))
        if r < 5:  # the r=5 blocks are left to the spectra tests
            family = ybe.sector_r_matrix(r, eps)
            assert family.q == q
            assert len(family.parts) == len(roots) + 1
            assert all(part.dim == 4 ** (r - 1) for part in family.parts)


def test_family_at_u_one_is_top_projector():
    # every non-top coefficient contains the factor (u - 1)
    family = ybe.sector_r_matrix(2, "+")
    assert family.evaluate(1) == spectra.sector_spectral(2, "++").projectors[2]


def test_family_at_zero_squares_to_identity():
    family = ybe.sector_r_matrix(3, "+")
    value = family.evaluate(0)
    assert value @ value == ExactMatrix.identity(value.dim)


def test_admissible_grid():
    us, vs = ybe.admissible_grid(3)
    assert len(us) == len(vs) == 9
    assert len(set(us)) == 9 and len(set(vs)) == 9
    for u in us:
        for v in vs:
            for point in (u, v, u + v):
                assert point.denominator != 1  # never an integer, so never a pole


@pytest.mark.parametrize("r", [2, 3])
def test_braid_ybe_grid(r):
    record = ybe.ybe_check(r, "+")
    assert record.ok, [c.check_id for c in failing_checks(record)]
    assert len(record.checks) == (2 * r + 3) ** 2


def test_plain_ybe_spot():
    us, vs = ybe.admissible_grid(2)
    record = ybe.plain_ybe_spot_check(2, "+", [(us[0], vs[0]), (us[2], vs[3])])
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_unitarity(r, eps):
    assert ybe.unitarity_check(r, eps).ok


@pytest.mark.parametrize("r", [2, 3, 4])
def test_swap_symmetry(r):
    for eps in ("+", "-"):
        assert ybe.symmetry_check(r, eps).ok


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_asymptotics(r):
    record = ybe.asymptotic_check(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_a_wrong_tau_numerator_fails_its_limit(monkeypatch):
    # r = 4: tau_1 = (u - 3)/(u + 1) in place of (u - 1)/(u + 1), so
    # u (tau_1 - 1) = -4u/(u + 1) tends to -4, not -2
    r = 4
    real = ybe.tau_coefficient

    def shifted(k, form="plain"):
        num, den = real(k, form)
        return (Poly([-3, 1]), den) if k == 1 else (num, den)

    monkeypatch.setattr(ybe, "tau_coefficient", shifted)
    failed = {c.check_id: c.witness for c in failing_checks(ybe.asymptotic_check(r))}
    assert failed == {"limit-k1": "-4 != -2"}


U_PLUS_1, U_MINUS_1 = Poly([1, 1]), Poly([-1, 1])


@pytest.mark.parametrize(
    "num, den, limit",
    [
        (U_PLUS_1 * 3, U_MINUS_1 * 2, Rat(3, 2)),  # equal degrees: the leading coefficients
        (Poly.const(5), U_MINUS_1, 0),  # a lower numerator degree
        (Poly(), U_MINUS_1, 0),  # a zero numerator
        (U_PLUS_1 * U_PLUS_1, U_MINUS_1, None),  # a higher numerator degree diverges
    ],
    ids=["equal-degrees", "lower-degree", "zero", "higher-degree"],
)
def test_limit_at_infinity_reads_the_degrees(num, den, limit):
    assert limit_at_infinity(num, den) == limit


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_tau_ratio_constraints(r):
    record = ybe.tau_ratio_constraints(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_coefficient_consistency(r):
    record = ybe.coefficient_consistency(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_a_wrong_top_eigenvalue_fails_every_casimir_difference(monkeypatch):
    # c_r one too large moves each 4(r-1)(c_(r-2k) - c_r), k > 0, by -4(r-1)
    r = 4
    real = ybe.c2k_eigenvalue
    monkeypatch.setattr(ybe, "c2k_eigenvalue", lambda rank, k: real(rank, k) + 1 if k == rank else real(rank, k))
    failed = {c.check_id: c.witness for c in failing_checks(ybe.asymptotic_check(r))}
    assert failed == {f"casimir-difference-k{k}": f"{-2 * k * k - 4 * (r - 1)} != {-2 * k * k}" for k in (1, 2)}


def test_a_doubled_tau_fails_both_of_its_ratios(monkeypatch):
    # r = 4: tau_1 is the coefficient of P_2, the top of one ratio and the
    # bottom of the other; the ratio of label l is (u + d)/(u - d), d = 3 - l,
    # and tau_0 = 1, tau_1 = (u - 1)/(u + 1), tau_2 = tau_1 (u - 3)/(u + 3)
    r = 4
    real = ybe.tau_coefficient

    def doubled(k, form="plain"):
        num, den = real(k, form)
        return (num * 2, den) if k == 1 else (num, den)

    monkeypatch.setattr(ybe, "tau_coefficient", doubled)
    failed = {c.check_id: c.witness for c in failing_checks(ybe.tau_ratio_constraints(r))}
    # label 0: 2(u - 1) (u + 1)(u + 3) (u - 3) against (u + 3) (u + 1) (u - 1)(u - 3)
    # label 2: 1 (u + 1) (u - 1) against (u + 1) 1 2(u - 1)
    label0, label2 = poly_from_roots([1, -1, 3, -3]), poly_from_roots([1, -1])
    assert failed == {
        "scaled-ratio-label0": f"{label0 * 2} != {label0}",
        "scaled-ratio-label2": f"{label2} != {label2 * 2}",
    }


def test_a_wrong_casimir_value_fails_the_rescaling_with_both_functions(monkeypatch):
    # c2(T_r_plus) one too large adds 1/4 to the quarter difference of the
    # top label pair, so the rescaled ratio of label 2 is (u + 4)/(u - 4);
    # cross-multiplied with (u + 1)/(u - 1), (u + 4)(u - 1) against (u + 1)(u - 4)
    r = 4
    real = oracles.c2_closed_form
    monkeypatch.setattr(
        oracles, "c2_closed_form", lambda rep, *args: real(rep, *args) + (1 if rep == "T_r_plus" else 0)
    )
    failed = {c.check_id: c.witness for c in failing_checks(ybe.tau_ratio_constraints(r))}
    assert failed == {
        "casimir-quarter-difference-label2": "1/3 != 1/12",
        "rescaling-consistency-label2": f"{Poly([-4, 3, 1])} != {Poly([-4, -3, 1])}",
    }


def test_a_wrong_closed_form_fails_its_recurrence_and_normalization(monkeypatch):
    # even[1] doubled: the recurrence into it and out of it breaks, and so
    # does its ratio to the seed; c_(k+2) den_k = c_k num_k, with (num_k,
    # den_k) the step k, and the generated even[1] is (num_0, den_0)
    r = 3
    real = ybe.closed_form_coefficients(r)
    even = (real.even[0], real.even[1] * 2, *real.even[2:])
    monkeypatch.setattr(ybe, "closed_form_coefficients", lambda rank: replace(real, even=even))
    failed = {c.check_id: c.witness for c in failing_checks(ybe.coefficient_consistency(r))}
    (num_0, den_0), (_, den_2) = ybe._recurrence_step(r, 0), ybe._recurrence_step(r, 2)
    into, out_of, ratio = real.even[1] * den_0, real.even[2] * den_2, num_0 * real.even[0]
    assert failed == {
        "closed-form-recurrence-even-k0": f"{into * 2} != {into}",
        "closed-form-recurrence-even-k2": f"{out_of} != {out_of * 2}",
        "normalization-ratio-even-j1": f"{ratio} != {real.even[1] * den_0 * 2}",
    }


def test_recurrence_ratio_example():
    even, _ = ybe.recurrence_coefficients(2)
    (num_1, den_1), (num_0, den_0) = even[1], even[0]
    # step from the seed: (num_1/den_1) / (num_0/den_0) = -u / (u + 2) at r = 2
    assert num_1 * den_0 * Poly([2, 1]) == Poly([0, -1]) * den_1 * num_0


def test_closed_form_example():
    closed = ybe.closed_form_coefficients(2)
    u = Rat(6)
    # rf(u/2, 0) rf(u/2, 2) and -rf(u/2, 1)^2 at u = 6
    assert closed.even[0](u) == Rat(12)
    assert closed.even[1](u) == Rat(-9)


@pytest.mark.parametrize("r", [2, 3])
def test_full_ybe(r):
    record = ybe.full_ybe_check(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3])
def test_chirality_split(r):
    record = ybe.chirality_split_check(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_top_projector_relations(r):
    record = ybe.top_projector_relations(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_a_wrong_top_projector_fails_with_witnesses(monkeypatch):
    # e_0 (x) e_0 is a top eigenvector, so the wrong entry sits in row 1
    r = 2
    real = spectra.rho_projectors(r)
    skewed = {**real, r: real[r] + ExactMatrix(4**r, {(1, 1): 1})}
    monkeypatch.setattr(ybe, "rho_projectors", lambda rank: skewed if rank == r else spectra.rho_projectors(rank))
    failed = failing_checks(ybe.top_projector_relations(r))
    assert "casimir-top-eigenvalue" in [c.check_id for c in failed]
    assert all(c.witness.startswith("first differing entry") for c in failed)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_symmetric_part_factorization(r):
    record = ybe.symmetric_part_factorization(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_rising_factorial_identity():
    record = ybe.rising_factorial_identity()
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_rising_factorial_identity_fails_on_an_off_by_one_rising_factorial(monkeypatch):
    # x (x+1) ... (x+k): one factor too many, so each side's degree differs
    real = ybe.rising_factorial
    monkeypatch.setattr(ybe, "rising_factorial", lambda x, k: real(x, k + 1))
    record = ybe.rising_factorial_identity()
    assert [c.check_id for c in failing_checks(record)] == [f"r{r}" for r in range(2, 9)]
    assert all(" != " in c.witness for c in failing_checks(record))


def test_rising_factorial_polynomial():
    x = Poly.x()
    rf3 = rising_factorial(x, 3)
    assert rf3(Rat(2)) == Rat(24)
    assert rf3.degree == 3


# -- the coefficient-matrix expansion against direct products ---------------

# the originals, so a test can call them while their names are patched
CLOSED_FORMS = ybe.closed_form_coefficients
GRID = ybe.admissible_grid
TAU = ybe.tau_coefficient

# the caches that hold a family or anything derived from one
CACHED = (
    ybe.sector_r_matrix,
    ybe._full_series,
    ybe._sector_braid_classes,
    ybe._full_braid_classes,
    ybe._swap_relation,
    ybe._leg_premises,
)


@pytest.fixture
def fresh_caches():
    """Nothing built from a perturbed family outlives the test."""
    caches = (*CACHED, full_at, triple_products)
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def direct_braid(r_u, r_uv, r_v, leg):
    """Reference: both sides of R12(u) R23(u+v) R12(v) = R23(v) R12(u+v) R23(u)."""
    ident = ExactMatrix.identity(leg)
    lhs = kron(r_u, ident) @ kron(ident, r_uv) @ kron(r_v, ident)
    rhs = kron(ident, r_v) @ kron(r_uv, ident) @ kron(ident, r_u)
    return lhs, rhs


def direct_full(r, u, v):
    """Reference outcome of one full-series point."""
    lhs, rhs = direct_braid(*(full_at(r, x) for x in (u, u + v, v)), 2**r)
    return lhs == rhs


@functools.lru_cache(maxsize=None)
def full_at(r, u):
    return ybe.full_r_matrix(r, u)


def taus(r, form):
    """{label r - 2k: tau_k} of a sector family."""
    return {r - 2 * k: ybe.tau_coefficient(k, form) for k in range(r // 2 + 1)}


def at_pole(r, form, *points):
    return any(not den(x) for _, den in taus(r, form).values() for x in points)


def sector_expansion(r, eps, u, form):
    """Reference: sum_k tau_k(u) P_(r-2k), from the taus and the sector
    projectors, not from the family's parts.
    """
    projectors = spectra.sector_spectral(r, eps + eps).projectors
    return lincomb(4 ** (r - 1), [(at(tau, u), projectors[label]) for label, tau in taus(r, form).items()])


def invariant_series(r, u):
    """Reference: the sums of c_k(u)/k! I_k over the even and the odd k,
    from the closed forms and the invariants, not from the family's parts.
    """
    closed = ybe.closed_form_coefficients(r)
    return tuple(
        lincomb(4**r, [(c(u) / factorial(k), casimir.invariant_I(r, k)) for k, c in zip(range(first, 2 * r + 1, 2), coeffs)])
        for first, coeffs in ((0, closed.even), (1, closed.odd))
    )


def direct_sector(r, eps, u, v, form="braid"):
    """Reference outcome of one sector point; None at a pole."""
    if at_pole(r, form, u, v, u + v):
        return None
    lhs, rhs = direct_braid(*(sector_expansion(r, eps, x, form) for x in (u, u + v, v)), 2 ** (r - 1))
    return lhs == rhs


@functools.lru_cache(maxsize=None)
def triple_products(r, eps):
    """K_abc of the projectors, each formed by its own four products."""
    projectors = spectra.sector_spectral(r, eps + eps).projectors
    ident = ExactMatrix.identity(2 ** (r - 1))
    left = {a: kron(projectors[a], ident) for a in taus(r, "plain")}
    right = {a: kron(ident, projectors[a]) for a in taus(r, "plain")}
    return {
        (a, b, c): left[a] @ right[b] @ left[c] - right[c] @ left[b] @ right[a]
        for a in left
        for b in left
        for c in left
    }


def triple_product_sum(r, eps, u, v, form="braid"):
    """Reference: sum_abc t_a(u) t_b(u+v) t_c(v) K_abc == 0; None at a pole."""
    if at_pole(r, form, u, v, u + v):
        return None
    t = taus(r, form)
    total = ExactMatrix.zero(8 ** (r - 1))
    for (a, b, c), k_abc in triple_products(r, eps).items():
        total = total + k_abc * (at(t[a], u) * at(t[b], u + v) * at(t[c], v))
    return total.is_zero()


# -- families on Clifford monomial classes -----------------------------------


def full_chi(r, closed=None):
    """chi_k = c_k of the full series, from the closed forms."""
    closed = closed or CLOSED_FORMS(r)
    return [(closed.odd if k % 2 else closed.even)[k // 2] for k in range(2 * r + 1)]


def cleared_taus(r, form="braid"):
    """Q tau_k, k = 0..r/2: the coefficients of the labels r - 2k."""
    q = ybe.tau_denominator(r)
    return [num * q.divmod(den)[0] for num, den in (TAU(k, form) for k in range(r // 2 + 1))]


def elementary(r, j):
    """e_j(g) on V (x) V, from the invariants."""
    return casimir.invariant_I(r, j) * Rat(1, factorial(j))


def class_family_at(r, chi, u):
    """Reference: sum_j chi_j(u) e_j(g)."""
    return lincomb(4**r, [(c(u), elementary(r, j)) for j, c in enumerate(chi)])


def sector_family_at(r, eps, coefficients, u):
    """Reference: sum_k p_k(u) P_(r-2k) on the block of Delta_eps (x) Delta_eps."""
    projectors = spectra.sector_spectral(r, eps + eps).projectors
    return lincomb(4 ** (r - 1), [(p(u), projectors[r - 2 * k]) for k, p in enumerate(coefficients)])


def direct_class_full(r, chi, u, v):
    lhs, rhs = direct_braid(*(class_family_at(r, chi, x) for x in (u, u + v, v)), 2**r)
    return lhs == rhs


def direct_class_sector(r, coefficients, u, v):
    """The braid equation holds on Delta_+^(x)3 and on Delta_-^(x)3."""
    leg = 2 ** (r - 1)
    sides = (direct_braid(*(sector_family_at(r, eps, coefficients, x) for x in (u, u + v, v)), leg) for eps in "+-")
    return all(lhs == rhs for lhs, rhs in sides)


def class_grid(r, chi, s=None):
    """The braid classes of sum_j chi_j(u) e_j(g), chi a list of Poly; with
    s = (-1)^r, on Delta_+^(x)3 + Delta_-^(x)3.
    """
    return ybe._braid_classes("classes", Poly.const(1), r, chi, s)


def class_verdict(r, chi, s, u, v):
    [check] = class_grid(r, chi, s).grid("point", [(u, v)]).checks
    return check.status == PASS


CLASS_WITNESS = re.compile(
    r"class \(n11, n10, n01, n00\) = \((\d+), (\d+), (\d+), (\d+)\), "
    r"x_A y_B with A = \{([\d, ]*)\}, B = \{([\d, ]*)\}: (.*)"
)


def parse_class_witness(witness):
    """(class, A, B, rest) of a class witness; A and B must be the smallest
    representative of the class.
    """
    match = CLASS_WITNESS.fullmatch(witness)
    assert match, witness
    n = tuple(int(x) for x in match.group(1, 2, 3, 4))
    a, b = ([int(x) for x in group.split(", ") if x] for group in match.group(5, 6))
    n11, n10, n01, _ = n
    assert a == list(range(1, n11 + n10 + 1))
    assert b == [*range(1, n11 + 1), *range(n11 + n10 + 1, n11 + n10 + n01 + 1)]
    return n, a, b, match.group(7)


def monomial(r, a, b):
    """x_A y_B on V (x) V (x) V."""
    leg = ExactMatrix.identity(2**r)
    gammas = build_gamma(r).gammas
    out = ExactMatrix.identity(8**r)
    for index in a:
        out = out @ kron(kron(gammas[index - 1], gammas[index - 1]), leg)
    for index in b:
        out = out @ kron(leg, kron(gammas[index - 1], gammas[index - 1]))
    return out


def class_coefficient(r, chi, a, b, u, v):
    """Reference: the coefficient of x_A y_B in LHS - RHS at (u, v), read by
    the trace form: the monomials are orthogonal, each of norm 8^r.
    """
    lhs, rhs = direct_braid(*(class_family_at(r, chi, x) for x in (u, u + v, v)), 2**r)
    return ((monomial(r, a, b).conj_transpose() @ (lhs - rhs)).trace()) / 8**r


def assert_class_failure(record, r=None, chi=None):
    """The record's premise holds and its class check fails with a class
    witness: the smallest representative, a u^i v^j coefficient and both
    values.  Given chi, the monomial's coefficient in LHS - RHS is nonzero
    at some grid point, by direct products.
    """
    assert [c.status for c in record.checks[:-1]] == [PASS] * (len(record.checks) - 1)
    last = record.checks[-1]
    assert (last.check_id, last.status) == ("both-sides-agree-on-every-class", FAIL)
    _, a, b, rest = parse_class_witness(last.witness)
    match = re.fullmatch(r"u\^(\d+) v\^(\d+) coefficient (-?\d+) != (-?\d+)", rest)
    assert match and match.group(3) != match.group(4), rest
    if chi is not None:
        assert any(class_coefficient(r, chi, a, b, u, v) for u, v in ybe.grid_points(r)[:3])


def assert_matches_direct(record, r, direct):
    """Every check of a grid record has the direct products' outcome; a
    failing one carries the witness of a class.
    """
    points = ybe.grid_points(r)
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in points]
    for check, (u, v) in zip(record.checks, points):
        passed = direct(u, v)
        assert (check.status == PASS) == passed, check.check_id
        if passed:
            assert check.witness == ""
        else:
            assert parse_class_witness(check.witness)[3].startswith("LHS - RHS, cleared, is ")


def premise_witness(identity):
    """What every point of a family that fails the premise carries: the
    first failed premise check of its identity record, by id and witness.
    """
    failed = next(c for c in identity.checks[:-1] if c.status == FAIL)
    return f"premise {failed.check_id} fails: {failed.witness}"


def assert_premise_fails_every_point(record, r, identity):
    """Without the premise the classes decide nothing: every grid point
    fails with the premise witness.
    """
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in ybe.grid_points(r)]
    witness = premise_witness(identity)
    assert all((c.status, c.witness) == (FAIL, witness) for c in record.checks)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("eps", ["+", "-"])
@pytest.mark.parametrize("form", ["braid", "plain"])
def test_sector_family_is_its_projector_expansion(r, eps, form):
    family = ybe.sector_r_matrix(r, eps, form)
    for u in sum(ybe.admissible_grid(r), ()):
        assert family.evaluate(u) == sector_expansion(r, eps, u, form)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_degree_parts_sum_to_full_r_matrix(r):
    parts = ybe._full_series(r)[0].parts
    assert len(parts) == r + 1  # the closed forms have degree r
    for u in sum(ybe.admissible_grid(r), ()):
        even, odd = invariant_series(r, u)
        assert lincomb(4**r, [(u**d, part) for d, part in enumerate(parts)]) == even + odd
        assert ybe.full_r_matrix(r, u) == even + odd
        assert ybe.full_r_matrix_parts(r, u) == (even + odd, even, odd)


@pytest.mark.parametrize("r", [2, 3])
def test_full_grid_matches_direct_products(r):
    assert_matches_direct(ybe.full_ybe_check(r), r, lambda u, v: direct_full(r, u, v))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("eps", ["+", "-"])
@pytest.mark.parametrize("form", ["braid", "plain"])
def test_sector_grid_matches_triple_products(r, eps, form):
    # the classes decide both chiralities at once
    points = ybe.grid_points(r)
    if form == "braid":
        record = ybe.ybe_check(r, eps)
        assert [ybe.ybe_point(r, eps, u, v) for u, v in points] == [c.status == PASS for c in record.checks]
    else:
        record = class_grid(r, ybe._class_lift(r, cleared_taus(r, form)), (-1) ** r).grid("grid", points)
    for check, (u, v) in zip(record.checks, points):
        holds = all(triple_product_sum(r, chirality, u, v, form) for chirality in "+-")
        assert triple_product_sum(r, eps, u, v, form) == holds
        assert (check.status == PASS) == holds
        if holds:
            assert check.witness == ""
        else:
            parse_class_witness(check.witness)


spectral = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([2, 3]), eps=st.sampled_from(["+", "-"]), u=spectral, v=spectral)
def test_sector_point_matches_direct_products(r, eps, u, v):
    expected = direct_sector(r, eps, u, v)
    outcome = ybe.ybe_point(r, eps, u, v)
    assert outcome == expected
    assert outcome == triple_product_sum(r, eps, u, v)


@settings(max_examples=15, deadline=None)
@given(u=spectral, v=spectral)
def test_full_point_matches_direct_products(u, v):
    [check] = ybe._full_braid_classes(2).grid("full-point", [(u, v)]).checks
    assert direct_full(2, u, v)
    assert (check.status, check.witness) == (PASS, "")


# -- random families: the classes against direct products ---------------------

small_polys = st.lists(st.integers(-3, 3), max_size=3).map(Poly)
factors = small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=30, deadline=None)
@given(data=st.data(), u=spectral, v=spectral)
def test_random_full_family_gets_the_verdict_of_direct_products(data, u, v):
    # a random family, or the full series times a polynomial, which solves
    # the equation too: it is cubic in R
    r = 2
    if data.draw(st.booleans()):
        chi = data.draw(st.lists(small_polys, min_size=2 * r + 1, max_size=2 * r + 1))
    else:
        factor = data.draw(factors)
        chi = [c * factor for c in full_chi(r)]
    assert class_verdict(r, chi, None, u, v) == direct_class_full(r, chi, u, v)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), u=spectral, v=spectral)
def test_random_sector_family_gets_the_verdict_of_direct_products(data, u, v):
    # random coefficients of the labels r - 2k, or the braid family's times a
    # polynomial; the verdict covers both chiralities
    r = 2
    if data.draw(st.booleans()):
        coefficients = data.draw(st.lists(small_polys, min_size=r // 2 + 1, max_size=r // 2 + 1))
    else:
        factor = data.draw(factors)
        coefficients = [p * factor for p in cleared_taus(r)]
    chi = ybe._class_lift(r, coefficients)
    assert class_verdict(r, chi, (-1) ** r, u, v) == direct_class_sector(r, coefficients, u, v)


RANK3_FAMILIES = {
    "scaled": lambda chi: [c * Poly([3, 2]) for c in chi],
    "bumped-c1": lambda chi: [c + Poly([0, 1]) if j == 1 else c for j, c in enumerate(chi)],
    "random": lambda chi: [Poly([j % 3 - 1, (j * j) % 5 - 2, 1]) for j in range(len(chi))],
}


@pytest.mark.parametrize("family", sorted(RANK3_FAMILIES))
def test_rank3_full_family_gets_the_verdict_of_direct_products(family):
    r = 3
    us, vs = ybe.admissible_grid(r)
    chi = RANK3_FAMILIES[family](full_chi(r))
    verdict = class_verdict(r, chi, None, us[1], vs[2])
    assert verdict == direct_class_full(r, chi, us[1], vs[2])
    assert verdict == (family == "scaled")


@pytest.mark.parametrize("family", ["scaled", "bumped-p0", "plain"])
def test_rank3_sector_family_gets_the_verdict_of_direct_products(family):
    r = 3
    us, vs = ybe.admissible_grid(r)
    coefficients = {
        "scaled": [p * Poly([3, 2]) for p in cleared_taus(r)],
        "bumped-p0": [p + Poly([0, 1]) if k == 0 else p for k, p in enumerate(cleared_taus(r))],
        "plain": cleared_taus(r, "plain"),
    }[family]
    chi = ybe._class_lift(r, coefficients)
    verdict = class_verdict(r, chi, (-1) ** r, us[1], vs[2])
    assert verdict == direct_class_sector(r, coefficients, us[1], vs[2])
    assert verdict == (family == "scaled")


# -- mutations: each fails with a class witness, or passes as it must --------

BUMPS = {"constant": Poly([1]), "u": Poly([0, 1]), "u^2": Poly([0, 0, 1])}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("bump", sorted(BUMPS))
def test_bumped_full_coefficient_fails_with_a_class_witness(fresh_caches, monkeypatch, r, bump):
    for k in sorted({0, 1, 2, r, 2 * r}):
        closed = CLOSED_FORMS(r)
        parity = "odd" if k % 2 else "even"
        coeffs = list(getattr(closed, parity))
        coeffs[k // 2] = coeffs[k // 2] + BUMPS[bump]
        bumped = replace(closed, **{parity: tuple(coeffs)})
        monkeypatch.setattr(ybe, "closed_form_coefficients", lambda rank, c=bumped: c)
        ybe._full_braid_classes.cache_clear()
        chi = full_chi(r)
        chi[k] = chi[k] + BUMPS[bump]
        assert_class_failure(ybe.full_ybe_identity_check(r), r, chi if r == 2 else None)


def pi_term(r, m):
    """u Pi_m as 4^r times its coefficients of e_j(g): u K_m(j)."""
    return [Poly([0, ybe._krawtchouk(2 * r, m, j)]) for j in range(2 * r + 1)]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_sector_lift_plus_u_pi_r_fails_with_a_class_witness(r):
    chi = [c + p for c, p in zip(ybe._class_lift(r, cleared_taus(r)), pi_term(r, r))]
    assert_class_failure(class_grid(r, chi, (-1) ** r).record)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_sector_lift_plus_u_pi_r_minus_1_passes(r):
    # Pi_(r-1) lives on Delta_+ (x) Delta_- + Delta_- (x) Delta_+
    chi = [c + p for c, p in zip(ybe._class_lift(r, cleared_taus(r)), pi_term(r, r - 1))]
    assert class_grid(r, chi, (-1) ** r).record.ok


@pytest.mark.parametrize("r", [2, 3, 4])
def test_every_family_times_2u_plus_3_passes(r):
    scaled = [c * Poly([3, 2]) for c in ybe._class_lift(r, cleared_taus(r))]
    assert class_grid(r, scaled, (-1) ** r).record.ok
    assert class_grid(r, [c * Poly([3, 2]) for c in full_chi(r)]).record.ok


@pytest.mark.parametrize("r", [2, 3])
def test_plain_form_keeps_the_premise_but_is_no_braid_identity(r):
    # the plain form solves R12 R13 R23 = R23 R13 R12, not the braid equation
    assert_class_failure(class_grid(r, ybe._class_lift(r, cleared_taus(r, "plain")), (-1) ** r).record)


def raised_degree(r):
    """Closed forms with u^(r+1) added to the coefficient of I_2."""
    closed = CLOSED_FORMS(r)
    bump = Poly([0] * (r + 1) + [1])
    return replace(closed, even=(closed.even[0], closed.even[1] + bump, *closed.even[2:]))


def test_raised_coefficient_degree_fails_like_direct_products(fresh_caches, monkeypatch):
    monkeypatch.setattr(ybe, "closed_form_coefficients", raised_degree)
    r = 2
    assert len(ybe._full_series(r)[0].parts) == r + 2  # the u^(r+1) part is kept
    record = ybe.full_ybe_check(r)
    assert failing_checks(record)
    assert_matches_direct(record, r, lambda u, v: direct_full(r, u, v))


def test_raised_degree_keeps_the_premise_and_fails_on_a_class(fresh_caches, monkeypatch):
    monkeypatch.setattr(ybe, "closed_form_coefficients", raised_degree)
    r = 2
    assert_class_failure(ybe.full_ybe_identity_check(r), r, full_chi(r, raised_degree(r)))


def test_perturbed_invariant_fails_like_direct_products(fresh_caches, monkeypatch):
    # a perturbed closed form, c_2 + u/3: the class grid fails exactly where
    # direct products do
    r = 2
    closed = CLOSED_FORMS(r)
    perturbed = replace(closed, even=(closed.even[0], closed.even[1] + Poly([0, Rat(1, 3)]), *closed.even[2:]))
    monkeypatch.setattr(ybe, "closed_form_coefficients", lambda rank: perturbed)
    record = ybe.full_ybe_check(r)
    assert failing_checks(record)
    assert_matches_direct(record, r, lambda u, v: direct_full(r, u, v))


def test_corrupted_invariant_fails_the_records_that_read_it(fresh_caches, monkeypatch):
    # the braid records read the closed forms, not I_k; the records that
    # read I_k catch a corrupted one, here an entry of I_2 from e_0 (x) e_2 in
    # Delta_+ (x) Delta_- to e_0 (x) e_0 in Delta_+ (x) Delta_+
    r = 2
    real = casimir.invariant_I
    perturbed = real(r, 2) + ExactMatrix(4**r, {(0, 2): Rat(1, 3)})

    def corrupted(rank, k):
        return perturbed if (rank, k) == (r, 2) else real(rank, k)

    monkeypatch.setattr(casimir, "invariant_I", corrupted)
    monkeypatch.setattr(ybe, "invariant_I", corrupted)
    for record in (casimir.verify_recurrences(r), ybe.symmetric_part_factorization(r), ybe.chirality_split_check(r)):
        assert failing_checks(record), record.name
    assert ybe.full_ybe_identity_check(r).ok


def test_perturbed_projector_fails_like_direct_products(fresh_caches, monkeypatch):
    r = 3
    perturb_projector(monkeypatch, r)
    assert not any(direct_sector(r, "+", u, v) for u, v in ybe.grid_points(r))
    assert_premise_fails_every_point(ybe.ybe_check(r, "+"), r, ybe.ybe_identity_check(r))


# -- the records and their premise --------------------------------------------

LEG_PREMISE = ["gamma-integrity", "gamma-products-are-traceless"]
LIFTS = ["family-is-its-class-lift-eps+", "family-is-its-class-lift-eps-"]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_braid_identity_records_pass(r):
    full, sector = ybe.full_ybe_identity_check(r), ybe.ybe_identity_check(r)
    assert full.name == f"yang-baxter-identity r={r} family=full"
    assert sector.name == f"yang-baxter-identity r={r} eps=+- form=braid"
    for record, premise in ((full, LEG_PREMISE), (sector, LEG_PREMISE + LIFTS)):
        assert record.ok, [(c.check_id, c.witness) for c in failing_checks(record)]
        assert [c.check_id for c in record.checks] == premise + ["both-sides-agree-on-every-class"]
    assert len(list(ybe._classes(2 * r))) == comb(2 * r + 3, 3)


def test_braid_records_and_grids_form_no_matrix_on_the_triple_product(fresh_caches, monkeypatch):
    # every matrix made lives on V (x) V or a smaller space: at r = 4 the
    # triple products of the sector leg have dimension 512, of V 4096
    r = 4
    dims = []
    real_wrap, real_init = ExactMatrix._wrap.__func__, ExactMatrix.__init__

    def wrap(cls, dim, *parts):
        dims.append(dim)
        return real_wrap(cls, dim, *parts)

    def init(self, dim, entries=None):
        dims.append(dim)
        real_init(self, dim, entries)

    monkeypatch.setattr(ExactMatrix, "_wrap", classmethod(wrap))
    monkeypatch.setattr(ExactMatrix, "__init__", init)
    us, vs = ybe.admissible_grid(r)
    records = [
        ybe.ybe_identity_check(r),
        ybe.full_ybe_identity_check(r),
        ybe.ybe_check(r, "-"),
        ybe.full_ybe_check(r),
        ybe.plain_ybe_spot_check(r, "+", [(us[0], vs[0])]),
    ]
    assert all(record.ok for record in records)
    assert dims and max(dims) == 4**r < 8 ** (r - 1)


def perturb_projector(monkeypatch, r):
    """The r, ++ family with one projector entry changed."""
    data = SECTOR_SPECTRAL(r, "++")
    projectors = dict(data.projectors)
    projectors[1] = projectors[1] + ExactMatrix(data.block.dim, {(2, 3): 1})
    replace_projectors(monkeypatch, r, projectors)


SECTOR_SPECTRAL = spectra.sector_spectral


def replace_projectors(monkeypatch, r, projectors):
    """The r, ++ sector with the given projectors, for the program and for
    the references alike.
    """
    perturbed = replace(SECTOR_SPECTRAL(r, "++"), projectors=projectors)

    def patched(rank, sector):
        return perturbed if (rank, sector) == (r, "++") else SECTOR_SPECTRAL(rank, sector)

    monkeypatch.setattr(ybe, "sector_spectral", patched)
    monkeypatch.setattr(spectra, "sector_spectral", patched)


def test_perturbed_projector_fails_the_premise(fresh_caches, monkeypatch):
    r = 3
    perturb_projector(monkeypatch, r)
    record = ybe.ybe_identity_check(r)
    assert [c.status for c in record.checks] == [PASS, PASS, FAIL, PASS, PASS]
    lift = record.checks[2]
    assert lift.check_id == "family-is-its-class-lift-eps+"
    assert lift.witness.startswith("S_") and ": first differing entry" in lift.witness
    premise = ybe._sector_braid_classes(r).premise
    assert premise == f"premise family-is-its-class-lift-eps+ fails: {lift.witness}"


@pytest.mark.parametrize("failing", ["premise", "classes"])
def test_failing_points_make_no_products(fresh_caches, monkeypatch, failing):
    # without the premise a point takes the premise's witness; with it, a
    # point evaluates the class differences
    r = 3
    if failing == "premise":
        perturb_projector(monkeypatch, r)
        family = ybe._sector_braid_classes(r)
    else:
        family = class_grid(r, ybe._class_lift(r, cleared_taus(r, "plain")), (-1) ** r)
    assert (family.premise is None) == (failing == "classes")

    def refused(*args):
        raise AssertionError("a matrix product at a grid point")

    for kernel in ("mat_mul", "mat_kron"):
        monkeypatch.setattr(_backend, kernel, refused)
    monkeypatch.setattr(_backend.RowsSum, "add_product", refused)
    record = family.grid("grid", ybe.grid_points(r))
    assert len(failing_checks(record)) == 81


def test_cli_failure_carries_its_witness(fresh_caches, monkeypatch, capsys):
    perturb_projector(monkeypatch, 3)
    code = main(["ybe", "--r", "3", "--u", "1/3", "--v", "1/7"])
    assert code == 1
    record = json.loads(capsys.readouterr().out)["record"]
    assert record["ok"] is False
    [failure] = record["checks"]
    assert (failure["id"], failure["status"]) == ("point-u1/3-v1/7", "fail")
    assert failure["witness"] == premise_witness(ybe.ybe_identity_check(3))
    assert failure["witness"].startswith("premise family-is-its-class-lift-eps+ fails: S_")


def test_classes_decide_nothing_without_the_premise(fresh_caches, monkeypatch):
    # classes that all agree, for a family that fails the premise
    r = 3
    perturb_projector(monkeypatch, r)
    monkeypatch.setattr(ybe, "_class_failures", lambda chi, s=None: iter(()))
    identity = ybe.ybe_identity_check(r)
    assert [c.status for c in identity.checks] == [PASS, PASS, FAIL, PASS, PASS]
    assert_premise_fails_every_point(ybe.ybe_check(r, "+"), r, identity)


@pytest.mark.parametrize(
    "patch, failed",
    [
        ("integrity_report", "gamma-integrity"),
        ("product_trace_failures", "gamma-products-are-traceless"),
    ],
)
def test_failed_leg_premise_fails_every_point(fresh_caches, monkeypatch, patch, failed):
    # the full series still solves the equation, but without the premise the
    # classes cannot show it
    r = 2
    if patch == "integrity_report":
        broken = VerificationRecord(name="broken")
        broken.add("anticommutator-1-2", False, "first differing entry (0, 0): 2 != 0")
        monkeypatch.setattr(ybe, patch, lambda rep: broken)
        witness = "anticommutator-1-2: first differing entry (0, 0): 2 != 0"
    else:
        witness = "tr G_[1, 2] = 4, not 0"
        monkeypatch.setattr(ybe, patch, lambda rep: iter([witness]))
    record = ybe.full_ybe_identity_check(r)
    assert [(c.check_id, c.status == PASS) for c in record.checks[:2]] == [(p, p != failed) for p in LEG_PREMISE]
    assert record.checks[LEG_PREMISE.index(failed)].witness == witness
    assert record.checks[-1].status == PASS
    assert all(direct_full(r, u, v) for u, v in ybe.grid_points(r)[:3])
    assert_premise_fails_every_point(ybe.full_ybe_check(r), r, record)


# -- the plain form through the swap relation --------------------------------


def direct_plain(r, eps, u, v):
    """Reference: both sides of R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u)
    by products on the triple product, R13 = P23 R12 P23; None at a pole.
    """
    if at_pole(r, "plain", u, v, u + v):
        return None
    ident = ExactMatrix.identity(2 ** (r - 1))
    swap23 = kron(ident, permutation_operator(2 ** (r - 1)))
    r_u, r_uv, r_v = (sector_expansion(r, eps, x, "plain") for x in (u, u + v, v))
    r12_u, r23_v = kron(r_u, ident), kron(ident, r_v)
    r13 = swap23 @ kron(r_uv, ident) @ swap23
    return r12_u @ r13 @ r23_v, r23_v @ r13 @ r12_u


def assert_plain_matches_direct(r, eps, points):
    """Each plain check has the outcome of the direct plain products; a
    failing one carries the witness of the braid point (v, u): the premise's,
    if the braid families fail it, else that of a class.
    """
    record = ybe.plain_ybe_spot_check(r, eps, points)
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in points]
    identity = ybe.ybe_identity_check(r)
    for check, (u, v) in zip(record.checks, points):
        sides = direct_plain(r, eps, u, v)
        if sides is None:
            assert (check.status, check.witness) == (FAIL, "pole hit")
            continue
        passed = sides[0] == sides[1]
        assert (check.status == PASS) == passed, check.check_id
        if passed:
            assert check.witness == "", check.check_id
        elif all(c.status == PASS for c in identity.checks[:-1]):
            assert check.witness == ybe.ybe_check(r, eps, [(v, u)]).checks[0].witness, check.check_id
            parse_class_witness(check.witness)
        else:
            assert check.witness == premise_witness(identity), check.check_id
    return record


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_swap_relation_holds(r, eps):
    record = ybe.swap_relation_check(r, eps)
    assert record.name == f"swap-relation r={r} eps={eps}"
    assert record.ok, [(c.check_id, c.witness) for c in failing_checks(record)]


def test_ybe_suite_builds_the_swap_relation_once(fresh_caches, monkeypatch):
    # every family's parts are one _degree_parts call: the sector families
    # through _cleared_family, the two parities of the full series directly
    built, requested = [], set()
    real_build, real_family = ybe._degree_parts, ybe.sector_r_matrix

    def counted_build(dim, terms):
        built.append(dim)
        return real_build(dim, terms)

    def counted_family(r, eps, form="plain"):
        requested.add((r, eps, form))
        return real_family(r, eps, form)

    # the swap relation's record and plain_ybe_spot_check read one cached result
    relations = []
    real_relation = ybe._swap_relation.__wrapped__

    @functools.lru_cache(maxsize=None)
    def counted_relation(r, eps):
        relations.append((r, eps))
        return real_relation(r, eps)

    monkeypatch.setattr(ybe, "_degree_parts", counted_build)
    monkeypatch.setattr(ybe, "sector_r_matrix", counted_family)
    monkeypatch.setattr(ybe, "_swap_relation", counted_relation)
    records = report.ybe_suite(3)
    assert requested == {(3, eps, form) for eps in "+-" for form in ("plain", "braid")}
    # one build per (eps, form) on the 16-dim sector block and one per parity
    # of the full series on the 64-dim square; besides, unitarity collects its
    # two sides per chirality and the factorization its two sides by degree
    assert sorted(built) == [16] * (4 + 2 * 2) + [64] * (2 + 2)
    assert relations == [(3, "+"), (3, "-")]
    names = [record.name for record in records]
    for name in ("swap-relation r=3 eps=+", "swap-relation r=3 eps=-", "plain-yang-baxter r=3 eps=+"):
        assert name in names
    # the report decides Delta_-: its swap symmetry and one braid identity for both chiralities
    assert "swap-symmetry r=3 eps=-" in names and "yang-baxter-identity r=3 eps=+- form=braid" in names
    # each record handed out is a copy of the cached one
    copy = ybe.swap_relation_check(3, "+")
    copy.add("extra", False, "x")
    assert [c.check_id for c in ybe.swap_relation_check(3, "+").checks] == [
        "braid-parts-equal-swap-times-plain-parts"
    ]


def test_ybe_suite_runs_the_full_series_at_every_rank(monkeypatch):
    # each record builder is stubbed and no family may be built, so no rank-6
    # work runs; the suite must still ask for both full-series records
    calls = []

    def stub(name, *args):
        calls.append((name, *args))
        return VerificationRecord(name=name)

    def refused(*args):
        raise AssertionError("a family built by a stubbed suite")

    builders = (
        "asymptotic_check tau_ratio_constraints coefficient_consistency ybe_identity_check ybe_check unitarity_check "
        "symmetry_check swap_relation_check plain_ybe_spot_check symmetric_part_factorization chirality_split_check "
        "full_ybe_identity_check full_ybe_check rising_factorial_identity"
    )
    for name in builders.split():
        monkeypatch.setattr(ybe, name, functools.partial(stub, name))
    for name in ("sector_r_matrix", "_full_series", "_cleared_family"):
        monkeypatch.setattr(ybe, name, refused)
    for r in range(2, report.MAX_RANK + 1):
        calls.clear()
        assert len(report.ybe_suite(r)) == len(calls)
        assert ("full_ybe_identity_check", r) in calls and ("full_ybe_check", r) in calls


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_plain_record_matches_direct_plain_products(r, eps):
    record = assert_plain_matches_direct(r, eps, ybe.grid_points(r))
    assert record.ok


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([2, 3]), eps=st.sampled_from(["+", "-"]), u=spectral, v=spectral)
def test_plain_point_matches_direct_plain_products(r, eps, u, v):
    assert_plain_matches_direct(r, eps, [(Rat(u), Rat(v))])


def rescaled_tau(k, form="plain"):
    """tau_k times 2 for k = 1 in both forms: the swap relation still holds,
    the Yang-Baxter equation does not.
    """
    num, den = TAU(k, form)
    return (num * 2, den) if k == 1 else (num, den)


@pytest.mark.parametrize("r, eps", [(2, "+"), (2, "-"), (3, "+")])
def test_rescaled_tau_fails_plain_points_like_direct_products(fresh_caches, monkeypatch, r, eps):
    monkeypatch.setattr(ybe, "tau_coefficient", rescaled_tau)
    assert ybe.swap_relation_check(r, eps).ok
    assert not ybe.ybe_identity_check(r).ok
    record = assert_plain_matches_direct(r, eps, ybe.grid_points(r))
    assert failing_checks(record)


def test_skewed_projector_fails_plain_points_like_direct_products(fresh_caches, monkeypatch):
    # P_2 + P_2 X P_2 keeps the P-eigenvalue of P_2, so the swap relation
    # holds, but it is not symmetric: the sides at (u, v) are no longer the
    # transposes of those at (v, u), and the witnesses tell the points apart
    r = 2
    data = spectra.sector_spectral(r, "++")
    projectors = dict(data.projectors)
    top = projectors[2]
    skew = top @ ExactMatrix(data.block.dim, {(0, 1): 1}) @ top
    assert skew and skew != ExactMatrix(skew.dim, {(j, i): value for i, j, value in skew.items()})
    projectors[2] = top + skew
    replace_projectors(monkeypatch, r, projectors)
    assert ybe.swap_relation_check(r, "+").ok
    record = assert_plain_matches_direct(r, "+", ybe.grid_points(r))
    assert failing_checks(record)


@pytest.mark.parametrize("r, k", [(2, 1), (3, 0), (4, 2)])
def test_flipped_braid_tau_fails_the_relation_and_every_plain_point(fresh_caches, monkeypatch, r, k):
    def flipped(index, form="plain"):
        num, den = TAU(index, form)
        return (-num, den) if form == "braid" and index == k else (num, den)

    monkeypatch.setattr(ybe, "tau_coefficient", flipped)
    [relation] = ybe.swap_relation_check(r, "+").checks
    assert relation.status == FAIL
    assert relation.witness.startswith("S_")
    assert "of the braid form is not P S_" in relation.witness
    assert "first differing entry" in relation.witness
    record = ybe.plain_ybe_spot_check(r, "+", ybe.grid_points(r)[:5])
    assert len(record.checks) == 5
    assert all((c.status, c.witness) == (FAIL, relation.witness) for c in record.checks)


def test_plain_and_full_points_make_no_direct_products_once_the_classes_are_built(monkeypatch):
    us, vs = ybe.admissible_grid(4)
    ybe.ybe_identity_check(4)  # builds and keeps the classes
    ybe.full_ybe_identity_check(3)

    def refused(*args, **kwargs):
        raise AssertionError("a direct product on the triple product")

    real = _backend.mat_kron
    kron_calls = []

    def counted(terms, b_dim):
        kron_calls.append(len(terms))
        return real(terms, b_dim)

    monkeypatch.setattr(clifford, "kron", refused)
    monkeypatch.setattr(_backend, "mat_kron", counted)
    assert ybe.plain_ybe_spot_check(4, "+", [(us[0], vs[0]), (us[1], vs[1])]).ok
    assert ybe.full_ybe_check(3, [(Rat(-1, 2), Rat(5, 7))]).ok
    assert kron_calls == []


# -- a pole on a YBE grid is a failure --------------------------------------


def grid_with_pole(r):
    us, vs = GRID(r)
    return (Rat(-1), *us[1:]), vs


@pytest.mark.parametrize(
    "check",
    [
        lambda: ybe.ybe_check(2, "+"),
        lambda: ybe.plain_ybe_spot_check(2, "+", [(Rat(-1), Rat(1, 7))]),
    ],
    ids=["grid", "plain-spot"],
)
def test_pole_on_grid_is_a_failure(monkeypatch, check):
    monkeypatch.setattr(ybe, "admissible_grid", grid_with_pole)
    record = check()
    assert not record.ok
    assert failing_checks(record)
    assert all(c.witness == "pole hit" for c in failing_checks(record))
    assert all(c.status in (PASS, FAIL) for c in record.checks)


def test_cli_refuses_a_pole_before_any_projector(fresh_caches, monkeypatch, capsys):
    # Q comes from the taus alone, so the refusal needs no sector block
    def refused(*args):
        raise AssertionError("a sector projector built for a refused point")

    monkeypatch.setattr(ybe, "sector_spectral", refused)
    monkeypatch.setattr(spectra, "sector_spectral", refused)
    assert main(["ybe", "--r", "2", "--u", "-1", "--v", "1/3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: (u, v) = (-1, 1/3) is at a pole of the braid sector family\n"


# -- the chirality split ------------------------------------------------------


def test_wrong_odd_projector_fails_the_resolution(monkeypatch):
    # the odd projector built with a + where its gamma term has a -: it is
    # then the even one, and the two no longer resolve the identity
    real = ybe.kron_sum
    monkeypatch.setattr(ybe, "kron_sum", lambda terms: real([(abs(c), a, b) for c, a, b in terms]))
    record = ybe.chirality_split_check(2)
    failed = [c.check_id for c in failing_checks(record)]
    assert failed[0] == "projector-resolution"
    assert failing_checks(record)[0].witness.startswith("first differing entry")
    assert all(check_id.startswith("odd-part-") for check_id in failed[1:])


# -- the identities in u: unitarity, swap symmetry, chirality split, factorization

SECTOR_FAMILY = ybe.sector_r_matrix

IDENTITY_RECORDS = {
    "unitarity+": lambda r: ybe.unitarity_check(r, "+"),
    "unitarity-": lambda r: ybe.unitarity_check(r, "-"),
    "symmetry": lambda r: ybe.symmetry_check(r, "+"),
    "chirality": ybe.chirality_split_check,
    "factorization": ybe.symmetric_part_factorization,
}


def serve_family(monkeypatch, key, parts):
    """sector_r_matrix serves, for key = (r, eps, form), a new family with the
    given parts and the cached family's Q; the cached family is not touched.
    """
    served = ybe.RMatrixFamily(q=SECTOR_FAMILY(*key).q, parts=tuple(parts))

    def patched(r, eps, form="plain"):
        return served if (r, eps, form) == key else SECTOR_FAMILY(r, eps, form)

    monkeypatch.setattr(ybe, "sector_r_matrix", patched)


def top_degree(name, r):
    """The higher degree in u of the two cleared sides of a record."""
    plain, braid = SECTOR_FAMILY(r, "+"), SECTOR_FAMILY(r, "+", "braid")
    if name.startswith("unitarity"):  # Q(u) R(u) P Q(-u) R(-u) P and Q(u) Q(-u)
        return 2 * max(len(plain.parts) - 1, plain.q.degree)
    if name == "factorization":  # Q(u) E(u) and prod_(k<r) (u+k) Q(u) R^eps(u)
        return max(braid.q.degree, len(braid.parts) - 1) + r
    return {"symmetry": len(plain.parts) - 1, "chirality": r}[name]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", sorted(IDENTITY_RECORDS))
def test_identity_records_compare_every_degree_and_evaluate_no_family(monkeypatch, r, name):
    def refused(self, u):
        raise AssertionError("a family evaluated at a point")

    monkeypatch.setattr(ybe.RMatrixFamily, "evaluate", refused)
    record = IDENTITY_RECORDS[name](r)
    assert record.ok, [(c.check_id, c.witness) for c in failing_checks(record)]
    degrees = {}
    for check in record.checks:
        prefix, hat, n = check.check_id.partition("u^")
        if hat:
            degrees.setdefault(prefix, []).append(int(n))
    if name == "chirality":
        expected = [f"{parity}-part-{side}-" for parity in ("even", "odd") for side in ("left", "right")]
    else:
        expected = ["coefficient-"]
    assert degrees == {prefix: list(range(top_degree(name, r) + 1)) for prefix in expected}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", sorted(IDENTITY_RECORDS))
def test_dropping_the_top_part_of_one_side_fails_the_top_degree(monkeypatch, r, name):
    # a comparison that stopped at the shorter side would pass
    real, sides = ybe._degree_checks, []

    def dropped(record, prefix, lhs, rhs):
        sides.append((prefix, lhs, rhs))
        real(record, prefix, lhs, rhs[:-1])

    monkeypatch.setattr(ybe, "_degree_checks", dropped)
    record = IDENTITY_RECORDS[name](r)
    expected = {}
    for prefix, lhs, rhs in sides:
        top = len(rhs) - 1
        assert lhs[top] == rhs[top]
        expected[f"{prefix}{top}"] = mismatch(lhs[top], ExactMatrix.zero(lhs[top].dim))
    assert sides and all(expected.values())
    assert {c.check_id: c.witness for c in failing_checks(record)} == expected


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_unitarity_fails_on_a_scaled_part(monkeypatch, r, eps):
    # Q(u) R(u) at u = 0 is S_0, so doubling it makes the u^0 coefficient
    # 4 Q(0)^2 where Q(0)^2 is due
    family = SECTOR_FAMILY(r, eps)
    serve_family(monkeypatch, (r, eps, "plain"), [family.parts[0] * 2, *family.parts[1:]])
    failed = failing_checks(ybe.unitarity_check(r, eps))
    assert failed[0].check_id == "coefficient-u^0"
    due = ExactMatrix.identity(4 ** (r - 1)) * (family.q(0) ** 2)
    assert failed[0].witness == mismatch(due * 4, due)
    assert failed[0].witness.startswith("first differing entry (0, 0): ")
    monkeypatch.undo()
    assert SECTOR_FAMILY(r, eps) is family
    assert ybe.unitarity_check(r, eps).ok


@pytest.mark.parametrize("r", [2, 3])
def test_factorization_fails_on_a_scaled_part(monkeypatch, r):
    # prod_k (u+k) has no constant term, so S^+_0 first shows at u^1
    family = SECTOR_FAMILY(r, "+", "braid")
    scaled = family.parts[0] * 2
    serve_family(monkeypatch, (r, "+", "braid"), [scaled, *family.parts[1:]])
    record = ybe.symmetric_part_factorization(r)
    failed = failing_checks(record)
    assert failed[0].check_id == "coefficient-u^1"
    dim, q, rising = 4**r, ybe.tau_denominator(r), rising_factorial(Poly.x(), r)
    even = ybe._full_series(r)[1].parts
    lhs = lincomb(dim, [(q.coeffs[1 - d], even[d]) for d in (0, 1) if 1 - d < len(q.coeffs)])
    minus = SECTOR_FAMILY(r, "-", "braid").parts[0]
    lifted = scaled.embed(casimir.sector_indices(r, "++"), dim) + minus.embed(casimir.sector_indices(r, "--"), dim)
    assert failed[0].witness == mismatch(lhs, lifted * rising.coeffs[1])
    assert all(c.check_id.startswith("coefficient-u^") for c in failed)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_swap_symmetry_fails_on_an_asymmetric_part(monkeypatch, r):
    # e_0 (x) e_1 <- e_0 (x) e_0 is not fixed by the swap, which moves it to
    # e_1 (x) e_0 <- e_0 (x) e_0; the family of the other chirality still passes
    swap = permutation_operator(2 ** (r - 1))
    for eps, other in (("+", "-"), ("-", "+")):
        family = SECTOR_FAMILY(r, eps)
        last = len(family.parts) - 1
        skewed = family.parts[last] + ExactMatrix(family.parts[last].dim, {(1, 0): 1})
        serve_family(monkeypatch, (r, eps, "plain"), [*family.parts[:last], skewed])
        failed = failing_checks(ybe.symmetry_check(r, eps))
        assert [c.check_id for c in failed] == [f"coefficient-u^{last}"]
        assert failed[0].witness == mismatch(swap @ skewed @ swap, skewed)
        assert failed[0].witness.startswith("first differing entry (1, 0): ")
        assert ybe.symmetry_check(r, other).ok
        monkeypatch.undo()
        assert SECTOR_FAMILY(r, eps) is family


@pytest.mark.parametrize("r", [2, 3])
def test_swap_symmetry_fails_with_the_legs_of_one_side_swapped(monkeypatch, r):
    # P S_0 on the right: the swap moves P_(r-2) to -P_(r-2), so P S_0 != S_0
    real = ybe._degree_checks
    swap = permutation_operator(2 ** (r - 1))

    def swapped(record, prefix, lhs, rhs):
        real(record, prefix, lhs, [swap @ rhs[0], *rhs[1:]])

    monkeypatch.setattr(ybe, "_degree_checks", swapped)
    failed = failing_checks(ybe.symmetry_check(r, "+"))
    assert [c.check_id for c in failed] == ["coefficient-u^0"]
    s_0 = SECTOR_FAMILY(r, "+").parts[0]
    assert failed[0].witness == mismatch(swap @ s_0 @ swap, swap @ s_0)
