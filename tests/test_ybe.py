import dataclasses
import functools
import itertools
import json
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from spincas import _backend, casimir, clifford, oracles, report, spectra, ybe
from spincas.clifford import build_gamma, cartan_generators, half_spinor_blocks, rotation_generators
from spincas.cli import main
from spincas.linalg import ExactMatrix, kron, lincomb, permutation_operator
from spincas.oracles import basis_pairs
from spincas.ratfunc import Poly, RationalFunction, rising_factorial
from spincas.records import FAIL, PASS, VerificationRecord, mismatch
from spincas.scalar import ExactScalar, Rat

from failing import failing_checks


def test_tau_coefficients():
    top = ybe.tau_coefficient(2, 0)
    assert top == RationalFunction.const(1)
    first = ybe.tau_coefficient(2, 1)
    assert first(Rat(3)) == Rat(1, 2)
    braid = ybe.tau_coefficient(2, 1, "braid")
    assert braid(Rat(3)) == Rat(-1, 2)
    assert first.den(Rat(-1)) == 0  # the pole at u = -1


@pytest.mark.parametrize("form", ["brade", "Braid", ""])
def test_tau_coefficient_refuses_an_unknown_form(form):
    with pytest.raises(ValueError, match="unknown form"):
        ybe.tau_coefficient(3, 1, form)


def test_family_structure():
    # Q is the lcm of the tau denominators, and Q(u) R(u) has one part per
    # power of u up to the degree of Q
    for r, eps, roots in [(3, "-", [1]), (4, "+", [1, 3]), (5, "-", [1, 3])]:
        q = Poly.const(1)
        for root in roots:
            q = q * Poly([root, 1])
        assert ybe.tau_denominator(r) == q
        # the braid form flips only numerator signs, so one Q serves both forms
        assert all(ybe.tau_coefficient(r, k, "braid").den == ybe.tau_coefficient(r, k).den for k in range(r // 2 + 1))
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


@pytest.mark.parametrize("r", [2, 3])
def test_swap_symmetry(r):
    assert ybe.symmetry_check(r, "+").ok


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_asymptotics(r):
    record = ybe.asymptotic_check(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


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
    # bottom of the other; the ratio of label l is (u + d)/(u - d), d = 3 - l
    r = 4
    real = ybe.tau_coefficient
    monkeypatch.setattr(
        ybe, "tau_coefficient", lambda rank, k, form="plain": real(rank, k, form) * (2 if k == 1 else 1)
    )
    failed = {c.check_id: c.witness for c in failing_checks(ybe.tau_ratio_constraints(r))}
    ratio = {d: RationalFunction(Poly([d, 1]), Poly([-d, 1])) for d in (1, 3)}
    assert failed == {
        "scaled-ratio-label0": f"{ratio[3] * 2} != {ratio[3]}",
        "scaled-ratio-label2": f"{ratio[1] * Rat(1, 2)} != {ratio[1]}",
    }


def test_a_wrong_casimir_value_fails_the_rescaling_with_both_functions(monkeypatch):
    # c2(T_r_plus) one too large adds 1/4 to the quarter difference of the
    # top label pair, so the rescaled ratio of label 2 is (u + 4)/(u - 4)
    r = 4
    real = oracles.c2_closed_form
    monkeypatch.setattr(
        oracles, "c2_closed_form", lambda rep, *args: real(rep, *args) + (1 if rep == "T_r_plus" else 0)
    )
    failed = {c.check_id: c.witness for c in failing_checks(ybe.tau_ratio_constraints(r))}
    assert failed == {
        "casimir-quarter-difference-label2": "1/3 != 1/12",
        "rescaling-consistency-label2": (
            f"{RationalFunction(Poly([4, 1]), Poly([-4, 1]))} != {RationalFunction(Poly([1, 1]), Poly([-1, 1]))}"
        ),
    }


def test_a_wrong_closed_form_fails_its_recurrence_and_normalization(monkeypatch):
    # even[1] doubled: the recurrence into it and out of it breaks, and so
    # does its ratio to the seed
    r = 3
    real = ybe.closed_form_coefficients(r)
    even = (real.even[0], real.even[1] * 2, *real.even[2:])
    monkeypatch.setattr(ybe, "closed_form_coefficients", lambda rank: dataclasses.replace(real, even=even))
    failed = {c.check_id: c.witness for c in failing_checks(ybe.coefficient_consistency(r))}
    rec = ybe.recurrence_coefficients(r)
    assert failed == {
        "closed-form-recurrence-even-k0": f"{real.even[1] * 2} != {real.even[1]}",
        "closed-form-recurrence-even-k2": f"{real.even[2]} != {real.even[2] * 2}",
        "normalization-ratio-even-j1": f"{rec.even[1] * real.even[0]} != {real.even[1] * 2}",
    }


def test_recurrence_ratio_example():
    rec = ybe.recurrence_coefficients(2)
    ratio = rec.even[1] / rec.even[0]
    # step from the seed: u / (2 - 2r - u) at r = 2
    assert ratio == RationalFunction(Poly([0, 1]), Poly([2, 1])) * Rat(-1)


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

# the originals, so a test can call and clear them while their names are patched
CLOSED_FORMS = ybe.closed_form_coefficients
GRID = ybe.admissible_grid

# the caches that hold a family or anything derived from one
CACHED = (
    ybe.sector_r_matrix,
    ybe.closed_form_coefficients,
    ybe._full_series,
    ybe._sector_braid_slice,
    ybe._full_braid_slice,
    ybe._swap_relation,
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
    return {r - 2 * k: ybe.tau_coefficient(r, k, form) for k in range(r // 2 + 1)}


def at_pole(r, form, *points):
    return any(not tau.den(x) for tau in taus(r, form).values() for x in points)


def sector_expansion(r, eps, u, form):
    """Reference: sum_k tau_k(u) P_(r-2k), from the taus and the sector
    projectors, not from the family's parts.
    """
    projectors = spectra.sector_spectral(r, eps + eps).projectors
    return lincomb(4 ** (r - 1), [(tau(u), projectors[label]) for label, tau in taus(r, form).items()])


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
        total = total + k_abc * (t[a](u) * t[b](u + v) * t[c](v))
    return total.is_zero()


def reference_braid_differences(parts, leg):
    """The nonzero D_ij on all leg^3 columns, as {(i, j): D_ij}, from every
    K_abc formed in full; the sliced build must agree with their columns.
    """
    ident = ExactMatrix.identity(leg)
    left = [kron(m, ident) for m in parts]
    right = [kron(ident, m) for m in parts]
    n = len(parts)
    grouped = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                k_abc = left[a] @ right[b] @ left[c] - right[c] @ left[b] @ right[a]
                for m in range(b + 1):
                    grouped.setdefault((a + m, c + b - m), []).append((comb(b, m), k_abc))
    diffs = {key: lincomb(leg**3, terms) for key, terms in grouped.items()}
    return {key: d for key, d in diffs.items() if d}


def columns_in(m, columns):
    return ExactMatrix(m.dim, {(i, j): value for i, j, value in m.items() if j in columns})


def sector_braid_family(r, eps, form):
    """The braid slice of a sector family in either form; the program builds
    only the braid form's, so the plain form's is built here.
    """
    name = f"yang-baxter-identity r={r} eps={eps} form={form}"
    return ybe._braid_family(name, ybe.sector_r_matrix(r, eps, form), r, half_spinor_blocks(r, eps))


def e0_slice(leg):
    """The reference slice e_0 (x) V (x) V: the first leg^2 columns."""
    return range(leg * leg)


def levi_slice(r, eps=None):
    """The program's Levi slice of the full leg (eps None) or of Delta_eps."""
    gens = rotation_generators(r) if eps is None else half_spinor_blocks(r, eps)
    return ybe._levi_rows(clifford.leg_weights(cartan_generators(r, gens)))


def assert_slice_matches_reference(parts, leg, rows):
    """The sliced D_ij are the reference D_ij on the slice columns rows."""
    sliced = ybe._sliced_braid_differences(parts, leg, rows)
    reference = reference_braid_differences(parts, leg)
    columns = on_slice(reference, rows)
    assert dict(sliced) == {key: d for key, d in columns.items() if d}
    return dict(sliced), reference


def on_slice(diffs, rows):
    """The D_ij restricted to the slice columns rows."""
    rows = set(rows)
    return {key: columns_in(d, rows) for key, d in diffs.items()}


def slice_witness(diffs, leg, u, v):
    """The witness of a failing point under the premise: the first nonzero
    entry of sum_ij u^i v^j D_ij, for the D_ij on the slice.
    """
    total = lincomb(leg**3, [(u**i * v**j, d) for (i, j), d in diffs.items()])
    assert total, "a failing point must be nonzero on the slice"
    witness = mismatch(total, ExactMatrix.zero(leg**3))
    return f"Q(u) Q(u+v) Q(v) (LHS - RHS) is nonzero on the slice: {witness}"


def assert_matches_direct(record, r, direct, parts, leg, rows):
    """Every check of a grid record whose family keeps the premise has the
    direct products' outcome; a failing one carries the witness on the
    slice columns rows.
    """
    points = ybe.grid_points(r)
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in points]
    diffs = None  # built on the first failing point
    for check, (u, v) in zip(record.checks, points):
        passed = direct(u, v)
        assert (check.status == PASS) == passed, check.check_id
        if not passed:
            diffs = diffs or on_slice(reference_braid_differences(parts, leg), rows)
        assert check.witness == ("" if passed else slice_witness(diffs, leg, u, v)), check.check_id


# the premise checks of a yang-baxter-identity record, before its D_ij check
PREMISE = [
    "degree-parts-commute-with-symmetries",
    "orbit-of-e0-covers-leg",
    "leg-basis-is-a-weight-basis",
    "levi-fixes-the-line-of-e0",
]


def premise_witness(identity):
    """What every point of a family that fails the premise carries: the
    first failed premise check of its identity record, by id and witness.
    """
    failed = next(c for c in identity.checks[:-1] if c.status == FAIL)
    return f"premise {failed.check_id} fails: {failed.witness}"


def assert_premise_fails_every_point(record, r, identity):
    """Without the premise the slice decides nothing: every grid point fails
    with the premise witness.
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
    parts = ybe._full_series(r)[0].parts
    assert_matches_direct(ybe.full_ybe_check(r), r, lambda u, v: direct_full(r, u, v), parts, 2**r, levi_slice(r))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("eps", ["+", "-"])
@pytest.mark.parametrize("form", ["braid", "plain"])
def test_sector_grid_matches_triple_products(r, eps, form):
    points = ybe.grid_points(r)
    record = sector_braid_family(r, eps, form).grid("grid", points)
    for check, (u, v) in zip(record.checks, points):
        assert (check.status == PASS) == triple_product_sum(r, eps, u, v, form)
    if form == "braid":
        assert [ybe.ybe_point(r, eps, u, v) for u, v in points] == [c.status == PASS for c in record.checks]
    else:
        direct = functools.partial(direct_sector, r, eps, form="plain")
        parts = ybe.sector_r_matrix(r, eps, form).parts
        assert_matches_direct(record, r, direct, parts, 2 ** (r - 1), levi_slice(r, eps))


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
    [check] = ybe._full_braid_slice(2).grid("full-point", [(u, v)]).checks
    assert direct_full(2, u, v)
    assert (check.status, check.witness) == (PASS, "")


# -- mutations: a perturbed family fails where direct products fail ---------


def raised_degree(r):
    """Closed forms with u^(r+1) added to the coefficient of I_2."""
    closed = CLOSED_FORMS(r)
    bump = RationalFunction(Poly([0] * (r + 1) + [1]))
    return dataclasses.replace(closed, even=(closed.even[0], closed.even[1] + bump, *closed.even[2:]))


def test_raised_coefficient_degree_fails_like_direct_products(fresh_caches, monkeypatch):
    monkeypatch.setattr(ybe, "closed_form_coefficients", raised_degree)
    r = 2
    parts = ybe._full_series(r)[0].parts
    assert len(parts) == r + 2  # the u^(r+1) part is kept
    record = ybe.full_ybe_check(r)
    assert failing_checks(record)
    assert_matches_direct(record, r, lambda u, v: direct_full(r, u, v), parts, 2**r, levi_slice(r))


def test_perturbed_invariant_fails_like_direct_products(fresh_caches, monkeypatch):
    r = 2
    real = ybe.invariant_I
    perturbed = real(r, 2) + ExactMatrix(4**r, {(0, 5): Rat(1, 3)})
    monkeypatch.setattr(ybe, "invariant_I", lambda rank, k: perturbed if k == 2 else real(rank, k))
    # the perturbed I_2 breaks the premise, and direct products fail everywhere
    assert not any(direct_full(r, u, v) for u, v in ybe.grid_points(r))
    assert_premise_fails_every_point(ybe.full_ybe_check(r), r, ybe.full_ybe_identity_check(r))


def test_perturbed_projector_fails_like_direct_products(fresh_caches, monkeypatch):
    r = 3
    perturb_projector(monkeypatch, r)
    assert not any(direct_sector(r, "+", u, v) for u, v in ybe.grid_points(r))
    assert_premise_fails_every_point(ybe.ybe_check(r, "+"), r, ybe.ybe_identity_check(r, "+"))


# -- the Levi slice and its premise ------------------------------------------


@pytest.mark.parametrize("r", [2, 3])
def test_full_slice_matches_reference_columns(r):
    for rows in (e0_slice(2**r), levi_slice(r)):
        sliced, reference = assert_slice_matches_reference(ybe._full_series(r)[0].parts, 2**r, rows)
        assert sliced.keys() == reference.keys()  # zero exactly where the reference is


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("eps", ["+", "-"])
@pytest.mark.parametrize("form", ["braid", "plain"])
def test_sector_slice_matches_reference_columns(r, eps, form):
    parts = ybe.sector_r_matrix(r, eps, form).parts
    for rows in (e0_slice(2 ** (r - 1)), levi_slice(r, eps)):
        sliced, reference = assert_slice_matches_reference(parts, 2 ** (r - 1), rows)
        assert sliced.keys() == reference.keys()


def spinor_weights(r, chirality=None):
    """The weights (+-1, ..., +-1), in units of 1/2, of the full spinor leg,
    or of the half-spinor leg with that product of signs, led by the weight
    of e_0: (1, ..., 1) on Delta_+ and on the full leg, (1, ..., 1, -1) on
    Delta_-.
    """
    weights = list(itertools.product((1, -1), repeat=r))
    if chirality is not None:
        weights = [w for w in weights if (-1) ** w.count(-1) == chirality]
    lead = (1,) * (r - 1) + (chirality or 1,)
    return [lead] + [w for w in weights if w != lead]


# slice widths: the full series, and each sector leg, at r = 3..7
LEVI_WIDTHS = {3: (26, 6), 4: (57, 17), 5: (120, 27), 6: (247, 70), 7: (502, 112)}


@pytest.mark.parametrize("r", sorted(LEVI_WIDTHS))
def test_levi_slice_widths(r):
    # weight arithmetic alone: no leg matrix and no family is built
    full, sector = LEVI_WIDTHS[r]
    assert len(ybe._levi_rows(spinor_weights(r))) == full
    assert len(ybe._levi_rows(spinor_weights(r, 1))) == sector
    assert len(ybe._levi_rows(spinor_weights(r, -1))) == sector


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_leg_weights_are_the_spinor_weights(r):
    # the Cartan generators L_(2k-1,2k) are diagonal in the gamma basis, with
    # e_0 of weight (1, ..., 1) on the full leg and on Delta_+
    legs = ((rotation_generators(r), None), (half_spinor_blocks(r, "+"), 1), (half_spinor_blocks(r, "-"), -1))
    for gens, chirality in legs:
        cartan = cartan_generators(r, gens)
        assert list(clifford.weight_basis_failures(cartan)) == []
        weights = clifford.leg_weights(cartan)
        assert weights[0] == spinor_weights(r, chirality)[0]
        assert sorted(weights) == sorted(spinor_weights(r, chirality))


def identity_family(leg):
    """R(u) = 1 on the tensor square of a leg: it solves the braid equation."""
    return ybe.RMatrixFamily(q=Poly.const(1), parts=(ExactMatrix.identity(leg * leg),))


def real_family(r, eps):
    """(family, gens, group) of the full series (eps None) or of a braid
    sector family, as the program passes them to its braid slice.
    """
    if eps is None:
        return ybe._full_series(r)[0], rotation_generators(r), [("gamma_1", build_gamma(r).gammas[0])]
    return ybe.sector_r_matrix(r, eps, "braid"), half_spinor_blocks(r, eps), []


# equivariant mutations of the degree parts: each keeps every part a sum of
# invariants, so the premise holds and the Levi slice must still decide
MUTATIONS = {
    "none": lambda parts: parts,
    "double-S1": lambda parts: (parts[0], parts[1] * 2, *parts[2:]),
    "S0-plus-1": lambda parts: (parts[0] + ExactMatrix.identity(parts[0].dim), *parts[1:]),
    "drop-top": lambda parts: parts[:-1],
    "swap-S0-S1": lambda parts: (parts[1], parts[0], *parts[2:]),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("r, eps", [(3, None), (4, None), (4, "+"), (4, "-")])
def test_levi_slice_sees_the_nonzero_D_ij_of_the_e0_slice(r, eps, mutation):
    family, gens, group = real_family(r, eps)
    mutated = ybe.RMatrixFamily(q=family.q, parts=MUTATIONS[mutation](family.parts))
    levi = ybe._braid_family("mutated", mutated, r, gens, group)
    assert levi.premise is None
    leg = gens[0].dim
    reference = ybe._sliced_braid_differences(mutated.parts, leg, e0_slice(leg))
    assert {key for key, _ in levi.diffs} == {key for key, _ in reference}
    assert bool(reference) == (mutation != "none")


def test_slice_forms_no_kronecker_matrix_on_the_triple_product(monkeypatch):
    r = 3
    leg = 2**r
    parts = ybe._full_series(r)[0].parts
    real = _backend.mat_kron
    output_rows = []

    def counted(terms, b_dim):
        out = real(terms, b_dim)
        output_rows.append(len(out))
        return out

    monkeypatch.setattr(_backend, "mat_kron", counted)
    ybe._sliced_braid_differences(parts, leg, e0_slice(leg))
    assert all(rows < leg**3 for rows in output_rows)


def test_wrong_right_hand_triple_product_fails_with_a_D_witness(fresh_caches, monkeypatch):
    # each K_abc is one call with its two triple products as terms; the first
    # such call forms K_000, and an added term puts one wrong entry into its
    # right-hand product (1 x R_c)(R_b x 1)(1 x R_a) only
    real = ybe.leg_products
    wrong = []

    def perturbed(terms, b_dim):
        if len(terms) == 2 and not wrong:
            identity = ({k: {k: 1} for k in range(b_dim)}, {})
            terms = [*terms, (-1, ({0: {1: 1}}, {}), identity, 1)]
            wrong.append(terms)
        return real(terms, b_dim)

    monkeypatch.setattr(ybe, "leg_products", perturbed)
    record = ybe.ybe_identity_check(2, "+")
    assert len(wrong) == 1
    assert [c.status for c in record.checks] == [PASS] * 4 + [FAIL]
    assert record.checks[-1].witness.startswith("D_(0, 0) is nonzero on the slice: first differing entry")


@pytest.mark.parametrize("r", [2, 3])
def test_braid_identity_records_pass(r):
    records = (
        ybe.full_ybe_identity_check(r),
        ybe.ybe_identity_check(r, "+"),
        ybe.ybe_identity_check(r, "-"),
    )
    for record in records:
        assert record.ok, [(c.check_id, c.witness) for c in failing_checks(record)]
        assert record.name.startswith(f"yang-baxter-identity r={r} ")
        assert [c.check_id for c in record.checks[:4]] == PREMISE
        assert record.checks[-1].check_id == "every-D_ij-vanishes-on-the-slice"
    full, sector = {2: (11, 4), **LEVI_WIDTHS}[r]
    assert len(levi_slice(r)) == full
    assert len(levi_slice(r, "+")) == len(levi_slice(r, "-")) == sector


@pytest.mark.parametrize("r", [2, 3])
def test_plain_form_keeps_the_premise_but_is_no_braid_identity(r):
    # the plain form solves R12 R13 R23 = R23 R13 R12, not the braid equation
    record = sector_braid_family(r, "+", "plain").record
    assert [c.status for c in record.checks] == [PASS] * 4 + [FAIL]
    assert "is nonzero on the slice" in record.checks[-1].witness


def test_raised_degree_keeps_the_premise_and_fails_on_the_slice(fresh_caches, monkeypatch):
    # the parts stay sums of invariants, so the slice decides, and the
    # nonzero D_ij are nonzero on the slice too
    monkeypatch.setattr(ybe, "closed_form_coefficients", raised_degree)
    r = 2
    sliced, reference = assert_slice_matches_reference(ybe._full_series(r)[0].parts, 2**r, levi_slice(r))
    assert reference and sliced.keys() == reference.keys()
    record = ybe.full_ybe_identity_check(r)
    assert [c.status for c in record.checks] == [PASS] * 4 + [FAIL]
    witness = record.checks[-1].witness
    assert witness.startswith(f"D_{min(reference)} is nonzero on the slice: first differing entry")


SECTOR_SPECTRAL = spectra.sector_spectral


def replace_projectors(monkeypatch, r, projectors):
    """The r, ++ sector with the given projectors, for the program and for
    the references alike.
    """
    perturbed = dataclasses.replace(SECTOR_SPECTRAL(r, "++"), projectors=projectors)

    def patched(rank, sector):
        return perturbed if (rank, sector) == (r, "++") else SECTOR_SPECTRAL(rank, sector)

    monkeypatch.setattr(ybe, "sector_spectral", patched)
    monkeypatch.setattr(spectra, "sector_spectral", patched)


def perturb_projector(monkeypatch, r):
    """The r, ++ family with one projector entry changed."""
    data = SECTOR_SPECTRAL(r, "++")
    projectors = dict(data.projectors)
    projectors[1] = projectors[1] + ExactMatrix(data.block.dim, {(2, 3): 1})
    replace_projectors(monkeypatch, r, projectors)


def test_perturbed_projector_fails_the_premise(fresh_caches, monkeypatch):
    r = 3
    perturb_projector(monkeypatch, r)
    assert_slice_matches_reference(ybe.sector_r_matrix(r, "+", "braid").parts, 2 ** (r - 1), e0_slice(2 ** (r - 1)))
    commute = ybe.ybe_identity_check(r, "+").checks[0]
    assert commute.check_id == "degree-parts-commute-with-symmetries"
    assert commute.status == FAIL
    assert commute.witness.startswith("S_") and "first differing entry" in commute.witness
    premise = ybe._sector_braid_slice(r, "+").premise
    assert premise == f"premise degree-parts-commute-with-symmetries fails: {commute.witness}"


@pytest.mark.parametrize("failing", ["premise", "slice"])
def test_failing_points_make_no_products(fresh_caches, monkeypatch, failing):
    # without the premise a point takes the premise's witness; with it, a
    # point is one linear combination of the sliced D_ij and its witness
    r = 3
    if failing == "premise":
        perturb_projector(monkeypatch, r)
        family = ybe._sector_braid_slice(r, "+")
    else:
        family = sector_braid_family(r, "+", "plain")
    assert (family.premise is None) == (failing == "slice")

    def refused(*args):
        raise AssertionError("a matrix product at a grid point")

    for kernel in ("mat_mul", "mat_kron", "mat_mul_leg"):
        monkeypatch.setattr(_backend, kernel, refused)
    record = family.grid("grid", ybe.grid_points(r))
    assert len(failing_checks(record)) == 81


def test_cli_failure_carries_its_witness(fresh_caches, monkeypatch, capsys):
    perturb_projector(monkeypatch, 3)
    code = main(["ybe", "--r", "3", "--u", "1/3", "--v", "1/7"])
    assert code == 1
    [failure] = json.loads(capsys.readouterr().out)["failures"]
    assert (failure["u"], failure["v"]) == ("1/3", "1/7")
    assert failure["witness"] == premise_witness(ybe.ybe_identity_check(3, "+"))
    assert failure["witness"].startswith("premise degree-parts-commute-with-symmetries fails: S_")


def test_slice_decides_nothing_without_the_premise(fresh_caches, monkeypatch):
    # a slice on which every D_ij vanishes, for a family that fails the premise
    r = 3
    perturb_projector(monkeypatch, r)
    monkeypatch.setattr(ybe, "_sliced_braid_differences", lambda parts, leg, rows: ())
    identity = ybe.ybe_identity_check(r, "+")
    assert [c.status for c in identity.checks] == [FAIL] + [PASS] * 4
    assert_premise_fails_every_point(ybe.ybe_check(r, "+"), r, identity)


def test_full_series_without_gamma1_fails_the_orbit_check():
    r = 2
    family = ybe._braid_family("no-gamma-1", ybe._full_series(r)[0], r, rotation_generators(r))
    record = family.record
    assert [c.status for c in record.checks] == [PASS, FAIL, PASS, PASS, PASS]
    # the chain generators keep the chirality, so the orbit stays in Delta_+
    assert record.checks[1].witness == "the orbit of e_0 reaches 2 of 4 basis vectors; e_2 is missed"
    # the series solves the equation, but without the premise the slice
    # cannot show it, so every point fails
    assert all(direct_full(r, u, v) for u, v in ybe.grid_points(r))
    assert_premise_fails_every_point(family.grid("grid", ybe.grid_points(r)), r, record)


def assert_first_failed_premise(family, r, check_id):
    """check_id is the family's first failed premise check, and every grid
    point fails with its witness, though R = 1 solves the equation.
    """
    statuses = {c.check_id: c.status for c in family.record.checks}
    before = PREMISE[: PREMISE.index(check_id) + 1]
    assert [statuses[name] for name in before] == [PASS] * (len(before) - 1) + [FAIL]
    assert family.premise.startswith(f"premise {check_id} fails: ")
    assert_premise_fails_every_point(family.grid("grid", ybe.grid_points(r)), r, family.record)


def test_mixed_cartan_generator_fails_the_weight_basis_check():
    # L_(1,2) conjugated by the mix e_0 +- e_a of two basis vectors whose
    # L_(1,2) weights differ: it still sends each basis vector to a multiple
    # of one, so the orbit check passes, but it is no longer diagonal
    r = 3
    gens = list(half_spinor_blocks(r, "+"))
    index = basis_pairs(2 * r).index((1, 2))
    h = gens[index]
    a = next(j for j in range(h.dim) if h[j, j] != h[0, 0])
    mix = {(j, j): 1 for j in range(h.dim)}
    mix.update({(0, a): 1, (a, 0): 1, (a, a): -1})
    mix = ExactMatrix(h.dim, mix)
    gens[index] = mix @ h @ mix * Rat(1, 2)  # the mix squares to 2
    family = ybe._braid_family("mixed", identity_family(h.dim), r, gens)
    [check] = [c for c in family.record.checks if c.check_id == "leg-basis-is-a-weight-basis"]
    assert check.witness == f"L_(1, 2) has entry (0, {a}) = {h[0, 0]}, not a diagonal entry in (i/2) Z"
    assert_first_failed_premise(family, r, "leg-basis-is-a-weight-basis")


@pytest.mark.parametrize("entry", [ExactScalar(0, Rat(1, 3)), ExactScalar(Rat(1, 2), Rat(1, 2))])
def test_cartan_entry_outside_half_integers_fails_the_weight_basis_check(entry):
    cartan = [((1, 2), ExactMatrix(2, {(0, 0): ExactScalar(0, Rat(1, 2)), (1, 1): entry}))]
    assert list(clifford.weight_basis_failures(cartan)) == [
        f"L_(1, 2) has entry (1, 1) = {entry}, not a diagonal entry in (i/2) Z"
    ]


def test_e0_inside_a_weight_string_fails_the_levi_check():
    # spinor legs have only extremal weights, so this leg is made for the
    # test: three basis vectors on the string of the root (1, -1), permuted
    # so that e_0 has the middle weight (1/2, 1/2); L_(2,3) cycles them
    r = 2

    def cartan(*weights):
        return ExactMatrix(3, {(j, j): ExactScalar(0, Rat(w, 2)) for j, w in enumerate(weights)})

    cartan_1, cartan_2 = cartan(1, 3, -1), cartan(1, -1, 3)
    cycle = ExactMatrix(3, {(1, 0): 1, (2, 1): 1, (0, 2): 1})
    # basis_pairs(4) order: (1,2) (1,3) (1,4) (2,3) (2,4) (3,4); the chain is (1,2) (2,3) (3,4)
    gens = (cartan_1, cycle, cycle, cycle, cycle, cartan_2)
    family = ybe._braid_family("string", identity_family(3), r, gens)
    [check] = [c for c in family.record.checks if c.check_id == "levi-fixes-the-line-of-e0"]
    assert check.witness == "e_1 has weight w(0) + alpha for the Levi root alpha = sigma_1 eps_1 - sigma_2 eps_2"
    assert_first_failed_premise(family, r, "levi-fixes-the-line-of-e0")


def test_chain_that_misses_a_root_vector_fails_the_levi_check():
    # L_(1,2) in place of L_(2,3): the chain then generates so(2) + so(4),
    # which holds no root vector of eps_1 - eps_2; a cyclic group element
    # keeps the orbit check passing
    r = 3
    gens = list(half_spinor_blocks(r, "+"))
    gens[basis_pairs(2 * r).index((2, 3))] = gens[basis_pairs(2 * r).index((1, 2))]
    leg = gens[0].dim
    cycle = ExactMatrix(leg, {((j + 1) % leg, j): 1 for j in range(leg)})
    family = ybe._braid_family("short-chain", identity_family(leg), r, gens, [("cycle", cycle)])
    [check] = [c for c in family.record.checks if c.check_id == "levi-fixes-the-line-of-e0"]
    assert check.witness == (
        "iterated commutators of 5 chain generators reach 7 of 14 rotation generators; L_(1, 3) is missed"
    )
    assert_first_failed_premise(family, r, "levi-fixes-the-line-of-e0")


@pytest.mark.parametrize("r", [2, 3, 4])
def test_untwisted_levi_fails_on_delta_minus(monkeypatch, r):
    # e_0 of Delta_- has weight (+, ..., +, -), so with the plain roots
    # eps_a - eps_b the weight w(0) + eps_r - eps_1 is on the leg; both users
    # of the twist, the slice rows and the Levi check, go untwisted
    def untwisted(weights):
        return (1,) * len(weights[0])

    monkeypatch.setattr(clifford, "twist", untwisted)
    monkeypatch.setattr(ybe, "twist", untwisted)
    untwisted_rows = levi_slice(r, "-")
    family = ybe._braid_family("untwisted", identity_family(2 ** (r - 1)), r, half_spinor_blocks(r, "-"))
    [check] = [c for c in family.record.checks if c.check_id == "levi-fixes-the-line-of-e0"]
    assert check.witness.startswith("e_") and check.witness.endswith(f"sigma_{r} eps_{r} - sigma_1 eps_1")
    assert_first_failed_premise(family, r, "levi-fixes-the-line-of-e0")
    monkeypatch.undo()
    assert levi_slice(r, "-") != untwisted_rows
    assert ybe._braid_family("twisted", identity_family(2 ** (r - 1)), r, half_spinor_blocks(r, "-")).premise is None


def test_orbit_check_refuses_a_non_monomial_map():
    g = ExactMatrix(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    witnesses = list(clifford.orbit_failures([("g", g, True)], 2))
    assert witnesses == ["g does not send e_0 to a nonzero multiple of one basis vector"]
    swap = ExactMatrix(2, {(0, 1): 1, (1, 0): 1})
    assert list(clifford.orbit_failures([("swap", swap, False)], 2)) == []


# -- the plain form through the swap relation --------------------------------

TAU = ybe.tau_coefficient


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
    if the braid family fails it, else the slice witness.
    """
    record = ybe.plain_ybe_spot_check(r, eps, points)
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in points]
    identity = ybe.ybe_identity_check(r, eps)
    leg = 2 ** (r - 1)
    diffs = None  # built on the first failing point that the slice decides
    for check, (u, v) in zip(record.checks, points):
        sides = direct_plain(r, eps, u, v)
        if sides is None:
            assert (check.status, check.witness) == (FAIL, "pole hit")
            continue
        passed = sides[0] == sides[1]
        assert (check.status == PASS) == passed, check.check_id
        if passed:
            expected = ""
        elif all(c.status == PASS for c in identity.checks[:-1]):
            parts = ybe.sector_r_matrix(r, eps, "braid").parts
            diffs = diffs or on_slice(reference_braid_differences(parts, leg), levi_slice(r, eps))
            expected = slice_witness(diffs, leg, v, u)
        else:
            expected = premise_witness(identity)
        assert check.witness == expected, check.check_id
    return record


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_swap_relation_holds(r, eps):
    record = ybe.swap_relation_check(r, eps)
    assert record.name == f"swap-relation r={r} eps={eps}"
    assert record.ok, [(c.check_id, c.witness) for c in failing_checks(record)]


def test_ybe_suite_builds_the_swap_relation_once(fresh_caches, monkeypatch):
    # every build of a family's parts goes through _cleared_family
    built, requested = [], set()
    real_build, real_family = ybe._cleared_family, ybe.sector_r_matrix

    def counted_build(dim, q, terms):
        built.append(dim)
        return real_build(dim, q, terms)

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

    monkeypatch.setattr(ybe, "_cleared_family", counted_build)
    monkeypatch.setattr(ybe, "sector_r_matrix", counted_family)
    monkeypatch.setattr(ybe, "_swap_relation", counted_relation)
    records = report.ybe_suite(3)
    assert requested == {(3, eps, form) for eps in "+-" for form in ("plain", "braid")}
    # one build per (eps, form) on the 16-dim sector block, one per parity of the full series
    assert sorted(built) == [16] * 4 + [64] * 2
    assert relations == [(3, "+")]
    names = [record.name for record in records]
    assert "swap-relation r=3 eps=+" in names and "plain-yang-baxter r=3 eps=+" in names
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


def rescaled_tau(r, k, form="plain"):
    """tau_k times 2 for k = 1 in both forms: the swap relation still holds,
    the Yang-Baxter equation does not.
    """
    tau = TAU(r, k, form)
    return tau * Rat(2) if k == 1 else tau


@pytest.mark.parametrize("r, eps", [(2, "+"), (2, "-"), (3, "+")])
def test_rescaled_tau_fails_plain_points_like_direct_products(fresh_caches, monkeypatch, r, eps):
    monkeypatch.setattr(ybe, "tau_coefficient", rescaled_tau)
    assert ybe.swap_relation_check(r, eps).ok
    assert not ybe.ybe_identity_check(r, eps).ok
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
    assert skew and skew.transpose() != skew
    projectors[2] = top + skew
    replace_projectors(monkeypatch, r, projectors)
    assert ybe.swap_relation_check(r, "+").ok
    record = assert_plain_matches_direct(r, "+", ybe.grid_points(r))
    assert failing_checks(record)


@pytest.mark.parametrize("r, k", [(2, 1), (3, 0), (4, 2)])
def test_flipped_braid_tau_fails_the_relation_and_every_plain_point(fresh_caches, monkeypatch, r, k):
    def flipped(rank, index, form="plain"):
        tau = TAU(rank, index, form)
        return -tau if form == "braid" and index == k else tau

    monkeypatch.setattr(ybe, "tau_coefficient", flipped)
    [relation] = ybe.swap_relation_check(r, "+").checks
    assert relation.status == FAIL
    assert relation.witness.startswith("S_")
    assert "of the braid form is not P S_" in relation.witness
    assert "first differing entry" in relation.witness
    record = ybe.plain_ybe_spot_check(r, "+", ybe.grid_points(r)[:5])
    assert len(record.checks) == 5
    assert all((c.status, c.witness) == (FAIL, relation.witness) for c in record.checks)


def test_plain_and_full_points_make_no_direct_products_once_the_slices_are_built(monkeypatch):
    us, vs = ybe.admissible_grid(4)
    ybe.ybe_identity_check(4, "+")  # builds and keeps the slices
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


@pytest.mark.parametrize("r", [2, 3])
def test_swap_symmetry_fails_on_an_asymmetric_part(monkeypatch, r):
    # e_0 (x) e_1 <- e_0 (x) e_0 is not fixed by the swap, which moves it to
    # e_1 (x) e_0 <- e_0 (x) e_0
    family = SECTOR_FAMILY(r, "+")
    last = len(family.parts) - 1
    skewed = family.parts[last] + ExactMatrix(family.parts[last].dim, {(1, 0): 1})
    serve_family(monkeypatch, (r, "+", "plain"), [*family.parts[:last], skewed])
    swap = permutation_operator(2 ** (r - 1))
    failed = failing_checks(ybe.symmetry_check(r, "+"))
    assert [c.check_id for c in failed] == [f"coefficient-u^{last}"]
    assert failed[0].witness == mismatch(swap @ skewed @ swap, skewed)


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
