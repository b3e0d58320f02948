import dataclasses
import functools
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from spincas import _backend, report, spectra, ybe
from spincas.cli import main
from spincas.linalg import ExactMatrix, first_difference, kron, lincomb, permutation_operator
from spincas.ratfunc import Poly, RationalFunction, rising_factorial
from spincas.records import FAIL, PASS, diff_witness
from spincas.scalar import Rat

from failing import failing_checks


def test_tau_coefficients():
    top = ybe.tau_coefficient(2, 0)
    assert top == RationalFunction.const(1)
    first = ybe.tau_coefficient(2, 1)
    assert first(Rat(3)) == Rat(1, 2)
    braid = ybe.tau_coefficient(2, 1, "braid")
    assert braid(Rat(3)) == Rat(-1, 2)
    assert first.is_pole(Rat(-1))


def test_family_structure():
    family = ybe.sector_r_matrix(4, "+")
    assert [label for label, _ in family.terms] == [4, 2, 0]
    family = ybe.sector_r_matrix(5, "-")
    assert [label for label, _ in family.terms] == [5, 3, 1]


def test_family_at_u_one_is_top_projector():
    # every non-top coefficient contains the factor (u - 1)
    family = ybe.sector_r_matrix(2, "+")
    assert family.evaluate(1) == family.projector(2)


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


@pytest.mark.parametrize("r", [2, 3, 4])
def test_symmetric_part_factorization(r):
    record = ybe.symmetric_part_factorization(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_rising_factorial_identity():
    record = ybe.rising_factorial_identity()
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_rising_factorial_polynomial():
    x = Poly.x()
    rf3 = rising_factorial(x, 3)
    assert rf3(Rat(2)) == Rat(24)
    assert rf3.degree == 3


# -- the coefficient-matrix expansion against direct products ---------------

# the originals, so a test can call and clear them while their names are patched
CLOSED_FORMS = ybe.closed_form_coefficients
GRID = ybe.admissible_grid
FULL_SYMMETRIES = ybe._full_symmetries

# the caches that hold a family or anything derived from one
CACHED = (
    ybe.sector_r_matrix,
    ybe.closed_form_coefficients,
    ybe.full_r_matrix_coefficients,
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


def outcome_and_witness(lhs, rhs):
    if lhs == rhs:
        return True, ""
    return False, diff_witness(first_difference(lhs, rhs))


def direct_full(r, u, v):
    """Reference outcome and witness of one full-series point."""
    return outcome_and_witness(*direct_braid(*(full_at(r, x) for x in (u, u + v, v)), 2**r))


@functools.lru_cache(maxsize=None)
def full_at(r, u):
    return ybe.full_r_matrix(r, u)


def direct_sector(r, eps, u, v, form="braid"):
    """Reference outcome and witness of one sector point; None at a pole."""
    family = ybe.sector_r_matrix(r, eps, form)
    if any(family.is_pole(x) for x in (u, v, u + v)):
        return None
    return outcome_and_witness(
        *direct_braid(*(family.evaluate(x) for x in (u, u + v, v)), 2 ** (r - 1))
    )


@functools.lru_cache(maxsize=None)
def triple_products(r, eps):
    """K_abc of the projectors, each formed by its own four products."""
    family = ybe.sector_r_matrix(r, eps)
    ident = ExactMatrix.identity(2 ** (r - 1))
    left = {a: kron(family.projector(a), ident) for a, _ in family.terms}
    right = {a: kron(ident, family.projector(a)) for a, _ in family.terms}
    return {
        (a, b, c): left[a] @ right[b] @ left[c] - right[c] @ left[b] @ right[a]
        for a in left
        for b in left
        for c in left
    }


def triple_product_sum(r, eps, u, v, form="braid"):
    """Reference: sum_abc t_a(u) t_b(u+v) t_c(v) K_abc == 0; None at a pole."""
    family = ybe.sector_r_matrix(r, eps, form)
    if any(family.is_pole(x) for x in (u, v, u + v)):
        return None
    t = dict(family.terms)
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


def columns_below(m, stop):
    return ExactMatrix(m.dim, {(i, j): value for i, j, value in m.items() if j < stop})


def sector_braid_family(r, eps, form):
    """The braid slice of a sector family in either form; the program builds
    only the braid form's, so the plain form's is built here.
    """
    family = ybe.sector_r_matrix(r, eps, form)
    return ybe._braid_family(
        f"yang-baxter-identity r={r} eps={eps} form={form}",
        ybe._sector_parts(r, eps, form),
        ybe._sector_symmetries(r, eps),
        2 ** (r - 1),
        family.evaluate,
        family.ybe_pole,
    )


def assert_slice_matches_reference(parts, leg):
    """The sliced D_ij are the first leg^2 columns of the reference D_ij."""
    _, sliced = ybe._sliced_braid_differences(parts, leg)
    reference = reference_braid_differences(parts, leg)
    columns = {key: columns_below(d, leg * leg) for key, d in reference.items()}
    assert dict(sliced) == {key: d for key, d in columns.items() if d}
    return dict(sliced), reference


def assert_matches_direct(record, r, reference):
    """Every check of a grid record has the reference's outcome and witness."""
    us, vs = ybe.admissible_grid(r)
    points = [(u, v) for u in us for v in vs]
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in points]
    for check, (u, v) in zip(record.checks, points):
        passed, witness = reference(u, v)
        assert (check.status == PASS) == passed, check.check_id
        assert check.witness == witness, check.check_id


@pytest.mark.parametrize("r", [2, 3, 4])
def test_degree_parts_sum_to_full_r_matrix(r):
    parts = ybe.full_r_matrix_coefficients(r)
    assert len(parts) == r + 1  # the closed forms have degree r
    for u in ybe.admissible_grid(r)[0]:
        total = sum((part * u**d for d, part in enumerate(parts)), ExactMatrix.zero(4**r))
        assert total == ybe.full_r_matrix(r, u)


@pytest.mark.parametrize("r", [2, 3])
def test_full_grid_matches_direct_products(r):
    assert_matches_direct(ybe.full_ybe_check(r), r, lambda u, v: direct_full(r, u, v))


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


spectral = st.fractions(min_value=-6, max_value=6, max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(r=st.sampled_from([2, 3]), eps=st.sampled_from(["+", "-"]), u=spectral, v=spectral)
def test_sector_point_matches_direct_products(r, eps, u, v):
    expected = direct_sector(r, eps, u, v)
    outcome = ybe.ybe_point(r, eps, u, v)
    assert outcome == (None if expected is None else expected[0])
    assert outcome == triple_product_sum(r, eps, u, v)


@settings(max_examples=15, deadline=None)
@given(u=spectral, v=spectral)
def test_full_point_matches_direct_products(u, v):
    [check] = ybe._full_braid_slice(2).grid("full-point", [(u, v)]).checks
    assert (check.status == PASS, check.witness) == direct_full(2, u, v)


# -- mutations: a perturbed family fails where direct products fail ---------


def raised_degree(r):
    """Closed forms with u^(r+1) added to the coefficient of I_2."""
    closed = CLOSED_FORMS(r)
    bump = RationalFunction(Poly([0] * (r + 1) + [1]))
    return dataclasses.replace(closed, even=(closed.even[0], closed.even[1] + bump, *closed.even[2:]))


def test_raised_coefficient_degree_fails_like_direct_products(fresh_caches, monkeypatch):
    monkeypatch.setattr(ybe, "closed_form_coefficients", raised_degree)
    r = 2
    assert len(ybe.full_r_matrix_coefficients(r)) == r + 2  # the u^(r+1) part is kept
    record = ybe.full_ybe_check(r)
    assert failing_checks(record)
    assert_matches_direct(record, r, lambda u, v: direct_full(r, u, v))


def test_perturbed_invariant_fails_like_direct_products(fresh_caches, monkeypatch):
    r = 2
    real = ybe.invariant_I
    perturbed = real(r, 2) + ExactMatrix(4**r, {(0, 5): Rat(1, 3)})
    monkeypatch.setattr(ybe, "invariant_I", lambda rank, k: perturbed if k == 2 else real(rank, k))
    record = ybe.full_ybe_check(r)
    assert failing_checks(record)
    assert_matches_direct(record, r, lambda u, v: direct_full(r, u, v))


def test_perturbed_projector_fails_like_direct_products(fresh_caches, monkeypatch):
    r = 3
    data = spectra.sector_spectral(r, "++")
    projectors = dict(data.projectors)
    projectors[1] = projectors[1] + ExactMatrix(data.block.dim, {(2, 3): 1})
    perturbed = dataclasses.replace(data, projectors=projectors)
    monkeypatch.setattr(ybe, "sector_spectral", lambda rank, sector: perturbed)
    record = ybe.ybe_check(r, "+")
    assert failing_checks(record)
    assert all(c.witness.startswith("first differing entry") for c in failing_checks(record))
    assert_matches_direct(record, r, lambda u, v: direct_sector(r, "+", u, v))


# -- the slice e_0 (x) V (x) V and its equivariance premise -----------------


@pytest.mark.parametrize("r", [2, 3])
def test_full_slice_matches_reference_columns(r):
    sliced, reference = assert_slice_matches_reference(ybe.full_r_matrix_coefficients(r), 2**r)
    assert sliced.keys() == reference.keys()  # zero exactly where the reference is


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("eps", ["+", "-"])
@pytest.mark.parametrize("form", ["braid", "plain"])
def test_sector_slice_matches_reference_columns(r, eps, form):
    sliced, reference = assert_slice_matches_reference(ybe._sector_parts(r, eps, form), 2 ** (r - 1))
    assert sliced.keys() == reference.keys()


def test_slice_forms_no_kronecker_matrix_on_the_triple_product(monkeypatch):
    r = 3
    leg = 2**r
    parts = ybe.full_r_matrix_coefficients(r)
    real = _backend.mat_kron
    output_rows = []

    def counted(terms, b_dim):
        out = real(terms, b_dim)
        output_rows.append(len(out))
        return out

    monkeypatch.setattr(_backend, "mat_kron", counted)
    ybe._sliced_braid_differences(parts, leg)
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
    assert [c.status for c in record.checks] == [PASS, PASS, FAIL]
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
    assert records[0].checks[-1].check_id.endswith(f"-on-{4**r}-slice-columns")


@pytest.mark.parametrize("r", [2, 3])
def test_plain_form_keeps_the_premise_but_is_no_braid_identity(r):
    # the plain form solves R12 R13 R23 = R23 R13 R12, not the braid equation
    record = sector_braid_family(r, "+", "plain").record
    assert [c.status for c in record.checks] == [PASS, PASS, FAIL]
    assert "is nonzero on the slice" in record.checks[-1].witness


def test_raised_degree_keeps_the_premise_and_fails_on_the_slice(fresh_caches, monkeypatch):
    # the parts stay sums of invariants, so the slice decides, and the
    # nonzero D_ij are nonzero on the slice too
    monkeypatch.setattr(ybe, "closed_form_coefficients", raised_degree)
    r = 2
    sliced, reference = assert_slice_matches_reference(ybe.full_r_matrix_coefficients(r), 2**r)
    assert reference and sliced.keys() == reference.keys()
    record = ybe.full_ybe_identity_check(r)
    assert [c.status for c in record.checks] == [PASS, PASS, FAIL]
    witness = record.checks[-1].witness
    assert witness.startswith(f"D_{min(reference)} is nonzero on the slice: first differing entry")


def perturb_projector(monkeypatch, r):
    """The r, ++ family with one projector entry changed."""
    data = spectra.sector_spectral(r, "++")
    projectors = dict(data.projectors)
    projectors[1] = projectors[1] + ExactMatrix(data.block.dim, {(2, 3): 1})
    perturbed = dataclasses.replace(data, projectors=projectors)
    monkeypatch.setattr(ybe, "sector_spectral", lambda rank, sector: perturbed)


def test_perturbed_projector_fails_the_premise(fresh_caches, monkeypatch):
    r = 3
    perturb_projector(monkeypatch, r)
    assert_slice_matches_reference(ybe._sector_parts(r, "+", "braid"), 2 ** (r - 1))
    commute = ybe.ybe_identity_check(r, "+").checks[0]
    assert commute.check_id == "degree-parts-commute-with-symmetries"
    assert commute.status == FAIL
    assert commute.witness.startswith("S_") and "first differing entry" in commute.witness
    assert not ybe._sector_braid_slice(r, "+").premise
    assert_matches_direct(ybe.ybe_check(r, "+"), r, lambda u, v: direct_sector(r, "+", u, v))


def test_failing_point_makes_its_direct_products_once(fresh_caches, monkeypatch):
    r = 3
    perturb_projector(monkeypatch, r)
    braid_sides = ybe._braid_sides
    calls = []

    def counted(r_matrix, u, v, leg):
        calls.append((u, v))
        return braid_sides(r_matrix, u, v, leg)

    monkeypatch.setattr(ybe, "_braid_sides", counted)
    record = ybe.ybe_check(r, "+")
    assert len(failing_checks(record)) == 81
    assert len(calls) == len(set(calls)) == 81


def test_cli_failure_carries_its_witness(fresh_caches, monkeypatch, capsys):
    perturb_projector(monkeypatch, 3)
    code = main(["ybe", "--r", "3", "--u", "1/3", "--v", "1/7"])
    assert code == 1
    [failure] = json.loads(capsys.readouterr().out)["failures"]
    assert (failure["u"], failure["v"]) == ("1/3", "1/7")
    assert failure["witness"].startswith("first differing entry")


def test_slice_decides_nothing_without_the_premise(fresh_caches, monkeypatch):
    # a slice on which every D_ij vanishes, for a family that fails the premise
    r = 3
    perturb_projector(monkeypatch, r)
    monkeypatch.setattr(ybe, "_sliced_braid_differences", lambda parts, leg: (1, ()))
    record = ybe.ybe_check(r, "+")
    assert failing_checks(record)
    assert_matches_direct(record, r, lambda u, v: direct_sector(r, "+", u, v))


def test_full_series_without_gamma1_fails_the_orbit_check(fresh_caches, monkeypatch):
    r = 2
    monkeypatch.setattr(
        ybe, "_full_symmetries", lambda rank: [s for s in FULL_SYMMETRIES(rank) if s[0] != "gamma_1"]
    )
    record = ybe.full_ybe_identity_check(r)
    assert [c.status for c in record.checks] == [PASS, FAIL, PASS]
    # the chain generators keep the chirality, so the orbit stays in Delta_+
    assert record.checks[1].witness == "the orbit of e_0 reaches 2 of 4 basis vectors; e_2 is missed"
    assert not ybe._full_braid_slice(r).premise
    assert_matches_direct(ybe.full_ybe_check(r), r, lambda u, v: direct_full(r, u, v))


def test_orbit_check_refuses_a_non_monomial_map():
    g = ExactMatrix(2, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    witnesses = list(ybe._orbit_failures([("g", g, True)], 2))
    assert witnesses == ["g does not send e_0 to a nonzero multiple of one basis vector"]
    swap = ExactMatrix(2, {(0, 1): 1, (1, 0): 1})
    assert list(ybe._orbit_failures([("swap", swap, False)], 2)) == []


# -- the plain form through the swap relation --------------------------------

TAU = ybe.tau_coefficient


def direct_plain(r, eps, u, v):
    """Reference: both sides of R12(u) R13(u+v) R23(v) = R23(v) R13(u+v) R12(u)
    by products on the triple product, R13 = P23 R12 P23; None at a pole.
    """
    family = ybe.sector_r_matrix(r, eps, "plain")
    if family.ybe_pole(u, v):
        return None
    ident = ExactMatrix.identity(2 ** (r - 1))
    swap23 = kron(ident, permutation_operator(2 ** (r - 1)))
    r12_u, r23_v = kron(family.evaluate(u), ident), kron(ident, family.evaluate(v))
    r13 = swap23 @ kron(family.evaluate(u + v), ident) @ swap23
    return r12_u @ r13 @ r23_v, r23_v @ r13 @ r12_u


def swap13(r):
    """P13 = P12 P23 P12 on the triple product of the half-spinor leg."""
    ident = ExactMatrix.identity(2 ** (r - 1))
    swap = permutation_operator(2 ** (r - 1))
    p12, p23 = kron(swap, ident), kron(ident, swap)
    return p12 @ p23 @ p12


def assert_plain_matches_direct(r, eps, points):
    """Each plain check has the outcome of the direct plain products; a
    failing one carries the witness of the braid sides at (v, u), which are
    P13 times the plain right and left sides.
    """
    record = ybe.plain_ybe_spot_check(r, eps, points)
    assert [c.check_id for c in record.checks] == [f"point-u{u}-v{v}" for u, v in points]
    p13 = swap13(r)
    for check, (u, v) in zip(record.checks, points):
        sides = direct_plain(r, eps, u, v)
        if sides is None:
            assert (check.status, check.witness) == (FAIL, "pole hit")
            continue
        lhs, rhs = sides
        assert (check.status == PASS) == (lhs == rhs), check.check_id
        assert check.witness == outcome_and_witness(p13 @ rhs, p13 @ lhs)[1], check.check_id
    return record


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("eps", ["+", "-"])
def test_swap_relation_holds(r, eps):
    record = ybe.swap_relation_check(r, eps)
    assert record.name == f"swap-relation r={r} eps={eps}"
    assert record.ok, [(c.check_id, c.witness) for c in failing_checks(record)]


def test_ybe_suite_builds_the_swap_relation_once(fresh_caches, monkeypatch):
    built = []
    real = ybe._sector_parts

    def counted(r, eps, form):
        built.append(form)
        return real(r, eps, form)

    monkeypatch.setattr(ybe, "_sector_parts", counted)
    records = report.ybe_suite(2)
    assert built.count("plain") == 1
    names = [record.name for record in records]
    assert "swap-relation r=2 eps=+" in names and "plain-yang-baxter r=2 eps=+" in names
    # each record handed out is a copy of the cached one
    copy = ybe.swap_relation_check(2, "+")
    copy.add("extra", False, "x")
    assert [c.check_id for c in ybe.swap_relation_check(2, "+").checks] == [
        "braid-parts-equal-swap-times-plain-parts"
    ]


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
    monkeypatch.setattr(ybe, "sector_spectral", lambda rank, sector: dataclasses.replace(data, projectors=projectors))
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

    monkeypatch.setattr(ybe, "_braid_sides", refused)
    monkeypatch.setattr(ybe, "kron", refused)
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
        lambda: ybe.unitarity_check(2, "+"),
        lambda: ybe.symmetry_check(2, "+"),
        lambda: ybe.symmetric_part_factorization(2),
        lambda: ybe.plain_ybe_spot_check(2, "+", [(Rat(-1), Rat(1, 7))]),
    ],
    ids=["grid", "unitarity", "symmetry", "factorization", "plain-spot"],
)
def test_pole_on_grid_is_a_failure(monkeypatch, check):
    monkeypatch.setattr(ybe, "admissible_grid", grid_with_pole)
    record = check()
    assert not record.ok
    assert failing_checks(record)
    assert all(c.witness == "pole hit" for c in failing_checks(record))
    assert all(c.status in (PASS, FAIL) for c in record.checks)
