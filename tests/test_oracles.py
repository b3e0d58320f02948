from itertools import product

import pytest

from spincas import oracles
from spincas.linalg import ExactMatrix
from spincas.records import FAIL, PASS
from spincas.scalar import ExactScalar, Rat

from failing import failing_checks


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_algebra_integrity(n):
    record = oracles.algebra_integrity(n)
    assert record.ok, [c.check_id for c in failing_checks(record)]
    assert all(c.witness == "" for c in record.checks)


def _structure_constant_reference(k_pair, a, b):
    """The closed form term by term in Fractions, each antisymmetrizer halved."""
    (i1, i2), (j1, j2), (k1, k2) = a, b, k_pair
    d = lambda p, q: 1 if p == q else 0
    asym = lambda p, q: Rat(d(k1, p) * d(k2, q) - d(k2, p) * d(k1, q), 2)
    return (
        d(i2, j1) * asym(i1, j2)
        - d(i2, j2) * asym(i1, j1)
        - d(i1, j1) * asym(i2, j2)
        + d(i1, j2) * asym(i2, j1)
    )


def _full_scan_table(n):
    """The formula table with every basis pair c tried, not only those on
    the indices of a and b."""
    pairs = oracles.basis_pairs(n)
    table = {}
    for a in pairs:
        for b in pairs:
            row = {}
            for c in pairs:
                x = 2 * oracles.structure_constant(n, c, a, b)
                if x:
                    assert x.denominator == 1
                    row[c] = int(x)
            table[(a, b)] = row
    return table


@pytest.mark.parametrize("n", [4, 6])
def test_structure_constant_matches_fraction_reference(n):
    pairs = oracles.basis_pairs(n)
    for k_pair in product(range(1, n + 1), repeat=2):
        for a in pairs:
            for b in pairs:
                value = oracles.structure_constant(n, k_pair, a, b)
                assert value == _structure_constant_reference(k_pair, a, b)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_formula_table_equals_full_scan(n):
    assert oracles.structure_table_from_formula(n) == _full_scan_table(n)


def _patch_table(monkeypatch, n, changes):
    """Serve a perturbed copy of the commutator table; the cached one is
    never mutated."""
    table = {key: dict(row) for key, row in oracles.commutator_table(n).items()}
    table.update(changes)
    monkeypatch.setattr(oracles, "commutator_table", lambda _n: table)


def _check(record, check_id):
    return next(c for c in record.checks if c.check_id == check_id)


def test_antisymmetric_perturbation_breaks_jacobi(monkeypatch):
    # [M12, M34] = M56 and [M34, M12] = -M56 keep the bracket antisymmetric
    _patch_table(monkeypatch, 6, {((1, 2), (3, 4)): {(5, 6): 1}, ((3, 4), (1, 2)): {(5, 6): -1}})
    record = oracles.algebra_integrity(6)
    jacobi = _check(record, "jacobi-identity")
    assert jacobi.status != PASS
    assert jacobi.witness.startswith("Jacobiator of (")
    assert _check(record, "structure-constants-match-commutators").witness.startswith(
        "[(1, 2), (3, 4)]: commutator table {(5, 6): 1} != formula {}"
    )
    assert _check(record, "inverse-metric-times-metric-is-identity").status == PASS


def test_one_sided_perturbation_fails_antisymmetry(monkeypatch):
    _patch_table(monkeypatch, 6, {((1, 2), (3, 4)): {(5, 6): 1}})
    jacobi = _check(oracles.algebra_integrity(6), "jacobi-identity")
    assert jacobi.status != PASS
    assert jacobi.witness == (
        "antisymmetry: [(3, 4), (1, 2)] = {} != -[(1, 2), (3, 4)] = {(5, 6): -1}"
    )


def test_nonzero_self_bracket_fails_antisymmetry(monkeypatch):
    _patch_table(monkeypatch, 4, {((1, 3), (1, 3)): {(2, 4): 2}})
    jacobi = _check(oracles.algebra_integrity(4), "jacobi-identity")
    assert jacobi.witness.startswith("antisymmetry: [(1, 3), (1, 3)] = {(2, 4): 2}")


# [M12, M13] = -2 M23 in place of -M23, kept antisymmetric
DOUBLED = {((1, 2), (1, 3)): {(2, 3): -2}, ((1, 3), (1, 2)): {(2, 3): 2}}


def test_killing_check_witness(monkeypatch):
    _patch_table(monkeypatch, 4, DOUBLED)
    killing = _check(oracles.algebra_integrity(4), "killing-metric-contraction-equals-closed-form")
    assert killing.status != PASS
    assert killing.witness == "g((1, 2), (1, 2)): contraction -6 != closed form -4"


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_killing_contraction_equals_closed_form(n):
    pairs = oracles.basis_pairs(n)
    for a in pairs:
        for b in pairs:
            assert oracles.killing_metric_from_contraction(n, a, b) == oracles.killing_metric_closed_form(n, a, b)


def test_perturbed_table_moves_the_contraction_and_the_record(monkeypatch):
    a = (1, 2)
    assert oracles.killing_metric_from_contraction(4, a, a) == -4  # maps built from the real table
    _patch_table(monkeypatch, 4, DOUBLED)
    assert oracles.killing_metric_from_contraction(4, a, a) == -6
    assert not oracles.algebra_integrity(4).ok
    monkeypatch.undo()
    assert oracles.killing_metric_from_contraction(4, a, a) == -4
    assert oracles.algebra_integrity(4).ok


def test_flipped_structure_constant_fails_the_formula_check(monkeypatch):
    real = oracles.structure_constant

    def flipped(n, k_pair, a, b):
        value = real(n, k_pair, a, b)
        return -value if (a, b) == ((1, 3), (3, 4)) else value

    monkeypatch.setattr(oracles, "structure_constant", flipped)
    record = oracles.algebra_integrity(4)
    assert [c.check_id for c in failing_checks(record)] == ["structure-constants-match-commutators"]
    assert failing_checks(record)[0].witness == (
        "[(1, 3), (3, 4)]: commutator table {(1, 4): 1} != formula {(1, 4): -1}"
    )


def test_a_structure_constant_off_by_a_quarter_fails_with_its_exact_value(monkeypatch):
    # 2X is then 1/2, not an integer: the formula table keeps it exactly and
    # the check fails with a witness, where truncating it would read 0
    real = oracles.structure_constant

    def shifted(n, k_pair, a, b):
        value = real(n, k_pair, a, b)
        return value - Rat(1, 4) if (k_pair, a, b) == ((1, 4), (1, 3), (3, 4)) else value

    monkeypatch.setattr(oracles, "structure_constant", shifted)
    record = oracles.algebra_integrity(4)
    assert [c.check_id for c in failing_checks(record)] == ["structure-constants-match-commutators"]
    assert failing_checks(record)[0].witness == (
        "[(1, 3), (3, 4)]: commutator table {(1, 4): 1} != formula {(1, 4): 1/2}"
    )


def test_wrong_inverse_metric_fails_its_check(monkeypatch):
    monkeypatch.setattr(oracles, "inverse_metric_diagonal", lambda n: Rat(-1, 2 * (n - 1)))
    record = oracles.algebra_integrity(4)
    assert [c.check_id for c in failing_checks(record)] == ["inverse-metric-times-metric-is-identity"]
    assert failing_checks(record)[0].witness == "((1, 2), (1, 2)): inverse metric times metric is 2/3"


def test_defining_rep_check_witness(monkeypatch):
    _patch_table(monkeypatch, 4, {((1, 2), (2, 3)): {(1, 3): -1}})
    record = oracles.defining_rep_check(4)
    assert not record.ok
    assert record.checks[0].witness == "[(1, 2), (2, 3)]: first differing entry (0, 2): 1/1 != -1/1"


@pytest.mark.parametrize(
    "entry, witness",
    [
        (2, "[(1, 2), (1, 3)]: first differing entry (2, 1): 2/1 != 1/1"),
        (ExactScalar(0, 1), "T(1, 2): entry (0, 1) = 0/1+i*1/1 is not a real integer"),
        (Rat(1, 2), "T(1, 2): entry (0, 1) = 1/2 is not a real integer"),
    ],
)
def test_defining_rep_fails_on_a_wrong_generator_entry(monkeypatch, entry, witness):
    # T(M12) with its (0, 1) entry replaced
    gens = list(oracles.defining_generators(4))
    gens[0] = ExactMatrix(4, {(0, 1): entry, (1, 0): -1})
    monkeypatch.setattr(oracles, "defining_generators", lambda n: tuple(gens))
    [check] = oracles.defining_rep_check(4).checks
    assert (check.check_id, check.status) == ("matrix-commutators-match-table", FAIL)
    assert check.witness == witness


def test_basis_pairs():
    pairs = oracles.basis_pairs(4)
    assert len(pairs) == 6
    assert pairs[0] == (1, 2)
    assert all(i < j for i, j in pairs)


def test_commutator_antisymmetry():
    table = oracles.commutator_table(6)
    for a in oracles.basis_pairs(6):
        for b in oracles.basis_pairs(6):
            forward = table[(a, b)]
            backward = {c: -v for c, v in table[(b, a)].items()}
            assert forward == backward


def test_cartan_elements_commute():
    table = oracles.commutator_table(8)
    assert table[((1, 2), (3, 4))] == {}
    assert table[((1, 2), (1, 2))] == {}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_defining_representation(n):
    assert oracles.defining_rep_check(n).ok


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_defining_rep_casimir_matches_closed_form(n):
    contraction = oracles.casimir_contraction(oracles.defining_generators(n), n)
    assert contraction == ExactMatrix.identity(n) * oracles.c2_closed_form("T_f", n // 2)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_weight_consistency(r):
    record = oracles.weight_consistency(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_adjoint_casimir_is_one():
    # normalization fixed so that the adjoint representation has c2 = 1
    for r in (2, 3, 4, 5):
        weight = oracles.highest_weight("T_k", r, 2)
        assert oracles.c2_from_weight(weight, 2 * r) == 1


def test_closed_form_values():
    assert oracles.c2_closed_form("T_f", 3) == Rat(5, 8)
    assert oracles.c2_closed_form("T_k", 4, 4) == Rat(16, 12)
    assert oracles.c2_closed_form("T_r_plus", 4) == Rat(16, 12)
    assert oracles.c2_closed_form("Delta_plus", 5) == Rat(45, 64)


def test_weight_consistency_fails_on_a_wrong_highest_weight(monkeypatch):
    r = 4
    real = oracles.highest_weight

    def served(rep, rank, k=None):
        # the weight of T_r_plus in place of Delta_minus
        return real("T_r_plus", rank) if rep == "Delta_minus" else real(rep, rank, k)

    monkeypatch.setattr(oracles, "highest_weight", served)
    record = oracles.weight_consistency(r)
    assert [c.check_id for c in failing_checks(record)] == ["Delta_minus"]
    closed = oracles.c2_closed_form("Delta_minus", r)
    wrong = oracles.c2_closed_form("T_r_plus", r)
    assert failing_checks(record)[0].witness == f"{closed} != {wrong}"
    monkeypatch.undo()
    assert oracles.weight_consistency(r).ok


def test_invalid_selectors():
    with pytest.raises(ValueError):
        oracles.c2_closed_form("nope", 3)
    with pytest.raises(ValueError):
        oracles.highest_weight("T_k", 3, 7)


def test_killing_metric_is_diagonal_multiple():
    n = 6
    for a in oracles.basis_pairs(n):
        for b in oracles.basis_pairs(n):
            expected = -2 * (n - 2) if a == b else 0
            assert oracles.killing_metric_closed_form(n, a, b) == expected
