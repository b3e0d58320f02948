"""Independent ground truth for so(N) with N = 2r.

Everything here is computed without gamma matrices: structure constants from
their closed formula, the Cartan-Killing metric two ways, quadratic-Casimir
eigenvalues from highest weights, and closed-form dimensions.  The rest of
the engine is cross-checked against these oracles.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import _backend
from .linalg import ExactMatrix, lincomb
from .records import VerificationRecord, mismatch
from .scalar import RAT_ZERO, Rat

Pair = tuple[int, int]


def basis_pairs(n: int) -> list[Pair]:
    """Canonical basis labels (i, j) with 1 <= i < j <= N for so(N)."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _canon(i: int, j: int) -> tuple[int, Pair]:
    """Reduce M_ij to the canonical basis: returns (sign, (min, max)) or sign 0."""
    if i == j:
        return 0, (i, j)
    return (1, (i, j)) if i < j else (-1, (j, i))


@lru_cache(maxsize=None)
def commutator_table(n: int) -> dict[tuple[Pair, Pair], dict[Pair, int]]:
    """[M_A, M_B] expanded in the canonical basis, from the four-delta formula.

    [M_{i1i2}, M_{j1j2}] = d_{i2j1}M_{i1j2} - d_{i2j2}M_{i1j1}
                         - d_{i1j1}M_{i2j2} + d_{i1j2}M_{i2j1}.

    Built once per N and shared by every caller, who must not mutate it.
    """
    pairs = basis_pairs(n)
    table: dict[tuple[Pair, Pair], dict[Pair, int]] = {}
    for a in pairs:
        i1, i2 = a
        for b in pairs:
            j1, j2 = b
            acc: dict[Pair, int | Rat] = {}
            for coeff, p, q in (
                (1 if i2 == j1 else 0, i1, j2),
                (-1 if i2 == j2 else 0, i1, j1),
                (-1 if i1 == j1 else 0, i2, j2),
                (1 if i1 == j2 else 0, i2, j1),
            ):
                if not coeff:
                    continue
                sign, c = _canon(p, q)
                if sign:
                    acc[c] = acc.get(c, 0) + coeff * sign
            table[(a, b)] = {c: v for c, v in acc.items() if v}
    return table


def structure_constant(n: int, k_pair: Pair, a: Pair, b: Pair) -> Rat:
    """X^{k1k2}_{i1i2,j1j2} from the antisymmetrized-delta closed form.

    The normalized antisymmetrizer is (d d - d d)/2, so 2X is summed in ints,
    each delta a bool, and halved once at the end; a zero sum is the shared
    ``RAT_ZERO``.
    """
    i1, i2 = a
    j1, j2 = b
    k1, k2 = k_pair
    # each inner bracket is 2 d^{[k1}_p d^{k2]}_q for the (p, q) of its term
    total = (
        (i2 == j1) * ((k1 == i1 and k2 == j2) - (k2 == i1 and k1 == j2))
        - (i2 == j2) * ((k1 == i1 and k2 == j1) - (k2 == i1 and k1 == j1))
        - (i1 == j1) * ((k1 == i2 and k2 == j2) - (k2 == i2 and k1 == j2))
        + (i1 == j2) * ((k1 == i2 and k2 == j1) - (k2 == i2 and k1 == j1))
    )
    return Rat(total, 2) if total else RAT_ZERO


def structure_table_from_formula(n: int) -> dict[tuple[Pair, Pair], dict[Pair, int | Rat]]:
    """Same data as commutator_table but built from structure_constant.

    The coefficient of the canonical element M_{k1k2} (k1 < k2) collects the
    ordered contributions X^{k1k2} and X^{k2k1} = -X^{k1k2}, hence the factor 2.
    Every term of the formula carries a delta between an index of a and one
    of b, so a pair (a, b) that shares no index has the empty row without a
    call; and every term carries d(k, p) with p an index of a or b, so only
    the pairs c drawn from those indices are tried.  A coefficient 2X that
    is not an integer is kept as the exact rational, so it differs from the
    commutator table.
    """
    pairs = basis_pairs(n)
    table: dict[tuple[Pair, Pair], dict[Pair, int | Rat]] = {}
    for a in pairs:
        for b in pairs:
            acc: dict[Pair, int | Rat] = {}
            table[(a, b)] = acc
            indices = set(a) | set(b)
            if len(indices) == 4:
                continue
            for c in combinations(sorted(indices), 2):
                x = structure_constant(n, c, a, b)
                if x:
                    x *= 2
                    acc[c] = x.numerator if x.denominator == 1 else x
    return table


def killing_metric_closed_form(n: int, a: Pair, b: Pair) -> int:
    i1, i2 = a
    j1, j2 = b
    return 2 * (n - 2) * ((i1 == j2 and i2 == j1) - (i1 == j1 and i2 == j2))


def inverse_metric_diagonal(n: int) -> Rat:
    """On canonical pairs the metric is -2(N-2) times the identity; invert it."""
    return Rat(-1, 2 * (n - 2))


AdjointMap = dict[tuple[Pair, Pair], int]


def _adjoint_map(table, a: Pair, pairs: list[Pair]) -> AdjointMap:
    """ad(M_A) as a sparse map {(D, C): X^C_{AD}}: ad(M_A) sends M_D to the
    sum of X^C_{AD} M_C, read off the commutator table the caller holds.
    """
    return {(d, c): f for d in pairs for c, f in table[(a, d)].items()}


def killing_metric_from_contraction(n: int, a: Pair, b: Pair) -> int:
    """g_AB = X^C_{AD} X^D_{BC} over the canonical basis."""
    table, pairs = commutator_table(n), basis_pairs(n)
    return _contract_killing(_adjoint_map(table, a, pairs), _adjoint_map(table, b, pairs))


def _contract_killing(ad_a: AdjointMap, ad_b: AdjointMap) -> int:
    """tr(ad_A ad_B) = X^C_{AD} X^D_{BC}, summed over the entries of ad_A."""
    return sum(f * ad_b.get((c, d), 0) for (d, c), f in ad_a.items())


def _row_text(row: dict) -> str:
    """A table row as ``{c: value}``, a rational value written p/q."""
    return "{" + ", ".join(f"{c}: {v}" for c, v in row.items()) + "}"


def algebra_integrity(n: int) -> VerificationRecord:
    """Structure constants vs commutators, Killing metric, Jacobi identity.

    A failing check's witness is its first failing pair or triple.
    """
    record = VerificationRecord(name=f"so-algebra-integrity N={n}")
    pairs = basis_pairs(n)
    by_comm = commutator_table(n)
    by_formula = structure_table_from_formula(n)
    record.add_first_failure(
        "structure-constants-match-commutators",
        (
            f"[{a}, {b}]: commutator table {_row_text(by_comm[(a, b)])} != formula {_row_text(by_formula[(a, b)])}"
            for a in pairs
            for b in pairs
            if by_comm[(a, b)] != by_formula[(a, b)]
        ),
    )
    record.add_first_failure(
        "killing-metric-contraction-equals-closed-form",
        _killing_failures({a: _adjoint_map(by_comm, a, pairs) for a in pairs}, pairs, n),
    )
    record.add_first_failure("inverse-metric-times-metric-is-identity", _inverse_metric_failures(pairs, n))
    record.add_first_failure("jacobi-identity", _jacobi_failures(by_comm, pairs))
    return record


def _killing_failures(ad: dict[Pair, AdjointMap], pairs: list[Pair], n: int):
    for a in pairs:
        for b in pairs:
            contracted = _contract_killing(ad[a], ad[b])
            closed = killing_metric_closed_form(n, a, b)
            if contracted != closed:
                yield f"g({a}, {b}): contraction {contracted} != closed form {closed}"


def _inverse_metric_failures(pairs: list[Pair], n: int):
    """The diagonal inverse metric times the closed-form metric against the
    identity; a Fraction is formed only where the metric is nonzero.
    """
    diag = inverse_metric_diagonal(n)
    for a in pairs:
        for b in pairs:
            g = killing_metric_closed_form(n, a, b)
            product = diag * g if g else 0
            if product != (a == b):
                yield f"({a}, {b}): inverse metric times metric is {product}"


def _jacobi_failures(table, pairs: list[Pair]):
    """Antisymmetry violations over all ordered pairs, then non-zero
    Jacobiators over the triples a < b < c.

    With an antisymmetric bracket the Jacobiator is alternating and
    trilinear, so the sorted distinct triples decide the identity.  The
    table is split once into one row per left argument, and each triple's
    three inner brackets [b, c], [c, a], [a, b] are read from those rows
    once; the Jacobiator is linear in them, so a triple whose three are all
    empty is zero and is skipped.
    """
    for a in pairs:
        for b in pairs:
            negated = {c: -v for c, v in table[(a, b)].items()}
            if table[(b, a)] != negated:
                yield f"antisymmetry: [{b}, {a}] = {table[(b, a)]} != -[{a}, {b}] = {negated}"
    rows = {x: {y: table[(x, y)] for y in pairs} for x in pairs}
    for a, b, c in combinations(pairs, 3):
        row_a, row_b, row_c = rows[a], rows[b], rows[c]
        bc, ca, ab = row_b[c], row_c[a], row_a[b]
        if not (bc or ca or ab):
            continue
        acc: dict[Pair, int] = {}
        for row_x, bracket in ((row_a, bc), (row_b, ca), (row_c, ab)):
            for mid, f1 in bracket.items():
                for out, f2 in row_x[mid].items():
                    acc[out] = acc.get(out, 0) + f1 * f2
        nonzero = {out: v for out, v in acc.items() if v}
        if nonzero:
            yield f"Jacobiator of ({a}, {b}, {c}) = {nonzero}"


# -- defining representation ------------------------------------------------


def defining_generators(n: int) -> tuple[ExactMatrix, ...]:
    """T(M_ij) = e_ij - e_ji on the N-dimensional defining space, canonical order."""
    out = []
    for i, j in basis_pairs(n):
        out.append(ExactMatrix(n, {(i - 1, j - 1): 1, (j - 1, i - 1): -1}))
    return tuple(out)


def defining_rep_check(n: int) -> VerificationRecord:
    """The matrices e_ij - e_ji realize the canonical commutator table."""
    record = VerificationRecord(name=f"defining-representation N={n}")
    record.add_first_failure("matrix-commutators-match-table", _defining_rep_failures(n))
    return record


def _defining_rep_failures(n: int):
    """Each commutator [T_a, T_b] against the table's right side, both as
    integer rows from the ``_backend`` kernels; matrices are built only for
    a failing pair's witness.  A generator entry that is not a real integer
    fails the check, since integer rows cannot hold it.
    """
    pairs = basis_pairs(n)
    gens: dict[Pair, dict] = {}
    for a, gen in zip(pairs, defining_generators(n)):
        rows: dict = {}
        for i, j, v in gen.items():
            if v.im or v.re.denominator != 1:
                yield f"T{a}: entry ({i}, {j}) = {v} is not a real integer"
                return
            rows.setdefault(i, {})[j] = int(v.re)
        gens[a] = rows
    table = commutator_table(n)
    products = {(a, b): _backend.mat_mul(gens[a], gens[b]) for a in pairs for b in pairs}
    for a in pairs:
        for b in pairs:
            lhs = _backend.mat_lincomb(((1, products[a, b]), (-1, products[b, a])))
            rhs = _backend.mat_lincomb((coeff, gens[c]) for c, coeff in table[(a, b)].items())
            if lhs != rhs:
                yield f"[{a}, {b}]: " + mismatch(_matrix(n, lhs), _matrix(n, rhs))


def _matrix(n: int, rows: dict) -> ExactMatrix:
    return ExactMatrix(n, {(i, j): v for i, row in rows.items() for j, v in row.items()})


def casimir_contraction(generators: Sequence[ExactMatrix], n: int) -> ExactMatrix:
    """g-bar^{AB} T(M_A) T(M_B) = -1/(2(N-2)) sum_A T(M_A)^2 (diagonal metric)."""
    coeff = inverse_metric_diagonal(n)
    return lincomb(generators[0].dim, [(coeff, g @ g) for g in generators])


# -- weights and closed forms ----------------------------------------------

WEYL_VECTOR = lambda r: tuple(Rat(r - 1 - i) for i in range(r))


def c2_from_weight(weight: Sequence, n: int) -> Rat:
    """(lambda, lambda + 2 delta) with (e_i, e_j) = delta_ij / (2(N-2))."""
    r = n // 2
    if n != 2 * r or len(weight) != r:
        raise ValueError("weight length must equal N/2")
    delta = WEYL_VECTOR(r)
    total = Rat(0)
    for lam, dl in zip((Rat(w) for w in weight), delta):
        total += lam * (lam + 2 * dl)
    return total / (2 * (n - 2))


def highest_weight(rep: str, r: int, k: int | None = None) -> tuple[Rat, ...]:
    if rep == "T_k":
        if k is None or not 0 <= k <= r:
            raise ValueError("T_k needs 0 <= k <= r")
        return tuple(Rat(1) if i < k else Rat(0) for i in range(r))
    if rep == "T_r_plus":
        return tuple(Rat(1) for _ in range(r))
    if rep == "T_r_minus":
        return tuple(Rat(1) for _ in range(r - 1)) + (Rat(-1),)
    if rep == "Delta_plus":
        return tuple(Rat(1, 2) for _ in range(r))
    if rep == "Delta_minus":
        return tuple(Rat(1, 2) for _ in range(r - 1)) + (Rat(-1, 2),)
    raise ValueError(f"unknown representation selector {rep!r}")


def c2_closed_form(rep: str, r: int, k: int | None = None) -> Rat:
    n = 2 * r
    if rep == "T_f":
        return Rat(n - 1, 2 * (n - 2))
    if rep == "T_k":
        if k is None or not 0 <= k <= r:
            raise ValueError("T_k needs 0 <= k <= r")
        return Rat(k * (n - k), 2 * (n - 2))
    if rep in ("T_r_plus", "T_r_minus"):
        return Rat(r * r, 4 * (r - 1))
    if rep in ("Delta_plus", "Delta_minus"):
        return Rat(r * (2 * r - 1), 16 * (r - 1))
    raise ValueError(f"unknown representation selector {rep!r}")


def weight_consistency(r: int) -> VerificationRecord:
    """c2 closed forms equal the weight formula on the standard highest
    weights; a failure's witness holds both values.
    """
    record = VerificationRecord(name=f"c2-closed-form-vs-weights r={r}")
    n = 2 * r

    def agree(check_id, closed, weight):
        record.add_equal(check_id, closed, c2_from_weight(weight, n))

    for k in range(r + 1):
        agree(f"T_k-k{k}", c2_closed_form("T_k", r, k), highest_weight("T_k", r, k))
    for rep in ("T_r_plus", "T_r_minus", "Delta_plus", "Delta_minus"):
        agree(rep, c2_closed_form(rep, r), highest_weight(rep, r))
    agree("adjoint-weight-gives-1", Rat(1), highest_weight("T_k", r, 2))
    record.add_equal("T_f-equals-T_1", c2_closed_form("T_f", r), c2_closed_form("T_k", r, 1))
    return record
