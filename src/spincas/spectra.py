"""Spectral data of the split Casimir operator: eigenvalues, characteristic
identities, Lagrange eigenprojectors per sector and on the full tensor
square, projector traces, and permutation symmetry.

Multiplicities are always recomputed as exact ranks; the closed-form
binomial dimensions act as assertions on top of that ground truth.  Every
polynomial in a sector block is evaluated from the block's power table,
held by its ``SectorSpectral``.  Each distinct sector block is analysed
once: a sector whose labels and block equal those of an earlier sector,
compared exactly at run time, shares that sector's analysis (the ``--``
block equals the ``++`` block and ``-+`` equals ``+-``), and the sector
records evaluate each value once per analysis while still checking every
sector by its own id.  The family on the full space is assembled
from the sector projectors and checked by its axioms there; with distinct
eigenvalues those imply that each member is the Lagrange projector of the
full operator (see ``rho_family_check``), so none is rebuilt from the
full operator's powers.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import oracles
from .casimir import (
    SECTORS,
    block_structure_check,
    casimir_power_trace_closed_form,
    i2k_polynomial,
    sector_casimir,
    sector_indices,
    split_casimir_rho,
)
from .linalg import (
    ExactMatrix,
    PowerTable,
    lincomb,
    permutation_operator,
    poly_eval,
)
from .ratfunc import Poly, poly_from_roots
from .records import CheckResult, VerificationRecord, mismatch
from .scalar import Rat

OPPOSITE = {"++": "+-", "+-": "++", "-+": "--", "--": "-+"}


def _chirality_sign(sector: str) -> int:
    """1 on the equal-chirality sectors ++ and --, -1 on the opposite ones."""
    return 1 if sector in ("++", "--") else -1


def c2k_eigenvalue(r: int, k: int) -> Rat:
    """(2k(2r-k) - r(2r-1)) / (16(r-1)) for 0 <= k <= 2r."""
    if not 0 <= k <= 2 * r:
        raise ValueError(f"k={k} outside [0, {2 * r}]")
    return Rat(2 * k * (2 * r - k) - r * (2 * r - 1), 16 * (r - 1))


def sector_kvalues(r: int, sector: str) -> tuple[int, ...]:
    """Eigenvalue labels k present in a sector (matrix-verified assignment).

    Even rank: opposite chiralities carry the odd labels 1, 3, .., r-1 and
    equal chiralities the even labels 0, 2, .., r.  Odd rank: opposite
    chiralities carry the even labels 0, .., r-1 and equal chiralities the
    odd labels 1, .., r.
    """
    equal = _chirality_sign(sector) == 1
    if r % 2 == 0:
        return tuple(range(0, r + 1, 2)) if equal else tuple(range(1, r, 2))
    return tuple(range(1, r + 1, 2)) if equal else tuple(range(0, r, 2))


def sector_trace_closed_form(r: int, k: int) -> int:
    """Projector trace: binomial(2r, k), halved at the top label k = r."""
    return comb(2 * r, k) // 2 if k == r else comb(2 * r, k)


class Spectrum:
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[int, Rat, int], ...]):
        self.entries = entries  # (k, eigenvalue, multiplicity)


class SectorSpectral:
    """One sector block with its power table, projectors, and verified
    spectrum.  It belongs to the block, which twin sectors share, and it
    hashes by identity, so that a value cached per analysis is keyed on the
    whole object.
    """

    __slots__ = ("block", "powers", "spectrum", "projectors")

    def __init__(self, block: ExactMatrix, powers: PowerTable, spectrum: Spectrum, projectors: dict[int, ExactMatrix]):
        self.block, self.powers, self.spectrum, self.projectors = block, powers, spectrum, projectors


def _lagrange_projector(eigs: dict[int, Rat], k: int, powers: PowerTable) -> ExactMatrix:
    """prod over the other eigenvalues e of (C - e) / (eigs[k] - e), for eigs
    the eigenvalue of each label and C the operator whose powers the table holds.
    """
    numer = poly_from_roots(e for e in eigs.values() if e != eigs[k])
    return poly_eval(numer * (1 / numer(eigs[k])), powers)


@lru_cache(maxsize=None)
def sector_spectral(r: int, sector: str) -> SectorSpectral:
    """Build the sector block, its eigenprojectors, and rank-verified spectrum.

    A sector whose labels and block equal those of an earlier sector in
    ``SECTORS`` order gets that sector's analysis itself, so each distinct
    block is analysed once; the blocks are compared exactly, at run time.
    """
    block = sector_casimir(r, sector)
    labels = sector_kvalues(r, sector)
    for earlier in SECTORS[: SECTORS.index(sector)]:
        if sector_kvalues(r, earlier) == labels and sector_casimir(r, earlier) == block:
            return _analysis_of(r, earlier)
    eigs = {k: c2k_eigenvalue(r, k) for k in labels}
    powers = PowerTable(block)
    projectors = {k: _lagrange_projector(eigs, k, powers) for k in eigs}
    entries = tuple((k, ev, projectors[k].rank()) for k, ev in eigs.items())
    return SectorSpectral(block=block, powers=powers, spectrum=Spectrum(entries=entries), projectors=projectors)


# the twin is looked up through the cache itself, not the module name, so an
# analysis served in place of a sector's is never shared with its twin
_analysis_of = sector_spectral


def _value(values: dict, data: SectorSpectral, poly: Poly) -> ExactMatrix:
    """poly on the block of ``data``, evaluated once per analysis and
    polynomial in ``values``, a dict local to one record.
    """
    key = (data, poly)
    if key not in values:
        values[key] = poly_eval(poly, data.powers)
    return values[key]


def projector_axioms(r: int, sector: str) -> VerificationRecord:
    """Idempotence, completeness, reconstruction, traces, ranks; the first
    two imply orthogonality, as in rho_family_check, so it is not checked.
    No check id names the sector, so the checks are made once per analysis.
    """
    record = VerificationRecord(name=f"projector-axioms r={r} sector={sector}")
    record.checks.extend(_axiom_checks(r, sector_spectral(r, sector)))
    return record


@lru_cache(maxsize=None)
def _axiom_checks(r: int, data: SectorSpectral) -> tuple[CheckResult, ...]:
    """The checks of projector_axioms on one analysis."""
    record = VerificationRecord(name="")
    ident = ExactMatrix.identity(data.block.dim)
    for k, proj in data.projectors.items():
        record.add_equal(f"idempotent-k{k}", proj @ proj, proj)
    projectors = data.projectors.items()
    total = lincomb(data.block.dim, [(1, proj) for _, proj in projectors])
    recon = lincomb(data.block.dim, [(c2k_eigenvalue(r, k), proj) for k, proj in projectors])
    record.add_equal("completeness", total, ident)
    record.add_equal("spectral-reconstruction", recon, data.block)
    for k, ev, mult in data.spectrum.entries:
        proj = data.projectors[k]
        eigen = data.block @ proj
        record.add_equal(f"eigen-relation-k{k}", eigen, proj * ev)
        expected = sector_trace_closed_form(r, k)
        record.add_equal(f"trace-k{k}", proj.trace(), expected)
        record.add_equal(f"rank-k{k}", mult, expected)
    return tuple(record.checks)


def char_identity_rho(r: int) -> VerificationRecord:
    """Product of the r+1 eigenvalue factors annihilates the operator,
    the top even invariant vanishes as a polynomial, and every subproduct
    omitting one factor is nonzero (minimality).

    All three are decided on the sector blocks: the record's own
    block_structure_check shows that C is the direct sum of its blocks, so
    a polynomial in C is the direct sum of the same polynomial in each
    block.  The two identities are evaluated from each block's power table.
    For minimality, a nonzero row v of the label-k projector of a sector
    that carries k is pushed through the factors (B - lambda_j), j != k, of
    that sector's block B.  v is a left eigenvector of B with eigenvalue
    lambda_k, so its image is a nonzero multiple of v; a nonzero image shows
    that the subproduct is nonzero on the block, and so on the full space.
    """
    record = VerificationRecord(name=f"characteristic-identity r={r}")
    record.extend(block_structure_check(r))
    eigs = [c2k_eigenvalue(r, k) for k in range(r + 1)]
    full_poly = poly_from_roots(eigs)
    top_poly = i2k_polynomial(r, r + 1)
    values = {}
    for sector in SECTORS:
        data = sector_spectral(r, sector)
        zero = ExactMatrix.zero(data.block.dim)
        record.add_equal(f"factorized-identity-{sector}", _value(values, data, full_poly), zero)
        record.add_equal(f"top-invariant-vanishes-{sector}", _value(values, data, top_poly), zero)
    for omit in range(r + 1):
        sector = next(s for s in SECTORS if omit in sector_kvalues(r, s))
        data = sector_spectral(r, sector)
        proj = data.projectors[omit]
        if not proj:
            record.add(f"minimality-omit-k{omit}", False, f"the k{omit} projector of sector {sector} is zero")
            continue
        row, _ = next(proj.support())
        image = ExactMatrix(proj.dim, {(row, row): 1}) @ proj
        for j, e in enumerate(eigs):
            if j != omit:
                image = image @ data.block - image * e
        record.add(
            f"minimality-omit-k{omit}",
            bool(image),
            f"the subproduct omitting k{omit} annihilates row {row} of the k{omit} projector of sector {sector}",
        )
    return record


def duality_pair_identities(r: int) -> VerificationRecord:
    """Polynomial pair identities between low and high even invariants on each
    sector block.

    The signed form (with the extra (-1)^r) holds on every sector.  The
    unsigned form holds as stated for even rank; for odd rank it holds with
    the two sector families exchanged, which is recorded as a
    documented-discrepancy note, not a failure.  On the exchanged sector's
    block the unsigned form carries the factor eps * ratio, which at odd
    rank is exactly the signed form's factor there (eps and (-1)^r both
    flip sign), so its outcome is read from that sector's signed check, and
    a failure names that check and carries its witness.
    """
    record = VerificationRecord(name=f"sector-pair-identities r={r}")
    polys = [i2k_polynomial(r, j) for j in range(r + 1)]
    values = {}
    witnesses = {}
    for sector in SECTORS:
        data = sector_spectral(r, sector)
        witnesses[sector] = _signed_pair_witnesses(r, sector, [_value(values, data, p) for p in polys])
    for sector in SECTORS:
        for k, witness in enumerate(witnesses[sector]):
            record.add(f"signed-pair-{sector}-k{k}", not witness, witness)
            exchanged = witnesses[OPPOSITE[sector]][k]
            if r % 2 == 0:
                # (-1)^r = 1, so the unsigned form is the signed one
                record.add(f"unsigned-pair-{sector}-k{k}", not witness, witness)
            elif not exchanged:
                record.note(
                    f"unsigned-pair-{sector}-k{k}",
                    "odd rank: unsigned form holds on the exchanged sector",
                )
            else:
                witness = f"signed-pair-{OPPOSITE[sector]}-k{k} fails: {exchanged}"
                record.add(f"unsigned-pair-{sector}-k{k}", False, witness)
    return record


def _signed_pair_witnesses(r: int, sector: str, values) -> list[str]:
    """The mismatch of the signed pair identity on one sector for k = 0..r,
    empty where it holds, from the values I_0 .. I_2r on its block.
    """
    sign_r = (-1) ** r
    eps = _chirality_sign(sector)
    out = []
    for k in range(r + 1):
        ratio = Rat(factorial(2 * r - 2 * k), factorial(2 * k))
        out.append(mismatch(values[r - k], values[k] * (eps * sign_r * ratio)))
    return out


def sector_minimal_identities(r: int) -> VerificationRecord:
    """Minimal-degree invariant identities annihilating each sector block."""
    record = VerificationRecord(name=f"sector-minimal-identities r={r}")
    values = {}

    def vanishes(check_id, poly, sector):
        data = sector_spectral(r, sector)
        record.add_equal(check_id, _value(values, data, poly), ExactMatrix.zero(data.block.dim))

    if r % 2 == 0:
        for sector in ("+-", "-+"):
            vanishes(f"opposite-chirality-{sector}", i2k_polynomial(r, r // 2), sector)
        for sector in ("++", "--"):
            hi = i2k_polynomial(r, r // 2 + 1)
            lo = i2k_polynomial(r, r // 2 - 1)
            vanishes(f"equal-chirality-{sector}", hi - lo * (r * (r * r - 1) * (r + 2)), sector)
    else:
        hi = i2k_polynomial(r, (r + 1) // 2)
        lo = i2k_polynomial(r, (r - 1) // 2)
        coeff = r * (r + 1)
        for sector in SECTORS:
            # equal chirality: plus sign; opposite chirality: minus sign
            vanishes(f"degree-{(r + 1) // 2}-{sector}", hi + lo * (_chirality_sign(sector) * coeff), sector)
    return record


# -- the full tensor-square family -----------------------------------------


@lru_cache(maxsize=None)
def rho_projectors(r: int) -> dict[int, ExactMatrix]:
    """Eigenprojectors on the full 4^r space: the label-k member is the sum
    of the label-k sector projectors, each embedded on its sector's
    coordinates.
    """
    dim = 4**r
    terms = {k: [] for k in range(r + 1)}
    for s in SECTORS:
        for k, proj in sector_spectral(r, s).projectors.items():
            terms[k].append((1, proj.embed(sector_indices(r, s), dim)))
    return {k: lincomb(dim, blocks) for k, blocks in terms.items()}


def rho_family_check(r: int) -> VerificationRecord:
    """Axioms and traces of the assembled family P_0..P_r on the full space.

    Together they make each P_k the Lagrange projector of the full operator
    C, prod over j != k of (C - lambda_j) / (lambda_k - lambda_j) with
    lambda_j = c2k_eigenvalue(r, j), so that is not rebuilt:

    * the lambda_j, j = 0..r, are pairwise distinct, since 2j(2r-j)
      strictly increases on 0..r;
    * idempotent-k and completeness give sum rank P_k = sum tr P_k =
      tr 1 = 4^r, so the images form a direct sum, and P_a P_b = 0 for
      every a != b, in both orders, so that is not checked;
    * with spectral-reconstruction, C = sum lambda_j P_j, every polynomial
      f then satisfies f(C) = sum f(lambda_j) P_j, and the Lagrange
      polynomial of k is 1 at lambda_k and 0 at the others.
    """
    record = VerificationRecord(name=f"tensor-square-projectors r={r}")
    projectors = rho_projectors(r)
    dim = 4**r
    c = split_casimir_rho(r).matrix
    total = lincomb(dim, [(1, proj) for proj in projectors.values()])
    recon = lincomb(dim, [(c2k_eigenvalue(r, k), proj) for k, proj in projectors.items()])
    for k, proj in projectors.items():
        record.add_equal(f"idempotent-k{k}", proj @ proj, proj)
        record.add_equal(f"trace-k{k}", proj.trace(), 2 * sector_trace_closed_form(r, k))
    record.add_equal("completeness", total, ExactMatrix.identity(dim))
    record.add_equal("spectral-reconstruction", recon, c)
    return record


def permutation_symmetry(r: int, eps: str) -> VerificationRecord:
    """The swap operator acts on the equal-chirality projector family with
    alternating signs: swap * P_{r-2k} = (-1)^k P_{r-2k}.
    """
    sector = eps + eps
    record = VerificationRecord(name=f"permutation-symmetry r={r} sector={sector}")
    half = 2 ** (r - 1)
    swap = permutation_operator(half)
    data = sector_spectral(r, sector)
    for k in range(r // 2 + 1):
        label = r - 2 * k
        proj = data.projectors[label]
        lhs = swap @ proj
        rhs = proj * ((-1) ** k)
        record.add_equal(f"swap-sign-k{label}", lhs, rhs)
    return record


def power_trace_check(r: int) -> VerificationRecord:
    """Traces of powers two through five of the operator match their closed
    forms.  tr(C^m) is the sum over the four sector blocks of tr(B^m), read
    from the block power tables.  In the spectra suite char_identity_rho has
    already taken every table to degree r+1, so from rank 4 on this makes
    no product.
    """
    record = VerificationRecord(name=f"power-traces r={r}")
    powers = [sector_spectral(r, sector).powers.upto(5) for sector in SECTORS]
    for m in range(2, 6):
        total = sum(p[m].trace() for p in powers)
        record.add_equal(f"power-{m}", total, casimir_power_trace_closed_form(r, m))
    return record


def eigenvalue_consistency(r: int) -> VerificationRecord:
    """The sector eigenvalues equal half of (constituent Casimir minus the two
    spinor Casimirs), computed from the independent oracles.
    """
    record = VerificationRecord(name=f"eigenvalue-consistency r={r}")
    spinor = oracles.c2_closed_form("Delta_plus", r)
    for k in range(r + 1):
        if k == r:
            c2 = oracles.c2_closed_form("T_r_plus", r)
        else:
            c2 = oracles.c2_closed_form("T_k", r, k)
        record.add_equal(f"difference-formula-k{k}", c2k_eigenvalue(r, k), (c2 - 2 * spinor) / 2)
    return record
