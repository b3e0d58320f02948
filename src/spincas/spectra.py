"""Spectral data of the split Casimir operator: eigenvalues, characteristic
identities, Lagrange eigenprojectors per sector and on the full tensor
square, projector traces, and permutation symmetry.

Multiplicities are always recomputed as exact ranks; the closed-form
binomial dimensions act as assertions on top of that ground truth.  Every
polynomial in a sector block is evaluated from the block's power table,
held by its ``SectorSpectral``; the direct projectors on the full space
use the power table of the full operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

from .casimir import (
    SECTORS,
    block_structure_check,
    casimir_powers,
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
    shifted_images,
    trace_of_product,
)
from .ratfunc import poly_from_roots
from .records import PASS, CheckResult, VerificationRecord
from .scalar import Rat

OPPOSITE = {"++": "+-", "+-": "++", "-+": "--", "--": "-+"}


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
    equal = sector in ("++", "--")
    if r % 2 == 0:
        return tuple(range(0, r + 1, 2)) if equal else tuple(range(1, r, 2))
    return tuple(range(1, r + 1, 2)) if equal else tuple(range(0, r, 2))


def sector_trace_closed_form(r: int, k: int) -> int:
    """Projector trace: binomial(2r, k), halved at the top label k = r."""
    return comb(2 * r, k) // 2 if k == r else comb(2 * r, k)


@dataclass(frozen=True)
class Spectrum:
    entries: tuple[tuple[int, Rat, int], ...]  # (k, eigenvalue, multiplicity)


@dataclass(frozen=True)
class SectorSpectral:
    """One sector block with its power table, projectors, and verified
    spectrum.
    """

    r: int
    sector: str
    block: ExactMatrix
    powers: PowerTable  # of the block
    spectrum: Spectrum
    projectors: dict[int, ExactMatrix]


def _lagrange_projector(eigs: dict[int, Rat], k: int, powers: PowerTable) -> ExactMatrix:
    """prod over the other eigenvalues e of (C - e) / (eigs[k] - e), for eigs
    the eigenvalue of each label and C the operator whose powers the table holds.
    """
    numer = poly_from_roots(e for e in eigs.values() if e != eigs[k])
    denom = numer(eigs[k])
    return poly_eval([c / denom for c in numer.coeffs], powers)


@lru_cache(maxsize=None)
def sector_spectral(r: int, sector: str) -> SectorSpectral:
    """Build the sector block, its eigenprojectors, and rank-verified spectrum."""
    block = sector_casimir(r, sector)
    eigs = {k: c2k_eigenvalue(r, k) for k in sector_kvalues(r, sector)}
    powers = PowerTable(block)
    projectors = {k: _lagrange_projector(eigs, k, powers) for k in eigs}
    entries = tuple((k, ev, projectors[k].rank()) for k, ev in eigs.items())
    return SectorSpectral(
        r=r,
        sector=sector,
        block=block,
        powers=powers,
        spectrum=Spectrum(entries=entries),
        projectors=projectors,
    )


def projector_axioms(r: int, sector: str) -> VerificationRecord:
    """Idempotence, orthogonality, completeness, reconstruction, traces, ranks."""
    record = VerificationRecord(name=f"projector-axioms r={r} sector={sector}")
    data = sector_spectral(r, sector)
    ident = ExactMatrix.identity(data.block.dim)
    zero = ExactMatrix.zero(data.block.dim)
    for k, proj in data.projectors.items():
        record.add_equal(f"idempotent-k{k}", proj @ proj, proj)
    ks = sorted(data.projectors)
    for a in range(len(ks)):
        for b in range(a + 1, len(ks)):
            prod = data.projectors[ks[a]] @ data.projectors[ks[b]]
            record.add_equal(f"orthogonal-k{ks[a]}-k{ks[b]}", prod, zero)
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
        trace = proj.trace()
        record.add(f"trace-k{k}", trace == expected, f"trace {trace} != {expected}")
        record.add(f"rank-k{k}", mult == expected, f"rank {mult} != {expected}")
    return record


def char_identity_rho(r: int) -> VerificationRecord:
    """Product of the r+1 eigenvalue factors annihilates the operator,
    the top even invariant vanishes as a polynomial, and every subproduct
    omitting one factor is nonzero (minimality).
    """
    record = VerificationRecord(name=f"characteristic-identity r={r}")
    record.extend(block_structure_check(r))
    eigs = [c2k_eigenvalue(r, k) for k in range(r + 1)]
    full_poly = poly_from_roots(eigs)
    for sector in SECTORS:
        powers = sector_spectral(r, sector).powers
        product = poly_eval(full_poly.coeffs, powers)
        record.add(f"factorized-identity-{sector}", product.is_zero())
        top_val = poly_eval(i2k_polynomial(r, r + 1), powers)
        record.add(f"top-invariant-vanishes-{sector}", top_val.is_zero())
    cases = []
    for omit in range(r + 1):
        # every label lies in some sector; a column of its eigenprojector
        # there is an eigenvector, lifted to the full space
        sector = next(s for s in SECTORS if omit in sector_kvalues(r, s))
        proj = sector_spectral(r, sector).projectors[omit]
        _, col = next(proj.support())
        indices = sector_indices(r, sector)
        vec = {indices[i]: v for i, v in proj.column(col).items()}
        cases.append(([e for j, e in enumerate(eigs) if j != omit], vec))
    # push each through the remaining factors, on the full operator
    images = shifted_images(split_casimir_rho(r).matrix, cases)
    for omit, image in enumerate(images):
        record.add(
            f"minimality-omit-k{omit}",
            bool(image),
            "subproduct annihilated the candidate eigenvector",
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
    flip sign), so its outcome is read from that sector's signed check.
    """
    record = VerificationRecord(name=f"sector-pair-identities r={r}")
    polys = [i2k_polynomial(r, j) for j in range(r + 1)]
    checks = {sector: _pair_checks(r, sector, polys) for sector in SECTORS}
    for sector in SECTORS:
        for k, (signed, unsigned) in enumerate(checks[sector]):
            record.checks.append(signed)
            if r % 2 == 0:
                record.checks.append(unsigned)
            elif checks[OPPOSITE[sector]][k][0].status == PASS:
                record.note(
                    f"unsigned-pair-{sector}-k{k}",
                    "odd rank: unsigned form holds on the exchanged sector",
                )
            else:
                record.add(f"unsigned-pair-{sector}-k{k}", False)
    return record


def _pair_checks(r: int, sector: str, polys) -> list[tuple[CheckResult, CheckResult | None]]:
    """(signed, unsigned) pair-identity checks on one sector for k = 0..r;
    the unsigned check only at even rank.  Each I_2j is evaluated once.
    """
    sign_r = (-1) ** r
    eps = 1 if sector in ("++", "--") else -1
    powers = sector_spectral(r, sector).powers
    values = [poly_eval(p, powers) for p in polys]
    scratch = VerificationRecord(name="")
    out = []
    for k in range(r + 1):
        ratio = Rat(factorial(2 * r - 2 * k), factorial(2 * k))
        lhs, rhs = values[r - k], values[k] * (eps * sign_r * ratio)
        signed = scratch.add_equal(f"signed-pair-{sector}-k{k}", lhs, rhs)
        unsigned = None
        if r % 2 == 0:
            unsigned = scratch.add_equal(f"unsigned-pair-{sector}-k{k}", lhs, rhs * sign_r)
        out.append((signed, unsigned))
    return out


def sector_minimal_identities(r: int) -> VerificationRecord:
    """Minimal-degree invariant identities annihilating each sector block."""
    record = VerificationRecord(name=f"sector-minimal-identities r={r}")

    def vanishes(check_id, coeffs, sector):
        powers = sector_spectral(r, sector).powers
        record.add_equal(check_id, poly_eval(coeffs, powers), ExactMatrix.zero(powers.base.dim))

    if r % 2 == 0:
        for sector in ("+-", "-+"):
            vanishes(f"opposite-chirality-{sector}", i2k_polynomial(r, r // 2), sector)
        for sector in ("++", "--"):
            hi = i2k_polynomial(r, r // 2 + 1)
            lo = i2k_polynomial(r, r // 2 - 1)
            coeff = r * (r * r - 1) * (r + 2)
            combo = [
                a - coeff * (lo[m] if m < len(lo) else Rat(0))
                for m, a in enumerate(hi)
            ]
            vanishes(f"equal-chirality-{sector}", combo, sector)
    else:
        hi = i2k_polynomial(r, (r + 1) // 2)
        lo = i2k_polynomial(r, (r - 1) // 2)
        coeff = r * (r + 1)
        for sector in SECTORS:
            # equal chirality: plus sign; opposite chirality: minus sign
            sign = 1 if sector in ("++", "--") else -1
            combo = [
                a + sign * coeff * (lo[m] if m < len(lo) else Rat(0))
                for m, a in enumerate(hi)
            ]
            vanishes(f"degree-{(r + 1) // 2}-{sector}", combo, sector)
    return record


# -- the full tensor-square family -----------------------------------------


@lru_cache(maxsize=None)
def rho_projectors(r: int) -> dict[int, ExactMatrix]:
    """Eigenprojectors on the full 4^r space, assembled from sector blocks."""
    return {k: _embedded_sum(r, k, SECTORS) for k in range(r + 1)}


def _embedded_sum(r: int, k: int, sectors) -> ExactMatrix:
    """Sum of the label-k sector projectors of the given sectors, on 4^r."""
    dim = 4**r
    blocks = [
        (1, sector_spectral(r, s).projectors[k].embed(sector_indices(r, s), dim))
        for s in sectors
        if k in sector_kvalues(r, s)
    ]
    return lincomb(dim, blocks)


def rho_family_check(r: int, direct_lagrange: bool = True) -> VerificationRecord:
    """Axioms and traces of the assembled family, the parity split into the
    equal/opposite chirality halves, and (optionally, small ranks) entrywise
    agreement with projectors built directly on the full space.
    """
    record = VerificationRecord(name=f"tensor-square-projectors r={r}")
    projectors = rho_projectors(r)
    dim = 4**r
    c = split_casimir_rho(r).matrix
    total = lincomb(dim, [(1, proj) for proj in projectors.values()])
    recon = lincomb(dim, [(c2k_eigenvalue(r, k), proj) for k, proj in projectors.items()])
    zero = ExactMatrix.zero(dim)
    for k, proj in projectors.items():
        record.add_equal(f"idempotent-k{k}", proj @ proj, proj)
        expected = 2 * sector_trace_closed_form(r, k)
        trace = proj.trace()
        record.add(f"trace-k{k}", trace == expected, f"trace {trace} != {expected}")
    for a in range(r + 1):
        for b in range(a + 1, r + 1):
            record.add_equal(f"orthogonal-k{a}-k{b}", projectors[a] @ projectors[b], zero)
    record.add_equal("completeness", total, ExactMatrix.identity(dim))
    record.add_equal("spectral-reconstruction", recon, c)
    equal_sectors = ("++", "--")
    for k in range(r + 1):
        parity_equal = k in sector_kvalues(r, "++")
        sectors = equal_sectors if parity_equal else ("+-", "-+")
        record.add_equal(f"parity-split-k{k}", _embedded_sum(r, k, sectors), projectors[k])
    if direct_lagrange:
        eigs = {k: c2k_eigenvalue(r, k) for k in range(r + 1)}
        powers = casimir_powers(r)
        for k in eigs:
            record.add_equal(f"direct-lagrange-k{k}", _lagrange_projector(eigs, k, powers), projectors[k])
    return record


def permutation_symmetry(r: int, eps: str) -> VerificationRecord:
    """The swap operator acts on the equal-chirality projector family with
    alternating signs: swap * P_{r-2k} = (-1)^k P_{r-2k}.
    """
    if eps not in ("+", "-"):
        raise ValueError("eps must be '+' or '-'")
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
    forms.  tr(C^m) is summed over the four sector blocks as tr(B^a B^(m-a))
    with a = ceil(m/2), from the block power tables, entrywise.
    """
    from .casimir import casimir_power_trace_closed_form

    record = VerificationRecord(name=f"power-traces r={r}")
    # powers up to ceil(5/2) = 3 cover every split of m <= 5
    powers = [sector_spectral(r, sector).powers.upto(3) for sector in SECTORS]
    for m in range(2, 6):
        a = (m + 1) // 2
        total = sum(trace_of_product(p[a], p[m - a]) for p in powers)
        expected = casimir_power_trace_closed_form(r, m)
        record.add(f"power-{m}", total == expected, f"{total} != {expected}")
    return record


def eigenvalue_consistency(r: int) -> VerificationRecord:
    """The sector eigenvalues equal half of (constituent Casimir minus the two
    spinor Casimirs), computed from the independent oracles.
    """
    from . import oracles

    record = VerificationRecord(name=f"eigenvalue-consistency r={r}")
    spinor = oracles.c2_closed_form("Delta_plus", r)
    for k in range(r + 1):
        if k == r:
            c2 = oracles.c2_closed_form("T_r_plus", r)
        else:
            c2 = oracles.c2_closed_form("T_k", r, k)
        expected = (c2 - 2 * spinor) / 2
        record.add(
            f"difference-formula-k{k}",
            c2k_eigenvalue(r, k) == expected,
            f"{c2k_eigenvalue(r, k)} != {expected}",
        )
    return record
