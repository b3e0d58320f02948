"""Colour factors of ladder exchanges between two spinor lines.

The L-rung ladder is the L-th power of the sector split Casimir.  Spectral
evaluation (eigenvalue powers times eigenprojectors) is cross-checked
entrywise against direct matrix powers, made from the sector block's power
table, and the two closures are the full trace and the partial trace over
the second line.  One helper states the three checks of a ladder, for the
suite's record and for ``spincas colour`` alike.  Twin sectors share one
analysis (see ``spectra``), so their ladders are made once.
"""

from __future__ import annotations


from . import __version__
from .linalg import ExactMatrix, lincomb, partial_trace
from .records import VerificationRecord, mismatch
from .scalar import Rat
from .spectra import (
    SECTORS,
    c2k_eigenvalue,
    sector_kvalues,
    sector_spectral,
    sector_trace_closed_form,
)

MAX_RUNGS = 16


class LadderSpec:
    __slots__ = ("r", "L", "sector")

    def __init__(self, r: int, L: int, sector: str):
        if r < 2:
            raise ValueError("rank must be at least 2")
        if not 0 <= L <= MAX_RUNGS:
            raise ValueError(f"rung count must lie in [0, {MAX_RUNGS}]")
        if sector not in SECTORS:
            raise ValueError(f"unknown sector {sector!r}")
        self.r, self.L, self.sector = r, L, sector


def ladder_operator(spec: LadderSpec) -> ExactMatrix:
    """Sum over k of eigenvalue^L times the sector eigenprojector.

    Acts on the compressed sector block of dimension 4^(r-1); L = 0 gives the
    block identity and L = 1 the sector Casimir itself.
    """
    data = sector_spectral(spec.r, spec.sector)
    terms = [
        (c2k_eigenvalue(spec.r, k) ** spec.L, data.projectors[k])
        for k in sector_kvalues(spec.r, spec.sector)
    ]
    return lincomb(data.block.dim, terms)


def ladder_full_trace(spec: LadderSpec) -> Rat:
    """Trace of the ladder: sum of eigenvalue^L times the projector trace."""
    total = Rat(0)
    for k in sector_kvalues(spec.r, spec.sector):
        total += c2k_eigenvalue(spec.r, k) ** spec.L * sector_trace_closed_form(spec.r, k)
    return total


def ladder_partial_trace(spec: LadderSpec, ladder: ExactMatrix | None = None) -> tuple[Rat, ExactMatrix]:
    """Close only the second line: (coefficient, traced), the coefficient
    fixed by the full trace and the partial trace of the ladder, which is
    the coefficient times the identity when the closure is scalar.

    ``ladder`` is the spectral ladder of ``spec`` when the caller already
    holds it.
    """
    half = 2 ** (spec.r - 1)
    if ladder is None:
        ladder = ladder_operator(spec)
    return ladder_full_trace(spec) / half, partial_trace(ladder, half)


def _ladder_checks(record: VerificationRecord, spec: LadderSpec, power, spectral, partial) -> None:
    """The three checks of one ladder: the spectral ladder against the direct
    power, the full trace against the power's trace, and the partial trace
    (coefficient, traced) against the coefficient times the identity.
    """
    coefficient, traced = partial
    tag = f"{spec.sector}-L{spec.L}"
    record.add_equal(f"spectral-equals-direct-{tag}", spectral, power)
    record.add_equal(f"full-trace-matches-matrix-{tag}", ladder_full_trace(spec), power.trace())
    record.add_equal(f"partial-trace-scalar-{tag}", traced, ExactMatrix.identity(traced.dim) * coefficient)


def colour_report(spec: LadderSpec) -> dict:
    """The artifact of one ladder: its per-eigenvalue breakdown, both
    closures, and the record of its three ladder checks, whose ``ok`` is
    the verdict.

    The metadata records the overall normalization bookkeeping for diagrams
    with n34 index-loop vertices and npr propagator insertions: the power of
    the trace normalization constant is k = n34 - npr.
    """
    data = sector_spectral(spec.r, spec.sector)
    spectral = ladder_operator(spec)
    partial = ladder_partial_trace(spec, spectral)
    record = VerificationRecord(name=f"ladder-colour-factor r={spec.r} sector={spec.sector} L={spec.L}")
    _ladder_checks(record, spec, data.powers.power(spec.L), spectral, partial)
    per_k = [
        {
            "k": k,
            "eigenvalue": str(c2k_eigenvalue(spec.r, k)),
            "eigenvalue_power_L": str(c2k_eigenvalue(spec.r, k) ** spec.L),
            "weight": sector_trace_closed_form(spec.r, k),
        }
        for k in sector_kvalues(spec.r, spec.sector)
    ]
    return {
        "engine_version": __version__,
        "spec": {"r": spec.r, "L": spec.L, "sector": spec.sector},
        "per_k": per_k,
        "full_trace": str(ladder_full_trace(spec)),
        "partial_trace": str(partial[0]),
        "metadata": {"normalization_power": "k = n34 - npr"},
        "record": record.as_dict(),
    }


def ladder_consistency(r: int) -> VerificationRecord:
    """The three checks of every ladder for L = 0..6, and tracelessness at
    L=1.  The ladders and partial traces are made once per sector analysis
    and checked under the ids of every sector that shares it.
    """
    record = VerificationRecord(name=f"ladder-colour-factors r={r}")
    ladders = {}  # analysis -> its spectral ladders and partial traces, for L = 0..6
    for sector in SECTORS:
        data = sector_spectral(r, sector)
        specs = [LadderSpec(r=r, L=L, sector=sector) for L in range(7)]
        if data not in ladders:
            ladders[data] = [(m, ladder_partial_trace(spec, m)) for spec, m in zip(specs, map(ladder_operator, specs))]
        for spec, power, (spectral, partial) in zip(specs, data.powers.upto(6), ladders[data]):
            _ladder_checks(record, spec, power, spectral, partial)
        record.add_equal(f"traceless-L1-{sector}", ladder_full_trace(LadderSpec(r=r, L=1, sector=sector)), 0)
    return record


def worked_values() -> VerificationRecord:
    """Small closed-form ladder values pinned as regression anchors."""
    record = VerificationRecord(name="ladder-worked-values")
    record.add_equal("full-trace-r2-pp-L2", ladder_full_trace(LadderSpec(r=2, L=2, sector="++")), Rat(3, 16))
    coefficient, _ = ladder_partial_trace(LadderSpec(r=2, L=2, sector="++"))
    record.add_equal("partial-trace-r2-pp-L2", coefficient, Rat(3, 32))
    coefficient, _ = ladder_partial_trace(LadderSpec(r=2, L=1, sector="++"))
    record.add_equal("partial-trace-r2-pp-L1-vanishes", coefficient, 0)
    record.add_equal("full-trace-r4-pp-L2", ladder_full_trace(LadderSpec(r=4, L=2, sector="++")), Rat(7, 9))
    record.add_equal("full-trace-r5-pp-L1-vanishes", ladder_full_trace(LadderSpec(r=5, L=1, sector="++")), 0)
    nonzero = (
        f"the L={L} ladder of sector +- is nonzero: {witness}"
        for L in range(1, 5)
        if (witness := mismatch(ladder_operator(LadderSpec(r=2, L=L, sector="+-")), ExactMatrix.zero(4)))
    )
    record.add_first_failure("opposite-sector-vanishes-r2", nonzero)
    L0 = ladder_partial_trace(LadderSpec(r=3, L=0, sector="++"))[0]
    record.add_equal("L0-partial-trace-counts-dimension-r3", L0, 2 ** (3 - 1))
    return record
