"""Suite orchestration and machine-readable reports.

Reports are deterministic: suites run in a fixed order and the emitted
JSON/CSV bytes depend only on the configuration, never on timing.  Wall
time belongs on stderr, not in the artifact.
"""

from __future__ import annotations

import io
import json

from . import __version__, casimir, clifford, colour, oracles, spectra, ybe
from .records import FAIL, NOTE, PASS, VerificationRecord
from .spectra import c2k_eigenvalue, sector_trace_closed_form

SECTOR_LABELS = {"++": "pp", "+-": "pm", "-+": "mp", "--": "mm"}

# the highest rank any command or suite accepts
MAX_RANK = 6


def gamma_suite(r: int) -> list[VerificationRecord]:
    return [clifford.integrity_report(clifford.build_gamma(r))]


def oracle_suite(r: int) -> list[VerificationRecord]:
    return [
        oracles.algebra_integrity(2 * r),
        oracles.defining_rep_check(2 * r),
        oracles.weight_consistency(r),
    ]


def invariants_suite(r: int) -> list[VerificationRecord]:
    records = [
        casimir.verify_recurrences(r),
        casimir.polynomial_consistency(r),
        casimir.lemma_duality_sweep(r),
        casimir.ad_invariance_check(r),
        casimir.coproduct_consistency(r),
    ]
    reference = VerificationRecord(name=f"reference-polynomial-tables r={r}")
    for k in range(2, 7):
        reference.add_equal(f"table-k{k}", casimir.i2k_polynomial(r, k), casimir.reference_even_polynomial(r, k))
    records.append(reference)
    return records


def spectra_suite(r: int) -> list[VerificationRecord]:
    records = [spectra.projector_axioms(r, s) for s in casimir.SECTORS]
    records.append(spectra.char_identity_rho(r))
    records.append(spectra.eigenvalue_consistency(r))
    records.append(spectra.power_trace_check(r))
    records.append(spectra.duality_pair_identities(r))
    records.append(spectra.sector_minimal_identities(r))
    records.append(spectra.permutation_symmetry(r, "+"))
    records.append(spectra.permutation_symmetry(r, "-"))
    records.append(spectra.rho_family_check(r))
    return records


def colour_suite(r: int) -> list[VerificationRecord]:
    records = [colour.ladder_consistency(r)]
    if r == 2:
        records.append(colour.worked_values())
    return records


def ybe_suite(r: int) -> list[VerificationRecord]:
    us, vs = ybe.admissible_grid(r)
    records = [
        ybe.asymptotic_check(r),
        ybe.tau_ratio_constraints(r),
        ybe.coefficient_consistency(r),
        ybe.ybe_identity_check(r),
        ybe.ybe_check(r),
        ybe.unitarity_check(r, "+"),
        ybe.unitarity_check(r, "-"),
        ybe.symmetry_check(r, "+"),
        ybe.symmetry_check(r, "-"),
        ybe.swap_relation_check(r, "+"),
        ybe.swap_relation_check(r, "-"),
        ybe.plain_ybe_spot_check(r, "+", [(us[0], vs[0]), (us[1], vs[1])]),
        ybe.symmetric_part_factorization(r),
        ybe.chirality_split_check(r),
        ybe.full_ybe_identity_check(r),
        ybe.full_ybe_check(r),
    ]
    if r == 2:
        records.append(ybe.rising_factorial_identity())
    return records


_SUITE_RUNNERS = {
    "gamma": gamma_suite,
    "oracle": oracle_suite,
    "invariants": invariants_suite,
    "spectra": spectra_suite,
    "colour": colour_suite,
    "ybe": ybe_suite,
}

SUITES = tuple(_SUITE_RUNNERS)


class SuiteConfig:
    """A rank range and a selection of suites.  The selection is kept in
    ``SUITES`` order, each suite once, as it runs: a list given in another
    order or with repeats configures the same report.
    """

    __slots__ = ("r_min", "r_max", "suites")

    def __init__(self, r_min: int = 2, r_max: int = 5, suites: tuple[str, ...] = SUITES):
        if not suites:
            raise ValueError("no suite selected")
        if not 2 <= r_min <= r_max <= MAX_RANK:
            raise ValueError(f"rank range must satisfy 2 <= min <= max <= {MAX_RANK}")
        for suite in suites:
            if suite not in SUITES:
                raise ValueError(f"unknown suite {suite!r}")
        self.r_min, self.r_max = r_min, r_max
        self.suites = tuple(s for s in SUITES if s in suites)


def run_suite(cfg: SuiteConfig) -> dict:
    """Execute the configured suites and aggregate a deterministic report."""
    records: list[tuple[str, int, VerificationRecord]] = []
    for suite in cfg.suites:
        for r in range(cfg.r_min, cfg.r_max + 1):
            for record in _SUITE_RUNNERS[suite](r):
                records.append((suite, r, record))
    summary = {PASS: 0, FAIL: 0, NOTE: 0}
    entries = []
    notes = []
    for suite, r, record in records:
        for check in record.checks:
            summary[check.status] += 1
            if check.status == NOTE:
                notes.append(
                    {
                        "suite": suite,
                        "r": r,
                        "record": record.name,
                        "id": check.check_id,
                        "witness": check.witness,
                    }
                )
        entries.append({"suite": suite, "r": r, **record.as_dict()})
    return {
        "engine_version": __version__,
        "config": {
            "r_min": cfg.r_min,
            "r_max": cfg.r_max,
            "suites": list(cfg.suites),
        },
        "summary": summary,
        "ok": all(record.ok for _, _, record in records),
        "records": entries,
        "notes": notes,
    }


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    out = io.StringIO()
    out.write("suite,r,record,check,status,witness\n")
    for entry in report["records"]:
        for check in entry["checks"]:
            witness = check.get("witness", "").replace('"', "'")
            out.write(
                f'{entry["suite"]},{entry["r"]},"{entry["name"]}",'
                f'"{check["id"]}",{check["status"]},"{witness}"\n'
            )
    return out.getvalue()


def emit_tables(r: int) -> tuple[str, str]:
    """CSV of the eigenvalue/multiplicity listings, one row per (sector, k),
    and the witness of the first row whose multiplicity differs from its
    closed form ("" when every row agrees).

    Sector labels: pp, pm, mp, mm for the four chirality blocks and rho for
    the assembled family on the full tensor square.  A sector multiplicity
    is the exact rank of its eigenprojector, and a rho multiplicity the sum
    of the sector ranks of its label.
    """
    rows = []
    rho: dict = {}  # k -> summed sector ranks
    for sector in casimir.SECTORS:
        for k, eigenvalue, rank in spectra.sector_spectral(r, sector).spectrum.entries:
            rows.append((SECTOR_LABELS[sector], k, eigenvalue, rank, sector_trace_closed_form(r, k)))
            rho[k] = rho.get(k, 0) + rank
    for k, rank in rho.items():
        rows.append(("rho", k, c2k_eigenvalue(r, k), rank, 2 * sector_trace_closed_form(r, k)))
    rows.sort(key=lambda row: row[:2])
    out = io.StringIO()
    out.write("sector,k,eigenvalue,multiplicity\n")
    for label, k, eigenvalue, rank, _ in rows:
        out.write(f"{label},{k},{eigenvalue},{rank}\n")
    bad = (f"{label} k={k}: rank {rank} != closed form {expected}"
           for label, k, _, rank, expected in rows if rank != expected)
    return out.getvalue(), next(bad, "")
