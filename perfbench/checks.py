"""Output checks computed apart from the program.

Each ``check_*`` function takes program output (exact entries, spectra,
dense matrices) and compares it with a value the benchmark computes itself
from the paper's closed forms, from its own gamma matrices, or with a
property the method must have.  None compares with a stored copy of earlier
output.  Each returns a list of ``(name, ok, detail)`` triples.

``PROBES[workload](seed)`` runs after the timed CLI call, in the same
interpreter, so the program's ``lru_cache`` builds are reused: it reads the
program's outputs for that workload and runs the checks on them.  The seed
chooses only sample points (vectors, spectral parameters, basis pairs).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import comb, factorial

import numpy as np

TOL = 1e-9  # relative, for checks in floating point; exact values are ~1e-15 off


def eigenvalue(r: int, k: int) -> Fraction:
    """The paper's split-Casimir eigenvalue (2k(2r-k) - r(2r-1)) / (16(r-1))."""
    return Fraction(2 * k * (2 * r - k) - r * (2 * r - 1), 16 * (r - 1))


def multiplicity(r: int, k: int) -> int:
    """Sector multiplicity: binomial(2r, k), halved at the top label k = r."""
    return comb(2 * r, k) // 2 if k == r else comb(2 * r, k)


def own_gammas(r: int) -> list[np.ndarray]:
    """Jordan-Wigner gamma matrices of so(2r), built here, not by the program."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    one = np.eye(2, dtype=complex)
    out = []
    for j in range(r):
        for s in (x, y):
            out.append(reduce(np.kron, [z] * j + [s] + [one] * (r - j - 1)))
    return out


def basis_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def own_commutator(n: int, a, b) -> dict:
    """[E_a, E_b] for E_ij = e_ij - e_ji, expanded in the canonical E_(i<j)."""

    def gen(p):
        m = np.zeros((n, n), dtype=np.int64)
        m[p[0] - 1, p[1] - 1], m[p[1] - 1, p[0] - 1] = 1, -1
        return m

    c = gen(a) @ gen(b) - gen(b) @ gen(a)
    return {p: int(c[p[0] - 1, p[1] - 1]) for p in basis_pairs(n) if c[p[0] - 1, p[1] - 1]}


def own_killing(n: int, a, b) -> int:
    """tr(ad_a ad_b) from the benchmark's own commutators."""
    pairs = basis_pairs(n)
    index = {p: i for i, p in enumerate(pairs)}

    def ad(x):
        m = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
        for col, d in enumerate(pairs):
            for c, coeff in own_commutator(n, x, d).items():
                m[index[c], col] = coeff
        return m

    return int(np.trace(ad(a) @ ad(b)))


def dense(matrix) -> np.ndarray:
    """Dense complex copy of an ExactMatrix, read through its public items()."""
    out = np.zeros((matrix.dim, matrix.dim), dtype=complex)
    for i, j, value in matrix.items():
        out[i, j] = complex(float(value.re), float(value.im))
    return out


def _close(lhs: np.ndarray, rhs: np.ndarray) -> tuple[bool, float]:
    scale = max(float(np.abs(lhs).max(initial=0.0)), float(np.abs(rhs).max(initial=0.0)), 1.0)
    err = float(np.abs(lhs - rhs).max(initial=0.0)) / scale
    return err < TOL, err


def _vector(rng: random.Random, dim: int) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)])


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


# -- checks ------------------------------------------------------------------


def check_hs_norm(r: int, k: int, entries) -> list:
    """sum |I_k[i,j]|^2 = (k!)^2 binomial(2r, k) 4^r, exactly.

    ``entries`` are the (re, im) rationals of the program's I_k.
    """
    total = sum(Fraction(re) ** 2 + Fraction(im) ** 2 for re, im in entries)
    expected = factorial(k) ** 2 * comb(2 * r, k) * 4**r
    return [(f"hs-norm r={r} k={k}", total == expected, f"{total} vs {expected}")]


def check_casimir_is_i2(r: int, casimir_entries: dict, i2_entries: dict) -> list:
    """C = -I_2 / (32(r-1)) entrywise, exactly: both are sums over the same
    pairs of gamma products, C with generators (1/2) g_i g_j and the Killing
    normalisation -1/(2(2r-2)), I_2 with weight 2!.
    """
    scale = Fraction(-1, 32 * (r - 1))
    keys = set(casimir_entries) | set(i2_entries)
    zero = (Fraction(0), Fraction(0))
    bad = [
        key
        for key in sorted(keys)
        if tuple(Fraction(v) for v in casimir_entries.get(key, zero))
        != tuple(Fraction(v) * scale for v in i2_entries.get(key, zero))
    ]
    return [(f"casimir-equals-scaled-I2 r={r}", not bad, f"first differing entry {bad[:1]}")]


def check_characteristic_identity(r: int, c: np.ndarray, rng: random.Random) -> list:
    """prod_{k=0..r} (C - lambda_k) x = 0 on a seeded vector x, and no factor
    can be dropped (each eigenvalue of the paper's formula occurs in C).
    """
    x = _vector(rng, c.shape[0])
    eigs = [float(eigenvalue(r, k)) for k in range(r + 1)]

    def apply_all(skip):
        y = x
        for k, ev in enumerate(eigs):
            if k != skip:
                y = c @ y - ev * y
        return y

    scale = float(np.abs(x).max()) * max(1.0, float(np.abs(c).sum(axis=1).max())) ** (r + 1)
    err = float(np.abs(apply_all(None)).max()) / scale
    out = [(f"char-identity r={r}", err < TOL, f"relative residual {err:.3e}")]
    for k in range(r + 1):
        rest = float(np.abs(apply_all(k)).max()) / scale
        out.append((f"char-identity-minimal r={r} k={k}", rest > 1e3 * TOL, f"relative norm {rest:.3e}"))
    return out


def check_sector_spectrum(r: int, sector: str, entries, dim: int) -> list:
    """The program's (k, eigenvalue, rank) triples against the paper:
    eigenvalue formula, rank = binomial(2r, k) (halved at k = r), and the
    ranks fill the sector.
    """
    out = []
    for k, ev, rank in entries:
        ok = Fraction(ev) == eigenvalue(r, k) and rank == multiplicity(r, k)
        out.append((f"spectrum r={r} sector={sector} k={k}", ok, f"{ev}, rank {rank}"))
    total = sum(rank for _, _, rank in entries)
    out.append((f"ranks-fill-sector r={r} sector={sector}", total == dim, f"{total} of {dim}"))
    return out


def check_block_eigenvalues(r: int, sector: str, block: np.ndarray, labels) -> list:
    """Numerical eigenvalues of the program's sector block equal the paper's
    eigenvalues with the paper's multiplicities, for the sector's labels.
    """
    expected = np.sort(
        np.concatenate([np.full(multiplicity(r, k), float(eigenvalue(r, k))) for k in labels])
    )
    hermitian, _ = _close(block, block.conj().T)
    if len(expected) != block.shape[0] or not hermitian:
        return [(f"block-eigenvalues r={r} sector={sector}", False, "shape or hermiticity")]
    ok, err = _close(np.sort(np.linalg.eigvalsh(block)), expected)
    return [(f"block-eigenvalues r={r} sector={sector}", ok, f"relative error {err:.3e}")]


def check_projectors(r: int, sector: str, block: np.ndarray, projectors: dict, rng) -> list:
    """On a seeded vector x: sum_k P_k x = x, P_k P_k x = P_k x and
    B P_k x = lambda_k P_k x.
    """
    x = _vector(rng, block.shape[0])
    parts = {k: p @ x for k, p in projectors.items()}
    ok, err = _close(sum(parts.values()), x)
    out = [(f"projectors-complete r={r} sector={sector}", ok, f"relative error {err:.3e}")]
    for k, p in projectors.items():
        y = parts[k]
        ok_idem, e1 = _close(p @ y, y)
        ok_eig, e2 = _close(block @ y, float(eigenvalue(r, k)) * y)
        out.append((f"projector r={r} sector={sector} k={k}", ok_idem and ok_eig, f"{e1:.3e} {e2:.3e}"))
    return out


def check_braid_ybe(r_u: np.ndarray, r_v: np.ndarray, r_uv: np.ndarray, label: str) -> list:
    """R12(u) R23(u+v) R12(v) = R23(v) R12(u+v) R23(u) on the triple product."""
    ident = np.eye(int(round(np.sqrt(r_u.shape[0]))))

    def r12(m):
        return np.kron(m, ident)

    def r23(m):
        return np.kron(ident, m)

    lhs = r12(r_u) @ r23(r_uv) @ r12(r_v)
    rhs = r23(r_v) @ r12(r_uv) @ r23(r_u)
    ok, err = _close(lhs, rhs)
    return [(f"braid-ybe {label}", ok, f"relative residual {err:.3e}")]


def check_not_scalar(m: np.ndarray, label: str) -> list:
    """The R-matrix is not a multiple of the identity (that would make the
    braid relation hold trivially)."""
    ok, _ = _close(m, m[0, 0] * np.eye(m.shape[0]))
    return [(f"r-matrix-not-scalar {label}", not ok, "")]


def check_spinor_casimir(r: int, program_values: dict) -> list:
    """-1/(2(2r-2)) sum_{i<j} M_ij^2 with M_ij = (1/2) g_i g_j on the
    benchmark's own gammas is r(2r-1)/(16(r-1)) times the identity, and the
    program's spinor Casimir values equal it.
    """
    gammas = own_gammas(r)
    n = 2 * r
    dim = gammas[0].shape[0]
    anti_ok = all(
        _close(a @ b + b @ a, 2.0 * (i == j) * np.eye(dim))[0]
        for i, a in enumerate(gammas)
        for j, b in enumerate(gammas)
    )
    c2 = sum((0.5 * a @ b) @ (0.5 * a @ b) for i, a in enumerate(gammas) for b in gammas[i + 1 :])
    c2 = c2 * (-1.0 / (2 * (n - 2)))
    expected = Fraction(r * (2 * r - 1), 16 * (r - 1))
    scalar_ok, err = _close(c2, float(expected) * np.eye(dim))
    out = [(f"own-spinor-casimir r={r}", anti_ok and scalar_ok, f"relative error {err:.3e}")]
    for name, value in program_values.items():
        out.append((f"program-{name} r={r}", Fraction(value) == expected, f"{value} vs {expected}"))
    return out


def check_commutator(n: int, a, b, program_row: dict) -> list:
    expected = own_commutator(n, a, b)
    return [(f"commutator N={n} {a} {b}", dict(program_row) == expected, f"{program_row} vs {expected}")]


def check_killing(n: int, a, b, program_value) -> list:
    expected = own_killing(n, a, b)
    return [(f"killing N={n} {a} {b}", program_value == expected, f"{program_value} vs {expected}")]


# -- probes: read the program's outputs after the timed call -------------------


def _pairs(matrix) -> dict:
    return {(i, j): (v.re, v.im) for i, j, v in matrix.items()}


def probe_invariants(seed: int, ranks=(2, 3, 4)) -> list:
    from spincas import casimir

    rng = random.Random(seed)
    out = []
    for r in ranks:
        for k in range(2 * r + 1):
            entries = ((v.re, v.im) for _, _, v in casimir.invariant_I(r, k).items())
            out += check_hs_norm(r, k, entries)
        c = casimir.split_casimir_rho(r).matrix
        out += check_casimir_is_i2(r, _pairs(c), _pairs(casimir.invariant_I(r, 2)))
        out += check_characteristic_identity(r, dense(c), rng)
    return out


def probe_spectra(seed: int, r: int = 5) -> list:
    from spincas import casimir, spectra

    rng = random.Random(seed)
    out = []
    for sector in casimir.SECTORS:
        data = spectra.sector_spectral(r, sector)
        block = dense(data.block)
        labels = [k for k, _, _ in data.spectrum.entries]
        out += check_sector_spectrum(r, sector, data.spectrum.entries, data.block.dim)
        out += check_block_eigenvalues(r, sector, block, labels)
        projectors = {k: dense(p) for k, p in data.projectors.items()}
        out += check_projectors(r, sector, block, projectors, rng)
    return out


def probe_ybe(seed: int, r: int = 3, points: int = 3) -> list:
    from spincas import ybe

    rng = random.Random(seed)
    out = []
    for _ in range(points):
        u, v = _rational(rng), _rational(rng)
        mats = [dense(ybe.full_r_matrix(r, x)) for x in (u, v, u + v)]
        label = f"r={r} u={u} v={v}"
        out += check_braid_ybe(*mats, label)
        out += check_not_scalar(mats[0], label)
    return out


def probe_oracle(seed: int, r: int = 5, samples: int = 4) -> list:
    from spincas import oracles

    rng = random.Random(seed)
    n = 2 * r
    values = {
        rep: oracles.c2_from_weight(oracles.highest_weight(rep, r), n)
        for rep in ("Delta_plus", "Delta_minus")
    }
    values["closed-form"] = oracles.c2_closed_form("Delta_plus", r)
    out = check_spinor_casimir(r, values)
    table = oracles.commutator_table(n)
    pairs = basis_pairs(n)
    for _ in range(samples):
        # b shares one index with a, so [E_a, E_b] is not zero
        a = rng.choice(pairs)
        b = rng.choice([p for p in pairs if len(set(p) & set(a)) == 1])
        out += check_commutator(n, a, b, table[(a, b)])
        for x, y in ((a, a), (a, b)):
            out += check_killing(n, x, y, oracles.killing_metric_from_contraction(n, x, y))
    return out


PROBES = {
    "invariants-r2-4": probe_invariants,
    "spectra-r5": probe_spectra,
    "ybe-r3": probe_ybe,
    "oracle-r5": probe_oracle,
}
