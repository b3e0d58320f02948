"""Gamma matrices: the irreducible representation of the even Clifford algebra.

For rank r the 2r generators act on a 2^r-dimensional space and satisfy
G_i G_j + G_j G_i = 2 delta_ij.  The construction is the iterated
two-dimensional tensor build, ordered so that the top grading element
(product of all generators, normalized by (-i)^r) comes out diagonal with
+1 on the first half of the basis and -1 on the second half.  All entries
are in {0, +-1, +-i}, checked at build time.  The module is the one home
of the spinor leg: the chirality layout, the generators on Delta_+-, the
Cartan, the leg weights, and the closure, orbit and Levi premises.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import gcd
from typing import Iterator

from .linalg import ExactMatrix, NotABasisMap, diagonal_action, kron
from .oracles import basis_pairs
from .records import VerificationRecord, mismatch
from .scalar import ExactScalar, Rat

_I = ExactScalar(0, 1)

PAULI_X = ExactMatrix(2, {(0, 1): 1, (1, 0): 1})
PAULI_Y = ExactMatrix(2, {(0, 1): -_I, (1, 0): _I})
PAULI_Z = ExactMatrix(2, {(0, 0): 1, (1, 1): -1})

_ALLOWED_ENTRIES = {
    ExactScalar(1),
    ExactScalar(-1),
    ExactScalar(0, 1),
    ExactScalar(0, -1),
}


def chirality_indices(r: int, eps: str) -> range:
    """The basis of Delta_eps in the layout of ``build_gamma`` (see above)."""
    if eps not in ("+", "-"):
        raise ValueError(f"eps must be '+' or '-', got {eps!r}")
    half = 2 ** (r - 1)
    return range(half) if eps == "+" else range(half, 2 * half)


class GammaRep:
    """The 2r generators on dimension 2^r plus the diagonal grading element."""

    __slots__ = ("r", "gammas", "chirality")

    def __init__(self, r: int, gammas: tuple[ExactMatrix, ...], chirality: ExactMatrix):
        self.r, self.gammas, self.chirality = r, gammas, chirality

    @property
    def dim(self) -> int:
        return 2**self.r


@lru_cache(maxsize=None)
def build_gamma(r: int) -> GammaRep:
    """Deterministic construction of the rank-r generators."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    gammas = [PAULI_X, PAULI_Y]
    chirality = PAULI_Z
    for _ in range(r - 1):
        dim = gammas[0].dim
        ident = ExactMatrix.identity(dim)
        gammas = [kron(PAULI_X, g) for g in gammas]
        gammas.append(kron(PAULI_X, chirality))
        gammas.append(kron(PAULI_Y, ident))
        chirality = kron(PAULI_Z, ident)
    for k, g in enumerate(gammas, start=1):
        for i, j, value in g.items():
            if value not in _ALLOWED_ENTRIES:
                raise ValueError(f"generator G_{k} has entry {value} at ({i}, {j}), not one of +-1, +-i")
    return GammaRep(r=r, gammas=tuple(gammas), chirality=chirality)


def antisym_gamma(rep: GammaRep, indices) -> ExactMatrix:
    """Antisymmetrized product of generators for a strictly increasing
    multi-index: the generators anticommute, so it is their ordered
    product; the empty index gives the identity.
    """
    indices = tuple(indices)
    if indices != tuple(sorted(set(indices))) or not set(indices) <= set(range(1, 2 * rep.r + 1)):
        raise ValueError(f"generator indices must be strictly increasing in [1, {2 * rep.r}], got {indices}")
    out = ExactMatrix.identity(rep.dim)
    for i in indices:
        out = out @ rep.gammas[i - 1]
    return out


def integrity_report(rep: GammaRep) -> VerificationRecord:
    """Full sweep of the defining properties of a generator set."""
    record = VerificationRecord(name=f"gamma-integrity r={rep.r}")
    n = 2 * rep.r
    ident = ExactMatrix.identity(rep.dim)
    for i in range(n):
        for j in range(i, n):
            anti = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
            expected = ident * 2 if i == j else ExactMatrix.zero(rep.dim)
            record.add_equal(f"anticommutator-{i + 1}-{j + 1}", anti, expected)
    for i in range(n):
        record.add_equal(f"hermitian-{i + 1}", rep.gammas[i], rep.gammas[i].conj_transpose())
    chir = rep.chirality
    signs = {"+": 1, "-": -1}
    layout = ExactMatrix(rep.dim, {(i, i): s for eps, s in signs.items() for i in chirality_indices(rep.r, eps)})
    record.add_equal("grading-diagonal-pm1", chir, layout)
    record.add_equal("grading-squares-to-identity", chir @ chir, ident)
    record.add_equal("grading-traceless", chir.trace(), 0)
    product = ExactMatrix.identity(rep.dim)
    for g in rep.gammas:
        product = product @ g
    rebuilt = product * (ExactScalar(0, -1) ** rep.r)
    record.add_equal("grading-equals-normalized-product", rebuilt, chir)
    for i in range(n):
        anti = chir @ rep.gammas[i] + rep.gammas[i] @ chir
        record.add_equal(f"grading-anticommutes-{i + 1}", anti, ExactMatrix.zero(rep.dim))
    return record


@lru_cache(maxsize=None)
def rotation_generators(r: int) -> tuple[ExactMatrix, ...]:
    """Spinor-representation images of the rotation generators, one per i<j pair.

    Pairs are ordered lexicographically; the generator for (i, j) is half the
    antisymmetrized product of generators i and j.
    """
    rep = build_gamma(r)
    return tuple(antisym_gamma(rep, pair) * Rat(1, 2) for pair in basis_pairs(2 * r))


def chain_pairs(r: int) -> list[tuple[int, int]]:
    """The neighbouring pairs (i, i+1), i = 1..2r-1."""
    return [(i, i + 1) for i in range(1, 2 * r)]


def chain_generators(r: int, gens=None) -> tuple[ExactMatrix, ...]:
    """The images of L_(i,i+1), i = 1..2r-1, picked from gens, a tuple in
    basis_pairs(2r) order (default: rotation_generators(r)).

    Each is half a product of two generators, so it sends every basis vector
    to a multiple of one basis vector.
    """
    by_pair = dict(zip(basis_pairs(2 * r), rotation_generators(r) if gens is None else gens))
    return tuple(by_pair[pair] for pair in chain_pairs(r))


def cartan_generators(r: int, gens=None) -> list[tuple[tuple[int, int], ExactMatrix]]:
    """(pair, L_pair) of the Cartan L_(2k-1,2k), k = 1..r: every other chain generator."""
    return list(zip(chain_pairs(r), chain_generators(r, gens)))[::2]


def _ray(images, phases):
    """The key shared by the nonzero complex multiples of a basis map: its
    phases times the conjugate of the first phase, divided by the gcd of all
    their parts.  The key is itself such a multiple of the map.
    """
    x0, y0 = phases[0]
    # (x + i y)(x0 - i y0) = (x x0 + y y0) + i (y x0 - x y0)
    turned = [(x * x0 + y * y0, y * x0 - x * y0) for x, y in phases]
    g = gcd(*(v for phase in turned for v in phase))
    return images, tuple((x // g, y // g) for x, y in turned)


def _commutator(a, b):
    """a b - b a of two basis maps (images, phases), or None when it is not
    a basis map: the products send some e_j to two basis vectors, or to the
    same multiple of one.
    """
    (a_im, a_ph), (b_im, b_ph) = a, b
    phases = []
    for j, (aj, bj) in enumerate(zip(a_im, b_im)):
        if a_im[bj] != b_im[aj]:
            return None
        # (a b) e_j = b_ph[j] a_ph[bj] e_k and (b a) e_j = a_ph[j] b_ph[aj] e_k
        (p, q), (s, t) = b_ph[j], a_ph[bj]
        (u, v), (w, z) = a_ph[j], b_ph[aj]
        x, y = p * s - q * t - u * w + v * z, p * t + q * s - u * z - v * w
        if not (x or y):
            return None
        phases.append((x, y))
    return tuple(a_im[bj] for bj in b_im), tuple(phases)


def closure_failures(r: int, chain, gens=None) -> Iterator[str]:
    """Witness against: iterated commutators of the chain matrices reach
    every rotation generator rho(L_ab) up to a nonzero scalar; gens holds
    the generators in basis_pairs(2r) order (default: rotation_generators(r)).

    The rotation generators are basis maps (each sends every basis vector to
    a nonzero multiple of one basis vector), so a chain matrix must be one
    too, and the search runs on the maps.  It only follows commutators that
    are again basis maps and multiples of a generator, so it stays among the
    r(2r-1) generators; it yields at most one witness.
    """
    maps = []
    for k, m in enumerate(chain, start=1):
        try:
            maps.append(m.basis_map())
        except NotABasisMap as exc:
            yield f"chain generator {k} of {len(chain)} {exc}"
            return
    gens = rotation_generators(r) if gens is None else gens
    targets = {_ray(*g.basis_map()): pair for pair, g in zip(basis_pairs(2 * r), gens)}
    reached = set()

    def new_generators(candidates):
        found = []
        for m in candidates:
            if m is None:
                continue
            key = _ray(*m)
            if key in targets and key not in reached:
                reached.add(key)
                found.append(key)
        return found

    frontier = new_generators(maps)
    while frontier:
        frontier = new_generators(_commutator(x, g) for x in frontier for g in maps)
    missed = [pair for key, pair in targets.items() if key not in reached]
    if missed:
        yield (
            f"iterated commutators of {len(chain)} chain generators reach "
            f"{len(reached)} of {len(targets)} rotation generators; L_{missed[0]} is missed"
        )


def orbit_failures(symmetries, leg: int):
    """Witness against: each symmetry sends each basis vector of the leg to a
    nonzero multiple of one basis vector, and the orbit of e_0 under them
    covers the basis.
    """
    images = []
    for label, g, _ in symmetries:
        try:
            images.append(g.basis_map()[0])
        except NotABasisMap as exc:
            yield f"{label} {exc}"
            return
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [image[j] for j in frontier for image in images if image[j] not in reached]
        reached.update(frontier)
    if len(reached) < leg:
        missed = min(set(range(leg)) - reached)
        yield f"the orbit of e_0 reaches {len(reached)} of {leg} basis vectors; e_{missed} is missed"


def leg_weights(cartan) -> list[tuple[int, ...]]:
    """w(j) for each basis vector e_j of the leg: twice the imaginary parts
    of the diagonal entries (j, j) of the Cartan generators L_(2k-1,2k), so
    a spinor weight has coordinates +-1 and a root +-2 eps_a +- 2 eps_b.  It
    is the weight of e_j when the leg basis is a weight basis.
    """
    return [tuple(int(2 * h[j, j].im) for _, h in cartan) for j in range(cartan[0][1].dim)]


def twist(weights) -> tuple[int, ...]:
    """sigma: the signs of the coordinates of w(0)."""
    return tuple(-1 if x < 0 else 1 for x in weights[0])


def weight_basis_failures(cartan):
    """Witness against: each Cartan generator L_(2k-1,2k) is diagonal with
    entries in (i/2) Z, so every basis vector of the leg has a weight.
    """
    for pair, h in cartan:
        for i, j, value in h.items():
            if i != j or value.re or (2 * value.im).denominator != 1:
                yield f"L_{pair} has entry ({i}, {j}) = {value}, not a diagonal entry in (i/2) Z"
                return


def levi_failures(weights, r: int, chain, gens):
    """Witness against: the Levi subalgebra, the Cartan and the root spaces
    of the roots alpha = sigma_a eps_a - sigma_b eps_b, lies in the algebra
    the chain generates and fixes the line of e_0.  A root vector sends e_0
    into the weight space of w(0) + alpha, so it kills e_0 when no leg weight
    is w(0) + alpha.  The root vectors are sums of rotation generators, so
    they lie in the algebra when iterated commutators of the chain reach
    every rotation generator on the leg.
    """
    w0, sigma = weights[0], twist(weights)
    first = {}
    for j, w in enumerate(weights):
        first.setdefault(w, j)
    for a, b in permutations(range(len(w0)), 2):
        shifted = list(w0)
        shifted[a] += 2 * sigma[a]
        shifted[b] -= 2 * sigma[b]
        j = first.get(tuple(shifted))
        if j is not None:
            root = f"sigma_{a + 1} eps_{a + 1} - sigma_{b + 1} eps_{b + 1}"
            yield f"e_{j} has weight w(0) + alpha for the Levi root alpha = {root}"
            return
    yield from closure_failures(r, chain, gens)


def commutation_failures(matrices, symmetries) -> Iterator[str]:
    """Witnesses against: each labelled matrix (label, X) on the tensor
    square of a space commutes with the action there of each symmetry
    (label, g, lie) of the space.  A Lie algebra element g (lie true) acts
    as g (x) 1 + 1 (x) g, a group element g as g (x) g.  One witness per
    failing pair, with the first entry where X @ action and action @ X
    differ.
    """
    for symmetry, g, lie in symmetries:
        action = diagonal_action(g) if lie else kron(g, g)
        for label, x in matrices:
            if witness := mismatch(x @ action, action @ x):
                yield f"{label} does not commute with {symmetry}: {witness}"


def half_spinor_blocks(r: int, eps: str) -> tuple[ExactMatrix, ...]:
    """The rotation generators compressed to the half-spinor leg Delta_eps."""
    indices = chirality_indices(r, eps)
    return tuple(g.restrict(indices) for g in rotation_generators(r))
