"""Hot kernels for sparse integer matrices.

A matrix here is a rows dict ``{i: {j: v}}`` whose values are nonzero Python
ints; row dicts are never empty.  ``linalg`` stores each exact matrix as a
rational scale times a real and an imaginary part of this kind, and builds
the complex arithmetic from calls of these real kernels, so every loop below
multiplies and adds plain ints.  Every sum of matrices and of products is
formed in one accumulator, ``RowsSum``; ``mat_mul`` and ``mat_lincomb``
each fill a fresh one, and ``linalg.ScaledSum`` holds one per part of a
complex sum.  A Kronecker sum is the one exception: ``mat_kron`` sets each
entry of it once, from the terms' factors grouped by their values, so it
needs no accumulator.  Results are not divided by their content; ``linalg``
does that.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd

BACKEND = "python"


def mat_mul(a_rows, b_rows):
    """Sparse matrix product."""
    out = RowsSum()
    out.add_product(1, a_rows, b_rows)
    return out.rows()


def mat_kron(terms, b_dim):
    """Sum of c * a (x) b over the terms (int c, a_rows, b_rows), each b
    b_dim-square; a indexes the slow (leading) legs.  Each entry of the sum
    is set once: no Kronecker matrix is formed per term, no entry is
    accumulated over the terms, and no zero entry is made.

    A position (i1, j1) of the factors a has the vector u of its values over
    the terms, u = s1 * p with p primitive (``_buckets``); a position
    (i2, j2) of the factors b likewise has w = s2 * q.  The sum's entry at
    (i1 * b_dim + i2, j1 * b_dim + j2) is then s1 * s2 * K with
    K = sum_t c_t p_t q_t, which is formed once per pair of buckets (p, q)
    that share a term.  The rows come in ascending order.
    """
    terms = [(c, a, b) for c, a, b in terms if c and a and b]
    lefts = _buckets([a for _, a, _ in terms])
    # a sum of Kronecker squares, as C is, reads its factors' positions once
    rights = lefts if all(a is b for _, a, b in terms) else _buckets([b for _, _, b in terms])
    by_term = [[] for _ in terms]  # t -> (index of a right bucket, q_t)
    for n, q in enumerate(rights):
        for k in range(0, len(q), 2):
            by_term[q[k]].append((n, q[k + 1]))
    right_positions = list(rights.values())
    out = defaultdict(dict)
    for p, positions in lefts.items():
        pair_sums = {}
        for k in range(0, len(p), 2):
            t = p[k]
            cp = terms[t][0] * p[k + 1]
            for n, q_t in by_term[t]:
                pair_sums[n] = pair_sums.get(n, 0) + cp * q_t
        for n, pair_sum in pair_sums.items():
            if not pair_sum:
                continue
            for i1, j1, s1 in positions:
                i1 *= b_dim
                j1 *= b_dim
                s1 *= pair_sum
                for i2, j2, s2 in right_positions[n]:
                    out[i1 + i2][j1 + j2] = s1 * s2
    return {i: out[i] for i in sorted(out)}


def _buckets(factors):
    """The entry positions of the factors, one matrix per term, keyed by
    their primitive vectors.  A position (i, j) has the vector of the values
    v_t of the factors that have an entry there, flattened to
    (t, v_t, t', v_t', ...) in term order.  It is s times the primitive
    vector p, whose values have gcd 1 and the first of them positive, and
    the key p holds (i, j, s).  One factor is one bucket, with p = (0, 1),
    and is read without a vector per position.
    """
    if len(factors) == 1:
        return {(0, 1): [(i, j, v) for i, row in factors[0].items() for j, v in row.items()]}
    vectors = {}
    for t, rows in enumerate(factors):
        for i, row in rows.items():
            for j, v in row.items():
                vector = vectors.get((i, j))
                if vector is None:
                    vectors[i, j] = [t, v]
                else:
                    vector += (t, v)
    buckets = {}
    for (i, j), vector in vectors.items():
        values = vector[1::2]
        s = gcd(*values)
        if values[0] < 0:
            s = -s
        if s != 1:
            vector[1::2] = [v // s for v in values]
        p = tuple(vector)
        bucket = buckets.get(p)
        if bucket is None:
            buckets[p] = [(i, j, s)]
        else:
            bucket.append((i, j, s))
    return buckets


class RowsSum:
    """The one sparse sum: int multiples of matrices and of matrix products,
    each added in place row by row as it is formed; no factor may be this
    sum's rows.  Kronecker sums are not added here (``mat_kron``).  A row
    that may hold a zero entry, or none, is marked for ``rows`` to clean: a
    row that ``add`` reaches again and a row that a product empties.  A product
    drops the entries it cancels at once, so a sum read as a factor between
    products holds no zero entry.
    """

    __slots__ = ("acc", "mixed")

    def __init__(self):
        self.acc = {}
        self.mixed = set()  # rows that may hold a zero entry, or none

    def add(self, c, rows):
        """Add c * rows."""
        if not c:
            return
        acc, mixed = self.acc, self.mixed
        for i, row in rows.items():
            arow = acc.get(i)
            if arow is None:
                acc[i] = dict(row) if c == 1 else {j: c * v for j, v in row.items()}
                continue
            mixed.add(i)
            for j, v in row.items():
                arow[j] = arow.get(j, 0) + c * v

    def add_product(self, c, a_rows, b_rows):
        """Add c * a @ b."""
        if not c:
            return
        acc = self.acc
        for i, arow in a_rows.items():
            row = acc.get(i)
            fresh = row is None
            if fresh:
                row = {}
            for k, a in arow.items():
                brow = b_rows.get(k)
                if brow is not None:
                    a *= c
                    for j, b in brow.items():
                        v = row.get(j, 0) + a * b
                        if v:
                            row[j] = v
                        else:
                            del row[j]
            if fresh:
                if row:
                    acc[i] = row
            elif not row:
                self.mixed.add(i)

    def rows(self):
        """The sum so far, without zero entries or empty rows.  More may be
        added afterwards; that changes the returned rows in place.
        """
        acc = self.acc
        for i in self.mixed:
            row = {j: v for j, v in acc[i].items() if v}
            if row:
                acc[i] = row
            else:
                del acc[i]
        self.mixed.clear()
        return acc


def mat_lincomb(terms):
    """Sum of coeff * matrix over (int coeff, rows) pairs.

    ``terms`` is consumed once, so it may be a generator that builds each
    matrix only when it is added.
    """
    total = RowsSum()
    for c, rows in terms:
        total.add(c, rows)
    return total.rows()


def content(*parts) -> int:
    """gcd of every entry of the given matrices; 0 when all are zero."""
    g = 0
    for rows in parts:
        for row in rows.values():
            g = gcd(g, *row.values())
            if g == 1:
                return 1
    return g


def mat_rank(rows):
    """Exact rank by fraction-free elimination over Z.

    Each pivot row is scaled so that its pivot is a positive integer p.  A row
    with entry v in that column becomes p/g * row - v/g * pivot row, with
    g = gcd(p, v), and is then divided by its content, which keeps the
    entries from growing with the number of eliminations.  A row is reduced
    at its pivot columns in increasing order, kept in a set of the pivot
    columns it holds: a pivot row has no entry left of its pivot, so an
    elimination adds columns only to the right of the one it clears.
    """
    pivots = {}  # pivot column -> (pivot value, row)
    for source in rows.values():
        row = dict(source)
        todo = row.keys() & pivots.keys()
        while todo:
            pcol = min(todo)
            todo.remove(pcol)
            v = row.get(pcol)
            if v is None:
                continue
            p, prow = pivots[pcol]
            g = gcd(p, v)
            m, w = p // g, v // g
            if m != 1:
                row = {j: m * x for j, x in row.items()}
            for j, x in prow.items():
                s = row.get(j)
                if s is None:
                    row[j] = -w * x
                    if j in pivots:
                        todo.add(j)
                elif s := s - w * x:
                    row[j] = s
                else:
                    del row[j]
            if not row:
                break
            g = gcd(*row.values())
            if g != 1:
                row = {j: x // g for j, x in row.items()}
        if not row:
            continue
        pcol = min(row)
        if row[pcol] < 0:
            row = {j: -x for j, x in row.items()}
        pivots[pcol] = (row[pcol], row)
    return len(pivots)
