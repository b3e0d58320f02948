"""Hot kernels for sparse Gaussian-integer matrices.

A matrix here is a rows dict ``{i: {j: (re, im)}}`` whose values are pairs of
Python ints, never ``(0, 0)``; row dicts are never empty.  ``linalg`` keeps
the rational scale that turns these into matrices over Q(i), so every loop
below multiplies and adds plain ints.  Results are not divided by their
content; ``linalg`` does that.
"""

from __future__ import annotations

from itertools import chain
from math import gcd

BACKEND = "python"


def mat_mul(a_rows, b_rows):
    """Sparse matrix product."""
    out = {}
    for i, arow in a_rows.items():
        acc = {}
        for k, (a0, a1) in arow.items():
            brow = b_rows.get(k)
            if brow is None:
                continue
            if a1:
                for j, (b0, b1) in brow.items():
                    cur = acc.get(j)
                    if cur is None:
                        acc[j] = (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
                    else:
                        acc[j] = (cur[0] + a0 * b0 - a1 * b1, cur[1] + a0 * b1 + a1 * b0)
            else:
                for j, (b0, b1) in brow.items():
                    cur = acc.get(j)
                    if cur is None:
                        acc[j] = (a0 * b0, a0 * b1)
                    else:
                        acc[j] = (cur[0] + a0 * b0, cur[1] + a0 * b1)
        row = {j: v for j, v in acc.items() if v[0] or v[1]}
        if row:
            out[i] = row
    return out


def mat_kron(a_rows, b_rows, b_dim):
    """Kronecker product; left factor indexes the slow (leading) legs."""
    out = {}
    for i1, arow in a_rows.items():
        for i2, brow in b_rows.items():
            row = {}
            for j1, (a0, a1) in arow.items():
                base = j1 * b_dim
                for j2, (b0, b1) in brow.items():
                    row[base + j2] = (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
            out[i1 * b_dim + i2] = row
    return out


def mat_lincomb(terms):
    """Sum of coeff * matrix over (coeff, rows) pairs; coeff = (re, im) ints.

    ``terms`` is consumed once, so it may be a generator that builds each
    matrix only when it is added.
    """
    acc = {}
    mixed = set()  # rows that received more than one contribution
    for (c0, c1), rows in terms:
        if not c0 and not c1:
            continue
        for i, row in rows.items():
            arow = acc.get(i)
            if arow is None:
                if c1:
                    acc[i] = {j: (c0 * v0 - c1 * v1, c0 * v1 + c1 * v0) for j, (v0, v1) in row.items()}
                elif c0 == 1:
                    acc[i] = dict(row)
                else:
                    acc[i] = {j: (c0 * v0, c0 * v1) for j, (v0, v1) in row.items()}
                continue
            mixed.add(i)
            if c1:
                for j, (v0, v1) in row.items():
                    cur = arow.get(j)
                    if cur is None:
                        arow[j] = (c0 * v0 - c1 * v1, c0 * v1 + c1 * v0)
                    else:
                        arow[j] = (cur[0] + c0 * v0 - c1 * v1, cur[1] + c0 * v1 + c1 * v0)
            else:
                for j, (v0, v1) in row.items():
                    cur = arow.get(j)
                    if cur is None:
                        arow[j] = (c0 * v0, c0 * v1)
                    else:
                        arow[j] = (cur[0] + c0 * v0, cur[1] + c0 * v1)
    for i in mixed:
        row = {j: v for j, v in acc[i].items() if v[0] or v[1]}
        if row:
            acc[i] = row
        else:
            del acc[i]
    return acc


def content(rows) -> int:
    """gcd of every real and imaginary part; 0 for the zero matrix."""
    g = 0
    for row in rows.values():
        g = gcd(g, *chain.from_iterable(row.values()))
        if g == 1:
            return 1
    return g


def _primitive(row):
    """The row divided by the gcd of its parts (in place)."""
    g = gcd(*chain.from_iterable(row.values()))
    if g != 1:
        for j, (v0, v1) in row.items():
            row[j] = (v0 // g, v1 // g)
    return row


def mat_rank(rows, dim):
    """Exact rank by fraction-free elimination over Z[i].

    Each pivot row is scaled so that its pivot is a positive integer p.  A row
    with entry v in that column becomes p/g * row - v/g * pivot row, with
    g = gcd(p, v), and is then divided by its integer content, which keeps
    the entries from growing with the number of eliminations.
    """
    rank = 0
    pivot_rows = []  # (pivot col, pivot value, row), sorted by column
    for source in rows.values():
        row = dict(source)
        for pcol, p, prow in pivot_rows:
            val = row.get(pcol)
            if val is None:
                continue
            g = gcd(p, *val)
            m, w0, w1 = p // g, val[0] // g, val[1] // g
            if m != 1:
                row = {j: (m * x0, m * x1) for j, (x0, x1) in row.items()}
            for j, (p0, p1) in prow.items():
                d0, d1 = w0 * p0 - w1 * p1, w0 * p1 + w1 * p0
                cur = row.get(j)
                if cur is None:
                    row[j] = (-d0, -d1)
                else:
                    s0, s1 = cur[0] - d0, cur[1] - d1
                    if s0 or s1:
                        row[j] = (s0, s1)
                    else:
                        del row[j]
            if not row:
                break
            _primitive(row)
        if not row:
            continue
        pcol = min(row)
        a, b = row[pcol]
        if b or a < 0:
            # multiply by the conjugate of the pivot: the pivot becomes a^2 + b^2
            row = _primitive({j: (a * x0 + b * x1, a * x1 - b * x0) for j, (x0, x1) in row.items()})
        pivot_rows.append((pcol, row[pcol][0], row))
        pivot_rows.sort(key=lambda item: item[0])
        rank += 1
    return rank
