"""Brute-force references for the tests: plain loops that import nothing from
``qsip``, so they share no code with the walks and products they check."""

from itertools import combinations


def partition_count(total, max_part=None):
    """Partitions of ``total`` into parts at most ``max_part``, counted
    bottom-up by adding one allowed part size at a time."""
    max_part = total if max_part is None else max_part
    if total < 0 or max_part < 0:
        return 0
    ways = [1] + [0] * total
    for part in range(1, min(max_part, total) + 1):
        for n in range(part, total + 1):
            ways[n] += ways[n - part]
    return ways[total]


def _flagged(kinds, total_max):
    """(parts, flagged) for each ascending multiset of ``kinds``, ascending (kind, size)
    pairs, of total size at most total_max, once per subset of its distinct kinds."""
    by_total = [[()]] + [[] for _ in range(total_max)]
    for kind, size in kinds:
        for n in range(size, total_max + 1):
            by_total[n] += [parts + (kind,) for parts in by_total[n - size]]
    for row in by_total:
        for parts in row:
            distinct = sorted(set(parts))
            for r in range(len(distinct) + 1):
                for flagged in combinations(distinct, r):
                    yield parts, flagged


def overpartitions(total_max):
    """(parts, overlined sizes) for every ascending partition of a total
    0..total_max, once for each subset of its distinct sizes."""
    return _flagged([(p, p) for p in range(1, total_max + 1)], total_max)


def copy_overpartitions(total_max):
    """(parts, overlined species) as :func:`overpartitions` does, for the
    n-copies partitions: ascending parts (value, sub), 1 <= sub <= value."""
    return _flagged([((v, s), v) for v in range(1, total_max + 1)
                     for s in range(1, v + 1)], total_max)


def theta_sum(quad, lin, trunc, alternating=False):
    """The coefficients to q^trunc of the sum over n of (+-1)^n
    q^(quad*n^2 + lin*n), quad >= 1, over a window of n that holds every
    exponent at most trunc; the sign is (-1)^n when ``alternating``."""
    coeffs = [0] * (trunc + 1)
    for n in range(-trunc - abs(lin) - 1, trunc + abs(lin) + 2):
        e = quad * n * n + lin * n
        assert e >= 0, f"negative exponent {e} at n={n}: not a power series"
        if e <= trunc:
            coeffs[e] += -1 if alternating and n % 2 else 1
    return coeffs


# -- polynomials in markers: {exponent tuple: int} dicts with no zero entry --

def poly_add(*polys):
    """The sum of the polynomials."""
    out = {}
    for poly in polys:
        for exps, c in poly.items():
            out[exps] = out.get(exps, 0) + c
    return {exps: c for exps, c in out.items() if c}


def poly_mul(a, b):
    """The product of two polynomials of one registry."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            out[exps] = out.get(exps, 0) + ca * cb
    return poly_add(out)


def poly_scale(poly, c):
    """The polynomial times the int c."""
    return poly_add({exps: c * x for exps, x in poly.items()})


def poly_rows(coeffs):
    """{exponent tuple: int list} for a list of polynomials, the one at index
    n the coefficient of q^n: one row per monomial, as ``QSeries.from_rows``
    reads them."""
    rows = {}
    for n, poly in enumerate(coeffs):
        for exps, c in poly.items():
            rows.setdefault(exps, [0] * len(coeffs))[n] = c
    return rows
