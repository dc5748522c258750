"""The product sides as eta and theta quotients, checked against the factor
loop they replace.

``eta_theta_product`` must equal ``poch_product`` on every registry list it
takes, share no code with it, and refuse every list that is no theta
quotient; its two sparse row kernels must equal the dense schoolbook
product and inverse.
"""

import ast
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsip import catalog, qfactory
from qsip.qfactory import (DivergentProduct, PochSpec, eta_theta_product,
                           eta_theta_quotient, partition_row, poch_product,
                           theta_terms)
from qsip.series import QSeries, _convolve_into, sparse_divide, sparse_multiply

SRC = Path(__file__).resolve().parent.parent / "src" / "qsip"
ROUTE_IDS = ["euler-any", "euler-distinct", "rogers-ramanujan", "gollnitz-gordon-1",
             "slater-46", "slater-61", "slater-81", "slater-6-corrected", "slater-86",
             "mod7-sum"]
FACTOR_LOOP_IDS = ["schur-refined", "glasgow-mod8"]


def factors(identity):
    return catalog.get(identity).rhs.args[0]


# -- the registry ----------------------------------------------------------------

def test_route_is_chosen_by_the_data():
    # a row is on the theta route exactly when its list converts
    for identity in catalog.identity_ids():
        rhs = catalog.get(identity).rhs
        assert isinstance(rhs, partial) and not rhs.keywords
        if rhs.func is eta_theta_product:
            eta_theta_quotient(rhs.args[0])
        else:
            assert rhs.func is poch_product
            with pytest.raises(ValueError):
                eta_theta_quotient(rhs.args[0])
    assert [i for i in catalog.identity_ids()
            if catalog.get(i).rhs.func is eta_theta_product] == ROUTE_IDS
    assert [i for i in catalog.identity_ids()
            if catalog.get(i).rhs.func is poch_product] == FACTOR_LOOP_IDS


@pytest.mark.parametrize("identity", ROUTE_IDS)
def test_route_equals_factor_loop(identity):
    for trunc in [*range(201), 3000]:
        assert eta_theta_product(factors(identity), trunc) == \
            poch_product(factors(identity), trunc), trunc


def test_quotients_of_the_registry():
    assert eta_theta_quotient(factors("euler-any")) == {(3, 1): -1}
    assert eta_theta_quotient(factors("rogers-ramanujan")) == {(3, 1): -1, (5, 2): 1}
    assert eta_theta_quotient(factors("gollnitz-gordon-1")) == {
        (3, 1): -1, (8, 2): 1, (8, 3): 1, (24, 8): -1}
    # (q^2; q^2)(q^3; q^3)^2 / ((q; q)^2 (q^6; q^6)),
    # as theta(6, 1) = (q; q)(q^6; q^6)^2 / ((q^2; q^2)(q^3; q^3))
    assert eta_theta_quotient(factors("slater-6-corrected")) == {
        (3, 1): -1, (6, 1): -1, (9, 3): 1, (18, 6): 1}
    assert eta_theta_quotient(factors("slater-86")) == {
        (3, 1): -1, (16, 1): 1, (16, 6): 1, (16, 7): 1, (24, 8): 1, (48, 16): -3}
    assert eta_theta_quotient([]) == {}


# -- the theta series --------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 9))
def test_theta_is_its_triple_product(m):
    t = 60
    for r in range(1, m):
        row = [0] * (t + 1)
        for n, e in theta_terms(m, r, t):
            row[e] += -1 if n % 2 else 1
        product = poch_product([(PochSpec(r, m), 1), (PochSpec(m - r, m), 1),
                                (PochSpec(m, m), 1)], t)
        assert QSeries(row, trunc=t) == product, (m, r)


def test_theta_terms_window():
    # every n whose exponent is at most the cut, in ascending order, and no other
    for m, r, t in [(1, 0, 9), (3, 1, 40), (4, -3, 25), (8, 11, 30), (2, 1, 0)]:
        got = theta_terms(m, r, t)
        want = [(n, (m * n * (n - 1)) // 2 + r * n) for n in range(-50, 51)
                if (m * n * (n - 1)) // 2 + r * n <= t]
        assert got == want, (m, r, t)


def test_partition_row():
    assert partition_row(10) == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert partition_row(0) == (1,)
    assert partition_row(200)[200] == 3972999029388


# -- refusals ----------------------------------------------------------------------

@pytest.mark.parametrize("bad, error, fragment", [
    (factors("glasgow-mod8"), ValueError, "do not pair into theta series"),
    (factors("schur-refined"), ValueError, "theta quotients are marker-free"),
    ([(PochSpec(6, 5), -1)], ValueError, "offset 6 outside 1..5"),
    ([(PochSpec(1, 5), 2)], ValueError, "power must be 1 or -1"),
    ([(PochSpec(0, 5), -1)], DivergentProduct, "factor q-exponent 0 <= 0"),
    ([(PochSpec(-2, 5, sign=-1), 1)], DivergentProduct, "factor q-exponent -2 <= 0"),
])
def test_converter_refuses(bad, error, fragment):
    for call in (partial(eta_theta_quotient, bad), partial(eta_theta_product, bad, 10)):
        with pytest.raises(error, match=fragment):
            call()


def test_quotient_once_per_list(monkeypatch):
    # each factor list is converted once per process, and every call edits
    # its own copy of the quotient, so a repeated call builds the same side
    calls = []
    monkeypatch.setattr(qfactory, "eta_theta_quotient",
                        lambda pairs: calls.append(pairs) or eta_theta_quotient(pairs))
    qfactory._quotient_of.cache_clear()
    try:
        for identity in ROUTE_IDS * 2:
            for trunc in (30, 31):
                assert eta_theta_product(factors(identity), trunc) == \
                    poch_product(factors(identity), trunc), (identity, trunc)
    finally:
        qfactory._quotient_of.cache_clear()
    assert len(calls) == len({tuple(factors(identity)) for identity in ROUTE_IDS})


def test_negative_truncation_rejected():
    with pytest.raises(ValueError, match="^truncation order must be non-negative$"):
        eta_theta_product(factors("euler-any"), -1)


@pytest.mark.parametrize("identity", ROUTE_IDS)
def test_huge_truncation_fails_before_any_term(identity):
    # the output row is allocated first; the theta terms would run toward 10**10
    with pytest.raises(OverflowError):
        eta_theta_product(factors(identity), 10**20)
    with pytest.raises(OverflowError):
        partition_row(10**20)


# -- the sparse kernels against the dense schoolbook ones ----------------------------

@st.composite
def sparse_case(draw):
    """(row, plus, minus): a signed dense row and the exponents of the +1 and
    -1 terms of a sparse series 1 + ..., unordered, some past the row's end."""
    row = draw(st.lists(st.integers(-50, 50), min_size=0, max_size=30))
    exponents = st.lists(st.integers(1, 35), max_size=5)
    return row, draw(exponents), draw(exponents)


def dense(plus, minus, size):
    """1 + sum of q^e over plus - sum of q^e over minus, through size entries."""
    out = [1] + [0] * (size - 1)
    for e in plus:
        if e < size:
            out[e] += 1
    for e in minus:
        if e < size:
            out[e] -= 1
    return out


@given(sparse_case())
@settings(max_examples=150)
def test_sparse_multiply_matches_convolution(case):
    row, plus, minus = case
    want = [0] * len(row)
    _convolve_into(want, row, dense(plus, minus, len(row)))
    got = row[:]
    sparse_multiply(got, plus, minus)
    assert got == want


def schoolbook_inverse_times(row, divisor):
    """row / divisor through len(row) entries, divisor[0] == 1, by the dense
    recurrence out[n] = row[n] - sum over i = 1..n of divisor[i] out[n - i]."""
    out = []
    for n in range(len(row)):
        out.append(row[n] - sum(divisor[i] * out[n - i] for i in range(1, n + 1)))
    return out


@given(sparse_case())
@settings(max_examples=150)
def test_sparse_divide_matches_schoolbook_inverse(case):
    row, plus, minus = case
    want = schoolbook_inverse_times(row, dense(plus, minus, len(row)))
    got = row[:]
    sparse_divide(got, plus, minus)
    assert got == want


def test_sparse_divide_undoes_sparse_multiply():
    rng = random.Random(7)
    for _ in range(20):
        size = rng.randrange(1, 120)
        row = [rng.randrange(-9, 10) for _ in range(size)]
        plus = [rng.randrange(1, 150) for _ in range(rng.randrange(0, 6))]
        minus = [rng.randrange(1, 150) for _ in range(rng.randrange(0, 6))]
        got = row[:]
        sparse_multiply(got, plus, minus)
        sparse_divide(got, plus, minus)
        assert got == row


@pytest.mark.parametrize("plus, minus, fragment", [
    ([0], [], "exponent 0 < 1"),
    ([3, 0], [1], "exponent 0 < 1"),
    ([2], [4, -1], "exponent -1 < 1"),
], ids=["plus-zero", "plus-zero-among-others", "minus-negative"])
@pytest.mark.parametrize("kernel", [sparse_multiply, sparse_divide],
                         ids=["multiply", "divide"])
def test_sparse_divide_refuses(kernel, plus, minus, fragment):
    row = [1, 2, 3]
    with pytest.raises(ValueError, match=fragment):
        kernel(row, plus, minus)
    assert row == [1, 2, 3]


# -- the route shares no code with the factor loop ----------------------------------

ROUTE = {"eta_theta_product"}
FACTOR_LOOP = {"poch_product", "apply", "binomial_factor", "_expand", "_product"}


def reached(trees, roots):
    """Every name that the functions ``roots`` call, following calls into
    the other functions the trees define."""
    defs = {node.name: node for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}
    seen, todo, called = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                ident = node.id if isinstance(node, ast.Name) else node.attr
                called.add(ident)
                todo.append(ident)
    return called


def test_detector_follows_calls():
    tree = ast.parse("def a():\n    b()\n\ndef b():\n    spec.apply([], None)\n")
    assert "apply" in reached([tree], {"a"})
    assert "apply" not in reached([tree], {"c"})


def test_route_shares_no_code_with_the_factor_loop():
    trees = [ast.parse((SRC / name).read_text()) for name in ("qfactory.py", "series.py")]
    names = reached(trees, ROUTE)
    assert {"sparse_multiply", "sparse_divide", "partition_row", "theta_terms",
            "eta_theta_quotient"} <= names
    assert names & FACTOR_LOOP == set()
