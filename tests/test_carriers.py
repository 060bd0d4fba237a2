import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalballs.balls import BallOpen, FormalBall
from formalballs.carriers import (
    MetricAxiomError,
    finite_space,
    finite_space_from_json,
    gaussian_rationals,
    product_space,
    rational_line,
)
from formalballs.completion import point_of_carrier


def test_line_distances():
    line = rational_line()
    assert line.dist(Fraction(1, 2), Fraction(2)) == Fraction(3, 2)
    assert line.dist(Fraction(7), Fraction(7)) == 0
    assert line.dist(-1, 1) == 2


def test_finite_space_basic():
    sp = finite_space(2, [[0, 1], [1, 0]])
    assert sp.dist(0, 1) == 1
    assert sp.points == (0, 1)
    one = finite_space(1, [[0]])
    assert one.dist(0, 0) == 0


def test_finite_space_rejects_triangle_violation():
    with pytest.raises(MetricAxiomError) as exc:
        finite_space(3, [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    assert exc.value.witness == (0, 1, 2)


def test_finite_space_rejects_other_axioms():
    with pytest.raises(MetricAxiomError):
        finite_space(2, [[1, 1], [1, 0]])
    with pytest.raises(MetricAxiomError):
        finite_space(2, [[0, 1], [2, 0]])
    with pytest.raises(MetricAxiomError):
        finite_space(2, [[0, -1], [-1, 0]])


def test_finite_space_from_json():
    sp = finite_space_from_json({"n": 2, "d": [["0", "3/2"], ["3/2", "0"]]})
    assert sp.dist(0, 1) == Fraction(3, 2)


def test_product_max_metric():
    line = rational_line()
    prod = product_space(line, line)
    assert prod.dist((Fraction(0), Fraction(0)), (Fraction(3), Fraction(4))) == 4
    assert prod.dist((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))) == 0
    sp2 = finite_space(2, [[0, 1], [1, 0]])
    mixed = product_space(line, sp2)
    assert mixed.dist((Fraction(0), 0), (Fraction(2), 1)) == 2
    assert mixed.components == (line, sp2)


def test_gaussian_rationals_max_metric():
    g = gaussian_rationals()
    assert g.dist((Fraction(0), Fraction(0)), (Fraction(3), Fraction(4))) == 4


def test_gaussian_rationals_hold_only_pairs_of_rationals():
    g = gaussian_rationals()
    assert g.contains((Fraction(1, 2), -3))
    assert g.midpoint((Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))) == (
        Fraction(1, 2), Fraction(3, 2))
    for x in (("a", "b"), (Fraction(1), "b"), (0.5, 0), (1, 2, 3), [1, 2], 1):
        assert not g.contains(x)
        with pytest.raises(ValueError, match="is not a carrier element"):
            BallOpen.of(g, FormalBall(x, Fraction(1)))
    # one carrier, not a product: its own kind and no factors to project to
    assert g.kind == ("gaussian",) and g.components is None
    assert g.kind != product_space(rational_line(), rational_line()).kind


def test_booleans_are_not_carrier_elements():
    line, sp = rational_line(), finite_space(2, [[0, 1], [1, 0]])
    cases = [(line, True), (line, False), (sp, True), (sp, False),
             (gaussian_rationals(), (True, 0)), (product_space(line, sp), (0, False))]
    for carrier, x in cases:
        assert not carrier.contains(x)
        with pytest.raises(ValueError, match="is not a carrier element"):
            point_of_carrier(carrier, x)
    assert line.contains(1) and sp.contains(1) and gaussian_rationals().contains((1, 0))


def test_sampled_symmetry_and_triangle():
    rng = random.Random(7)
    for carrier in (
        rational_line(),
        gaussian_rationals(),
        finite_space(3, [[0, 2, 3], [2, 0, 2], [3, 2, 0]]),
        product_space(rational_line(), rational_line()),
    ):
        for _ in range(30):
            a, b, c = (carrier.sample(rng) for _ in range(3))
            d = carrier.dist(a, b)
            assert type(d) is Fraction
            assert d == carrier.dist(b, a)
            assert carrier.dist(a, c) <= d + carrier.dist(b, c)


def test_projections_do_not_increase_distance():
    rng = random.Random(3)
    line = rational_line()
    prod = product_space(line, line)
    for _ in range(30):
        a, b = prod.sample(rng), prod.sample(rng)
        d = prod.dist(a, b)
        assert line.dist(a[0], b[0]) <= d
        assert line.dist(a[1], b[1]) <= d


def reference_triangle_witness(n, table):
    """The first (i, j, k) with d(i, k) > d(i, j) + d(j, k), on Fractions."""
    d = [[Fraction(table[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][k] > d[i][j] + d[j][k]:
                    return (i, j, k)
    return None


@st.composite
def symmetric_tables(draw):
    """Symmetric zero-diagonal tables, some with one entry pushed up or down.

    Entries have denominators 1, 2, 3, 5, 7; a table built from shortest
    paths is a metric, and the injected entry may break the triangle
    inequality in either direction, or not at all.
    """
    n = draw(st.integers(1, 7))
    entry = st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3, 5, 7]))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(entry)
    if draw(st.booleans()):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    if n > 1 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        d[i][j] = d[j][i] = draw(entry)
    # mix the input forms finite_space accepts
    return n, [[draw(st.sampled_from([q, str(q)])) for q in row] for row in d]


@settings(max_examples=200, deadline=None)
@given(symmetric_tables())
def test_triangle_check_matches_the_fraction_loop(case):
    n, table = case
    want = reference_triangle_witness(n, table)
    if want is None:
        finite_space(n, table)
    else:
        with pytest.raises(MetricAxiomError) as exc:
            finite_space(n, table)
        assert str(exc.value).startswith("triangle inequality violated")
        assert exc.value.witness == want
