from __future__ import annotations

import random
import tracemalloc

import pytest

from oracles import evaluate_poly, naive_determinant
from treecount import FamilySpec, bareiss_determinant, generate_family, multiply_forms
from treecount.errors import (
    BudgetExceededError,
    ExponentOverflowError,
    LengthMismatchError,
)


def test_determinant_two_by_two():
    assert bareiss_determinant([[2, -1], [-1, 2]]) == 3


def test_determinant_identity():
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert bareiss_determinant(eye) == 1


def test_determinant_figure_one_laplacian_minor():
    assert bareiss_determinant([[4, -1, -2], [-1, 2, -1], [-2, -1, 4]]) == 12


def test_determinant_empty_matrix():
    assert bareiss_determinant([]) == 1


def test_determinant_singular():
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_determinant_needs_zero_pivot_swap():
    m = [[0, 1, 2], [1, 0, 3], [4, 5, 0]]
    assert bareiss_determinant(m) == naive_determinant(m)


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        bareiss_determinant([[1, 2, 3], [4, 5, 6]])


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(20240811)
    for _ in range(60):
        d = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        assert bareiss_determinant(m) == naive_determinant(m)


def test_determinant_matches_oracle_with_forced_zero_columns():
    rng = random.Random(7)
    for _ in range(30):
        d = rng.randint(2, 5)
        m = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
        col = rng.randrange(d)
        for i in range(rng.randrange(d)):
            m[i][col] = 0
        assert bareiss_determinant(m) == naive_determinant(m)


def mono(*fields):
    """Packed monomial from (variable, exponent) pairs: 2 bits per variable."""
    return sum(exp << 2 * var for var, exp in fields)


def test_monomials_pack_two_bits_per_variable():
    # x3 * (x1 + x3) = x1 x3 + x3^2: variable i owns bits 2i and 2i+1
    poly = multiply_forms([frozenset({3}), frozenset({1, 3})])
    assert poly == {0b0100_0100: 1, 0b1000_0000: 1}


def test_coefficients_scale_each_variable_in_every_form():
    # (3 y0 + 2 y1)(3 y0) = 9 y0^2 + 6 y0 y1; a coefficient of 1 changes nothing
    assert multiply_forms([frozenset({0, 1}), frozenset({0})], coefficients=[3, 2]) == {
        mono((0, 2)): 9,
        mono((0, 1), (1, 1)): 6,
    }
    forms = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    assert multiply_forms(forms, coefficients=[1, 1, 1]) == multiply_forms(forms)


def test_empty_product_is_constant_one():
    poly = multiply_forms([])
    assert poly == {mono(): 1}
    assert evaluate_poly(poly, []) == 1


def test_figure_one_expansion_contains_perfect_matching_monomials(figure_one):
    forms = [figure_one.incident_edges(v) for v in range(4)]
    poly = multiply_forms(forms)
    assert poly[mono((0, 2), (4, 2))] == 1
    assert poly[mono((1, 2), (5, 2))] == 1


def test_single_edge_squares_its_variable():
    poly = multiply_forms([frozenset({0}), frozenset({0})])
    assert poly == {mono((0, 2)): 1}


def test_three_occurrences_overflow():
    with pytest.raises(ExponentOverflowError):
        multiply_forms([frozenset({0}), frozenset({0}), frozenset({0})])


def test_budget_aborts_expansion(figure_one):
    forms = [figure_one.incident_edges(v) for v in range(4)]
    with pytest.raises(BudgetExceededError):
        multiply_forms(forms, budget=3)


def test_budget_stops_a_step_at_the_variable_that_passes_it():
    # K7's incidence expansion has 7,314 monomials after five forms and
    # 40,234 after six. At a 7,314 budget the sixth step raises once its
    # second variable takes it past: about 1.8 MB at peak against 3.3 MB
    # for the whole step (CPython 3.11)
    forms = [generate_family(FamilySpec("complete", (7,))).incident_edges(v) for v in range(7)]
    tracemalloc.start()
    try:
        assert len(multiply_forms(forms[:6])) == 40_234
        full = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        message = "^expansion exceeded the 7314-monomial budget$"
        with pytest.raises(BudgetExceededError, match=message):
            multiply_forms(forms, budget=7314)
        stopped = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stopped < 0.6 * full


def test_budget_holds_the_empty_product():
    # the empty product is one monomial, the constant 1
    with pytest.raises(BudgetExceededError, match="exceeded the 0-monomial budget"):
        multiply_forms([], budget=0)
    assert multiply_forms([], budget=1) == {0: 1}


def test_empty_form_zeroes_the_product():
    poly = multiply_forms([frozenset({0}), frozenset()])
    assert poly == {}
    assert evaluate_poly(poly, [5]) == 0


def test_evaluate_figure_one_at_all_ones(figure_one):
    forms = [figure_one.incident_edges(v) for v in range(4)]
    assert evaluate_poly(multiply_forms(forms), [1] * 6) == 64


def test_evaluate_single_monomial():
    poly = multiply_forms(
        [frozenset({0}), frozenset({0}), frozenset({4}), frozenset({4})]
    )
    assert evaluate_poly(poly, [3, 1, 1, 1, 2, 1]) == 36


def test_evaluate_rejects_short_weights():
    poly = multiply_forms([frozenset({3})])
    with pytest.raises(LengthMismatchError):
        evaluate_poly(poly, [1, 1])


def test_evaluation_is_a_homomorphism():
    rng = random.Random(99)
    for _ in range(25):
        nvars = rng.randint(1, 6)
        forms = []
        for _ in range(rng.randint(0, 4)):
            # cap occurrences at two per variable to stay a graph-like input
            fresh = [v for v in range(nvars) if sum(v in f for f in forms) < 2]
            forms.append(frozenset(v for v in fresh if rng.random() < 0.6))
        w = [rng.randint(-4, 4) for _ in range(nvars)]
        poly = multiply_forms(forms)
        direct = 1
        for form in forms:
            direct *= sum(w[v] for v in form)
        assert evaluate_poly(poly, w) == direct
