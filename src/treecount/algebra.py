"""Exact integer determinants and capped-exponent polynomial products.

Everything here is exact: determinants use fraction-free elimination over
Python integers, and polynomial expansion keeps full arbitrary-precision
coefficients. A monomial is one int holding a 2-bit exponent field per
variable: bits 2i and 2i+1 carry the exponent of variable i, which is
capped at 2 because an edge has two endpoints. A field therefore reads
0b00, 0b01 or 0b10, multiplying by variable i adds 1 << 2i, and the
constant monomial is 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import BudgetExceededError, ExponentOverflowError, LengthMismatchError

Monomial = int

DEFAULT_TERM_BUDGET = 10_000_000


def bareiss_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Every intermediate division is exact, so arithmetic never leaves the
    integers no matter how large Laplacian entries grow. The empty matrix
    has determinant 1.
    """
    d = len(matrix)
    rows = [list(r) for r in matrix]
    for r in rows:
        if len(r) != d:
            raise ValueError("matrix must be square")
    if d == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(d - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, d):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        row_k = rows[k]
        for i in range(k + 1, d):
            row_i = rows[i]
            lead = row_i[k]
            for jj in range(k + 1, d):
                row_i[jj] = (row_i[jj] * pivot - lead * row_k[jj]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * rows[d - 1][d - 1]


def multiply_forms(
    forms: Iterable[frozenset[int]], budget: int = DEFAULT_TERM_BUDGET
) -> dict[Monomial, int]:
    """Fully expand a product of sums of distinct variables.

    Each form is the set of variable indices appearing with coefficient 1.
    Returns a dict from each monomial, packed as described in the module
    docstring, to its nonzero coefficient. The empty product is the constant
    1; a form with empty support collapses the whole product to 0. Raises
    BudgetExceeded when an expansion, the starting constant 1 included,
    grows past `budget` monomials, ExponentOverflow if a variable occurs in
    more than two forms of a nonempty product: coefficients are positive,
    so that is read off a count per variable, not a test per monomial. A
    step's expansion only grows as each variable of its form is added in,
    so it is checked after each one: a step past the budget stops after the
    variable that takes it there. Any form order gives the same monomials,
    and smallest forms first keeps the steps small.
    """
    terms = _within_budget({0: 1}, budget)
    seen: dict[int, int] = {}
    for form in forms:
        nxt: dict[Monomial, int] = {}
        for var in sorted(form):
            if terms and seen.get(var) == 2:
                raise ExponentOverflowError(f"variable {var} would exceed exponent 2")
            seen[var] = seen.get(var, 0) + 1
            one = 1 << 2 * var
            if nxt:
                get = nxt.get
                for mono, coef in terms.items():
                    key = mono + one
                    nxt[key] = get(key, 0) + coef
                _within_budget(nxt, budget)
            else:  # the first variable shifts every key alike: none collide
                nxt = {mono + one: coef for mono, coef in terms.items()}
        terms = nxt
    return terms


def _within_budget(terms: dict[Monomial, int], budget: int) -> dict[Monomial, int]:
    # every expansion, the empty product's included, is held to the budget
    if len(terms) > budget:
        raise BudgetExceededError(f"expansion exceeded the {budget}-monomial budget")
    return terms


def evaluate_poly(p: dict[Monomial, int], weights: Sequence[int]) -> int:
    """Evaluate a `multiply_forms` result at an integer point, weights[i]
    being the value of variable i."""
    total = 0
    for mono, coef in p.items():
        value = coef
        idx = 0
        while mono:
            exp = mono & 3
            if exp:
                if idx >= len(weights):
                    raise LengthMismatchError(
                        f"monomial uses variable {idx} but only "
                        f"{len(weights)} weights were given"
                    )
                value *= weights[idx] ** exp
            mono >>= 2
            idx += 1
        total += value
    return total
