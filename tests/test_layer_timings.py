"""Layer timings of the solver, by pytest-benchmark.

Each benchmark runs a fixed number of rounds (`benchmark.pedantic`), so
the suite stays fast, and asserts the answers it timed.  Its table prints
the medians; `--benchmark-save` writes them under `.benchmarks/`:

    PYTHONPATH=src python -m pytest -q tests/test_layer_timings.py
"""

import random

from quadrics import engine
from quadrics.burnside import BurnsideScalar
from quadrics.engine import RingElement, solve_with_coefficients
from quadrics.presentation import load_presentation

# the spaces and RO(C2) shifts (one, sigma) of the solve benchmark
SOLVE_SPACES = (("X1q", 16), ("Q_BD", 5), ("Q_BD", 16), ("Q_DD", 5), ("Q_DD", 16),
                ("Q22", None), ("Gr222", None))
SOLVE_SHIFTS = ((0, 0), (0, 1), (0, 2), (0, 3), (0, -2), (0, -4), (-2, 2), (2, -2))


def _draw(rng, sp):
    """A seeded non-zero combination of the dressed slots of a sampled coset's degree."""
    table = sp.coset_basis(rng.choice(engine._sample_keys(sp)))
    grading = sp.mono_grading(rng.choice(table)) + sp.group.element(*rng.choice(SOLVE_SHIFTS))
    slots = engine._dressed_slots(grading, *sp.coset_table(grading))
    terms = {}
    while not terms:
        for template, mono in slots:
            b = rng.randint(-3, 3) if template.is_burnside() else 0
            coeff = BurnsideScalar(rng.randint(-3, 3), b)
            if coeff:
                terms[mono] = template.scale(coeff)
    return RingElement(sp, grading, terms)


def test_a_warm_table_solve(benchmark):
    rng = random.Random(3)
    spaces = [load_presentation(name, q) for name, q in SOLVE_SPACES]
    drawn = [_draw(rng, rng.choice(spaces)) for _ in range(256)]
    items = [(d.space, d.grading, *d.evaluate()) for d in drawn]

    def solve_all():
        return [solve_with_coefficients(*item)[0] for item in items]

    solved = benchmark.pedantic(solve_all, rounds=20, warmup_rounds=1)
    assert solved == drawn


def test_an_ansatz_solve_through_the_integer_solve(benchmark):
    sp = load_presentation("Q_BD", 5)
    drawn = _draw(random.Random(5), sp)
    ansatz = engine._dressed_slots(drawn.grading, *sp.coset_table(drawn.grading))
    rho, fix = drawn.evaluate()

    def solve():
        return solve_with_coefficients(sp, drawn.grading, rho, fix, ansatz=ansatz)

    element, records, _ = benchmark.pedantic(solve, rounds=200, warmup_rounds=1)
    assert len(ansatz) > 1 and element == drawn
    assert [(t, m) for t, m, _ in records] == ansatz
