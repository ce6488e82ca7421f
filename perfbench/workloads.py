"""The benchmark's workloads: inputs, the timed call, and the answer check.

Each workload is driven through the package's public functions only and
builds its inputs here, from a `random.Random` seeded by the run.  A
workload exposes

    setup()              loads what is timed as set-up (after the import)
    prepare(state)       untimed input tables
    draw(rng, state)     one pass: a list of op inputs
    run(item)            the timed call
    check(item, result)  "ok" or the name of the failure
    label(item)          the space (or command) the op is counted under

Answers are checked outside the timed region.  Every op counts: a wrong
answer or an exception is a failure, and nothing is retried or redrawn
after the call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json

from quadrics import cli, engine, presentation
from quadrics.burnside import BurnsideScalar
from quadrics.scalars import scalar_dressing


def failure_kind(err: Exception) -> str:
    if isinstance(err, RuntimeError) and "STEP_BOUND" in str(err):
        return "step_bound"
    return f"error:{type(err).__name__}"


# --------------------------------------------------------------------------
# reproduce: the command sequence a reader runs to re-derive the paper
# --------------------------------------------------------------------------

class Reproduce:
    """46 `quadrics ... --json` commands, each in a fresh interpreter pass.

    The q grid is written out rather than read from MAX_Q, so raising
    MAX_Q does not change this workload.  The seed only sets the order
    of the commands within a pass.
    """

    COMMANDS = (
        [["verify", name] for name in ("BU1", "Q22", "Gr222")]
        + [["verify", "X1q", "--q", str(q)] for q in range(0, 17, 2)]
        + [["verify", "Q_BD", "--q", str(q)] for q in range(0, 17)]
        + [["verify", "Q_DD", "--q", str(q)] for q in range(2, 17)]
        + [["lines27", "--parity", parity] for parity in ("even", "odd")]
    )

    def setup(self):
        return None

    def prepare(self, state):
        return state

    def draw(self, rng, state):
        commands = [list(argv) for argv in self.COMMANDS]
        rng.shuffle(commands)
        return commands

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv + ["--json"])
        return code, out.getvalue()

    def check(self, argv, result) -> str:
        code, text = result
        if code != 0:
            return f"exit:{code}"
        try:
            report = json.loads(text)
        except ValueError:
            return "bad_json"
        if argv[0] == "verify":
            return "ok" if report.get("ok") is True else "not_ok"
        good = (report.get("alpha") == {"a": 5, "b": 11}
                and report.get("total") == 27)
        return "ok" if good else "wrong"

    def label(self, argv) -> str:
        return " ".join(argv[:2] if argv[0] == "verify" else argv)


# --------------------------------------------------------------------------
# products: seeded monomial products, rewriting and evaluation
# --------------------------------------------------------------------------

class Products:
    """multiply(u, v) of seeded admissible monomials on eight spaces.

    Each factor takes one or two non-zeta letters (drawn with
    replacement, so squares occur and products reach degree 4) and an
    exponent in {-1, 0, 1} on every zeta letter; a factor that is not
    admissible is redrawn, as the CLI rejects those too.
    """

    batch = 128
    SPACES = (("BU1", None), ("X1q", 16), ("Q_BD", 2), ("Q_BD", 16),
              ("Q_DD", 3), ("Q_DD", 16), ("Q22", None), ("Gr222", None))

    def setup(self):
        return [presentation.load_presentation(name, q) for name, q in self.SPACES]

    def prepare(self, spaces):
        return [(space,
                 [n for n in space.letter_order if n not in cli.ZETA_NAMES],
                 [n for n in space.letter_order if n in cli.ZETA_NAMES])
                for space in spaces]

    @staticmethod
    def _factor(rng, space, letters, zetas):
        while True:
            exps = {}
            for name in rng.choices(letters, k=rng.randint(1, 2)):
                exps[name] = exps.get(name, 0) + 1
            for name in zetas:
                exps[name] = rng.randint(-1, 1)
            mono = space.mono(exps)
            if space.is_admissible(mono):
                return engine.RingElement.from_mono(space, mono)

    def draw(self, rng, prepared):
        items = []
        for _ in range(self.batch):
            space, letters, zetas = rng.choice(prepared)
            items.append((self._factor(rng, space, letters, zetas),
                          self._factor(rng, space, letters, zetas)))
        return items

    def run(self, item):
        return engine.multiply(*item)

    def check(self, item, product) -> str:
        u, v = item
        ru, fu = u.evaluate()
        rv, fv = v.evaluate()
        rp, fp = product.evaluate()
        return "ok" if rp == ru * rv and fp == fu * fv else "wrong"

    def label(self, item) -> str:
        return item[0].space.name


# --------------------------------------------------------------------------
# solve: recovering a drawn class from its evaluation pair
# --------------------------------------------------------------------------

# RO(C2) shifts (one, sigma) that a point-ring scalar can dress a slot by.
_SHIFTS = ((0, 0), (0, 1), (0, 2), (0, 3), (0, -2), (0, -4), (-2, 2), (2, -2))
_KEY_RANGE = range(-4, 5)


class Solve:
    """solve_with_coefficients on seeded combinations of dressed slots.

    BU1 is left out: it has no coset tables.
    """

    batch = 2048
    SPACES = (("X1q", 16), ("Q_BD", 5), ("Q_BD", 16), ("Q_DD", 5),
              ("Q_DD", 16), ("Q22", None), ("Gr222", None))

    def setup(self):
        return [presentation.load_presentation(name, q) for name, q in self.SPACES]

    def prepare(self, spaces):
        """Per space, every coset key in the range with a non-empty table."""
        prepared = []
        for space in spaces:
            keys = []
            for key in itertools.product(_KEY_RANGE,
                                         repeat=len(space.group.labels) - 1):
                try:
                    table = space.coset_basis(key)
                except (ValueError, AssertionError):
                    continue  # no finite table, or not a coset of this space
                if table:
                    keys.append(key)
            prepared.append((space, keys))
        return prepared

    def draw(self, rng, prepared):
        items = []
        for _ in range(self.batch):
            space, keys = rng.choice(prepared)
            table = space.coset_basis(rng.choice(keys))
            shift = space.group.element(*rng.choice(_SHIFTS))
            grading = space.mono_grading(rng.choice(table)) + shift
            slots = []
            for mono in table:
                gap = grading - space.mono_grading(mono)
                dressed = scalar_dressing(gap.to_ro_c2())
                if dressed is not None:
                    slots.append((mono, *dressed))
            terms = {}
            while not terms:
                for mono, template, domain in slots:
                    coeff = BurnsideScalar(
                        rng.randint(-3, 3),
                        rng.randint(-3, 3) if domain == "burnside" else 0)
                    if coeff:
                        terms[mono] = template.scale(coeff)
            element = engine.RingElement(space, grading, terms)
            rho, fix = element.evaluate()
            items.append((element, rho, fix))
        return items

    def run(self, item):
        element, rho, fix = item
        return engine.solve_with_coefficients(element.space, element.grading,
                                              rho, fix)

    def check(self, item, result) -> str:
        element, rho, fix = item
        solved, _, ambiguous = result
        if solved.evaluate() != (rho, fix):
            return "wrong_evaluation"
        if not ambiguous and solved != element:
            return "wrong_element"
        return "ok"

    def label(self, item) -> str:
        return item[0].space.name


WORKLOADS = {"reproduce": Reproduce, "products": Products, "solve": Solve}
