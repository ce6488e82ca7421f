"""Standing answers: what a change that claims to keep every answer must keep.

`data/golden_answers.json` holds, byte for byte, the `--json` output of
`verify` on the 52 spaces up to q = 16 and of `lines27` for
both parities, the printed element, records and ambiguity flag of 256
seeded coefficient solves drawn through the public API, per space one
sha256 over the printed coset tables and section families on a key grid,
and under "text" the plain (non-`--json`) output of `lines27`, of `nf` on
seeded expressions and of `solve` on a handful of cosets, exit codes and
error messages included.  The q grid is written out, so raising MAX_Q
changes none of it.

Regenerate the file only from a commit whose answers are known good:

    PYTHONPATH=src python tests/test_golden_answers.py --regenerate

It prints each entry that changed, as "section key: old -> new", before it
writes, so a change can show which answers moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

from quadrics import (BurnsideScalar, RingElement, load_presentation,
                      mono_str, run, scalar_dressing, solve_with_coefficients)

DATA = Path(__file__).parent / "data" / "golden_answers.json"

VERIFY_SPACES = (
    [("BU1", None), ("Q22", None), ("Gr222", None)]
    + [("X1q", q) for q in range(17)]
    + [("Q_BD", q) for q in range(17)]
    + [("Q_DD", q) for q in range(2, 17)]
)
SOLVE_SPACES = (("X1q", 5), ("Q_BD", 2), ("Q_BD", 7), ("Q_DD", 4), ("Q_DD", 9),
                ("Q22", None), ("Gr222", None))
# RO(C2) shifts (one, sigma): every kind of point-ring dressing, and none
SHIFTS = ((0, 0), (0, 1), (0, 3), (0, -2), (0, -4), (2, -2), (-2, 2), (1, 0))
SOLVE_SEED, SOLVE_COUNT = 2024, 256
# coset keys per key width: [-7, 7] per component, [-4, 4] on Q22's three
TABLE_KEYS = {1: range(-7, 8), 2: range(-7, 8), 3: range(-4, 5)}
NF_SPACES = (("X1q", 3), ("Q_BD", 0), ("Q_BD", 2), ("Q_BD", 5), ("Q_DD", 3),
             ("Q_DD", 4), ("Q22", None), ("Gr222", None))
NF_SEED, NF_COUNT = 2025, 64
SOLVE_ARGV = (
    ["Q_BD", "--q", "2", "--coset", "0,-2", "--rho", "y", "--fix", "0;1;y"],
    ["Q_BD", "--q", "2", "--coset", "0,-2", "--rho", "0", "--fix", "0;0;0",
     "--degree", "4,2"],
    ["Q_DD", "--q", "3", "--coset", "0,-2", "--rho", "0", "--fix", "1;3;c^2 + 2*y",
     "--degree", "4,2"],
    ["X1q", "--q", "3", "--coset", "0", "--rho", "7*c^3", "--fix", "0;3*c^2"],
    ["Gr222", "--coset", "0,-2", "--rho=-c^2", "--fix", "3;1;4*x1*x2"],
    ["Q22", "--coset=0,0,0", "--rho", "3*x1 - x2", "--fix", "0;2;1;3"],
    ["Q22", "--coset=-2,-2,-2", "--rho", "1", "--fix", "0;1;1;1"],
    ["Q22", "--coset=-1,1,0", "--rho", "x1", "--fix", "0;0;1;0"],
    ["Q_BD", "--q", "3", "--coset", "0,0", "--rho", "2*y - c^3", "--fix", "0;1;y"],
    # table solves that fail: inconsistent, a key off the degree's
    # columns, and no integer point on four spaces
    ["Q_BD", "--q", "2", "--coset", "0,0", "--rho", "2*c", "--fix", "0;0;1", "--degree", "2,0"],
    ["Q_BD", "--q", "2", "--coset", "0,0", "--rho", "c^2", "--fix", "0;0;0", "--degree", "2,0"],
    ["Q_BD", "--q", "2", "--coset", "0,0", "--rho", "c", "--fix", "0;0;0", "--degree", "2,0"],
    ["Q_DD", "--q", "3", "--coset", "0,0", "--rho", "c", "--fix", "0;0;0", "--degree", "2,0"],
    ["X1q", "--q", "4", "--coset", "0", "--rho", "3*c", "--fix", "0;c"],
    ["Gr222", "--coset", "0,0", "--rho", "c", "--fix", "0;0;0", "--degree", "2,0"],
)


def _cli_json(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(argv + ["--json"])
    return out.getvalue()


def _verify_argv(name: str, q: int | None) -> list[str]:
    return ["verify", name] + ([] if q is None else ["--q", str(q)])


def _cli_text(argv: list[str]) -> str:
    """The exit code, stdout and stderr of one plain command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def verify_answers() -> dict[str, str]:
    return {" ".join(argv): _cli_json(argv)
            for argv in (_verify_argv(name, q) for name, q in VERIFY_SPACES)}


def lines27_answers() -> dict[str, str]:
    return {parity: _cli_json(["lines27", "--parity", parity])
            for parity in ("even", "odd")}


def solve_answers() -> list[dict]:
    """Seeded combinations of dressed table slots, solved from their evaluations."""
    rng = random.Random(SOLVE_SEED)
    per_space = []
    for name, q in SOLVE_SPACES:
        space, tables = load_presentation(name, q), []
        for key in itertools.product(range(-3, 4), repeat=len(space.group.labels) - 1):
            try:
                table = space.coset_basis(key)
            except (ValueError, AssertionError):
                continue  # no finite table, or not a coset of this space
            if table:
                tables.append(table)
        per_space.append((space, tables))
    answers = []
    for _ in range(SOLVE_COUNT):
        space, tables = rng.choice(per_space)
        table = rng.choice(tables)
        grading = space.mono_grading(rng.choice(table)) + space.group.element(*rng.choice(SHIFTS))
        terms = {}
        for mono in table:
            dressed = scalar_dressing((grading - space.mono_grading(mono)).to_ro_c2())
            if dressed is None:
                continue
            template, domain = dressed
            coeff = BurnsideScalar(rng.randint(-3, 3),
                                   rng.randint(-3, 3) if domain == "burnside" else 0)
            if coeff:
                terms[mono] = template.scale(coeff)
        drawn = RingElement(space, grading, terms)
        element, records, ambiguous = solve_with_coefficients(space, grading, *drawn.evaluate())
        answers.append({
            "space": space.name,
            "degree": str(grading),
            "drawn": str(drawn),
            "element": str(element),
            "records": [f"{coeff} * {template} * {mono_str(mono)}"
                        for template, mono, coeff in records],
            "ambiguous": ambiguous,
        })
    return answers


def _dressed_text(degree: tuple[int, int], a: int, b: int) -> str | None:
    """A point-ring scalar of the given RO(C2) degree in the surface syntax,
    written out by hand so that the inputs do not depend on the printer."""
    dressed = scalar_dressing(degree)
    if dressed is None:
        return None
    template, domain = dressed
    coeff = f"({a}{b:+d}*g)" if domain == "burnside" else f"({a})"
    parts = [coeff]
    if template.e:
        parts.append(f"e^{template.e}")
    if template.xi:
        parts.append(f"xi^{template.xi}")
    if template.tau:
        parts.append(f"tau{2 * template.tau}")
    if template.kneg:
        parts.append(f"kappa*e^-{2 * template.kneg}")
    return "*".join(parts)


def _mono_text(mono) -> str:
    return "*".join(f"{name}^{exp}" for name, exp in mono) or "1"


def nf_expressions() -> list[list[str]]:
    """Seeded nf command lines: dressed sums over one table, and products of
    two dressed slots of two tables, which the rewriting reduces."""
    rng = random.Random(NF_SEED)
    per_space = []
    for name, q in NF_SPACES:
        space, tables = load_presentation(name, q), []
        for key in itertools.product(range(-2, 3), repeat=len(space.group.labels) - 1):
            try:
                table = space.coset_basis(key)
            except (ValueError, AssertionError):
                continue
            if table:
                tables.append(table)
        per_space.append((name, q, space, tables))

    def coeff(shift):
        return _dressed_text(shift, rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3))

    argvs = []
    while len(argvs) < NF_COUNT:
        name, q, space, tables = rng.choice(per_space)
        if len(argvs) % 2:
            shifts = [rng.choice(SHIFTS[:6]) for _ in range(2)]
            monos = [rng.choice(rng.choice(tables)) for _ in range(2)]
            terms = [f"({coeff(shift)}*{_mono_text(mono)})"
                     for shift, mono in zip(shifts, monos)]
            expr = "*".join(terms)
        else:
            table = rng.choice(tables)
            grading = (space.mono_grading(rng.choice(table))
                       + space.group.element(*rng.choice(SHIFTS)))
            terms = []
            for mono in rng.sample(table, min(3, len(table))):
                dressed = coeff((grading - space.mono_grading(mono)).to_ro_c2())
                if dressed is not None:
                    terms.append(f"{dressed}*{_mono_text(mono)}")
            expr = " + ".join(terms)
        if terms:
            argvs.append(["nf", name] + ([] if q is None else ["--q", str(q)]) + [expr])
    return argvs


def text_answers() -> dict[str, str]:
    argvs = ([["lines27", "--parity", parity] for parity in ("even", "odd")]
             + nf_expressions() + [["solve", *argv] for argv in SOLVE_ARGV])
    return {" ".join(argv): _cli_text(argv) for argv in argvs}


def _printed_query(query, key) -> str:
    """One coset_table or section_family answer: its slots and degrees, or the
    type of the error it raises."""
    try:
        monos, degrees = query(key)
    except (ValueError, AssertionError) as err:
        return type(err).__name__
    return " ".join(map(mono_str, monos)) + f" {degrees}"


def table_answers() -> dict[str, str]:
    """Per space, a sha256 over every table and section family on the key
    grid, and on one key too wide and one too narrow."""
    answers = {}
    for name, q in VERIFY_SPACES:
        space = load_presentation(name, q)
        width = len(space.group.labels) - 1
        keys = [*itertools.product(TABLE_KEYS[width], repeat=width),
                (0,) * (width + 1), (0,) * (width - 1)]
        digest = hashlib.sha256()
        for key in keys:
            for query in (space.coset_table, space.section_family):
                digest.update(f"{key} {query.__name__}: {_printed_query(query, key)}\n"
                              .encode())
        answers[" ".join(_verify_argv(name, q)[1:])] = digest.hexdigest()
    return answers


def _golden() -> dict:
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_verify_answers_are_unchanged():
    golden = _golden()["verify"]
    assert len(golden) == len(VERIFY_SPACES) == 52
    assert verify_answers() == golden


def test_lines27_answers_are_unchanged():
    assert lines27_answers() == _golden()["lines27"]


def test_seeded_solves_are_unchanged():
    golden = _golden()["solve"]
    assert len(golden) == SOLVE_COUNT
    assert solve_answers() == golden


def test_coset_tables_and_section_families_are_unchanged():
    golden = _golden()["tables"]
    assert len(golden) == len(VERIFY_SPACES)
    assert table_answers() == golden


def test_plain_text_outputs_are_unchanged():
    golden = _golden()["text"]
    assert len(golden) == 2 + NF_COUNT + len(SOLVE_ARGV)
    assert text_answers() == golden


def changed_entries(old: dict, new: dict) -> list[str]:
    """One line per entry that differs, as "section key: old -> new"; a
    missing entry reads None, and a list section is keyed by index."""
    lines = []
    for section in dict.fromkeys([*old, *new]):
        before, after = (dict(enumerate(part)) if isinstance(part, list) else part
                         for part in (old.get(section, {}), new.get(section, {})))
        for key in dict.fromkeys([*before, *after]):
            if before.get(key) != after.get(key):
                lines.append(f"{section} {key!r}: {before.get(key)!r} -> {after.get(key)!r}")
    return lines


def test_regeneration_names_each_changed_entry():
    old = {"text": {"a": "exit 0", "b": "exit 1"}, "solve": [{"x": 1}]}
    new = {"text": {"a": "exit 0", "b": "exit 0"}, "solve": [{"x": 1}, {"x": 2}]}
    assert changed_entries(old, new) == ["text 'b': 'exit 1' -> 'exit 0'",
                                         "solve 1: None -> {'x': 2}"]
    assert changed_entries(new, new) == []


def regenerate() -> None:
    """Print each entry that changes, then rewrite the file."""
    data = {"verify": verify_answers(), "lines27": lines27_answers(),
            "solve": solve_answers(), "tables": table_answers(),
            "text": text_answers()}
    for line in changed_entries(_golden() if DATA.exists() else {}, data):
        print(line)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    regenerate()
