"""Command-line front end with a small expression language over the rings.

Surface syntax (ASCII throughout; the full token table is in --help):

    expr     :=  ['-'] term (('+' | '-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  atom ['^' exponent]
    atom     :=  '(' expr ')' | integer | name
    exponent :=  ['-'] (integer | 'q')

Scalar names are g, kappa, e, xi and tau2, tau4, ... (the transfers of
the successive invertible classes); integers are Burnside multiples of
1.  Every other name is a letter, and the space the expression is read
in rejects a letter it does not have.  The letters come from the space:
a zeta class z<c> for each fixed component c, Chern classes such as cw
cxw (cl cxl on Gr222), section classes such as x xp (x0 x1 x2 as well
on Q22) and the divided class divq.  Monomials keep their letters in the
order written.  Negative powers are grammatical only on zeta names --
whether a particular power is licensed in a given space is the engine's
admissibility check -- and on e when a kappa factor is present in the
same term (kappa*e^-2k is the k-th divided kappa class).  The exponent
letter q stands for the space parameter bound by --q.

The evaluation targets of solve (--rho, --fix) are read with the same
grammar, as polynomials in the target ring's variables: every term must
have an integer coefficient and non-negative powers of those variables.

Subcommands:

    verify <space> [--q N]                     re-derive the presentation
    nf <space> [--q N] <expr>                  normal form + evaluations
    solve <space> [--q N] --coset m[,n[,p]]
          --rho <expr> --fix <expr;...>        solve for a class from its
                                               evaluation targets
    lines27 [--parity even|odd]                the refined 27-lines count

Exit codes: 0 success, 1 failed verification, unsolvable targets or a
computation that cannot be finished exactly (the rewriting step bound,
BU1's evaluation window c^0..c^31), 2 usage or parse errors.  --json
switches every subcommand to a stable JSON rendering carrying a
versioned "schema" key.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .burnside import BurnsideScalar, UnsolvableError
from .engine import (RingElement, normal_form, render_terms,
                     solve_with_coefficients, verify_presentation)
from .enumerative import PARITIES, euler_sym3
from .nonequiv import NonequivClass, TruncatedRing
from .presentation import (_FAMILIES, SpacePresentation, load_presentation, mono_str,
                           FixedTuple)
from .scalars import ONE, FragmentError, PointScalar

ZETA_NAMES = frozenset(("z00", "z11", "z01", "z10", "z0", "z1"))
SPACES = tuple(_FAMILIES)

_SCALAR_HELP = """\
token           meaning
-----           -------
1, 2, -3, ...   integer multiples of the unit of the Burnside ring
g               the free orbit class, g*g = 2*g
kappa           2 - g; kappa*e^-2k is the k-th divided kappa class
e^k             Euler class of the sign line (degree (0, k))
xi              invertible orientation class (degree (-2, 2))
tau2, tau4, ..  transfers tau(iota^-2), tau(iota^-4), .. (degree (2j, -2j))
q               in exponents: the space parameter bound by --q
other names     letters of the space: zeta classes z<c> (negative powers
                allowed when licensed by a letter in the same monomial),
                Chern classes, section classes and divq
"""


# --------------------------------------------------------------------------
# tokenizing and parsing
# --------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax or identifier error, annotated with a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i + 1))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("name", text[i:j], i + 1))
            i = j
            continue
        if ch in "^*+-()":
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", "", n + 1))
    return tokens


class _Term:
    """One term of a parsed value (a list of terms).  eneg is the e-exponent
    still owed from e^-k factors, resolved against a kappa once the term is
    complete, and column is where the first of those factors stands."""

    __slots__ = ("scalar", "eneg", "mono", "column")

    def __init__(self, scalar: PointScalar, eneg: int, mono: dict[str, int],
                 column: int = 0):
        self.scalar = scalar
        self.eneg = eneg
        self.mono = mono
        self.column = column


def _term_mul(a: _Term, b: _Term, column: int) -> _Term:
    try:
        scalar = a.scalar * b.scalar
    except FragmentError as err:
        raise ParseError(str(err), column) from None
    mono = dict(a.mono)
    for name, exp in b.mono.items():
        mono[name] = mono.get(name, 0) + exp
    return _Term(scalar, a.eneg + b.eneg, mono, a.column if a.eneg else b.column)


def _value_mul(a: list[_Term], b: list[_Term], column: int) -> list[_Term]:
    return [_term_mul(s, t, column) for s in a for t in b]


def _value_pow(value: list[_Term], exponent: int, column: int) -> list[_Term]:
    if exponent < 0:
        raise ParseError("negative powers are only allowed on zeta names "
                         "and on e next to a kappa", column)
    out = [_Term(ONE, 0, {})]
    for _ in range(exponent):
        out = _value_mul(out, value, column)
    return out


def _resolve_eneg(term: _Term) -> PointScalar:
    """Fold owed negative e-powers into the scalar, spending a kappa; an
    error points at the term's first e^-k."""
    scalar, eneg, column = term.scalar, term.eneg, term.column
    if not eneg or not scalar:
        return scalar
    total = scalar.e - eneg
    if total >= 0:
        return PointScalar(scalar.coeff, total, scalar.xi, scalar.tau,
                           scalar.kneg)
    if total % 2:
        raise ParseError("negative e-powers must pair up evenly", column)
    extra = -total // 2
    if scalar.kneg:
        # already a divided kappa class; deepen it
        return PointScalar(scalar.coeff, 0, scalar.xi, scalar.tau,
                           scalar.kneg + extra)
    c = scalar.coeff
    if c.a != -2 * c.b:
        raise ParseError("a negative e-power needs a kappa factor in the "
                         "same term", column)
    # coeff = p * kappa; divide it out and re-attach as e^-2*extra * kappa
    stripped = PointScalar(BurnsideScalar(-c.b, 0), 0, scalar.xi, scalar.tau, 0)
    try:
        return stripped * PointScalar.kappa_negative(extra)
    except FragmentError as err:
        raise ParseError(str(err), column) from None


class _Parser:
    def __init__(self, text: str, q: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.q = q

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> list[_Term]:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self) -> list[_Term]:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = [_Term(-t.scalar, t.eneg, t.mono, t.column) for t in value]
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.take()
            rhs = self.term()
            if op == "-":
                rhs = [_Term(-t.scalar, t.eneg, t.mono, t.column) for t in rhs]
            value = value + rhs
        return value

    def term(self) -> list[_Term]:
        value = self.factor()
        while self.peek()[0] == "*":
            _, _, column = self.take()
            value = _value_mul(value, self.factor(), column)
        return value

    def factor(self) -> list[_Term]:
        kind, text, column = self.take()
        if kind == "(":
            value = self.expr()
            self.expect(")")
            if self.peek()[0] == "^":
                value = _value_pow(value, self.exponent(), column)
            return value
        if kind == "int":
            base = [_Term(PointScalar.from_burnside(
                BurnsideScalar(int(text), 0)), 0, {})]
            if self.peek()[0] == "^":
                return _value_pow(base, self.exponent(), column)
            return base
        if kind == "name":
            exponent = self.exponent() if self.peek()[0] == "^" else None
            return self.named(text, exponent, column)
        raise ParseError(f"unexpected {text!r}", column)

    def exponent(self) -> int:
        self.expect("^")
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        kind, text, column = self.take()
        if kind == "int":
            return sign * int(text)
        if kind == "name" and text == "q":
            if self.q is None:
                raise ParseError("the exponent q is not bound; pass --q",
                                 column)
            return sign * self.q
        raise ParseError("an exponent must be an integer or q", column)

    def named(self, name: str, exponent: int | None, column: int) -> list[_Term]:
        if name == "e":
            exp = 1 if exponent is None else exponent
            if exp >= 0:
                return [_Term(PointScalar.e_power(exp) if exp else ONE, 0, {})]
            return [_Term(ONE, -exp, {}, column)]
        scalar = None
        if name == "g":
            scalar = PointScalar.from_burnside(BurnsideScalar(0, 1))
        elif name == "kappa":
            scalar = PointScalar.from_burnside(BurnsideScalar(2, -1))
        elif name == "xi":
            scalar = PointScalar.xi_power(1)
        elif name.startswith("tau") and name[3:].isdigit():
            weight = int(name[3:])
            if weight % 2 or weight == 0:
                raise ParseError(f"{name!r}: transfers come in even weights "
                                 "tau2, tau4, ...", column)
            scalar = PointScalar.tau_power(weight // 2)
        elif name == "q":
            raise ParseError("q stands only in exponents", column)
        if scalar is None:
            # a letter; the space it is read in checks that it has one
            exp = 1 if exponent is None else exponent
            if exp < 0 and name not in ZETA_NAMES:
                raise ParseError(
                    f"negative powers are only allowed on zeta names, "
                    f"not {name!r}", column)
            return [_Term(ONE, 0, {name: exp} if exp else {})]
        base = [_Term(scalar, 0, {})]
        return base if exponent is None else _value_pow(base, exponent, column)


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------

class Expression:
    """A parsed sum of scalar-dressed monomials, space-independent.

    Adjacent terms over the same monomial merge when their scalars share a
    shape, so a distributed product like (5+11*g)*x comes back as one term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: list[tuple[PointScalar, tuple]] = []
        for scalar, mono in terms:
            mono = tuple(mono)
            if (merged and merged[-1][1] == mono
                    and merged[-1][0].shape() == scalar.shape()):
                merged[-1] = (merged[-1][0] + scalar, mono)
            else:
                merged.append((scalar, mono))
        self.terms = tuple((s, m) for s, m in merged if s)

    def __str__(self):
        return render_terms(self.terms)

    def __eq__(self, other):
        return isinstance(other, Expression) and self.terms == other.terms

    def to_element(self, space: SpacePresentation) -> RingElement:
        if not self.terms:
            raise ValueError("cannot infer the degree of the zero expression")
        return RingElement.from_terms(
            space, [(scalar, space.mono(dict(mono))) for scalar, mono in self.terms])


def parse(text: str, q: int | None = None) -> Expression:
    """Parse surface syntax into an Expression (see module docstring)."""
    raw = _Parser(text, q).parse()
    terms = []
    for term in raw:
        scalar = _resolve_eneg(term)
        if not scalar:
            continue
        mono = tuple((name, exp) for name, exp in term.mono.items() if exp)
        terms.append((scalar, mono))
    return Expression(terms)


def parse_nonequiv(text: str, ring: TruncatedRing,
                   q: int | None = None) -> NonequivClass:
    """Parse an evaluation target: a polynomial in the ring's variables.

    `parse` reads the text; every term must then have an integer scalar
    and only non-negative powers of the ring's variables.
    """
    total = NonequivClass.zero(ring)
    for scalar, mono in parse(text, q).terms:
        exps = dict(mono)
        foreign = [name for name in exps if name not in ring.vars]
        if not scalar.is_burnside() or scalar.coeff.b:
            problem = f"the coefficient {scalar} is not an integer"
        elif foreign:
            problem = (f"unknown variable {foreign[0]!r}; this ring has "
                       f"variables {list(ring.vars) or 'none'}")
        else:
            raw = tuple(exps.get(var, 0) for var in ring.vars)
            total = total + NonequivClass.from_exponents(ring, raw, scalar.coeff.a)
            continue
        column = next((col for kind, name, col in _tokenize(text)
                       if kind == "name" and name not in ring.vars), 1)
        raise ParseError(problem, column)
    return total


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    report = verify_presentation(load_presentation(args.space, args.q))
    if args.json:
        print(json.dumps(report))
    else:
        for name, ok in report["checks"].items():
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
        state = "ok" if report["ok"] else "FAILED"
        print(f"{report['space']}: {state} ({len(report['checks'])} checks)")
    return 0 if report["ok"] else 1


def _cmd_nf(args) -> int:
    space = load_presentation(args.space, args.q)
    element = parse(args.expr, space.q).to_element(space)
    reduced = normal_form(element)
    rho, fix = reduced.evaluate()
    if args.json:
        print(json.dumps({
            "schema": "quadrics/nf/1",
            "space": space.name,
            "q": space.q,
            "input": args.expr,
            "normal_form": str(reduced),
            "rho": str(rho),
            "fix": [str(part) for part in fix.parts],
        }))
    else:
        print(reduced)
        print(f"rho: {rho}")
        print(f"fix: {'; '.join(str(part) for part in fix.parts)}")
    return 0


def _infer_grading(space: SpacePresentation, key: tuple[int, ...],
                   rho: NonequivClass, fix: FixedTuple, degree):
    """Reconstruct the full degree from the coset key and target degrees."""
    labels = space.group.labels
    targets = [("--rho", rho)] + [(f"--fix component {label}", part)
                                  for label, part in zip(labels, fix.parts)]
    for flag, target in targets:
        if target and target.homogeneous_degree() is None:
            raise ValueError(f"the {flag} target {target} is not homogeneous")
    base = -key[-1]
    omega = {labels[0]: base}
    for label, offset in zip(labels[1:], key):
        omega[label] = offset + base
    if degree is not None:
        one, sigma = degree
    else:
        one = None
        for label, part in zip(labels, fix.parts):
            if part:
                one = part.homogeneous_degree() + 2 * omega[label]
                break
        if one is None:
            raise UnsolvableError("every fixed target is zero; pass "
                                  "--degree one,sigma")
        if not rho:
            raise UnsolvableError("the underlying target is zero; pass "
                                  "--degree one,sigma")
        sigma = rho.homogeneous_degree() - one
    grading = space.group.element(one, sigma, omega)
    if grading.coset_key() != tuple(key):
        raise ValueError(f"degree {grading} does not lie over coset {key}")
    return grading


def _cmd_solve(args) -> int:
    space = load_presentation(args.space, args.q)
    try:
        key = tuple(int(part) for part in args.coset.split(","))
    except ValueError:
        raise ValueError(f"--coset wants integers like 1,-2, got "
                         f"{args.coset!r}") from None
    expected = len(space.group.labels) - 1
    if len(key) != expected:
        raise ValueError(f"{space.name} cosets are indexed by {expected} "
                         f"integer(s), got {len(key)}")
    degree = None
    if args.degree:
        try:
            one, sigma = (int(part) for part in args.degree.split(","))
        except ValueError:
            raise ValueError(f"--degree wants two integers like 2,-1, got "
                             f"{args.degree!r}") from None
        degree = (one, sigma)

    rho = parse_nonequiv(args.rho, space.underlying, space.q)
    fix_texts = args.fix.split(";")
    if len(fix_texts) != len(space.fixed_rings):
        raise ValueError(f"{space.name} has {len(space.fixed_rings)} fixed "
                         f"components; --fix wants that many ;-separated "
                         f"expressions, got {len(fix_texts)}")
    fix = FixedTuple(parse_nonequiv(text, ring, space.q)
                     for text, ring in zip(fix_texts, space.fixed_rings))

    grading = _infer_grading(space, key, rho, fix, degree)
    element, records, ambiguous = solve_with_coefficients(
        space, grading, rho, fix)
    if args.json:
        print(json.dumps({
            "schema": "quadrics/solve/1",
            "space": space.name,
            "q": space.q,
            "coset": list(key),
            "degree": {"one": grading.one, "sigma": grading.sigma},
            "element": str(element),
            "records": [
                {"coefficient": ({"a": c.a, "b": c.b}
                                 if isinstance(c, BurnsideScalar) else c),
                 "template": str(t),
                 "mono": mono_str(m)}
                for t, m, c in records],
            "ambiguous": ambiguous,
        }))
    else:
        print(element)
        for template, mono, coeff in records:
            print(f"  {str(coeff):>8s} * {template} * {mono_str(mono)}")
    return 0


def _cmd_lines27(args) -> int:
    result = euler_sym3(args.parity)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(f"alpha = {result.alpha}   (underlying count "
              f"{result.alpha.rho}, fixed count {result.alpha.fix})")
        print(f"beta  = {result.beta} on the component-"
              f"{result.fixed_line_component} ruling")
        print(f"{result.free_pairs} conjugate pairs, "
              f"{result.invariant_lines} invariant lines, and the "
              f"distinguished line over component "
              f"{result.fixed_line_component}:")
        print(f"  2*{result.free_pairs} + {result.invariant_lines} + "
              f"{result.beta} = {result.total}")
        print(f"class: {result.element}")
    return 0


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="quadrics",
        description="Exact equivariant cohomology of the low quadrics.",
        epilog=_SCALAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    parametrized = sorted(name for name, (lo, _, _) in _FAMILIES.items()
                          if lo is not None)

    def space_args(p):
        p.add_argument("space", choices=SPACES,
                       help="one of " + ", ".join(SPACES))
        p.add_argument("--q", type=int, default=None,
                       help="bundle parameter for the parametrized families "
                       f"({', '.join(parametrized)})")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output with a schema key")

    p = sub.add_parser("verify",
                       help="re-derive everything a presentation asserts")
    space_args(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("nf", help="normal form and evaluations")
    space_args(p)
    p.add_argument("expr", help="expression in the surface syntax")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("solve",
                       help="recover a class from its evaluation targets")
    space_args(p)
    p.add_argument("--coset", required=True, metavar="m[,n[,p]]",
                   help="integer coset key, comma-separated")
    p.add_argument("--rho", required=True,
                   help="underlying target (variables of the underlying ring)")
    p.add_argument("--fix", required=True,
                   help="fixed targets, one per component, ;-separated")
    p.add_argument("--degree", default=None, metavar="one,sigma",
                   help="full degree when the targets do not determine it")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lines27", help="the refined 27-lines count")
    p.add_argument("--parity", choices=PARITIES, default="even")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lines27)
    return top


def run(argv=None) -> int:
    """Run one command line; returns the exit code instead of exiting."""
    parser = _build_argparser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (UnsolvableError, FragmentError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
