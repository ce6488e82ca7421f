"""Surface syntax and subcommands: parse, print, run, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quadrics
from quadrics.burnside import BurnsideScalar
from quadrics.cli import Expression, ParseError, parse, parse_nonequiv, run
from quadrics.nonequiv import NonequivClass, TruncatedRing
from quadrics.presentation import load_presentation
from quadrics.scalars import PointScalar

B = BurnsideScalar


# --- expression parsing ---

def test_parse_scalars():
    assert parse("1").terms == ((PointScalar.integer(1), ()),)
    assert parse("-3").terms == ((PointScalar.integer(-3), ()),)
    assert parse("g").terms == ((PointScalar.from_burnside(B(0, 1)), ()),)
    assert parse("kappa").terms == ((PointScalar.from_burnside(B(2, -1)), ()),)
    assert parse("e^3").terms == ((PointScalar.e_power(3), ()),)
    assert parse("xi^2").terms == ((PointScalar.xi_power(2), ()),)
    assert parse("tau4").terms == ((PointScalar.tau_power(2), ()),)


def test_parse_divided_kappa():
    k1 = PointScalar.kappa_negative(1)
    assert parse("kappa*e^-2").terms == ((k1, ()),)
    assert parse("e^-2*kappa").terms == ((k1, ()),)
    # dividing twice deepens the class, and the square doubles it
    assert parse("kappa*e^-4").terms == ((PointScalar.kappa_negative(2), ()),)
    sq = parse("(kappa*e^-2)^2").terms
    assert sq == ((PointScalar.kappa_negative(2) + PointScalar.kappa_negative(2), ()),)


def test_parse_monomials_and_precedence():
    e = parse("2*z00^-3*x + e^2*divq")
    assert str(e) == "2*z00^-3*x + e^2*divq"
    e2 = parse("(5+11*g)*x")
    assert e2.terms == ((PointScalar.from_burnside(B(5, 11)), (("x", 1),)),)
    # subtraction binds termwise
    e3 = parse("x - e^2*divq")
    assert str(e3) == "x - e^2*divq"


def test_parse_q_binding():
    assert parse("cxw^q", q=3) == parse("cxw^3")
    assert parse("z00^-q", q=2) == parse("z00^-2")
    with pytest.raises(ParseError, match="not bound"):
        parse("cxw^q")


def test_parse_errors_carry_columns():
    with pytest.raises(ParseError) as info:
        parse("x*(1+")
    assert "column 6" in str(info.value)
    with pytest.raises(ParseError):
        parse("x^")
    with pytest.raises(ParseError):
        parse("^2")
    with pytest.raises(ParseError):
        parse("e^-3")  # negative euler powers must pair with kappa
    with pytest.raises(ParseError):
        parse("x^-1")  # only component classes admit negative powers


def test_a_negative_e_power_error_points_at_its_e(capsys):
    text = "((3)*e^1*cxw^2)*((-2)*kappa*e^-4*z0^-2*cw^1*cxw^1)"
    assert text.index("e^-4") + 1 == 29
    assert run(["nf", "X1q", "--q", "3", text]) == 2
    assert capsys.readouterr().err == (
        "parse error: negative e-powers must pair up evenly (column 29)\n")
    # the term's first e^-k, not the first column of the expression
    with pytest.raises(ParseError, match=r"needs a kappa factor in the same term \(column 5\)"):
        parse("x - e^-2*e^-4*x")


def test_to_element_validates_letters_and_admissibility():
    bd2 = load_presentation("Q_BD", 2)
    el = parse("x + e^2*divq").to_element(bd2)
    assert str(el) == "e^2*divq + x"
    with pytest.raises(ValueError, match="not a generator"):
        parse("cl*x").to_element(bd2)
    with pytest.raises(ValueError, match="not admissible"):
        parse("z00^-1").to_element(bd2)


def test_parse_nonequiv():
    ring = TruncatedRing.even_quadric(2)
    cls = parse_nonequiv("27*c^2*y", ring)
    assert cls == 27 * NonequivClass.from_exponents(ring, (2, 1))
    assert parse_nonequiv("0", ring) == NonequivClass.zero(ring)
    with pytest.raises(ParseError):
        parse_nonequiv("w^2", ring)


def test_evaluation_targets_share_the_expression_grammar():
    ring = TruncatedRing.odd_quadric(2)
    c = NonequivClass.from_exponents(ring, (1, 0))
    y = NonequivClass.from_exponents(ring, (0, 1))
    assert parse_nonequiv("(c - 1 + 1)^2*3 - y*c", ring) == 3 * c * c - c * y
    assert parse_nonequiv("c^q", ring, q=3) == c * c * c
    for text in ("e*y", "g*y", "2 + kappa"):
        with pytest.raises(ParseError, match="is not an integer"):
            parse_nonequiv(text, ring)
    with pytest.raises(ParseError, match="only allowed on zeta names"):
        parse_nonequiv("y^-1", ring)


def test_generated_expressions_round_trip():
    rng = random.Random(23)
    scalars = [
        PointScalar.integer(4), PointScalar.from_burnside(B(5, 11)),
        PointScalar.from_burnside(B(0, 1)), PointScalar.e_power(3),
        PointScalar.xi_power(2), PointScalar.tau_power(1),
        PointScalar.kappa_negative(1), -PointScalar.e_power(1),
    ]
    names = ("z00", "z11", "z1", "cw", "cxw", "x", "xp", "divq")
    for _ in range(120):
        terms = []
        for _ in range(rng.randint(1, 3)):
            picked = rng.sample(names, rng.randint(0, 2))
            mono = tuple((n, rng.choice([1, 2, -1]) if n.startswith("z")
                          else rng.randint(1, 2))
                         for n in sorted(picked, key=names.index))
            terms.append((rng.choice(scalars), mono))
        expr = Expression(terms)
        assert parse(str(expr)) == expr, str(expr)


def test_monomials_keep_their_written_letter_order():
    text = "tau4*cxl*xp^2 + e^2*z0^-1"
    expr = parse(text)
    assert expr.terms[0][1] == (("cxl", 1), ("xp", 2))
    assert str(expr) == text
    assert parse(str(expr)) == expr


# --- subcommands ---

def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_text_output(capsys):
    code, out, _ = invoke(capsys, "nf", "Q22", "x*x")
    assert code == 0
    assert out == "e^2*x\nrho: 0\nfix: 0; 1; 0; 1\n"


def test_nf_json_output(capsys):
    code, out, _ = invoke(capsys, "nf", "Q22", "x*x", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "quadrics/nf/1", "space": "Q22", "q": None,
        "input": "x*x", "normal_form": "e^2*x",
        "rho": "0", "fix": ["0", "1", "0", "1"],
    }


def test_nf_binds_q_exponents(capsys):
    code, out, _ = invoke(capsys, "nf", "X1q", "--q", "2", "e^2*(cxw^q)")
    assert code == 0
    assert out.splitlines()[0] == "e^2*cxw^2"
    code, _, err = invoke(capsys, "nf", "BU1", "e^2*(cxw^q)")
    assert code == 2
    assert "q is not bound" in err


def test_nf_reads_every_letter_of_the_space(capsys):
    # the companion section classes of the four-point quadric
    for expr in ("x0*x", "x1*x2"):
        code, out, _ = invoke(capsys, "nf", "Q22", expr)
        assert code == 0, expr
        assert out.splitlines()[0] == "0"
    code, _, err = invoke(capsys, "nf", "Q22", "foo*x")
    assert code == 2
    assert "'foo' is not a generator of Q22" in err


def test_nf_error_exit_codes(capsys):
    assert invoke(capsys, "nf", "Q_BD", "--q", "2", "x*(1+")[0] == 2
    assert invoke(capsys, "nf", "Q_BD", "--q", "2", "cl*x")[0] == 2
    assert invoke(capsys, "nf", "Q_BD", "x")[0] == 2  # missing q
    assert invoke(capsys, "nf", "Q22", "--q", "1", "x")[0] == 2


def test_nf_rejects_a_divided_class_that_cannot_exist(capsys):
    # cw restricts to c on component 0 of BU1, so z0^-1*cw is no class
    code, out, err = invoke(capsys, "nf", "BU1", "z0^-1*cw")
    assert (code, out) == (2, "")
    for part in ("z0^-1*cw", "2s - 2W0", "BU1", "not admissible"):
        assert part in err


def test_nf_past_the_bu1_window_fails_loudly(capsys):
    # c^40 is not 0 in H*(BU1); the evaluation window stops at c^31
    for expr in ("cw^40", "cw^20*cxw^20"):
        code, out, err = invoke(capsys, "nf", "BU1", expr)
        assert (code, out) == (1, ""), expr
        assert "poly-window: c^40 lies past the window c^0..c^31" in err
    code, out, _ = invoke(capsys, "nf", "BU1", "cw^31")
    assert (code, out) == (0, "cw^31\nrho: c^31\nfix: c^31; 1\n")


def test_verify_text_output(capsys):
    code, out, _ = invoke(capsys, "verify", "Q_BD", "--q", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok   letter-degrees"
    assert lines[-1] == "Q_BD(q=0): ok (10 checks)"
    assert all(line.startswith("ok   ") for line in lines[:-1])


def test_verify_json_output(capsys):
    code, out, _ = invoke(capsys, "verify", "BU1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "quadrics/verify/1"
    assert doc["ok"] is True and doc["failures"] == []
    assert doc["checks"]["unit:unit-0"] is True


def test_solve_text_output(capsys):
    code, out, _ = invoke(capsys, "solve", "Q_BD", "--q", "2",
                          "--coset", "0,-2", "--rho", "y", "--fix", "0;1;y")
    assert code == 0
    assert out.splitlines() == [
        "x",
        "         0 * e^2 * divq",
        "         1 * 1 * x",
        "         0 * e^-2*kappa * z00*z11*cw*x",
    ]


def test_solve_json_output(capsys):
    code, out, _ = invoke(capsys, "solve", "Q_BD", "--q", "2",
                          "--coset", "0,-2", "--rho", "y", "--fix", "0;1;y",
                          "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "quadrics/solve/1", "space": "Q_BD(q=2)", "q": 2,
        "coset": [0, -2], "degree": {"one": 4, "sigma": 2}, "element": "x",
        "records": [
            {"coefficient": 0, "template": "e^2", "mono": "divq"},
            {"coefficient": {"a": 1, "b": 0}, "template": "1", "mono": "x"},
            {"coefficient": 0, "template": "e^-2*kappa",
             "mono": "z00*z11*cw*x"},
        ],
        "ambiguous": False,
    }


def test_solve_recovers_a_far_q22_slot_without_a_note(capsys):
    # a far coset whose table spans: the answer is unique, with no note
    code, out, _ = invoke(capsys, "solve", "Q22", "--coset=-2,-2,-2",
                          "--rho", "1", "--fix", "0;1;1;1")
    assert code == 0
    assert out.splitlines()[0] == "z00^2"
    assert "note" not in out


def test_solve_degree_flag_and_failure_modes(capsys):
    # all-zero targets cannot pin down a degree within the coset
    code, _, err = invoke(capsys, "solve", "Q_BD", "--q", "2",
                          "--coset", "0,-2", "--rho", "0", "--fix", "0;0;0")
    assert code == 1 and "--degree" in err
    code, out, _ = invoke(capsys, "solve", "Q_BD", "--q", "2",
                          "--coset", "0,-2", "--rho", "0", "--fix", "0;0;0",
                          "--degree", "4,2")
    assert code == 0 and out.splitlines()[0] == "0"
    code, _, err = invoke(capsys, "solve", "Q_BD", "--q", "2",
                          "--coset", "0,-2", "--rho", "y", "--fix", "0;1")
    assert code == 2 and "3 fixed components" in err


def test_solve_rejects_a_malformed_degree(capsys):
    for value in ("1", "1,x", "1,2,3"):
        code, out, err = invoke(capsys, "solve", "Q_BD", "--q", "1",
                                "--coset", "0,0", "--rho", "y",
                                "--fix", "0;1;y", "--degree", value)
        assert (code, out) == (2, ""), value
        assert err == f"error: --degree wants two integers like 2,-1, got {value!r}\n"


def test_solve_rejects_inhomogeneous_targets(capsys):
    code, _, err = invoke(capsys, "solve", "Q_BD", "--q", "3", "--coset", "0,0",
                          "--rho", "2*y - c^3", "--fix", "0;1;y")
    assert code == 2 and "--rho target -c^3 + 2*y is not homogeneous" in err
    code, _, err = invoke(capsys, "solve", "Q_BD", "--q", "2", "--coset", "0,-2",
                          "--rho", "y", "--fix", "0;0;y+c")
    assert code == 2 and "component 1 target c + y is not homogeneous" in err


def test_lines27_text_output(capsys):
    code, out, _ = invoke(capsys, "lines27", "--parity", "even")
    assert code == 0
    assert out.splitlines() == [
        "alpha = 5+11*g   (underlying count 27, fixed count 5)",
        "beta  = 1 on the component-11 ruling",
        "10 conjugate pairs, 6 invariant lines, and the distinguished line "
        "over component 11:",
        "  2*10 + 6 + 1 = 27",
        "class: e^2*z00^-4*cxl*x + (5+11*g)*z00^-3*z11*cl*cxl*x",
    ]


def test_lines27_json_output(capsys):
    code, out, _ = invoke(capsys, "lines27", "--parity", "odd", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": "quadrics/lines27/1", "parity": "odd",
        "alpha": {"a": 5, "b": 11}, "beta": 1,
        "free_pairs": 10, "invariant_lines": 6,
        "fixed_line_component": "00", "total": 27,
    }


def test_module_entry_point_runs_the_cli():
    src = str(Path(quadrics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "quadrics", "lines27", "--json"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["total"] == 27


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # every worker pays for what `import quadrics` loads, and a table solve
    # (the coordinate read of its dual) loads neither fractions nor decimal
    src = str(Path(quadrics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quadrics; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules))); "
         "sp = quadrics.load_presentation('Q_BD', 3); m = sp.mono(z00=1, z11=2, cw=1); "
         "print(quadrics.solve_with_coefficients(sp, sp.mono_grading(m), *sp.eval_mono(m))[0]); "
         "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nz00*z11^2*cw\n[]\n"


def test_unknown_space_is_an_argparse_error(capsys):
    assert invoke(capsys, "nf", "Q_XX", "--q", "1", "x")[0] == 2
    assert invoke(capsys, "verify", "Q_BD", "--q", "1025")[0] == 2
