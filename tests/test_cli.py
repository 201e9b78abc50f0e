"""CLI verbs, exit codes, JSON stability, file format round trips."""

import cmath
import json
import random
import re
import runpy
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flagdual import (DecoratedComplex, Decoration, Flag, FlagTuple,
                      FormalSum, GaussRational, IdealTriangulation, Mat3,
                      ProjPoint1, TetraCoords, complete_from_minimal,
                      dual_coords_matrix, dump_complex, edge_coords,
                      load_complex, normalize_prime, normalize_to_standard,
                      read_complex, reconstruct, restrict_to_p1,
                      write_complex)
from flagdual.bundled import (cr_complex, figure_eight_complex,
                              single_tetra_triangulation,
                              twisted_double_complex,
                              twisted_double_triangulation)
from flagdual.cli import main
from flagdual import cli, errors
from flagdual.errors import FlagdualError, ParseError
from flagdual.projective import vcross
from flagdual.scalars import exactify
from flagdual.tetra import face_class

from helpers import (EXACT_MINIMAL, FLOAT_MINIMAL, flagged_double,
                     fuzz_documents, mutate_json)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- file format ------------------------------------------------------------------

def test_dump_load_round_trip_exact():
    tdc = twisted_double_complex()
    data = dump_complex(tdc)
    again = load_complex(data)
    assert again.decoration.exact
    for a, b in zip(tdc.coords, again.coords):
        assert a.same_as(b)
    assert len(again.triangulation.pairings) == 4


def test_load_backend_exact_rejects_float_file():
    dc = figure_eight_complex()
    data = dump_complex(dc)
    with pytest.raises(ParseError):
        load_complex(data, backend="exact")


def test_load_backend_float_coerces_exact_file():
    tdc = twisted_double_complex()
    dc = load_complex(dump_complex(tdc), backend="float")
    assert not dc.decoration.exact


def test_write_read_file(tmp_path):
    path = tmp_path / "k.json"
    dc = figure_eight_complex()
    write_complex(path, dc)
    again = read_complex(path)
    for a, b in zip(dc.coords, again.coords):
        # JSON floats round-trip exactly in Python: bit equality holds
        assert a.same_as(b, tol=0.0)


def _scalars(dc, keep_flags):
    """Every coordinate, and every flag entry when the file keeps flags;
    floats as the hex of both parts, so equal means bit-identical."""
    values = [v for c in dc.coords for v in (*c.edge.values(),
                                             *c.face.values())]
    if keep_flags:
        values += [v for t in dc.decoration.flag_tuples
                   for f in t for v in (*f.point, *f.line)]
    return [v if isinstance(v, GaussRational)
            else (complex(v).real.hex(), complex(v).imag.hex())
            for v in values]


@settings(max_examples=60, deadline=None)
@given(st.one_of(EXACT_MINIMAL, FLOAT_MINIMAL), st.booleans())
def test_file_round_trip_property(minimal, keep_flags):
    # dump -> JSON text -> load, on random exact and float decorations,
    # in coords and in flags mode
    try:
        dc = flagged_double(minimal) if keep_flags \
            else twisted_double_complex(minimal)
    except FlagdualError:
        assume(False)
    text = json.dumps(dump_complex(dc, keep_flags))
    again = load_complex(json.loads(text))
    assert again.decoration.exact == dc.decoration.exact
    assert again.triangulation.pairings == dc.triangulation.pairings
    assert _scalars(again, keep_flags) == _scalars(dc, keep_flags)
    assert json.dumps(dump_complex(again, keep_flags)) == text


def test_written_tetrahedra_load_at_extreme_scales():
    # one minimal coordinate of modulus 1e-12 to 1e101: loading checks
    # the vertex relations in the direction the library derives them,
    # so nothing it writes is refused for cancellation in 1 - 1/z
    rng = random.Random(63)
    tri = single_tetra_triangulation()
    for exponent in (-12, -11, 10, 11, 12, 30, 100):
        for _ in range(20):
            minimal = [cmath.rect(10 ** rng.uniform(-1, 1),
                                  rng.uniform(-3.14, 3.14)) for _ in range(4)]
            minimal[rng.randrange(4)] = cmath.rect(
                10 ** (exponent + rng.random()), rng.uniform(-3.14, 3.14))
            dc = DecoratedComplex(
                tri, Decoration([complete_from_minimal(minimal)]))
            again = load_complex(dump_complex(dc))
            assert _scalars(again, False) == _scalars(dc, False)
    huge = figure_eight_complex(cmath.rect(1e100, 1.0))
    again = load_complex(dump_complex(huge))
    assert _scalars(again, False) == _scalars(huge, False)


def test_malformed_file_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"tetrahedra\": 1}")
    with pytest.raises(ParseError):
        read_complex(path)
    path.write_text("not json")
    with pytest.raises(ParseError):
        read_complex(path)


# -- CLI ---------------------------------------------------------------------------

def test_example_check_volume_flow(tmp_path, capsys):
    f = str(tmp_path / "fig8.json")
    code, out, _ = run_cli(capsys, "example", "figure8", "-o", f)
    assert code == 0
    code, out, _ = run_cli(capsys, "check", f, "--tolerance", "1e-12")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(capsys, "volume", f, "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["volume"] - 2.029883212819307) < 1e-9


def test_dualize_volume_and_defect(tmp_path, capsys):
    f = str(tmp_path / "fig8.json")
    g = str(tmp_path / "dual.json")
    run_cli(capsys, "example", "figure8", "-o", f)
    code, _, _ = run_cli(capsys, "dualize", f, "-o", g)
    assert code == 0
    _, out1, _ = run_cli(capsys, "volume", f, "--json")
    _, out2, _ = run_cli(capsys, "volume", g, "--json")
    v1 = json.loads(out1)["volume"]
    v2 = json.loads(out2)["volume"]
    assert abs(v1 - v2) < 1e-9
    code, out, _ = run_cli(capsys, "defect", f, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["canonicalized"] == []
    assert abs(payload["D"]) < 1e-9


def test_conjugate_negates_volume_via_cli(tmp_path, capsys):
    f = str(tmp_path / "fig8.json")
    g = str(tmp_path / "conj.json")
    run_cli(capsys, "example", "figure8", "-o", f)
    code, _, _ = run_cli(capsys, "conjugate", f, "-o", g)
    assert code == 0
    _, out1, _ = run_cli(capsys, "volume", f, "--json")
    _, out2, _ = run_cli(capsys, "volume", g, "--json")
    assert abs(json.loads(out1)["volume"]
               + json.loads(out2)["volume"]) < 1e-12


def test_exact_dualize_round_trip_bytes(tmp_path, capsys):
    f = str(tmp_path / "double.json")
    d1 = str(tmp_path / "dual1.json")
    d2 = str(tmp_path / "dual2.json")
    run_cli(capsys, "example", "double", "-o", f)
    code, _, _ = run_cli(capsys, "dualize", f, "--backend", "exact", "-o", d1)
    assert code == 0
    code, _, _ = run_cli(capsys, "dualize", d1, "--backend", "exact", "-o", d2)
    assert code == 0
    original = open(f).read()
    twice = open(d2).read()
    assert original == twice


def test_json_outputs_are_byte_stable(tmp_path, capsys):
    f = str(tmp_path / "fig8.json")
    run_cli(capsys, "example", "figure8", "-o", f)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "check", f, "--json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "beta", f, "--json")
        outs.append(out)
    assert outs[0] == outs[1]


def test_backend_exact_rejects_float_input_exit_1(tmp_path, capsys):
    f = str(tmp_path / "fig8.json")
    run_cli(capsys, "example", "figure8", "-o", f)
    code, _, err = run_cli(capsys, "check", f, "--backend", "exact")
    assert code == 1
    assert "error" in err


def test_domain_error_exit_2_names_location(tmp_path, capsys):
    # decoration with a face coordinate -1: dualize must refuse
    from flagdual import DecoratedComplex, Decoration, complete_from_minimal
    from flagdual.bundled import single_tetra_triangulation
    bad = complete_from_minimal((GaussRational(2), GaussRational(3),
                                 GaussRational(-4), GaussRational(5)))
    dc = DecoratedComplex(single_tetra_triangulation(), Decoration([bad]))
    f = tmp_path / "bad.json"
    write_complex(f, dc)
    code, _, err = run_cli(capsys, "dualize", str(f))
    assert code == 2
    assert "tetrahedron 0" in err


def test_solver_failure_exit_3(tmp_path, capsys):
    from flagdual import DecoratedComplex, Decoration, complete_from_minimal
    from flagdual.bundled import single_tetra_triangulation
    c = complete_from_minimal((0.5 + 0j,) * 4)
    dc = DecoratedComplex(single_tetra_triangulation(), Decoration([c]))
    f = tmp_path / "stuck.json"
    write_complex(f, dc)
    code, _, err = run_cli(capsys, "solve", str(f))
    assert code == 3
    assert "error" in err


def test_solve_cli_on_perturbed_input(tmp_path, capsys):
    import numpy as np
    from flagdual.solver import complex_from_vector, minimal_vector
    dc = figure_eight_complex()
    rng = np.random.default_rng(3)
    m = minimal_vector(dc)
    noise = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    start = complex_from_vector(dc, m * (1 + 1e-3 * noise))
    f = tmp_path / "start.json"
    out_f = str(tmp_path / "solved.json")
    write_complex(f, start)
    code, out, _ = run_cli(capsys, "solve", str(f), "--tolerance", "1e-12",
                           "--json", "-o", out_f)
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] < 1e-12
    code, _, _ = run_cli(capsys, "check", out_f, "--tolerance", "1e-11")
    assert code == 0


def test_cr_example_and_coords_verb(tmp_path, capsys):
    f = str(tmp_path / "cr.json")
    code, _, _ = run_cli(capsys, "example", "cr", "-o", f)
    assert code == 0
    data = json.loads(open(f).read())
    assert data["decoration"]["mode"] == "flags"
    code, out, _ = run_cli(capsys, "coords", f)
    assert code == 0
    payload = json.loads(out)
    assert payload["decoration"]["mode"] == "coords"
    # an unglued CR tetrahedron fails the consistency equations
    code, _, _ = run_cli(capsys, "check", f)
    assert code == 2


def test_hyperbolic_example_with_exact_param(tmp_path, capsys):
    f = str(tmp_path / "hyp.json")
    code, _, _ = run_cli(capsys, "example", "hyperbolic",
                         "--param", "1/2+1/3*i", "-o", f)
    assert code == 0
    code, out, _ = run_cli(capsys, "beta", f, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["beta"] == [{"coeff": 4, "gen": "1/2+1/3*i"}]


def test_parse_error_exit_1(tmp_path, capsys):
    f = tmp_path / "garbage.json"
    f.write_text("{]")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 1
    code, _, err = run_cli(capsys, "volume", str(tmp_path / "missing.json"))
    assert code == 1
    # structurally broken coordinate records are parse errors too
    f.write_text(json.dumps({
        "tetrahedra": 1, "pairings": [],
        "decoration": {"mode": "coords",
                       "data": [{"edges": {"12": "2"}, "faces": {}}]}}))
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 1


def test_corrupted_coordinates_are_domain_errors(tmp_path, capsys):
    # structurally complete but violating the vertex relations: exit 2
    dc = figure_eight_complex()
    data = json.loads(json.dumps(__import__("flagdual").dump_complex(dc)))
    data["decoration"]["data"][0]["edges"]["13"] = [5.0, 5.0]
    f = tmp_path / "corrupt.json"
    f.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 2
    assert "vertex relation" in err


def test_loader_errors_name_the_tetrahedron(tmp_path, capsys):
    f = tmp_path / "bad.json"

    def check_fails(data):
        f.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "check", str(f))
        return code, err

    fig8 = json.loads(json.dumps(dump_complex(figure_eight_complex())))
    fig8["decoration"]["data"][1]["edges"]["13"] = [5.0, 5.0]
    assert check_fails(fig8) == (
        2, "error: tetrahedron 1: vertex relation broken: "
           "z13 != 1/(1-z12)\n")

    fig8 = json.loads(json.dumps(dump_complex(figure_eight_complex())))
    del fig8["decoration"]["data"][1]["faces"]["243"]
    assert check_fails(fig8) == (
        1, 'error: decoration.data[1].faces: expected the keys '
           '["123", "243", "134", "142"], got ["123", "134", "142"]\n')

    double = dump_complex(flagged_double(), keep_flags=True)
    # still incident, but the first line now passes through x4
    double["decoration"]["data"][1][0]["line"] = ["1", "0", "-1"]
    assert check_fails(double) == (
        2, "error: tetrahedron 1: pairing f1(x4) vanishes\n")


def test_malformed_flag_records_are_parse_errors(tmp_path, capsys):
    f = tmp_path / "bad.json"

    def check_fails(data):
        f.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "check", str(f))
        return code, err

    double = dump_complex(flagged_double(), keep_flags=True)
    double["decoration"]["data"][1][2]["point"] = ["1", "0"]
    code, err = check_fails(double)
    assert code == 1
    assert err == ('error: decoration.data[1][2].point: expected a list of '
                   '3 scalars, got ["1", "0"]\n')

    double = dump_complex(flagged_double(), keep_flags=True)
    double["decoration"]["data"][1] = 5
    assert check_fails(double) == (
        1, "error: decoration.data[1]: expected a list of 4 flags, got 5\n")


EXPECTED_EXIT = {"ParseError": 1, "SolverDiverged": 3, "LeftDomain": 3}
ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, FlagdualError)),
    key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_package_error_exits_with_its_code(cls, capsys, monkeypatch):
    def fail(args):
        raise cls("boom")
    monkeypatch.setitem(cli._COMMANDS, "volume", fail)
    code, out, err = run_cli(capsys, "volume", "unused.json")
    assert code == cls.exit_code == EXPECTED_EXIT.get(cls.__name__, 2)
    assert (out, err) == ("", "error: boom\n")


# a parse error names the JSON path of the bad node, or the unreadable file
_NAMED_PARSE_ERROR = re.compile(
    r"error: (cannot read |(top level|tetrahedra|pairings|decoration)"
    r"[\w\[\].]*: )")


def test_mutated_files_exit_cleanly(tmp_path, capsys):
    # one or two nodes of a bundled file replaced by junk: every case
    # ends in exit 0, 1 or 2, never in a traceback
    rng = random.Random(20)
    docs = fuzz_documents()
    f = tmp_path / "mutant.json"
    for _ in range(300):
        name = rng.choice(sorted(docs))
        data = mutate_json(rng, docs[name], rng.randint(1, 2))
        verb = rng.choice(("check", "volume", "dualize", "beta", "defect"))
        f.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, verb, str(f))
        assert code in (0, 1, 2), (name, verb, data)
        if code == 1:
            assert _NAMED_PARSE_ERROR.match(err), err


def _fig8_doc():
    return json.loads(json.dumps(dump_complex(figure_eight_complex())))


def _cr_doc():
    return dump_complex(cr_complex(), keep_flags=True)


def _rename_key(mapping, old, new):
    mapping[new] = mapping.pop(old)


LOOSE_INPUTS = {
    "count-float": (_fig8_doc, lambda d: d.update(tetrahedra=2.9),
                    "tetrahedra"),
    "count-string": (_fig8_doc, lambda d: d.update(tetrahedra="2"),
                     "tetrahedra"),
    "count-bool": (_cr_doc, lambda d: d.update(tetrahedra=True),
                   "tetrahedra"),
    "edge-key-213": (_fig8_doc, lambda d: _rename_key(
        d["decoration"]["data"][0]["edges"], "21", "213"),
        "decoration.data[0].edges"),
    "unknown-face-key": (_fig8_doc, lambda d: d["decoration"]["data"][0][
        "faces"].update({"231": [1.0, 0.0]}), "decoration.data[0].faces"),
    "point-object": (_cr_doc, lambda d: d["decoration"]["data"][0][0].update(
        point={"a": 1}), "decoration.data[0][0].point"),
    "point-string": (_cr_doc, lambda d: d["decoration"]["data"][0][0].update(
        point="abc"), "decoration.data[0][0].point"),
    "point-bool-pair": (_cr_doc, lambda d: d["decoration"]["data"][0][0][
        "point"].__setitem__(0, [True, False]),
        "decoration.data[0][0].point[0]"),
}


@pytest.mark.parametrize("case", sorted(LOOSE_INPUTS))
def test_loader_rejects_loose_inputs(case, tmp_path, capsys):
    make, mutate, path = LOOSE_INPUTS[case]
    data = make()
    mutate(data)
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "volume", str(f))
    assert code == 1
    assert err.startswith(f"error: {path}: ")


def test_mixed_backend_records_are_domain_errors(tmp_path, capsys):
    # an exact literal in a float record exits 2, in coords as in flags
    f = tmp_path / "mixed.json"
    data = _fig8_doc()
    data["decoration"]["data"][0]["edges"]["12"] = "2"
    f.write_text(json.dumps(data))
    assert run_cli(capsys, "check", str(f)) == (
        2, "", "error: tetrahedron 0: mixed exact/float tetra coordinates\n")
    data = _cr_doc()
    data["decoration"]["data"][0][0]["point"][0] = "1"
    f.write_text(json.dumps(data))
    assert run_cli(capsys, "check", str(f)) == (
        2, "", "error: tetrahedron 0: mixed exact/float flag coordinates\n")


def _beyond_float_docs():
    """z12 = 10^400 on tetrahedron 0, as an exact literal and as a JSON
    integer; the decoration is inconsistent, and real, so D is 0."""
    big = 10 ** 400
    literal = dump_complex(DecoratedComplex(
        twisted_double_triangulation(),
        Decoration([complete_from_minimal((big, 3, 5, 7)),
                    complete_from_minimal((2, 3, 5, 7))])))
    integer = json.loads(json.dumps(literal))
    integer["decoration"]["data"][0]["edges"]["12"] = big
    return {"literal": literal, "integer": integer}


@pytest.mark.parametrize("backend", ("auto", "exact", "float"))
@pytest.mark.parametrize("verb", ("check", "volume", "beta", "defect",
                                  "coords", "dualize", "conjugate", "solve"))
def test_values_beyond_the_float_range_exit_cleanly(verb, backend, tmp_path,
                                                    capsys):
    # an OverflowError would escape main() and fail the test itself; the
    # float backend rejects the saturated value at load, by name
    f = tmp_path / "big.json"
    for name, data in _beyond_float_docs().items():
        f.write_text(json.dumps(data))
        for as_json in ((), ("--json",)):
            code, out, err = run_cli(capsys, verb, str(f),
                                     "--backend", backend, *as_json)
            case = (name, as_json)
            if backend == "float":
                assert (code, out, err) == (
                    2, "", "error: tetrahedron 0: edge coordinate "
                           "z12 = (inf+0j) is not finite\n"), case
                continue
            assert "Traceback" not in err, case
            assert code == (2 if verb in ("check", "solve") else 0), case
            if verb == "check" and not as_json:
                assert "max residual inf " in out, case
            if verb == "check" and as_json:
                report = json.loads(out)
                assert not report["pass"], case
                assert report["faces"]["max_residual"] == float("inf"), case
            if verb in ("volume", "beta", "defect") and as_json:
                assert json.loads(out)["volume" if verb == "volume"
                                       else "D"] == 0.0, case


UNREAD_OPTIONS = [
    ("example", "--backend", "exact"), ("example", "--tolerance", "1e-3"),
    *[(verb, "--tolerance", "1e-3")
      for verb in ("coords", "dualize", "conjugate")],
    ("check", "-o", "out.json"),
    *[(verb, option, value) for verb in ("beta", "volume", "defect")
      for option, value in (("--tolerance", "1e-3"), ("-o", "out.json"))],
]


@pytest.mark.parametrize("verb,option,value", UNREAD_OPTIONS)
def test_each_verb_takes_only_the_options_it_reads(verb, option, value,
                                                   tmp_path, capsys):
    f = tmp_path / "fig8.json"
    write_complex(f, figure_eight_complex())
    target = "figure8" if verb == "example" else str(f)
    if option == "-o":
        value = str(tmp_path / value)
    with pytest.raises(SystemExit) as exc:
        main([verb, target, option, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb,value", [
    ("check", "nan"), ("check", "-1"), ("check", "inf"), ("check", "0"),
    ("solve", "-1"), ("solve", "nan"), ("solve", "inf")])
def test_tolerance_must_be_finite_and_positive(verb, value, tmp_path,
                                               capsys):
    f = tmp_path / "fig8.json"
    write_complex(f, figure_eight_complex())
    with pytest.raises(SystemExit) as exc:
        main([verb, str(f), "--tolerance", value])
    assert exc.value.code == 2
    assert "argument --tolerance: must be a finite positive number" \
        in capsys.readouterr().err


def test_malformed_pairings_are_parse_errors_naming_the_pairing(
        tmp_path, capsys):
    f = tmp_path / "bad.json"
    for key, junk in (("faceA", 5), ("map", [[2, 2, 2]]), ("tetB", "1"),
                      ("faceB", [2, None, 4])):
        data = dump_complex(figure_eight_complex())
        data["pairings"][3][key] = junk
        f.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "check", str(f))
        assert code == 1
        assert err.startswith(f"error: pairings[3].{key}")



def _double_dual_beyond_the_digit_limit():
    """A twisted double with 1,400-digit minimal parts: its longest part
    has 4,198 digits, so it loads, but its dual has longer parts."""
    big = 10 ** 1399
    return json.dumps(dump_complex(twisted_double_complex((
        GaussRational(big + 1, 1), GaussRational(2 * big + 7),
        GaussRational(3, 2), GaussRational(5, 1))))).encode()


def _flagged_double_with_huge_faces():
    """A twisted double written as flags with 1,500-digit minimal parts:
    its flags load, but its measured faces have about 4,500 digits."""
    big = 10 ** 1499
    dc = flagged_double((GaussRational(big + 1, 1), GaussRational(2 * big + 7),
                         GaussRational(3, 2), GaussRational(5, 1)))
    return json.dumps(dump_complex(dc, keep_flags=True)).encode()


def _tetrahedron_with_huge_edges():
    """One tetrahedron of seeded real flags with 900-digit entries: they
    load, but its edge coordinates have more than 4,300 digits."""
    rng = random.Random(5)

    def flag():
        x, r = ([GaussRational(rng.randrange(10 ** 899, 10 ** 900))
                 for _ in range(3)] for _ in range(2))
        return Flag(x, vcross(x, r))

    dc = DecoratedComplex(single_tetra_triangulation(), Decoration.from_flags(
        [FlagTuple([flag() for _ in range(4)])]))
    return json.dumps(dump_complex(dc, keep_flags=True)).encode()


def _double_with_edge_12(literal):
    doc = dump_complex(twisted_double_complex())
    doc["decoration"]["data"][0]["edges"]["12"] = literal
    return json.dumps(doc).encode()


# name -> the bytes of an input file, which argv names as {name}
CLI_INPUTS = {
    "fig8": lambda: json.dumps(dump_complex(figure_eight_complex())).encode(),
    "long_literal": lambda: _double_with_edge_12("1" * 5001),
    "long_int": lambda: b'{"tetrahedra": ' + b"7" * 5000 + b"}",
    "latin1": lambda: b'{"t\xe9trahedra": 2}',
    "deep": lambda: b"[" * 100_000 + b"]" * 100_000,
    "long_dual": _double_dual_beyond_the_digit_limit,
    "huge_faces": _flagged_double_with_huge_faces,
    "huge_edges": _tetrahedron_with_huge_edges,
}
_CANNOT_READ = r"^error: cannot read \S+\.json: [^\n]+\n$"
_DIGIT_LIMIT = r"^error: cannot write an exact part of more than \d+ digits\n$"

# name -> (argv, exit code, stdout and stderr patterns); {tmp} is the
# test's directory
CLI_PATHS = {
    "complex-param": (["example", "hyperbolic", "--param", "1+2j", "--json"],
                      0, r'^\{"complex": .*"12": \[1\.0, 2\.0\]', r"^$"),
    "unparseable-param": (["example", "hyperbolic", "--param", "zz"], 1,
                          r"^$", r"^error: cannot parse shape parameter "
                                 r"'zz'\n$"),
    "param-split-by-a-space": (
        ["example", "hyperbolic", "--param", "1 2j"], 1, r"^$",
        r"^error: cannot parse shape parameter '1 2j'\n$"),
    "tolerance-not-a-number": (
        ["check", "{fig8}", "--tolerance", "abc"], 2, r"^$",
        r"argument --tolerance: must be a finite positive number: 'abc'\n$"),
    "solve-notes-beside-wrote": (
        ["solve", "{fig8}", "-o", "{tmp}/solved.json"], 0,
        r"^iterations: 0\nresidual: \S+\nwrote \S+solved\.json\n$", r"^$"),
    "solve-notes-on-stderr": (
        ["solve", "{fig8}"], 0, r'^\{\n "tetrahedra": 2',
        r"^iterations: 0\nresidual: \S+\n$"),
    "output-into-missing-directory": (
        ["example", "figure8", "-o", "{tmp}/missing/out.json"], 1, r"^$",
        r"^error: \[Errno 2\] No such file or directory: \S+\n$"),
    # Python's 4,300-digit limit on int <-> str, and unreadable text
    "literal-beyond-the-digit-limit": (
        ["volume", "{long_literal}"], 1, r"^$",
        r"^error: decoration\.data\[0\]\.edges\.12: '1{56}\.\.\. has a "
        r"part of more than \d+ digits\n$"),
    "json-int-beyond-the-digit-limit": (
        ["volume", "{long_int}"], 1, r"^$", _CANNOT_READ),
    "not-utf-8": (["check", "{latin1}"], 1, r"^$", _CANNOT_READ),
    "nested-beyond-the-recursion-limit": (
        ["beta", "{deep}"], 1, r"^$", _CANNOT_READ),
    "param-beyond-the-digit-limit": (
        ["example", "hyperbolic", "--param", "9" * 5000], 1, r"^$",
        r"^error: '9{56}\.\.\. has a part of more than \d+ digits\n$"),
    "param-with-zero-denominator": (
        ["example", "hyperbolic", "--param", "1/0"], 1, r"^$",
        r"^error: zero denominator: '1/0'\n$"),
    "dual-beyond-the-digit-limit": (
        ["dualize", "{long_dual}", "-o", "{tmp}/out.json"], 2, r"^$",
        r"^error: cannot write an exact part of more than \d+ digits\n$"),
    # text output names the same limit as --json, with nothing printed
    "defect-text-beyond-the-digit-limit": (
        ["defect", "{huge_faces}"], 2, r"^$",
        r"^error: cannot write an exact part of more than \d+ digits\n$"),
    "defect-json-beyond-the-digit-limit": (
        ["defect", "{huge_faces}", "--json"], 2, r"^$",
        r"^error: cannot write an exact part of more than \d+ digits\n$"),
    **{f"{verb}-{mode}-beyond-the-digit-limit": (
        [verb, "{huge_faces}", *flag], 2, r"^$", _DIGIT_LIMIT)
       for verb in ("coords", "conjugate", "dualize")
       for mode, flag in (("text", []), ("json", ["--json"]))},
    # the minimal edges, all that beta writes, are within the limit
    "beta-text-faces-beyond-the-digit-limit": (
        ["beta", "{huge_faces}"], 0,
        r"^beta\(K,z\) = \[1/2\d+.*\nVol = D/4 = \S+\n$", r"^$"),
    "beta-json-faces-beyond-the-digit-limit": (
        ["beta", "{huge_faces}", "--json"], 0,
        r'^\{"beta": \[\{"coeff": 1, .*"volume": \S+\}\n$', r"^$"),
    "beta-text-beyond-the-digit-limit": (
        ["beta", "{huge_edges}"], 2, r"^$", _DIGIT_LIMIT),
    "beta-json-beyond-the-digit-limit": (
        ["beta", "{huge_edges}", "--json"], 2, r"^$", _DIGIT_LIMIT),
}


def test_module_entry_point_exits_with_the_verb_status(monkeypatch, capsys):
    # python -m flagdual.cli, run in this process; the module is run
    # afresh, as the interpreter would, and put back afterwards
    monkeypatch.delitem(sys.modules, "flagdual.cli")
    monkeypatch.setattr(sys, "argv", ["flagdual", "example", "hyperbolic",
                                      "--param", "zz"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("flagdual.cli", run_name="__main__")
    assert exc.value.code == 1
    assert capsys.readouterr().err == \
        "error: cannot parse shape parameter 'zz'\n"


@pytest.mark.parametrize("case", sorted(CLI_PATHS))
def test_cli_paths_exit_and_report(case, tmp_path, capsys):
    argv, code, out_pattern, err_pattern = CLI_PATHS[case]
    paths = {name: tmp_path / f"{name}.json" for name in CLI_INPUTS}
    argv = [a.format(tmp=tmp_path, **paths) for a in argv]
    inputs = {path for path in paths.values() if str(path) in argv}
    for name, path in paths.items():
        if path in inputs:
            path.write_bytes(CLI_INPUTS[name]())
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage error
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert re.search(out_pattern, out, re.S), out
    assert re.search(err_pattern, err, re.S), err
    if code:  # a failed verb leaves no file behind
        assert set(tmp_path.iterdir()) == inputs


def _cr_flag_with(key, value):
    doc = _cr_doc()
    doc["decoration"]["data"][0][0][key] = value
    return doc


def _double_with_huge_incidence():
    # entries of 2,201 digits: f(x) has more than int's 4,300-digit limit
    doc = dump_complex(flagged_double(), keep_flags=True)
    big = str(10 ** 2200 + 1)
    doc["decoration"]["data"][0][0].update(point=[big, "1", "0"],
                                            line=[big, "0", "0"])
    return doc


def _double_with_face_123(literal):
    doc = dump_complex(twisted_double_complex())
    doc["decoration"]["data"][0]["faces"]["123"] = literal
    return doc


def _fig8_with_map(entries):
    doc = _fig8_doc()
    doc["pairings"][0]["map"] = entries  # faceA (2, 4, 3), faceB (2, 3, 4)
    return doc


# name -> (where the input comes from, what makes it, the error class
# and message); a "file" case writes the document for `check` to read
INPUT_CHECKS = {
    "zero-flag-point": ("file", lambda: _cr_flag_with(
        "point", [[0.0, 0.0]] * 3), errors.DegenerateInput,
        "tetrahedron 0: flag point is the zero triple"),
    "zero-flag-line": ("file", lambda: _cr_flag_with(
        "line", [[0.0, 0.0]] * 3), errors.DegenerateInput,
        "tetrahedron 0: flag line is the zero triple"),
    "huge-broken-incidence": ("file", _double_with_huge_incidence,
                              errors.DegenerateInput,
                              "tetrahedron 0: flag incidence violated: "
                              "f(x) = ~1.00000000000E+4400"),
    "zero-face": ("file", lambda: _double_with_face_123("0"),
                  errors.OutOfDomain,
                  "tetrahedron 0: face coordinate (1, 2, 3) is zero"),
    "map-out-of-order": ("file", lambda: _fig8_with_map(
        [[2, 3], [4, 2], [3, 4]]), errors.MalformedPairing,
        "faceB (2, 3, 4) is not the ordered image (3, 2, 4) of faceA "
        "under the map"),
    "unknown-backend": ("call", lambda: load_complex(_fig8_doc(), "quad"),
                        errors.ParseError, "unknown backend 'quad'"),
    "negative-count": ("call", lambda: IdealTriangulation(-1, []),
                       errors.MalformedPairing, "negative tetrahedron count"),
    "mixed-decoration": ("call", lambda: Decoration([
        complete_from_minimal((2, 3, 5, 7)),
        complete_from_minimal((2.0, 3, 5, 7))]), errors.BackendMismatch,
        "decoration mixes exact and float tetrahedra"),
    "not-very-generic-flags": ("call", lambda: dual_coords_matrix(
        reconstruct((2, 3, -4, 5))), errors.NotVeryGeneric,
        "flag tuple is not very generic"),
    "float-in-gauss-rational": ("call", lambda: GaussRational(1.5),
                                errors.BackendMismatch,
                                "cannot combine exact scalar with float"),
    "float-coefficient": ("call", lambda: FormalSum([(2, 1.5)]), TypeError,
                          "coefficient 1.5 is not an integer"),
    "zero-homogeneous-pair": ("call", lambda: ProjPoint1(0, 0),
                              errors.DegenerateInput,
                              "homogeneous pair (0, 0)"),
    "float-exactified": ("call", lambda: exactify(1.5),
                         errors.BackendMismatch, "not an exact scalar: 1.5"),
    "flag-of-a-pair": ("call", lambda: Flag((1, 0), (0, 1, 0)), ValueError,
                       "flag needs two triples"),
    "three-points-to-the-frame": ("call", lambda: normalize_to_standard(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), errors.DegenerateInput,
        "need exactly four points"),
    "not-a-face": ("call", lambda: face_class(1, 1, 2), ValueError,
                   "not a face triple: (1, 1, 2)"),
    "eleven-edges": ("call", lambda: TetraCoords(
        dict(list(complete_from_minimal((2, 3, 5, 7)).edge.items())[1:]),
        {}), ValueError, "need exactly the 12 oriented edges"),
    "three-flag-tetrahedron": ("call", lambda: edge_coords(
        FlagTuple(reconstruct((2, 3, 5, 7))[:3])), errors.DegenerateInput,
        "edge_coords needs exactly four flags"),
    "matrix-of-2x2": ("call", lambda: Mat3([[1, 0], [0, 1]]), ValueError,
                      "Mat3 needs 3x3 entries"),
    "one-point-on-a-line": ("call", lambda: restrict_to_p1([(1, 0, 0)]),
                            errors.DegenerateInput,
                            "need at least two points"),
    "coincident-basis-points": ("call", lambda: restrict_to_p1(
        [(1, 2, 3), (2, 4, 6)]), errors.DegenerateInput,
        "basis points of the line coincide"),
    "decoration-of-the-wrong-size": ("call", lambda: DecoratedComplex(
        twisted_double_triangulation(),
        Decoration([complete_from_minimal((2, 3, 5, 7))])), ValueError,
        "decoration has 1 tetrahedra, triangulation has 2"),
    "zero-gaussian-prime": ("call", lambda: normalize_prime((0, 0)),
                            ValueError, "zero is not normalizable"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks_raise_their_error(case, tmp_path, capsys):
    source, make, error, message = INPUT_CHECKS[case]
    if source == "file":
        f = tmp_path / "in.json"
        f.write_text(json.dumps(make()))
        assert run_cli(capsys, "check", str(f)) == (
            error.exit_code, "", f"error: {message}\n")
    else:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()
