import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from celint import cli, verify
from celint.chow import parse_class
from celint.exactnum import RF_M, rational_poles, rf
from celint.exprparse import parse_rf
from celint.modelfile import load_model
from celint.celestial import integrate_class
from celint.verify import CheckReport

from conftest import FIXTURES, Overrun, mutate, read_fixture, time_limit


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_integrate_plane_line(capsys):
    code, out, err = run_cli(capsys, "integrate", fixture("p2_line.json"))
    assert code == 0
    assert out == "[V] + (5/2)*h + 2*h^2\n"
    assert err == ""


def test_integrate_flop_symbolic_and_evaluated(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", fixture("flop.json"), "--manifest", "toX"
    )
    assert code == 0
    assert out == (
        "[X] + (3 + 2*m)/(1 + m)*[D]"
        " + (8 + 10*m + 3*m^2)/(1 + 2*m + m^2)*[L]"
        " + (6 + 5*m + m^2)/(1 + 2*m + m^2)*[p]\n"
    )
    code, out, _ = run_cli(
        capsys, "integrate", fixture("flop.json"),
        "--manifest", "toX", "--eval", "m=0",
    )
    assert code == 0
    assert out == "[X] + 3*[D] + 8*[L] + 6*[p]\n"
    code, out, _ = run_cli(
        capsys, "integrate", fixture("flop.json"),
        "--manifest", "toX", "--eval", "m=-2",
    )
    assert code == 0
    assert out == "[X] + [D]\n"


def test_integrate_selection_override(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", fixture("p2_line.json"), "--selection", "empty"
    )
    assert code == 0
    assert out == "0\n"
    code, whole, _ = run_cli(
        capsys, "integrate", fixture("p2_line.json"), "--selection", "whole"
    )
    assert whole == "[V] + (5/2)*h + 2*h^2\n"
    code, out, _ = run_cli(
        capsys, "integrate", fixture("p2_line.json"),
        "--selection", "strata:D;()",
    )
    assert out == whole


def test_degree_conic(capsys):
    code, out, _ = run_cli(capsys, "degree", fixture("conic.json"))
    assert code == 0
    assert out == "(3 + m)/(1 + m)\n"
    code, out, _ = run_cli(
        capsys, "degree", fixture("conic.json"), "--eval", "m=0"
    )
    assert out == "3\n"


def test_zeta_cusp(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", fixture("cusp.json"), "--degree"
    )
    assert code == 0
    assert out == "(15 + 6*m)/(5 + 6*m)\npoles: -5/6\n"
    code, out, _ = run_cli(
        capsys, "zeta", fixture("cusp.json"), "--degree", "--eval", "m=1"
    )
    assert out == "21/11\n"


def test_large_euler_table_key_is_not_expanded(tmp_path, capsys):
    # one key of 16 names has 65,536 subsets; summing over them took
    # minutes, while the sum over the table's keys takes milliseconds
    names = [f"N{i}" for i in range(16)]
    decomps = {n: (1 + i % 3, i % 4) for i, n in enumerate(names)}
    table = {"": 5, ",".join(names): 1, "N0": 2, "N1,N2": -1, "N3,N7,N11": 3}
    path = tmp_path / "key16.json"
    path.write_text(json.dumps({
        "components": [{"name": n, "mult": {"a": a, "k": k}}
                       for n, (a, k) in decomps.items()],
        "chi_closed": table,
    }))
    x = {n: rf(1) / (rf(1 + k) + rf(a) * RF_M) - rf(1)
         for n, (a, k) in decomps.items()}

    def product(key):
        out = rf(1)
        for name in key:
            out = out * x[name]
        return out

    keys = {frozenset(k.split(",")) if k else frozenset(): chi
            for k, chi in table.items()}
    core = {"N0", "N5"}
    whole = sum((rf(chi) * product(key) for key, chi in keys.items()), rf(0))
    closed = sum((rf(chi) * (product(key) - rf((-1) ** len(key & core))
                             * product(key - core))
                  for key, chi in keys.items()), rf(0))
    for argv, want in (
        (["degree", path], whole.render() + "\n"),
        (["zeta", path, "--degree"],
         f"{whole.render()}\npoles: {rational_poles(whole).render()}\n"),
        (["degree", path, "--selection", "closed:N0,N5"], closed.render() + "\n"),
    ):
        start = time.process_time()
        try:
            with time_limit(5):
                code, out, err = run_cli(capsys, *argv)
        except Overrun:
            pytest.fail(f"{argv[0]} ran past 5 s")
        # CPU time, so that a loaded machine does not fail the bound
        assert time.process_time() - start < 1
        assert (code, out, err) == (0, want, "")


def test_csm_cusp(capsys):
    code, out, _ = run_cli(
        capsys, "csm", fixture("csm_cusp.json"), "--manifest", "toP2"
    )
    assert code == 0
    assert out == "3*h + 2*h^2\n"


def test_stringy_flop(capsys):
    code, out, _ = run_cli(
        capsys, "stringy", fixture("flop_stringy.json"), "--manifest", "toX"
    )
    assert code == 0
    assert out == "[X] + 3*[D] + 8*[L] + 6*[p]\n"


def test_ix_cone(capsys):
    code, out, _ = run_cli(capsys, "ix", fixture("ix_cone.json"))
    assert code == 0
    assert out == (
        "X_off_D: 1\n"
        "D1_off: 1/(1 + m)\n"
        "D2_off: 1/(1 + m)\n"
        "line_off_v: 1/(1 + 2*m + m^2)\n"
        "v: (2 + m)/(1 + 2*m + m^2)\n"
    )


def test_ix_selection_restriction(capsys):
    code, out, _ = run_cli(
        capsys, "ix", fixture("idsex.json"), "--selection", "closed:D"
    )
    assert code == 0
    assert out == "X_off_D: 0\nD: 1/(1 + m)\n"


def test_ring_description(capsys):
    code, out, _ = run_cli(capsys, "ring", fixture("chern_p2.json"))
    assert code == 0
    assert out == (
        "dimension 2\n"
        "codim 0: [V]\n"
        "codim 1: h\n"
        "codim 2: h^2\n"
        "tangent chern: [V] + 3*h + 3*h^2\n"
        "point class: h^2\n"
    )


def test_json_round_trip_class(capsys):
    code, out, _ = run_cli(
        capsys, "integrate", fixture("cusp.json"), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    model = load_model(read_fixture("cusp.json"))
    direct = integrate_class(model.config, model.selection)
    rebuilt = model.ring.zero()
    for name, text in payload["coefficients"].items():
        rebuilt = rebuilt + model.ring.basis_class(name).scale(parse_rf(text))
    assert rebuilt == direct
    assert payload["rendered"] == direct.render()
    assert parse_rf(payload["degree"]) == direct.degree()


def test_json_round_trip_value(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", fixture("cusp.json"), "--degree", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poles"] == "-5/6"
    model = load_model(read_fixture("cusp.json"))
    from celint.celestial import zeta_degree

    value, _ = zeta_degree(model.degree_data, model.selection)
    assert parse_rf(payload["value"]) == value


def test_text_output_deterministic(capsys):
    first = run_cli(
        capsys, "integrate", fixture("cusp.json"), "--manifest", "toP2"
    )
    second = run_cli(
        capsys, "integrate", fixture("cusp.json"), "--manifest", "toP2"
    )
    assert first == second
    assert first[0] == 0


def test_exit_one_on_pole(capsys):
    code, out, err = run_cli(
        capsys, "integrate", fixture("flop.json"), "--eval", "m=-1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: PoleError:")
    code, _, err = run_cli(
        capsys, "zeta", fixture("cusp.json"), "--degree", "--eval", "m=-5/6"
    )
    assert code == 1
    assert err.startswith("error: PoleError:")


def test_exit_two_on_bad_input(tmp_path, capsys):
    code, _, err = run_cli(capsys, "integrate", tmp_path / "missing.json")
    assert code == 2
    assert err.startswith("error: SchemaError:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "integrate", bad)
    assert code == 2
    assert "not valid JSON" in err

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({
        "ring": {"catalog": "projective", "n": 2},
        "components": [{"name": "D", "mult": 1}],
    }))
    code, _, err = run_cli(capsys, "integrate", schema)
    assert code == 2
    assert "missing its class" in err

    code, _, err = run_cli(
        capsys, "integrate", fixture("p2_line.json"), "--manifest", "nope"
    )
    assert code == 2
    assert "unknown chain" in err

    code, _, err = run_cli(
        capsys, "integrate", fixture("p2_line.json"), "--selection", "closed:X"
    )
    assert code == 2


def test_exit_three_on_verification_failure(monkeypatch, capsys):
    def broken(rng):
        return CheckReport("key", False, "a", "b", "forced failure")

    monkeypatch.setitem(verify.SUITES, "key", broken)
    code, out, _ = run_cli(
        capsys, "verify", "key", "--instances", "2", "--seed", "7"
    )
    assert code == 3
    assert "[FAIL] key: forced failure" in out
    assert "suite key: 0/2 passed (seed 7)" in out


def test_verify_text_prints_both_sides_of_a_failure(monkeypatch, capsys):
    seeds = iter(range(2))

    def half_broken(rng):
        passed = next(seeds) == 0
        return CheckReport("key", passed, "lhs side", "rhs side", "ctx")

    monkeypatch.setitem(verify.SUITES, "key", half_broken)
    code, out, _ = run_cli(
        capsys, "verify", "key", "--instances", "2", "--seed", "7"
    )
    assert code == 3
    lines = out.splitlines()
    fail = next(i for i, line in enumerate(lines) if line.startswith("[FAIL]"))
    assert lines[fail + 1:fail + 3] == ["  lhs: lhs side", "  rhs: rhs side"]
    passing = next(i for i, line in enumerate(lines) if line.startswith("[pass]"))
    assert not lines[passing + 1].startswith("  lhs:")


def test_verify_text_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "key", "--instances", "2", "--seed", "7"
    )
    assert code == 0
    assert "suite key: 2/2 passed (seed 7)" in out
    code, out, _ = run_cli(
        capsys, "verify", "key",
        "--instances", "2", "--seed", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    assert payload["suites"]["key"]["checks"] == 2
    assert payload["suites"]["key"]["passed"] == 2
    code, out, _ = run_cli(capsys, "verify", "key", "--instances", "1")
    assert code == 0
    assert f"suite key: 1/1 passed (seed {verify.DEFAULT_SEED})" in out


def test_cli_loads_verify_only_for_its_verb():
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        "import sys, celint.cli\n"
        "assert 'celint.verify' not in sys.modules, 'celint.cli loaded verify'\n"
        "from celint import verify\n"
        "assert verify.run_suite('key', 1, 5)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


MODULES = sorted(p.stem for p in Path(cli.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", f"import celint.{module}"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_package_root_re_exports_nothing():
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        "import types, celint\n"
        "names = [n for n in vars(celint) if not n.startswith('_')]\n"
        "assert all(isinstance(getattr(celint, n), types.ModuleType)"
        " for n in names), names\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_facades_keep_only_the_names_the_benchmark_reads():
    from celint import catalog, chow, model, modelfile

    def borrowed(module, owner):
        return sorted(name for name, value in vars(module).items()
                      if getattr(value, "__module__", None) == owner.__name__)

    assert borrowed(chow, catalog) == ["ring_blowup_point"]
    assert borrowed(model, modelfile) == ["load_model", "load_ring"]
    tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    assert functions
    for fn in functions:
        assert not [n for n in ast.walk(fn)
                    if isinstance(n, (ast.Import, ast.ImportFrom))], fn.name


BENCHMARK_IMPORTS = """
import ast, importlib, sys
from pathlib import Path

bench = Path(sys.argv[1])
for path in sorted(bench.glob("*.py")):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "celint":
            owner = importlib.import_module(module)
            for alias in node.names:
                if not hasattr(owner, alias.name):
                    importlib.import_module(f"{module}.{alias.name}")
sys.path.insert(0, str(bench))
from spans import Tracer

tracer = Tracer()
tracer.install()
tracer.uninstall()
"""


def test_benchmark_finds_every_name_it_imports():
    # reads the benchmark's sources and changes nothing there
    src = Path(cli.__file__).resolve().parent.parent
    bench = src.parent / "perfbench"
    proc = subprocess.run([sys.executable, "-c", BENCHMARK_IMPORTS, str(bench)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus", "--instances", "1")
    assert code == 2
    assert "unknown suite" in err


def test_warning_reaches_stderr(tmp_path, capsys):
    formal = tmp_path / "formal.json"
    formal.write_text(json.dumps({
        "ring": {"catalog": "projective", "n": 2},
        "components": [{"name": "D", "class": "h", "mult": -2}],
    }))
    code, out, err = run_cli(capsys, "integrate", formal)
    assert code == 0
    assert out == "[V] + h - h^2\n"
    assert err == (
        "warning: a component has constant multiplicity <= -1; "
        "values are formal\n"
    )


@pytest.mark.parametrize("text", [
    "(" * 3000 + "h" + ")" * 3000,
    "-" * 3000 + "h",
    "+" * 3000 + "h",
], ids=["parentheses", "minus", "plus"])
def test_deeply_nested_class_is_a_parse_error(tmp_path, capsys, text):
    model = tmp_path / "nested.json"
    model.write_text(json.dumps({
        "ring": {"catalog": "projective", "n": 2},
        "components": [{"name": "D", "class": text, "mult": 1}],
    }))
    code, out, err = run_cli(capsys, "integrate", model)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ParseError:")
    assert "nests" in err


def test_nesting_up_to_the_limit_parses(tmp_path, capsys):
    from celint.exprparse import MAX_DEPTH

    model = tmp_path / "nested.json"
    model.write_text(json.dumps({
        "ring": {"catalog": "projective", "n": 2},
        "components": [{
            "name": "D",
            "class": "(" * MAX_DEPTH + "h" + ")" * MAX_DEPTH,
            "mult": "+" * MAX_DEPTH + "1",
        }],
    }))
    code, out, _ = run_cli(capsys, "integrate", model)
    assert code == 0
    assert out == "[V] + (5/2)*h + 2*h^2\n"


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"a":' * 100_000,
], ids=["arrays", "objects"])
def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys, text):
    model = tmp_path / "deep.json"
    model.write_text(text)
    code, out, err = run_cli(capsys, "ring", model)
    assert code == 2
    assert out == ""
    assert err.startswith("error: SchemaError:")
    assert "deep.json" in err and "nests" in err


LITERAL_P1 = {"dim": 1, "basis": [["[W]"], ["P"]], "degree": {"P": 1},
              "point": "P"}


@pytest.mark.parametrize("change, message", [
    ({"degree": {"P": "1/0"}}, "degree of 'P' must be rational"),
    ({"dim": float("inf")}, "literal ring dim must be a whole number"),
    ({"basis": [["[W]"], [3]]}, "literal basis name 3 must be a string"),
    ({"dim": 2.5}, "literal ring dim must be a whole number"),
    ({"dim": "1"}, "literal ring dim must be a whole number"),
    ({"dim": True}, "literal ring dim must be a whole number"),
    ({"degree": {"P": 0.1}}, "degree of 'P' must be rational"),
])
def test_malformed_literal_ring_is_a_presentation_error(tmp_path, capsys,
                                                        change, message):
    model = tmp_path / "literal.json"
    model.write_text(json.dumps({"ring": {
        "catalog": "literal", "presentation": {**LITERAL_P1, **change},
    }}))
    code, out, err = run_cli(capsys, "ring", model)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: PresentationError: {message}")


def test_literal_ring_of_the_malformed_cases_is_valid(tmp_path, capsys):
    model = tmp_path / "literal.json"
    model.write_text(json.dumps({"ring": {
        "catalog": "literal", "presentation": LITERAL_P1,
    }}))
    code, out, err = run_cli(capsys, "ring", model)
    assert (code, err) == (0, "")
    assert out.startswith("dimension 1\n")


@pytest.mark.parametrize("name, path, value, verb, error, field", [
    ("ix_cone.json", ("base_strata", "v"), "one", "ix",
     "SchemaError", "field base_strata.v "),
    ("ix_cone.json", ("fiber", "v", "E"), [1], "ix",
     "SchemaError", "field fiber.v.E "),
    ("ix_cone.json", ("dim",), "2", "ix", "SchemaError", "field dim "),
    ("cusp.json", ("selection",), {"closed": [{"name": "D"}]}, "integrate",
     "SchemaError", "field selection.closed[0] "),
    ("cusp.json", ("selection",), {"strata": [[["D"]]]}, "integrate",
     "SchemaError", "field selection.strata[0][0] "),
    ("cusp.json", ("chi_closed", ""), "six", "degree",
     "SchemaError", 'field chi_closed[""] '),
    ("cusp.json", ("chains", "toP2"),
     [{"target": {"catalog": "projective", "n": 2}, "forward": "h"}],
     "integrate", "SchemaError", "field chains.toP2[0].forward "),
    ("cusp.json", ("ring",), {"catalog": "literal", "presentation": {
        **LITERAL_P1, "degree": "P"}}, "ring",
     "PresentationError", "field ring.presentation.degree "),
    ("cusp.json", ("components", 0, "class"), ["h"], "integrate",
     "SchemaError", "field components[0].class "),
    ("cusp.json", ("dim",), "2", "integrate", "SchemaError", "field dim "),
], ids=["base-strata-string", "fiber-list", "ringless-dim-string",
        "closed-object", "strata-nested", "chi-string", "forward-string",
        "literal-degree-string", "class-list", "ring-dim-string"])
def test_wrong_typed_field_is_named_in_an_exit_two_error(
        tmp_path, capsys, name, path, value, verb, error, field):
    model = tmp_path / name
    model.write_text(json.dumps(mutate(read_fixture(name), path, value)))
    code, out, err = run_cli(capsys, verb, model)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {error}: {field}must be ")


@pytest.mark.parametrize("dim, code", [(2, 0), (7, 2)])
def test_top_level_dim_must_equal_the_ring_dimension(tmp_path, capsys, dim, code):
    model = tmp_path / "p2_line.json"
    model.write_text(json.dumps({**read_fixture("p2_line.json"), "dim": dim}))
    _, out, err = run_cli(capsys, "integrate", model)
    if code == 0:
        assert (out, err) == ("[V] + (5/2)*h + 2*h^2\n", "")
    else:
        assert (out, err) == (
            "", "error: SchemaError: field dim is 7, but the ring has dimension 2\n")


P2_IDENTITY = {
    "target": {"catalog": "projective", "n": 2},
    "forward": {"[V]": "[V]", "h": "h", "h^2": "h^2"},
    "pullback": {"[V]": "[V]", "h": "h", "h^2": "h^2"},
}


@pytest.mark.parametrize("path, text, field", [
    (("components", 0, "class"), "1/0", "components[0].class"),
    (("components", 0, "class"), "h/h", "components[0].class"),
    (("components", 0, "class"), "h^-1", "components[0].class"),
    (("chains", "id", 0, "forward", "[V]"), "1/0", 'chains.id[0].forward["[V]"]'),
], ids=["class-over-zero", "class-over-h", "class-negative-power",
        "forward-over-zero"])
def test_class_the_ring_cannot_form_is_named_in_an_exit_two_error(
        tmp_path, capsys, path, text, field):
    data = {**read_fixture("p2_line.json"), "chains": {"id": [P2_IDENTITY]}}
    model = tmp_path / "p2_line.json"
    model.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "integrate", model, "--manifest", "id")
    assert (code, out) == (0, "[V] + (5/2)*h + 2*h^2\n")
    model.write_text(json.dumps(mutate(data, path, text)))
    code, out, err = run_cli(capsys, "integrate", model)
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: SchemaError: field {field} holds an invalid class: ")


def test_closed_selection_of_no_names_is_an_exit_two_error(tmp_path, capsys):
    model = tmp_path / "cusp.json"
    model.write_text(json.dumps(
        {**read_fixture("cusp.json"), "selection": {"closed": []}}))
    code, out, err = run_cli(capsys, "integrate", model)
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: SchemaError: field selection.closed must be a nonempty list")
    for text in ("closed:", "closed: , "):
        code, out, err = run_cli(
            capsys, "integrate", fixture("cusp.json"), "--selection", text)
        assert (code, out) == (2, "")
        assert err.startswith(
            "error: SchemaError: field --selection.closed must be a nonempty list")


@pytest.mark.parametrize("verb", ["integrate", "zeta", "csm", "stringy"])
def test_unknown_chain_is_reported_before_computing(tmp_path, capsys, verb):
    # the ring carries no tangent Chern class, and the multiplicity no
    # a*m + k pair, so each verb's computation would end in an exit-1 error
    model = tmp_path / "literal.json"
    model.write_text(json.dumps({
        "ring": {"catalog": "literal", "presentation": LITERAL_P1},
        "components": [{"name": "P", "class": "P", "mult": 1}],
    }))
    code, out, err = run_cli(capsys, verb, model)
    assert (code, out) == (1, "")
    code, out, err = run_cli(capsys, verb, model, "--manifest", "nope")
    assert (code, out) == (2, "")
    assert err.startswith("error: SchemaError: unknown chain 'nope'")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_fewer_than_one_instance(capsys, count):
    code, out, err = run_cli(capsys, "verify", "all", "--instances", count)
    assert (code, out) == (2, "")
    assert err == f"error: SchemaError: --instances must be at least 1, got {count}\n"


@pytest.mark.parametrize("data", [
    b"[" + b"9" * 5000 + b"]",
    b'{"components": "\xff"}',
], ids=["integer-too-long", "not-utf8"])
def test_unreadable_json_is_a_schema_error(tmp_path, capsys, data):
    model = tmp_path / "unreadable.json"
    model.write_bytes(data)
    code, out, err = run_cli(capsys, "ring", model)
    assert (code, out) == (2, "")
    assert err.startswith("error: SchemaError: ")
    assert "unreadable.json is not valid JSON" in err


@pytest.mark.parametrize("chern, name", [("1 + 2*q", "q"), ("1 + m", "m")])
def test_literal_chern_naming_a_non_basis_element_is_an_exit_two_error(
        tmp_path, capsys, chern, name):
    model = tmp_path / "literal.json"
    model.write_text(json.dumps({"ring": {"catalog": "literal", "presentation": {
        **LITERAL_P1, "chern": chern}}}))
    code, out, err = run_cli(capsys, "ring", model)
    assert (code, out) == (2, "")
    assert err == ("error: PresentationError: field ring.presentation.chern "
                   f"names unknown element {name!r}\n")


@pytest.mark.parametrize("name, path, value, options, verb, message", [
    ("cusp.json", ("selection",), {"closed": ["B"]}, (), "integrate",
     "field selection.closed[0] names unknown component 'B'"),
    ("cusp.json", ("selection",), None, ("--selection", "closed:Q"), "integrate",
     "field --selection.closed[0] names unknown component 'Q'"),
    ("cusp.json", ("selection",), {"strata": [["D", "Z"]]}, (), "integrate",
     "field selection.strata[0][1] names unknown component 'Z'"),
    ("cusp.json", ("chi_closed", "D,Q"), 1, (), "degree",
     'field chi_closed["D,Q"] names unknown component \'Q\''),
    ("ix_cone.json", ("fiber", "T"), {"": 1}, (), "ix",
     "field fiber.T names unknown base stratum 'T'"),
    ("ix_cone.json", ("fiber", "v", "E,Q"), 1, (), "ix",
     'field fiber.v["E,Q"] names unknown component \'Q\''),
    ("ix_cone.json", ("components", 1, "name"), "D1", (), "ix",
     "field components[1].name repeats the component name 'D1'"),
    ("cusp.json", ("components", 1, "name"), "D", (), "integrate",
     "field components[1].name repeats the component name 'D'"),
], ids=["closed", "closed-option", "strata", "chi-key", "fiber-row",
        "fiber-key", "duplicate-ringless", "duplicate-ring"])
def test_name_that_is_not_a_component_is_named_in_an_exit_two_error(
        tmp_path, capsys, name, path, value, options, verb, message):
    model = tmp_path / name
    model.write_text(json.dumps(mutate(read_fixture(name), path, value)))
    code, out, err = run_cli(capsys, verb, model, *options)
    assert (code, out) == (2, "")
    assert err == f"error: SchemaError: {message}\n"


@pytest.mark.parametrize("change, verb, code, message", [
    ({"degree": {"P": 1, "[W]": 1}}, "ring", 2,
     "PresentationError: degree map defined on non-top element '[W]'"),
    ({"point": "Q"}, "ring", 2,
     "PresentationError: point class 'Q' is not a basis element"),
    ({"point": "[W]"}, "ring", 2,
     "PresentationError: point class '[W]' has wrong codimension"),
    ({"degree": {"P": 2}}, "ring", 2,
     "PresentationError: point class 'P' must have degree 1"),
    ({"basis": [["[W]"], ["P Q"]], "degree": {"P Q": 1}, "point": None}, "ring", 2,
     "PresentationError: invalid basis name 'P Q'"),
    ({"chern": "2 + 2*P"}, "ring", 2,
     "PresentationError: tangent Chern class must have codimension-0 part 1"),
    ({}, "integrate", 1,
     "MissingTangentClass: this ring carries no tangent Chern class"),
], ids=["degree-off-top", "point-unknown", "point-codim", "point-degree",
        "name-space", "chern-unit", "no-chern"])
def test_literal_ring_fault_is_reported(tmp_path, capsys, change, verb, code,
                                        message):
    model = tmp_path / "literal.json"
    model.write_text(json.dumps({
        "ring": {"catalog": "literal", "presentation": {**LITERAL_P1, **change}},
        "components": [{"name": "P", "class": "P", "mult": 1}],
    }))
    got, out, err = run_cli(capsys, verb, model)
    assert (got, out) == (code, "")
    assert err == f"error: {message}\n"


BLOWDOWN = {
    "target": {"catalog": "projective", "n": 2},
    "forward": {"[V]": "[V]", "h": "h", "e1": "0", "h^2": "h^2"},
    "pullback": {"[V]": "[V]", "h": "h", "h^2": "h^2"},
}
FORWARD = BLOWDOWN["forward"]


@pytest.mark.parametrize("chain, message", [
    (BLOWDOWN, None),
    ({**BLOWDOWN, "pullback": {"[V]": "[V]", "h": "h"}},
     "pullback must be given on every target basis element"),
    ({**BLOWDOWN, "forward": {**FORWARD, "h": "m*h"}},
     "forward image of 'h' must have constant coefficients"),
    ({**BLOWDOWN, "forward": {**FORWARD, "e1": "h"}},
     "projection formula fails on pull('h')*'e1'"),
], ids=["valid", "pullback-missing", "forward-with-m", "projection-formula"])
def test_chain_fault_is_a_presentation_error(tmp_path, capsys, chain, message):
    model = tmp_path / "blowup.json"
    model.write_text(json.dumps({
        "ring": {"catalog": "blowup_point",
                 "base": {"catalog": "projective", "n": 2}},
        "components": [{"name": "E", "class": "e1", "mult": 1}],
        "chains": {"down": [chain]},
    }))
    code, out, err = run_cli(capsys, "integrate", model, "--manifest", "down")
    if message is None:
        assert (code, out, err) == (0, "[V] + 3*h + 3*h^2\n", "")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: PresentationError: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("[h", "unterminated '[' at position 0 in '[h'"),
    ("[]", "empty '[]' name at position 0 in '[]'"),
    ("h @ 2", "unexpected character '@' at position 2 in 'h @ 2'"),
    ("m m", "trailing input at 'm' in 'm m'"),
], ids=["unterminated", "empty-name", "character", "trailing"])
def test_malformed_expression_is_a_parse_error(tmp_path, capsys, text, message):
    model = tmp_path / "p2_line.json"
    model.write_text(json.dumps(
        mutate(read_fixture("p2_line.json"), ("components", 0, "class"), text)))
    code, out, err = run_cli(capsys, "integrate", model)
    assert (code, out) == (2, "")
    assert err == f"error: ParseError: {message}\n"


@pytest.mark.parametrize("options, message", [
    (("--eval", "3"), "argument --eval: expected m=VALUE"),
    (("--eval", "m=1/0"), "argument --eval: invalid rational value '1/0'"),
    (("--selection", "bogus"), "error: SchemaError: unknown selection 'bogus'; "
     "use whole, empty, closed:A,B or strata:A,B;()"),
    (("--selection", "strata:D;;E1"), "error: SchemaError: empty stratum group; "
     "use () for the empty index set"),
], ids=["eval-form", "eval-zero", "selection-form", "selection-empty-group"])
def test_malformed_option_is_an_exit_two_error(capsys, options, message):
    try:
        code = cli.main(["integrate", fixture("cusp.json"), *options])
    except SystemExit as exc:  # argparse rejects the option itself
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.rstrip("\n").endswith(message)
