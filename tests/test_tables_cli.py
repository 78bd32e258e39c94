"""Table parsing, formatting, and the command-line interface."""

import hashlib
import json

import pytest

from quandlekit import (
    AffineSpec,
    TableFormatError,
    affine_quandle,
    bundled_order12,
    dihedral_quandle,
    format_table,
    load_table,
    parse_table,
)
from quandlekit.cli import main
from conftest import MIXED_ORDER4


def test_format_parse_round_trip():
    q = affine_quandle(AffineSpec(7, 3))
    assert parse_table(format_table(q)).table == q.table
    assert parse_table(format_table(q, one_indexed=True), one_indexed=True).table == q.table


def test_parse_reports_line_numbers():
    with pytest.raises(TableFormatError) as exc:
        parse_table("x\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(TableFormatError) as exc:
        parse_table("2\n0 1\n1 0 0\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(TableFormatError) as exc:
        parse_table("2\n0 1\n1 zebra\n")
    assert exc.value.line == 3
    with pytest.raises(TableFormatError):
        parse_table("")
    with pytest.raises(TableFormatError) as exc:
        parse_table("2\n0 1\n")
    assert "expected 2 rows" in str(exc.value)


def test_parse_checks_entry_range():
    with pytest.raises(TableFormatError) as exc:
        parse_table("2\n0 1\n1 2\n")
    assert "outside 0..1" in str(exc.value)
    # the same table is fine one-indexed
    q = parse_table("2\n1 1\n2 2\n", one_indexed=True)
    assert q.table == ((0, 0), (1, 1))


def test_left_convention_transposes():
    q = dihedral_quandle(5)
    text = format_table(q)
    # a dihedral table is symmetric in the sense that transposing swaps
    # the roles, so parse both ways and compare entrywise
    right = parse_table(text)
    left = parse_table(text, convention="left")
    for x in range(5):
        for y in range(5):
            assert left.op(x, y) == right.op(y, x)


def test_bundled_table_loads():
    q = bundled_order12()
    assert q.order == 12


def test_load_table(tmp_path):
    q = affine_quandle(AffineSpec(5, 3))
    path = tmp_path / "table.txt"
    path.write_text(format_table(q))
    assert load_table(path).table == q.table


def test_cli_validate_affine(capsys):
    assert main(["validate", "--affine", "13", "8"]) == 0
    out = capsys.readouterr().out
    assert "valid quandle of order 13" in out


def test_cli_validate_bundled(capsys):
    assert main(["validate", "--bundled"]) == 0
    assert "order 12" in capsys.readouterr().out


def test_cli_validate_axiom_failure(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0\n1 0\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "axiom 1" in err


def test_cli_validate_parse_failure(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n")
    assert main(["validate", str(path)]) == 2
    assert "expected 2 rows" in capsys.readouterr().err


def test_cli_missing_file():
    assert main(["validate", "/nonexistent/table.txt"]) == 2


def test_cli_requires_exactly_one_source(capsys):
    assert main(["validate"]) == 2
    assert main(["validate", "--affine", "5", "2", "--bundled"]) == 2
    capsys.readouterr()
    # a path beside --affine is a second source, not an unknown argument
    assert main(["analyze", "--affine", "13", "8", "extra.txt"]) == 2
    assert capsys.readouterr().err == (
        "error: give exactly one of: a table file, --affine, --bundled\n")


def test_cli_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_cli_analyze_affine(capsys):
    assert main(["analyze", "--affine", "13", "8"]) == 0
    out = capsys.readouterr().out
    assert "inner group order:   52" in out
    assert "rank:                4" in out
    assert "multiplicity free:   yes" in out
    assert "gelfand pair:        yes" in out
    assert "decomposition:       triv + ind:1 + ind:2 + ind:4" in out


def test_cli_analyze_composite_warns_about_cycles(capsys):
    assert main(["analyze", "--affine", "21", "11"]) == 0
    out = capsys.readouterr().out
    assert "connected:           yes" in out
    assert "mixed cycle lengths" in out
    assert "prime modulus" in out


def test_cli_analyze_bundled(capsys):
    assert main(["analyze", "--bundled"]) == 0
    out = capsys.readouterr().out
    assert "rank:                7" in out
    assert "multiplicity free:   no" in out
    assert "witness" in out
    assert "gelfand pair:        no" in out


def test_cli_analyze_json_stdout_deterministic(capsys):
    assert main(["analyze", "--affine", "13", "9", "--json", "-"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--affine", "13", "9", "--json", "-"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first[first.index("{"):])
    assert payload["schema"] == 1
    assert payload["rank"] == 5
    assert payload["tau_class_count"] == 3


def test_cli_analyze_json_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["analyze", "--affine", "13", "8", "--json", str(out_path)]) == 0
    capsys.readouterr()
    once = out_path.read_bytes()
    assert main(["analyze", "--affine", "13", "8", "--json", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == once
    payload = json.loads(once)
    assert payload["decomposition"] == {"ind:1": 1, "ind:2": 1, "ind:4": 1, "triv": 1}


def test_cli_tensor(capsys):
    assert main(["tensor", "--affine", "13", "8"]) == 0
    out = capsys.readouterr().out
    assert "4 tensor classes" in out
    for rep in ["(0, 0)", "(0, 1)", "(0, 2)", "(0, 4)"]:
        assert f"class {rep}" in out


def test_cli_tensor_tau(capsys):
    assert main(["tensor", "--affine", "13", "9", "--tau"]) == 0
    out = capsys.readouterr().out
    assert "5 tensor classes" in out
    assert "tau quotient: 3 classes" in out
    assert "tensor classes 1+3" in out
    assert "tensor classes 2+4" in out


def test_cli_tensor_small(capsys):
    assert main(["tensor", "--affine", "3", "2"]) == 0
    assert "2 tensor classes" in capsys.readouterr().out


def test_cli_decompose(capsys):
    assert main(["decompose", "--affine", "13", "8"]) == 0
    out = capsys.readouterr().out
    assert "triv + ind:1 + ind:2 + ind:4" in out
    assert "rank: 4" in out
    assert "multiplicity free: yes" in out


def test_cli_decompose_needs_affine(capsys):
    assert main(["decompose"]) == 2


@pytest.mark.parametrize("command", ["analyze", "validate", "tensor", "gelfand", "decompose"])
def test_cli_has_no_tolerance_flag(command, capsys):
    """The unknown flag is named with its value, which the optional table
    path of all but decompose would otherwise take."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--affine", "13", "8", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "quandlekit: error: unrecognized arguments: --tol 1e-6\n")


def test_cli_decompose_rejects_composite(capsys):
    assert main(["decompose", "--affine", "21", "11"]) == 1
    assert "not prime" in capsys.readouterr().err


def test_cli_gelfand_agreement(capsys):
    assert main(["gelfand", "--affine", "13", "9"]) == 0
    out = capsys.readouterr().out
    assert "multiplicity free (orbital test): yes" in out
    assert "gelfand pair (double-coset test): yes" in out
    assert "the two tests agree" in out


def test_cli_gelfand_bundled(capsys):
    assert main(["gelfand", "--bundled"]) == 0
    out = capsys.readouterr().out
    assert "multiplicity free (orbital test): no" in out
    assert "witness" in out
    assert "gelfand pair (double-coset test): no" in out
    assert "the two tests agree" in out


def test_cli_gelfand_disconnected(capsys):
    # disconnected input: the orbital test does not apply
    assert main(["gelfand", "--affine", "9", "4"]) == 1
    assert "connected" in capsys.readouterr().err


def test_cli_scan_small(capsys):
    assert main(["scan", "--max-order", "5"]) == 0
    out = capsys.readouterr().out
    rows = [
        tuple(int(v) for v in ln.split()[:2])
        for ln in out.splitlines()
        if ln.strip() and ln.split()[0].isdigit()
    ]
    assert rows == [(3, 2), (5, 2), (5, 3), (5, 4)]
    assert "all multiplicity-free: yes" in out


def test_cli_scan_include_bundled(capsys):
    assert main(["scan", "--max-order", "13", "--include-bundled"]) == 0
    out = capsys.readouterr().out
    assert "bundled order-12: tensor 7, multiplicity free: no" in out
    assert "all multiplicity-free: yes" in out


def test_cli_scan_json(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    assert main(["scan", "--max-order", "7", "--json", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["schema"] == 1
    assert payload["all_affine_multiplicity_free"] is True
    mods = {(r["modulus"], r["multiplier"]) for r in payload["affine_rows"]}
    assert (7, 3) in mods and (3, 2) in mods
    for row in payload["affine_rows"]:
        spec = AffineSpec(row["modulus"], row["multiplier"])
        assert row["multiplier_order"] == spec.order_of_multiplier


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["scan", "--max-order", "47", "--include-bundled", "--json", "-"],
         "b263cc4e651ef6b7ac3835957c23905d8aa747666c7a532fa91c4c3484d407c3"),
        (["analyze", "--json", "-", "--affine", "47", "5"],
         "bb5d947c135c3b1150db92ae87b09ad2c234b622bcac958909ca738c6be401d8"),
        (["analyze", "--json", "-", "--bundled"],
         "5009c527ef7f0750025d80cdfe78fd033eb64c902c450abc26e45c49118a503b"),
        (["analyze", "--json", "-", "--affine", "43", "3"],
         "8491bde4f28295a97e06f65dbefc1bb6c3ae9ae191725162edbdb60113a0c255"),
        (["gelfand", "--affine", "43", "3"],
         "1816b22824af7b124358f0404edc6f49004b09117f6898da089b60e9ca4a9d1a"),
        (["gelfand", "--bundled"],
         "bb6b46ba1a738e9bccf3feec08f908d13312029341f4d9efb0e1ba703d6a9adf"),
    ],
)
def test_cli_json_output_is_pinned(argv, digest, capsys):
    """SHA-256 of the whole standard output, pinned so that a change to
    any layer below the CLI cannot alter a report unnoticed."""
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_scan_cap(capsys):
    assert main(["scan", "--max-order", "48"]) == 2
    assert "capped" in capsys.readouterr().err


def test_cli_one_indexed_and_convention(tmp_path, capsys):
    q = dihedral_quandle(3)
    path = tmp_path / "table.txt"
    path.write_text(format_table(q, one_indexed=True))
    assert main(["validate", str(path), "--one-indexed"]) == 0
    capsys.readouterr()
    # dihedral tables are their own transpose only entrywise-symmetrically;
    # the left convention still parses to a valid quandle here
    assert main(["validate", str(path), "--one-indexed", "--convention", "left"]) == 0


def test_console_script_entry_point():
    """The package ships a `quandlekit` console script that runs `quandlekit.cli.main`.

    The `[project.scripts]` declaration is checked in any checkout; the
    installed entry is checked as well when a `quandlekit` distribution is
    installed, so a stale or wrong install still fails.
    """
    import importlib.metadata as md
    from pathlib import Path

    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        declared = tomllib.load(f)["project"]["scripts"]["quandlekit"]
    assert declared == "quandlekit.cli:main"
    script = md.EntryPoint(name="quandlekit", value=declared, group="console_scripts")
    assert script.load() is main

    try:
        dist = md.distribution("quandlekit")
    except md.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = dist.entry_points.select(group="console_scripts", name="quandlekit")
        assert [ep.value for ep in installed] == [declared]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["analyze_order12.py"], "multiplicity free: False"),
        (["abelian_gelfand_census.py", "--max-order", "8"], "orbital test agreed on all"),
    ],
)
def test_scripts_run(argv, line):
    """The scripts under scripts/ run from a source checkout and reach their
    verdict line."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    paths = [str(repo / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def test_census_stdout_is_the_same_on_every_run():
    """The census keeps its elapsed times on stderr, so two runs write the
    same stdout bytes, down to the verdict line."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    paths = [str(repo / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    script = repo / "scripts" / "abelian_gelfand_census.py"
    argv = [sys.executable, str(script), "--max-order", "8"]
    runs = [subprocess.run(argv, capture_output=True, env=env, timeout=300) for _ in range(2)]
    assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    last = runs[0].stdout.decode().splitlines()[-1]
    assert last == "204 pairs; orbital test agreed on all 60 connected instances"


_NO_MASKED_ARRAYS = """
import contextlib, io, sys
from quandlekit.abelian import AbelianGroup, affine_extension, automorphism_permutations
from quandlekit.cayley import coset_quandle
from quandlekit.cli import main
from quandlekit.gelfand import double_cosets, is_gelfand_pair
from quandlekit.perms import Permutation, _element_keys, close_group, orbits

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["analyze", "--affine", "13", "8"]) == 0
    assert main(["analyze", "--bundled"]) == 0
    assert main(["scan", "--max-order", "12"]) == 0
group = AbelianGroup((2, 2, 7))
for f in automorphism_permutations(group):
    big, small = affine_extension(group, f)
    if _element_keys(big).folds:
        break
assert list(_element_keys(big).folds) == [13]
assert is_gelfand_pair(big, small, double_cosets(big, small))
z5 = close_group([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
assert coset_quandle(z5, [], {g: g * g for g in z5.elements}).order == 5
assert orbits(z5) == [(0, 1, 2, 3, 4)]
print("numpy.ma" in sys.modules)
"""


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter with the package on its path;
    returns its stdout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    paths = [str(repo / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pipeline_never_imports_masked_arrays():
    """A bare np.unique imports numpy.ma (about 10 ms) inside the first
    call that reaches it; analyze, scan, a folded-key Gelfand pair, a coset
    quandle and orbits, in a fresh interpreter, leave it unimported."""
    assert _run_fresh(_NO_MASKED_ARRAYS) == "False\n"


_GENERATING_SETS = """
import contextlib, io, sys
from quandlekit import trivial_quandle
from quandlekit.cli import main

assert trivial_quandle(6)._generators == (0, 1, 2, 3, 4, 5)
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["analyze", "--bundled"]) == 0
    assert main(["scan", "--max-order", "13"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_generating_sets_never_import_masked_arrays():
    """Growing a generating set picks the least points of the orbits that
    hold none of its points by a boolean mask: np.setdiff1d and np.isin
    import numpy.ma (about 16 ms) on their first call.  Validating a
    trivial quandle, whose set grows twice, analyze on the bundled table
    and a scan leave it unimported."""
    assert _run_fresh(_GENERATING_SETS) == "False\n"


def _readme_command_lines():
    """The `quandlekit ...` lines of the README's "Command line" section
    that need no input file."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line.strip() for line in section.splitlines()]
    return [
        line for line in lines
        if line.startswith("quandlekit ")
        and any(word in line.split() for word in ("--affine", "--bundled", "scan"))
    ]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    import shlex

    lines = _readme_command_lines()
    assert len(lines) >= 5, lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_readme_library_block_runs_with_the_values_it_shows():
    """Each statement of the README's "Library" python block runs in turn;
    an expression whose trailing ``# comment`` is a Python literal must
    evaluate to it."""
    import ast
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            shown = ast.literal_eval(comment)
        except (SyntaxError, ValueError):
            exec(source, namespace)
            continue
        assert isinstance(stmt, ast.Expr), source
        assert eval(source, namespace) == shown, source
        checked += 1
    assert checked >= 3, block


EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()


def _pinned_inputs(directory):
    """Table files for the pinned runs below: the affine (7, 3) table with
    two entries of column 0 swapped (axiom 3 fails), a table whose column 1
    is not a bijection, and the (11, 2) table relabelled by a fixed
    permutation, the order-4 table MIXED_ORDER4 (no affine quandle) and the
    dihedral quandle of order 8 relabelled by a fixed permutation."""
    def relabelled(q, sigma):
        inverse = sorted(range(q.order), key=sigma.__getitem__)
        return [[sigma[q.op(inverse[a], inverse[b])] for b in range(q.order)]
                for a in range(q.order)]

    rows = [list(row) for row in affine_quandle(AffineSpec(7, 3)).table]
    rows[1][0], rows[2][0] = rows[2][0], rows[1][0]
    affine = relabelled(affine_quandle(AffineSpec(11, 2)), (5, 9, 0, 3, 10, 1, 7, 2, 8, 4, 6))
    dihedral = relabelled(dihedral_quandle(8), (3, 6, 0, 7, 2, 5, 1, 4))
    for name, table in (("corrupted.txt", rows), ("relabelled.txt", affine),
                        ("order4.txt", MIXED_ORDER4), ("dihedral8.txt", dihedral)):
        lines = [str(len(table))] + [" ".join(map(str, row)) for row in table]
        (directory / name).write_text("\n".join(lines) + "\n")
    (directory / "not-bijective.txt").write_text("3\n0 2 1\n2 1 0\n1 1 2\n")


@pytest.mark.parametrize(
    "argv, out_digest, err_digest, code",
    [
        (["validate", "corrupted.txt"], EMPTY_DIGEST,
         "4caceebf7dead08f95009646cad7ab0d8fb3baa580876fa13f01286a39e0fb82", 1),
        (["validate", "not-bijective.txt"], EMPTY_DIGEST,
         "434024f117ce5a2be47b9584b976d6935037da70decb0f3725bd10a04a2866b3", 1),
        (["gelfand", "--affine", "43", "3"],
         "1816b22824af7b124358f0404edc6f49004b09117f6898da089b60e9ca4a9d1a", EMPTY_DIGEST, 0),
        (["analyze", "--json", "-", "relabelled.txt"],
         "f0835dc4ae3d903fe02a2127fef41bd2b57d28d4a3e9430a0aa972caa2f215a7", EMPTY_DIGEST, 0),
        (["tensor", "--affine", "13", "9", "--tau"],
         "5a1cf83b5814200bcc59149a8bdbd6098bc51152a91e4181cee28e7e62c7230c", EMPTY_DIGEST, 0),
        (["tensor", "--bundled", "--tau"],
         "f1a56caa971ae79f249224de768e1eb65c27407f1a954c0ce040415a5c995445", EMPTY_DIGEST, 0),
        (["decompose", "--affine", "13", "8"],
         "9b3b52820a39485ddb7631822dd9d52c617ed0ee3ece4fd05b3ac3e5cf6827e0", EMPTY_DIGEST, 0),
        # "error: modulus must be at least 1\n", a ValueError from AffineSpec
        (["analyze", "--affine", "0", "1"], EMPTY_DIGEST,
         "2131a1dc17d106906ed7050e011d4b8026fa58adfb431cc82060cfb407b7516f", 1),
        # affine_status "none", reached without an isomorphism search
        (["analyze", "--json", "-", "order4.txt"],
         "b870def8bdecf88f7e0afd3bb4c56a1904173b3e33e3019f7c86819cefb3f682", EMPTY_DIGEST, 0),
        # not connected; "match" (8, 3), the first of the units 3 and 7 that fit
        (["analyze", "--json", "-", "dihedral8.txt"],
         "d3b1fe1cda5a0c2f125742ed08eecba50b8cb3130a3559f92bd0f2ffdf2c5c9a", EMPTY_DIGEST, 0),
    ],
)
def test_cli_outputs_and_exit_codes_are_pinned(argv, out_digest, err_digest, code,
                                               tmp_path, monkeypatch, capsys):
    """SHA-256 of standard output and of standard error, and the exit code,
    pinned for rejected tables and for reports that test_cli_json_output_is_pinned
    leaves out; files are named relative to the working directory, as the
    report echoes the path."""
    _pinned_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest
