"""Command-line surface: reports, exit codes, schemas, determinism."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import pkgutil
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hierdepth import cli
from hierdepth.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = json.loads(
    (ROOT / "docs" / "report-schemas.json").read_text(encoding="utf-8")
)["subcommands"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def report_of(argv):
    rc, out, err = run(argv)
    assert rc == 0, err
    rep = json.loads(out)
    jsonschema.validate(rep, SCHEMAS[rep["subcommand"]])
    return rep


def module_env():
    """Environment for running `python -m hierdepth.cli` from this checkout."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(q for q in paths if q))


def write_config(tmp_path, text, name="code.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


RS_CFG = """
p = 5
space = P1
summand = 2
points = 1:0, 1:1, 1:2, 1:3, 1:4
"""

SCALED_CFG = """
# quadrics through a blown-down point, ten honest points, two dead slots
p = 5
space = P2
summand = 2; 1:0:0@1
points = 1:1:1, 1:1:2, 1:1:3, 1:1:4, 1:2:1, 1:2:2, 1:2:3, 1:2:4, 1:3:1, 1:3:2
exceptional = 1:0:0
exceptional = 1:0:0
"""

BIG_CFG = """
p = 7
space = P2
summand = 3
points = all-rational
budget = 100
"""


class TestDepthCommand:
    def test_curve_headline(self):
        rep = report_of(["depth", "--curve", "--degrees", "3,1,0", "--lambda0", "0"])
        assert rep["value"] == rep["lower"] == rep["upper"] == 4
        assert rep["status"] == "ok" and rep["det"] == "4P"

    def test_curve_no_filtration_is_a_valid_answer(self):
        rc, out, _ = run(["depth", "--curve", "--degrees", "1,-1", "--lambda0", "3"])
        assert rc == 0
        rep = json.loads(out)
        jsonschema.validate(rep, SCHEMAS["depth"])
        assert rep["status"] == "no-filtration"
        assert rep["value"] is None

    def test_plane_gap(self):
        rep = report_of(
            ["depth", "--surface", "p2", "--bundle", "O(0)+O(3H)", "--lambda0", "0"]
        )
        assert (rep["lower"], rep["upper"], rep["value"]) == (2, 3, None)

    def test_quadric_gap_closes(self):
        rep = report_of(
            [
                "depth", "--surface", "p1xp1",
                "--bundle", "O(2F1+3F2)+O(0)", "--lambda0", "0",
            ]
        )
        assert rep["lower"] == rep["upper"] == rep["value"] == 5

    def test_lambda0_ignores_tabs_and_newlines(self):
        argv = ["depth", "--surface", "p2", "--bundle", "O(0)+O(3H)", "--lambda0"]
        rc, out, err = run(argv + ["H\t+\nH\n\n"])
        assert (rc, err) == (0, "")
        assert out == run(argv + ["2H"])[1]

    def test_bundle_ignores_tabs_and_newlines(self):
        argv = ["depth", "--surface", "p2", "--lambda0", "0", "--bundle"]
        rc, out, err = run(argv + ["O(H)\t+O(0)\n"])
        assert (rc, err) == (0, "")
        assert out == run(argv + ["O(H)+O(0)"])[1]

    def test_surface_no_filtration(self):
        rep = report_of(
            ["depth", "--surface", "p2", "--bundle", "O(0)+O(H)", "--lambda0", "3H"]
        )
        assert rep["status"] == "no-filtration"
        assert rep["lower"] is rep["upper"] is None


class TestMmpDepthCommand:
    def test_transfer_value(self):
        rep = report_of(["mmp-depth", "--hmin", "5", "--alpha", "2,4", "--beta", "0,1"])
        assert rep["value"] == 10

    def test_non_effective_correction_is_a_domain_error(self):
        rc, _, err = run(["mmp-depth", "--hmin", "5", "--alpha", "2,4", "--beta", "3,1"])
        assert rc == 2
        assert "NotEffective" in err

    def test_length_mismatch_is_a_domain_error(self):
        rc, _, err = run(["mmp-depth", "--hmin", "1", "--alpha", "2", "--beta", "0,0"])
        assert rc == 2
        assert "ShapeMismatch" in err

    def test_no_blowups(self):
        rep = report_of(["mmp-depth", "--hmin", "3", "--alpha", "", "--beta", ""])
        assert (rep["alpha"], rep["beta"], rep["value"]) == ([], [], 3)


class TestFiltrationCommand:
    def test_constructed_chain(self):
        rep = report_of(["filtration", "--field", "5", "--degrees", "3,1,0", "--lambda0", "0"])
        assert rep["length"] == 4 and rep["verified"] is True
        assert rep["dims"] == [7, 6, 5, 4, 3]
        assert rep["det_degrees"] == [4, 3, 2, 1, 0]
        assert rep["points"] == ["0", "1", "2", "3"]

    GOLDEN_ARGV = [
        ("readme", "--field 5 --degrees 3,1,0 --lambda0 0"),
        ("twisted", "--field 5 --degrees 0,-3 --lambda0 -5"),
        ("every-point", "--field 2 --degrees 1,1 --lambda0 -1"),
        ("three-blocks", "--field 101 --degrees 40,40,20 --lambda0 0"),
    ]

    @pytest.mark.parametrize("name, argv", GOLDEN_ARGV)
    def test_report_is_byte_stable(self, name, argv):
        # tests/golden holds these reports as written before the chain was
        # cut block by block; stdout must not change by a byte
        golden = ROOT / "tests" / "golden" / f"filtration-{name}.json"
        rc, out, err = run(["filtration", *argv.split()])
        assert rc == 0, err
        assert out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name, argv", GOLDEN_ARGV)
    def test_text_report_is_byte_stable(self, name, argv):
        # the same reports in --format text, as written while the chain
        # still built its final basis
        golden = ROOT / "tests" / "golden" / f"filtration-{name}.txt"
        rc, out, err = run(["--format", "text", "filtration", *argv.split()])
        assert (rc, err) == (0, "")
        assert out == golden.read_text(encoding="utf-8")

    def test_overdrawn_budget(self):
        rep = report_of(["filtration", "--field", "5", "--degrees", "1", "--lambda0", "3"])
        assert rep["status"] == "no-filtration"
        assert rep["length"] is None and rep["dims"] == []

    def test_largest_field_needs_no_point_listing(self):
        start = time.perf_counter()
        rep = report_of(
            ["filtration", "--field", "2147483647", "--degrees", "3,1,0", "--lambda0", "0"]
        )
        assert time.perf_counter() - start < 1.0
        assert rep["points"] == ["0", "1", "2", "3"]

    def test_chain_through_infinity(self):
        rep = report_of(["filtration", "--field", "3", "--degrees", "3,1,0", "--lambda0", "0"])
        assert rep["points"] == ["0", "1", "2", "inf"]
        assert rep["dims"] == [7, 6, 5, 4, 3]

    @pytest.mark.parametrize("field", ["4", "1"])
    def test_overdrawn_budget_still_needs_a_prime(self, field):
        for lambda0 in ("5", "0"):
            rc, out, err = run(
                ["filtration", "--field", field, "--degrees", "1", "--lambda0", lambda0]
            )
            assert rc == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert err.startswith("error: NotPrime:"), err

    def test_too_small_field_is_a_domain_error(self):
        rc, _, err = run(["filtration", "--field", "2", "--degrees", "2", "--lambda0", "-2"])
        assert rc == 2
        assert "NotEnoughPoints" in err

    @pytest.mark.parametrize("degrees, lambda0", [
        ("1000000", "0"),          # a million transforms
        ("600,0", "590"),          # ten transforms, but 602 columns
    ])
    def test_oversized_section_space_is_refused(self, degrees, lambda0):
        start = time.perf_counter()
        rc, out, err = run(
            ["filtration", "--field", "2147483647", "--degrees", degrees,
             "--lambda0", lambda0]
        )
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: WidthTooLarge:"), err

    def test_very_negative_degree_needs_no_long_twist_search(self):
        start = time.perf_counter()
        rep = report_of(
            ["filtration", "--field", "7", "--degrees", "-1000000000",
             "--lambda0", "-1000000003"]
        )
        assert time.perf_counter() - start < 1.0
        assert rep["dims"] == [3, 2, 1, 0]


class TestHeckeVerifyCommand:
    def test_explicit_covectors(self):
        rep = report_of(
            [
                "hecke-verify", "--field", "5", "--degrees", "1,1",
                "--points", "2,inf", "--covectors", "1,0;0,1",
            ]
        )
        assert rep["equal"] is True
        assert rep["routes"] == {"dim_joint": 2, "dim_v12": 2, "dim_v21": 2}

    def test_default_covectors(self):
        rep = report_of(
            ["hecke-verify", "--field", "7", "--degrees", "1,1", "--points", "0,1"]
        )
        assert rep["equal"] is True
        assert rep["covectors"] == [[1, 0], [1, 0]]

    def test_equal_points_are_a_domain_error(self):
        for argv in (
            ["hecke-verify", "--field", "5", "--degrees", "1,1", "--points", "3,3"],
            # 7 is the point 2 over F_5
            ["hecke-verify", "--field", "5", "--degrees", "2,2", "--points", "2,7",
             "--covectors", "1,0;0,1"],
        ):
            assert run(argv) == (2, "", (
                "error: OverlappingSupport: transform points coincide;"
                " routes are compared at distinct points only\n"
            ))

    def test_models_with_empty_blocks(self):
        # an all-empty model has no section and no power to take: exit 2,
        # never a traceback
        assert run(["hecke-verify", "--field", "2", "--degrees=-1", "--points", "0,inf"]) == (
            2, "", "error: VacuousTransform: no usable covector at point 0\n"
        )
        rep = report_of(
            ["hecke-verify", "--field", "2", "--degrees=-1,2", "--points", "inf,0"]
        )
        assert rep["covectors"] == [[0, 1], [0, 1]]
        assert rep["routes"] == {"dim_joint": 1, "dim_v12": 1, "dim_v21": 1}
        assert rep["equal"] is True

    def test_oversized_section_space_is_refused(self):
        rc, _, err = run(
            ["hecke-verify", "--field", "5", "--degrees", "300,300", "--points", "0,1"]
        )
        assert rc == 2
        assert err.startswith("error: WidthTooLarge:"), err


class TestCodeCommands:
    def test_build_report(self, tmp_path):
        cfg = write_config(tmp_path, RS_CFG)
        rep = report_of(["code-build", "--config", cfg])
        assert (rep["N"], rep["n"], rep["k"], rep["r"]) == (5, 5, 3, 1)
        assert rep["zero_blocks"] == []

    def test_generator_export(self, tmp_path):
        cfg = write_config(tmp_path, RS_CFG)
        target = tmp_path / "gen.txt"
        rep = report_of(["code-build", "--config", cfg, "--export-generator", str(target)])
        assert rep["generator_file"] == str(target)
        rows = [
            [int(x) for x in line.split()]
            for line in target.read_text().strip().splitlines()
        ]
        assert len(rows) == rep["message_dim"]
        assert all(len(r) == rep["n"] for r in rows)
        assert all(0 <= x < 5 for r in rows for x in r)

    def test_shorter_export_replaces_a_longer_one(self, tmp_path):
        big = write_config(tmp_path, SCALED_CFG, "big.cfg")
        small = write_config(tmp_path, RS_CFG, "small.cfg")
        target, fresh = tmp_path / "gen.txt", tmp_path / "fresh.txt"
        report_of(["code-build", "--config", big, "--export-generator", str(target)])
        longer = target.read_text()
        report_of(["code-build", "--config", small, "--export-generator", str(target)])
        report_of(["code-build", "--config", small, "--export-generator", str(fresh)])
        assert len(fresh.read_text()) < len(longer)
        assert target.read_text() == fresh.read_text()

    def test_export_to_a_device(self, tmp_path):
        cfg = write_config(tmp_path, RS_CFG)
        rep = report_of(["code-build", "--config", cfg, "--export-generator", "/dev/null"])
        assert rep["generator_file"] == "/dev/null"

    def test_analyze_reed_solomon(self, tmp_path):
        cfg = write_config(tmp_path, RS_CFG)
        rep = report_of(["code-analyze", "--config", cfg])
        assert rep["d_min"] == 3 and rep["delta"] == "3/5"
        assert rep["mmp"]["ratio"] == "1/1"

    def test_analyze_scaled_instance(self, tmp_path):
        cfg = write_config(tmp_path, SCALED_CFG)
        rep = report_of(["code-analyze", "--config", cfg])
        assert (rep["N"], rep["k"], rep["d_min"]) == (12, 5, 4)
        assert rep["delta"] == "1/3"
        assert rep["zero_blocks"] == [10, 11]
        assert rep["mmp"] == {"N_after": 10, "delta_after": "2/5", "ratio": "6/5"}

    def test_analyze_over_budget(self, tmp_path):
        cfg = write_config(tmp_path, BIG_CFG)
        rep = report_of(["code-analyze", "--config", cfg])
        assert rep["d_min"] == "infeasible"
        assert rep["delta"] is None and rep["mmp"] is None

    def test_compare_scaled_instance(self, tmp_path):
        cfg = write_config(tmp_path, SCALED_CFG)
        rep = report_of(["mmp-compare", "--config", cfg])
        assert rep["improved"] is True and rep["ratio"] == "6/5"
        assert (rep["N_before"], rep["N_after"]) == (12, 10)

    def test_compare_over_budget_reports_infeasible(self, tmp_path):
        cfg = write_config(tmp_path, BIG_CFG)
        rep = report_of(["mmp-compare", "--config", cfg])
        assert rep["status"] == "infeasible"
        assert rep["ratio"] is None

    @pytest.mark.parametrize("subcommand", ["code-analyze", "mmp-compare"])
    def test_the_generator_is_eliminated_once(self, tmp_path, monkeypatch, subcommand):
        # two summands through the blown-down point: two kernels, then one
        # elimination of the generator, which contraction keeps
        from hierdepth import gf

        shapes = []
        eliminate = gf._rref_array

        def counted(a, p):
            shapes.append(a.shape)
            return eliminate(a, p)

        monkeypatch.setattr(gf, "_rref_array", counted)
        cfg = write_config(tmp_path, SCALED_CFG + "summand = 1; 1:0:0\n")
        rep = report_of([subcommand, "--config", cfg])
        assert rep["d_min"] == 4
        kernels, generator = shapes[:2], shapes[2:]
        assert [cols for _, cols in kernels] == [6, 3]  # monomials of each summand
        assert generator == [(5 + 2, 2 * 12)]

    @pytest.mark.parametrize("subcommand", ["code-analyze", "mmp-compare"])
    def test_the_zero_blocks_are_scanned_once(self, tmp_path, monkeypatch, subcommand):
        # code-analyze's summary and the contraction share one scan
        from hierdepth import agcode

        scanned = []
        scan = agcode._scan_zero_blocks

        def counted(code):
            scanned.append(code.num_points)
            return scan(code)

        monkeypatch.setattr(agcode, "_scan_zero_blocks", counted)
        rep = report_of([subcommand, "--config", write_config(tmp_path, SCALED_CFG)])
        assert rep["zero_blocks"] == [10, 11]
        assert scanned == [12]

    def test_all_rational_with_exclusions(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "p = 5\nspace = P1\nsummand = 1\npoints = all-rational\nexclude = 0:1\n",
        )
        rep = report_of(["code-build", "--config", cfg])
        assert rep["N"] == 5  # the point at infinity was dropped

    def test_every_point_excluded_leaves_the_exceptional_slots(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "p = 2\nspace = P1\nsummand = 1\npoints = all-rational\n"
            "exclude = 1:0\nexclude = 1:1\nexclude = 0:1\nexceptional = 1:1\n",
        )
        rep = report_of(["code-build", "--config", cfg])
        assert (rep["N"], rep["k"]) == (1, 1)


def code_build_capped(cfg, refused):
    """Run code-build apart, with address space capped at 3 GB, so an uncapped
    size ends in MemoryError instead of exhausting the machine. A refusal is
    one TooLarge line within a second; otherwise the report is returned."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hierdepth.cli", "code-build", "--config", cfg],
        capture_output=True, text=True, env=module_env(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)),
    )
    if not refused:
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: TooLarge:"), proc.stderr
    return None


def assert_one_line_error(result, field):
    rc, out, err = result
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert err.startswith(f"error: {field}:"), err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv,field",
        [
            (["depth", "--curve", "--degrees", "3,x", "--lambda0", "0"], "degrees"),
            (["depth", "--lambda0", "0"], "surface"),
            (["depth", "--curve", "--degrees", "1", "--lambda0", "Q"], "lambda0"),
            (["mmp-depth", "--hmin", "z", "--alpha", "1", "--beta", "0"], "hmin"),
            (["hecke-verify", "--field", "5", "--degrees", "1,1", "--points", "0"], "points"),
            (
                ["hecke-verify", "--field", "5", "--degrees", "1,1",
                 "--points", "0,1", "--covectors", "1,0"],
                "covectors",
            ),
            (["mmp-depth", "--hmin", "-1", "--alpha", "1", "--beta", "0"], "hmin"),
            (["filtration", "--field", "5", "--degrees", "3,,1", "--lambda0", "0"], "degrees"),
            (["filtration", "--field", "5", "--degrees", "3,1,", "--lambda0", "0"], "degrees"),
            (["mmp-depth", "--hmin", "1", "--alpha", "1,,2", "--beta", "0,0"], "alpha"),
            (
                ["hecke-verify", "--field", "5", "--degrees", "1,1",
                 "--points", "0,1", "--covectors", "1,0,;0,1"],
                "covectors",
            ),
            # zero covectors, spelled as 0 and as p
            (
                ["hecke-verify", "--field", "5", "--degrees", "1,1",
                 "--points", "0,1", "--covectors", "0,0;0,1"],
                "covectors",
            ),
            (
                ["hecke-verify", "--field", "5", "--degrees", "1,1",
                 "--points", "0,1", "--covectors", "5,0;0,1"],
                "covectors",
            ),
            # signs no term takes up, once dropped without a word
            (["depth", "--surface", "p2", "--bundle", "O(H)", "--lambda0", "2H+"], "lambda0"),
            (["depth", "--surface", "p2", "--bundle", "O(H)", "--lambda0=--H"], "lambda0"),
            (["depth", "--surface", "p2", "--bundle", "O(H)", "--lambda0", "H+-H"], "lambda0"),
            (["depth", "--surface", "p2", "--bundle", "O(2H++H)", "--lambda0", "0"], "bundle"),
            # argv the option table refuses
            (["frobnicate"], "arguments"),
            (["depth", "--curve", "--degrees", "1", "--lambda0", "0", "--bogus"], "arguments"),
            (["filtration", "--field", "5", "--degrees", "1", "--lambda0"], "arguments"),
            (["filtration", "--field", "5", "--degrees", "1"], "arguments"),
            (["depth", "--surface", "p3", "--bundle", "O(H)", "--lambda0", "0"], "arguments"),
            (["--format", "xml", "depth", "--curve", "--degrees", "1", "--lambda0", "0"],
             "arguments"),
            (["--seed", "x", "depth", "--curve", "--degrees", "1", "--lambda0", "0"], "arguments"),
            (["depth", "stray", "--curve", "--degrees", "1", "--lambda0", "0"], "arguments"),
            (["depth", "--curve", "--degrees", "1", "--lambda0", "0", "--format", "text"],
             "arguments"),
            # a value starting with '-' that is not a number reads as an option
            (["depth", "--surface", "p2", "--bundle", "O(H)", "--lambda0", "-H"], "arguments"),
            # --h could be --help or --hmin
            (["mmp-depth", "--h", "1", "--alpha", "1", "--beta", "0"], "arguments"),
            (["depth", "--curve=1", "--degrees", "1", "--lambda0", "0"], "arguments"),
            (["filtration", "--field", "5", "--degrees=", "--lambda0", "0"], "degrees"),
            ([], "subcommand"),
            (["--seed", "3"], "subcommand"),
            # --degrees is read only with --curve, as --bundle only without it
            (["depth", "--surface", "p2", "--bundle", "O(H)", "--degrees", "1,2",
              "--lambda0", "0"], "degrees"),
            # refusals no other row reaches: unbalanced parentheses, a coefficient
            # that is not an integer, --curve with --surface, a short covector
            (["depth", "--surface", "p2", "--bundle", "O((H)", "--lambda0", "0"], "bundle"),
            (["depth", "--surface", "p2", "--bundle", "O(H))+O(0", "--lambda0", "0"], "bundle"),
            (["depth", "--surface", "p2", "--bundle", "O(H)", "--lambda0", "2.5H"], "lambda0"),
            (["depth", "--curve", "--surface", "p2", "--degrees", "1", "--lambda0", "0"], "curve"),
            (
                ["hecke-verify", "--field", "5", "--degrees", "1,1",
                 "--points", "0,1", "--covectors", "1;1,0"],
                "covectors",
            ),
        ],
    )
    def test_exit_one_and_field_named(self, argv, field):
        assert_one_line_error(run(argv), field)

    @pytest.mark.parametrize("argv,same", [
        ("filtration --fie 5 --degrees 3,1 --lambda0 -1",
         "filtration --field 5 --degrees 3,1 --lambda0 -1"),
        ("filtration --field=5 --degrees=3,1 --lambda0=-1",
         "filtration --field 5 --degrees 3,1 --lambda0 -1"),
        ("--se 4 --f=text depth --cu --d=2 --l 0",
         "--seed 4 --format text depth --curve --degrees 2 --lambda0 0"),
        ("--seed 1 --seed -2 depth --curve --degrees 2 --lambda0 1 --lambda0 0",
         "--seed -2 depth --curve --degrees 2 --lambda0 0"),
        ("depth --surface p2 --surface p1xp1 --bundle O(F1) --lambda0 0",
         "depth --surface p1xp1 --bundle O(F1) --lambda0 0"),
    ])
    def test_argparse_forms_still_parse(self, argv, same):
        # abbreviations, name=value, negative numbers as values, and the
        # last of a repeated option
        got = run(argv.split())
        assert got == run(same.split())
        assert got[0] == 0, got

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["--format", "text", "-h"],
        *([name, "--help"] for name in cli._COMMANDS),
        ["depth", "-h", "--bogus"], ["mmp-depth", "--bogus", "--help"],
    ], ids=" ".join)
    def test_help_exits_zero_on_stdout(self, argv):
        rc, out, err = run(argv)
        assert (rc, err) == (0, "")
        assert out.startswith("usage: hierdepth ")
        command = cli._COMMANDS.get(argv[0], cli._GLOBAL)
        for option in command.options:
            assert option.name in out.splitlines()[0]

    @pytest.mark.parametrize(
        "keys,field",
        [
            pytest.param({"points": "0:0, 1:0"}, "points", id="zero-point"),
            pytest.param({"points": "5:10, 1:0"}, "points", id="zero-mod-p"),
            pytest.param({"summand": "-1"}, "summand", id="negative-degree"),
            pytest.param({"summand": "2; 1:1@0"}, "summand", id="order-zero"),
            pytest.param({"budget": "-3"}, "budget", id="negative-budget"),
            pytest.param({"budget": "0"}, "budget", id="zero-budget"),
            pytest.param({"points": "1:2:3, 1:0"}, "points", id="P1-point-3-coords"),
            pytest.param({"summand": "2; 1:2:3@1"}, "summand", id="P1-vanishing-3-coords"),
            pytest.param({"exceptional": "1:2:3"}, "exceptional", id="P1-exceptional-3-coords"),
            pytest.param(
                {"points": "all-rational", "exclude": "1:2:3"}, "exclude",
                id="P1-exclude-3-coords",
            ),
            pytest.param(
                {"space": "P2", "points": "1:2, 1:0:0"}, "points", id="P2-point-2-coords",
            ),
            pytest.param({"p": "x"}, "p", id="p-not-an-integer"),
            pytest.param({"summand": "a"}, "summand", id="degree-not-an-integer"),
            pytest.param({"summand": "2; 1:1@x"}, "summand", id="order-not-an-integer"),
            pytest.param({"budget": "1.5"}, "budget", id="budget-not-an-integer"),
            pytest.param(
                {"p": "2", "points": "all-rational", "exclude": ["1:0", "1:1", "0:1"]},
                "exclude", id="every-point-excluded",
            ),
            pytest.param({"space": "P3"}, "space", id="unknown-space"),
            pytest.param({"p": ["5", "7"]}, "p", id="p-twice"),
            pytest.param({"exclude": "1:0"}, "exclude", id="exclude-with-explicit-points"),
            pytest.param({"points": "1:x, 1:0"}, "points", id="point-not-integers"),
        ],
    )
    def test_malformed_config_exits_one(self, tmp_path, keys, field):
        keys = {"p": "5", "space": "P1", "summand": "1", "points": "1:0, 1:1", **keys}
        lines = [
            f"{k} = {v}\n" for k, vs in keys.items()
            for v in ([vs] if isinstance(vs, str) else vs)
        ]
        cfg = write_config(tmp_path, "".join(lines))
        assert_one_line_error(run(["code-analyze", "--config", cfg]), field)

    @pytest.mark.parametrize("text,field", [
        ("space = P1\nsummand = 1\npoints = 1:0, 1:1\n", "p"),
        ("p = 5\nspace = P1\nsummand = 1\n", "points"),
        ("p = 5\nspace P1\nsummand = 1\npoints = 1:0, 1:1\n", "config"),
    ])
    def test_config_missing_key_or_bad_line_exits_one(self, tmp_path, text, field):
        cfg = write_config(tmp_path, text)
        assert_one_line_error(run(["code-analyze", "--config", cfg]), field)

    def test_config_errors_name_the_key(self, tmp_path):
        bad = write_config(tmp_path, "p = 5\nspace = P1\npoints = 1:0\n")
        rc, _, err = run(["code-build", "--config", bad])
        assert rc == 1 and "summand" in err
        bad2 = write_config(tmp_path, "p = 5\nflavor = odd\n", name="b2.cfg")
        rc, _, err = run(["code-build", "--config", bad2])
        assert rc == 1 and "config" in err
        rc, _, err = run(["code-build", "--config", str(tmp_path / "missing.cfg")])
        assert rc == 1 and "config" in err

    def test_order_above_the_degree_answers_at_once(self, tmp_path):
        # 4.5 million derivative functionals unless the order is clamped
        cfg = write_config(
            tmp_path, "p = 5\nspace = P2\nsummand = 2; 1:0:0@3000\npoints = 1:1:1\n"
        )
        start = time.perf_counter()
        rc, out, err = run(["code-analyze", "--config", cfg])
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and out == ""
        assert err.startswith("error: EmptyMessageSpace:"), err

    @pytest.mark.parametrize(
        "space,p,refused",
        [
            pytest.param("P2", 65537, True, id="P2-65537"),
            pytest.param("P1", 2**31 - 1, True, id="P1-2^31-1"),
            pytest.param("P1", 2**18 - 5, False, id="P1-at-the-cap"),
        ],
    )
    def test_all_rational_listing_is_capped(self, tmp_path, space, p, refused):
        cfg = write_config(
            tmp_path, f"p = {p}\nspace = {space}\nsummand = 1\npoints = all-rational\n"
        )
        rep = code_build_capped(cfg, refused)
        assert refused or rep["N"] == p + 1

    @pytest.mark.parametrize(
        "space,summand,message_dim",
        [
            pytest.param("P2", "4000", None, id="P2-degree-4000"),
            pytest.param("P2", "90", None, id="P2-above-the-cap"),
            pytest.param("P1", "1000000000", None, id="P1-degree-1e9"),
            pytest.param("P2", "89; 1:0:0@1, 0:1:0@1", 4095 - 2, id="P2-at-the-cap"),
            # 465 functionals over 496 monomials build in about 0.1 s
            pytest.param("P2", "30; 1:0:0@30", 496 - 465, id="P2-465-functionals"),
            # 820 functionals over 4095 monomials took 18 s uncapped
            pytest.param("P2", "89; 1:0:0@40", None, id="P2-820-functionals"),
            # clamped at order 61: 1891 functionals over 1891 monomials
            pytest.param("P2", "60; 1:0:0@200", None, id="P2-1891-functionals"),
        ],
    )
    def test_monomials_per_summand_are_capped(self, tmp_path, space, summand, message_dim):
        # uncapped, degree 4000 on P2 asks for an identity on 8 006 001 monomials
        points = "1:1:1, 1:2:3" if space == "P2" else "1:1, 1:2"
        cfg = write_config(
            tmp_path, f"p = 5\nspace = {space}\nsummand = {summand}\npoints = {points}\n"
        )
        rep = code_build_capped(cfg, message_dim is None)
        assert rep is None or rep["message_dim"] == message_dim

    def test_non_prime_field_is_a_domain_error(self, tmp_path):
        cfg = write_config(tmp_path, "p = 9\nspace = P1\nsummand = 1\npoints = 1:0\n")
        rc, _, err = run(["code-build", "--config", cfg])
        assert rc == 2
        assert "NotPrime" in err


def test_readme_cli_examples_answer(tmp_path, monkeypatch):
    blocks = (ROOT / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    i = next(i for i, b in enumerate(blocks) if b.lstrip().startswith("hierdepth "))
    write_config(tmp_path, blocks[i + 1])  # the config block that follows
    monkeypatch.chdir(tmp_path)
    for line in blocks[i].strip().splitlines():
        argv = shlex.split(line)
        assert argv[0] == "hierdepth", line
        report_of(argv[1:])


def _envelope_dicts(node):
    return sum(
        isinstance(n, ast.Dict) and any(
            isinstance(k, ast.Constant) and k.value in ("seed", "subcommand") for k in n.keys
        )
        for n in ast.walk(node)
    )


def test_envelope_keys_sit_where_pinned():
    # main adds "subcommand" and "seed" to every report; a handler that
    # wrote them too would make two owners of the envelope.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    found = {f.name for f in functions if _envelope_dicts(f)}
    if _envelope_dicts(tree) > sum(_envelope_dicts(f) for f in functions):
        found.add("<module>")
    assert found == {"main"}


class TestOutputDiscipline:
    def test_reports_are_deterministic(self):
        argv = ["filtration", "--field", "7", "--degrees", "2,1", "--lambda0", "-1"]
        first = run(argv)
        second = run(argv)
        assert first == second

    def test_repeated_calls_answer_alike(self, tmp_path):
        # main keeps no state from one call to the next
        cfg = write_config(tmp_path, RS_CFG)
        calls = [
            ["hecke-verify", "--field", "7", "--degrees", "2,1",
             "--points", "0,1", "--covectors", "0,1;1,0"],
            ["hecke-verify", "--field", "7", "--degrees", "2,1", "--points", "0,1"],
            ["depth", "--curve", "--degrees", "2,1"],
            ["--format", "text", "depth", "--curve", "--degrees", "2,1", "--lambda0", "0"],
            ["code-analyze", "--config", cfg],
            ["--seed", "5", "mmp-depth", "--hmin", "1", "--alpha", "1", "--beta", "1"],
            ["depth", "--curve", "--degrees", "2,1", "--lambda0", "0"],
            ["depth", "--help"],
        ]
        first = [run(argv) for argv in calls]
        again = [run(argv) for argv in calls]
        assert again == first
        assert [rc for rc, _, _ in first] == [0, 0, 1, 0, 0, 0, 0, 0]
        default = json.loads(first[1][1])["covectors"]
        assert default != json.loads(first[0][1])["covectors"]

    @pytest.mark.parametrize("argv", [
        ["depth", "--curve", "--degrees", "2,1", "--lambda0", "0"],
        ["mmp-depth", "--hmin", "1", "--alpha", "1", "--beta", "1"],
        ["filtration", "--field", "7", "--degrees", "2,1", "--lambda0", "0"],
        ["hecke-verify", "--field", "7", "--degrees", "2,1", "--points", "0,1"],
        ["code-build", "--config"],
        ["code-analyze", "--config"],
        ["mmp-compare", "--config"],
    ], ids=lambda argv: argv[0])
    def test_seed_is_echoed(self, tmp_path, argv):
        if argv[-1] == "--config":
            argv = argv + [write_config(tmp_path, RS_CFG)]
        rep = report_of(["--seed", "3", *argv])
        assert (rep["seed"], rep["subcommand"]) == (3, argv[0])

    def test_text_format_is_flat_and_sorted(self):
        rc, out, _ = run(
            ["--format", "text", "depth", "--curve", "--degrees", "2,1", "--lambda0", "0"]
        )
        assert rc == 0
        keys = [line.split(":", 1)[0] for line in out.strip().splitlines()]
        assert keys == sorted(keys)
        assert "value: 3" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hierdepth.cli",
             "depth", "--curve", "--degrees", "3,1,0", "--lambda0", "0"],
            capture_output=True, text=True, env=module_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 4


NUMPY_FREE_REPORTS = {
    "depth-curve": "depth --curve --degrees 3,1,0 --lambda0 0",
    "depth-p2": "depth --surface p2 --bundle O(0)+O(3H) --lambda0 0",
    "depth-p1xp1": "depth --surface p1xp1 --bundle O(2F1+3F2)+O(0) --lambda0 0",
    "mmp-depth": "mmp-depth --hmin 5 --alpha 2,4 --beta 0,1",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(NUMPY_FREE_REPORTS))
def test_numpy_free_reports_are_byte_stable(name, fmt):
    # tests/golden holds these reports as written while every subcommand
    # still imported numpy at start-up; stdout must not change by a byte
    suffix = {"json": "json", "text": "txt"}[fmt]
    golden = ROOT / "tests" / "golden" / f"{name}.{suffix}"
    rc, out, err = run(["--format", fmt, *NUMPY_FREE_REPORTS[name].split()])
    assert (rc, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


# the numpy subcommands, infeasible and no-filtration reports (nested dicts,
# lists of lists, nulls, empty lists); {cfg} stands for SCALED_CFG and
# {cfg1} for it at budget 1
REPORT_SHAPES = {
    "hecke-verify": "hecke-verify --field 5 --degrees 1,1 --points 2,inf --covectors 1,0;0,1",
    "code-build": "code-build --config {cfg}",
    "code-analyze": "code-analyze --config {cfg}",
    "code-analyze-infeasible": "code-analyze --config {cfg1}",
    "mmp-compare": "mmp-compare --config {cfg}",
    "mmp-compare-infeasible": "mmp-compare --config {cfg1}",
    "filtration-no-filtration": "filtration --field 5 --degrees 1 --lambda0 3",
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", sorted(REPORT_SHAPES))
def test_report_shapes_are_byte_stable(tmp_path, name, fmt):
    # tests/golden holds these reports as written by json.dumps(indent=2)
    # before the report writer replaced it; stdout must not change by a byte
    cfg = write_config(tmp_path, SCALED_CFG)
    cfg1 = write_config(tmp_path, SCALED_CFG + "budget = 1\n", name="budget1.cfg")
    argv = REPORT_SHAPES[name].format(cfg=cfg, cfg1=cfg1).split()
    suffix = {"json": "json", "text": "txt"}[fmt]
    golden = ROOT / "tests" / "golden" / f"{name}.{suffix}"
    rc, out, err = run(["--format", fmt, *argv])
    assert (rc, err) == (0, "")
    assert out == golden.read_text(encoding="utf-8")


def json_dumps_text(obj, prefix=""):
    """The text form as written while json.dumps encoded every leaf."""
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            head = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            lines.extend(json_dumps_text(obj[key], head))
    else:
        lines.append(f"{prefix}: {json.dumps(obj)}")
    return lines


# shaped like reports: keys with escapes and non-ASCII, scalars, and nested,
# mixed or empty lists and dicts; tuples encode as lists, floats go through
# json.dumps
REPORT_KEYS = st.text(alphabet=st.characters(), max_size=6)
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False),
    lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(REPORT_KEYS, inner, max_size=4)
    ),
    max_leaves=24,
)


@example({"mixed": [1, True], "matrix": [[1, 0], [0, 1]]})
@example({"": [], "e": {}, "é\n\"": ["☃", "\\", None, False, -0]})
@given(st.dictionaries(REPORT_KEYS, REPORT_VALUES, max_size=6))
def test_reports_are_written_as_json_dumps_writes_them(report):
    assert cli.render(report, "json") == json.dumps(report, sort_keys=True, indent=2)
    assert cli.render(report, "text") == "\n".join(json_dumps_text(report))


def _indent_dumps(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name in ("dump", "dumps") and any(kw.arg == "indent" for kw in node.keywords)


def test_no_report_goes_through_the_indenting_encoder():
    # json's C encoder runs only without an indent; with one, every element
    # goes through its pure-Python encoder. cli._encode writes those bytes.
    src = ROOT / "src" / "hierdepth"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _indent_dumps(node)
    ]
    assert found == []


def test_no_module_imports_argparse():
    # argv is read from cli's option table; argparse's parser cost several
    # times the table's per request
    src = ROOT / "src" / "hierdepth"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name == "argparse" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "argparse"
    ]
    assert found == []


STARTUP_PROBE = """
import contextlib, io, sys

def loaded():
    return "numpy" in sys.modules

import hierdepth
assert not loaded(), "import hierdepth"
from hierdepth import cli
assert not loaded(), "import hierdepth.cli"

def call(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as e:
            return e.code

for argv, rc in [
    (["depth", "--curve", "--degrees", "3,1,0", "--lambda0", "0"], 0),
    (["depth", "--surface", "p2", "--bundle", "O(0)+O(3H)", "--lambda0", "0"], 0),
    (["mmp-depth", "--hmin", "5", "--alpha", "2,4", "--beta", "0,1"], 0),
    (["mmp-depth", "--hmin", "5", "--alpha", "2,4", "--beta", "3,1"], 2),
    (["depth", "--curve", "--degrees", "3,,1", "--lambda0", "0"], 1),
    (["filtration", "--field", "5"], 1),
    (["filtration", "--field", "5", "--degrees", "3,1,0", "--lambda0", "0"], 0),
    (["filtration", "--field", "101", "--degrees", "40,40,20", "--lambda0", "0"], 0),
    (["filtration", "--field", "5", "--degrees", "1", "--lambda0", "3"], 0),
    (["filtration", "--field", "6", "--degrees", "3,1,0", "--lambda0", "0"], 2),
    (["filtration", "--field", "2", "--degrees", "2", "--lambda0", "-2"], 2),
    (["filtration", "--field", "7", "--degrees", "384", "--lambda0", "382"], 2),
    (["--help"], 0),
]:
    assert call(argv) == rc, argv
    assert not loaded(), argv
assert call(["hecke-verify", "--field", "7", "--degrees", "2,1", "--points", "0,1"]) == 0
assert loaded(), "hecke-verify"
print("ok")
"""


def test_depth_subcommands_start_without_numpy():
    # a fresh interpreter: the test session itself has numpy loaded. The
    # filtration cases are an ok report, no-filtration, and the refusals
    # NotPrime, NotEnoughPoints and WidthTooLarge; hecke-verify needs numpy
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE],
        capture_output=True, text=True, env=module_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


# every name the package exports, under the module that defines it
PACKAGE_EXPORTS = {
    "errors": (
        "DuplicatePoint", "EmptyCode", "EmptyMessageSpace",
        "HierdepthError", "INFEASIBLE", "LatticeMismatch", "NO_DECOMPOSITION",
        "NO_FILTRATION", "NegativeM", "NotEffective", "NotEnoughPoints", "NotPrime",
        "OverlappingSupport", "Sentinel", "ShapeMismatch", "TooLarge",
        "VacuousTransform", "WidthTooLarge",
    ),
    "picard": (
        "DivisorClass", "Lattice", "LatticeKind", "blowup_split", "decompose_max",
        "intersect", "is_effective", "parse_class", "pullback",
    ),
    "bundle": ("SplitBundle", "parse_bundle"),
    "depth": (
        "HierFiltration", "curve_split_depth", "mmp_exact_depth", "rank_one_bound",
        "surface_split_depth", "verify_filtration",
    ),
    "field": ("Field",),
    "gf": ("FMatrix", "dot_mod", "kernel_basis", "rank", "rref"),
    "curve": (
        "INFINITY", "RationalPoint", "build_curve_filtration", "enumerate_points",
        "point_at",
    ),
    "hecke": (
        "PointFunctional", "SubsheafModel", "apply_transform", "commute_check",
        "first_usable_covector", "full_sections",
    ),
    "agcode": (
        "DEFAULT_BUDGET", "LinearCode", "SectionBasis", "VanishingCondition",
        "all_rational_points", "append_zero_blocks", "build_code", "min_distance",
        "mmp_compare", "permute_points", "vanishing_basis",
        "zero_block_contract", "zero_blocks",
    ),
}


@pytest.mark.parametrize("module", sorted(PACKAGE_EXPORTS))
def test_package_exports_every_earlier_name(module):
    import hierdepth

    defining = importlib.import_module(f"hierdepth.{module}")
    listed = dir(hierdepth)
    for name in (module, *PACKAGE_EXPORTS[module]):
        ns = {}
        exec(f"from hierdepth import {name} as got", ns)
        want = defining if name == module else getattr(defining, name)
        assert ns["got"] is want, name
        assert getattr(hierdepth, name) is want, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        hierdepth.no_such_name


def test_cli_still_reads_its_agcode_names():
    # the benchmark's tracer reads cli.build_code; no other agcode name is served
    from hierdepth import agcode

    assert cli.build_code is agcode.build_code
    for name in ("vanishing_basis", "min_distance"):
        with pytest.raises(AttributeError):
            getattr(cli, name)


# Exports kept without a caller: ROADMAP item 7 (depth on blown-up planes)
# takes its inputs from them.
UNCALLED_EXPORTS = {"blowup_split", "pullback"}

# Members kept without a caller: a chain's start is the replay oracle's
# starting model for the closed-form picks, and ROADMAP item 8's witness
# reads it.
UNCALLED_MEMBERS = {"TransformChain.start"}


def loaded_names():
    """Names and attribute names loaded in src/hierdepth (outside __init__),
    scripts/, perfbench/ or the acceptance criteria; unit tests and the
    export pin do not count."""
    paths = [q for q in (ROOT / "src" / "hierdepth").glob("*.py") if q.name != "__init__.py"]
    paths += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    paths.append(ROOT / "tests" / "test_acceptance.py")
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    return names, attributes


def test_every_export_has_a_caller():
    # a name counts as read where it is loaded, as a name or as an attribute
    import hierdepth

    names, attributes = loaded_names()
    exported = {
        name for name in dir(hierdepth)
        if not name.startswith("_") and not inspect.ismodule(getattr(hierdepth, name))
    }
    assert sorted(exported - names - attributes - UNCALLED_EXPORTS) == []


def test_every_class_member_has_a_caller():
    # a public method, property or dataclass field of a class the package
    # defines counts as read where it is loaded as an attribute
    import hierdepth

    members = set()
    for info in pkgutil.iter_modules(hierdepth.__path__):
        module = importlib.import_module(f"hierdepth.{info.name}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
            names = [f.name for f in fields]
            names += [name for name, value in vars(cls).items() if inspect.isfunction(value)
                      or isinstance(value, (property, classmethod, staticmethod))]
            members |= {f"{cls.__name__}.{name}" for name in names if not name.startswith("_")}
    assert len(members) > 50
    _, attributes = loaded_names()
    uncalled = {member for member in members if member.split(".")[1] not in attributes}
    assert sorted(uncalled - UNCALLED_MEMBERS) == []
