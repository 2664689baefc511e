"""Command-line surface: subcommands, exit codes, file outputs, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsurf import catalog as cat
from affsurf import cli

CMD = [sys.executable, "-m", "affsurf"]
#: the subprocesses import the same affsurf as this module, installed or not
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(*args, timeout=240):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          timeout=timeout, env=ENV)


def run_json(*args, **kw):
    r = run(*args, **kw)
    assert r.returncode in (0, 1), r.stderr
    return r.returncode, json.loads(r.stdout)


class TestCatalog:
    def test_plane_families_count(self):
        code, d = run_json("catalog", "--type", "A")
        assert code == 0 and d["count"] == 15

    def test_half_plane_families_count(self):
        code, d = run_json("catalog", "--type", "B")
        assert code == 0 and d["count"] == 14

    def test_family_guard_text(self):
        code, d = run_json("catalog", "--family", "A.M24")
        assert code == 0 and d["guard"] == "c ∉ {0, -1}"

    def test_listing_is_deterministic(self):
        a = run("catalog").stdout
        b = run("catalog").stdout
        assert a == b

    def test_records_dump(self):
        code, d = run_json("catalog", "--records", "--family", "B.N43")
        assert code == 0 and d["count"] == 1
        r = d["records"][0]
        assert r["spec"]["kind"] == "inverse-x1"
        assert r["q_basis"][0] == "x1^(-1)"
        assert r["expected"]["killing_complete"] is True

    def test_full_atlas_dump(self):
        code, d = run_json("catalog", "--records")
        assert code == 0 and d["count"] == 73


#: sha256 of the stdout of `affsurf catalog <args>`; a refactor of the
#: catalog keeps every listing and record dump byte-identical
CATALOG_DIGESTS = [
    ("", "76e1736970a957f3ea31fa3a2111967e5744f8e717822ac7bd75c17e93ff40d2"),
    ("--records", "e68016da01e68c67609ea1d223cc47ffc886ac0fd20351e3a1e025c3bbc0c40f"),
    ("--family A.M06", "75139d31d8dde7572e4146d01f0cc19fcaf1fc21c8c686f0261e53b8f310e50c"),
    ("--family A.M16", "be0ab7b0ceaa542f9755dcafab80ce1e18d06db2ec6d1b2dc69562d6599cd363"),
    ("--family A.M26", "f7a21a9a05be996df36f4f759261f16f9f790b75b56531d1b61c156b1dde0248"),
    ("--family A.M36", "214d7c41ba4ea147d2559817ab8d0d84ed84595776a4abdc6e3adc22f5852b27"),
    ("--family A.M46", "b6c591a920ad383f4870b34237108e9567292326f7566153f4cf59466e05eadf"),
    ("--family A.M56", "8c92fa778a6607d0ba1c7ab5ebab327d27288ae7198dd4d155fccff42e0c4816"),
    ("--family A.M14", "20b8b0147d2caf29cec51f6317a8eca453c9965a0a209cf70fee49c6dc0f8dc1"),
    ("--family A.M24", "fd92d31cb1c1938ed4a1bbc264bf1235aca15e8ffe74c2a290456d7ef0a2f713"),
    ("--family A.M34", "6dcc4c7b22f29858a8ed93384f295da73cd4bf3cc2a118b0add255e2f47293af"),
    ("--family A.M44", "0321c3bbe785705e89a6febdb8246558e451121d76f904e59ea87944e20b18c6"),
    ("--family A.M54", "c259fb4fb44f72c59947006857286139c35727687d1bcf17433787c9b1d4ba71"),
    ("--family A.M54t", "d1e0bc0cc4cefbc247cbb8b27623c605a7603e62d60e37764fca955969f85ae1"),
    ("--family A.M12", "b7de712644a67a413e5012df79a211e79d53a72c4e61e565718a721cfea4f6a8"),
    ("--family A.M22", "0b4f80ec5c53cf968447093ca6978bd21b0415fdc0b6f6bc228ae239c26876ad"),
    ("--family A.M32", "0c2a5628bb585e18d6716258c8d21b5be3c504e07ff73c22d83a8b3d57c16c44"),
    ("--family A.M42", "665d4f2a0775fa63c62630b9a3f4a05aabd6d963a1d177bdd17ed99659edae33"),
    ("--family B.N06", "19eacd13a71ade47df47d38b147adb60e12d2c666dcdf46ca61cbbaf8241bfc0"),
    ("--family B.N16", "a8fd5da5383e9979acd81fec6199de8210bec8c40b6cc2c3730d90a607594dd7"),
    ("--family B.N26", "8dc5d6cc183d3b8fdbc7120c9d08d2e90515cb3f05e6e7d691aa8fb9bc58be7e"),
    ("--family B.N36", "22ab3d5613fa09ae6eebf3a204423d61f9a45bc762fd5ad199be40b8f77e0c72"),
    ("--family B.N46", "4b4da31b6ae4ce1cf2d37e6b1561126b0023d8ccfc66dc2ca25da106b3723560"),
    ("--family B.N56", "f81a3c68bc2e7bc284b27e565677c25b04fcb18a0360a4f113e33e09304e34f9"),
    ("--family B.N66", "fd1e4116eb1530a873711e462a8bd2a54423e9e270486e97d07641b840b88e70"),
    ("--family B.N14", "88d02fcbd6985779e6bb0c05b6b736bbc0988e06a8cea5700f4b36d365cc4bcb"),
    ("--family B.N24", "efa80a9fde4435a629b77c8250dc1af4a96fe3a71d94eea9caa468a054d22b6e"),
    ("--family B.N34", "432d9df87597a70369e05f2233cf78bbc840402b39ead3039626db241b37b8d6"),
    ("--family B.N13", "5abbe45500006b13ae464835cbcc5aad2d276c08b3d655a5377d46490364f277"),
    ("--family B.N23", "9623477b9b202a4c73328a7ec9ae70ea2937d5b33bc61ee4fbaf1785554300a8"),
    ("--family B.N33", "3a1c93b9b10d9e73f17b23e02706d2b6f8dbe05b1e8b2e481eaf450a00546784"),
    ("--family B.N43", "b9cf61b00bedbdddde714aa42e068a9d88332b156fdca7a6cd278108f842e742"),
]


class TestCatalogGolden:
    @pytest.mark.parametrize("args,digest", CATALOG_DIGESTS,
                             ids=[a or "listing" for a, _ in CATALOG_DIGESTS])
    def test_output_digest(self, args, digest):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(["catalog", *args.split()]) == 0
        assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest

    def test_every_family_is_pinned(self):
        assert [a.split()[-1] for a, _ in CATALOG_DIGESTS[2:]] == list(cat.FAMILIES)


class TestVerify:
    def test_single_model_passes(self):
        code, d = run_json("verify", "A.M12", "--a1", "2", "--a2", "3")
        assert code == 0 and d["pass"] is True
        entry = d["results"][0]
        assert entry["qe"]["pass"] and entry["flatten"]["pass"]

    def test_guard_error_exit_code(self):
        r = run("verify", "A.M24", "--c", "0")
        assert r.returncode == 2
        assert "violated" in r.stderr

    def test_family_flag_mismatch(self):
        r = run("geodesic", "A.M36", "--c", "-0.5", "--init", "0,0,1,1")
        assert r.returncode == 2

    def test_unknown_family(self):
        r = run("verify", "A.M99")
        assert r.returncode == 2

    def test_half_plane_model(self):
        code, d = run_json("verify", "B.N43")
        assert code == 0 and d["pass"] is True

    @pytest.mark.parametrize("c", ["1e-6", "-1e-6", "3e-6", "1e-12"])
    def test_rank_one_family_flattens_near_zero(self, c):
        # the flattening cubic's triple root, magnified by lam = 1/c, once
        # made these exit 1
        code, d = run_json("verify", "A.M44", f"--c={c}")
        assert code == 0 and d["results"][0]["flatten"]["phi"][1] == 1.0

    def test_whole_atlas_passes(self):
        code, d = run_json("verify", "--all")
        assert code == 0 and d["pass"] is True
        assert len(d["results"]) == 73


class TestGeodesic:
    def test_blowup_verdict_and_files(self, tmp_path):
        csv = tmp_path / "traj.csv"
        svg = tmp_path / "traj.svg"
        code, d = run_json("geodesic", "A.M26", "--init", "0,0,1,1", "--T", "5",
                           "--csv", str(csv), "--svg", str(svg))
        assert code == 0
        assert d["forward"]["status"] == "blowup"
        lo, hi = d["forward"]["t_star_bracket"]
        assert lo <= 1.0 <= hi and hi - lo <= 1e-3
        text = csv.read_text()
        assert text.splitlines()[0] == "t,x1,x2,v1,v2"
        assert svg.read_text().startswith("<svg")

    def test_flat_plane_reaches_horizon(self):
        code, d = run_json("geodesic", "A.M06", "--init", "0,0,1,1", "--T", "5")
        assert code == 0 and d["forward"]["status"] == "reached-horizon"


class TestFlow:
    def test_quadratic_witness_escape(self):
        code, d = run_json("flow", "B.N13p", "--init", "1,-1", "--T", "10")
        assert code == 0
        assert d["escape"] is True
        assert d["backward"]["status"] == "blowup"
        lo, hi = d["backward"]["t_star_bracket"]
        assert lo <= -1.0 <= hi

    def test_flow_csv_headers(self, tmp_path):
        csv = tmp_path / "flow.csv"
        code, d = run_json("flow", "A.M06", "--init", "1,0", "--field", "1",
                           "--T", "3", "--csv", str(csv))
        assert code == 0
        assert csv.read_text().splitlines()[0] == "t,x1,x2"


class TestFlatten:
    def test_rank_one_family(self):
        code, d = run_json("flatten", "A.M34", "--c", "0.25")
        assert code == 0 and d["pass"] is True
        assert abs(d["phi"][0]) < 1e-12 and abs(d["phi"][1] - 0.25) < 1e-12

    def test_half_plane_rejected(self):
        r = run("flatten", "B.N43")
        assert r.returncode == 2


class TestPlot:
    def test_pure_function_of_csv(self, tmp_path):
        csv = tmp_path / "t.csv"
        csv.write_text("t,x1,x2\n0.0,0.0,0.0\n1.0,1.0,0.5\n2.0,2.0,2.0\n")
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        assert run("plot", "--csv", str(csv), "--svg", str(svg1)).returncode == 0
        assert run("plot", "--csv", str(csv), "--svg", str(svg2)).returncode == 0
        assert svg1.read_text() == svg2.read_text()
        assert "polyline" in svg1.read_text()

    def test_missing_csv_is_io_error(self, tmp_path):
        r = run("plot", "--csv", str(tmp_path / "nope.csv"), "--svg", str(tmp_path / "o.svg"))
        assert r.returncode == 3

    @pytest.mark.parametrize("text", ["", "t,x1,x2\n", "t,x1,x2\n0,1\n",
                                      "t,x1,x2\n0,1,nan\n1,2,nan\n"],
                             ids=["empty", "header-only", "short-row", "nan"])
    def test_malformed_csv_is_usage_error(self, tmp_path, text):
        csv = tmp_path / "t.csv"
        csv.write_text(text)
        r = run("plot", "--csv", str(csv), "--svg", str(tmp_path / "o.svg"))
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "o.svg").exists()


class TestTable:
    def test_usage_error_on_unknown_table(self):
        r = run("table", "--theorem", "9.9")
        assert r.returncode == 2

    @pytest.mark.slow
    def test_half_plane_killing_table_agrees(self):
        # catalog escapes all happen within |t| < 3; a reduced horizon keeps
        # this a smoke test (the acceptance suite runs the full defaults)
        code, d = run_json("table", "--theorem", "1.10", "--T", "8", timeout=600)
        assert code == 0 and d["agree"] is True
        rows = {r["model"]: r for r in d["rows"]}
        assert rows["B.N43"]["complete"] is True
        assert rows["B.N33"]["complete"] is False


class TestBadInput:
    """Out-of-contract input exits 2 with a one-line message, never a
    traceback and never the mismatch code 1."""

    @pytest.mark.parametrize("args", [
        ("verify", "A.M34", "--c", "nan"),
        ("verify", "A.M24", "--c", "1000"),
        ("verify", "A.M34", "--c", "1e200"),
        ("verify", "A.M06", "--grid", "0"),
        ("verify", "--all", "A.M06"),
        ("verify", "--all", "--sign", "+"),
        ("table", "--theorem", "1.7", "--T", "nan"),
        ("table", "--theorem", "1.7", "--T", "-5"),
        ("flow", "A.M06", "--init", "0,0", "--T", "inf"),
        ("geodesic", "A.M06", "--init", "nan,0,1,1"),
    ])
    def test_exit_2_without_traceback(self, args):
        r = run(*args)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.splitlines()[-1].startswith("error: ")
        assert len(r.stderr.splitlines()) == 1

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--all", "A.M44", "--c", "0.5"],
         "verify --all takes no family or family parameter"),
        (["table", "--theorem", "1.10", "--seed", "-1"],
         "--seed must be a non-negative integer, got -1"),
    ], ids=["verify-all-with-family", "negative-seed"])
    def test_rejected_before_any_check(self, monkeypatch, capsys, argv, message):
        """verify --all with a family, and a negative --seed, are usage
        errors that name the options, raised before any record is built."""
        def unreachable(*args, **kwargs):
            raise AssertionError("a record was built")
        monkeypatch.setattr(cat, "all_records", unreachable)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_runtime_error_maps_to_exit_2(self, monkeypatch, capsys):
        # the real run (A.M32 at c = -0.5 along this direction, T = 200)
        # exhausts max_steps after about 23 s; the handler is what is tested
        from affsurf import cli

        def exhausted(*args, **kwargs):
            raise RuntimeError("integrator exceeded max_steps")
        monkeypatch.setattr(cli.geo, "geodesic_integrate", exhausted)
        code = cli.main(["geodesic", "A.M32", "--c", "-0.5", "--init",
                         "0,0,-0.9969223428344534,-0.07839542306451668", "--T", "200"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: RuntimeError: integrator exceeded max_steps\n"

    def test_memory_error_maps_to_exit_2(self, monkeypatch, capsys):
        # the real run, `verify A.M06 --grid 30000`, asks for about 90 GB;
        # under a memory limit sample_grid raises MemoryError
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cat, "sample_grid", exhausted)
        code = cli.main(["verify", "A.M06", "--grid", "30000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


#: extreme and non-finite magnitudes, plus the values the family guards
#: exclude or single out (c in {0, -1}, b1 = 1, a1 + a2 = 1, c = -0.5)
HOSTILE_VALUES = ("1e-300", "-1e-300", "1e300", "-1e300", "1e16", "-1e16", "5e-324",
                  "nan", "inf", "-inf", "0", "-1", "1", "0.5", "-0.5")

PARAMETERISED = [f.name for f in cat.FAMILIES.values() if f.param_names]


class TestHostileParameters:
    """verify on any parameter value exits 0, 1 with a failing report, or 2
    with one error line; no exception escapes cli.main."""

    @pytest.mark.parametrize("family", PARAMETERISED)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_verify_exits_cleanly(self, family, data):
        names = cat.FAMILIES[family].param_names
        vals = data.draw(st.tuples(*(st.sampled_from(HOSTILE_VALUES) for _ in names)))
        # --name=value: argparse would read "--c -1e16" as two flags
        argv = ["verify", family] + [f"--{n}={v}" for n, v in zip(names, vals)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert json.loads(stdout.getvalue())["pass"] is False, argv
        if code == 2:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


class TestNonFiniteReport:
    def test_nan_residual_reports_failure(self):
        # kappa = 1e300 overflows the symbols: NaN residuals fail their checks
        # and are written as the string "nan", keeping the output strict JSON
        r = run("verify", "B.N14", "--kappa", "1e300")
        assert r.returncode == 1, r.stderr
        d = json.loads(r.stdout)
        assert d["pass"] is False
        entry = d["results"][0]
        assert entry["qe"]["residuals"] == ["nan", "nan", "nan"]
        assert entry["killing_residuals"][3] == "nan"


class TestDeterminism:
    def test_verify_byte_identical(self):
        a = run("verify", "B.N16", "--sign", "+1").stdout
        b = run("verify", "B.N16", "--sign", "+1").stdout
        assert a == b and a
