"""Command-line surface: subcommands, exit codes, file outputs, determinism."""

import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsurf import catalog as cat
from affsurf import cli

CMD = [sys.executable, "-m", "affsurf"]


def run(*args, timeout=240):
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          timeout=timeout)


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
