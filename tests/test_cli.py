import csv
import io
import json
import os
import subprocess
from fractions import Fraction
from types import SimpleNamespace

import pytest
from support import run_python

from orddiv import base, cli
from orddiv.arith import factorize
from orddiv.cli import decimal_string, main
from orddiv.density import density
from orddiv.tables import TABLE_NEGATIVE, TABLE_POSITIVE


class TestDecimalString:
    def test_examples(self):
        assert decimal_string(Fraction(17, 24)) == "0.70833333"
        assert decimal_string(Fraction(1, 12)) == "0.08333333"
        assert decimal_string(Fraction(1, 16)) == "0.06250000"
        assert decimal_string(Fraction(2, 3)) == "0.66666667"
        assert decimal_string(Fraction(1)) == "1.00000000"

    def test_round_half_even(self):
        assert decimal_string(Fraction(3, 2 * 10**8)) == "0.00000002"
        assert decimal_string(Fraction(1, 2 * 10**8)) == "0.00000000"
        assert decimal_string(Fraction(5, 2 * 10**8)) == "0.00000002"

    def test_negative(self):
        assert decimal_string(Fraction(-1, 2)) == "-0.50000000"


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["density", "-g", "2", "-d", "8"]) == 0
        assert "delta    = 1/12 = 0.08333333" in capsys.readouterr().out

    def test_usage_error_on_unit_base(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "-g", "1", "-d", "2"])
        assert exc.value.code == 2
        assert "outside {-1, 0, 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["2/0", "0/0"])
    def test_zero_denominator_is_one_line(self, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "-g", text, "-d", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument -g: the denominator of {text!r} is zero")
        assert "Fraction(" not in err

    def test_usage_error_on_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["density", "-g", "2", "-d", "2", "--bogus"])
        assert exc.value.code == 2

    def test_verify_pass_is_zero(self, capsys):
        assert main(["verify", "-g", "2", "-d", "4", "-x", "10000"]) == 0
        assert "result = PASS" in capsys.readouterr().out

    def test_oracle_pass_is_zero(self, capsys):
        assert main(["oracle", "-g", "2", "-d", "2", "--vmax", "8"]) == 0
        out = capsys.readouterr().out
        assert "partial    = 45/64" in out
        assert "exact      = 17/24  (== delta, every v)" in out
        assert "bracket    = PASS" in out

    def test_oracle_fail_is_one(self, monkeypatch, capsys):
        # a closed form outside the series bracket is a FAIL, and main returns 1
        monkeypatch.setattr(cli, "density", lambda g, d: SimpleNamespace(delta=Fraction(1)))
        assert main(["oracle", "-g", "2", "-d", "2", "--vmax", "8", "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["bracket"] == "FAIL"

    def test_oracle_exact_mismatch_is_one(self, monkeypatch, capsys):
        # an exact series sum off the closed form fails even inside the bracket
        exact = cli.series_exact
        monkeypatch.setattr(cli, "series_exact", lambda g, d: exact(g, d) + 1)
        assert main(["oracle", "-g", "2", "-d", "2", "--vmax", "8", "--format", "json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert (out["bracket"], out["exact"], out["delta"]) == ("PASS", "41/24", "17/24")

    def test_oracle_factors_g_once(self, monkeypatch, capsys):
        # the three routes share one decomposition: |g1| and g2 are factored once each
        calls = []
        monkeypatch.setattr(base, "factorize", lambda n: calls.append(n) or factorize(n))
        assert main(["oracle", "-g", "1000136000399", "-d", "2", "--vmax", "64"]) == 0
        assert calls == [1000136000399, 1]
        assert "bracket    = PASS" in capsys.readouterr().out

    def test_bad_threads_env(self):
        # a garbage ORDDIV_THREADS is a usage error of census alone
        def run(*argv):
            return run_python("-m", "orddiv.cli", *argv, env={"ORDDIV_THREADS": "abc"})

        census = run("census", "-g", "2", "-d", "2", "-x", "100")
        assert census.returncode == 2
        assert "Traceback" not in census.stderr
        assert census.stderr.startswith("usage:")
        assert "error: argument --threads" in census.stderr
        assert "'abc' is not a positive integer" in census.stderr
        assert "ORDDIV_THREADS" in census.stderr
        assert run("density", "-g", "2", "-d", "2").returncode == 0

    @pytest.mark.parametrize("argv", [
        ["oracle", "-g", "2", "-d", "30", "--vmax", "65536", "--format", "json"],
        ["density", "-g", "2", "-d", "2", "--format", "json"],
    ])
    def test_closed_stdout_exits_quietly(self, argv):
        # stdout is a pipe whose reader has already gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = run_python("-m", "orddiv.cli", *argv, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (1, b"")

    @pytest.mark.parametrize("argv", [
        ["density", "-g", "2", "-d", "abc"],
        ["census", "-g", "2", "-d", "2", "-x", "abc"],
        ["census", "-g", "2", "-d", "2", "-x", "0"],
    ])
    def test_bad_integer_names_the_rule(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-1]!r} is not a positive integer" in err
        assert "_positive_int" not in err

    @pytest.mark.parametrize("case", ["directory", "missing_dir", "not_utf8", "devnull"])
    def test_unusable_checkpoint_is_one_line(self, tmp_path, capsys, case):
        # os.devnull reads as empty but cannot be truncated
        path = {"directory": tmp_path, "missing_dir": tmp_path / "no" / "cp.jsonl",
                "not_utf8": tmp_path / "cp.jsonl", "devnull": os.devnull}[case]
        if case == "not_utf8":
            path.write_bytes(b"\xff\xfe\n")
        code = main(["census", "-g", "2", "-d", "2", "-x", "50000",
                     "--segment-size", "10000", "--checkpoint", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error: ") and err.count("\n") == 1
        assert str(path) in err

    def test_torn_tail_warns_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "cp.jsonl"
        argv = ["census", "-g", "2", "-d", "2", "-x", "50000",
                "--segment-size", "10000", "--checkpoint", str(path)]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        path.write_bytes(path.read_bytes()[:-10])
        resumed = run_python("-m", "orddiv.cli", *argv)
        assert resumed.returncode == 0
        assert resumed.stdout == fresh
        assert resumed.stderr.count("\n") == 1
        assert str(path) in resumed.stderr and "bytes" in resumed.stderr

    @pytest.mark.parametrize("counted", ["-5", "5000", "true", "1e3", '"878"'])
    def test_invalid_count_is_one_line(self, tmp_path, capsys, counted):
        # line 1 holds segment (3, 10002): 878 of its 1228 primes counted
        path = tmp_path / "cp.jsonl"
        argv = ["census", "-g", "2", "-d", "2", "-x", "30000",
                "--segment-size", "10000", "--checkpoint", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        path.write_text(path.read_text().replace('"counted": 878', f'"counted": {counted}'))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"checkpoint error: {path}: line 1 is not a valid record: ")

    def test_checkpoint_mismatch_is_one(self, tmp_path, capsys):
        path = tmp_path / "cp.jsonl"
        assert main(["census", "-g", "2", "-d", "2", "-x", "50000",
                     "--segment-size", "10000", "--checkpoint", str(path)]) == 0
        code = main(["census", "-g", "3", "-d", "2", "-x", "50000",
                     "--segment-size", "10000", "--checkpoint", str(path)])
        assert code == 1
        assert "checkpoint error" in capsys.readouterr().err


class TestDensityCommand:
    def test_examples(self, capsys):
        main(["density", "-g", "-4", "-d", "2"])
        out = capsys.readouterr().out
        assert "epsilon1 = 2" in out
        assert "delta    = 2/3" in out
        main(["density", "-g", "7", "-d", "1"])
        assert "delta    = 1 = 1.00000000" in capsys.readouterr().out

    def test_json_roundtrip(self, capsys):
        main(["density", "-g", "-9", "-d", "6", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        report = density(-9, 6)
        assert Fraction(payload["delta"]) == report.delta
        assert Fraction(payload["epsilon1"]) == report.epsilon1
        assert Fraction(payload["s_factor"]) == report.s_factor
        assert payload["gamma"] == report.gamma
        assert payload["case_label"] == report.case_label
        assert payload["h"] == report.decomposition.h
        assert payload["disc"] == report.decomposition.disc

    def test_csv_roundtrip(self, capsys):
        main(["density", "-g", "8/27", "-d", "4", "--format", "csv"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        report = density("8/27", 4)
        assert Fraction(rows[0]["delta"]) == report.delta
        assert int(rows[0]["d"]) == 4
        assert rows[0]["g"] == "8/27"
        assert rows[0]["g0"] == "2/3"


class TestTableCommand:
    @pytest.mark.parametrize("which,fixture", [(2, TABLE_POSITIVE), (3, TABLE_NEGATIVE)])
    def test_rows_match_fixture_exactly(self, which, fixture, capsys):
        main(["table", str(which), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == len(fixture)
        for emitted, row in zip(payload["rows"], fixture):
            assert emitted["g"] == row.g
            assert emitted["d"] == row.d
            assert Fraction(emitted["epsilon1"]) == row.epsilon1
            assert Fraction(emitted["delta"]) == row.delta
            assert emitted["experimental"] == row.experimental

    def test_specific_cells(self, capsys):
        main(["table", "2", "--format", "json"])
        rows = json.loads(capsys.readouterr().out)["rows"]
        row = next(r for r in rows if r["g"] == 2 and r["d"] == 4)
        assert (row["epsilon1"], row["delta"]) == ("5/4", "5/12")
        main(["table", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        rows = payload["rows"]
        row = next(r for r in rows if r["g"] == -3 and r["d"] == 12)
        assert (row["epsilon1"], row["delta"]) == ("1/2", "1/16")

    def test_typos_footnoted(self, capsys):
        main(["table", "3"])
        out = capsys.readouterr().out
        assert "g0-typo" in out and "delta-typo" in out
        main(["table", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        flagged = {(r["g"], r["d"]): r["footnote"] for r in payload["rows"] if r["footnote"]}
        assert flagged == {(-2, 2): "g0-typo", (-4, 4): "delta-typo"}
        row = next(r for r in payload["rows"] if (r["g"], r["d"]) == (-2, 2))
        assert row["g0"] == "2"
        row = next(r for r in payload["rows"] if (r["g"], r["d"]) == (-4, 4))
        assert Fraction(row["delta"]) == Fraction(1, 12)


class TestCensusCommand:
    def test_hand_oracle_text(self, capsys):
        main(["census", "-g", "2", "-d", "2", "-x", "23", "--segment-size", "10000"])
        out = capsys.readouterr().out
        assert "counted    = 6" in out
        assert "considered = 8" in out
        assert "ratio      = 0.75000000" in out

    def test_csv_contract(self, capsys):
        main(["census", "-g", "2", "-d", "2", "-x", "23",
              "--segment-size", "10000", "--format", "csv"])
        out = capsys.readouterr().out
        reader = csv.DictReader(io.StringIO(out))
        assert reader.fieldnames == [
            "g", "d", "x", "counted", "considered", "ratio", "delta_exact", "abs_error",
        ]
        row = next(iter(reader))
        assert (int(row["counted"]), int(row["considered"])) == (6, 8)
        assert row["ratio"] == "0.75000000"
        assert Fraction(row["delta_exact"]) == Fraction(17, 24)
        assert row["abs_error"] == decimal_string(Fraction(3, 4) - Fraction(17, 24))

    def test_json_roundtrip(self, capsys):
        main(["census", "-g", "-9", "-d", "6", "-x", "10000",
              "--segment-size", "10000", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counted"] <= payload["considered"]
        assert payload["delta_exact"] == "11/32"

    @pytest.mark.parametrize("g,d,x", [("3", "2", "3"), ("15", "4", "5")])
    def test_no_prime_considered_is_one_line(self, g, d, x, capsys):
        # every odd prime up to x divides g, so the ratio has no denominator
        assert main(["census", "-g", g, "-d", d, "-x", x]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_density_before_count(self, monkeypatch, capsys):
        # density factors g and may never end: it must not run after a finished count
        calls = []
        for name, tag in (("density", "density"), ("run_census", "census")):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real, tag=tag: calls.append(tag) or real(*a))
        assert main(["census", "-g", "2", "-d", "2", "-x", "23"]) == 0
        assert calls == ["density", "census"]
        assert "counted    = 6" in capsys.readouterr().out

    def test_negative_fraction_base(self, capsys):
        # argparse reads "-g -3/5" as two options; the = form keeps the value
        assert main(["census", "-g=-3/5", "-d", "6", "-x", "100000"]) == 0
        capsys.readouterr()
        assert main(["density", "-g=-3/5", "-d", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["g"] == "-3/5"

    def test_d_beyond_int64_counts_nothing(self, capsys):
        assert main(["census", "-g", "2", "-d", str(2**70 + 1), "-x", "1000",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["counted"], payload["considered"]) == (0, 167)

    def test_threads_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("ORDDIV_THREADS", "2")
        assert main(["census", "-g", "2", "-d", "2", "-x", "30000",
                     "--segment-size", "10000", "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("ORDDIV_THREADS")
        assert main(["census", "-g", "2", "-d", "2", "-x", "30000",
                     "--segment-size", "10000", "--format", "json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second


class TestVerifyCommand:
    def test_x_below_three_is_one_line(self, capsys):
        assert main(["verify", "-g", "2", "-d", "2", "-x", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_base_out_of_factoring_reach(self):
        # (2^61 - 1)(2^89 - 1): verify never factors g, so it ends at once
        argv = ["verify", "-g", str((2**61 - 1) * (2**89 - 1)), "-d", "2", "-x", "1000"]
        run = run_python("-m", "orddiv.cli", *argv)
        assert run.returncode == 0
        assert run.stdout.endswith("result = PASS\n")

    def test_d_out_of_factoring_reach(self):
        # (2^61 - 1)(2^89 - 1) >= x divides no p - 1 <= x: verify never factors it
        argv = ["verify", "-g", "2", "-d", str((2**61 - 1) * (2**89 - 1)), "-x", "1000"]
        run = run_python("-m", "orddiv.cli", *argv)
        assert run.returncode == 0
        assert run.stdout.endswith("blocks: v=1:0\nresult = PASS\n")

    def test_blocks_rendered(self, capsys):
        assert main(["verify", "-g", "-9", "-d", "6", "-x", "20000",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lhs"] == payload["rhs"]
        assert all(b["count"] >= 0 for b in payload["blocks"])
