import json
import os

import pytest

from asaikit.cli import main
from asaikit.padic import dirac_measure_table


def run(args):
    return main(args)


class TestVerify:
    def test_self_contained_suite_passes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        assert run(["verify", "arith", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert os.path.exists(cache)

    def test_missing_input_file_exit_2(self, tmp_path):
        assert (
            run(
                [
                    "verify",
                    "asai",
                    "--eigenform",
                    str(tmp_path / "nope.txt"),
                    "--cache",
                    str(tmp_path / "c.json"),
                ]
            )
            == 2
        )

    def test_seed_determinism(self, tmp_path, capsys):
        c1, c2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
        run(["verify", "asai", "--seed", "5", "--cache", c1])
        capsys.readouterr()
        run(["verify", "asai", "--seed", "5", "--cache", c2])
        d1 = json.load(open(c1))
        d2 = json.load(open(c2))
        for r1, r2 in zip(d1["results"], d2["results"]):
            assert r1["status"] == r2["status"] and r1["gap"] == r2["gap"]

    def test_parallelism_option_rejected(self, tmp_path, capsys):
        # threads shared mpmath's process-wide precision; the option is gone
        with pytest.raises(SystemExit) as exc:
            run(["verify", "all", "--parallelism", "4", "--cache", str(tmp_path / "c.json")])
        assert exc.value.code == 2
        assert "--parallelism" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--gamma-table", "--measure-table", "--k", "--N"])
    def test_unread_option_rejected(self, option, tmp_path, capsys):
        # no suite read these; argparse now rejects them
        with pytest.raises(SystemExit) as exc:
            run(["verify", "arith", option, "4", "--cache", str(tmp_path / "c.json")])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err

    def test_parity_gap_at_working_precision(self, tmp_path, capsys):
        # a gap rounded at 53 bits read 1.2e-11 here; the true gap is about 1e-35
        cache = str(tmp_path / "c.json")
        run(["verify", "distribution", "--R", "20000", "--cache", cache])
        rows = {r["name"]: r for r in json.load(open(cache))["results"]}
        assert rows["parity-and-symmetrization"]["gap"] < 1e-25


class TestEisensteinCommand:
    def test_writes_expansion(self, tmp_path, capsys):
        out = str(tmp_path / "exp.txt")
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "4", "--T", "3", "--out", out]) == 0
        text = open(out).read()
        assert text.startswith("N 1\np 3\nj 1\nk 4\n")
        assert "a_0 = Cyc(1)" in capsys.readouterr().out

    def test_classical_expansion(self, tmp_path, capsys):
        assert run(["eisenstein", "--p", "3", "--j", "0", "--k", "4", "--T", "2"]) == 0
        out = capsys.readouterr().out
        assert "a 1 1 240" in out

    def test_weight_two_rejected(self, capsys):
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "2"]) == 2
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "5"]) == 2


class TestKummerCommand:
    def test_dirac_fixture_passes(self, tmp_path, capsys):
        path = str(tmp_path / "dirac.mt")
        open(path, "w").write(dirac_measure_table(3, 2, 4, 2).dumps())
        assert run(["kummer", path, "--j", "1", "--depth", "1"]) == 0

    def test_random_fixture_fails(self, tmp_path):
        tab = dirac_measure_table(3, 2, 4, 2)
        from fractions import Fraction
        from asaikit.arith import CyclotomicNumber

        for key in list(tab.entries)[:5]:
            tab.entries[key] = CyclotomicNumber.from_rational(Fraction(3, 7))
        path = str(tmp_path / "bad.mt")
        open(path, "w").write(tab.dumps())
        assert run(["kummer", path, "--j", "2", "--depth", "1"]) == 1

    def test_malformed_file_exit_2(self, tmp_path):
        path = str(tmp_path / "junk.mt")
        open(path, "w").write("p 3\nnot a table\n")
        assert run(["kummer", path, "--j", "1"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["kummer", str(tmp_path / "none.mt"), "--j", "1"]) == 2


class TestReport:
    def test_round_trip_csv(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        run(["verify", "arith", "--cache", cache])
        capsys.readouterr()
        out = str(tmp_path / "report.csv")
        assert run(["report", "--cache", cache, "--out", out, "--format", "csv"]) == 0
        lines = open(out).read().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["suite", "check", "anchor", "status", "gap", "runtime"]
        assert all(line.split(",")[0] == "arith" for line in lines[1:])

    def test_json_carries_anchors(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        run(["verify", "padic", "--cache", cache])
        capsys.readouterr()
        assert run(["report", "--cache", cache, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        anchors = {r["anchor"] for r in data["results"]}
        assert any("phi(p^j)" in a for a in anchors)

    def test_no_cache_exit_2(self, tmp_path):
        assert run(["report", "--cache", str(tmp_path / "none.json")]) == 2
