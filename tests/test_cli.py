import argparse
import json
import math
import os
import random
import re
import signal
import sys
import threading
import time
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from asaikit import arith, asai, cli, eisenstein
from asaikit.asai import dump_eigenform, random_mock_eigenform
from asaikit.cli import RunConfig, build_parser, main
from asaikit.padic import dirac_measure_table
from tests.conftest import UNREAD_EIGENFORM_EDITS, composite_p_eigenform_text


def run(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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
                    "distribution",
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
        d1 = json.loads(Path(c1).read_text())
        d2 = json.loads(Path(c2).read_text())
        for r1, r2 in zip(d1["results"], d2["results"]):
            assert r1["status"] == r2["status"] and r1["gap"] == r2["gap"]

    def test_parallelism_option_rejected(self, tmp_path, capsys):
        # concurrency is not an option: the CPUs this process may use decide it (cli._available_cpus)
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

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("asai", "--R", "5"),
            ("padic", "--prec", "64"),
            ("characters", "--seed", "3"),
            ("cohomology", "--prec", "96"),
            ("cohomology", "--eigenform", "F"),
        ],
    )
    def test_flag_the_suite_does_not_read_exit_2(self, suite, flag, value, tmp_path, capsys):
        cache = str(tmp_path / "c.json")
        assert run(["verify", suite, flag, value, "--cache", cache]) == 2
        assert flag in capsys.readouterr().err
        assert not os.path.exists(cache)

    @pytest.mark.parametrize(
        "argv",
        [
            ["characters", "--prec", "32"],
            ["distribution", "--tol", "3"],
            ["distribution", "--p", "0"],
            ["distribution", "--p", "4"],
            ["distribution", "--p", "9"],
            ["distribution", "--j", "0"],
            ["distribution", "--s", "abc"],
            ["distribution", "--R", "5"],
            ["distribution", "--p", "5", "--R", "20"],
            ["distribution", "--s", "2", "--R", "50"],
            ["distribution", "--s", "k+1"],
            ["arith", "--prec", "1100"],
        ],
    )
    def test_invalid_setting_exit_2(self, argv, tmp_path):
        assert run(["verify", *argv, "--cache", str(tmp_path / "c.json")]) == 2

    @pytest.mark.parametrize("s", ["1e400", "k+2000", "1001"])
    def test_s_past_the_ceiling_exit_2(self, s, tmp_path, capsys):
        # from --s 1000 on every distribution row is an error; 1e400 ran out of memory
        t0 = time.perf_counter()
        assert run(["verify", "distribution", "--s", s, "--cache", str(tmp_path / "c.json")]) == 2
        assert time.perf_counter() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: --s ")

    def test_j_past_the_bucket_ceiling_exit_2(self, tmp_path, capsys):
        # the relation row folds the series mod p^(j+1): --j 13 took 5.5 s to fail, --j 20
        # asked for 3^21 buckets; at the defaults (p = 3 and 5) 5^9 is the first over the cap
        assert run(["verify", "distribution", "--j", "8", "--cache", str(tmp_path / "c.json")]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: --j 8 ")
        assert not (tmp_path / "c.json").exists()

    def test_j_bucket_ceiling_boundary(self):
        # 3^12 = 531,441 buckets are allowed, 3^13 are not; checked before any suite runs
        cli._check_distribution_settings(cli.RunConfig(p=3, j=11), None)
        for j in (12, 10**9):
            with pytest.raises(ValueError, match="--j"):
                cli._check_distribution_settings(cli.RunConfig(p=3, j=j), None)

    def test_precision_ceiling(self):
        # float gaps underflow to 0 near 2^(-1074): `verify arith --prec 1100` passed
        # embedding-homomorphism on gap 0.0 against a bound 2^(12 - 1100) that is also 0.0
        assert cli.RunConfig(precision_bits=1000).precision_bits == cli.MAX_PRECISION_BITS
        with pytest.raises(ValueError, match="--prec"):
            cli.RunConfig(precision_bits=1001)

    def test_eigenform_file_sets_the_prime(self, tmp_path, capsys):
        rng = random.Random(1)
        f = random_mock_eigenform(
            rng, k=2, N=1, p=7, prime_bound=500, support_bound=80, support_min=31,
            c_num_bound=2, satake_units=(2, -2),
        )
        path, no_d = tmp_path / "f7.txt", tmp_path / "no_d.txt"
        path.write_text(dump_eigenform(f))
        no_d.write_text("".join(l for l in path.read_text().splitlines(True) if not l.startswith("D ")))
        cache = str(tmp_path / "c.json")

        def verify(form, *argv):
            return run(["verify", "distribution", "--eigenform", str(form), *argv, "--cache", cache])

        # the suite runs at the form's p = 7 only, so no check trips on a p = 3 character
        assert verify(path, "--R", "500") in (0, 1)
        assert set(re.findall(r"\[p=(\d+) ", capsys.readouterr().out)) <= {"7"}
        rows = json.loads(Path(cache).read_text())["results"]
        assert [r["status"] for r in rows if r["status"] == "error"] == []
        assert all(r["detail"].startswith("p=7 ") for r in rows if r["status"] == "fail")
        # a different --p, R below 7^2, s <= k + 1 at the file's weight, a file without its D header
        for form, argv in (
            (path, ["--p", "5", "--j", "1"]),
            (path, ["--R", "30"]),
            (path, ["--s", "3", "--R", "500"]),
            (no_d, ["--R", "500"]),
        ):
            assert verify(form, *argv) == 2, argv
        assert "missing the D header" in capsys.readouterr().err

    def test_composite_p_eigenform_exit_2(self, tmp_path, capsys):
        # p = 9 loaded, and the distribution suite failed three rows on it with exit 1
        path = tmp_path / "e9.txt"
        path.write_text(composite_p_eigenform_text())
        cache = str(tmp_path / "c.json")
        assert run(["verify", "distribution", "--eigenform", str(path), "--R", "2000", "--cache", cache]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "malformed eigenform file" in out.err and "p must be an odd prime, got 9" in out.err
        assert not os.path.exists(cache)

    @pytest.mark.parametrize("edit", UNREAD_EIGENFORM_EDITS.values(), ids=UNREAD_EIGENFORM_EDITS)
    def test_unread_eigenform_line_exit_2(self, edit, tmp_path, capsys):
        f = random_mock_eigenform(random.Random(1), k=2, N=1, p=5, prime_bound=600)
        path = tmp_path / "f.txt"
        path.write_text(edit(dump_eigenform(f)))
        cache = str(tmp_path / "c.json")
        assert run(["verify", "distribution", "--eigenform", str(path), "--R", "500", "--cache", cache]) == 2
        assert "malformed eigenform file" in capsys.readouterr().err
        assert not os.path.exists(cache)

    @pytest.mark.parametrize("edit", ["support 31 x", "support 31 31", "support 31\nsupport 37"])
    def test_bad_support_line_exit_2(self, edit, tmp_path, capsys):
        f = random_mock_eigenform(
            random.Random(1), k=2, N=1, p=5, prime_bound=600, support_bound=80, support_min=31
        )
        text = dump_eigenform(f)
        assert re.search("^support 31 37 ", text, flags=re.M)
        path = tmp_path / "f.txt"
        path.write_text(re.sub("^support.*$", edit, text, flags=re.M))
        cache = str(tmp_path / "c.json")
        assert run(["verify", "distribution", "--eigenform", str(path), "--R", "500", "--cache", cache]) == 2
        assert "malformed eigenform file" in capsys.readouterr().err
        assert not os.path.exists(cache)

    def test_one_flag_per_config_field(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices["verify"]._actions if a.option_strings and a.dest != "help"]
        assert sorted(a.dest for a in actions) == sorted(f.name for f in fields(RunConfig))
        assert all(len(a.option_strings) == 1 for a in actions)
        # RunConfig alone holds the defaults
        args = parser.parse_args(["verify", "all"])
        assert all(getattr(args, f.name) is None for f in fields(RunConfig))

    def test_precision_environment_variable_ignored(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ASAIKIT_PREC", "40")
        cache = str(tmp_path / "c.json")
        assert run(["verify", "characters", "--cache", cache]) == 0
        assert json.loads(Path(cache).read_text())["config"]["precision_bits"] == 128

    def test_runner(self, tmp_path, monkeypatch, capsys):
        reached = []

        def failing():
            yield "a", True
            yield "b", 1e-4, 1e-3
            yield "c", 3e-5, 1e-6
            reached.append("d")
            yield "d", 1.0, 2.0

        def failing_exact():
            yield "a", 1e-9, 1e-8
            yield "b", False

        def raising():
            yield "a", 1e-20, 1.0
            raise RuntimeError("boom")

        def counting():
            yield "a", True
            return "7 found"

        def at_bound():
            yield "a", 0.5, 0.5

        def above_bound():
            yield "a", 0.5, 0.5
            yield "b", math.nextafter(0.5, 1.0), 0.5

        def infinite():
            yield "a", 1e-3, 1.0
            yield "b", math.inf, 1.0

        checks = (failing, failing_exact, raising, counting, at_bound, above_bound, infinite)
        monkeypatch.setitem(cli.SUITE_BUILDERS, "asai", lambda: [(c.__name__, "x", c()) for c in checks])
        cache = tmp_path / "c.json"
        assert run(["verify", "asai", "--cache", str(cache)]) == 1
        rows = json.loads(cache.read_text(), parse_constant=_reject_constant)["results"]
        assert [list(r) for r in rows] == [
            ["suite", "name", "anchor", "status", "gap", "runtime", "detail"]
        ] * len(checks)
        got = {r["name"]: (r["status"], r["gap"], r["detail"]) for r in rows}
        assert got == {
            "failing": ("fail", 1e-4, "c"),
            "failing_exact": ("fail", 1e-9, "b"),
            "raising": ("error", None, "RuntimeError: boom"),
            "counting": ("pass", None, "7 found"),
            "at_bound": ("pass", 0.5, ""),
            "above_bound": ("fail", math.nextafter(0.5, 1.0), "b"),
            "infinite": ("error", None, "FloatingPointError: b: gap inf"),
        }
        assert reached == []

    def test_bessel_row_gates_on_the_kernel_error(self, tmp_path, monkeypatch, capsys):
        # a K_nu 1 % off leaves the moment side exact, so only kernel_rel_err can fail the row
        # the check runs in a context of its own; building one re-binds every special function
        # on MPContext, so the patch goes on the instance, which is made first
        ctx = arith._bessel_context()
        besselk = ctx.besselk
        monkeypatch.setattr(ctx, "besselk", lambda nu, x: 1.01 * besselk(nu, x))
        cache = tmp_path / "c.json"
        assert run(["verify", "arith", "--cache", str(cache)]) == 1
        rows = {r["name"]: r for r in json.loads(cache.read_text())["results"]}
        assert (rows["bessel-moment"]["status"], rows["bessel-moment"]["detail"]) == ("fail", "nu=0 mu=3")
        assert abs(rows["bessel-moment"]["gap"] - 1 / 101) < 1e-6

    def test_bessel_row_kernel_once_per_nu(self, tmp_path, monkeypatch):
        # the kernel comparison depends on (nu, a) alone: per nu, two moment quadratures and
        # one kernel quadrature against one besselk, for mu = 3 and 4 together
        calls = {"quad": 0, "besselk": 0}
        ctx = arith._bessel_context()  # patched as an instance: see the test above
        for name in calls:

            def counted(*args, _real=getattr(ctx, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(ctx, name, counted)
        assert run(["verify", "arith", "--cache", str(tmp_path / "c.json")]) == 0
        assert calls == {"quad": 9, "besselk": 3}

    @pytest.mark.parametrize("seed, members", [(0, 582), (1, 585), (2, 572)])
    def test_membership_members_pinned(self, seed, members, tmp_path):
        # the counts recorded before the membership test ran on integer QuadCoeffs
        cache = tmp_path / "c.json"
        assert run(["verify", "eisenstein", "--seed", str(seed), "--cache", str(cache)]) == 0
        rows = {r["name"]: r for r in json.loads(cache.read_text())["results"]}
        assert rows["membership-dual-path"]["detail"] == f"{members} members found"

    def test_overflowing_gap_is_an_error(self, tmp_path, capsys):
        # the coset values hold p^(j(s-1)) = 3^999, past the largest float
        cache = tmp_path / "c.json"
        argv = ["verify", "distribution", "--s", "1000", "--p", "3", "--j", "1", "--R", "100"]
        assert run(argv + ["--cache", str(cache)]) == 1
        rows = json.loads(cache.read_text(), parse_constant=_reject_constant)["results"]
        assert [(r["status"], r["gap"]) for r in rows] == [("error", None)] * 3
        assert all(r["detail"].startswith("FloatingPointError: p=3 ") for r in rows)
        capsys.readouterr()
        assert run(["report", "--cache", str(cache), "--format", "json"]) == 0
        json.loads(capsys.readouterr().out, parse_constant=_reject_constant)

    def test_ordinary_factorization_fails_on_a_wrong_B1(self, tmp_path, monkeypatch, capsys):
        # with B_1 + 1 the e = 1 term of sum B_i d_p(e - i) reads kappa + 1, not kappa
        true_data = asai.ordinary_data

        def shifted(f):
            od = true_data(f)
            return replace(od, B=(od.B[0], od.B[1] + 1, od.B[2], od.B[3]))

        monkeypatch.setattr(asai, "ordinary_data", shifted)
        cache = str(tmp_path / "c.json")
        assert run(["verify", "asai", "--cache", cache]) == 1
        status = {row["name"]: row["status"] for row in json.loads(Path(cache).read_text())["results"]}
        assert status.pop("ordinary-factorization") == "fail"
        assert set(status.values()) == {"pass"}

    def test_euler_product_failure_shows_both_sides(self, tmp_path, monkeypatch, capsys):
        # d(101) one too large: the Euler product still gives the true value there
        true_coeff = asai.asai_coeff
        monkeypatch.setattr(asai, "asai_coeff", lambda f, r: true_coeff(f, r) + (r == 101))
        cache = tmp_path / "c.json"
        assert run(["verify", "asai", "--cache", str(cache)]) == 1
        rows = {row["name"]: row for row in json.loads(cache.read_text())["results"]}
        failed = rows.pop("euler-product")
        assert {row["status"] for row in rows.values()} == {"pass"}
        assert failed["status"] == "fail"
        sides = re.fullmatch(r"trial 0 r=101: d\(r\) = (\S+), Euler product (\S+)", failed["detail"])
        assert sides and Fraction(sides[1]) == Fraction(sides[2]) + 1
        assert failed["detail"] in capsys.readouterr().out

    def test_exact_vs_analytic_gates_on_the_radius(self, tmp_path, monkeypatch, capsys):
        # an exact value 2^(-30) off is a relative gap of 9.3e-10, inside the old fixed 1e-8,
        # and 1e4 times the proved radius of the difference
        true_exact = eisenstein.higher_coeff_exact
        monkeypatch.setattr(
            eisenstein, "higher_coeff_exact", lambda params, lpp: true_exact(params, lpp) * Fraction(2**30 + 1, 2**30)
        )
        cache = tmp_path / "c.json"
        assert run(["verify", "eisenstein", "--cache", str(cache)]) == 1
        rows = {r["name"]: r for r in json.loads(cache.read_text())["results"]}
        row = rows.pop("exact-vs-analytic")
        assert (row["status"], row["detail"]) == ("fail", "(1,3,1,4) l''=3")
        assert row["gap"] / 3 < 1e-9  # |analytic| = 3 there
        assert {r["status"] for r in rows.values()} == {"pass"}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda params, lam: lam[:-1] if params.p == 5 else lam,  # one listed pair dropped
            lambda params, lam: sorted(lam + [(25, 2)]) if params.p == 5 else lam,  # d = 2 mod 5 listed
        ],
        ids=["dropped", "d-condition"],
    )
    def test_lambda_bijection_fails_on_a_wrong_list(self, edit, tmp_path, monkeypatch, capsys):
        true_lambda = eisenstein.enumerate_lambda
        monkeypatch.setattr(eisenstein, "enumerate_lambda", lambda params, h: edit(params, true_lambda(params, h)))
        cache = tmp_path / "c.json"
        assert run(["verify", "eisenstein", "--cache", str(cache)]) == 1
        rows = {r["name"]: r for r in json.loads(cache.read_text())["results"]}
        assert rows.pop("lambda-bijection")["status"] == "fail"
        assert {r["status"] for r in rows.values()} == {"pass"}

    @pytest.mark.parametrize("cache", ["", "missing/c.json"])
    def test_unwritable_cache_exit_2(self, cache, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(cli.SUITE_BUILDERS, "asai", lambda: [])
        monkeypatch.chdir(tmp_path)
        assert run(["verify", "asai", "--cache", cache]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_exact_checks_report_no_gap(self, tmp_path, capsys):
        rows = {}
        for suite in ("eisenstein", "padic"):
            cache = str(tmp_path / f"{suite}.json")
            assert run(["verify", suite, "--cache", cache]) == 0
            rows.update((r["name"], r) for r in json.loads(Path(cache).read_text())["results"])
        for name, row in rows.items():
            assert (row["gap"] is None) == (name != "exact-vs-analytic"), name
        # counts and valuations go to detail, never to gap
        assert re.fullmatch(r"\d+ members found", rows["membership-dual-path"]["detail"])
        assert rows["lambda-bijection"]["detail"] == "53, 73 pairs"
        assert rows["negative-control"]["detail"] == "v=0"


def _without_runtimes(out: str) -> list[str]:
    return [re.sub(r" \(\d+\.\d\ds\)", "", line) for line in out.splitlines()]


class TestConcurrentVerify:
    """`verify` with several suites runs each in a forked worker, at most one per CPU."""

    @pytest.fixture
    def workers(self, monkeypatch):
        """Two CPU slots; the list of the workers forked."""
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        pids, real_fork = [], os.fork

        def fork():
            pid = real_fork()
            pids.append(pid)  # a worker's own copy of the list is never read
            return pid

        monkeypatch.setattr(os, "fork", fork)
        yield pids
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_and_lines_match_the_in_process_run(self, seed, workers, tmp_path, monkeypatch, capsys):
        def verify(cache):
            assert run(["verify", "all", "--seed", str(seed), "--cache", str(cache)]) == 0
            rows = json.loads(cache.read_text())["results"]
            assert all(isinstance(row.pop("runtime"), float) for row in rows)
            return rows, _without_runtimes(capsys.readouterr().out)

        forked = verify(tmp_path / "forked.json")
        assert len(workers) == len(cli.SUITES)
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        assert verify(tmp_path / "serial.json") == forked
        assert len(workers) == len(cli.SUITES)
        lines = forked[1]
        assert lines[-1] == "all checks passed"
        assert lines[:-1] == [f"[PASS] {row['suite']}/{row['name']}" + (
            "" if row["gap"] is None else f" gap={row['gap']:.3e}") for row in forked[0]]
        suites = [row["suite"] for row in forked[0]]
        assert suites == sorted(suites, key=cli.SUITES.index) and set(suites) == set(cli.SUITES)

    def test_a_patch_reaches_the_workers(self, workers, tmp_path, monkeypatch, capsys):
        # as test_ordinary_factorization_fails_on_a_wrong_B1, under `verify all`
        true_data = asai.ordinary_data

        def shifted(f):
            od = true_data(f)
            return replace(od, B=(od.B[0], od.B[1] + 1, od.B[2], od.B[3]))

        monkeypatch.setattr(asai, "ordinary_data", shifted)
        cache = tmp_path / "c.json"
        assert run(["verify", "all", "--cache", str(cache)]) == 1
        assert workers
        status = {f"{r['suite']}/{r['name']}": r["status"] for r in json.loads(cache.read_text())["results"]}
        assert status.pop("asai/ordinary-factorization") == "fail"
        assert set(status.values()) == {"pass"}

    @pytest.mark.parametrize(
        "death, how",
        [
            (lambda: os._exit(3), "exit status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"signal {signal.SIGKILL.value}"),
        ],
        ids=["exit", "signal"],
    )
    def test_a_dead_worker_fails_the_run(self, death, how, workers, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def dies():
            if os.getpid() != parent:  # never end the test process itself
                death()
            yield "a", True

        monkeypatch.setitem(cli.SUITE_BUILDERS, "cohomology", lambda seed: [("dies", "x", dies())])
        cache = tmp_path / "c.json"
        assert run(["verify", "all", "--cache", str(cache)]) == 1
        assert capsys.readouterr().err == f"error: the cohomology suite's worker ended with {how}\n"
        assert not cache.exists()

    def test_incomplete_rows_fail_the_run(self, workers, tmp_path, monkeypatch, capsys):
        dumps = json.dumps

        def cut(rows):  # the workers' one use: cohomology's rows lose their last byte
            text = dumps(rows)
            return text[:-1] if rows[0]["suite"] == "cohomology" else text

        monkeypatch.setattr(json, "dumps", cut)
        cache = tmp_path / "c.json"
        assert run(["verify", "all", "--cache", str(cache)]) == 1
        assert capsys.readouterr().err == "error: the cohomology suite's worker sent incomplete rows\n"
        assert not cache.exists()

    def test_an_interrupt_leaves_no_worker(self, workers, tmp_path, monkeypatch):
        class Interrupted:
            def write(self, text):
                raise KeyboardInterrupt

        monkeypatch.setattr(sys, "stdout", Interrupted())  # the first row printed interrupts the run
        with pytest.raises(KeyboardInterrupt):
            run(["verify", "all", "--cache", str(tmp_path / "c.json")])
        assert len(workers) >= 2  # arith's worker done, and the next one killed

    @pytest.mark.parametrize("cpus, suite", [(1, "all"), (2, "padic")])
    def test_one_slot_never_forks(self, cpus, suite, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert run(["verify", suite, "--cache", str(tmp_path / "c.json")]) == 0

    def test_no_fork_beside_another_thread(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert run(["verify", "all", "--cache", str(tmp_path / "c.json")]) == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestEisensteinCommand:
    def test_writes_expansion(self, tmp_path, capsys):
        out = str(tmp_path / "exp.txt")
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "4", "--T", "3", "--out", out]) == 0
        text = Path(out).read_text()
        assert text.startswith("N 1\np 3\nj 1\nk 4\n")
        assert "a_0 = Cyc(1)" in capsys.readouterr().out

    def test_classical_expansion(self, tmp_path, capsys):
        assert run(["eisenstein", "--p", "3", "--j", "0", "--k", "4", "--T", "2"]) == 0
        out = capsys.readouterr().out
        assert "a 1 1 240" in out

    def test_weight_two_rejected(self, capsys):
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "2"]) == 2
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "5"]) == 2

    def test_negative_term_count_exit_2(self, capsys):
        assert run(["eisenstein", "--p", "3", "--j", "1", "--k", "4", "--T", "-3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "exp.txt")
        assert run(["eisenstein", "--p", "3", "--j", "0", "--k", "4", "--T", "1", "--out", out]) == 2
        assert "error: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [["--p", "3", "--j", "6"], ["--N", "2003", "--p", "3", "--j", "0"]])
    def test_large_level_exit_2_before_any_work(self, level, capsys, monkeypatch):
        """M = N p^(2j) above the bound (531,441 and 2,003 here) is refused with one error line;
        the q-expansion, which lists every character mod M, is never started."""
        def refuse(*args):
            raise AssertionError("qexpansion started")

        monkeypatch.setattr(eisenstein, "qexpansion", refuse)
        assert run(["eisenstein", *level, "--k", "4"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


class TestKummerCommand:
    def test_dirac_fixture_passes(self, tmp_path, capsys):
        path = str(tmp_path / "dirac.mt")
        Path(path).write_text(dirac_measure_table(3, 2, 4, 2).dumps())
        assert run(["kummer", path, "--j", "1", "--depth", "1"]) == 0

    def test_random_fixture_fails(self, tmp_path):
        tab = dirac_measure_table(3, 2, 4, 2)
        from fractions import Fraction
        from asaikit.arith import CyclotomicNumber

        for key in list(tab.entries)[:5]:
            tab.entries[key] = CyclotomicNumber.from_rational(Fraction(3, 7))
        path = str(tmp_path / "bad.mt")
        Path(path).write_text(tab.dumps())
        assert run(["kummer", path, "--j", "2", "--depth", "1"]) == 1

    def test_depth_past_the_unit_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        # glue_check lists every unit mod p^(j+depth): depth 40 ran out of memory
        path = str(tmp_path / "dirac.mt")
        Path(path).write_text(dirac_measure_table(3, 2, 4, 2).dumps())
        for depth in ("40", "1000000000"):
            assert run(["kummer", path, "--j", "1", "--depth", depth]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err.count("\n") == 1 and out.err.startswith("error: --j + --depth")
        monkeypatch.setattr(cli, "MAX_GLUE_UNITS", 3**3)
        assert run(["kummer", path, "--j", "1", "--depth", "2"]) == 0  # 3^3 units: at the cap
        assert run(["kummer", path, "--j", "1", "--depth", "3"]) == 2

    def test_composite_p_exit_2(self, tmp_path, capsys):
        # a table at p = 4 loaded, and the sweep printed pass with exit 0
        path = str(tmp_path / "t4.mt")
        Path(path).write_text(dirac_measure_table(4, 2, 7, 1).dumps())
        assert run(["kummer", path, "--j", "1", "--depth", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "malformed measure table: p must be a prime, got 4" in out.err

    def test_malformed_file_exit_2(self, tmp_path):
        path = str(tmp_path / "junk.mt")
        Path(path).write_text("p 3\nnot a table\n")
        assert run(["kummer", path, "--j", "1"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["kummer", str(tmp_path / "none.mt"), "--j", "1"]) == 2

    @pytest.mark.parametrize(
        "old, new",
        [("n 2\n", "n 2\nkappa 1/0\n"), ("entry 2 1 0 1 1/16\n", "entry 2 1 0 1 1/0\n")],
        ids=["kappa", "entry"],
    )
    def test_zero_denominator_exit_2(self, old, new, tmp_path, capsys):
        text = dirac_measure_table(3, 2, 4, 2).dumps()
        assert old in text
        path = str(tmp_path / "zero.mt")
        Path(path).write_text(text.replace(old, new))
        assert run(["kummer", path, "--j", "1"]) == 2
        assert "error: malformed measure table" in capsys.readouterr().err

    def test_missing_entry_off_zero_slice_exit_2(self, tmp_path, capsys):
        tab = dirac_measure_table(3, 2, 4, 2)
        del tab.entries[next(key for key in tab.entries if key[0] == 2 and key[1].modulus == 9)]
        path = str(tmp_path / "gap.mt")
        Path(path).write_text(tab.dumps())
        assert run(["kummer", path, "--j", "2", "--depth", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "error: table lacks characters" in out.err

    def test_imprimitive_entry_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "extra.mt")
        Path(path).write_text(dirac_measure_table(3, 2, 4, 1).dumps() + "entry 0 3 0 1 1000\n")
        assert run(["kummer", path, "--j", "1", "--depth", "1"]) == 2
        assert "error: malformed measure table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        ["entry 5 1 0 1 1\nentry 5 3 1 2 1\n", "entry 4 1 0 1 1\nentry 4 3 1 2 1\n"],
        ids=["odd-weight", "weight-above-n"],
    )
    def test_weight_outside_table_exit_2(self, extra, tmp_path, capsys):
        # the header says n 2, so only m = 0, 2 are weights of the table
        path = str(tmp_path / "weights.mt")
        Path(path).write_text(dirac_measure_table(3, 2, 4, 1).dumps() + extra)
        assert run(["kummer", path, "--j", "1", "--depth", "1"]) == 2
        assert "error: malformed measure table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", ["kappa 7/3\n", "bogus 5\n", "p 3\n"], ids=["kappa", "unknown-key", "repeated-p"]
    )
    def test_unread_header_exit_2(self, extra, tmp_path, capsys):
        path = str(tmp_path / "header.mt")
        Path(path).write_text(dirac_measure_table(3, 2, 4, 2).dumps() + extra)
        assert run(["kummer", path, "--j", "2", "--depth", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "error: malformed measure table" in out.err

    def test_negative_character_index_exit_2(self, tmp_path, capsys):
        text = dirac_measure_table(3, 2, 4, 1).dumps()
        path = str(tmp_path / "negative.mt")
        Path(path).write_text(text.replace("entry 0 3 1 2 1\n", "entry 0 3 -1 2 1\n"))
        assert run(["kummer", path, "--j", "1", "--depth", "1"]) == 2
        assert "error: malformed measure table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--p", "0", "--j", "1"], ["--j", "0"], ["--j", "-1"], ["--j", "1", "--depth", "-1"]],
    )
    def test_out_of_range_flag_exit_2(self, flags, tmp_path, capsys):
        path = str(tmp_path / "dirac.mt")
        Path(path).write_text(dirac_measure_table(3, 2, 4, 2).dumps())
        assert run(["kummer", path, *flags]) == 2
        assert "error:" in capsys.readouterr().err


class TestReport:
    def test_round_trip_csv(self, tmp_path, capsys):
        cache = str(tmp_path / "cache.json")
        run(["verify", "arith", "--cache", cache])
        capsys.readouterr()
        out = str(tmp_path / "report.csv")
        assert run(["report", "--cache", cache, "--out", out, "--format", "csv"]) == 0
        lines = Path(out).read_text().strip().splitlines()
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

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            "{}",
            '{"results": 3}',
            '{"results": [1]}',
            '{"results": [{"suite": "arith"}]}',
            '{"results": [{"suite": "a", "name": "b", "anchor": "c", "status": "pass", "gap": null, "runtime": "1"}]}',
            '{"results": [{"suite": "a", "name": "b", "anchor": "c", "status": "fail", "gap": Infinity, "runtime": 1}]}',
            '{"results": [{"suite": "a", "name": "b", "anchor": "c", "status": "pass", "gap": null, "runtime": Infinity}]}',
            '{"results": [{"suite": "a", "name": "b", "anchor": "c", "status": "pass", "gap": true, "runtime": 1}]}',
            '{"results": [{"suite": "a", "name": "b", "anchor": "c", "status": "pass", "gap": null, "runtime": false}]}',
            '{"results": [{"suite": "a", "name": "b", "anchor": "c", "status": "ok", "gap": null, "runtime": 1}]}',
        ],
        ids=[
            "not-json",
            "list",
            "no-results",
            "results-not-list",
            "row-not-dict",
            "row-missing-fields",
            "text-runtime",
            "infinite-gap",
            "infinite-runtime",
            "boolean-gap",
            "boolean-runtime",
            "unknown-status",
        ],
    )
    def test_malformed_cache_exit_2(self, text, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        cache.write_text(text)
        for fmt in ("csv", "json"):
            assert run(["report", "--cache", str(cache), "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error:")

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        row = {"suite": "a", "name": "b", "anchor": "c", "status": "pass", "gap": None, "runtime": 0.5}
        cache.write_text(json.dumps({"results": [row]}))
        out = str(tmp_path / "missing" / "report.csv")
        assert run(["report", "--cache", str(cache), "--out", out]) == 2
        assert "error: cannot write" in capsys.readouterr().err
        assert run(["report", "--cache", str(cache)]) == 0
        assert capsys.readouterr().out == 'suite,check,anchor,status,gap,runtime\na,b,"c",pass,,0.500\n'
