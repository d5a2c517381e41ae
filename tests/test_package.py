import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import asaikit
from asaikit import arith, cli, distribution, eisenstein
from tests.conftest import load_bench_workloads

MODULES = sorted(f"asaikit.{m.name}" for m in pkgutil.iter_modules(asaikit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})


def test_roots_of_unity_only_in_arith():
    """Twisted sums go through the arith series helpers: no other module calls expjpi.
    In arith only fixed_root_table (the one analytic root table) and CyclotomicNumber.embed
    (the exact route's own Horner evaluation) call it; root_table and embed_complex are gone."""
    src = Path(asaikit.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if p.name != "arith.py" and "expjpi" in p.read_text()]
    assert not offenders
    callers = {
        name
        for name, fn in _methods(ast.parse((src / "arith.py").read_text())).items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in ("expjpi", "mpc_expjpi")
    }
    assert callers == {"fixed_root_table", "CyclotomicNumber.embed"}
    for module in MODULES:
        mod = importlib.import_module(module)
        assert not any(hasattr(mod, name) for name in ("root_table", "embed_complex")), module


PRECISION_SETTERS = {"workprec", "workdps", "extraprec", "extradps"}


def test_no_process_wide_precision():
    """Balls carry their own precision and the Bessel quadratures run in a per-thread
    context: no module calls workprec (or its kin) or reads mp.prec or mp.dps."""
    src = Path(asaikit.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name in PRECISION_SETTERS or (
                isinstance(node, ast.Attribute) and name in ("prec", "dps") and _dotted_root(node) in ("mp", "mpmath")
            ):
                offenders.append(f"{path.name}:{node.lineno}:{name}")
            if isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & (PRECISION_SETTERS | {"prec", "dps"}):
                offenders.append(f"{path.name}:{node.lineno}:import")
    assert not offenders


def test_one_congruence_engine_in_padic():
    """In padic only akc_check (every congruence combination) takes valuations."""
    tree = ast.parse((Path(asaikit.__file__).parent / "padic.py").read_text())
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "padic_valuation"
    }
    assert callers == {"akc_check"}


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((Path(asaikit.__file__).parent / module).read_text())
    [fn] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return fn


def _called(fn: ast.FunctionDef) -> set:
    return {getattr(node.func, "id", None) for node in ast.walk(fn) if isinstance(node, ast.Call)}


def test_one_bucket_loop_in_higher_coeffs_analytic():
    """The Moebius series is bucketed by arith.fold inside arith.mobius_buckets' cached
    buckets: higher_coeffs_analytic adds into no subscript itself."""
    fn = _function("eisenstein.py", "higher_coeffs_analytic")
    assert "mobius_buckets" in _called(fn)
    assert "_mobius_bucket" in _called(_function("arith.py", "mobius_buckets"))
    assert "fold" in _called(_function("arith.py", "_mobius_bucket"))
    assert not [n for n in ast.walk(fn) if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Subscript)]


def test_higher_coeffs_analytic_on_the_integer_kernel():
    """The Moebius route builds no Moebius table and no mpc root table: its terms come
    from arith.mobius_terms through fold, in the buckets mobius_buckets shares across
    levels, and its roots from fixed_root_table."""
    analytic = _called(_function("eisenstein.py", "higher_coeffs_analytic"))
    buckets = _called(_function("arith.py", "mobius_buckets"))
    bucket = _called(_function("arith.py", "_mobius_bucket"))
    assert {"mobius_buckets", "fixed_root_table"} <= analytic
    assert "_mobius_bucket" in buckets
    assert {"fold", "mobius_terms"} <= bucket
    assert not (analytic | buckets | bucket) & {"root_table", "ArithTables"}


def test_one_gate_for_every_verify_row():
    """A numeric verify case yields (label, gap, bound) and decides nothing itself: no
    three-element yield in cli.py holds a comparison, no bound is a numeric literal scaled
    or raised (a row gates on a computed radius, 10^-tol or the Bessel row's one constant),
    cli._run_check is the only function that orders a gap against a bound, and the library
    reports carry no verdict."""
    tree = ast.parse((Path(asaikit.__file__).parent / "cli.py").read_text())
    numeric = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Tuple) and len(node.value.elts) == 3
    ]
    assert numeric
    assert not [case.lineno for case in numeric if any(isinstance(n, ast.Compare) for n in ast.walk(case))]
    chosen = [
        case.lineno
        for case in numeric
        if isinstance(case.elts[2], ast.BinOp)
        and any(isinstance(n, ast.Constant) and isinstance(n.value, (int, float)) for n in ast.walk(case.elts[2]))
    ]
    assert not chosen
    ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    gates = {
        fn.name
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, ordering) for op in node.ops)
        and "gap" in {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}
    }
    assert gates == {"_run_check"}
    for report in (distribution.IdentityReport, arith.BesselMomentReport):
        assert not {f.name for f in dataclasses.fields(report)} & {"passed", "agree"}, report.__name__


def _readme_table(header: str) -> list[list[str]]:
    """The cells of each row of the README table under the line ``header``; a cell may hold
    an escaped pipe."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    rows = []
    for line in lines[lines.index(header) + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def test_readme_verify_tables_match_the_code():
    """The README lists, per suite, the flags its builder reads (RunConfig's flag metadata of
    the builder's parameters), and states a bound for exactly the checks whose cases yield
    (label, gap, bound)."""
    flag = {f.name: f.metadata["flag"] for f in dataclasses.fields(cli.RunConfig)}
    listed = {}
    for suites, reads in _readme_table("| suite | reads |"):
        for suite in re.findall(r"`(\w+)`", suites):
            listed[suite] = set(re.findall(r"`(--\w+)`", reads))
    assert listed == {
        suite: {flag[name] for name in inspect.signature(builder).parameters}
        for suite, builder in cli.SUITE_BUILDERS.items()
    }
    tree = ast.parse((Path(asaikit.__file__).parent / "cli.py").read_text())
    builders = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    numeric = set()
    for suite, builder in cli.SUITE_BUILDERS.items():
        fn = builders[builder.__name__]
        gapped = {
            case.name
            for case in fn.body
            if isinstance(case, ast.FunctionDef)
            and any(
                isinstance(n, ast.Yield) and isinstance(n.value, ast.Tuple) and len(n.value.elts) == 3
                for n in ast.walk(case)
            )
        }
        returned = fn.body[-1].value.elts  # [(name, anchor, cases()), ...]
        numeric |= {f"{suite}/{row.elts[0].value}" for row in returned if row.elts[-1].func.id in gapped}
    assert {row[0].strip("`") for row in _readme_table("| check | gap | bound |")} == numeric


def test_bench_tracer_targets_resolve():
    """Every function the benchmark tracer wraps by name still exists, methods on their own class."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("asaikit_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"asaikit.{module}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_python_m_runs_the_cli(tmp_path):
    """`python -m asaikit` is the `asaikit` command."""
    env = dict(os.environ, PYTHONPATH=str(Path(asaikit.__file__).resolve().parent.parent))
    cache = tmp_path / "cache.json"
    proc = subprocess.run(
        [sys.executable, "-m", "asaikit", "verify", "characters", "--cache", str(cache)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout and cache.exists()


def test_closed_pipe_is_quiet(tmp_path):
    """A reader that closes stdout early (`asaikit verify ... | head`) ends the run with no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(asaikit.__file__).resolve().parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout meets a closed reader
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "asaikit", "verify", "characters", "--cache", str(tmp_path / "cache.json")],
            env=env,
            cwd=tmp_path,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_no_hand_kept_tails():
    """Error bounds travel in Ball radii: distribution and cohomology add no tail by hand,
    and no module but arith defines a value class with a to_mpc midpoint."""
    src = Path(asaikit.__file__).parent
    for name in ("distribution.py", "cohomology.py"):
        tree = ast.parse((src / name).read_text())
        summed = [n.target.id for n in ast.walk(tree) if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)]
        assert not [t for t in summed if "tail" in t], name
    owners = [
        f"{path.name}:{cls.name}"
        for path in sorted(src.glob("*.py"))
        if path.name != "arith.py"
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(fn, ast.FunctionDef) and fn.name == "to_mpc" for fn in cls.body)
    ]
    assert not owners


KERNEL = ("fixed_power_terms", "fold", "fixed_root_table", "_root_sum")


def test_one_truncated_series_path():
    """Truncated Dirichlet series go through arith.TruncatedSeries: outside arith only
    higher_coeffs_analytic calls the integer series kernel (fixed_power_terms and fold),
    the helpers power_terms, power_tail and series_ball are gone, and
    TruncatedSeries.at and .twisted, the only callers of _root_sum, sum the integer buckets
    through it: they call no mpmath function and read no root table themselves."""
    src = Path(asaikit.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "arith.py":
            continue
        tree = ast.parse(path.read_text())
        allowed = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) == ("eisenstein.py", "higher_coeffs_analytic"):
                allowed.update(id(node) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in KERNEL and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno}:{name}")
    assert not offenders
    for module in MODULES:
        mod = importlib.import_module(module)
        assert not any(hasattr(mod, name) for name in ("power_terms", "power_tail", "series_ball")), module
    defs = _methods(ast.parse((src / "arith.py").read_text()))
    for name in ("TruncatedSeries.at", "TruncatedSeries.twisted"):
        calls = [node for node in ast.walk(defs[name]) if isinstance(node, ast.Call)]
        names = {getattr(node.func, "id", None) or getattr(node.func, "attr", None) for node in calls}
        assert "_root_sum" in names, name
        assert not names & {"root_table", "fixed_root_table"}, name
        assert not {_dotted_root(node.func) for node in calls} & {"mpmath", "mp"}, name
    callers = {
        name
        for name, fn in defs.items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_root_sum"
    }
    assert callers == {"TruncatedSeries.at", "TruncatedSeries.twisted"}


def test_twisted_chooses_its_bucket_modulus():
    """TruncatedSeries.twisted takes the character and the primes to skip, and buckets mod
    lcm(chi's modulus, coprime_to) itself: a caller cannot name a modulus that misses one."""
    params = list(inspect.signature(arith.TruncatedSeries.twisted).parameters)
    assert params == ["self", "chi", "coprime_to"]


def _dotted_root(node: ast.expr) -> str | None:
    """The name an attribute chain such as mp.workprec or mpmath.mpc starts from."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return getattr(node, "id", None)


def _methods(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Module functions by name and class methods as Class.method."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{fn.name}", fn) for fn in node.body if isinstance(fn, ast.FunctionDef))
    return out


def test_integer_exact_kernel():
    """The cyclotomic product and sum, the QuadCoeff product and sum, the SL2/Clebsch
    calculus on BiHomogPoly and HomogPoly, the group membership test and the integrality
    test run on integers: they construct no Fraction and read no Fraction view (coeffs, x,
    y) of an operand.  The calculus also builds and conjugates no QuadCoeff: it reads the
    matrix entries once, through _pair, and TestIntegerPairs checks at run time that it
    does no QuadCoeff arithmetic.  The membership test conjugates on integer pairs and
    names no QuadCoeff at all."""
    src = Path(asaikit.__file__).parent
    fraction = {"Fraction"}
    quad = fraction | {"QuadCoeff", "_make", "conj", "valuation"}
    pinned = (
        (
            "arith.py",
            fraction,
            (
                "CyclotomicNumber.__mul__",
                "cyclotomic_dot",
                "_reduce_mod_cyclotomic",
                "CyclotomicNumber._make",
                "CyclotomicNumber._coerced",
                "CyclotomicNumber._combine",
                "CyclotomicNumber.__add__",
                "CyclotomicNumber.__sub__",
                "CyclotomicNumber.lift",
                "CyclotomicNumber._permuted",
            ),
        ),
        ("cohomology.py", fraction, ("QuadCoeff._make", "QuadCoeff._combine", "QuadCoeff.__add__", "QuadCoeff.__mul__")),
        ("eisenstein.py", quad, ("membership_two_ways", "_conjugate")),
        ("asai.py", fraction, ("QuadFieldData.is_integral",)),
        (
            "cohomology.py",
            quad,
            (
                "_substitution_rows",
                "_rows",
                "_substitute",
                "sl2_act",
                "homog_act",
                "_nabla",
                "nabla",
                "clebsch_project",
                "_mul",
                "_powers",
                "_PairPoly._from_ints",
                "_PairPoly.min_valuation",
            ),
        ),
    )
    offenders = []
    for name, banned, functions in pinned:
        defs = _methods(ast.parse((src / name).read_text()))
        for fn_name in functions:
            for node in ast.walk(defs[fn_name]):
                called = isinstance(node, ast.Call) and (
                    {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & banned
                )
                if called or (isinstance(node, ast.Attribute) and node.attr in ("coeffs", "x", "y")):
                    offenders.append(f"{name}:{fn_name}:{node.lineno}")
    assert not offenders
    defs = _methods(ast.parse((src / "eisenstein.py").read_text()))
    for fn_name in ("membership_two_ways", "_conjugate"):
        assert "QuadCoeff" not in {getattr(node, "id", None) for node in ast.walk(defs[fn_name])}, fn_name
    assert not hasattr(importlib.import_module("asaikit.eisenstein"), "QuadCoeff")


def test_euler_product_on_the_table_walk():
    """The Euler-product check multiplies the local inverse factors by the walk that builds
    every coefficient table, and reads d(r) pointwise: no table of the form, and no second
    product loop.  The walk has exactly the two callers."""
    called = _names_called(_function("asai.py", "euler_vs_coefficients"))
    assert {"_multiplicative_table", "local_asai_factor", "asai_coeff"} <= called
    assert not called & {"tabulate", "nonzero", "_coeff_from_factorization"}
    tree = ast.parse((Path(asaikit.__file__).parent / "asai.py").read_text())
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and "_multiplicative_table" in _names_called(fn)
    }
    assert callers == {"tabulate", "euler_vs_coefficients"}


def test_eisenstein_weight_checked_once():
    """cmd_eisenstein leaves the weight to LevelParams, whose ValueError it turns into exit 2."""
    fn = _function("cli.py", "cmd_eisenstein")
    on_k = [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Attribute) and n.attr == "k" for n in ast.walk(node))
    ]
    assert not on_k


def test_one_translation_path():
    """translate is sl2_act of the translation matrix, and the denominator lemma translates
    and projects through the public functions, so the traced bench names time that work."""
    assert "sl2_act" in _called(_function("cohomology.py", "translate"))
    assert {"translate", "clebsch_project"} <= _called(_function("cohomology.py", "denominator_lemma_check"))


# operations that no command, verify row or workload reached, and the second routes they served
REMOVED = {
    ("asai", "OrdinaryData"): ("d_p",),
    ("cohomology", "QuadCoeff"): ("inverse", "__truediv__", "__rsub__"),
    ("characters", "DirichletCharacter"): ("__call__", "conjugate"),
    ("arith", "CyclotomicNumber"): ("degree",),
    ("cli", None): ("_random_sl2_quad",),
    ("characters", None): (
        "_lift_unit", "_prime_power_factors", "normalized_L", "NormalizedLValue", "_bernoulli_L_factor"
    ),
    ("arith", None): (
        "cyclotomic_mul", "frequency_sum", "character_sum", "kronecker_symbol", "_binomial",
        "_bareiss_solve", "_multiplication_matrix",
    ),
    ("asai", None): ("hecke_power",),
    ("eisenstein", None): ("_exponent_histogram",),
    ("padic", None): ("integrality_bound_check",),
    ("cohomology", None): ("_half_representatives",),
}


def test_unused_operations_are_gone():
    for (module, cls), names in REMOVED.items():
        mod = importlib.import_module(f"asaikit.{module}")
        for name in names:
            if cls is None:
                assert not hasattr(mod, name), name
            else:
                assert not any(name in vars(k) for k in getattr(mod, cls).__mro__[:-1]), f"{cls}.{name}"


def _names_called(fn: ast.FunctionDef) -> set:
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None) for n in ast.walk(fn) if isinstance(n, ast.Call)}


def test_units_come_from_the_unit_group():
    """(Z/q)^x is listed by characters._unit_group: the unit loops read it instead of filtering
    a range by gcd (cmd_kummer keeps gcd for its families at a = 1, 2), and the Teichmueller
    base is a power of characters._primitive_root, found by no search.  glue_check (up to 10^6
    units), denominator_lemma_check (a drawn unit) and CyclotomicNumber._other_conjugates
    (arith sits below characters) keep their own filters."""
    loops = [
        ("padic.py", "padic_valuation"),
        ("distribution.py", "integrate_character"),
        ("cohomology.py", "rationality_ratio"),
        ("cli.py", "dist_relation"),
        ("cli.py", "dirac_control"),
        ("cli.py", "cmd_kummer"),
    ]
    for module, name in loops:
        called = _names_called(_function(module, name))
        assert "_unit_group" in called, name
        assert "gcd" not in called or name == "cmd_kummer", name
    root = _function("padic.py", "_teichmueller_root")
    assert "_primitive_root" in _names_called(root)
    assert not [n for n in ast.walk(root) if isinstance(n, (ast.For, ast.While, ast.comprehension))]


def test_one_exact_l_value():
    """The rationality check reads the special-value row's L-value: rationality_ratio takes
    L_special_exact's algebraic part times characters._euler_factor, the one product of level
    Euler factors, which _level_characters calls too; neither loops over factorize itself, and
    no (2 pi)^k is multiplied in apart from TranscendentalValue.  The analytic routes,
    L_truncated and the Moebius series, call neither helper."""
    for module, name in (("eisenstein.py", "_level_characters"), ("cohomology.py", "rationality_ratio")):
        fn = _function(module, name)
        assert "_euler_factor" in _names_called(fn), name
        loops = [n.iter for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
        assert not [it for it in loops if "factorize" in _names_called(it)], name
    called = _names_called(_function("cohomology.py", "rationality_ratio"))
    assert "L_special_exact" in called and "_two_pi_power" not in called
    for module, name in (("characters.py", "L_truncated"), ("eisenstein.py", "higher_coeffs_analytic")):
        assert not _names_called(_function(module, name)) & {"_euler_factor", "L_special_exact"}, name


def test_norm_and_inverse_from_the_conjugates():
    """CyclotomicNumber.norm and .inverse both multiply by the one product of the other Galois
    conjugates, _other_conjugates, which applies galois; neither solves a linear system."""
    defs = _methods(ast.parse((Path(asaikit.__file__).parent / "arith.py").read_text()))
    for name in ("CyclotomicNumber.norm", "CyclotomicNumber.inverse"):
        assert "_other_conjugates" in _names_called(defs[name]), name
    assert "galois" in _names_called(defs["CyclotomicNumber._other_conjugates"])


def test_one_cyclotomic_product():
    """Products and quotients in Q(zeta_m) are one-pair cyclotomic_dot calls that lift no
    operand, and _reduce_mod_cyclotomic is the one reader of the taps of Phi_m."""
    src = Path(asaikit.__file__).parent
    defs = _methods(ast.parse((src / "arith.py").read_text()))
    for name in ("CyclotomicNumber.__mul__", "CyclotomicNumber.__truediv__"):
        calls = [node.func for node in ast.walk(defs[name]) if isinstance(node, ast.Call)]
        called = {getattr(func, "id", None) or getattr(func, "attr", None) for func in calls}
        assert "cyclotomic_dot" in called, name
        assert not called & {"lift", "_coerced", "_permuted"}, name
    readers = {
        f"{path.name}:{fn.name}"
        for path in src.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, ast.FunctionDef)
        and any("_cyclotomic_taps" in (getattr(node, "id", None), getattr(node, "attr", None)) for node in ast.walk(fn))
    }
    assert readers == {"arith.py:_reduce_mod_cyclotomic"}


def test_one_direct_character_sum(monkeypatch):
    """Every direct sum of character values in characters.py and eisenstein.py is the one
    exponent histogram _character_sum: no other function there calls from_exponents.  The
    closed form _twisted_factors runs once per (psi, d) in higher_coeff_exact, at d > 0."""
    src = Path(asaikit.__file__).parent
    callers = {
        f"{name}:{fn.name}"
        for name in ("characters.py", "eisenstein.py")
        for fn in ast.walk(ast.parse((src / name).read_text()))
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "from_exponents" for node in ast.walk(fn))
    }
    assert callers == {"characters.py:_character_sum"}
    params = eisenstein.LevelParams(2, 3, 1, 4)
    true_factors = eisenstein._twisted_factors
    seen = []

    def counted(psi, b):
        seen.append((psi, b))
        return true_factors(psi, b)

    monkeypatch.setattr(eisenstein, "_twisted_factors", counted)
    eisenstein.higher_coeff_exact(params, 6)
    assert seen == [(psi, d) for psi, _ in eisenstein._level_characters(params) for d in (1, 2, 3, 6)]


# The benchmark's exact digests at seed 0.  A change that alters an exact output on purpose
# updates its digest here and says so.
EXACT_DIGESTS = {
    "exact-sweep": "1bc8c113ea3297e0435651b2901931491e2438e9ebf332045e637e2311abc042",
    "analytic-sweep": "26f4b7f4c63524935a12d8bae51a06c283a1c24676a8d5f645fd54f0e4704ee8",
}


@pytest.mark.parametrize("workload", sorted(EXACT_DIGESTS))
def test_bench_exact_outputs_pinned(workload, tmp_path):
    """One pass of the workload at seed 0 fails no comparison and hashes every exact output,
    each value's order included, to the stored digest."""
    workloads = load_bench_workloads()
    setup, run = workloads.WORKLOADS[workload]
    tally = workloads.Tally()
    run(setup(0, str(tmp_path)), tally)
    assert tally.failed == 0, tally.failures
    assert tally.digest() == EXACT_DIGESTS[workload]


def test_character_structure_from_exponents():
    """A character's conductor, primitive character and CRT components are arithmetic on its
    exps: conductor, primitive, _components and the _levels they read touch no value table
    (_table) and evaluate the character nowhere (exponent_of, value); _level_characters keeps
    psi by its conductor, with no v-range scan."""
    defs = _methods(ast.parse((Path(asaikit.__file__).parent / "characters.py").read_text()))
    for name in ("DirichletCharacter._levels", "DirichletCharacter.conductor", "DirichletCharacter.primitive", "_components"):
        read = {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(defs[name])}
        assert not read & {"_table", "exponent_of", "value"}, name
    assert "_v_range" not in _called(_function("eisenstein.py", "_level_characters"))


def test_one_route_per_coefficient():
    """coeff_principal and asai_coeff compute pointwise and never read the tables; the
    tables are read through MockEigenform.nonzero alone, which tabulates what it reads, so
    no module but asai calls tabulate."""
    for name in ("coeff_principal", "asai_coeff"):
        read = {node.attr for node in ast.walk(_function("asai.py", name)) if isinstance(node, ast.Attribute)}
        assert "_tables" not in read, name
    src = Path(asaikit.__file__).parent
    callers = {
        path.name
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "tabulate"
    }
    assert callers == {"asai.py"}


def test_bessel_check_returns_one_shape():
    """A tuple of exponents gives a tuple of reports, one exponent included; a bare
    exponent is not accepted."""
    reports = arith.bessel_k_moment_check(0, (2,), 1)
    assert type(reports) is tuple and len(reports) == 1
    assert isinstance(reports[0], arith.BesselMomentReport)
    with pytest.raises(TypeError):
        arith.bessel_k_moment_check(0, 2, 1)
