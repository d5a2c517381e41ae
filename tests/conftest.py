import importlib.util
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from asaikit.asai import dump_eigenform, random_mock_eigenform
from asaikit.distribution import DistParams


def load_bench_workloads():
    """bench/workloads.py, loaded from its file (the bench directory is not a package)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("asaikit_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def acceptance_mock(seed: int, p: int, k: int = 2, R: int = 100_000):
    """Mock eigenform with fast-decaying tails: a declared support of the
    mid-range primes 31..80, data up to R, small Satake units."""
    rng = random.Random(seed)
    return random_mock_eigenform(
        rng,
        k=k,
        N=1,
        p=p,
        prime_bound=R,
        support_bound=80,
        support_min=31,
        c_num_bound=2,
        satake_units=(2, -2),
    )


@pytest.fixture(scope="session")
def dist_params_small():
    """Shared profile at modest truncation for unit tests (p = 3, s = 5)."""
    f = acceptance_mock(7, 3, R=10_000)
    return DistParams(f, 3, F(5), 10_000, 128)


@pytest.fixture(scope="session")
def dist_params_p5():
    f = acceptance_mock(8, 5, R=10_000)
    return DistParams(f, 5, F(5), 10_000, 128)


# Edits of a dump_eigenform text at p = 5 over Q(i) (D = 4; 13 splits, 4 is
# not prime) that each add a line nothing reads; load_eigenform must reject them.
def _append(*lines):
    return lambda text: text + "".join(line + "\n" for line in lines)


def _extend_first(prefix):
    """Add a token after the value of the first line starting with ``prefix``."""
    return lambda text: re.sub(f"^({prefix}.*)$", r"\1 0", text, count=1, flags=re.M)


UNREAD_EIGENFORM_EDITS = {
    "unknown-header": _append("bogus 5"),
    "repeated-header": lambda text: text.replace("N 1\n", "N 7\nN 1\n"),
    "wrong-tag": lambda text: text.replace("l 13 split ", "l 13 inert "),
    "record-extra-token": _extend_first("l 13 split "),
    "header-extra-token": _extend_first("k "),
    "non-prime": _append("l 4 ramified 1"),
    "at-p": _append("l 5 split 1", "l 5 split 2"),
}


def composite_p_eigenform_text() -> str:
    """A p = 3 form over Q(sqrt(-8)) re-headed to p = 9 with Satake products 9: Euler's
    criterion calls 9 split in Q(sqrt(-8)), so only a primality test refuses the file."""
    f = random_mock_eigenform(
        random.Random(3), k=2, N=1, D=8, p=3, prime_bound=200, support_bound=80,
        support_min=31, c_num_bound=2, satake_units=(2, -2),
    )
    text = re.sub("^p 3$", "p 9", dump_eigenform(f), count=1, flags=re.M)
    return re.sub("^satake .*$", "satake 2 9/2 -2 -9/2", text, count=1, flags=re.M)
