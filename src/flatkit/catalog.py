"""Named constructions, the seeded random instance generator and the
seeded trial stream the verification and search drivers draw from.

Each catalog entry carries certified facts that the test suite re-derives
with the brute-force oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .cyclotomic import _integer_column, euler_phi
from .errors import GenerationError, UnsatisfiableShapeError, UsageError
from .matroid import Matroid, Representation, direct_sum, prefix_labels


def ag23() -> Representation:
    """AG(2,3) as the Hesse configuration over Q(zeta_3): the nine
    inflection points (0,1,-w^j), (1,0,-w^j), (1,-w^j,0), j in {0,1,2}.
    In the basis 1, w: -1, -w and -w^2 = 1 + w are (-1,0), (0,-1), (1,1)."""
    zero, one = (0, 0), (1, 0)
    minus_powers = ((-1, 0), (0, -1), (1, 1))
    points = ([zero + one + p for p in minus_powers]
              + [one + zero + p for p in minus_powers]
              + [one + p + zero for p in minus_powers])
    labels = tuple(f"h{j + 1}" for j in range(9))
    return Representation(3, 3, labels, tuple((1, v) for v in points))


def uniform(r: int, n: int) -> Representation:
    """U_{r,n} as an r x n Vandermonde matrix over Q with nodes 1..n."""
    if not (0 <= r <= n):
        raise UsageError(f"uniform requires 0 <= r <= n, got r={r}, n={n}")
    columns = tuple((1, tuple(node ** p for p in range(r)))
                    for node in range(1, n + 1))
    return Representation(1, r, tuple(f"e{j + 1}" for j in range(n)), columns)


def motzkin() -> Representation:
    """Direct sum of two three-point lines: rank 4, six elements, every
    plane has at least four elements but one is a point plus a line."""
    a = prefix_labels(uniform(2, 3), "a.")
    b = prefix_labels(uniform(2, 3), "b.")
    return direct_sum(a, b)


def _direct_power(base: Representation, t: int) -> Representation:
    """t-fold direct sum of base; copy i is labelled c<i>.<label>, and
    base itself is returned unchanged when t = 1."""
    if t == 1:
        return base
    out = prefix_labels(base, "c1.")
    for i in range(2, t + 1):
        out = direct_sum(out, prefix_labels(base, f"c{i}."))
    return out


def ag23_power(t: int) -> Representation:
    """t-fold direct sum of AG(2,3): rank 3t, no elementary rank-(t+1) flat."""
    if t < 1:
        raise UsageError("ag23_power requires t >= 1")
    return _direct_power(ag23(), t)


def uniform_power(r: int, n: int, t: int) -> Representation:
    """t-fold direct sum of U_{r,n} (the Bonnice-Edelstein line sums)."""
    if t < 1:
        raise UsageError("uniform_power requires t >= 1")
    return _direct_power(uniform(r, n), t)


SUPPORTED_CONDUCTORS = (1, 3, 4)

# Draws the generator makes before it gives up on a shape.
MAX_TRIES = 1000

# Largest `bound` the generator draws within.  The time grows with it:
# `analyze random:64,64,4,0,b` takes 7.5 s at b = 10, 27.1 s at 20 and
# 181 s at 100, and had not finished after 890 s at 1000 (one run each,
# 2-vCPU VM, Python 3.11.7).
MAX_BOUND = 10


def random_instance(d: int, m: int, conductor: int = 1, seed: int = 0,
                    bound: int = 10) -> Representation:
    """Seeded d x m representation, rejection-sampled until simple and of
    full rank d; basis coordinates are rationals randint(-bound, bound) /
    randint(1, bound), drawn and tested as integer columns.  A shape no
    simple matroid has (a negative rank, rank 0 with an element, rank 1
    with two), or a bound outside 1..MAX_BOUND, is refused before any
    draw."""
    return _random_matroid(d, m, conductor, seed, bound).to_representation()


def _random_matroid(d, m, conductor, seed, bound=10):
    """The matroid of random_instance(...), built from integer columns."""
    if d < 0:
        raise UnsatisfiableShapeError(f"rank must be at least 0, got {d}")
    if d < 2 and m > d:
        raise UnsatisfiableShapeError(
            f"rank {d} with m={m} columns can never be simple")
    if d > m:
        raise UsageError("need at least as many columns as rows")
    if conductor not in SUPPORTED_CONDUCTORS:
        raise UsageError(f"conductor must be one of {SUPPORTED_CONDUCTORS}")
    if bound < 1:
        raise UsageError(f"bound must be at least 1, got {bound}")
    if bound > MAX_BOUND:
        raise UsageError(f"bound must be at most {MAX_BOUND}, got {bound}")
    rng = random.Random(seed)
    labels = tuple(f"e{i + 1}" for i in range(m))
    for _ in range(MAX_TRIES):
        columns = _draw_columns(rng, d, m, conductor, bound)
        mat = Matroid._from_columns(conductor, labels, d, columns)
        if mat.rank() == d and mat.is_simple():
            return mat
    raise GenerationError(
        f"no simple rank-{d} instance after {MAX_TRIES} tries")


def _draw_columns(rng, d, m, conductor, bound):
    """One draw of a d x m matrix as the integer columns `Matroid` makes.
    Entries are drawn row by row, as phi(n) coordinates each, and every
    coordinate is rng.randint(-bound, bound) / rng.randint(1, bound) in
    lowest terms.  The two draws are made as randint makes them, from
    getrandbits: a draw below w takes w.bit_length() bits and is redrawn
    while it is w or more.  So the draws and the generator's state after
    them are randint's, at a fraction of its call overhead."""
    phi = euler_phi(conductor)
    bits = rng.getrandbits
    span = 2 * bound + 1
    wide, narrow = span.bit_length(), bound.bit_length()
    coords = []
    for _ in range(d * m * phi):
        a = bits(wide)
        while a >= span:
            a = bits(wide)
        b = bits(narrow)
        while b >= bound:
            b = bits(narrow)
        a, b = a - bound, b + 1
        g = gcd(a, b)
        coords.append((a // g, b // g))
    return [_integer_column([c for i in range(d)
                             for c in coords[(i * m + j) * phi:
                                             (i * m + j + 1) * phi]])
            for j in range(m)]


# Most columns a trial instance may have; the column count bounds the
# rank.  The paper-scale trials draw 68-70 columns (main-theorem k=17 and
# corollary k=4, both of rank 64) and take 3.8-5.7 s each over Q, against
# 0.52-0.54 s at rank 44 (main-theorem k=12), so the time grows steeply
# with the rank (one trial at seed 0, two runs each, in-process, 2-vCPU
# VM, Python 3.11).
MAX_TRIAL_COLUMNS = 72


def trial_instances(rank: int, trials: int, seed: int, conductor: int,
                    cols: tuple[int, int]):
    """Seeded stream of (trial seed, Matroid) for `trials` trials.

    Trial i gets its own seed s, a fixed function of seed and i, and the
    matroid of random_instance(rank, m, conductor, seed=s), with
    m = lo + Random(s).randint(0, hi - lo) for cols = (lo, hi); lo = hi
    fixes the column count.  The matroid is the one the generator
    accepted.  A stream whose instances could have more than
    MAX_TRIAL_COLUMNS columns is refused before any draw."""
    lo, hi = cols
    if hi > MAX_TRIAL_COLUMNS:
        raise UsageError(f"rank-{rank} trials would draw up to {hi} columns; "
                         f"a trial has at most {MAX_TRIAL_COLUMNS} columns")
    for i in range(trials):
        s = seed * 1000003 + i
        m = lo + random.Random(s).randint(0, hi - lo)
        yield s, _random_matroid(rank, m, conductor, s)


# Most columns a catalog reference may build.  Flat enumeration grows
# steeply with the column count: at 63 columns `analyze ag23_power:7
# --flats 3` takes 8.5 s (2-vCPU VM, Python 3.11), and `ag23_power:1000`
# would be a 3000 x 9000 matrix.
MAX_CATALOG_COLUMNS = 64


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: str  # human-readable parameter signature, "" if none
    build: object  # callable(*int params) -> Representation
    columns: object  # callable(*int params) -> column count of the build
    certified_facts: tuple[str, ...] = ()


ENTRIES = {
    "ag23": CatalogEntry(
        "ag23", "", ag23, lambda: 9,
        ("rank 3", "simple", "9 points", "12 lines, each of 3 points",
         "no two-point line")),
    "uniform": CatalogEntry(
        "uniform", "r,n", uniform, lambda r, n: n,
        ("rank r on n elements", "every r columns independent")),
    "motzkin": CatalogEntry(
        "motzkin", "", motzkin, lambda: 6,
        ("rank 4", "6 elements", "every plane has >= 4 elements",
         "some plane is a point plus a line")),
    "ag23_power": CatalogEntry(
        "ag23_power", "t", ag23_power, lambda t: 9 * t,
        ("rank 3t", "no elementary rank-(t+1) flat at t in {1,2,3,4}")),
    "uniform_power": CatalogEntry(
        "uniform_power", "r,n,t", uniform_power, lambda r, n, t: n * t,
        ("rank r*t", "block sum of uniform matroids")),
    "random": CatalogEntry(
        "random", "d,m,conductor,seed[,bound]", random_instance,
        lambda d, m, *rest: m,
        ("simple", "rank d", "reproducible per seed")),
}


def build_ref(ref: str) -> Representation:
    """Resolve a `name` or `name:p1,p2,...` catalog reference; one that
    would have more than MAX_CATALOG_COLUMNS columns is refused before
    anything is built."""
    name, _, argstr = ref.partition(":")
    entry = ENTRIES.get(name)
    if entry is None:
        raise UsageError(f"unknown catalog entry {name!r}")
    args = []
    if argstr:
        for tok in argstr.split(","):
            try:
                args.append(int(tok))
            except ValueError:
                raise UsageError(f"catalog parameter {tok!r} is not an integer")
    try:
        columns = entry.columns(*args)
    except TypeError:
        columns = 0  # a wrong parameter count, which the build reports
    if columns > MAX_CATALOG_COLUMNS:
        raise UsageError(f"{ref} would have {columns} columns; the catalog "
                         f"builds at most {MAX_CATALOG_COLUMNS}")
    try:
        return entry.build(*args)
    except TypeError as exc:
        raise UsageError(f"bad parameters for {name!r}: {exc}")
