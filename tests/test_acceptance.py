"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
while passing).
"""

import itertools
import json
import random
import time

import pytest

from flatkit.catalog import ag23, ag23_power, motzkin, random_instance, uniform, uniform_power
from flatkit.cli import main
from flatkit.matroid import Matroid
from flatkit.search import (
    find_elementary_flat,
    find_ordinary_flat_brute,
    find_ordinary_flat_constructive,
    find_two_point_line,
    is_ordinary,
)


def criterion(name, ok, elapsed, limit):
    line = (f"ACCEPTANCE {'PASS' if ok and elapsed < limit else 'FAIL'}: "
            f"{name} ({elapsed:.1f}s, limit {limit:.0f}s)")
    print(line)
    assert ok, name
    assert elapsed < limit, f"{name} exceeded {limit}s ({elapsed:.1f}s)"


def trial_seed(seed, i):
    return seed * 1000003 + i


def test_kelly_suite():
    # 100 seeded rank-4 instances per conductor in {1, 3, 4}, 8-10
    # columns, each with a two-point line
    t0 = time.time()
    ok = True
    for conductor in (1, 3, 4):
        for i in range(100):
            s = trial_seed(conductor * 10 + 7, i)
            m = 8 + random.Random(s).randint(0, 2)
            M = Matroid(random_instance(4, m, conductor, seed=s))
            if find_two_point_line(M) is None:
                ok = False
    criterion("kelly suite (300 instances, conductors 1/3/4)",
              ok, time.time() - t0, 30)


def test_kelly_sharpness():
    t0 = time.time()
    M = Matroid(ag23())
    ok = M.is_simple() and M.rank() == 3
    for a, b in itertools.combinations(M.ground, 2):
        if len(M.closure([a, b]).elements) == 2:
            ok = False
    ok = ok and find_two_point_line(M) is None
    criterion("kelly sharpness: ag23 has no two-point line",
              ok, time.time() - t0, 1)


MAIN_SEED = 7


def main_theorem_instance(i):
    s = trial_seed(MAIN_SEED, i)
    m = 12 + random.Random(s).randint(0, 2)
    return s, random_instance(8, m, 1, seed=s)


def test_main_theorem_k3():
    # 25 rank-8 instances, 12-14 columns: constructive search succeeds
    # with no internal-inconsistency alarm, output rechecked independently
    t0 = time.time()
    ok = True
    for i in range(25):
        _, rep = main_theorem_instance(i)
        witness, _ = find_ordinary_flat_constructive(Matroid(rep), 3)
        fresh = Matroid(rep)
        if is_ordinary(fresh, fresh.as_flat(witness.flat.elements)) is None:
            ok = False
    criterion("main theorem k=3 (25 constructive runs + recheck)",
              ok, time.time() - t0, 300)


def test_oracle_agreement():
    # on 10 instances capped at 12 columns the brute oracle also finds one
    t0 = time.time()
    ok = True
    for i in range(10):
        s = trial_seed(MAIN_SEED, i)
        rep = random_instance(8, 12, 1, seed=s)
        find_ordinary_flat_constructive(Matroid(rep), 3)
        if find_ordinary_flat_brute(Matroid(rep), 3) is None:
            ok = False
    criterion("oracle agreement (10 instances, 12 columns)",
              ok, time.time() - t0, 600)


def test_corollary_k2():
    t0 = time.time()
    ok = True
    for i in range(50):
        s = trial_seed(11, i)
        m = 8 + random.Random(s).randint(0, 2)
        M = Matroid(random_instance(4, m, 1, seed=s))
        fl = find_elementary_flat(M, 2)
        if fl is None or len(fl.elements) != 2:
            ok = False
    criterion("corollary k=2 (50 rank-4 instances, elementary line)",
              ok, time.time() - t0, 60)


@pytest.mark.slow
def test_corollary_k4_paper_scale(capsys):
    """One corollary k=4 trial over Q at rank 4^3 = 64: the elementary
    induction runs the constructive search at k = 4^2 + 1 = 17, then at
    k = 4 + 1 = 5 in the rank-16 complement of its witness, and at k = 2
    in the rank-4 complement of that one.  Its witness and its work
    counts are pinned."""
    t0 = time.time()
    code = main(["verify", "--suite", "corollary", "--k", "4", "--trials",
                 "1", "--seed", "0", "--json"])
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    elapsed = time.time() - t0
    assert (code, report["rank"], report["outcome"]) == (0, 64,
                                                         "witness found")
    assert report["witness"]["flat"] == ["e1", "e2", "e5", "e17"]
    assert report["stats"] == {"rank_calls": 369, "flats_enumerated": 144,
                               "ms": 0.0}
    with capsys.disabled():
        criterion("corollary k=4 over Q (one rank-64 trial)",
                  True, elapsed, 120)


def test_conjecture2_tightness():
    t0 = time.time()
    M = Matroid(ag23_power(2))
    ok = (M.rank() == 6 and len(M.ground) == 18
          and find_elementary_flat(M, 3) is None)
    criterion("conjecture-2 tightness: ag23^2 has no elementary rank-3 flat",
              ok, time.time() - t0, 300)


def test_motzkin_example():
    t0 = time.time()
    M = Matroid(motzkin())
    planes = list(M.flats_of_rank(3))
    ok = all(len(p.elements) >= 4 for p in planes)
    ok = ok and any(is_ordinary(M, p) is not None for p in planes)
    criterion("motzkin example: planes >= 4 elements, one ordinary",
              ok, time.time() - t0, 1)


def test_bonnice_edelstein_tightness():
    t0 = time.time()
    ok = True
    for k in (2, 3):
        M = Matroid(uniform_power(2, 3, k - 1))
        if find_elementary_flat(M, k) is not None:
            ok = False
    criterion("bonnice-edelstein tightness at k in {2,3}",
              ok, time.time() - t0, 60)


def test_axiom_suites():
    t0 = time.time()
    ok = True
    mats = {"ag23": ag23(), "uniform23": uniform(2, 3),
            "motzkin": motzkin(), "ag23_power2": ag23_power(2)}
    for name, rep in mats.items():
        M = Matroid(rep)
        rng = random.Random(name)
        g = M.ground
        for _ in range(1000):  # submodularity
            X = set(rng.sample(g, rng.randint(0, len(g))))
            Y = set(rng.sample(g, rng.randint(0, len(g))))
            if M.rank(X | Y) + M.rank(X & Y) > M.rank(X) + M.rank(Y):
                ok = False
        for _ in range(1000):  # closure axioms, one sampled X per check
            X = set(rng.sample(g, rng.randint(0, min(4, len(g)))))
            cl = M.closure(X)
            if not X <= set(cl.elements):
                ok = False
            if M.closure(cl.elements) != cl:
                ok = False
            Y = X | {rng.choice(g)}
            if not set(cl.elements) <= set(M.closure(Y).elements):
                ok = False
        # contraction flat correspondence, randomized
        C = M.closure([g[0]])
        Q = M.contract(C)
        cset = set(C.elements)
        for _ in range(1000):
            X = set(rng.sample(Q.ground, rng.randint(0, min(3, len(Q.ground)))))
            F = M.closure(X | cset)
            down = tuple(e for e in F.elements if e not in cset)
            lifted = Q.closure(X)
            if set(lifted.elements) != set(down):
                ok = False
            if lifted.rank != F.rank - C.rank:
                ok = False
        if not ok:
            break
    criterion("axiom suites (1000 checks each per catalog matroid)",
              ok, time.time() - t0, 60)


def test_determinism(capsys):
    t0 = time.time()
    args = ["verify", "--suite", "main-theorem", "--k", "3",
            "--trials", "25", "--seed", "7", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1.encode() == out2.encode()
    doc = json.loads(out1)
    ok = ok and all(r["outcome"] == "witness found" for r in doc["reports"])
    with capsys.disabled():
        criterion("determinism: verify --json byte-identical across runs",
                  ok, time.time() - t0, 600)
