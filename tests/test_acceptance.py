"""Acceptance gate: one test per criterion, each printing a visible
PASS/FAIL line with its runtime against the stated limit."""

import io
import json
import math
import random
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest

from hypersel import chains
from hypersel.chains import (
    FamilySystem,
    build_selection_from_nice,
    derive_nice_family,
    is_nice,
    regular_class_cover_check,
)
from hypersel._kernels import regular_masks_exhaustive
from hypersel.cli import main as cli_main
from hypersel.documents import dumps, jsonable
from hypersel.extension import (
    certified_isomorphism,
    equivariance_check,
    extend_selection,
    order_partial,
    partition_types,
    random_partial,
)
from hypersel.obstruction import obstruction_table, search_regular
from hypersel.structures import (
    GroundSet,
    IsoMap,
    apply_iso,
    canonical_form,
    check_cycle_property,
    enumerate_selections,
    ground_range,
    is_regular,
    mask_from_tournament,
    regular_tournaments,
    rotational_tournament,
    subset_ranks,
)
from hypersel.vietoris import check_continuity, member_hits, order_model, overlaps

from oracles import (
    conflict_system,
    cyclic_model,
    oracle_chains_agree,
    oracle_extend_value,
    oracle_intersect,
    oracle_placement,
    oracle_unique_overlaps,
    random_points,
    random_system,
    write_model,
    write_partial,
    write_system,
)
from test_vietoris import EXTENSION_SETTINGS, extension_property, hits, random_family

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@contextmanager
def criterion(capsys, num, name, limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: FAIL ({elapsed:.2f}s, limit {limit}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL (over time limit)"
        print(f"ACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s < {limit}s)")
    assert ok, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_obstruction_certificates(capsys):
    with criterion(capsys, 1, "obstruction certificates p<=31, m<=1000", 5):
        checked = 0
        for row in obstruction_table(1000):
            m, p = row.m, row.p
            if p > 31:
                continue
            assert row.binom % m != 0
            assert row.lucas_residue == 1
            assert p * row.binom == m * math.comb(m - 1, p - 1)
            assert row.search_status == "proven-none"
            checked += 1
        assert checked == sum(1000 // p for p in PRIMES_TO_31)


def test_criterion_2_exhaustive_regularity(capsys):
    with criterion(capsys, 2, "regularity search and enumeration", 30):
        for m, n in ((4, 2), (6, 2), (8, 2)):
            res = search_regular(m, n)
            assert res.status == "proven-none", (m, n)
        for m, n in ((3, 2), (5, 2), (7, 2), (4, 3)):
            res = search_regular(m, n)
            assert res.status == "witness", (m, n)
            assert is_regular(res.structure)

        labeled = sum(1 for _ in enumerate_selections(4, 2))
        classes = sum(1 for _ in enumerate_selections(4, 2, up_to_iso=True))
        assert (labeled, classes) == (64, 4)

        count = len(regular_masks_exhaustive(5))
        rot = rotational_tournament(5)
        aut = sum(
            1
            for images in permutations(range(5))
            if apply_iso(rot, IsoMap(rot.ground, rot.ground, images)).picks
            == rot.picks
        )
        assert count == math.factorial(5) // aut == 24


EXTENSION_COMBOS = ((2, 4, 2), (3, 4, 2), (3, 6, 2), (3, 6, 3), (4, 8, 2))


def _extension_inputs(size, k):
    carrier = ground_range(size)
    yield order_partial(carrier, k, "min")
    yield order_partial(carrier, k, "max")
    for i in range(20):
        yield random_partial(carrier, k, random.Random(f"ext-{size}-{k}-{i}"))


def test_criterion_3_extension_pipeline(capsys):
    with criterion(capsys, 3, "extension oracle and equivariance", 60):
        compared = 0
        for size in range(4, 9):
            for k, m, p in EXTENSION_COMBOS:
                if m > size:
                    continue
                subs, _ = subset_ranks(size, m)
                for f in _extension_inputs(size, k):
                    h = extend_selection(f, m, p)
                    for s in subs:
                        labels = tuple(f.carrier.labels[i] for i in s)
                        value = h.choose(labels)
                        assert value in labels
                        assert value == oracle_extend_value(f, labels, p)
                        compared += 1
        assert compared > 0

        pairs = 0
        seed = 0
        while pairs < 100:
            k = 2 + seed % 2
            f = random_partial(ground_range(6), k, random.Random(f"equi-{seed}"))
            seed += 1
            h = extend_selection(f, 4, 2)
            for members in partition_types(f, 4, 2).classes.values():
                for x, y in zip(members, members[1:]):
                    if pairs >= 100:
                        break
                    phi = certified_isomorphism(f, x, y)
                    if phi is None:
                        # same pair-type but no all-arity isomorphism
                        continue
                    assert equivariance_check(f, h, x, y, phi)
                    pairs += 1
        assert pairs == 100


def test_criterion_4_cycle_property(capsys):
    with criterion(capsys, 4, "3-cycle property of regular tournaments", 30):
        for m, exhaustive, expected in ((3, True, 2), (5, True, 24), (7, False, 2640)):
            found = regular_tournaments(m)
            if exhaustive:
                assert [mask_from_tournament(t) for t in found] == regular_masks_exhaustive(m)
            assert len(found) == expected
            for t in found:
                assert check_cycle_property(t).ok


def test_criterion_5_continuity_and_intersection(capsys):
    with criterion(capsys, 5, "continuity checks and grid oracle", 60):
        for rule in ("min", "max"):
            for size in range(1, 9):
                model = order_model(range(size), size, rule)
                assert check_continuity(model).ok
            for seed in range(3):
                pts = random_points(random.Random(f"cont-{rule}-{seed}"), 5)
                model = order_model(pts, 4, rule)
                assert check_continuity(model).ok

        from oracles import flip_model

        verdict = check_continuity(flip_model())
        assert not verdict.ok and verdict.witness == (F(0), F(1))

        for seed in range(200):
            rng = random.Random(f"grid-{seed}")
            u = random_family(rng, rng.randint(1, 3))
            v = random_family(rng, rng.randint(1, 3))
            assert overlaps(hits(u, v), v.size) == oracle_intersect(u, v)


def _seeded_chain_model(seed):
    pts = tuple(F(i) for i in range(5))
    f = random_partial(GroundSet(pts), 3, random.Random(f"chain-{seed}"))
    from hypersel.vietoris import model_space

    return model_space(pts, f)


def test_criterion_6_chains_roundtrip(capsys):
    with criterion(capsys, 6, "chain derivation, building, BFS oracle", 60):
        systems = [derive_nice_family(cyclic_model(), 2)]
        derived = 0
        seed = 0
        while derived < 10:
            model = _seeded_chain_model(seed)
            seed += 1
            system = derive_nice_family(model, 2)
            if not system.families:
                continue
            derived += 1
            systems.append(system)
        for system in systems:
            assert is_nice(system).ok
            assert regular_class_cover_check(system, 2).ok
            built = build_selection_from_nice(system)
            # covering-family independence, re-derived per family
            points = system.model.points
            for s, pick in built.values.items():
                pts, value = tuple(points[i] for i in s), points[pick]
                for fi, fam in enumerate(system.families):
                    if oracle_placement(fam, pts) is None:
                        continue
                    comp = next(c for c in built.components if fi in c)
                    ci = built.components.index(comp)
                    base_f, base_m = built.bases[ci]
                    keys = system.graph.keys
                    mapping = chains._unique(member_hits(keys[base_f], keys[fi]))
                    member = fam.members[mapping[base_m]]
                    assert [p for p in pts if member.lo < p < member.hi] == [value]

        verdict = is_nice(conflict_system())
        assert not verdict.ok
        serialized = dumps(jsonable(verdict.witness))
        assert json.loads(serialized)[0] == "transfer-conflict"

        checked = list(systems) + [conflict_system()]
        for seed in range(20):
            rng = random.Random(f"sys-{seed}")
            checked.append(random_system(rng, rng.randint(2, 6)))
        for system in checked:
            assert len(system.families) <= 8
            verdict = is_nice(system)
            if not oracle_unique_overlaps(system):
                assert not verdict.ok
                continue
            agree, _ = oracle_chains_agree(system, max_len=6)
            assert verdict.ok == agree


def _report_bundle(tmp_path, seed):
    f = random_partial(ground_range(6), 2, random.Random(f"det-{seed}"))
    fpath = tmp_path / "f.json"
    fpath.write_text(dumps(write_partial(f)))
    mpath = tmp_path / "model.json"
    mpath.write_text(dumps(write_model(cyclic_model())))
    spath = tmp_path / "system.json"
    spath.write_text(dumps(write_system(conflict_system())))
    dpath = tmp_path / "derived.json"

    pieces = []
    for argv in (
        ["enumerate", "4", "2", "--iso", "--seed", str(seed)],
        ["obstruct", "8", "--seed", str(seed)],
        ["obstruct", "8", "--format", "json", "--seed", str(seed)],
        ["extend", str(fpath), "4", "2", "--seed", str(seed)],
        ["chains", "derive", str(mpath), "2", "--seed", str(seed)],
        ["chains", "check-nice", str(spath), "--seed", str(seed)],
        ["model", "check-continuity", str(mpath), "--seed", str(seed)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        assert code in (0, 1)
        pieces.append(out.getvalue())
    # a derive written to disk must match the streamed bytes too
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli_main(["chains", "derive", str(mpath), "2", "--output", str(dpath)]) == 0
    pieces.append(dpath.read_text())
    return "".join(pieces)


def test_criterion_7_determinism(capsys, tmp_path):
    with criterion(capsys, 7, "byte-identical seeded reports", 60):
        first = _report_bundle(tmp_path, 42)
        second = _report_bundle(tmp_path, 42)
        assert first == second


def test_criterion_8_continuity_preserved_by_extension(capsys):
    # the tier-1 property (tests/test_vietoris.py, where its docstring
    # argues why it must hold), derandomized: 25 lifted models with
    # exactly m clusters at each of the five (k, m, p) settings
    with criterion(capsys, 8, "continuity preserved by extension", 30):
        for k, m, p in EXTENSION_SETTINGS:
            extension_property(k, m, p, derandomize=True)()
