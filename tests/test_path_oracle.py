"""Finiteness, dimension and path enumeration against a brute-force walk
over arrows (``path_oracle``, which does not use strquiv)."""

import ast
import random
from pathlib import Path

import pytest

import path_oracle as O
from strquiv import (
    Arrow,
    BoundQuiver,
    InfiniteDimensional,
    RandomSagSpec,
    algebra_dim,
    enumerate_paths,
    gen_random_sag,
    is_finite_dimensional,
)


def test_oracle_does_not_import_strquiv():
    tree = ast.parse((Path(__file__).parent / "path_oracle.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in names if name.startswith("strquiv")]


def _random_relations(seed):
    """A quiver of 3 to 6 vertices and 4 to 9 random arrows, loops allowed,
    bound by 1 to 8 random paths of 2 to 4 arrows, which may contain one
    another; the raw relations are returned beside the built quiver."""
    rng = random.Random(f"paths-{seed}")
    vertices = [f"v{i}" for i in range(rng.randint(3, 6))]
    arrows = [(f"a{j}", rng.choice(vertices), rng.choice(vertices)) for j in range(rng.randint(4, 9))]
    relations = []
    for _ in range(rng.randint(1, 8)):
        word = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 3)):
            out = [a for a in arrows if a[1] == word[-1][2]]
            if not out:
                break
            word.append(rng.choice(out))
        if len(word) >= 2:
            relations.append(tuple(a[0] for a in word))
    return BoundQuiver.build(vertices, [Arrow(*a) for a in arrows], relations), relations


def _check(bq, relations):
    """Compare ``bq`` with the oracle over ``relations``; True iff finite."""
    vertices = list(bq.vertices)
    arrows = [tuple(a) for a in bq.arrows]
    try:
        paths = O.free_paths(vertices, arrows, relations)
    except O.Infinite:
        paths = None
    assert is_finite_dimensional(bq) == (paths is not None)
    if paths is None:
        cycle = bq.relation_free_cycle
        assert O.is_closed_path(arrows, cycle), cycle
        # a power holding the longest relation twice, from every offset
        m = max(map(len, relations), default=1)
        assert not O.contains_relation(cycle * (2 + 2 * m // len(cycle)), relations), cycle
        with pytest.raises(InfiniteDimensional):
            algebra_dim(bq)
        return False
    assert bq.relation_free_cycle is None
    assert algebra_dim(bq) == len(paths)
    order = {a[0]: i for i, a in enumerate(arrows)}
    for s in vertices:
        for t in vertices:
            # shortest first, ties broken by arrow declaration order
            expected = sorted((w for start, end, w in paths if (start, end) == (s, t)),
                              key=lambda w: (len(w), [order[x] for x in w]))
            found = enumerate_paths(bq, s, t)
            assert [p.arrows for p in found] == expected, (s, t)
            assert all(p.anchor == t for p in found if p.is_trivial)
    return True


@pytest.mark.parametrize("name", ["fig1", "fig5"])
def test_fixtures_match_brute_force(name, request):
    bq = request.getfixturevalue(name)
    if name == "fig1":
        assert max(map(len, bq.relations)) == 3
    assert _check(bq, bq.relations)


@pytest.mark.parametrize("seed", range(12))
def test_generated_sag_matches_brute_force(seed):
    spec = RandomSagSpec(seed=seed, num_vertices=6 + seed % 3, num_arrows=8 + seed % 4)
    bq = gen_random_sag(spec)
    assert _check(BoundQuiver(bq.vertices, bq.arrows, bq.relations), bq.relations)


def test_random_relations_match_brute_force():
    finite = [_check(*_random_relations(seed)) for seed in range(400)]
    # both kinds occur often enough to be checked
    assert finite.count(True) >= 50 and finite.count(False) >= 50
