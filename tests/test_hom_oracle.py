"""hom_dim and dim End(A ⊕ N) against explicit representations and exact
linear algebra (``hom_oracle``, which does not use strquiv)."""

import ast
import itertools
from pathlib import Path

import pytest

import hom_oracle as O
from strquiv import (
    RandomSagSpec,
    enumerate_strings,
    format_walk,
    gen_random_sag,
    hom_dim,
    left_forbidden_arrows,
    perfect_index,
    validate_index,
    verify_endo_dimension,
)
from strquiv.core import _paths_into, _product_edges


def _arrows(bq):
    return [(a.id, a.source, a.target) for a in bq.arrows]


def _string_module(bq, w):
    return O.string_module(_arrows(bq), [(l.arrow, l.inv) for l in w.letters], w.anchor)


def _generated(seed):
    return gen_random_sag(RandomSagSpec(seed=seed, num_vertices=8, num_arrows=12))


def test_oracle_does_not_import_strquiv():
    tree = ast.parse((Path(__file__).parent / "hom_oracle.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in names if name.startswith("strquiv")]


def test_oracle_on_a_projective_and_a_simple():
    # 1 -a-> 2: P(1) = M(a) has dim 2, the simple S(2) = M(e_2) maps into it
    arrows = [("a", "1", "2")]
    p1 = O.path_module(arrows, [], "1")
    s2 = O.string_module(arrows, [], "2")
    assert p1 == O.string_module(arrows, [("a", False)])
    assert (O.hom_dim(arrows, p1, p1), O.hom_dim(arrows, s2, p1), O.hom_dim(arrows, p1, s2)) == (1, 1, 0)


@pytest.mark.parametrize("name", ["fig1", "fig5", 1, 2, 3])
def test_hom_dim_matches_oracle(name, request):
    bq = request.getfixturevalue(name) if isinstance(name, str) else _generated(name)
    strings = enumerate_strings(bq, 3)
    modules = [_string_module(bq, w) for w in strings]
    for (s2, m2), (s1, m1) in itertools.product(zip(strings, modules), repeat=2):
        assert hom_dim(bq, s2, s1) == O.hom_dim(_arrows(bq), m2, m1), (
            format_walk(s2),
            format_walk(s1),
        )


def _assert_verify_matches_oracle(bq, indices):
    """dim End(A ⊕ N) and dim R(A), for each index, from the oracle's
    projective and arrow modules."""
    arrows = _arrows(bq)
    reps = {v: O.path_module(arrows, bq.relations, v) for v in bq.vertices}
    for a in bq.arrows:
        reps[a.id] = O.path_module(arrows, bq.relations, a.target, (a.id,))
    homs = {(x, y): O.hom_dim(arrows, reps[x], reps[y]) for x in reps for y in reps}
    for index in indices:
        report = verify_endo_dimension(bq, validate_index(bq, index))
        summands = list(bq.vertices) + list(report.result.arrow_map)
        endo = sum(homs[x, y] for x in summands for y in summands)
        q = report.result.quiver
        transformed = O.algebra_dim(q.vertices, _arrows(q), q.relations)
        assert (report.dim_source_endo, report.dim_transformed) == (endo, transformed), index


def _indices(bq):
    left = sorted(left_forbidden_arrows(bq), key=lambda x: bq.arrow_index[x])
    pi = perfect_index(bq).arrows
    subsets = [s for k in range(len(pi) + 1) for s in itertools.combinations(pi, k)]
    return subsets + [(alpha,) for alpha in left] + [left]


def test_endo_split_matches_oracle_on_fig5(fig5):
    _assert_verify_matches_oracle(fig5, _indices(fig5))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_endo_split_matches_oracle_on_generated(seed):
    bq = _generated(seed)
    _assert_verify_matches_oracle(bq, _indices(bq))


@pytest.mark.parametrize("name", ["fig5", 1, 2, 3, 4, 5])
def test_each_arrow_module_hom_matches_oracle(name, request):
    """Each (α, Y) term of the split: hom(αA, Y) for each left-forbidden α
    and each summand Y, counted as the paths from Y's top that end at t(α)
    on a product node with no edge γ out of it, αγ a relation."""
    bq = request.getfixturevalue(name) if isinstance(name, str) else _generated(name)
    arrows = _arrows(bq)
    tops = {v: (v, 0) for v in bq.vertices}
    reps = {v: O.path_module(arrows, bq.relations, v) for v in bq.vertices}
    for a in bq.arrows:
        tops[a.id] = next(node for x, node in _product_edges(bq, (a.source, 0)) if x == a.id)
        reps[a.id] = O.path_module(arrows, bq.relations, a.target, (a.id,))
    after = bq._relation_partners[0]
    for alpha in sorted(left_forbidden_arrows(bq), key=lambda x: bq.arrow_index[x]):
        target = bq.arrow_by_id[alpha].target
        kernel = [
            node
            for node in bq._product_dfs[1]
            if node[0] == target and all(x not in after[alpha] for x, _ in _product_edges(bq, node))
        ]
        for y, top in tops.items():
            into = _paths_into(bq, [top])
            term = sum(into[node] for node in kernel)
            assert term == O.hom_dim(arrows, reps[alpha], reps[y]), (alpha, y)


def test_readme_witnesses_from_the_oracle(fig5):
    arrows = _arrows(fig5)
    projectives = [O.path_module(arrows, fig5.relations, v) for v in fig5.vertices]
    for alpha, transformed in (("d'", 32), ("a'", 30)):
        target = fig5.arrow_by_id[alpha].target
        module = O.path_module(arrows, fig5.relations, target, (alpha,))
        assert O.end_dim(arrows, projectives + [module]) == 33
        q = verify_endo_dimension(fig5, validate_index(fig5, [alpha])).result.quiver
        assert O.algebra_dim(q.vertices, _arrows(q), q.relations) == transformed
