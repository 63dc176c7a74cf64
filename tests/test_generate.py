import hashlib
import importlib

import pytest

import strquiv.generate
from strquiv import (
    BoundQuiver,
    GenerationExhausted,
    RandomSagSpec,
    classify,
    format_quiver,
    gen_random_sag,
    is_finite_dimensional,
)


def test_deterministic_per_seed():
    spec = RandomSagSpec(seed=1)
    assert gen_random_sag(spec) == gen_random_sag(spec)


def test_different_seeds_differ_somewhere():
    outputs = {gen_random_sag(RandomSagSpec(seed=s)) for s in range(1, 10)}
    assert len(outputs) > 1


def test_outputs_are_sag_and_finite():
    for seed in range(1, 30):
        bq = gen_random_sag(RandomSagSpec(seed=seed))
        assert classify(bq).is_sag, seed
        assert is_finite_dimensional(bq), seed


def test_zero_arrows():
    bq = gen_random_sag(RandomSagSpec(seed=1, num_arrows=0))
    assert bq.arrows == () and classify(bq).is_sag


def test_unsatisfiable_bounds_exhaust():
    # 1 vertex supports at most 2 out-arrows; asking for 5 can never work
    with pytest.raises(GenerationExhausted):
        gen_random_sag(RandomSagSpec(seed=1, num_vertices=1, num_arrows=5))


def test_unsatisfiable_bounds_are_rejected_before_sampling(monkeypatch):
    calls = []
    names = strquiv.generate._arrow_names
    monkeypatch.setattr(strquiv.generate, "_arrow_names", lambda n: calls.append(n) or names(n))
    with pytest.raises(GenerationExhausted, match="11 arrows exceed the 10 that 5 vertices"):
        gen_random_sag(RandomSagSpec(seed=1, num_vertices=5, num_arrows=11))
    assert calls == []


def test_two_arrows_per_vertex_is_satisfiable():
    for seed in range(20):
        bq = gen_random_sag(RandomSagSpec(seed=seed, num_vertices=5, num_arrows=10))
        assert len(bq.arrows) == 10 and classify(bq).is_sag


@pytest.mark.parametrize(
    ("vertices", "arrows"), [(1, 2), (3, 6), (5, 7), (8, 12), (12, 18), (40, 60)]
)
def test_output_is_unchanged_by_build(vertices, arrows):
    # the generator uses the plain constructor; build must have nothing to
    # fix, and nothing checks at run time that the output is SAG and finite
    for seed in range(20):
        for density in (0.0, 0.4, 1.0):
            spec = RandomSagSpec(seed, vertices, arrows, density)
            bq = gen_random_sag(spec)
            assert BoundQuiver.build(bq.vertices, bq.arrows, bq.relations) == bq, spec
            assert classify(bq).is_sag and is_finite_dimensional(bq), spec


def test_output_is_neither_classified_nor_searched(monkeypatch):
    # SAG and finite by construction: the generator classifies no quiver,
    # and it runs no product-graph search on the quiver it returns
    classified = []
    module = importlib.import_module("strquiv.classify")
    monkeypatch.setattr(module, "check_s1", lambda bq: classified.append(bq) or [])
    bq = gen_random_sag(RandomSagSpec(seed=3, num_vertices=20, num_arrows=30))
    assert not classified
    cached = vars(bq)
    assert "_product_dfs" not in cached
    assert not cached.get("_product_table")
    classify(bq)
    assert classified == [bq]  # the spy sees a classification


def test_density_extremes():
    sparse = gen_random_sag(RandomSagSpec(seed=2, relation_density=0.0))
    dense = gen_random_sag(RandomSagSpec(seed=2, relation_density=1.0))
    assert classify(sparse).is_sag and classify(dense).is_sag


# sha256 of format_quiver(gen_random_sag(...)) at density 0.4, recorded with
# the earlier networkx-based repair loop.  They pin the order in which the
# loop cuts cycles; the benchmark's inputs come from the generator too.
GOLDEN_SHA256 = {
    (6, 9, 1): "63a34929c852d7534cfa0dba1ac55d3a2410857151e15bbf5eeac91a44f83bf1",
    (6, 9, 2): "b5e9c79aa1f171bef082fcaa5aaabc52611b6450248edb19085ea479d4f4a771",
    (6, 9, 3): "f684762eaf59e9698e8df2201a8bc658c873339cade129d26a4cdf50adabc187",
    (20, 30, 1): "1be785c335d1d782403f7633efbb3faebbeb04f367bc4d4477e733ee8c966087",
    (20, 30, 2): "b94cbfc882877b42883cb1e3c3f5578575f99a384c65951b8259ca2f821a1d81",
    (20, 30, 3): "2bb5e9c4b93b6509dcba8976c64562ed5f4823fcc03c800cb6f4bf2b2d58c336",
    (100, 150, 1): "8fa6b3e925b875ffd35e2b7b78803b7a39a5b8ff5dac74920ebb711edfbafdcb",
    (100, 150, 2): "bcca538479b6933be1b54b266534394b440b6f34db604af24c98f2556c2a3ac0",
    (100, 150, 3): "e5d312ba351d9b46c9f56da1fa4bfed7d35ad798ed0aae8ae34b7ca84697ee19",
    (1000, 1500, 3): "bc5ce0d6423bfd0e4d977a60017c4df0484df30a9619a9f778e3e19009e7dfdb",
    (3000, 4500, 3): "b20fdd534f5887d261948e96e1065b5e1598eb6a7238e6cbaad0d35877a62250",
}


@pytest.mark.parametrize(("vertices", "arrows", "seed"), sorted(GOLDEN_SHA256))
def test_output_is_pinned(vertices, arrows, seed):
    spec = RandomSagSpec(
        seed=seed, num_vertices=vertices, num_arrows=arrows, relation_density=0.4
    )
    text = format_quiver(gen_random_sag(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[vertices, arrows, seed]
