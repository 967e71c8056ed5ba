"""The group set's per-tensor index against the per-group slice loops.

``count_zero_groups``, ``effective_l2_all``, ``least_salient`` and
``zero_lora_slices`` read every group at once through ``GroupSet.index``.
The references below walk one group's slices at a time, as the readers did
before the index: ``group_is_zero``, the norm of ``effective_slice_vector``
and a slice-by-slice zeroing of each group's LoRA slices. Draws cover random
group subsets, random zeroed, partly zeroed and perturbed slices, adaptors
of rank 0 and 2, and a compact model whose first MLP was erased.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from lorashear.compress import apply_compression, plan_compression
from lorashear.errors import AnalysisError
from lorashear.graph import build_trace_graph
from lorashear.groups import (
    GroupSet,
    discover_node_groups,
    effective_slice_vector,
    group_is_zero,
    partition_variables,
    verify_group_set,
    zero_lora_slices,
    zero_structure,
)
from lorashear.lhspg import count_zero_groups
from lorashear.model import ModelConfig, build_model
from lorashear.saliency import effective_l2_all, least_salient

CASES = ("rank2", "rank0", "compact")


def analyzed(model):
    node_groups = discover_node_groups(build_trace_graph(model))
    return node_groups, partition_variables(node_groups, model)


def case_model(case: str, rng: np.random.Generator):
    """A small model with random adaptor factors, and its analyzed group set."""
    config = ModelConfig(vocab_size=16, dim=8, n_layers=2, n_heads=2, mlp_dim=6,
                         lora_rank=0 if case == "rank0" else 2, block_size=12, seed=1)
    model = build_model(config)
    for name, t in model.lora_parameters().items():
        t.data[:] = rng.normal(0.0, 0.5, size=t.data.shape)
    if case == "compact":
        _, group_set = analyzed(model)
        for g in group_set.groups:
            if g.node_group == "blocks.0.mlp":
                group_set.set_status(g.id, "redundant")
                zero_structure(model, g)
        model = apply_compression(model, plan_compression(group_set, model))
        assert model.blocks[0].mlp_dim == 0
    return (model, *analyzed(model))


def reference_l2(model, group) -> float:
    v = effective_slice_vector(model, group)
    return float(np.linalg.norm(v)) / np.sqrt(v.size)


def reference_zero_lora(model, groups) -> None:
    params = model.parameters()
    for g in groups:
        for s in g.lora_slices():
            idx = list(s.indices)
            params[s.param].data[(idx, slice(None)) if s.axis == 0 else (slice(None), idx)] = 0.0


def subset(rng, items, p):
    return [x for x in items if rng.random() < p]


def disturb(model, group_set, rng) -> None:
    """Zero some groups whole, zero some only in part, and revive one entry of others."""
    params = model.parameters()
    for g in group_set.groups:
        draw = rng.random()
        if draw < 0.5:
            zero_structure(model, g)
        s = g.host_slices()[rng.integers(len(g.host_slices()))]
        arr = params[s.param].data
        if draw < 0.25:  # revive one host entry of a zeroed group
            pos = [int(rng.integers(n)) for n in arr.shape]
            pos[s.axis] = s.indices[int(rng.integers(len(s.indices)))]
            arr[tuple(pos)] = 1e-300
        elif draw > 0.8:  # zero one host slice only
            idx = list(s.indices)
            arr[(idx, slice(None)) if s.axis == 0 else (slice(None), idx)] = -0.0


@seed(25)
@settings(max_examples=30)
@given(case=st.sampled_from(CASES), draw_seed=st.integers(0, 2**32 - 1), whole=st.booleans())
def test_index_readers_match_the_per_group_loops(case, draw_seed, whole):
    rng = np.random.default_rng(draw_seed)
    model, _, full = case_model(case, rng)
    # a group set over a random subset of the groups indexes only those
    group_set = full if whole else GroupSet(
        groups=subset(rng, full.groups, 0.6) or full.groups[:1], status=dict(full.status))
    disturb(model, group_set, rng)
    groups = group_set.groups
    ids = [g.id for g in subset(rng, groups, 0.7)]

    assert count_zero_groups(model, group_set, ids) == sum(
        group_is_zero(model, group_set.by_id[gid]) for gid in ids)

    values = effective_l2_all(model, group_set)
    reference = np.array([reference_l2(model, g) for g in groups])
    assert np.all((values == 0.0) == (reference == 0.0))
    np.testing.assert_allclose(values, reference, rtol=1e-12, atol=0.0)

    pool = [groups[i] for i in rng.permutation(len(groups)) if rng.random() < 0.8]
    ranked = least_salient(model, group_set, pool)
    assert sorted(g.id for g in ranked) == sorted(g.id for g in pool)
    ref = [(reference_l2(model, g), g.id) for g in ranked]
    for i in range(len(ref)):
        for j in range(i + 1, len(ref)):
            # the reference order, (value, id), up to summation-order noise
            assert ref[i] < ref[j] or 0 < ref[i][0] - ref[j][0] <= 1e-9 * ref[i][0]
    k = int(rng.integers(len(pool) + 1))
    assert least_salient(model, group_set, pool, k) == ranked[:k]

    twin = model.clone()
    chosen = [g.id for g in subset(rng, groups, 0.5)]
    zero_lora_slices(model, group_set, chosen)
    reference_zero_lora(twin, [group_set.by_id[gid] for gid in chosen])
    for name, t in model.parameters().items():
        assert t.data.tobytes() == twin.parameters()[name].data.tobytes(), name


@pytest.mark.parametrize("case", CASES)
def test_index_covers_every_prunable_axis_once(case):
    model, node_groups, group_set = case_model(case, np.random.default_rng(0))
    for family in node_groups.prunable_families():
        for m in family.members:
            entry = group_set.index[(m.param, m.axis)]
            size = model.parameters()[m.param].data.shape[m.axis]
            assert sorted(entry.indices.tolist()) == list(range(size))
            for i, owner in zip(entry.indices.tolist(), entry.owners.tolist()):
                g = group_set.groups[owner]
                assert any(s.param == m.param and s.axis == m.axis and i in s.indices for s in g.slices)


def test_duplicate_coverage_names_the_axis_and_indices(toy_model):
    node_groups, group_set = analyzed(toy_model)
    twice = GroupSet(groups=group_set.groups + group_set.groups[:1], status=dict(group_set.status))
    twice_covered = r"duplicate coverage of blocks\.0\.attn\.\S+ axis \d indices \[0, 1, 2"
    with pytest.raises(AnalysisError, match=twice_covered):
        verify_group_set(twice, node_groups, toy_model)


def test_coverage_gap_names_the_missing_indices(toy_model):
    node_groups, group_set = analyzed(toy_model)
    crippled = GroupSet(groups=[g for g in group_set.groups if g.id != "blocks.0.mlp:ch:005"],
                        status=dict(group_set.status))
    gap = r"coverage gap on blocks\.0\.mlp\.\S+ axis \d: missing indices \[5\]"
    with pytest.raises(AnalysisError, match=gap):
        verify_group_set(crippled, node_groups, toy_model)
