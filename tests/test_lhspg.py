import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorashear.config import LhspgSection
from lorashear.errors import ConfigError, NumericError
from lorashear.baseline import one_shot_prune
from lorashear.graph import build_trace_graph
from lorashear.groups import (
    discover_node_groups,
    effective_slice_vector,
    frozen_slice_vector,
    group_is_zero,
    partition_variables,
    write_frozen_slices,
)
from lorashear.lhspg import (
    end_of_period_merge,
    halfspace_project,
    period_quotas,
    run_lhspg,
    warmup,
)
from lorashear.model import next_token_loss
from lorashear.optim import Sgd, train_step
from lorashear.saliency import effective_l2, least_salient
from lorashear.tensor import Tape, Tensor
from lorashear.util import model_hash


def structures(model):
    graph = build_trace_graph(model)
    node_groups = discover_node_groups(graph)
    return node_groups, partition_variables(node_groups, model)


def frozen_hash(model) -> str:
    import hashlib

    h = hashlib.sha256()
    for name, t in sorted(model.parameters().items()):
        if ".lora_" not in name:
            h.update(name.encode() + t.data.tobytes())
    return h.hexdigest()


class TestTrainStep:
    def test_non_finite_loss_raises_naming_the_caller_before_any_update(
        self, trained_toy, monkeypatch
    ):
        model, corpus = trained_toy
        before = model_hash(model)
        opt = Sgd(list(model.parameters().values()), 0.3)
        monkeypatch.setattr("lorashear.optim.next_token_loss", lambda m, b: Tensor(np.nan))
        with pytest.raises(NumericError, match="pretrain step 7: divergent loss"):
            batch = corpus.sample_batch(np.random.default_rng(0), 4)
            train_step(model, batch, opt, where="pretrain step 7")
        assert model_hash(model) == before


class TestWarmup:
    def test_nan_poisoned_lora_factor_raises_numeric_error(self, trained_toy):
        model, corpus = trained_toy
        model.blocks[0].q.lora_a.data[:] = np.nan
        rng = np.random.default_rng(0)
        with pytest.raises(NumericError):
            warmup(model, lambda: corpus.sample_batch(rng, 4), steps=3, learning_rate=0.3)

    def test_zero_steps_leave_model_unchanged(self, trained_toy):
        model, corpus = trained_toy
        before = model_hash(model)
        rng = np.random.default_rng(0)
        warmup(model, lambda: corpus.sample_batch(rng, 4), steps=0, learning_rate=0.3)
        assert model_hash(model) == before

    def test_frozen_weights_untouched(self, trained_toy):
        model, corpus = trained_toy
        before = frozen_hash(model)
        rng = np.random.default_rng(1)
        warmup(model, lambda: corpus.sample_batch(rng, 4), steps=12, learning_rate=0.3)
        assert frozen_hash(model) == before
        assert any(np.any(t.data) for n, t in model.parameters().items() if n.endswith(".lora_B"))

    def test_loss_improves_after_200_steps(self, toy_model, toy_corpus):
        rng = np.random.default_rng(2)
        losses = warmup(
            toy_model, lambda: toy_corpus.sample_batch(rng, 8), steps=200, learning_rate=0.3
        )
        assert np.mean(losses[-10:]) < losses[0]


class TestSaliency:
    def test_zero_effective_weight_scores_zero(self, toy_model):
        _, group_set = structures(toy_model)
        g = group_set.by_id["blocks.0.mlp:ch:000"]
        from lorashear.groups import zero_structure

        zero_structure(toy_model, g)
        assert effective_l2(toy_model, g) == 0.0

    def test_duplicated_groups_score_identically(self, toy_model):
        _, group_set = structures(toy_model)
        a = group_set.by_id["blocks.0.mlp:ch:001"]
        b = group_set.by_id["blocks.0.mlp:ch:002"]
        va = frozen_slice_vector(toy_model, a)
        from lorashear.groups import write_frozen_slices

        write_frozen_slices(toy_model, b, va)
        assert effective_l2(toy_model, a) == effective_l2(toy_model, b)

    def test_matches_brute_force_recompute_from_dumped_tensors(self, trained_toy):
        model, corpus = trained_toy
        rng = np.random.default_rng(3)
        warmup(model, lambda: corpus.sample_batch(rng, 4), steps=5, learning_rate=0.3)
        _, group_set = structures(model)
        params = {n: t.data.copy() for n, t in model.parameters().items()}
        gamma = model.config.lora_gamma
        for gid in ("blocks.0.attn:head:001", "blocks.1.mlp:ch:017"):
            g = group_set.by_id[gid]
            parts = []
            for s in g.host_slices():
                module = s.param.rsplit(".", 1)[0]
                eff = params[s.param] + gamma * (
                    params[f"{module}.lora_B"] @ params[f"{module}.lora_A"]
                )
                sl = eff[list(s.indices), :] if s.axis == 0 else eff[:, list(s.indices)]
                parts.append(sl.ravel())
            v = np.concatenate(parts)
            expected = float(np.linalg.norm(v)) / np.sqrt(v.size)
            assert effective_l2(model, g) == pytest.approx(expected, rel=1e-12)


CHANNELS = tuple(f"blocks.0.mlp:ch:00{i}" for i in range(4))


def scaled_channels(model, scales):
    """Four same-size groups whose effective_l2 is exactly ``scales`` (the adaptor is zero at init)."""
    _, group_set = structures(model)
    groups = [group_set.by_id[gid] for gid in CHANNELS]
    for g, c in zip(groups, scales):
        write_frozen_slices(model, g, np.full(frozen_slice_vector(model, g).size, c))
    return group_set, groups


def ids(groups):
    return [g.id for g in groups]


class TestLeastSalient:
    def test_ascending_saliency(self, toy_model):
        group_set, groups = scaled_channels(toy_model, (0.3, 0.1, 0.4, 0.2))
        assert ids(least_salient(toy_model, group_set, groups, 3)) == [CHANNELS[1], CHANNELS[3], CHANNELS[0]]

    def test_ties_go_to_the_lower_id(self, toy_model):
        group_set, groups = scaled_channels(toy_model, (0.2, 0.1, 0.2, 0.1))
        assert ids(least_salient(toy_model, group_set, groups[::-1], 3)) == [CHANNELS[1], CHANNELS[3], CHANNELS[0]]

    def test_k_none_keeps_all_and_k_zero_none(self, toy_model):
        group_set, groups = scaled_channels(toy_model, (0.4, 0.3, 0.2, 0.1))
        assert ids(least_salient(toy_model, group_set, groups)) == list(CHANNELS[::-1])
        assert least_salient(toy_model, group_set, groups, 0) == []

    def test_input_order_does_not_matter(self, toy_model):
        group_set, groups = scaled_channels(toy_model, (0.2, 0.4, 0.1, 0.2))
        ranked = ids(least_salient(toy_model, group_set, groups))
        assert ranked == [CHANNELS[2], CHANNELS[0], CHANNELS[3], CHANNELS[1]]
        for order in ([3, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]):
            assert ids(least_salient(toy_model, group_set, [groups[i] for i in order])) == ranked


class TestQuotas:
    def test_examples(self):
        assert period_quotas(27, 4) == [7, 7, 7, 6]
        assert period_quotas(8, 4) == [2, 2, 2, 2]
        assert period_quotas(5, 4) == [2, 2, 1, 0]
        assert period_quotas(0, 3) == [0, 0, 0]
        assert period_quotas(3, 1) == [3]

    @given(st.integers(0, 300), st.integers(1, 12))
    def test_sum_and_bounds(self, k, p):
        quotas = period_quotas(k, p)
        assert sum(quotas) == k
        assert len(quotas) == p
        assert all(q >= 0 for q in quotas)


class TestHalfspaceStep:
    def test_already_zero_group_stays_zero_without_nan(self, toy_model):
        _, group_set = structures(toy_model)
        g = group_set.by_id["blocks.0.mlp:ch:004"]
        from lorashear.groups import zero_structure

        zero_structure(toy_model, g)
        assert halfspace_project(toy_model, g, penalty=0.5, eps=0.0) is False
        assert group_is_zero(toy_model, g)
        assert np.isfinite(frozen_slice_vector(toy_model, g)).all()

    def test_anti_aligned_trial_projects_to_exact_zero(self, toy_model):
        # a penalty larger than the slice norm flips the trial's direction,
        # so with eps=0 the inner product goes negative and the slice zeroes
        _, group_set = structures(toy_model)
        g = group_set.by_id["blocks.0.mlp:ch:006"]
        norm = float(np.linalg.norm(frozen_slice_vector(toy_model, g)))
        assert halfspace_project(toy_model, g, penalty=2.0 * norm, eps=0.0) is True
        assert np.all(frozen_slice_vector(toy_model, g) == 0.0)

    def test_aligned_trial_keeps_the_trial_iterate(self, toy_model):
        _, group_set = structures(toy_model)
        g = group_set.by_id["blocks.0.mlp:ch:008"]
        x = frozen_slice_vector(toy_model, g)
        norm = float(np.linalg.norm(x))
        assert halfspace_project(toy_model, g, penalty=0.25 * norm, eps=0.0) is False
        # adaptor is zero at init, so the trial is x - penalty * unit(x)
        expected = x - 0.25 * norm * x / norm
        assert np.allclose(frozen_slice_vector(toy_model, g), expected, atol=1e-15)

    def test_penalty_schedule_decays_the_norm_to_epsilon_scale(self, toy_model):
        # with zero gradients and B@A identically zero, each step subtracts the
        # penalty along the unit direction; after steps_per_period steps the
        # norm has fallen from its initial value to machine-epsilon scale
        _, group_set = structures(toy_model)
        g = group_set.by_id["blocks.1.mlp:ch:020"]
        for s in g.lora_slices():  # kill the adaptor so the trial is pure decay
            module = s.param.rsplit(".", 1)[0]
            mod = toy_model.lora_linears()[module]
            mod.lora_a.data[:] = 0.0
            mod.lora_b.data[:] = 0.0
        n0 = float(np.linalg.norm(frozen_slice_vector(toy_model, g)))
        steps = 25
        penalty = n0 / steps
        norms = [n0]
        for _ in range(steps):
            halfspace_project(toy_model, g, penalty=penalty, eps=0.0)
            norms.append(float(np.linalg.norm(frozen_slice_vector(toy_model, g))))
        # linear decay: after t steps the norm is n0 * (1 - t/steps)
        for t in range(steps):
            assert norms[t] == pytest.approx(n0 * (1 - t / steps), rel=1e-8, abs=1e-12)
        assert norms[-1] <= n0 * 1e-12


class TestMerge:
    def test_merge_with_zero_b_is_identity(self, toy_model):
        before = model_hash(toy_model)
        end_of_period_merge(toy_model)
        assert model_hash(toy_model) == before

    def test_merge_preserves_logits_within_1e9(self, trained_toy):
        model, corpus = trained_toy
        rng = np.random.default_rng(4)
        warmup(model, lambda: corpus.sample_batch(rng, 4), steps=10, learning_rate=0.3)
        tokens = rng.integers(0, 64, size=(3, 16))
        before = model.forward(tokens).data
        end_of_period_merge(model)
        assert np.max(np.abs(model.forward(tokens).data - before)) < 1e-9

    def test_double_merge_equals_single_merge(self, trained_toy):
        model, corpus = trained_toy
        rng = np.random.default_rng(5)
        warmup(model, lambda: corpus.sample_batch(rng, 4), steps=10, learning_rate=0.3)
        end_of_period_merge(model)
        once = model_hash(model)
        end_of_period_merge(model)
        assert model_hash(model) == once


SEED = 11


def quick_config(**kw):
    base = dict(learning_rate=0.3, warmup_steps=5, periods=2, steps_per_period=6, batch_size=4)
    base.update(kw)
    return LhspgSection(**base)


class TestRun:
    def test_target_exceeding_prunable_rejected(self, trained_toy):
        model, corpus = trained_toy
        _, group_set = structures(model)
        with pytest.raises(ConfigError, match="prunable"):
            run_lhspg(model, group_set, quick_config(), 137, SEED, corpus.sample_batch)

    def test_k_zero_equals_plain_lora_finetuning(self, trained_toy):
        # independent twin: replicate the exact control flow (same seeded batch
        # stream, same optimizer, merge each period) without any pruning code
        model, corpus = trained_toy
        twin = model.clone()
        _, group_set = structures(model)
        config = quick_config()
        result = run_lhspg(model, group_set, config, 0, SEED, corpus.sample_batch)
        assert result.zero_groups == 0 and group_set.ids_with_status("redundant") == []
        assert all(s == "important" for s in (group_set.status[g] for g in group_set.by_id))

        rng = np.random.default_rng(np.random.SeedSequence([SEED, 0x1A5B]))
        twin.set_trainable("lora")
        opt = Sgd(list(twin.lora_parameters().values()), config.learning_rate)
        for _ in range(config.warmup_steps):
            opt.zero_grad()
            with Tape() as tape:
                loss = next_token_loss(twin, corpus.sample_batch(rng, config.batch_size))
            tape.backward(loss)
            opt.step()
        for _ in range(config.periods):
            for _ in range(config.steps_per_period):
                opt.zero_grad()
                with Tape() as tape:
                    loss = next_token_loss(twin, corpus.sample_batch(rng, config.batch_size))
                tape.backward(loss)
                opt.step()
            twin.merge_all_lora()
        assert model_hash(model) == model_hash(twin)

    def test_k_equals_all_prunable_with_one_period(self, trained_toy):
        model, corpus = trained_toy
        _, group_set = structures(model)
        config = quick_config(periods=1, steps_per_period=4)
        result = run_lhspg(model, group_set, config, 136, SEED, corpus.sample_batch)
        assert result.zero_groups == 136
        assert all(group_is_zero(model, group_set.by_id[g.id]) for g in group_set.groups)

    def test_cardinality_exact_and_monotone_redundancy(self, trained_toy, tmp_path):
        model, corpus = trained_toy
        _, group_set = structures(model)
        config = quick_config(periods=3, steps_per_period=8)
        zeroed_ever: dict[str, int] = {}
        violations = []

        def inspect(event, m):
            if event["event"] != "step" or event["period"] < 0:
                return
            for gid in zeroed_ever:
                if not group_is_zero(m, group_set.by_id[gid]):
                    violations.append((event["step"], gid, "frozen slice revived"))
                for s in group_set.by_id[gid].lora_slices():
                    arr = m.parameters()[s.param].data
                    sl = arr[list(s.indices), :] if s.axis == 0 else arr[:, list(s.indices)]
                    if np.any(sl):
                        violations.append((event["step"], gid, "lora slice revived"))
            for gid in event["projected"]:
                zeroed_ever.setdefault(gid, event["step"])

        log = tmp_path / "log.jsonl"
        result = run_lhspg(
            model, group_set, config, 27, SEED, corpus.sample_batch, log_path=log, inspect=inspect
        )
        assert result.zero_groups == 27
        assert violations == []
        assert len(group_set.ids_with_status("redundant")) == 27
        assert set(zeroed_ever) == set(group_set.ids_with_status("redundant"))
        # statuses written back
        assert len(group_set.ids_with_status("redundant")) == 27
        assert len(group_set.ids_with_status("important")) == 109

    def test_unprunable_groups_bit_identical_except_merges(self, trained_toy):
        model, corpus = trained_toy
        _, group_set = structures(model)
        # mark one whole family unprunable, as knowledge analysis would
        for g in group_set.groups:
            if g.node_group == "blocks.0.attn":
                group_set.set_status(g.id, "unprunable")
        unprunable = group_set.ids_with_status("unprunable")
        config = quick_config(periods=2, steps_per_period=6)
        snapshots = {gid: None for gid in unprunable}
        violations = []

        def snap(m):
            return {gid: frozen_slice_vector(m, group_set.by_id[gid]).copy() for gid in unprunable}

        state = {"cur": None}

        def inspect(event, m):
            if event["event"] == "step" and event["period"] >= 0:
                if state["cur"] is None:
                    state["cur"] = snap(m)
                else:
                    now = snap(m)
                    for gid in unprunable:
                        if not np.array_equal(now[gid], state["cur"][gid]):
                            violations.append((event["step"], gid))
                    state["cur"] = now
            elif event["event"] == "merge":
                state["cur"] = snap(m)  # merges may move unprunable slices

        result = run_lhspg(model, group_set, config, 20, SEED, corpus.sample_batch, inspect=inspect)
        assert violations == []
        assert result.zero_groups == 20
        for gid in unprunable:
            assert group_set.status[gid] == "unprunable"
            assert not group_is_zero(model, group_set.by_id[gid])

    def test_statuses_are_the_run_state(self, trained_toy):
        # a group turns redundant as its period starts; the rest turn important at done
        model, corpus = trained_toy
        _, group_set = structures(model)
        for g in group_set.groups:
            if g.node_group == "blocks.1.attn":
                group_set.set_status(g.id, "unprunable")
        prunable = group_set.prunable_ids()
        unprunable = group_set.ids_with_status("unprunable")
        selected: list[str] = []
        seen = []

        def inspect(event, m):
            if event["event"] in ("period_start", "done"):
                selected.extend(event.get("selected", []))
                seen.append((event["event"], dict(group_set.status), sorted(selected)))

        config = quick_config(periods=3, steps_per_period=2)
        run_lhspg(model, group_set, config, 12, SEED, corpus.sample_batch, inspect=inspect)
        assert [event for event, _, _ in seen] == ["period_start"] * 3 + ["done"]
        for event, status, chosen in seen:
            redundant = [gid for gid in prunable if status[gid] == "redundant"]
            assert redundant == chosen
            rest = "important" if event == "done" else "prunable"
            assert all(status[gid] == rest for gid in prunable if gid not in chosen)
            assert all(status[gid] == "unprunable" for gid in unprunable)
        assert len(selected) == 12
        assert sorted(group_set.ids_with_status("redundant", "important")) == sorted(prunable)

    def test_run_log_supports_post_hoc_verification(self, trained_toy, tmp_path):
        model, corpus = trained_toy
        _, group_set = structures(model)
        config = quick_config(periods=2, steps_per_period=5)
        log = tmp_path / "log.jsonl"
        run_lhspg(model, group_set, config, 9, SEED, corpus.sample_batch, log_path=log)
        events = [json.loads(line) for line in log.read_text().splitlines()]
        steps = [e for e in events if e["event"] == "step" and e["period"] >= 0]
        zero_counts = [e["zero_groups"] for e in steps]
        assert zero_counts == sorted(zero_counts)  # zeroing never reverts
        assert zero_counts[-1] == 9
        starts = [e for e in events if e["event"] == "period_start"]
        assert [len(s["selected"]) for s in starts] == [5, 4]
        selected = [gid for s in starts for gid in s["selected"]]
        assert len(selected) == len(set(selected))
        projected = {gid for e in steps for gid in e["projected"]}
        assert projected == set(selected)
        assert [e["event"] for e in events if e["event"] == "merge"] == ["merge", "merge"]
        done = events[-1]
        assert done["event"] == "done" and done["zero_groups"] == 9

    def test_divergent_loss_raises_training_error(self, trained_toy):
        # the pre-norm architecture never overflows on its own, so poison a
        # parameter mid-run and require the runner to surface the failure
        from lorashear.errors import NumericError

        model, corpus = trained_toy
        _, group_set = structures(model)

        def poison(event, m):
            if event["event"] == "step" and event["step"] == 2:
                m.blocks[0].q.lora_a.data[:] = np.nan

        with pytest.raises(NumericError):
            run_lhspg(model, group_set, quick_config(), 10, SEED, corpus.sample_batch, inspect=poison)


class TestOneShot:
    def test_zeroes_the_least_salient_prunable_groups_of_a_clone(self, trained_toy):
        model, corpus = trained_toy
        rng = np.random.default_rng(6)
        warmup(model, lambda: corpus.sample_batch(rng, 4), steps=5, learning_rate=0.3)
        _, group_set = structures(model)
        for g in group_set.groups:  # an unprunable family is never a candidate
            if g.node_group == "blocks.0.mlp":
                group_set.set_status(g.id, "unprunable")
        prunable = [group_set.by_id[gid] for gid in group_set.prunable_ids()]
        before = model_hash(model)
        pruned, chosen = one_shot_prune(model, group_set, 9)
        assert chosen == ids(least_salient(model, group_set, prunable, 9))
        assert model_hash(model) == before
        assert all(group_is_zero(pruned, group_set.by_id[gid]) for gid in chosen)


class TestPerGroupWork:
    def test_per_group_slice_reads_touch_only_the_periods_penalty_groups(self, trained_toy, monkeypatch):
        # per-group slice reads are quota-sized: penalty norms, projections and
        # the final snap; zero counts, rankings and re-zeroing read the index
        import sys

        from lorashear import groups

        model, corpus = trained_toy
        _, group_set = structures(model)
        calls: list = []
        for name in ("frozen_slice_vector", "effective_slice_vector", "group_is_zero"):
            original = getattr(groups, name)

            def spy(m, group, *rest, _name=name, _original=original):
                calls.append((_name, group.id))
                return _original(m, group, *rest)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("lorashear"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, spy)

        selected: list[set] = []

        def inspect(event, m):
            if event["event"] == "period_start":
                selected.append(set(event["selected"]))
            elif event["event"] == "merge":
                calls.append(("merge", None))

        config = quick_config(periods=3, steps_per_period=3)
        result = run_lhspg(model, group_set, config, 9, SEED, corpus.sample_batch, inspect=inspect)
        assert result.zero_groups == 9
        segments: list[list] = [[]]
        for name, gid in calls:
            if name == "merge":
                segments.append([])
            else:
                segments[-1].append(gid)
        assert len(segments) == config.periods + 1 and segments[-1] == []
        for period, gids in enumerate(segments[:-1]):
            assert gids and set(gids) <= selected[period], period
