"""CLI and pipeline stage behavior on a scaled-down configuration."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorashear.cli import build_parser, main
from lorashear.config import RULES, PipelineConfig, load_config, write_config
from lorashear.errors import ConfigError, StageError
from lorashear import pipeline

MICRO = {
    "model": {"vocab_size": 64, "dim": 16, "n_layers": 2, "n_heads": 2, "mlp_dim": 16,
              "lora_rank": 2, "block_size": 32},
    "data": {"train_sequences_per_source": 24, "val_sequences_per_source": 6, "seq_len": 32},
    "pretrain": {"steps": 40},
    "analysis": {"eval_sequences": 8},
    "lhspg": {"warmup_steps": 10, "periods": 2, "steps_per_period": 8},
    "recovery": {"subset_size": 24, "round_steps": 6, "max_rounds": 2, "patience": 1},
    "seed": 5,
}


@pytest.fixture(scope="module")
def micro_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "micro.json"
    path.write_text(json.dumps(MICRO))
    return path


@pytest.fixture(scope="module")
def finished_run(micro_cfg_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["--config", str(micro_cfg_file), "--out", str(out), "run-all"])
    assert rc == 0
    return out


# corpora whose corpus or source names are not the configuration's
RENAMED = (
    pytest.param(lambda c: {**c, "instruct": {}}, id="instruct-without-sources"),
    pytest.param(lambda c: {"pretraining": c["pretraining"]}, id="instruct-deleted"),
    pytest.param(
        lambda c: {**c, "pretraining": {"zzz" if s == "runs" else s: v for s, v in c["pretraining"].items()}},
        id="runs-renamed-zzz",
    ),
)


def tree_digest(root: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_run_lines() -> list[list[str]]:
    """Each ``lorashear ...`` line of the README's Run block, comment stripped, split."""
    block = README.read_text(encoding="utf-8").split("## Run", 1)[1].split("```")[1]
    return [line.split("#")[0].split() for line in block.splitlines() if line.startswith("lorashear ")]


class TestReadmeForms:
    def test_every_readme_run_line_parses_with_its_values(self):
        lines = readme_run_lines()
        assert len(lines) == 6
        for argv in lines:
            args = build_parser().parse_args(argv[1:])
            for flag, value in zip(argv[1:], argv[2:]):
                if flag.startswith("--"):
                    got = getattr(args, flag[2:])
                    assert [str(v) for v in (got if isinstance(got, list) else [got])] == [value], argv

    def test_options_after_the_subcommand_reach_the_stage(self, micro_cfg_file, finished_run, tmp_path):
        out = tmp_path / "after"
        assert main(["gen-data", "--config", str(micro_cfg_file), "--seed", "5", "--out", str(out)]) == 0
        assert (out / "corpus.json").read_bytes() == (finished_run / "corpus.json").read_bytes()

    def test_option_after_the_subcommand_overrides_the_one_before(self):
        args = build_parser().parse_args(["--seed", "3", "--out", "a", "run-all", "--seed", "4"])
        assert (args.seed, args.out) == (4, Path("a"))


STAMP = ("schema_version", "stage", "config_hash", "seed")


def stamp_only(blob: bytes) -> bytes:
    """The artifact's stamp, correct for its run, with no body."""
    payload = json.loads(blob)
    return json.dumps({k: payload[k] for k in STAMP}).encode()


def with_field(key: str, value):
    """An edit that sets the artifact's top-level ``key`` to ``value``."""
    return lambda blob: json.dumps({**json.loads(blob), key: value}).encode()


# values that break each rule of config.RULES, by path under ``config.``
RULE_VIOLATIONS = {
    "seed": [-1],
    "model.lora_rank": [0],
    "data.pretraining_sources": [[], ["nope"], [["markov"]], ["markov", "markov"]],
    "data.instruct_sources": [[], ["qa_copy", 3], ["qa_copy", "qa_lookup", "qa_copy"]],
    "data.train_sequences_per_source": [0],
    "data.val_sequences_per_source": [0],
    "data.seq_len": [0, 49],
    "pretrain.steps": [-3],
    "pretrain.batch_size": [0],
    "pretrain.learning_rate": [-1, 0],
    "analysis.ratios": [[], [2.0], [0.5, 0], ["half"], [True]],
    "analysis.unprunable_fraction": [1.0, -0.1],
    "analysis.eval_sequences": [0],
    "lhspg.warmup_steps": [-1],
    "lhspg.periods": [0],
    "lhspg.steps_per_period": [0],
    "lhspg.pruning_ratio": [0.0, 1.5],
    "lhspg.learning_rate": [-1],
    "lhspg.halfspace_eps": [1.0, -0.5],
    "lhspg.batch_size": [0],
    "recovery.subset_size": [0, 3],
    "recovery.source_floor": [-0.1, 0.25],
    "recovery.round_steps": [-1],
    "recovery.learning_rate": [0],
    "recovery.tol": [-1],
    "recovery.patience": [0],
    "recovery.max_rounds": [0],
    "recovery.batch_size": [0],
}


def test_every_rule_has_a_violating_value():
    assert list(RULE_VIOLATIONS) == [path for path, _, _ in RULES]


class TestExitCodes:
    @pytest.mark.parametrize("path,value", [
        pytest.param(path, value, id=f"{path}-{value!r}")
        for path, values in RULE_VIOLATIONS.items() for value in values
    ])
    def test_rule_violation_is_exit_2_before_any_file(self, tmp_path, capsys, path, value):
        *section, name = path.split(".")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section[0]: {name: value}} if section else {name: value}))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out", str(out), "run-all"]) == 2
        assert f"config error: {bad}: config.{path}: must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("with_file", [False, True])
    def test_negative_seed_option_is_exit_2_before_any_file(
        self, micro_cfg_file, tmp_path, capsys, with_file
    ):
        out = tmp_path / "o"
        config = ["--config", str(micro_cfg_file)] if with_file else []
        assert main([*config, "--out", str(out), "gen-data", "--seed", "-1"]) == 2
        assert "config error: config.seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lhspg": {"pruning_ratio": 0.0}}')
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"]) == 2

    @pytest.mark.parametrize("field,value", [
        ("vocab_size", 0), ("dim", 0), ("n_layers", 0), ("n_heads", 0), ("mlp_dim", 0),
        ("block_size", 0), ("n_heads", -2), ("mlp_dim", -4),
    ])
    def test_model_size_below_one_is_exit_2(self, tmp_path, capsys, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {field: value}}))
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"]) == 2
        assert f"config.model.{field}: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text,path", [
        ('{"model": {"lora_gamma": NaN}}', "config.model.lora_gamma"),
        ('{"model": {"lora_gamma": 1e999}}', "config.model.lora_gamma"),
        ('{"pretrain": {"learning_rate": Infinity}}', "config.pretrain.learning_rate"),
        ('{"analysis": {"ratios": [0.25, NaN]}}', "config.analysis.ratios[1]"),
    ])
    def test_non_finite_float_is_exit_2(self, tmp_path, capsys, text, path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "gen-data"]) == 2
        assert f"{path}: must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b'{"seed": 1' + b"0" * 5000 + b"}", b"\xff\xfe{}", b"[" * 100_000, None,
    ], ids=["5000-digit-integer", "not-utf-8", "nested-100000-deep", "directory"])
    def test_unreadable_config_is_exit_2_naming_it(self, tmp_path, capsys, content):
        config = tmp_path / "cfg.json"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        out = tmp_path / "o"
        assert main(["--config", str(config), "--out", str(out), "gen-data"]) == 2
        assert f"config error: {config}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage,name,edit", [
        ("report", "recovery_summary.json", lambda blob: blob[:-40]),
        ("eval", "corpus.json", lambda blob: b'{"n": 1' + b"0" * 5000 + b"}"),
        ("report", "eval.json", lambda blob: b"[" * 100_000),
        ("pretrain", "corpus.json", None),
        ("analyze", "model_full.lshr", None),
        ("report", "eval.json", stamp_only),
        ("report", "prune_summary.json", stamp_only),
        ("report", "knowledge_profile.json", stamp_only),
        ("report", "recovery_summary.json", stamp_only),
        ("report", "eval.json", with_field("models", [])),
        ("report", "prune_summary.json", with_field("lhspg_heldout_loss", "low")),
        ("report", "knowledge_profile.json", with_field("entries", [1])),
        ("report", "recovery_summary.json", with_field("pre_mean_ppl", None)),
        ("report", "recovery_summary.json", with_field("pre_mean_ppl", 10**400)),
        ("report", "recovery_summary.json", with_field("config_hash", "0" * 64)),
    ], ids=["truncated-recovery-summary", "corpus-5000-digit-integer", "eval-nested-100000-deep",
            "corpus-directory", "model-directory", "eval-stamp-only", "prune-summary-stamp-only",
            "profile-stamp-only", "recovery-summary-stamp-only", "eval-models-list",
            "prune-summary-loss-string", "profile-entry-number", "recovery-summary-ppl-null",
            "recovery-summary-ppl-past-float-range", "recovery-summary-foreign-config"])
    def test_bad_artifact_is_exit_3_naming_it(
        self, micro_cfg_file, finished_run, tmp_path, capsys, stage, name, edit
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        output = tmp_path / pipeline.ARTIFACTS[stage][0]
        output.unlink()
        target = tmp_path / name
        if edit is None:
            target.unlink()
            target.mkdir()
        else:
            target.write_bytes(edit(target.read_bytes()))
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), stage]) == 3
        assert name in capsys.readouterr().err
        assert not output.exists()

    def test_pruning_every_group_is_exit_2_before_any_prune_artifact(self, tmp_path, capsys):
        cfg = tmp_path / "all.json"
        cfg.write_text(json.dumps({
            **MICRO, "pretrain": {"steps": 2},
            "analysis": {"eval_sequences": 2, "unprunable_fraction": 0},
            "lhspg": {**MICRO["lhspg"], "pruning_ratio": 1.0},
        }))
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "run-all"]) == 2
        err = capsys.readouterr().err
        assert "config.lhspg.pruning_ratio 1.0 with config.analysis.unprunable_fraction 0" in err
        assert "removes all 36 structure groups" in err
        assert (out / "groups.json").exists()
        assert not (out / "lhspg_log.jsonl").exists() and not (out / "prune_summary.json").exists()

    def test_missing_artifact_is_exit_3(self, micro_cfg_file, tmp_path):
        rc = main(["--config", str(micro_cfg_file), "--out", str(tmp_path / "empty"), "prune"])
        assert rc == 3

    def test_truncated_corpus_before_pretrain_is_exit_3(self, micro_cfg_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--config", str(micro_cfg_file), "--out", str(out), "gen-data"]) == 0
        corpus = out / "corpus.json"
        corpus.write_bytes(corpus.read_bytes()[:-100])
        assert main(["--config", str(micro_cfg_file), "--out", str(out), "pretrain"]) == 3
        assert "corpus.json" in capsys.readouterr().err
        assert not (out / "model_full.lshr").exists()

    def test_corpus_of_another_schema_version_is_exit_3(self, micro_cfg_file, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--config", str(micro_cfg_file), "--out", str(out), "gen-data"]) == 0
        corpus = out / "corpus.json"
        corpus.write_text(corpus.read_text().replace('"schema_version": 1', '"schema_version": 2'))
        assert main(["--config", str(micro_cfg_file), "--out", str(out), "pretrain"]) == 3
        assert "corpus.json: unsupported corpus schema" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b'{"schema_version": 1, "node_gr', b"[1, 2]", b"\xff\xfe{}"])
    def test_bad_groups_before_prune_is_exit_3(self, micro_cfg_file, finished_run, tmp_path, capsys, content):
        for name in ("config.json", "corpus.json", "model_full.lshr"):
            (tmp_path / name).write_bytes((finished_run / name).read_bytes())
        (tmp_path / "groups.json").write_bytes(content)
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "prune"]) == 3
        assert "groups.json" in capsys.readouterr().err

    def test_groups_without_group_set_before_prune_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys
    ):
        for name in ("config.json", "corpus.json", "model_full.lshr"):
            (tmp_path / name).write_bytes((finished_run / name).read_bytes())
        (tmp_path / "groups.json").write_text('{"schema_version": 1}')
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "prune"]) == 3
        assert "groups.json has no valid group_set" in capsys.readouterr().err
        assert not (tmp_path / "model_pruned.lshr").exists()

    @pytest.mark.parametrize("status", ["redundant", "important"])
    def test_groups_with_a_pruning_status_before_prune_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys, status
    ):
        for name in ("config.json", "corpus.json", "model_full.lshr"):
            (tmp_path / name).write_bytes((finished_run / name).read_bytes())
        payload = json.loads((finished_run / "groups.json").read_text())
        payload["group_set"]["groups"][0]["status"] = status
        (tmp_path / "groups.json").write_text(json.dumps(payload))
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "prune"]) == 3
        assert f"groups.json has unknown group statuses ['{status}']" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in pipeline.ARTIFACTS["prune"])

    def test_groups_with_unknown_status_before_compress_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        (tmp_path / "model_compact.lshr").unlink()
        payload = json.loads((finished_run / "groups_final.json").read_text())
        payload["group_set"]["groups"][0]["status"] = "gone"
        (tmp_path / "groups_final.json").write_text(json.dumps(payload))
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "compress"]) == 3
        assert "groups_final.json has unknown group statuses ['gone']" in capsys.readouterr().err
        assert not (tmp_path / "model_compact.lshr").exists()

    @pytest.mark.parametrize("corpora", [
        None, [1, 2], {"pretraining": {"markov": {"train": []}}},
        # token ids the model's vocabulary of 64 does not hold
        *({"pretraining": {"markov": {"train": [[0, token]], "val": []}}} for token in (64, -1, 10**30)),
        # ids that are not JSON integers
        *({"pretraining": {"markov": {"train": [row], "val": []}}} for row in ([1.5, 2.9, True], [0, True])),
        # splits that are not non-empty matrices of seq_len + 1 = 33 ids
        *({"pretraining": {"markov": split}} for split in (
            {"train": [[0] * 33], "val": []},
            {"train": [], "val": [[0] * 33]},
            {"train": [[0] * 10], "val": [[0] * 33]},
            {"train": [[0] * 33], "val": [[0] * 33, [0] * 32]},
        )),
        *RENAMED,
    ])
    def test_corpus_without_valid_corpora_before_eval_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys, corpora
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        payload = json.loads((finished_run / "corpus.json").read_text())
        if corpora is None:
            del payload["corpora"]
        else:
            payload["corpora"] = corpora(payload["corpora"]) if callable(corpora) else corpora
        (tmp_path / "corpus.json").write_text(json.dumps(payload))
        (tmp_path / "eval.json").unlink()
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "eval"]) == 3
        assert "corpus.json: corpus schema violated" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("rename", RENAMED)
    def test_corpus_with_other_names_before_recover_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys, rename
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        for name in pipeline.ARTIFACTS["recover"]:
            (tmp_path / name).unlink()
        payload = json.loads((finished_run / "corpus.json").read_text())
        payload["corpora"] = rename(payload["corpora"])
        (tmp_path / "corpus.json").write_text(json.dumps(payload))
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "recover"]) == 3
        assert "corpus.json: corpus schema violated" in capsys.readouterr().err
        assert not any((tmp_path / name).exists() for name in pipeline.ARTIFACTS["recover"])

    @pytest.mark.parametrize("split,rows", [("val", []), ("train", []), ("train", "cut")])
    def test_corpus_with_a_tampered_split_before_prune_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys, split, rows
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        for name in pipeline.ARTIFACTS["prune"]:
            (tmp_path / name).unlink()
        payload = json.loads((finished_run / "corpus.json").read_text())
        markov = payload["corpora"]["pretraining"]["markov"]
        markov[split] = [row[:10] for row in markov[split]] if rows == "cut" else rows
        (tmp_path / "corpus.json").write_text(json.dumps(payload))
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "prune"]) == 3
        err = capsys.readouterr().err
        assert "corpus.json: corpus schema violated" in err
        assert f"pretraining.markov.{split}" in err
        assert not any((tmp_path / name).exists() for name in pipeline.ARTIFACTS["prune"])

    @pytest.mark.parametrize(
        "stage,name", [("analyze", "model_full.lshr"), ("compress", "model_pruned.lshr")]
    )
    @pytest.mark.parametrize("keep", [20, -100])  # inside the meta block, inside the payloads
    def test_truncated_checkpoint_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys, stage, name, keep
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        output = tmp_path / pipeline.ARTIFACTS[stage][0]
        output.unlink()
        (tmp_path / name).write_bytes((finished_run / name).read_bytes()[:keep])
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), stage]) == 3
        assert name in capsys.readouterr().err
        assert not output.exists()

    def test_non_finite_model_given_to_eval_is_exit_3(self, micro_cfg_file, finished_run, tmp_path, capsys):
        from lorashear.checkpoint import checkpoint_extra, load_checkpoint, save_checkpoint

        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        full = finished_run / "model_full.lshr"
        model = load_checkpoint(full)
        model.head.data[0, 0] = np.nan
        bad = tmp_path / "nan.lshr"
        save_checkpoint(model, bad, extra=checkpoint_extra(full))
        args = ["--config", str(micro_cfg_file), "--out", str(tmp_path), "eval", "--model", str(bad)]
        assert main(args) == 3
        assert "nan.lshr: tensor head.weight holds non-finite values" in capsys.readouterr().err
        assert (tmp_path / "eval.json").read_bytes() == (finished_run / "eval.json").read_bytes()

    def test_model_with_trailing_bytes_given_to_eval_is_exit_3(
        self, micro_cfg_file, finished_run, tmp_path, capsys
    ):
        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        bad = tmp_path / "trailing.lshr"
        bad.write_bytes((finished_run / "model_full.lshr").read_bytes() + b"\x00" * 8)
        args = ["--config", str(micro_cfg_file), "--out", str(tmp_path), "eval", "--model", str(bad)]
        assert main(args) == 3
        assert "trailing.lshr: 8 trailing byte(s) after the last payload" in capsys.readouterr().err
        assert (tmp_path / "eval.json").read_bytes() == (finished_run / "eval.json").read_bytes()

    def test_stale_artifact_from_other_config_is_exit_3(self, micro_cfg_file, finished_run, tmp_path):
        other = dict(MICRO)
        other["seed"] = 6
        cfg2 = tmp_path / "other.json"
        cfg2.write_text(json.dumps(other))
        assert main(["--config", str(cfg2), "--out", str(finished_run), "analyze"]) == 3

    def test_numeric_failure_is_exit_4(self, monkeypatch, micro_cfg_file, tmp_path):
        from lorashear.errors import NumericError

        def boom(cfg, out):
            raise NumericError("synthetic")

        monkeypatch.setitem(pipeline.__dict__, "stage_gen_data", boom)
        monkeypatch.setattr(pipeline, "run_stage", lambda s, c, o: boom(c, o))
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path / "o"), "gen-data"]) == 4


class TestStages:
    def test_all_artifacts_written(self, finished_run):
        for names in pipeline.ARTIFACTS.values():
            for name in names:
                assert (finished_run / name).exists(), name

    def test_stage_flag_equivalent_to_subcommand(self, micro_cfg_file, finished_run, tmp_path):
        out = tmp_path / "byflag"
        assert main(["--config", str(micro_cfg_file), "--out", str(out), "--stage", "gen-data"]) == 0
        assert (out / "corpus.json").read_bytes() == (finished_run / "corpus.json").read_bytes()

    def test_prune_summary_states_the_requested_zero_count(self, finished_run):
        summary = json.loads((finished_run / "prune_summary.json").read_text())
        n_prunable = summary["prunable_groups"]
        assert summary["target_zero_groups"] == int(round(0.2 * n_prunable))
        assert summary["zero_groups"] == summary["target_zero_groups"]
        report = (finished_run / "report.md").read_text()
        assert f"zero groups after pruning: {summary['zero_groups']}" in report

    def test_eval_full_vs_compact_zeroed_identical_within_1e9(self, finished_run):
        payload = json.loads((finished_run / "eval.json").read_text())
        pruned = payload["models"]["model_pruned.lshr"]["corpora"]
        compact = payload["models"]["model_compact.lshr"]["corpora"]
        for phase in pruned:
            for src, ppl in pruned[phase]["per_source"].items():
                assert abs(ppl - compact[phase]["per_source"][src]) < 1e-9

    def test_eval_subcommand_accepts_explicit_models(self, micro_cfg_file, finished_run):
        original = (finished_run / "eval.json").read_bytes()
        try:
            rc = main([
                "--config", str(micro_cfg_file), "--out", str(finished_run),
                "eval", "--model", str(finished_run / "model_full.lshr"),
            ])
            assert rc == 0
            payload = json.loads((finished_run / "eval.json").read_text())
            assert list(payload["models"]) == ["model_full.lshr"]
        finally:
            (finished_run / "eval.json").write_bytes(original)

    def test_eval_models_sharing_a_file_name_is_exit_2(
        self, micro_cfg_file, finished_run, tmp_path, capsys, monkeypatch
    ):
        # eval.json keys each model by its file name: the second would replace the first
        out = tmp_path / "run"
        out.mkdir()
        for p in finished_run.iterdir():
            if p.name != "eval.json":
                (out / p.name).write_bytes(p.read_bytes())
        models = [tmp_path / "a" / "m.lshr", tmp_path / "b" / "m.lshr"]
        for source, path in zip(("model_full.lshr", "model_compact.lshr"), models):
            path.parent.mkdir()
            path.write_bytes((finished_run / source).read_bytes())
        scored, score = [], pipeline.source_losses
        monkeypatch.setattr(pipeline, "source_losses", lambda *args: scored.append(args) or score(*args))
        args = ["--config", str(micro_cfg_file), "--out", str(out),
                "eval", "--model", str(models[0]), "--model", str(models[1])]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{models[0]} and {models[1]} share the file name m.lshr" in err
        assert scored == [] and not (out / "eval.json").exists()

    @pytest.mark.parametrize("case,code", [("shared-name", 2), ("missing-file", 3)])
    def test_bad_eval_models_leave_a_fresh_out_unmade(
        self, micro_cfg_file, finished_run, tmp_path, capsys, case, code
    ):
        full = finished_run / "model_full.lshr"
        if case == "shared-name":
            copy = tmp_path / "b" / full.name
            copy.parent.mkdir()
            copy.write_bytes(full.read_bytes())
            models, message = [full, copy], f"share the file name {full.name}"
        else:
            models, message = [full, tmp_path / "absent.lshr"], "checkpoint not found"
        out = tmp_path / "o"
        args = ["--config", str(micro_cfg_file), "--out", str(out), "eval"]
        for model in models:
            args += ["--model", str(model)]
        assert main(args) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_eval_scores_each_source_of_each_checkpoint_once(
        self, micro_cfg_file, finished_run, tmp_path, monkeypatch
    ):
        import lorashear.evaluate as evaluate
        from lorashear.data import SourceTaggedCorpus

        for p in finished_run.iterdir():
            (tmp_path / p.name).write_bytes(p.read_bytes())
        (tmp_path / "eval.json").unlink()
        scored = []
        score = evaluate.mean_cross_entropy

        def counted(model, sequences, **kwargs):
            scored.append(np.asarray(sequences))
            return score(model, sequences, **kwargs)

        def no_pool(corpus):
            raise AssertionError("eval scored a pooled validation split")

        monkeypatch.setattr(evaluate, "mean_cross_entropy", counted)
        monkeypatch.setattr(SourceTaggedCorpus, "val_pool", no_pool)
        assert main(["--config", str(micro_cfg_file), "--out", str(tmp_path), "eval"]) == 0
        assert (tmp_path / "eval.json").read_bytes() == (finished_run / "eval.json").read_bytes()
        payload = json.loads((finished_run / "corpus.json").read_text())
        splits = [
            np.asarray(src["val"]) for _, corpus in sorted(payload["corpora"].items())
            for _, src in sorted(corpus.items())
        ]
        expected = splits * 4  # model_full, model_pruned, model_compact, model_recovered
        assert len(scored) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(scored, expected))

    def test_run_all_byte_reproducible(self, micro_cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(micro_cfg_file), "--seed", "5", "--out", str(a), "run-all"]) == 0
        assert main(["--config", str(micro_cfg_file), "--seed", "5", "--out", str(b), "run-all"]) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_run_all_equals_stagewise_invocation(self, micro_cfg_file, finished_run, tmp_path):
        out = tmp_path / "stagewise"
        for stage in pipeline.STAGES:
            assert main(["--config", str(micro_cfg_file), "--out", str(out), stage]) == 0
        assert tree_digest(out) == tree_digest(finished_run)


class TestDumps:
    def test_graph_dump(self, finished_run, tmp_path):
        out = tmp_path / "graph.json"
        rc = main(["graph", "dump", "--checkpoint", str(finished_run / "model_full.lshr"),
                   "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert {n["kind"] for n in payload["nodes"]} >= {"linear", "lora_linear", "causal_attention"}

    def test_groups_dump(self, finished_run, tmp_path):
        out = tmp_path / "groups.json"
        rc = main(["groups", "dump", "--checkpoint", str(finished_run / "model_full.lshr"),
                   "--output", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        groups = payload["group_set"]["groups"]
        assert len(groups) == 2 * (16 + 2)
        assert all(g["status"] == "prunable" for g in groups)

    def test_dumps_of_a_compact_model_with_an_emptied_block(self, toy_model, tmp_path):
        # every head of block 1 removed: its attention sublayer is absent
        from lorashear.checkpoint import read_checkpoint, save_checkpoint
        from lorashear.compress import apply_compression, plan_compression

        _, group_set = pipeline._analysis_structures(toy_model)
        for h in range(4):
            group_set.set_status(f"blocks.1.attn:head:{h:03d}", "redundant")
        ckpt = tmp_path / "model_compact.lshr"
        save_checkpoint(apply_compression(toy_model, plan_compression(group_set, toy_model)), ckpt)
        graph_out, groups_out = tmp_path / "graph.json", tmp_path / "groups.json"
        assert main(["graph", "dump", "--checkpoint", str(ckpt), "--output", str(graph_out)]) == 0
        assert main(["groups", "dump", "--checkpoint", str(ckpt), "--output", str(groups_out)]) == 0
        nodes = json.loads(graph_out.read_text())["nodes"]
        kinds = [n["kind"] for n in nodes]
        assert "scale" not in kinds and kinds.count("causal_attention") == 1
        assert not any(name.startswith("blocks.1.attn") for name in read_checkpoint(ckpt)[1])
        assert not any(p.startswith("blocks.1.attn") for n in nodes for p in n["params"])
        payload = json.loads(groups_out.read_text())
        groups = payload["group_set"]["groups"]
        assert len(groups) == 132
        assert not any(g["node_group"] == "blocks.1.attn" for g in groups)
        assert "blocks.1.attn" not in {g["id"] for g in payload["node_groups"]["basic"]}

    @pytest.mark.parametrize("command", ["graph", "groups"])
    @pytest.mark.parametrize("content", [b"LSHR\x01\x00\x00\x00\x10\x00", None])
    def test_dump_of_a_bad_checkpoint_is_exit_3_naming_it(
        self, finished_run, tmp_path, capsys, command, content
    ):
        ckpt = tmp_path / "model_compact.lshr"
        if content is not None:  # ten bytes: the header ends inside the meta length
            ckpt.write_bytes(content)
        out = tmp_path / "dump.json"
        assert main([command, "dump", "--checkpoint", str(ckpt), "--output", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{command} dump: checkpoint" in err and str(ckpt) in err
        assert not out.exists()

    @pytest.mark.parametrize("case,message", [
        ("65-dims", "tensor w has 65 dims, more than 64"),
        ("size-past-int64", "payload for tensor w out of bounds"),
        ("config-n-heads-0", "invalid config meta"),
        ("block-head-dim-0", "block 0 head_dim 0 is not config dim / n_heads = 8"),
    ])
    def test_dump_of_an_unloadable_checkpoint_is_exit_3(
        self, finished_run, tmp_path, capsys, case, message
    ):
        from lorashear.checkpoint import load_checkpoint
        from test_checkpoint import write_dims, write_head_split

        ckpt = tmp_path / "bad.lshr"
        if case == "65-dims":
            write_dims(ckpt, (1,) * 65, b"\0" * 8)
        elif case == "size-past-int64":
            write_dims(ckpt, (2**31, 2**31, 2**31, 4), b"")
        elif case == "block-head-dim-0":  # attention cut to nothing; a forward would divide by 0
            write_head_split(ckpt, load_checkpoint(finished_run / "model_full.lshr"), 2, 0)
        else:  # one byte: the config's n_heads 2 -> 0 (block metadata sorts first)
            blob = (finished_run / "model_full.lshr").read_bytes()
            at = blob.index(b'"n_heads":2', blob.index(b'"config":')) + len(b'"n_heads":')
            ckpt.write_bytes(blob[:at] + b"0" + blob[at + 1:])
        out = tmp_path / "dump.json"
        assert main(["graph", "dump", "--checkpoint", str(ckpt), "--output", str(out)]) == 3
        assert f"{ckpt}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_groups_dump_is_compact_json(self, finished_run, tmp_path):
        out = tmp_path / "groups.json"
        assert main(["groups", "dump", "--checkpoint", str(finished_run / "model_full.lshr"),
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert text.count("\n") == 1 and text.endswith("}\n")
        analyzed = json.loads((finished_run / "groups.json").read_text())
        assert json.loads(text)["node_groups"] == analyzed["node_groups"]


class TestReport:
    def test_report_contains_baseline_comparison(self, finished_run):
        report = (finished_run / "report.md").read_text()
        assert "one-shot magnitude" in report
        assert "Held-out loss delta" in report
        assert "knowledge_profile.csv" in report


JSON_INPUTS = ("micro.json", "corpus.json", "eval.json", "prune_summary.json",
               "knowledge_profile.json", "recovery_summary.json")
JSON_WHITESPACE = b" \t\n\r"


@pytest.fixture(scope="module")
def mutation_run(finished_run, tmp_path_factory):
    """A copy of the finished micro run plus its config as ``micro.json``, one JSON object per file."""
    run = tmp_path_factory.mktemp("mutated-run")
    for p in finished_run.iterdir():
        (run / p.name).write_bytes(p.read_bytes())
    (run / "micro.json").write_text(json.dumps(MICRO, indent=2) + "\n")
    return run, load_config(run / "micro.json")


def read_mutated(mutation_run, name: str, blob: bytes) -> bool:
    """Write ``blob`` as input ``name`` and read it as its consumer does.

    True if the read succeeds; False if it raises the consumer's typed error
    naming the file (then no report is written). The original is restored.
    """
    run, cfg = mutation_run
    path = run / name
    original = path.read_bytes()
    path.write_bytes(blob)
    (run / "report.md").unlink(missing_ok=True)
    try:
        if name == "micro.json":
            load_config(path)
        elif name == "corpus.json":
            pipeline._corpora(run, "eval", cfg)
        else:
            pipeline.stage_report(cfg, run)
    except (ConfigError if name == "micro.json" else StageError) as e:
        assert name in str(e)
        assert not (run / "report.md").exists()
        return False
    finally:
        path.write_bytes(original)
    return True


@pytest.mark.parametrize("name", JSON_INPUTS)
class TestJsonMutations:
    """Any mutation of a JSON input is read, or is a typed error naming the file."""

    def test_unmutated_input_is_read(self, mutation_run, name):
        assert read_mutated(mutation_run, name, (mutation_run[0] / name).read_bytes())

    @settings(max_examples=30)
    @given(data=st.data())
    def test_any_byte_replacement_is_read_or_a_typed_error(self, mutation_run, name, data):
        blob = (mutation_run[0] / name).read_bytes()
        pos = data.draw(st.integers(0, len(blob) - 1))
        byte = data.draw(st.integers(0, 255))
        read_mutated(mutation_run, name, blob[:pos] + bytes([byte]) + blob[pos + 1:])

    @settings(max_examples=15)
    @given(data=st.data())
    def test_truncation_short_of_the_final_newline_is_a_typed_error(self, mutation_run, name, data):
        blob = (mutation_run[0] / name).read_bytes()
        assert blob.endswith(b"}\n")
        keep = data.draw(st.integers(0, len(blob) - 2))
        assert not read_mutated(mutation_run, name, blob[:keep])

    @settings(max_examples=15)
    @given(tail=st.binary(min_size=1, max_size=16))
    @example(tail=b" \n")
    def test_append_is_read_only_if_whitespace(self, mutation_run, name, tail):
        blob = (mutation_run[0] / name).read_bytes()
        assert read_mutated(mutation_run, name, blob + tail) == (not tail.strip(JSON_WHITESPACE))
