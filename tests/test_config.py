import ast
import math
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from lorashear.config import RULES, PipelineConfig, config_from_dict, load_config, write_config
from lorashear.errors import ConfigError


def test_defaults_are_valid():
    cfg = PipelineConfig()
    assert config_from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_config_hash_stable_and_sensitive():
    a, b = PipelineConfig(), PipelineConfig()
    assert a.config_hash() == b.config_hash()
    b.seed = 8
    assert a.config_hash() != b.config_hash()


def test_unknown_section_names_the_path():
    with pytest.raises(ConfigError, match="config.optimizer"):
        config_from_dict({"optimizer": {}})


def test_unknown_field_names_the_path():
    with pytest.raises(ConfigError, match="config.lhspg.warmup"):
        config_from_dict({"lhspg": {"warmup": 10}})


@pytest.mark.parametrize("section,name,value", [
    ("pretrain", "optimizer", "adamw"),
    ("analysis", "saliency", "effective_l2"),
    ("lhspg", "optimizer", "sgd"),
    ("lhspg", "lr_schedule", "constant"),
    ("lhspg", "saliency", "effective_l2"),
    ("recovery", "optimizer", "sgd"),
])
def test_an_old_config_setting_a_deleted_field_names_it(section, name, value):
    with pytest.raises(ConfigError, match=f"^config.{section}.{name}: unknown field$"):
        config_from_dict({section: {name: value}})


def test_wrong_type_names_the_path():
    with pytest.raises(ConfigError, match="config.model.dim"):
        config_from_dict({"model": {"dim": "wide"}})


def test_semantic_validation_paths():
    with pytest.raises(ConfigError, match="config.model.dim"):
        config_from_dict({"model": {"dim": 30}})
    with pytest.raises(ConfigError, match="unprunable_fraction"):
        config_from_dict({"analysis": {"unprunable_fraction": 1.5}})
    with pytest.raises(ConfigError, match="pruning_ratio"):
        config_from_dict({"lhspg": {"pruning_ratio": 0.0}})
    with pytest.raises(ConfigError, match="seq_len"):
        config_from_dict({"data": {"seq_len": 100}})


def test_round_trip_through_file(tmp_path):
    cfg = PipelineConfig()
    cfg.seed = 42
    cfg.lhspg.pruning_ratio = 0.5
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_int_coerces_to_float_fields(tmp_path):
    cfg = config_from_dict({"lhspg": {"learning_rate": 1}})
    assert cfg.lhspg.learning_rate == 1.0


def test_partial_override_keeps_other_defaults():
    cfg = config_from_dict({"lhspg": {"periods": 2}, "seed": 9})
    assert cfg.lhspg.periods == 2
    assert cfg.lhspg.steps_per_period == PipelineConfig().lhspg.steps_per_period
    assert cfg.seed == 9


@pytest.mark.parametrize("raw,path", [
    ({"model": {"lora_gamma": math.nan}}, r"config\.model\.lora_gamma"),
    ({"model": {"lora_gamma": math.inf}}, r"config\.model\.lora_gamma"),
    ({"pretrain": {"learning_rate": -math.inf}}, r"config\.pretrain\.learning_rate"),
    ({"recovery": {"tol": math.nan}}, r"config\.recovery\.tol"),
    ({"analysis": {"ratios": [math.nan]}}, r"config\.analysis\.ratios\[0\]"),
    ({"lhspg": {"learning_rate": 10**400}}, r"config\.lhspg\.learning_rate"),
])
def test_non_finite_float_names_the_path(raw, path):
    with pytest.raises(ConfigError, match=f"^{path}: must be a finite number"):
        config_from_dict(raw)


# the fields of each section but the model's, which ModelConfig judges
SECTION_FIELDS = {
    section.name: {f.name for f in fields(getattr(PipelineConfig(), section.name))}
    for section in fields(PipelineConfig)
    if section.name not in ("model", "seed")
}


# the one model field a pipeline needs narrower than ModelConfig allows: prune trains adaptors
MODEL_RULES = {"model.lora_rank"}


def test_every_field_outside_the_model_section_has_a_rule():
    names = {"seed"} | {f"{section}.{name}" for section, members in SECTION_FIELDS.items() for name in members}
    assert names | MODEL_RULES == {path for path, _, _ in RULES}


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lorashear"


def section_copies(source: str) -> list[str]:
    """Dataclasses in ``source`` holding all of a non-model config section's fields, or all but one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = {ast.unparse(d).split("(")[0].split(".")[-1] for d in node.decorator_list}
        if "dataclass" not in decorators:
            continue
        names = {a.target.id for a in node.body if isinstance(a, ast.AnnAssign)}
        found += [f"{node.name}~{s}" for s, want in SECTION_FIELDS.items() if len(want - names) <= 1]
    return found


def test_no_module_but_config_copies_a_config_section():
    copies = {
        path.name: section_copies(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
    }
    assert {name: found for name, found in copies.items() if found} == {}


@pytest.mark.parametrize("decorator", ["@dataclass", "@dataclass(frozen=True)", "@dataclasses.dataclass"])
def test_section_copy_guard_sees_a_copy(decorator):
    copy = f"""
{decorator}
class RoundSettings:
    subset_size: int
    round_steps: int
    learning_rate: float
    optimizer: str
    tol: float = 1e-3
    patience: int = 3
    max_rounds: int = 8
    batch_size: int = 8
"""
    assert "RoundSettings~recovery" in section_copies(copy)
    own = {f"{s.title()}Section~{s}" for s in SECTION_FIELDS}
    assert own <= set(section_copies((PACKAGE / "config.py").read_text(encoding="utf-8")))


# how many ConfigErrors each scope outside config.py raises: the model's own
# config and trainable selector, prune's one check that needs analyze's group
# count, eval's --model names, and the guards on data that no config value reaches
CONFIG_ERROR_HOMES = {
    "evaluate.py": {"mean_cross_entropy": 1, "source_losses": 2},
    "knowledge.py": {"analyze": 1},
    "model.py": {"ModelConfig.__post_init__": 4, "LoraModel.set_trainable": 1},
    "pipeline.py": {"stage_prune": 1, "eval_model_paths": 1},
    "recovery.py": {"build_subset": 1},
}


def config_error_raises(source: str) -> list[str]:
    """The qualified name of the scope around each ``raise ConfigError``, in source order."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if ast.unparse(exc).split(".")[-1] == "ConfigError":
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_config_error_is_raised_only_in_its_homes():
    # config.RULES judges every value as the config loads; a stage judging one again is a second copy
    raised = {
        path.name: Counter(config_error_raises(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
    }
    assert {name: scopes for name, scopes in raised.items() if scopes} == CONFIG_ERROR_HOMES


def test_config_error_guard_sees_each_form():
    src = (
        "raise ConfigError\n"
        "def f(x):\n    if x:\n        raise ConfigError(f'{x}')\n"
        "class C:\n    def g(self):\n        try:\n            pass\n"
        "        except KeyError as e:\n            raise errors.ConfigError('k') from e\n"
        "def h():\n    raise StageError('not this one')\n"
    )
    assert config_error_raises(src) == ["<module>", "f", "C.g"]
