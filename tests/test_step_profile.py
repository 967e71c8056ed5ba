import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "step_profile.py"


def _load():
    spec = importlib.util.spec_from_file_location("step_profile", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prints_one_json_line_per_case(capsys):
    step_profile = _load()
    assert step_profile.main(["tiny", "--steps", "2", "--warmup", "1"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["case"] for r in rows] == ["lora_step", "all_step", "nograd_forward"]
    for row in rows:
        assert row["shape"] == "tiny" and row["steps"] == 2
        assert row["median_ms"] > 0 and row["peak_mib"] > 0
        assert 0 <= row["saved_mib"] <= row["peak_mib"]


def test_toy_forward_records_one_attention_op_per_block():
    # attention is one op per block; as 13 separate head split, q scale,
    # transpose, matmul, softmax and head merge ops the LoRA-only forward took 54
    rows = _load().profile("toy", steps=1, warmup=0)
    assert {r["case"]: r["tape_ops"] for r in rows} == {
        "lora_step": 30, "all_step": 34, "nograd_forward": 0}
