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
    assert [r["case"] for r in rows] == ["lora_step", "all_step", "nograd_forward", "ops",
                                         "group_readers"]
    for row in rows[:3]:
        assert row["shape"] == "tiny" and row["steps"] == 2
        assert row["median_ms"] > 0 and row["peak_mib"] > 0
        assert 0 <= row["saved_mib"] <= row["peak_mib"]


def test_toy_forward_records_one_attention_op_per_block():
    # attention is one op per block; as 13 separate head split, q scale,
    # transpose, matmul, softmax and head merge ops the LoRA-only forward took 54
    rows = _load().profile("toy", steps=1, warmup=0)
    assert {r["case"]: r["tape_ops"] for r in rows} == {
        "lora_step": 30, "all_step": 34, "nograd_forward": 0}


def test_ops_line_times_each_fused_op_forward_and_backward(capsys):
    step_profile = _load()
    assert step_profile.main(["tiny", "--steps", "2", "--warmup", "0"]) == 0
    (row,) = [r for r in map(json.loads, capsys.readouterr().out.splitlines()) if r["case"] == "ops"]
    assert row.pop("shape") == "tiny" and row.pop("case") == "ops" and row.pop("steps") == 2
    assert sorted(row) == sorted(f"{op}_{way}_us" for op in ("lora_linear", "causal_attention", "rmsnorm")
                                 for way in ("fwd", "bwd"))
    assert all(us > 0 for us in row.values())


def test_last_line_times_the_group_readers_over_every_prunable_group(capsys):
    step_profile = _load()
    assert step_profile.main(["tiny", "--steps", "3", "--warmup", "0"]) == 0
    row = json.loads(capsys.readouterr().out.splitlines()[-1])
    # tiny: one block of 2 heads and 8 MLP channels
    assert row["case"] == "group_readers" and row["shape"] == "tiny" and row["steps"] == 3
    assert row["groups"] == 10
    assert row["count_zero_groups_ms"] > 0 and row["least_salient_ms"] > 0
