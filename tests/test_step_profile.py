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
