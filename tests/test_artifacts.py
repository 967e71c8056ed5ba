"""The artifact module: atomic whole-file writes, encodings, event logs, sole writer and reader."""

import ast
import json
import re
from pathlib import Path

import pytest

import lorashear
from lorashear.artifacts import canonical_json, event_log, read_json, write_atomic, write_json
from lorashear.checkpoint import save_checkpoint
from lorashear.errors import StageError

PACKAGE = Path(lorashear.__file__).resolve().parent


class TestAtomicWrites:
    def test_json_payload_failing_mid_encode_keeps_previous_artifact(self, tmp_path):
        path = tmp_path / "eval.json"
        write_json(path, {"models": {"a": 1.5}})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"models": {"a": 1.5, "b": object()}})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.json"]

    def test_disk_write_failing_mid_payload_keeps_previous_artifact(self, tmp_path, monkeypatch):
        path = tmp_path / "report.md"
        write_atomic(path, "old report\n")

        def half_then_fail(self, data):
            with open(self, "wb") as f:
                f.write(data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError, match="no space"):
            write_atomic(path, "new report, long enough to be cut in half\n")
        assert path.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.md"]

    def test_checkpoint_failing_rename_keeps_previous_checkpoint(self, tiny_model, tmp_path, monkeypatch):
        path = tmp_path / "m.lshr"
        save_checkpoint(tiny_model, path)
        before = path.read_bytes()
        tiny_model.head.data += 1.0

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("lorashear.artifacts.os.replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            save_checkpoint(tiny_model, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.lshr"]

    def test_write_replaces_content_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": 1, "a": [1, 2]})
        write_json(path, {"c": None})
        assert path.read_text() == '{\n  "c": null\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


class TestEncodings:
    def test_json_is_sorted_indented_with_newline(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": 1, "a": {"d": 2.5, "c": [1]}})
        assert (tmp_path / "a.json").read_text() == json.dumps(
            {"a": {"c": [1], "d": 2.5}, "b": 1}, indent=2
        ) + "\n"

    def test_unindented_json_keeps_default_separators(self, tmp_path):
        write_json(tmp_path / "a.json", {"b": [1, 2], "a": 0}, indent=None)
        assert (tmp_path / "a.json").read_text() == '{"a": 0, "b": [1, 2]}\n'

    def test_canonical_json_is_compact_and_key_sorted(self):
        assert canonical_json({"b": [1, 2.5], "a": {"y": None, "x": "é"}}) == (
            b'{"a":{"x":"\\u00e9","y":null},"b":[1,2.5]}'
        )


class TestEventLog:
    def test_streams_one_sorted_object_per_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with event_log(path) as emit:
            emit({"step": 0, "loss": 1.25})
            emit({"event": "done"})
        assert path.read_text() == '{"loss": 1.25, "step": 0}\n{"event": "done"}\n'

    def test_no_path_records_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with event_log() as emit:
            emit({"step": 0})
        assert list(tmp_path.iterdir()) == []


class TestReadJson:
    def test_reads_what_write_json_wrote(self, tmp_path):
        payload = {"b": [1, 2.5, None], "a": {"x": "é"}}
        write_json(tmp_path / "a.json", payload)
        write_json(tmp_path / "b.json", payload, indent=None)
        assert read_json(tmp_path / "a.json", StageError) == read_json(tmp_path / "b.json", StageError) == payload

    @pytest.mark.parametrize("content,message", [
        (b'{"n": 1' + b"0" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
        (b"\xff\xfe{}", "invalid JSON: 'utf-8' codec can't decode"),
        ('{"a": 1}'.encode("utf-16"), "invalid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth"),
        (b'{"a": 1', "invalid JSON: Expecting"),
        (b'{"a": 1}{}', "invalid JSON: Extra data"),
        (b"", "invalid JSON: Expecting value"),
        (b"[1, 2]", "not a JSON object"),
        (b'"text"', "not a JSON object"),
        (None, "cannot read: Is a directory"),
    ], ids=["5000-digit-integer", "not-utf-8", "utf-16", "nested-100000-deep", "truncated",
            "extra-data", "empty", "array", "string", "directory"])
    def test_bad_input_is_the_given_error_naming_the_file(self, tmp_path, content, message):
        path = tmp_path / "in.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        with pytest.raises(StageError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            read_json(path, StageError)

    def test_missing_file_is_the_given_error(self, tmp_path):
        with pytest.raises(StageError, match="nope.json: file not found"):
            read_json(tmp_path / "nope.json", StageError)

    def test_error_may_be_any_callable_returning_an_exception(self, tmp_path):
        (tmp_path / "in.json").write_bytes(b"[]")
        with pytest.raises(StageError, match="^stage x: .*in.json: not a JSON object$"):
            read_json(tmp_path / "in.json", lambda message: StageError(f"stage x: {message}"))


def _write_calls(tree: ast.AST) -> list[str]:
    """Calls that write a file or JSON text past the artifact module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        kwargs = {k.arg for k in node.keywords}
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id == "json":
            if fn.attr == "dump" or (fn.attr == "dumps" and "indent" in kwargs):
                found.append(f"line {node.lineno}: json.{fn.attr}")
        elif isinstance(fn, ast.Attribute) and fn.attr in ("write_text", "write_bytes"):
            found.append(f"line {node.lineno}: .{fn.attr}")
        elif isinstance(fn, ast.Name) and fn.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None
            )
            if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
                found.append(f"line {node.lineno}: open(..., {mode.value!r})")
    return found


def test_only_the_artifact_module_writes_files():
    offenders = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "artifacts.py"
        and (calls := _write_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_guard_sees_each_kind_of_write():
    src = (
        "json.dump(p, f)\njson.dumps(p, indent=2)\nopen(p, 'w')\nopen(p, mode='wb')\n"
        "p.write_text(s)\np.write_bytes(b)\njson.dumps(p)\nopen(p)\nopen(p, 'rb')\n"
    )
    assert [c.split(": ", 1)[1] for c in _write_calls(ast.parse(src))] == [
        "json.dump", "json.dumps", "open(..., 'w')", "open(..., 'wb')", ".write_text", ".write_bytes",
    ]


def _json_reads(tree: ast.AST) -> list[str]:
    """Imports of ``json`` and calls that decode JSON past the artifact module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] == "json"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "json":
            found += [(node.lineno, f"from {node.module} import {a.name}") for a in node.names]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
            and node.func.attr in ("load", "loads")
        ):
            found.append((node.lineno, f"json.{node.func.attr}"))
    # ast.walk goes breadth first; report in source order
    return [f"line {n}: {what}" for n, what in sorted(found, key=lambda f: f[0])]


def test_only_the_artifact_module_reads_json():
    offenders = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "artifacts.py"
        and (reads := _json_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_read_guard_sees_each_form():
    src = (
        "import json\nfrom json import loads\njson.loads(s)\njson.load(f)\nimport json as j\n"
        "from json.decoder import JSONDecodeError\nimport jsonschema\nfrom .json import x\n"
        "x.loads(s)\nread_json(p, E)\n"
    )
    assert [c.split(": ", 1)[1] for c in _json_reads(ast.parse(src))] == [
        "import json", "from json import loads", "json.loads", "json.load", "import json",
        "from json.decoder import JSONDecodeError",
    ]


_CONCURRENCY = ("threading", "concurrent.futures", "multiprocessing")
# process-wide floating-point flags; a scoped ``with np.errstate(...)`` is the one allowed form
_FP_SETTINGS = ("seterr", "seterrcall")


def _hidden_settings(tree: ast.AST) -> list[str]:
    """Imports of thread or process pools, reads of the environment, and global float flags."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ("environ", "getenv"):
                found.append((node.lineno, f"os.{node.attr}"))
            elif node.value.id in ("np", "numpy") and node.attr in _FP_SETTINGS:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            if name in ("os.environ", "os.getenv", *(f"numpy.{f}" for f in _FP_SETTINGS)) or any(
                name == m or name.startswith(m + ".") for m in _CONCURRENCY
            ):
                found.append((node.lineno, f"import {name}"))
    # ast.walk goes breadth first; report in source order
    return [f"line {n}: {what}" for n, what in sorted(found, key=lambda f: f[0])]


def test_the_package_takes_no_hidden_settings():
    # one code path: no environment variable selects behaviour, no pool runs it
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _hidden_settings(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_settings_guard_sees_each_form():
    src = (
        "import threading\nimport concurrent.futures\nfrom concurrent.futures import ProcessPoolExecutor\n"
        "from concurrent import futures\nimport multiprocessing as mp\nfrom multiprocessing.pool import Pool\n"
        "from os import environ\nfrom os import getenv\nos.environ.get('X')\nos.environ['X']\nos.getenv('X')\n"
        "import os\nos.path.join(a, b)\nimport concurrent\nfrom .threading import x\nimport threadpoolctl\n"
        "np.seterr(all='ignore')\nnumpy.seterr(over='raise')\nnp.seterrcall(print)\n"
        "from numpy import seterr\nfrom numpy import seterrcall as call\nold = np.seterr\n"
        "with np.errstate(over='ignore'):\n    np.geterr()\n"
    )
    assert [c.split(": ", 1)[1] for c in _hidden_settings(ast.parse(src))] == [
        "import threading", "import concurrent.futures", "import concurrent.futures.ProcessPoolExecutor",
        "import concurrent.futures", "import multiprocessing", "import multiprocessing.pool.Pool",
        "import os.environ", "import os.getenv", "os.environ", "os.environ", "os.getenv",
        "np.seterr", "numpy.seterr", "np.seterrcall", "import numpy.seterr", "import numpy.seterrcall",
        "np.seterr",
    ]
