"""Self-test of the benchmark at smoke size: ``python3 perfbench/selftest.py``.

Checks that
- every workload, untraced and traced, passes its correctness gate and emits
  every end-to-end or per-layer metric ``BENCHMARK.json`` declares;
- a traced run reports non-zero figures for the modules its workload runs,
  and probe-eval records no tape, backward or optimizer work;
- probe-eval's traced token count equals the count derived from its config;
- after tracing, every ``lorashear`` module and class attribute is the
  original object again;
- ``--trace 1`` refuses more than one ``LORASHEAR_THREADS`` thread;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS

ALWAYS_ZERO_OK = {
    "lhspg.halfspace_zeroed", "lhspg.halfspace_zeroed_ratio", "lhspg.progressive_gap",
    "trace.overhead_s",
}
# probe-eval runs no tape, backward, optimizer, pruning, recovery or save
PROBE_EVAL_ZERO = (
    "tensor.tape.", "model.forward.grad_", "optim.", "lhspg.lhspg_step", "recovery.",
    "checkpoint.save", "train_tokens_per_s",
)
PROBE_EVAL_BUSY = (
    "stage.analyze", "stage.eval", "tensor.", "model.forward.nograd", "evaluate.", "knowledge.",
    "util.", "graph.", "checkpoint.load",
)


def read_side_zero(name: str) -> bool:
    return name.startswith(PROBE_EVAL_ZERO) or name.endswith(".bwd_s")


def lorashear_bindings() -> dict[str, int]:
    """id() of every attribute of every loaded lorashear module and of its classes."""
    from tracing import lorashear_modules

    out = {}
    for mod_name, mod in lorashear_modules():
        for key, value in vars(mod).items():
            out[f"{mod_name}.{key}"] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[f"{mod_name}.{key}.{attr}"] = id(member)
    return out


def check_workload(name: str, work_dir: Path) -> list[str]:
    from tracing import patched_leftovers

    errors = []
    work = WORKLOADS[name]
    for trace in (False, True):
        before = lorashear_bindings()
        result, detail = run.bench(work, seed=3, seconds=0, trace=trace, work_dir=work_dir, smoke=True)
        tag = f"{name} trace={int(trace)}"
        if not result["correct"] or result["failed"]:
            errors.append(f"{tag}: runs failed: {[r['problems'] for r in detail['runs']]}")
        after = lorashear_bindings()
        changed = sorted(k for k, v in before.items() if after.get(k) != v) + patched_leftovers()
        if changed:
            errors.append(f"{tag}: lorashear left patched: {changed[:10]}")
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if not trace:
            zero = [k for k, v in values.items() if not v > 0]
        elif name == "probe-eval":
            zero = [k for k, v in values.items()
                    if not v and k.startswith(PROBE_EVAL_BUSY) and not read_side_zero(k)]
            busy = [k for k, v in values.items() if v and read_side_zero(k)]
            if busy:
                errors.append(f"{tag}: training work recorded on the read side: {busy}")
            counted = detail["runs"][1]["eval_tokens"]
            if values["evaluate.mean_cross_entropy.tokens"] != counted:
                errors.append(f"{tag}: traced {values['evaluate.mean_cross_entropy.tokens']} "
                              f"scored tokens, config gives {counted}")
        else:
            zero = [k for k, v in values.items() if not v and k not in ALWAYS_ZERO_OK]
        if zero:
            errors.append(f"{tag}: zero for modules the workload runs: {zero}")
    return errors


def check_bare_directory(work_dir: Path) -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_dir))
    try:
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "toy-run-all", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def check_trace_threads() -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "toy-run-all", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, env={**os.environ, run.THREADS_ENV: "2"}, capture_output=True, text=True,
        timeout=170,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"trace with 2 threads: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.environment(seed=3)  # pins BLAS before anything imports numpy
    import lorashear.pipeline  # noqa: F401  (load every module before the first snapshot)
    errors = []
    work_dir = run.WORK_DIR / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        for name in WORKLOADS:
            errors += check_workload(name, work_dir)
        errors += check_bare_directory(work_dir)
        errors += check_trace_threads()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
