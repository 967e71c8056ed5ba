"""Pipeline benchmark for ``lorashear``: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload toy-run-all --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; ``lorashear`` is imported from its
``src/``. One process, one client, closed loop: each run of the workload's
timed stages starts when the previous run has ended, until ``--seconds``
have passed. Every run gets a fresh run directory, is checked for
correctness, digested and deleted. With ``--trace 1`` untraced and traced
runs alternate; the traced ones give the per-layer metrics and the
difference between each traced run and the untraced run before it is the
tracing overhead. Timings are medians over the runs of an invocation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. Run directories, results and span traces live
under ``.bench_work/`` in the checkout, never inside a run directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import EVAL_CHECKPOINTS, EVAL_STAGES, TRAIN_STAGES, WORKLOADS, Workload, raw_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"  # run directories, results and span traces
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREADS_ENV = "LORASHEAR_THREADS"
REL_TOL = 1e-9


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# ---- environment --------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int, trace: bool = False) -> dict:
    """Pin BLAS to one thread, import lorashear from this checkout, record the machine."""
    if not (SRC / "lorashear" / "__init__.py").is_file():
        raise BenchError(f"no lorashear source at {SRC.relative_to(ROOT)}/lorashear; "
                         "run from the root of a source checkout")
    nproc = os.cpu_count() or 1
    raw_threads = os.environ.get(THREADS_ENV, "1") or "1"
    if not raw_threads.isdigit():
        raise BenchError(f"{THREADS_ENV}={raw_threads!r} is not a thread count")
    lorashear_threads = int(raw_threads)
    if lorashear_threads > nproc:
        raise BenchError(f"{THREADS_ENV}={lorashear_threads} exceeds nproc={nproc}")
    if trace and lorashear_threads > 1:
        # spans keep one parent stack; worker threads would interleave on it
        raise BenchError(f"--trace 1 needs {THREADS_ENV} unset or 1, not {lorashear_threads}")
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread pin")
    os.environ.update(BLAS_PIN)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import lorashear

    if Path(lorashear.__file__).resolve().parent != (SRC / "lorashear").resolve():
        raise BenchError(f"imported lorashear from {lorashear.__file__}, not from this checkout")
    blas_threads = _blas_threads()
    if blas_threads is not None and blas_threads != 1:
        raise BenchError(f"BLAS reports {blas_threads} threads after pinning to 1")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_pin": BLAS_PIN,
        THREADS_ENV: os.environ.get(THREADS_ENV),
        "seed": seed,
        "lorashear": lorashear.__version__,
        "machine": platform.machine(),
    }


# ---- artifacts ----------------------------------------------------------------


def dir_digest(path: Path, names: set[str] | None = None) -> str:
    """sha256 over every file's relative name and bytes (optionally only ``names``)."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        rel = p.relative_to(path).as_posix()
        if p.is_file() and (names is None or rel in names):
            h.update(rel.encode("utf-8") + b"\0")
            h.update(p.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def _non_finite(value, where: str) -> list[str]:
    if isinstance(value, float) and not math.isfinite(value):
        return [where]
    if isinstance(value, dict):
        return [w for k, v in value.items() for w in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [w for i, v in enumerate(value) for w in _non_finite(v, f"{where}[{i}]")]
    return []


def _load_json(path: Path):
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_run(run_dir: Path) -> tuple[list[str], dict]:
    """Correctness problems of one finished run, plus the quality figures it reports."""
    problems = []
    docs = {}
    for path in sorted(run_dir.glob("*.json*")):
        docs[path.name] = _load_json(path)
        problems += [f"non-finite value at {w}" for w in _non_finite(docs[path.name], path.name)]
    prune = docs.get("prune_summary.json")
    if prune is not None and prune["zero_groups"] != prune["target_zero_groups"]:
        problems.append(f"zero_groups {prune['zero_groups']} != target {prune['target_zero_groups']}")
    models = docs["eval.json"]["models"]
    pruned_loss = models["model_pruned.lshr"]["corpora"]["pretraining"]["val_loss"]
    recovered = models["model_recovered.lshr"]["corpora"]
    recovered_ppl = statistics.fmean(p for c in recovered.values() for p in c["per_source"].values())
    # eval re-scores the saved checkpoints; it must agree with the stages that made them
    if prune is not None and not _close(pruned_loss, prune["lhspg_heldout_loss"]):
        problems.append("eval's pruned held-out loss differs from prune_summary.json")
    summary = docs.get("recovery_summary.json")
    if summary is not None and not _close(recovered_ppl, summary["post_mean_ppl"]):
        problems.append("eval's recovered mean ppl differs from recovery_summary.json")
    quality = {
        "pruned_heldout_loss": pruned_loss,
        "recovered_mean_ppl": recovered_ppl,
        "progressive_gap": prune["oneshot_heldout_loss"] - prune["lhspg_heldout_loss"] if prune else 0.0,
        "target_zero_groups": prune["target_zero_groups"] if prune else 0,
    }
    return problems, quality


def train_tokens(run_dir: Path, cfg) -> int:
    """Tokens trained in pretrain, prune and recover, counted from their logs."""
    seq = cfg.data.seq_len
    pre = len(_load_json(run_dir / "pretrain_log.jsonl"))
    lh = sum(1 for e in _load_json(run_dir / "lhspg_log.jsonl") if e["event"] == "step")
    rounds = sum(1 for e in _load_json(run_dir / "recovery_log.jsonl") if e["event"] == "round")
    return seq * (pre * cfg.pretrain.batch_size + lh * cfg.lhspg.batch_size
                  + rounds * cfg.recovery.round_steps * cfg.recovery.batch_size)


def eval_tokens(run_dir: Path, cfg) -> int:
    """No-grad tokens scored by analyze and eval, counted from the config.

    analyze scores its evaluation set once intact and once per probe ratio of
    every prunable node group; eval scores each checkpoint's validation split
    per source and then pooled, for both corpora.
    """
    seq = cfg.data.seq_len
    val_per_source = cfg.data.val_sequences_per_source
    eval_seqs = min(cfg.analysis.eval_sequences, val_per_source * len(cfg.data.pretraining_sources))
    groups = _load_json(run_dir / "groups.json")
    families = sum(1 for g in groups["node_groups"]["basic"] if g["prunable"])
    analyze = eval_seqs * seq * (1 + families * len(cfg.analysis.ratios))
    n_sources = len(cfg.data.pretraining_sources) + len(cfg.data.instruct_sources)
    evaluate = EVAL_CHECKPOINTS * 2 * n_sources * val_per_source * seq
    return analyze + evaluate


# ---- runs -----------------------------------------------------------------------


@dataclass
class Run:
    traced: bool
    ok: bool = False
    problems: list[str] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    quality: dict = field(default_factory=dict)
    train_tokens: int = 0
    eval_tokens: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict[str, float]] = field(default_factory=dict)  # per span name, traced runs

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def one_run(work: Workload, cfg, run_dir: Path, setup: Setup, tracer=None) -> Run:
    from lorashear import pipeline

    run = Run(traced=tracer is not None)
    if setup.dir is not None:
        shutil.copytree(setup.dir, run_dir)
    try:
        if tracer is not None:
            run_id = tracer.start_run()
            tracer.counters.clear()
            tracer.install()
        try:
            for stage in work.timed_stages:
                call = pipeline.run_stage
                if tracer is not None:
                    call = tracer.wrap(f"stage.{stage}", call)
                t0 = time.perf_counter()
                try:
                    call(stage, cfg, run_dir)
                finally:
                    run.stage_s[stage] = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        run.problems, run.quality = check_run(run_dir)
        run.digest = dir_digest(run_dir)
        if setup.dir is not None and dir_digest(run_dir, setup.files) != setup.digest:
            run.problems.append("re-running the set-up stages changed their artifacts")
        run.eval_tokens = eval_tokens(run_dir, cfg)
        if work.trains:
            run.train_tokens = train_tokens(run_dir, cfg)
        if tracer is not None:
            from metrics import layer_metrics

            run.spans = tracer.totals(run_id)
            run.layer = layer_metrics(run.spans, tracer.counters)
    except Exception as e:  # a failing stage or check is a failed run, not a crash
        traceback.print_exc(file=sys.stderr)
        run.problems.append(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run.ok = not run.problems
    return run


@dataclass
class Setup:
    seconds: float
    dir: Path | None = None
    digest: str = ""
    files: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)


def set_up(work: Workload, seed: int, base: Path, smoke: bool) -> Setup:
    """Set up ``work.setup_repeats`` times, each in a fresh interpreter; keep the median time.

    Set-up is what a user pays before the first timed stage: interpreter
    start, import, config materialization and, for workloads that start
    from artifacts, building those artifacts. Every repeat must build
    byte-identical artifacts; the runs copy the first one.
    """
    times, digests = [], []
    for i in range(work.setup_repeats):
        target = base / f"setup-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", work.name,
               "--seed", str(seed), "--seconds", "0", "--setup-into", str(target)] + (["--smoke"] if smoke else [])
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
        digests.append(dir_digest(target))
    setup = Setup(seconds=statistics.median(times))
    if work.setup_stages:
        setup.dir = base / "setup-0"
        setup.digest = digests[0]
        setup.files = {p.relative_to(setup.dir).as_posix() for p in setup.dir.rglob("*") if p.is_file()}
        if len(set(digests)) != 1:
            setup.problems.append("set-up repeats built different artifacts")
    return setup


def build_setup(work: Workload, seed: int, target: Path, smoke: bool) -> None:
    """Body of one set-up repeat (runs in its own interpreter)."""
    from lorashear import pipeline
    from lorashear.config import config_from_dict, write_config

    cfg = config_from_dict(raw_config(work, seed, smoke))
    target.mkdir(parents=True)
    write_config(cfg, target / "config.json")
    for stage in work.setup_stages:
        pipeline.run_stage(stage, cfg, target)


# ---- reduction ------------------------------------------------------------------


def _rate(tokens: int, run: Run, stages: tuple[str, ...]) -> float:
    seconds = sum(run.stage_s.get(s, 0.0) for s in stages)
    return tokens / seconds if seconds > 0 else 0.0


def end_to_end(runs: list[Run], setup: Setup) -> dict[str, float]:
    ok = [r for r in runs if r.ok] or runs
    return {
        "wall_s": statistics.median(r.wall_s for r in ok),
        "setup_s": setup.seconds,
        "eval_tokens_per_s": statistics.median(_rate(r.eval_tokens, r, EVAL_STAGES) for r in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pruned_heldout_loss": ok[0].quality.get("pruned_heldout_loss", 0.0),
        "recovered_mean_ppl": ok[0].quality.get("recovered_mean_ppl", 0.0),
    }


def per_layer(runs: list[Run], names: list[str]) -> dict[str, float]:
    traced = [r for r in runs if r.traced and r.ok] or [r for r in runs if r.traced]
    plain = [r for r in runs if not r.traced and r.ok] or [r for r in runs if not r.traced]
    out = {name: statistics.median(r.layer.get(name, 0.0) for r in traced) for name in names}
    q = traced[0].quality
    target = q.get("target_zero_groups", 0)
    out["lhspg.halfspace_zeroed_ratio"] = out["lhspg.halfspace_zeroed"] / target if target else 0.0
    out["lhspg.progressive_gap"] = q.get("progressive_gap", 0.0)
    out["train_tokens_per_s"] = statistics.median(_rate(r.train_tokens, r, TRAIN_STAGES) for r in plain)
    # runs alternate untraced, traced: pair each traced run with the one before it
    out["trace.overhead_s"] = statistics.median(
        r.wall_s - runs[i - 1].wall_s for i, r in enumerate(runs) if r.traced
    )
    return out


def bench(work: Workload, seed: int, seconds: float, trace: bool, work_dir: Path, smoke: bool = False):
    from lorashear.config import config_from_dict

    from metrics import PER_LAYER, UNITS, END_TO_END
    from tracing import Tracer

    base = work_dir / f"{work.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        setup = set_up(work, seed, base, smoke)
        cfg = config_from_dict(raw_config(work, seed, smoke))
        runs: list[Run] = []
        t0 = time.perf_counter()
        while True:
            traced = trace and len(runs) % 2 == 1
            runs.append(one_run(work, cfg, base / f"run-{len(runs)}", setup, tracer if traced else None))
            if time.perf_counter() - t0 >= seconds and (not trace or len(runs) >= 2):
                break
    finally:
        shutil.rmtree(base, ignore_errors=True)

    reference = next((r.digest for r in runs if r.ok), "")
    for r in runs:
        if r.ok and r.digest != reference:
            r.problems.append("run directory digest differs from the first run of this seed"
                              + (" (traced run)" if r.traced else ""))
            r.ok = False
    failed = sum(not r.ok for r in runs)
    if trace:
        names = PER_LAYER
        values = per_layer(runs, names)
        spans_path = work_dir / "traces" / f"{work.name}-s{seed}.csv.gz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    else:
        values = end_to_end(runs, setup)
        names = END_TO_END
    result = {
        "correct": failed == 0 and not setup.problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": UNITS[n]} for n in names},
    }
    detail = {
        "workload": work.name,
        "seed": seed,
        "trace": trace,
        "setup_problems": setup.problems,
        "runs": [
            {"traced": r.traced, "ok": r.ok, "problems": r.problems, "wall_s": r.wall_s,
             "stage_s": r.stage_s, "digest": r.digest, "eval_tokens": r.eval_tokens,
             "train_tokens": r.train_tokens, "spans": r.spans}
            for r in runs
        ],
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, for the self-test")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    try:
        env = environment(args.seed, bool(args.trace))
        if args.setup_into is not None:
            build_setup(work, args.seed, args.setup_into, args.smoke)
            return 0
        result, detail = bench(work, args.seed, args.seconds, bool(args.trace), WORK_DIR, args.smoke)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{work.name}-s{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"env": env, **detail, "result": result}, indent=2) + "\n")
    for r in detail["runs"]:
        for problem in r["problems"]:
            print(f"perfbench: run failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
