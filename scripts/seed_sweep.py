#!/usr/bin/env python3
"""Sweep seeds and tabulate the progressive-vs-one-shot gap and recovery gain.

Usage: python scripts/seed_sweep.py [N_SEEDS] [OUT_ROOT]
"""

import sys
from pathlib import Path

from lorashear import pipeline
from lorashear.artifacts import read_json
from lorashear.config import PipelineConfig
from lorashear.errors import FormatError


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    root = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("runs/sweep")
    print(f"{'seed':>6} {'oneshot-lhspg':>14} {'pre ppl':>9} {'post ppl':>9}")
    wins = rec_wins = 0
    for seed in range(101, 101 + n):
        cfg = PipelineConfig()
        cfg.seed = seed
        out = root / f"seed{seed}"
        pipeline.run_all(cfg, out)
        prune = read_json(out / "prune_summary.json", FormatError)
        rec = read_json(out / "recovery_summary.json", FormatError)
        delta = prune["oneshot_heldout_loss"] - prune["lhspg_heldout_loss"]
        wins += delta >= 0
        rec_wins += rec["post_mean_ppl"] < rec["pre_mean_ppl"]
        print(f"{seed:>6} {delta:>+14.4f} {rec['pre_mean_ppl']:>9.1f} {rec['post_mean_ppl']:>9.1f}")
    print(f"\nprogressive wins {wins}/{n}; recovery improves {rec_wins}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
