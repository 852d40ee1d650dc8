#!/usr/bin/env python3
"""Run the full experiment pipeline and export every plot-data table.

Generates the committed 26-participant corpus, evaluates all five
classifiers on both binary tasks (full segments, first-n truncation sweep,
and width-5 sliding windows), and writes the report CSVs plus detection
streams into the output directory through ``gaze_sentinel.cli.write_eval``,
the writer behind ``gaze-sentinel eval``.

Usage:
    python scripts/reproduce_curves.py [--out outputs] [--seed 7]
        [--participants 26] [--widths 5] [--skip-first-n]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gaze_sentinel import storage
from gaze_sentinel.cli import write_eval
from gaze_sentinel.evaluate import TASKS, Corpus
from gaze_sentinel.learners import KINDS
from gaze_sentinel.sim import CorpusSpec, generate_corpus


def _progress(entries, label: str) -> None:
    for task, kind, _, report in entries:
        print(f"{task} {kind:7s} {label}: acc={report.accuracy:.3f} rec={report.recall:.3f}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="outputs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--participants", type=int, default=26)
    ap.add_argument("--widths", type=float, nargs="+", default=[5.0])
    ap.add_argument("--skip-first-n", action="store_true")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run_cfg = {"seed": args.seed, "participants": args.participants}

    t0 = time.monotonic()
    corpus = Corpus(generate_corpus(
        CorpusSpec(participants=args.participants, master_seed=args.seed)))
    tables = [corpus.rows_for_task(task) for task in TASKS]
    print(f"corpus ready ({time.monotonic()-t0:.0f}s)")

    storage.write_feature_csv(tables, out / "features.csv", run_cfg)

    for task in ("nf-ef", "nf-df"):
        _progress(write_eval(corpus, out, task, "full", KINDS, args.seed, run_cfg), "full")
        if not args.skip_first_n:
            kinds = ("forest", "ada", "gbt-a")
            write_eval(corpus, out, task, "first-n", kinds, args.seed, run_cfg)
            for kind in kinds:
                print(f"{task} {kind:7s} first-n done")
        for width in args.widths:
            entries = write_eval(corpus, out, task, "stream", KINDS, args.seed, run_cfg,
                                 width=width)
            _progress(entries, f"w={width:g}")
    print(f"all outputs in {out} ({time.monotonic()-t0:.0f}s total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
