"""Sweep physical rates for a family of surface codes and write CSV.

Produces one results file per side length so the curves can be plotted
against each other; the crossing region locates the pseudo-threshold
for the chosen decoder.
"""

import argparse
from pathlib import Path

from qecbench.bench import BenchmarkConfig, csv_text, run_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sides", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--rates", type=float, nargs="+",
                        default=[0.005, 0.01, 0.02, 0.04, 0.08])
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--order", type=int, default=2, help="OSD order")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for side in args.sides:
        cfg = BenchmarkConfig(
            code=f"surface {side}",
            noise="split-xz",
            decoder=f"bp+osd {args.order}",
            rates=tuple(args.rates),
            trials=args.trials,
            seed=args.seed,
        )
        result = run_benchmark(cfg, threads=args.threads)
        out = args.out_dir / f"surface_{side}.csv"
        out.write_text(csv_text(result))
        for rec in result.records:
            print(f"side={side} p={rec.rate:g} ler={rec.logical_error_rate:.4g}"
                  f" [{rec.ci_low:.3g}, {rec.ci_high:.3g}]"
                  f" ({rec.wall_time:.1f}s)")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
