"""Compare decoders on one code and noise model at a fixed rate.

Runs the same seeded trial sequence through each decoder so the
failure counts are directly comparable, and prints a small table.
"""

import argparse

from qecbench.bench import BenchmarkConfig, run_benchmark


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--code", default="surface 3")
    parser.add_argument("--noise", default="split-xz")
    parser.add_argument("--rate", type=float, default=0.03)
    parser.add_argument("--trials", type=int, default=5_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--decoders", nargs="+",
                        default=["bp", "bp+osd 0", "bp+osd 2"])
    args = parser.parse_args()

    print(f"{args.code} | {args.noise} | p = {args.rate:g} | "
          f"{args.trials} trials | seed {args.seed}")
    header = f"{'decoder':<12} {'failures':>8} {'ler':>10} {'95% interval':>24} {'iters':>7}"
    print(header)
    print("-" * len(header))
    for decoder in args.decoders:
        cfg = BenchmarkConfig(
            code=args.code,
            noise=args.noise,
            decoder=decoder,
            rates=(args.rate,),
            trials=args.trials,
            seed=args.seed,
        )
        rec = run_benchmark(cfg).records[0]
        interval = f"[{rec.ci_low:.5f}, {rec.ci_high:.5f}]"
        print(f"{decoder:<12} {rec.failures:>8} {rec.logical_error_rate:>10.5f}"
              f" {interval:>24} {rec.mean_iterations:>7.2f}")


if __name__ == "__main__":
    main()
