"""Check how well the elbow rule recovers the true trait count.

Draws synthetic populations with a known number of latent traits at several
answer-noise levels, scans k over a range, and prints the selected k next to
the truth. Noise-free populations collapse to one row pattern per trait, so
the curve bottoms out exactly at the true k.

    python3 scripts/synthetic_elbow.py
    python3 scripts/synthetic_elbow.py --n 500 --noise 0 0.1 0.3 --seed 11
"""

import argparse
import sys

from traitclust import (
    FitConfig,
    elbow_scan,
    fit,
    generate_synthetic,
    load_schema,
    parse_responses,
    select_k,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--schema", default="ocean50")
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--noise", type=float, nargs="+", default=[0.0, 0.05, 0.15, 0.3])
    ap.add_argument("--k-max", type=int, default=8)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--restarts", type=int, default=5)
    args = ap.parse_args()

    schema = load_schema(args.schema)
    true_k = len(schema.dimensions)
    print(f"schema {schema.name}: {true_k} latent traits, {args.n} respondents per run")

    for noise in args.noise:
        table = generate_synthetic(args.n, schema, seed=args.seed, noise=noise)
        dataset = parse_responses(table.to_csv(), schema).dataset
        # noise-free data collapses to one pattern per trait; the scan cannot
        # ask for more clusters than there are distinct rows
        distinct = len(set(dataset.rows))
        k_max = min(args.k_max, distinct)
        curve = elbow_scan(dataset, 1, k_max, seed=args.seed,
                           restarts=args.restarts)
        chosen = select_k(curve)
        shape = "  ".join(f"{k}:{cost:.0f}" for k, cost in curve)
        mark = "==" if chosen == true_k else "!="
        print(f"noise {noise:.2f}  selected k={chosen} {mark} true {true_k}   [{shape}]")

    print()
    print("fit quality at the true k, noise-free:")
    table = generate_synthetic(args.n, schema, seed=args.seed, noise=0.0)
    dataset = parse_responses(table.to_csv(), schema).dataset
    model = fit(dataset, FitConfig(k=true_k, seed=args.seed, restarts=args.restarts))
    print(f"  cost {model.cost:.3f}, converged {model.converged}, "
          f"cluster sizes {sorted(model.assignments.count(l) for l in range(true_k))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
