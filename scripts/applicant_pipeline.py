"""Run the full applicant screening flow on a response CSV.

Parses the responses, scans a k range to pick a cluster count, fits the
final clustering, labels each cluster with its dominant trait, and prints
the population percentages. Defaults target the bundled example data.

    python3 scripts/applicant_pipeline.py
    python3 scripts/applicant_pipeline.py --input data/scenario_applicants.csv --k 3
"""

import argparse
import sys
from pathlib import Path

from traitclust import (
    FitConfig,
    elbow_scan,
    emit_report,
    fit,
    label_clusters,
    load_schema,
    parse_responses,
    personality_percentages,
    score_profiles,
    select_k,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--input", default=str(REPO_ROOT / "data" / "scenario_applicants.csv"))
    ap.add_argument("--schema", default="scenario3")
    ap.add_argument("--k", type=int, default=None,
                    help="cluster count; omitted picks the elbow of a 1..4 scan")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--restarts", type=int, default=20)
    args = ap.parse_args()

    schema = load_schema(args.schema)
    result = parse_responses(Path(args.input).read_text(), schema)
    print(f"parsed {result.table.n} respondents "
          f"({result.report.rows_dropped} dropped) from {args.input}")

    if args.k is None:
        k_max = min(4, result.dataset.n)
        curve = elbow_scan(result.dataset, 1, k_max, seed=args.seed, restarts=args.restarts)
        for k, cost in curve:
            print(f"  k={k}  within-cluster difference {cost:.3f}")
        k = select_k(curve)
        print(f"elbow selects k={k}")
    else:
        k = args.k

    model = fit(result.dataset, FitConfig(k=k, seed=args.seed, restarts=args.restarts))
    status = "converged" if model.converged else "hit the epoch budget"
    print(f"fit cost {model.cost:.3f} after {model.epochs_run} epoch(s), {status}")

    _, percent = score_profiles(result.table, schema)
    labeling = label_clusters(model, percent, schema)
    for summary in labeling.clusters:
        members = [str(rid) for rid, l in zip(result.table.ids, model.assignments)
                   if l == summary.index]
        print(f"cluster {summary.index} ({summary.dominant}): {', '.join(members)}")

    print()
    print(emit_report(personality_percentages(labeling), "text"), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
