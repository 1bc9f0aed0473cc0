"""Command-line entry point.

netinstab analyze --model <file|piezo> --variant appendix|printed
                  --method <comma list|all> --out <dir> [hyperparameter and
                  grid options]
netinstab concordance --summary <summary.json> [--top-k K]
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import BadParameter, NetinstabError
from .graph import VARIANTS, read_json
from .report import METHODS, AnalysisConfig, concordance_from_summary, run


def _parse_methods(raw: str) -> tuple[str, ...]:
    if raw.strip() == "all":
        return tuple(METHODS)
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netinstab")
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag's dest is an AnalysisConfig field; an omitted flag keeps the field's default
    an = sub.add_parser(
        "analyze",
        help="run analyses on a model file and emit artifacts",
        argument_default=argparse.SUPPRESS,
    )
    an.add_argument("--model", dest="model_path", required=True, help="model JSON path, or 'piezo' for the bundled fixture")
    an.add_argument("--variant", choices=VARIANTS)
    an.add_argument("--method", dest="methods", type=_parse_methods, required=True, help=f"comma-separated subset of {','.join(METHODS)}, or 'all'")
    an.add_argument("--out", dest="output_dir", required=True, help="output directory for artifacts")
    an.add_argument("--seed", dest="seeds", type=int, nargs="+", help="training seed(s)")
    an.add_argument("--iters", dest="iterations", type=int)
    an.add_argument("--lr", dest="learning_rate", type=float)
    an.add_argument("--leaky-slope", type=float)
    an.add_argument("--perturb-node", type=int)
    an.add_argument("--perturb-factor", type=float)
    an.add_argument("--delta-min", type=float)
    an.add_argument("--delta-max", type=float)
    an.add_argument("--delta-step", type=float)
    an.add_argument("--top-k", type=int)

    co = sub.add_parser("concordance", help="recompute ranking agreement from a summary.json")
    co.add_argument("--summary", required=True, help="path to a summary.json written by analyze")
    co.add_argument("--top-k", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            fields = vars(args)
            del fields["command"]
            config = AnalysisConfig(**fields)
            run(config)
            print(f"wrote artifacts to {config.output_dir}")
            return 0
        summary = read_json(args.summary, "summary", BadParameter)
        report = concordance_from_summary(summary, args.top_k)
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
        return 0
    except NetinstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
