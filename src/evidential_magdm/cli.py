"""Command-line front end.

Commands:
  rank           run the group-decision pipeline on per-expert CSVs
  fuse-features  estimate source weights and fuse feature CSVs
  verify-paper   recompute the bundled study and diff its published values

Exit codes: 0 success, 2 malformed input file, 3 numeric degeneracy,
4 configuration/usage error. ``EVIDENTIAL_MAGDM_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio, report as report_mod
from .config import RunConfig
from .errors import ConfigError, CsvFormatError, MagdmError
from .fusion import evaluate_fusion
from .pipeline import run_pipeline
from .verify import run_reference_checks

log = logging.getLogger("evidential_magdm")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CONFIG = 4


def _setup_logging() -> None:
    level = os.environ.get("EVIDENTIAL_MAGDM_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_config(args, overrides: dict | None = None) -> RunConfig:
    """``--config`` (or the defaults), then ``overrides``."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    if overrides:
        config = RunConfig.from_dict({**config.to_dict(), **overrides})
    return config


def cmd_rank(args) -> int:
    config = _load_config(args)
    if len(args.inputs) < 2:
        raise ConfigError("group decision requires at least 2 expert CSV files")
    matrices = dataio.read_decision_matrices(args.inputs)
    # the output directory stays out of the echoed config so that identical
    # inputs give byte-identical reports wherever they are written
    config = config.replace(inputs=tuple(str(p) for p in args.inputs))
    result = run_pipeline(matrices, config)
    report = report_mod.pipeline_report(result, include_intermediates=args.dump_intermediates)
    out_dir = Path(args.out)
    dataio.atomic_write_text(out_dir / "report.json", report_mod.dump_json(report))
    dataio.atomic_write_text(out_dir / "report.md", report_mod.render_markdown(report))
    if args.dump_intermediates:
        for e, expert_id in enumerate(result.expert_ids):
            for kind, stack in (("memberships", result.memberships.degrees), ("masses", result.bpa_tensors.masses)):
                dataio.write_term_values(
                    out_dir / f"{expert_id}_{kind}.csv", expert_id,
                    stack[e], result.alternative_labels, result.attribute_labels,
                )
    log.info("wrote %s and %s", out_dir / "report.json", out_dir / "report.md")
    if args.json:
        sys.stdout.write(report_mod.dump_json(report))
    else:
        print("expert ranking:", " > ".join(report["expert_ranking"]))
        print("weights:", ", ".join(
            f"{e}={w:.4f}" for e, w in zip(report["experts"], report["weights"])
        ))
        print("alternative ranking:", " > ".join(report["ranking"]))
        print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_fuse_features(args) -> int:
    entries, manifest_config = dataio.read_manifest(args.manifest)
    if len(entries) < 2:
        raise ConfigError("feature fusion requires at least 2 sources")
    if args.seed is not None:
        manifest_config = {**manifest_config, "seed": args.seed}
    config = _load_config(args, overrides=manifest_config)
    sources = dataio.read_feature_sources(entries)
    if all(s.labels is None for s in sources):
        raise CsvFormatError(
            f"{entries[0]['path']}:1: no source has a 'label' column, which scoring needs"
        )
    weights, fused, metrics = evaluate_fusion(sources, config)
    out_dir = Path(args.out)
    dataio.write_feature_source(out_dir / "fused.csv", fused)
    payload = {
        "config": config.to_dict(),
        "sources": [s.source_id for s in sources],
        "weights": list(np.asarray(weights.weights)),
        "metrics": metrics.to_dict(),
    }
    dataio.atomic_write_text(out_dir / "metrics.json", report_mod.dump_json(payload))
    if args.json:
        sys.stdout.write(report_mod.dump_json(payload))
    else:
        print("source weights:", ", ".join(
            f"{s}={w:.4f}" for s, w in zip(payload["sources"], payload["weights"])
        ))
        macro = metrics.to_dict()["macro"]
        print("macro metrics:", ", ".join(f"{k}={v}" if isinstance(v, str) else f"{k}={v:.4f}"
                                          for k, v in macro.items()))
        kappa = metrics.to_dict()["kappa"]
        print("kappa:", kappa if isinstance(kappa, str) else f"{kappa:.4f}")
        print(f"fused features written to {out_dir / 'fused.csv'}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    config = _load_config(args)
    checks, result = run_reference_checks(config)
    all_pass = all(c.passed for c in checks)
    if args.json:
        payload = {
            "config": config.to_dict(),
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "delta": c.delta,
                    "tolerance": c.tolerance,
                    "detail": c.detail,
                }
                for c in checks
            ],
            "all_passed": all_pass,
        }
        sys.stdout.write(report_mod.dump_json(payload))
    else:
        print(f"config: owa={result.owa.scheme}, log base={config.log_base}, "
              f"terms={config.terms}, pair weights={list(config.pair_weights)}, "
              f"wpbl axis={config.wpbl_axis}")
        for check in checks:
            print(check.line())
        print("all checks passed" if all_pass else "SOME CHECKS FAILED")
    return EXIT_OK if all_pass else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the configuration code, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evidential-magdm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank_p = sub.add_parser("rank", help="rank alternatives from per-expert CSVs")
    rank_p.add_argument("inputs", nargs="+", help="one decision-matrix CSV per expert")
    rank_p.add_argument("--dump-intermediates", action="store_true",
                        help="include membership/mass/profile dumps in the report")
    rank_p.set_defaults(func=cmd_rank)

    fuse_p = sub.add_parser("fuse-features", help="weight and fuse feature sources")
    fuse_p.add_argument("manifest", help="JSON manifest listing source CSVs and config")
    fuse_p.add_argument("--seed", type=int, default=None,
                        help="override the sampling and split seed of --config and the manifest")
    fuse_p.set_defaults(func=cmd_fuse_features)

    verify_p = sub.add_parser(
        "verify-paper", help="recompute the bundled study and diff published values"
    )
    verify_p.set_defaults(func=cmd_verify_paper)

    for p in (rank_p, fuse_p, verify_p):
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MagdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
