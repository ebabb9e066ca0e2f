"""Command-line front end.

Subcommands:

* ``score``   -- score one distorted image against its reference
* ``eval``    -- run a manifest batch and emit reports
* ``distort`` -- apply the synthetic block-DCT distorter to an image

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .errors import DATA_ERRORS
from .harness import (DCT_SIZE, checked_qstep, emit_report, parse_manifest, run_eval,
                      synth_distort)
from .image import crop_to_multiple, read_pgm, write_pgm
from .metric import CODEC_LAMBDAS, QualityConfig, assess


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; this CLI reserves 2
    # for data errors, so convert to an exception handled in cli_main.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _checked(rule):
    """An argparse type: ``rule(float(text))``, where ``rule`` is the
    library's own check of the setting. Its ``ValueError``, or
    ``float()``'s, becomes a usage error with that message."""
    def parse(text: str):
        try:
            return rule(float(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="saakiqa", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"saakiqa {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    lam = _checked(lambda v: QualityConfig(lam=v).lam)

    score = sub.add_parser("score", help="score one reference/distorted pair")
    score.add_argument("--ref", required=True, help="reference PGM")
    score.add_argument("--dist", required=True, help="distorted PGM")
    score.add_argument("--codec", choices=sorted(CODEC_LAMBDAS), default="jpeg")
    score.add_argument("--lambda", dest="lam", type=lam,
                       help="override the codec's blend factor")
    score.add_argument("--json", action="store_true",
                       help="print score plus channel diagnostics as JSON")

    ev = sub.add_parser("eval", help="evaluate a manifest batch")
    ev.add_argument("--manifest", required=True, help="ref,dist,mos,codec CSV")
    ev.add_argument("--out", help="write the full report as JSON")
    ev.add_argument("--csv", help="write per-record rows as CSV")
    ev.add_argument("--scatter", help="write per-codec scatter TSV")
    ev.add_argument("--lambda", dest="lam", type=lam,
                    help="blend factor for every record (overrides codec defaults)")
    ev.add_argument("--sigma", type=_checked(lambda v: QualityConfig(sigma=v).sigma),
                    default=QualityConfig.sigma,
                    help="Gaussian pre-filter sigma (default %(default)s)")

    dist = sub.add_parser("distort", help="apply block-DCT quantization")
    dist.add_argument("--in", dest="infile", required=True, help="input PGM")
    dist.add_argument("--out", required=True, help="output PGM")
    dist.add_argument("--qstep", type=_checked(checked_qstep), required=True,
                      help="quantization step")
    return parser


def _do_score(args) -> int:
    config = QualityConfig.for_codec(args.codec, args.lam)
    ref = read_pgm(args.ref)
    dist = read_pgm(args.dist)
    score, stats = assess(ref, dist, config)
    if args.json:
        print(json.dumps({
            "score": score,
            "lambda": config.lam,
            "codec": args.codec,
            "weighted_mse": stats.weighted_mse,
            "weighted_correlation": stats.weighted_correlation,
            "channels": {
                "mse": stats.mse.tolist(),
                "correlation": stats.correlation.tolist(),
                "energy": stats.energy.tolist(),
                "weight": stats.weight.tolist(),
            },
        }, indent=2, sort_keys=True))
    else:
        print(f"{score:.6f}")
    return 0


def _do_eval(args) -> int:
    records = parse_manifest(args.manifest)
    report = run_eval(records, sigma=args.sigma, lam_override=args.lam)
    emit_report(report, json_path=args.out, csv_path=args.csv,
                scatter_path=args.scatter)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for codec, cres in sorted(report.codecs.items()):
        if cres.plcc is not None:
            print(f"{codec}: n={cres.n_scored} plcc={cres.plcc:.4f} "
                  f"srcc={cres.srcc:.4f} krcc={cres.krcc:.4f}")
        else:
            print(f"{codec}: n={cres.n_scored} (no statistics)")
    return 0


def _do_distort(args) -> int:
    img = crop_to_multiple(read_pgm(args.infile), DCT_SIZE)
    write_pgm(synth_distort(img, args.qstep), args.out)
    return 0


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError:
        return 1
    handler = {"score": _do_score, "eval": _do_eval, "distort": _do_distort}
    try:
        return handler[args.command](args)
    except DATA_ERRORS as exc:
        print(f"saakiqa: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
