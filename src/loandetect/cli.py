"""Command-line interface.

Subcommands: detect, detect-xl, eval, ablate, experiment, synth.
Configuration resolves defaults -> --config file -> CLI flags; the fully
resolved configuration is echoed into every report header, and
``--print-config`` dumps it in config-file format and exits. Exit codes:
0 success, 1 input/validation error, 2 internal error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import baseline, crossling, evaluation
from .config import ConfigError, RunConfig, load_config
from .evaluation import (
    EvalReport,
    NoGoldLabelsError,
    format_report_block,
    generate_synthetic,
    generate_synthetic_multilingual,
    load_grammar,
    run_ablations,
    run_proportion_experiment,
)
from .refiner import detect_wordlist
from .wordlist import (
    Wordlist,
    WordlistError,
    load_wordlist,
    read_report,
    write_report,
    write_scaled_report,
    write_wordlist,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _add_common(parser: argparse.ArgumentParser, *, need_seed: bool = False) -> None:
    parser.add_argument("--input", help="input wordlist (TSV; CSV with --csv)")
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--mode",
        choices=["full", "no_ngram", "no_transition", "aug"],
        help="feature mode override",
    )
    parser.add_argument(
        "--model", choices=["autbor", "uns"], help="detection model override"
    )
    parser.add_argument(
        "--threads",
        type=int,
        help="worker threads (outputs are identical for any value)",
    )
    parser.add_argument(
        "--seed", type=int, required=need_seed, help="random seed"
    )
    parser.add_argument("--trace", help="write per-iteration trace TSV here")
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the resolved configuration and exit",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    parser.add_argument("--csv", action="store_true", help="input is comma-separated")
    parser.add_argument(
        "--lenient-pos",
        action="store_true",
        help="map unknown POS values to 'function' instead of failing",
    )


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, object] = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for key in ("mode", "model", "threads", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return load_config(args.config, overrides)


def _report_meta(cfg: RunConfig) -> dict[str, object]:
    # threads is an execution detail; outputs are identical for any value,
    # so it must not perturb the echoed header
    return {k: v for k, v in cfg.to_flat().items() if k != "threads"}


def _load_input(args: argparse.Namespace) -> Wordlist:
    if not args.input:
        raise WordlistError("--input is required")
    vocab = load_wordlist(
        args.input,
        delimiter="," if args.csv else "\t",
        lenient_pos=args.lenient_pos,
    )
    if len(vocab) == 0:
        raise WordlistError(f"{args.input} has no entries")
    return vocab


def _require_output(args: argparse.Namespace) -> Path:
    if not args.output:
        raise WordlistError("--output is required")
    return Path(args.output)


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.print_config:
        sys.stdout.write(cfg.dump())
        return EXIT_OK
    vocab = _load_input(args)
    output = _require_output(args)
    if cfg.model == "uns":
        probs, labels = baseline.detect_wordlist(vocab, cfg)
    else:
        probs, labels, states = detect_wordlist(
            vocab, cfg, trace_path=args.trace
        )
        for lang, state in states.items():
            for warning in state.warnings:
                log.warning("[%s] %s", lang, warning)
    write_report(vocab, probs, labels, output, header_meta=_report_meta(cfg))
    log.info("wrote %s (%d words)", output, len(vocab))
    return EXIT_OK


def cmd_detect_xl(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.print_config:
        sys.stdout.write(cfg.dump())
        return EXIT_OK
    vocab = _load_input(args)
    output = _require_output(args)
    if len(vocab.languages()) < 2:
        log.warning(
            "input contains a single language; scaled output equals basic output"
        )
    result = crossling.detect_scaled(vocab, cfg)
    write_scaled_report(
        vocab,
        result.basic,
        result.comparability,
        result.composite,
        result.thresholds,
        result.predicted,
        output,
        header_meta=_report_meta(cfg),
    )
    print(result.asymmetry_summary())
    log.info("wrote %s (%d words)", output, len(vocab))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.print_config:
        sys.stdout.write(cfg.dump())
        return EXIT_OK
    if not args.input:
        raise WordlistError("--input is required")
    rows = read_report(args.input)
    if not rows:
        raise WordlistError("report is empty")
    report = evaluation.evaluate(
        [r.predicted_label for r in rows],
        [r.gold_label for r in rows],
        [r.language for r in rows],
    )
    block = format_report_block("OVERALL", report)
    print(block)
    if args.output:
        _write_eval_tsv(report, Path(args.output))
    return EXIT_OK


def _write_eval_tsv(report: EvalReport, path: Path) -> None:
    lines = ["\t".join(["scope", "precision", "recall", "f1", "tp", "fp", "tn", "fn"])]

    def row(scope: str, r: EvalReport) -> str:
        return (
            f"{scope}\t{r.precision:.6f}\t{r.recall:.6f}\t{r.f1:.6f}"
            f"\t{r.tp}\t{r.fp}\t{r.tn}\t{r.fn}"
        )

    lines.append(row("overall", report))
    for lang, sub in report.per_language.items():
        lines.append(row(lang, sub))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.print_config:
        sys.stdout.write(cfg.dump())
        return EXIT_OK
    vocab = _load_input(args)
    output = _require_output(args)
    reports = run_ablations(vocab, cfg)
    evaluation.write_mode_table(reports, output)
    for mode, report in reports.items():
        print(format_report_block(mode.upper(), report))
        print()
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.print_config:
        sys.stdout.write(cfg.dump())
        return EXIT_OK
    vocab = _load_input(args)
    output = _require_output(args)
    try:
        proportions = [float(p) for p in args.proportions.split(",")]
    except ValueError:
        raise ConfigError(f"--proportions expects numbers, got {args.proportions!r}") from None
    rows = run_proportion_experiment(vocab, cfg, proportions, seed=cfg.seed)
    evaluation.write_proportion_table(rows, output)
    for proportion, report in rows:
        print(f"proportion {proportion:.2f}: "
              f"P={report.precision:.3f} R={report.recall:.3f} F1={report.f1:.3f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.print_config:
        sys.stdout.write(cfg.dump())
        return EXIT_OK
    output = _require_output(args)
    native = load_grammar(args.native_grammar)
    donor = load_grammar(args.donor_grammar)
    if args.multilingual:
        vocab = generate_synthetic_multilingual(
            native, donor, args.n_native, args.n_loans, cfg.seed, args.integration
        )
    else:
        vocab = generate_synthetic(
            native, donor, args.n_native, args.n_loans, cfg.seed, args.integration
        )
    write_wordlist(vocab, output)
    log.info("wrote %s (%d entries)", output, len(vocab))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loandetect",
        description="Unsupervised loanword detection over IPA wordlists.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="basic monolingual detection")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("detect-xl", help="cross-linguistically scaled detection")
    _add_common(p)
    p.set_defaults(func=cmd_detect_xl)

    p = sub.add_parser("eval", help="score a report against its gold labels")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run every feature mode and compare")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("experiment", help="F1 as a function of data proportion")
    _add_common(p, need_seed=True)
    p.add_argument(
        "--proportions",
        default="0.2,0.4,0.6,0.8,1.0",
        help="comma-separated data fractions",
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("synth", help="generate a gold-labeled synthetic wordlist")
    _add_common(p, need_seed=True)
    p.add_argument("--native-grammar", required=True, help="JSON grammar file")
    p.add_argument("--donor-grammar", required=True, help="JSON grammar file")
    p.add_argument("--n-native", type=int, default=40)
    p.add_argument("--n-loans", type=int, default=10)
    p.add_argument(
        "--integration",
        type=float,
        default=0.0,
        help="per-segment probability of nativizing foreign segments",
    )
    p.add_argument(
        "--multilingual",
        action="store_true",
        help="emit a two-language concept-aligned wordlist",
    )
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are input errors here
        return 0 if exc.code in (0, None) else EXIT_INPUT
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (
        WordlistError,
        ConfigError,
        NoGoldLabelsError,
        evaluation.InvalidGrammarError,
        crossling.MissingConceptError,
        crossling.EmptyDatasetError,
        FileNotFoundError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
