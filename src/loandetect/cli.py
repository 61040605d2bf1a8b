"""Command-line interface.

Subcommands: detect, detect-xl, eval, ablate, experiment, synth. Each
accepts only the flags it reads (wordlist input, configuration, ``--seed``
on ``experiment`` and ``synth``, ``--trace`` on ``detect``); any other flag
is a usage error. Configuration resolves defaults -> --config file -> CLI
flags; ``--mode`` and ``--model`` (``detect`` only) set the ``RunConfig``
keys of the same name and ``--set`` any key, each key once. The fully
resolved configuration is echoed into every report header, and
``--print-config`` dumps the same keys in config-file format and exits;
``main`` resolves the configuration once and hands it to the subcommand
(``eval`` and ``synth`` read none of it). Before it reads its
input, each subcommand refuses a path it would write that names no file
(as ``""`` and ``.`` do), that is a directory, that it also reads (the
input, the config file, the grammars) or that it writes twice (the
output and ``detect``'s per-language traces, which are checked once the
input names its languages, before detection). Detection writes and
logs nothing: ``detect`` writes each language's trace from the states
detection returns, then the report, and ``_log_detection`` logs what
detection noticed (``detect`` from the states, ``detect-xl`` from
``ScaledResult.passes``) under this module's logger: one INFO line per
pass and language, the all-loans fallback as a WARNING before its pass,
and the concepts ``detect-xl`` could not scale. Each command writes its
files before it prints. Only ``eval``, ``ablate``, ``experiment`` and
``synth`` import ``evaluation``, and only ``detect`` with the ``uns``
model imports ``baseline``: ``detect`` with the default model and
``detect-xl`` load neither. Exit codes: 0 success,
1 input/validation error (an unreadable or unwritable path the user
named, a path clash and a standard output closed early included),
2 internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Collection, Mapping

from . import crossling
from .config import MODELS, ConfigError, RunConfig, read_config_file
from .features import MODES
from .refiner import PassRecord, detect_wordlist
from .wordlist import (
    Wordlist,
    WordlistError,
    language_rows,
    load_wordlist,
    read_report,
    write_report,
    write_scaled_report,
    write_table,
    write_trace,
    write_wordlist,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


def _add_wordlist_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input wordlist (TSV; CSV with --csv)")
    parser.add_argument("--csv", action="store_true", help="input is comma-separated")
    parser.add_argument(
        "--lenient-pos",
        action="store_true",
        help="map unknown POS values to 'function' instead of failing",
    )


def _add_config(parser: argparse.ArgumentParser, *, mode: bool = True) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    if mode:
        parser.add_argument("--mode", choices=MODES, help="feature mode override")
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


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    given: list[tuple[str, object]] = []
    for item in getattr(args, "set", []):
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        given.append((key.strip(), value.strip()))
    given += [(key, getattr(args, key)) for key in ("mode", "model")
              if getattr(args, key, None) is not None]
    overrides: dict[str, object] = {}
    for key, value in given:
        if key in overrides:
            raise ConfigError(f"config key {key!r} is given twice on the command line")
        overrides[key] = value
    # config.load_config's layering, logging each layer
    cfg = RunConfig()
    path = getattr(args, "config", None)
    if path is not None:
        file_values = read_config_file(path)
        log.info("config file %s supplies %d keys", Path(path), len(file_values))
        cfg = cfg.with_overrides(file_values)
    if overrides:
        log.info("explicit overrides: %s", sorted(overrides))
        cfg = cfg.with_overrides(overrides)
    return cfg


def _log_detection(
    passes: Mapping[str, PassRecord], scaled: crossling.ScaledResult | None = None
) -> None:
    """Log what detection noticed. Per language, in ``passes``' order: before
    each pass the warnings it raised, then its loan-set size and whether the
    loop had converged, each line tagged with the language. Then, for
    ``scaled``, the concepts that fell back to the basic model."""
    for lang, record in passes.items():
        warnings = dict(record.warnings)
        last = len(record.loan_counts) - 1
        for t, size in enumerate(record.loan_counts):
            if t in warnings:
                log.warning("[%s] %s", lang, warnings[t])
            log.info("[%s] iteration %d: |B|=%d, converged=%s",
                     lang, t, size, record.converged and t == last)
    if scaled is None:
        return
    if all(c is None for c in scaled.comparability):
        log.warning("no concept spans two languages; scaled output equals basic output")
    elif scaled.fallback_concepts:
        log.info("%d concept(s) lack cross-linguistic counterparts; "
                 "falling back to basic classification", len(scaled.fallback_concepts))


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


def _same_file(a: Path, b: Path) -> bool:
    if a.resolve() == b.resolve():
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist (yet)
        return False


def _check_paths(args: argparse.Namespace, writes: list[Path]) -> None:
    """Raise ``WordlistError`` when a path in ``writes`` names no file, is
    a directory, is a file the command reads or is another path in
    ``writes``."""
    reads = [
        Path(path)
        for path in (getattr(args, name, None) for name in _READ_FLAGS)
        if path
    ]
    for i, path in enumerate(writes):
        if not path.name:
            raise WordlistError(f"{str(path)!r} names no file")
        if path.is_dir():
            raise WordlistError(f"{path} is a directory")
        if any(_same_file(path, read) for read in reads):
            raise WordlistError(f"{path} is both read and written")
        if any(_same_file(path, other) for other in writes[:i]):
            raise WordlistError(f"{path} would be written twice")


def trace_paths(languages: Collection[str], trace: str | None) -> dict[str, Path]:
    """Where ``detect --trace`` writes each language's trace: nowhere
    without ``trace``, ``trace`` itself for one language and, with
    several, ``<stem>.<language><suffix>`` beside it for each. A language
    name that cannot be part of a file name raises ``WordlistError``."""
    if trace is None:
        return {}
    base = Path(trace)
    if len(languages) == 1:
        return dict.fromkeys(languages, base)
    for lang in languages:
        if any(sep and sep in lang for sep in ("/", os.sep, os.altsep, "\0")):
            raise WordlistError(f"language {lang!r} cannot be part of a trace file name")
    return {lang: base.with_name(f"{base.stem}.{lang}{base.suffix}") for lang in languages}


def cmd_detect(args: argparse.Namespace, cfg: RunConfig) -> int:
    output = _require_output(args)
    _check_paths(args, [output] + ([Path(args.trace)] if args.trace is not None else []))
    vocab = _load_input(args)
    rows = language_rows(vocab)
    traces = trace_paths(rows, args.trace)
    _check_paths(args, [output, *traces.values()])
    if cfg.model == "uns":
        if args.trace:
            raise ConfigError("--trace needs the autbor model: the uns model has no passes")
        from . import baseline

        probs, labels = baseline.detect_wordlist(vocab, cfg)
    else:
        probs, labels, states = detect_wordlist(vocab, cfg)
        _log_detection({lang: state.record() for lang, state in states.items()})
        for lang, path in traces.items():
            write_trace([vocab.entries[i] for i in rows[lang]], states[lang], path)
    write_report(vocab, probs, labels, output, header_meta=cfg.to_flat())
    log.info("wrote %s (%d words)", output, len(vocab))
    return EXIT_OK


def cmd_detect_xl(args: argparse.Namespace, cfg: RunConfig) -> int:
    output = _require_output(args)
    _check_paths(args, [output])
    vocab = _load_input(args)
    result = crossling.detect_scaled(vocab, cfg)
    _log_detection(result.passes, result)
    write_scaled_report(
        vocab,
        result.basic,
        result.comparability,
        result.composite,
        result.thresholds,
        result.predicted,
        output,
        header_meta=cfg.to_flat(),
    )
    print(result.asymmetry_summary())
    log.info("wrote %s (%d words)", output, len(vocab))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .evaluation import evaluate, format_report_block, write_metrics_table

    if not args.input:
        raise WordlistError("--input is required")
    _check_paths(args, [Path(args.output)] if args.output is not None else [])
    rows = read_report(args.input)
    if not rows:
        raise WordlistError("report is empty")
    report = evaluate(
        [r.predicted_label for r in rows],
        [r.gold_label for r in rows],
        [r.language for r in rows],
    )
    if args.output:
        write_metrics_table(
            "scope", [("overall", report), *report.per_language.items()], args.output
        )
    print(format_report_block("OVERALL", report))
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .evaluation import format_report_block, run_ablations, write_metrics_table

    output = _require_output(args)
    _check_paths(args, [output])
    vocab = _load_input(args)
    reports = run_ablations(vocab, cfg)
    write_metrics_table("mode", reports.items(), output)
    for mode, report in reports.items():
        print(format_report_block(mode.upper(), report))
        print()
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .evaluation import run_proportion_experiment

    output = _require_output(args)
    _check_paths(args, [output])
    vocab = _load_input(args)
    try:
        proportions = [float(p) for p in args.proportions.split(",")]
    except ValueError:
        raise ConfigError(f"--proportions expects numbers, got {args.proportions!r}") from None
    rows = run_proportion_experiment(vocab, cfg, proportions, seed=args.seed)
    header = ["proportion", "precision", "recall", "f1"]
    write_table(output, header, [(f"{p:.4f}", r.precision, r.recall, r.f1) for p, r in rows])
    for proportion, report in rows:
        print(f"proportion {proportion:.2f}: "
              f"P={report.precision:.3f} R={report.recall:.3f} F1={report.f1:.3f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    from .evaluation import generate_synthetic, generate_synthetic_multilingual, load_grammar

    output = _require_output(args)
    _check_paths(args, [output])
    native = load_grammar(args.native_grammar)
    donor = load_grammar(args.donor_grammar)
    generate = generate_synthetic_multilingual if args.multilingual else generate_synthetic
    vocab = generate(native, donor, args.n_native, args.n_loans, args.seed, args.integration)
    write_wordlist(vocab, output)
    log.info("wrote %s (%d entries)", output, len(vocab))
    return EXIT_OK


def _command(sub, name: str, func, summary: str) -> argparse.ArgumentParser:
    """A subcommand with its ``--output`` flag; every other flag is added per command."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--output", help="output file path")
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loandetect",
        description="Unsupervised loanword detection over IPA wordlists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "detect", cmd_detect, "basic monolingual detection")
    _add_wordlist_input(p)
    _add_config(p)
    p.add_argument("--model", choices=MODELS, help="detection model override")
    p.add_argument("--trace", help="write per-iteration trace TSV here")

    p = _command(sub, "detect-xl", cmd_detect_xl, "cross-linguistically scaled detection")
    _add_wordlist_input(p)
    _add_config(p)

    p = _command(sub, "eval", cmd_eval, "score a report against its gold labels")
    p.add_argument("--input", help="report TSV written by detect or detect-xl")

    p = _command(sub, "ablate", cmd_ablate, "run every feature mode and compare")
    _add_wordlist_input(p)
    _add_config(p, mode=False)

    p = _command(sub, "experiment", cmd_experiment, "F1 as a function of data proportion")
    _add_wordlist_input(p)
    _add_config(p)
    p.add_argument("--seed", type=int, required=True, help="random seed of the subsamples")
    p.add_argument(
        "--proportions",
        default="0.2,0.4,0.6,0.8,1.0",
        help="comma-separated data fractions",
    )

    p = _command(sub, "synth", cmd_synth, "generate a gold-labeled synthetic wordlist")
    p.add_argument("--seed", type=int, required=True, help="random seed of the generator")
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
    return parser


# the flags naming files a command reads, and those naming files it writes
_READ_FLAGS = ("input", "config", "native_grammar", "donor_grammar")
_WRITE_FLAGS = ("output", "trace")

# commands whose detection is refiner.detect_wordlist, whatever the model key says
_AUTBOR_ONLY = ("detect-xl", "ablate", "experiment")

_INPUT_ERRORS = (
    WordlistError,
    ConfigError,
    crossling.MissingConceptError,
    crossling.EmptyDatasetError,
    FileNotFoundError,
    BrokenPipeError,  # the reader of stdout stopped reading
)


def _on_user_path(exc: OSError, args: argparse.Namespace) -> bool:
    """Whether ``exc`` failed on a path the user named, or on one beside it
    (the per-language traces of ``--trace``)."""
    named = [getattr(args, name, None) for name in (*_READ_FLAGS, *_WRITE_FLAGS)]
    places = {Path(p).absolute().parent for p in named if p}
    failed = [f for f in (exc.filename, exc.filename2) if isinstance(f, (str, bytes))]
    return any(Path(os.fsdecode(f)).absolute().parent in places for f in failed)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are input errors here
        return 0 if exc.code in (0, None) else EXIT_INPUT
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _resolve_config(args)
        if getattr(args, "print_config", False):
            sys.stdout.write(cfg.dump())
            return EXIT_OK
        if cfg.model != "autbor" and args.command in _AUTBOR_ONLY:
            raise ConfigError(f"{args.command} runs the autbor model only, not {cfg.model!r}")
        return args.func(args, cfg)
    except Exception as exc:
        if isinstance(exc, _INPUT_ERRORS) or (
            isinstance(exc, OSError) and _on_user_path(exc, args)
        ):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
