"""Metrics, experiment harnesses, and the synthetic contact-corpus generator.

The generator samples words from consonant/vowel template grammars with
optional bigram transition weighting, labels donor-grammar words as loans,
and can pass loans through an integration mutator that replaces segments
foreign to the recipient inventory with their phonologically nearest
native segment. Grammars are plain dataclasses, loadable from JSON so
fixtures stay versionable.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

from .config import ConfigError, RunConfig
from .features import MODES
from .ipa import SymbolInventory, default_inventory, symbol_distance
from .refiner import detect_wordlist
from .wordlist import LexicalEntry, Wordlist, make_wordlist

log = logging.getLogger(__name__)


class NoGoldLabelsError(ValueError):
    pass


class InvalidGrammarError(ValueError):
    pass


@dataclass(frozen=True)
class EvalReport:
    """Confusion counts and derived metrics, with per-language breakdown."""

    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_language: Mapping[str, "EvalReport"] = field(default_factory=dict)
    degenerate: bool = False  # a zero denominator forced a metric to 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _metrics(tp: int, fp: int, tn: int, fn: int) -> EvalReport:
    degenerate = False
    if tp + fp == 0:
        precision, degenerate = 0.0, True
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall, degenerate = 0.0, True
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        f1, degenerate = 0.0, True
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return EvalReport(
        tp=tp, fp=fp, tn=tn, fn=fn,
        precision=precision, recall=recall, f1=f1,
        degenerate=degenerate,
    )


def evaluate(
    predictions: Sequence[int],
    gold: Sequence[int | None],
    languages: Sequence[str] | None = None,
) -> EvalReport:
    """Count-based precision/recall/F1 against gold labels.

    Entries with no gold label are skipped; it is an error for every label
    to be missing. Zero-denominator metrics come back as 0 with the
    ``degenerate`` flag set rather than raising, so sweeps stay runnable.
    """
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold labels are not aligned")
    pairs = [
        (p, g, languages[i] if languages else "all")
        for i, (p, g) in enumerate(zip(predictions, gold))
        if g is not None
    ]
    if not pairs:
        raise NoGoldLabelsError("no gold labels present")

    def count(rows: list[tuple[int, int, str]]) -> tuple[int, int, int, int]:
        tp = sum(1 for p, g, _ in rows if p == 1 and g == 1)
        fp = sum(1 for p, g, _ in rows if p == 1 and g == 0)
        tn = sum(1 for p, g, _ in rows if p == 0 and g == 0)
        fn = sum(1 for p, g, _ in rows if p == 0 and g == 1)
        return tp, fp, tn, fn

    overall = _metrics(*count(pairs))
    if languages is None:
        return overall
    per_language = {}
    for lang in sorted({lang for _, _, lang in pairs}):
        per_language[lang] = _metrics(*count([r for r in pairs if r[2] == lang]))
    return replace(overall, per_language=per_language)


def evaluate_wordlist(
    vocab: Wordlist, predictions: Sequence[int]
) -> EvalReport:
    return evaluate(
        predictions,
        [e.gold_label for e in vocab],
        [e.language for e in vocab],
    )


# --- Ablations ------------------------------------------------------------------


def run_ablations(
    vocab: Wordlist,
    cfg: RunConfig | None = None,
    inventory: SymbolInventory | None = None,
) -> dict[str, EvalReport]:
    """Detect under every mode and evaluate each against the gold labels."""
    cfg = cfg or RunConfig()
    if not any(e.gold_label is not None for e in vocab):
        raise NoGoldLabelsError("ablation comparison needs gold labels")
    reports: dict[str, EvalReport] = {}
    for mode in MODES:
        mode_cfg = cfg.with_overrides({"mode": mode})
        _, labels, _ = detect_wordlist(vocab, mode_cfg, inventory=inventory)
        reports[mode] = evaluate_wordlist(vocab, labels)
        log.info("mode %-13s P=%.3f R=%.3f F1=%.3f", mode,
                 reports[mode].precision, reports[mode].recall, reports[mode].f1)
    return reports


# --- Data-proportion experiment ---------------------------------------------------


def stratified_sample(
    vocab: Wordlist, proportion: float, rng: random.Random
) -> Wordlist:
    """Subsample preserving per-(language, label) proportions."""
    if not 0 < proportion <= 1:
        raise ConfigError("proportion must be in (0, 1]")
    if proportion == 1.0:
        return vocab
    groups: dict[tuple[str, int | None], list[int]] = {}
    for i, e in enumerate(vocab):
        groups.setdefault((e.language, e.gold_label), []).append(i)
    chosen: list[int] = []
    for key in sorted(groups, key=str):
        indices = list(groups[key])
        rng.shuffle(indices)
        k = max(1, round(proportion * len(indices)))
        chosen.extend(indices[:k])
    chosen.sort()
    return make_wordlist([vocab.entries[i] for i in chosen])


def run_proportion_experiment(
    vocab: Wordlist,
    cfg: RunConfig | None = None,
    proportions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int = 0,
    inventory: SymbolInventory | None = None,
) -> list[tuple[float, EvalReport]]:
    """Detection quality as a function of the available data fraction."""
    cfg = cfg or RunConfig()
    if not any(e.gold_label is not None for e in vocab):
        raise NoGoldLabelsError("the proportion experiment needs gold labels")
    rows: list[tuple[float, EvalReport]] = []
    for proportion in proportions:
        rng = random.Random((seed, proportion).__repr__())
        sample = stratified_sample(vocab, proportion, rng)
        _, labels, _ = detect_wordlist(sample, cfg, inventory=inventory)
        report = evaluate_wordlist(sample, labels)
        rows.append((proportion, report))
        log.info("proportion %.2f: n=%d F1=%.3f", proportion, len(sample), report.f1)
    return rows


# --- Synthetic corpora ---------------------------------------------------------


@dataclass(frozen=True)
class Grammar:
    """A toy CV-template word grammar with optional transition weighting."""

    language: str
    consonants: tuple[str, ...]
    vowels: tuple[str, ...]
    templates: tuple[str, ...] = ("CV", "CVC")
    template_weights: tuple[float, ...] | None = None
    min_syllables: int = 1
    max_syllables: int = 3
    transitions: Mapping[str, Mapping[str, float]] | None = None
    pos_choices: tuple[str, ...] = ("noun",)
    pos_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.consonants or not self.vowels:
            raise InvalidGrammarError("grammar needs consonants and vowels")
        for t in self.templates:
            if not t or set(t) - {"C", "V"}:
                raise InvalidGrammarError(f"bad template {t!r}")
        if self.template_weights is not None and len(self.template_weights) != len(
            self.templates
        ):
            raise InvalidGrammarError("template weights do not match templates")
        if not 1 <= self.min_syllables <= self.max_syllables:
            raise InvalidGrammarError("bad syllable count range")

    def inventory_symbols(self) -> frozenset[str]:
        return frozenset(self.consonants) | frozenset(self.vowels)


def load_grammar(path: str | Path) -> Grammar:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise InvalidGrammarError(f"grammar file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidGrammarError(f"grammar file {path} must hold a JSON object")
    try:
        return Grammar(
            language=data["language"],
            consonants=tuple(data["consonants"]),
            vowels=tuple(data["vowels"]),
            templates=tuple(data.get("templates", ("CV", "CVC"))),
            template_weights=(
                tuple(data["template_weights"]) if "template_weights" in data else None
            ),
            min_syllables=int(data.get("min_syllables", 1)),
            max_syllables=int(data.get("max_syllables", 3)),
            transitions=data.get("transitions"),
            pos_choices=tuple(data.get("pos_choices", ("noun",))),
            pos_weights=(
                tuple(data["pos_weights"]) if "pos_weights" in data else None
            ),
        )
    except KeyError as exc:
        raise InvalidGrammarError(f"grammar file missing key {exc}") from None
    except ValueError as exc:
        raise InvalidGrammarError(f"grammar file {path}: {exc}") from None


def _sample_word(grammar: Grammar, rng: random.Random) -> tuple[str, ...]:
    n_syll = rng.randint(grammar.min_syllables, grammar.max_syllables)
    symbols: list[str] = []
    for _ in range(n_syll):
        template = rng.choices(
            grammar.templates, weights=grammar.template_weights
        )[0]
        for slot in template:
            pool = grammar.consonants if slot == "C" else grammar.vowels
            prev = symbols[-1] if symbols else None
            weights = None
            if grammar.transitions and prev in grammar.transitions:
                row = grammar.transitions[prev]
                weights = [row.get(s, 1.0) for s in pool]
            symbols.append(rng.choices(list(pool), weights=weights)[0])
    return tuple(symbols)


def _nearest_native(
    symbol: str, native: Sequence[str], inventory: SymbolInventory
) -> str:
    # deterministic: minimal feature distance, ties broken lexicographically
    return min(sorted(native), key=lambda s: symbol_distance(symbol, s, inventory))


def integrate_word(
    word: tuple[str, ...],
    native_symbols: frozenset[str],
    probability: float,
    rng: random.Random,
    inventory: SymbolInventory | None = None,
) -> tuple[str, ...]:
    """Adapt a borrowed form: foreign segments become their nearest native
    segment with the given probability."""
    inv = inventory or default_inventory()
    pool = sorted(native_symbols)
    out: list[str] = []
    for s in word:
        if s not in native_symbols and rng.random() < probability:
            out.append(_nearest_native(s, pool, inv))
        else:
            out.append(s)
    return tuple(out)


def _sample_unique(
    grammar: Grammar,
    count: int,
    rng: random.Random,
    taken: set[tuple[str, ...]],
    mutate=None,
) -> list[tuple[str, ...]]:
    words: list[tuple[str, ...]] = []
    attempts = 0
    while len(words) < count:
        attempts += 1
        if attempts > 200 * count:
            raise InvalidGrammarError(
                f"grammar {grammar.language!r} cannot produce {count} distinct words"
            )
        w = _sample_word(grammar, rng)
        if mutate is not None:
            w = mutate(w)
        if w in taken:
            continue
        taken.add(w)
        words.append(w)
    return words


def _pos_for(grammar: Grammar, rng: random.Random) -> str:
    return rng.choices(list(grammar.pos_choices), weights=grammar.pos_weights)[0]


def generate_synthetic(
    native_grammar: Grammar,
    donor_grammar: Grammar,
    n_native: int,
    n_loans: int,
    seed: int,
    integration: float = 0.0,
    inventory: SymbolInventory | None = None,
) -> Wordlist:
    """Gold-labeled monolingual wordlist: sampled natives plus donor loans.

    Loans are sampled from the donor grammar and passed through the
    integration mutator with the given per-segment probability. The output
    is deterministic in (grammars, seed).
    """
    if n_native < 1 or n_loans < 1:
        raise InvalidGrammarError("need at least one native and one loan")
    rng = random.Random(seed)
    taken: set[tuple[str, ...]] = set()
    natives = _sample_unique(native_grammar, n_native, rng, taken)
    native_symbols = native_grammar.inventory_symbols()
    loans = _sample_unique(
        donor_grammar,
        n_loans,
        rng,
        taken,
        mutate=lambda w: integrate_word(w, native_symbols, integration, rng, inventory),
    )
    entries = [
        LexicalEntry(
            orthography="".join(w),
            ipa=w,
            language=native_grammar.language,
            pos=_pos_for(native_grammar, rng),
            gold_label=0,
        )
        for w in natives
    ] + [
        LexicalEntry(
            orthography="".join(w),
            ipa=w,
            language=native_grammar.language,
            pos=_pos_for(donor_grammar, rng),
            gold_label=1,
        )
        for w in loans
    ]
    return make_wordlist(entries)


def generate_synthetic_multilingual(
    recipient_grammar: Grammar,
    donor_grammar: Grammar,
    n_native: int,
    n_loans: int,
    seed: int,
    integration: float = 0.0,
    inventory: SymbolInventory | None = None,
) -> Wordlist:
    """Two-language concept-aligned wordlist with recipient-side loans.

    Every concept has one word per language. For loan concepts the
    recipient word is the donor word itself (optionally integrated), so
    the pair stays cross-linguistically similar; for native concepts the
    two languages' words are sampled independently. Only recipient-side
    copies of donor words are labeled as loans.
    """
    if n_native < 1 or n_loans < 1:
        raise InvalidGrammarError("need at least one native and one loan concept")
    if recipient_grammar.language == donor_grammar.language:
        raise InvalidGrammarError("grammars must name distinct languages")
    rng = random.Random(seed)
    taken_a: set[tuple[str, ...]] = set()
    taken_b: set[tuple[str, ...]] = set()
    native_symbols = recipient_grammar.inventory_symbols()

    entries: list[LexicalEntry] = []
    concept = 0

    def add(word, language, grammar, label):
        entries.append(
            LexicalEntry(
                orthography="".join(word),
                ipa=word,
                language=language,
                pos=_pos_for(grammar, rng),
                gold_label=label,
                concept_id=f"c{concept:04d}",
            )
        )

    for _ in range(n_native):
        a = _sample_unique(recipient_grammar, 1, rng, taken_a)[0]
        b = _sample_unique(donor_grammar, 1, rng, taken_b)[0]
        add(a, recipient_grammar.language, recipient_grammar, 0)
        add(b, donor_grammar.language, donor_grammar, 0)
        concept += 1
    for _ in range(n_loans):
        b = _sample_unique(donor_grammar, 1, rng, taken_b)[0]
        borrowed = integrate_word(b, native_symbols, integration, rng, inventory)
        if borrowed in taken_a:
            borrowed = b  # collision after integration: keep the donor form
        taken_a.add(borrowed)
        add(borrowed, recipient_grammar.language, donor_grammar, 1)
        add(b, donor_grammar.language, donor_grammar, 0)
        concept += 1
    return make_wordlist(entries)


# --- Plot-ready tables ----------------------------------------------------------


def format_report_block(title: str, report: EvalReport) -> str:
    """Human-readable metrics block mirroring the benchmark table layout."""
    lines = [
        title,
        "\tPRECISION\tRECALL\tF1\tTP\tFP\tTN\tFN",
        "\t{:.2f}\t{:.2f}\t{:.2f}\t{}\t{}\t{}\t{}".format(
            report.precision, report.recall, report.f1,
            report.tp, report.fp, report.tn, report.fn,
        ),
    ]
    for lang, sub in report.per_language.items():
        lines.append(
            "{}\t{:.2f}\t{:.2f}\t{:.2f}\t{}\t{}\t{}\t{}".format(
                lang, sub.precision, sub.recall, sub.f1,
                sub.tp, sub.fp, sub.tn, sub.fn,
            )
        )
    return "\n".join(lines)


def write_mode_table(reports: Mapping[str, EvalReport], path: str | Path) -> None:
    lines = ["\t".join(["mode", "precision", "recall", "f1", "tp", "fp", "tn", "fn"])]
    for mode, r in reports.items():
        lines.append(
            f"{mode}\t{r.precision:.6f}\t{r.recall:.6f}\t{r.f1:.6f}"
            f"\t{r.tp}\t{r.fp}\t{r.tn}\t{r.fn}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_proportion_table(
    rows: Sequence[tuple[float, EvalReport]], path: str | Path
) -> None:
    lines = ["\t".join(["proportion", "precision", "recall", "f1"])]
    for proportion, r in rows:
        lines.append(
            f"{proportion:.4f}\t{r.precision:.6f}\t{r.recall:.6f}\t{r.f1:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
