"""Metrics, experiment harnesses, and the synthetic contact-corpus generator.

The generator samples words from consonant/vowel template grammars with
optional bigram transition weighting, labels donor-grammar words as loans,
and can pass loans through an integration mutator that replaces segments
foreign to the recipient inventory with their phonologically nearest
native segment. Grammars are plain dataclasses, loadable from JSON so
fixtures stay versionable. Every generated row must load back as itself:
a word whose written IPA ``wordlist.read_back`` reads as other tokens (a
symbol that splits, merges with its neighbour, vanishes or is not NFC) is
an ``InvalidGrammarError`` naming the grammar, the word and that reading.
"""

from __future__ import annotations

import json
import logging
import math
import random
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .config import ConfigError, RunConfig
from .features import MODES
from .ipa import symbol_distance
from .refiner import detect_wordlist
from .wordlist import (
    LexicalEntry, Wordlist, WordlistError, read_back, show_tokens, write_table,
)

log = logging.getLogger(__name__)


class NoGoldLabelsError(WordlistError):
    """The wordlist or report holds no gold label to score against."""


class InvalidGrammarError(ConfigError):
    """A synthetic-corpus grammar, or a request made of one, cannot be used."""


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


# confusion cell of each (predicted, gold) pair: tp, fp, tn, fn
_CELLS = {(1, 1): 0, (1, 0): 1, (0, 0): 2, (0, 1): 3}


def evaluate(
    predictions: Sequence[int],
    gold: Sequence[int | None],
    languages: Sequence[str] | None = None,
) -> EvalReport:
    """Count-based precision/recall/F1 against gold labels.

    Entries with no gold label are skipped; every label missing is an
    error, and so is a label other than 0/1 (a ``ValueError``).
    Zero-denominator metrics come back as 0 with the ``degenerate`` flag
    set rather than raising, so sweeps stay runnable.
    """
    if len(predictions) != len(gold):
        raise ValueError("predictions and gold labels are not aligned")
    bad = {*predictions} - {0, 1} | {*gold} - {None, 0, 1}
    if bad:
        raise ValueError(f"labels must be 0/1, got {sorted(bad, key=repr)}")
    counts = Counter(
        (languages[i] if languages else "all", p, g)
        for i, (p, g) in enumerate(zip(predictions, gold))
        if g is not None
    )
    if not counts:
        raise NoGoldLabelsError("no gold labels present")
    # (tp, fp, tn, fn) per language
    tallies: dict[str, list[int]] = {}
    for (lang, p, g), n in counts.items():
        tallies.setdefault(lang, [0, 0, 0, 0])[_CELLS[p, g]] += n
    overall = _metrics(*map(sum, zip(*tallies.values())))
    if languages is None:
        return overall
    per_language = {lang: _metrics(*tallies[lang]) for lang in sorted(tallies)}
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
    vocab: Wordlist, cfg: RunConfig | None = None
) -> dict[str, EvalReport]:
    """Detect under every mode and evaluate each against the gold labels."""
    cfg = cfg or RunConfig()
    if not any(e.gold_label is not None for e in vocab):
        raise NoGoldLabelsError("ablation comparison needs gold labels")
    reports: dict[str, EvalReport] = {}
    for mode in MODES:
        mode_cfg = cfg.with_overrides({"mode": mode})
        _, labels, _ = detect_wordlist(vocab, mode_cfg)
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
    return Wordlist([vocab.entries[i] for i in chosen])


def run_proportion_experiment(
    vocab: Wordlist,
    cfg: RunConfig | None = None,
    proportions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seed: int = 0,
) -> list[tuple[float, EvalReport]]:
    """Detection quality as a function of the available data fraction."""
    cfg = cfg or RunConfig()
    if not any(e.gold_label is not None for e in vocab):
        raise NoGoldLabelsError("the proportion experiment needs gold labels")
    rows: list[tuple[float, EvalReport]] = []
    for proportion in proportions:
        rng = random.Random((seed, proportion).__repr__())
        sample = stratified_sample(vocab, proportion, rng)
        _, labels, _ = detect_wordlist(sample, cfg)
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
        """Refuse a grammar that ``synth`` could not sample words from."""
        for name in ("min_syllables", "max_syllables"):
            if type(getattr(self, name)) is not int:  # a bool or a float draws no count
                raise InvalidGrammarError(f"{name} must be an integer")
        if not (self.consonants and self.vowels and self.templates and self.pos_choices):
            raise InvalidGrammarError("grammar needs consonants, vowels, templates and pos")
        names = (self.language, *self.consonants, *self.vowels, *self.pos_choices)
        if not all(isinstance(s, str) for s in names):
            raise InvalidGrammarError("language, symbols and pos choices must be strings")
        for t in self.templates:
            if not t or set(t) - {"C", "V"}:
                raise InvalidGrammarError(f"bad template {t!r}")
        for name, weights, choices in (
            ("template", self.template_weights, self.templates),
            ("pos", self.pos_weights, self.pos_choices),
        ):
            if weights is None:
                continue
            if len(weights) != len(choices):
                raise InvalidGrammarError(f"{name} weights do not match {name} choices")
            _drawable(f"{name} weights", weights)
        if not 1 <= self.min_syllables <= self.max_syllables:
            raise InvalidGrammarError("bad syllable count range")
        rows = self.transitions or {}
        if not isinstance(rows, Mapping) or not all(isinstance(r, Mapping) for r in rows.values()):
            raise InvalidGrammarError("transitions must map symbols to rows of weights")
        # a row is drawn over each pool whose slot can follow its symbol's, in
        # a template or from a template's last slot to the next one's first
        pools = {"C": self.consonants, "V": self.vowels}
        live = [t for t, w in zip(self.templates, self.template_weights or repeat(1)) if w]
        follows = {pair for t in live for pair in zip(t, t[1:])}
        follows |= {(t[-1], u[0]) for t in live for u in live if self.max_syllables > 1}
        for prev, row in rows.items():
            _drawable(f"transition row {prev!r}", row.values(), positive=False)
            for a, b in sorted(follows):
                if prev in pools[a]:
                    # a symbol the row does not name weighs 1
                    weights = [row.get(s, 1.0) for s in pools[b]]
                    _drawable(f"transition row {prev!r} over the {b} pool", weights)

    def inventory_symbols(self) -> frozenset[str]:
        return frozenset(self.consonants) | frozenset(self.vowels)


# the fields a grammar file gives as JSON lists
_LIST_KEYS = {
    "consonants", "vowels", "templates", "template_weights", "pos_choices", "pos_weights"
}


def _drawable(name: str, weights: Iterable[object], positive: bool = True) -> None:
    """Refuse a weight that is not a finite number >= 0 and, if ``positive``,
    weights whose sum is not a finite number above 0."""
    weights = list(weights)
    for w in weights:
        if type(w) not in (int, float) or not 0 <= w < math.inf:
            raise InvalidGrammarError(f"{name}: weight {w!r} is not a finite number >= 0")
    if positive and not 0 < sum(weights) < math.inf:
        raise InvalidGrammarError(f"{name} must sum to a finite number above 0")


def load_grammar(path: str | Path) -> Grammar:
    """A ``Grammar`` from a JSON object of its fields; absent fields keep their
    defaults, and an unknown key is an ``InvalidGrammarError``."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise InvalidGrammarError(f"grammar file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidGrammarError(f"grammar file {path} must hold a JSON object")
    unknown = sorted(set(data) - {f.name for f in fields(Grammar)})
    if unknown:
        raise InvalidGrammarError(f"grammar file {path} has unknown key(s) {unknown}")
    for key, value in data.items():
        if key in _LIST_KEYS and not isinstance(value, (list, type(None))):
            raise InvalidGrammarError(f"grammar file {path}: {key} must be a list")
    try:
        return Grammar(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in data.items()
        })
    except (TypeError, ValueError) as exc:  # a missing field or a value of the wrong kind
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
            symbols.append(rng.choices(pool, weights=weights)[0])
    return tuple(symbols)


def integrate_word(
    word: tuple[str, ...],
    native_symbols: frozenset[str],
    probability: float,
    rng: random.Random,
) -> tuple[str, ...]:
    """Adapt a borrowed form: foreign segments become their nearest native
    segment with the given probability (minimal feature distance, ties
    broken lexicographically)."""
    pool = sorted(native_symbols)
    return tuple(
        min(pool, key=lambda t: symbol_distance(s, t))
        if s not in native_symbols and rng.random() < probability else s
        for s in word
    )


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
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def _check_request(n_native: int, n_loans: int, integration: float) -> None:
    if n_native < 1 or n_loans < 1:
        raise InvalidGrammarError("need at least one native and one loan")
    if not 0.0 <= integration <= 1.0:  # NaN fails both comparisons
        raise InvalidGrammarError(f"integration must be in [0, 1], got {integration!r}")


def _entry(word, language, grammar, label, rng, concept=None) -> LexicalEntry:
    """The row of a word sampled from ``grammar``, with a POS drawn from it;
    the row must load back as itself (see the module docstring)."""
    text = "".join(word)
    pos = rng.choices(grammar.pos_choices, weights=grammar.pos_weights)[0]
    entry = LexicalEntry(text, word, language, pos, label, concept)
    read = read_back(word)
    if read != word:
        show = show_tokens(text)
        raise InvalidGrammarError(
            f"grammar {grammar.language!r} writes the word {show(text)} of symbols {show(word)}, "
            f"which loads back as {show(read)}"
        )
    return entry


def generate_synthetic(
    native_grammar: Grammar,
    donor_grammar: Grammar,
    n_native: int,
    n_loans: int,
    seed: int,
    integration: float = 0.0,
) -> Wordlist:
    """Gold-labeled monolingual wordlist: sampled natives plus donor loans.

    Loans are sampled from the donor grammar and passed through the
    integration mutator with the given per-segment probability. The output
    is deterministic in (grammars, seed).
    """
    _check_request(n_native, n_loans, integration)
    rng = random.Random(seed)
    taken: set[tuple[str, ...]] = set()
    natives = _sample_unique(native_grammar, n_native, rng, taken)
    native_symbols = native_grammar.inventory_symbols()
    loans = _sample_unique(
        donor_grammar,
        n_loans,
        rng,
        taken,
        mutate=lambda w: integrate_word(w, native_symbols, integration, rng),
    )
    language = native_grammar.language
    return Wordlist(
        [_entry(w, language, native_grammar, 0, rng) for w in natives]
        + [_entry(w, language, donor_grammar, 1, rng) for w in loans]
    )


def generate_synthetic_multilingual(
    recipient_grammar: Grammar,
    donor_grammar: Grammar,
    n_native: int,
    n_loans: int,
    seed: int,
    integration: float = 0.0,
) -> Wordlist:
    """Two-language concept-aligned wordlist with recipient-side loans.

    Every concept has one word per language. For loan concepts the
    recipient word is the donor word itself (optionally integrated), so
    the pair stays cross-linguistically similar; for native concepts the
    two languages' words are sampled independently. Only recipient-side
    copies of donor words are labeled as loans. Neither language holds one
    word twice: a loan whose integrated and donor forms are both recipient
    words already is drawn again.
    """
    _check_request(n_native, n_loans, integration)
    recipient, donor = recipient_grammar.language, donor_grammar.language
    if recipient == donor:
        raise InvalidGrammarError("grammars must name distinct languages")
    rng = random.Random(seed)
    taken_a: set[tuple[str, ...]] = set()
    taken_b: set[tuple[str, ...]] = set()
    native_symbols = recipient_grammar.inventory_symbols()
    needs = {recipient: n_native, donor: n_native + n_loans}
    entries: list[LexicalEntry] = []

    def draw(grammar: Grammar, taken: set[tuple[str, ...]], concept: str) -> tuple[str, ...]:
        try:
            return _sample_unique(grammar, 1, rng, taken)[0]
        except InvalidGrammarError:
            raise InvalidGrammarError(
                f"grammar {grammar.language!r} cannot produce the "
                f"{needs[grammar.language]} distinct words the request needs: "
                f"it ran out at concept {concept}"
            ) from None

    for c in range(n_native + n_loans):
        concept = f"c{c:04d}"
        if c < n_native:
            a = draw(recipient_grammar, taken_a, concept)
            b = draw(donor_grammar, taken_b, concept)
            entries.append(_entry(a, recipient, recipient_grammar, 0, rng, concept))
        else:
            borrowed = None
            while borrowed is None:
                b = draw(donor_grammar, taken_b, concept)
                integrated = integrate_word(b, native_symbols, integration, rng)
                # the integrated form or, if the recipient holds it, the donor form;
                # if the recipient holds both, b stays taken and another is drawn
                borrowed = next((w for w in (integrated, b) if w not in taken_a), None)
            taken_a.add(borrowed)
            entries.append(_entry(borrowed, recipient, donor_grammar, 1, rng, concept))
        entries.append(_entry(b, donor, donor_grammar, 0, rng, concept))
    return Wordlist(entries)


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


def write_metrics_table(
    key: str, rows: Iterable[tuple[str, EvalReport]], path: str | Path
) -> None:
    """One row of metrics and counts per (name, report), under a ``key`` column."""
    write_table(
        path,
        [key, "precision", "recall", "f1", "tp", "fp", "tn", "fn"],
        [(name, r.precision, r.recall, r.f1, r.tp, r.fp, r.tn, r.fn) for name, r in rows],
    )
