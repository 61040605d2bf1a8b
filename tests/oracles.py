"""Independent brute-force reference implementations used by the tests.

Everything here is written as plainly as possible (nested loops, explicit
recursion, no shared code with the package) so it can serve as an oracle
for the optimized paths. The exceptions are the exact aligner, which
calls the package's symbol distance, the two-alignment scaled model,
which calls the package's aligner and symbol distance, and the detection
loop, which calls the package's feature extraction and scoring.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from loandetect.crossling import align
from loandetect.features import CompiledGroup, build_statistics, extract_all
from loandetect.ipa import ATTACHING_MODIFIERS, GAP, TIE_BARS, symbol_distance
from loandetect.scoring import score_all


# --- tokenization -----------------------------------------------------------------


def bf_tokenize(text, symbols):
    """Greedy longest match against ``symbols``; returns (tokens, unknown tally).

    A candidate is rejected when the codepoint after it attaches to it (a
    combining mark, a tie bar or what follows one, an attaching modifier);
    a run that matches nothing is one unknown token, its base plus every
    attaching codepoint after it.
    """
    text = unicodedata.normalize("NFC", text)

    def attaches(pos):
        if pos <= 0 or pos >= len(text):
            return False
        ch = text[pos]
        if unicodedata.combining(ch):
            return True
        if ch in TIE_BARS or text[pos - 1] in TIE_BARS:
            return True
        return ch in ATTACHING_MODIFIERS

    max_len = max(len(s) for s in symbols)
    tokens, unknown = [], Counter()
    i, n = 0, len(text)
    while i < n:
        match = None
        for k in range(min(max_len, n - i), 0, -1):
            cand = text[i : i + k]
            if cand in symbols and not attaches(i + k):
                match = cand
                break
        if match is None:
            j = i + 1
            while j < n and attaches(j):
                j += 1
            match = text[i:j]
            unknown[match] += 1
        tokens.append(match)
        i += len(match)
    return tokens, unknown


def bf_syllabify(word, vowels):
    """Onset maximization read off the CV string: every consonant run with
    the vowel run after it is a syllable, and trailing consonants join the
    last one; a word without vowels is one syllable."""
    cv = "".join("V" if s in vowels else "C" for s in word)
    spans = [m.span() for m in re.finditer("C*V+", cv)]
    if not spans:
        return [tuple(word)]
    spans[-1] = (spans[-1][0], len(word))
    return [tuple(word[a:b]) for a, b in spans]


# --- n-gram and transition statistics ------------------------------------------


def bf_ngram_counts(words, nmin=2, nmax=10):
    counts = {}
    for w in words:
        w = tuple(w)
        for n in range(nmin, nmax + 1):
            if n > len(w):
                continue
            for start in range(0, len(w) - n + 1):
                g = w[start : start + n]
                counts[g] = counts.get(g, 0) + 1
    return counts


def bf_ngram_probs(words, nmin=2, nmax=10):
    counts = bf_ngram_counts(words, nmin, nmax)
    totals = {}
    for g, c in counts.items():
        totals[len(g)] = totals.get(len(g), 0) + c
    return {g: c / totals[len(g)] for g, c in counts.items()}


def bf_transition_probs(words):
    pair_counts = {}
    left_counts = {}
    for w in words:
        w = tuple(w)
        for i in range(len(w) - 1):
            pair = (w[i], w[i + 1])
            pair_counts[pair] = pair_counts.get(pair, 0) + 1
            left_counts[w[i]] = left_counts.get(w[i], 0) + 1
    return {pair: c / left_counts[pair[0]] for pair, c in pair_counts.items()}


def bf_length_stats(words):
    """Mean and population standard deviation of the lengths; the variance is
    exact before it is rounded, so the words' order changes no bit."""
    lengths = [len(w) for w in words]
    mean = Fraction(sum(lengths), len(lengths))
    if len(lengths) < 2:
        return float(mean), 1.0
    var = float(sum((x - mean) ** 2 for x in lengths) / len(lengths))
    return float(mean), math.sqrt(var) if var > 0 else 1.0


def bf_word_ngrams(word, nmin=2, nmax=10):
    word = tuple(word)
    grams = []
    for n in range(nmin, nmax + 1):
        if n > len(word):
            continue
        for start in range(0, len(word) - n + 1):
            grams.append(word[start : start + n])
    return grams


def bf_rare_ngram_score(word, probs, eps1, eps2, c1, c2, nmin=2, nmax=10):
    grams = bf_word_ngrams(word, nmin, nmax)
    if not grams:
        return 0.0
    total = 0.0
    for g in grams:
        p = probs.get(g, 0.0)
        if p < eps1:
            total = total + c1 * (eps1 - p)
        elif p < eps2:
            total = total + c2 * (eps2 - p)
    return total / len(grams)


def bf_ngram_entropy(word, probs, nmin=2, nmax=10):
    total = 0.0
    for g in bf_word_ngrams(word, nmin, nmax):
        p = probs.get(g, 0.0)
        if p > 0:
            total = total - p * math.log(p, 2)
    return total


def bf_rare_transition_score(word, trans, eps1=0.01, eps2=0.05, c1=100.0, c2=20.0):
    word = tuple(word)
    if len(word) < 2:
        return 0.0
    total = 0.0
    count = 0
    for i in range(len(word) - 1):
        p = trans.get((word[i], word[i + 1]), 0.0)
        count += 1
        if p < eps1:
            total = total + c1 * (eps1 - p)
        elif p < eps2:
            total = total + c2 * (eps2 - p)
    return total / count


def bf_transition_entropy(word, trans):
    word = tuple(word)
    total = 0.0
    for i in range(len(word) - 1):
        p = trans.get((word[i], word[i + 1]), 0.0)
        if p > 0:
            total = total - p * math.log(p, 2)
    return total


def bf_avg_transition_prob(word, trans):
    word = tuple(word)
    if len(word) < 2:
        return 0.0
    values = [trans.get((word[i], word[i + 1]), 0.0) for i in range(len(word) - 1)]
    return sum(values) / len(values)


# --- per-word sequence kernels -------------------------------------------------
# Per-word references for the n-gram and transition blocks of
# ``features.extract_all``: one kernel per feature over a word's
# probabilities in id order. They make the same float operations in the
# same order as the fused blocks, so the columns must equal them exactly.


def bf_rarity(probs, eps1, eps2, c1, c2):
    """Mean two-tier rarity penalty over a word's probabilities; none score 0."""
    if not probs:
        return 0.0
    total = 0.0
    for p in probs:
        if p < eps1:
            total += c1 * (eps1 - p)
        elif p < eps2:
            total += c2 * (eps2 - p)
    return total / len(probs)


def bf_entropy(probs):
    """-sum p log2 p over the probabilities (0 log 0 = 0)."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def bf_mean(probs):
    """Arithmetic mean; no probabilities give 0."""
    if not probs:
        return 0.0
    return sum(probs) / len(probs)


# --- segmental block (aug mode) --------------------------------------------------
# ``vowels`` is the set of symbols that count as vowels; every other symbol
# is a consonant.


def bf_cv_anomaly(word, reference, vowels):
    """Fraction of the word's CV 3-windows that no reference word has."""
    attested = set()
    for w in reference:
        cv = ["V" if s in vowels else "C" for s in w]
        for i in range(0, len(cv) - 2):
            attested.add((cv[i], cv[i + 1], cv[i + 2]))
    cv = ["V" if s in vowels else "C" for s in word]
    windows = []
    for i in range(0, len(cv) - 2):
        windows.append((cv[i], cv[i + 1], cv[i + 2]))
    if not windows:
        return 0.0
    missing = 0
    for t in windows:
        if t not in attested:
            missing += 1
    return missing / len(windows)


def bf_char_dist_anomaly(word, reference):
    """Mean over the word's symbols of |share in the word - share in the reference|."""
    word = tuple(word)
    if not word:
        return 0.0
    ref_counts = {}
    ref_total = 0
    for w in reference:
        for s in w:
            ref_counts[s] = ref_counts.get(s, 0) + 1
            ref_total += 1
    total = 0.0
    for s in word:
        in_word = 0
        for t in word:
            if t == s:
                in_word += 1
        total = total + abs(in_word / len(word) - ref_counts.get(s, 0) / ref_total)
    return total / len(word)


def bf_cluster_score(word, vowels):
    """(longest run of consonants - 1) / length, never below 0."""
    longest = 0
    run = 0
    for s in word:
        if s in vowels:
            run = 0
        else:
            run += 1
            longest = max(longest, run)
    return max(longest - 1, 0) / len(word)


def bf_vowel_ratio(word, vowels):
    count = 0
    for s in word:
        if s in vowels:
            count += 1
    return count / len(word)


# --- exhaustive alignment enumeration -------------------------------------------


def bf_best_alignment_score(x, y, column_score, gap_penalty):
    """Maximum total score over every global alignment, by full enumeration.

    Enumerates the alignment tree recursively: at each step consume a
    symbol from both words (substitution), from x only, or from y only.
    Exponential, fine for |x|, |y| <= 6.
    """
    x, y = tuple(x), tuple(y)

    def best(i, j):
        if i == len(x) and j == len(y):
            return 0.0
        options = []
        if i < len(x) and j < len(y):
            options.append(column_score(x[i], y[j]) + best(i + 1, j + 1))
        if i < len(x):
            options.append(-gap_penalty + best(i + 1, j))
        if j < len(y):
            options.append(-gap_penalty + best(i, j + 1))
        return max(options)

    return best(0, 0)


def bf_align(x, y, gap_penalty):
    """The columns (a, b) of the alignment ``align`` documents, by full enumeration.

    Scores every global alignment in exact ``Fraction`` arithmetic (symbol
    distances are multiples of 1/8) and, among the best, returns the one
    whose columns, read from the end, prefer a substitution, then a gap on
    the first track, then a gap on the second. Exponential, fine for
    |x|, |y| <= 5.
    """
    x, y = tuple(x), tuple(y)
    gap = Fraction(gap_penalty)
    # every alignment of x[:i] and y[:j] as (score, kinds, columns), the last
    # two read from the end; kind 0 is a substitution, 1 a gap on the first
    # track, 2 a gap on the second
    prefixes = {(0, 0): [(Fraction(0), (), ())]}
    for i in range(len(x) + 1):
        for j in range(len(y) + 1):
            if i == 0 and j == 0:
                continue
            out = []
            if i > 0 and j > 0:
                sim = 1 - Fraction(symbol_distance(x[i - 1], y[j - 1]))
                column = (x[i - 1], y[j - 1])
                for score, kinds, columns in prefixes[i - 1, j - 1]:
                    out.append((score + sim, (0,) + kinds, (column,) + columns))
            if j > 0:
                column = (GAP, y[j - 1])
                for score, kinds, columns in prefixes[i, j - 1]:
                    out.append((score - gap, (1,) + kinds, (column,) + columns))
            if i > 0:
                column = (x[i - 1], GAP)
                for score, kinds, columns in prefixes[i - 1, j]:
                    out.append((score - gap, (2,) + kinds, (column,) + columns))
            prefixes[i, j] = out
    # the best score first, then the preferred kinds
    _, _, columns = min(prefixes[len(x), len(y)], key=lambda a: (-a[0], a[1]))
    return list(reversed(columns))


def bf_column_score_sum(pairs, column_score, gap_penalty, gap):
    """Total score of the columns of an alignment: -gap_penalty for a gap column."""
    total = 0.0
    for a, b, _ in pairs:
        if a == gap or b == gap:
            total -= gap_penalty
        else:
            total += column_score(a, b)
    return total


def bf_tracks(pairs, gap):
    """The two words an alignment's columns spell, gaps dropped."""
    first = []
    second = []
    for a, b, _ in pairs:
        if a != gap:
            first.append(a)
        if b != gap:
            second.append(b)
    return tuple(first), tuple(second)


# --- context model and comparability: the two-alignment path --------------------
#
# The earlier form of the scaled model: a context model keyed by
# (a, b, context) tuples, and a second alignment of every pair for its
# divergence. These call the package's aligner and symbol distance, whose
# own oracles are above and in test_ipa.py.


class BfContextModel:
    """Smoothed P(a, b | context) over aligned columns, keyed by tuples."""

    def __init__(self, smoothing=0.1):
        self.counts = {}
        self.marginals = {}
        self.pair_types = set()
        self.smoothing = smoothing

    def observe(self, a, b, ctx):
        self.counts[(a, b, ctx)] = self.counts.get((a, b, ctx), 0) + 1
        if a != b:
            self.counts[(b, a, ctx)] = self.counts.get((b, a, ctx), 0) + 1
        self.marginals[ctx] = self.marginals.get(ctx, 0) + 1
        self.pair_types.add((a, b) if a <= b else (b, a))

    def probability(self, a, b, ctx):
        k = max(len(self.pair_types), 1)
        count = self.counts.get((a, b, ctx), 0)
        marginal = self.marginals.get(ctx, 0)
        return (count + self.smoothing) / (marginal + self.smoothing * k)


def bf_build_context_model(concepts, gap_penalty=0.5, smoothing=0.1):
    """Align every unordered word pair of every concept and observe its columns."""
    model = BfContextModel(smoothing)
    for concept in sorted(concepts):
        words = [tuple(w) for w in concepts[concept]]
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                first, second = sorted((words[i], words[j]))
                for a, b, ctx in align(first, second, gap_penalty).pairs:
                    model.observe(a, b, ctx)
    return model


def bf_alignment_logprob(pairs, model):
    """Sum of the columns' natural-log probabilities."""
    return sum(math.log(model.probability(a, b, ctx)) for a, b, ctx in pairs)


def bf_feature_distance(pairs):
    """Mean symbol distance over the columns (gaps count 1)."""
    if len(pairs) == 0:
        return 0.0
    return sum(symbol_distance(a, b) for a, b, _ in pairs) / len(pairs)


def bf_divergence(x, y, model, lam=0.5, gap_penalty=0.5):
    """D = lam * D_feat - (1 - lam) * (1/L) * log P_align, on the pair aligned
    again in canonical order (smaller word first)."""
    if not 0 <= lam <= 1:
        raise ValueError("lambda weight must be in [0, 1]")
    first, second = sorted((tuple(x), tuple(y)))
    pairs = align(first, second, gap_penalty).pairs
    d_feat = bf_feature_distance(pairs)
    logp = bf_alignment_logprob(pairs, model)
    return lam * d_feat - (1.0 - lam) * logp / len(pairs)


def bf_comparability(concept_words, model, lam=0.5, gap_penalty=0.5):
    """Min-max normalized mean divergence of each word against the others."""
    if len(concept_words) < 2:
        raise ValueError("comparability needs at least two words in the concept")
    words = [tuple(w) for w in concept_words]
    k = len(words)
    div = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            div[i][j] = div[j][i] = bf_divergence(words[i], words[j], model, lam, gap_penalty)
    # each word's divergences summed exactly, then rounded once
    raws = [
        float(sum(Fraction(div[i][j]) for j in range(k) if j != i)) / (k - 1) for i in range(k)
    ]
    lo, hi = min(raws), max(raws)
    if hi - lo == 0:
        return [0.0] * len(raws)
    return [(r - lo) / (hi - lo) for r in raws]


# --- pattern databases -----------------------------------------------------------


def bf_pattern_counts(words):
    prefixes = {}
    suffixes = {}
    trigrams = {}
    for w in words:
        w = tuple(w)
        if len(w) < 2:
            continue
        p = w[0:2]
        prefixes[p] = prefixes.get(p, 0) + 1
        s = w[-2:]
        suffixes[s] = suffixes.get(s, 0) + 1
        for i in range(0, len(w) - 2):
            t = w[i : i + 3]
            trigrams[t] = trigrams.get(t, 0) + 1
    return prefixes, suffixes, trigrams


def bf_typed_patterns(word):
    """The word's (kind, pattern) list: prefix, suffix, then every trigram in order.

    Words shorter than two symbols have none.
    """
    word = tuple(word)
    if len(word) < 2:
        return []
    typed = [("prefix", word[0:2]), ("suffix", word[-2:])]
    for i in range(0, len(word) - 2):
        typed.append(("trigram", word[i : i + 3]))
    return typed


def bf_pattern_likeness(word, native_words, loan_words, epsilon=1.0):
    """Mean over the word's distinct typed patterns of N / (N + B + epsilon).

    N and B count the pattern over ``native_words`` and ``loan_words``;
    words shorter than two symbols have no patterns and score 0.5.
    """
    native = bf_pattern_counts(native_words)
    loan = bf_pattern_counts(loan_words)
    word = tuple(word)
    pats = set()
    if len(word) >= 2:
        pats.add((0, word[0:2]))
        pats.add((1, word[-2:]))
        for i in range(0, len(word) - 2):
            pats.add((2, word[i : i + 3]))
    if not pats:
        return 0.5
    terms = []
    for kind, pat in pats:
        n = native[kind].get(pat, 0)
        b = loan[kind].get(pat, 0)
        terms.append(n / (n + b + epsilon))
    return math.fsum(terms) / len(pats)


# --- scoring ---------------------------------------------------------------------

BF_CORE_FEATURES = (
    "rare_ngram_score",
    "ngram_entropy",
    "rare_transition_score",
    "trans_entropy",
    "avg_trans_prob",
    "len_z",
)


class BfScore(NamedTuple):
    raw: float
    adjusted: float
    probability: float
    boosted: float
    fired: frozenset


def bf_logistic(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def bf_score(columns, pos_tags, cfg):
    """The scoring pipeline run word by word over feature columns.

    Returns one ``BfScore`` per word: the raw weighted sum of its
    normalized, polarity-adjusted features, that sum times the length
    and POS modifiers, the sigmoid of it, the anomaly-boosted
    probability, and the set of features over their anomaly threshold.
    """
    names = list(columns)
    weights = cfg.weights
    base = sum(weights[n] for n in BF_CORE_FEATURES if n in weights)
    factor = base / sum(weights[n] for n in names)
    lows = {n: min(columns[n]) for n in names}
    highs = {n: max(columns[n]) for n in names}
    out = []
    for i, pos in enumerate(pos_tags):
        signals = []
        for n in names:
            lo, hi = lows[n], highs[n]
            x = 0.5 if hi == lo else (columns[n][i] - lo) / (hi - lo)
            signals.append(1.0 - x if cfg.polarity.get(n, 1) < 0 else x)
        raw = sum(weights[n] * factor * s for n, s in zip(names, signals))
        z = columns["len_z"][i]
        length = 1.0 + 0.5 * (bf_logistic(3.0 * (abs(z) - 1.5)) - 0.5)
        adjusted = raw * length * cfg.pos_weights[pos]
        probability = bf_logistic(cfg.gamma * (adjusted - cfg.center))
        boost = 1.0
        fired = set()
        for n, s in zip(names, signals):
            threshold = cfg.anomaly_thresholds.get(n)
            if threshold is not None and s > threshold:
                boost *= 1.0 + cfg.anomaly_boosts.get(n, 0.0) * (s - threshold)
                fired.add(n)
        out.append(BfScore(raw, adjusted, probability, min(probability * boost, 1.0),
                           frozenset(fired)))
    return out


# --- the detection loop ----------------------------------------------------------


def bf_detect(vocab, cfg):
    """The detection loop with pass 0 before it and a probability history per word.

    Returns one ``(probabilities, averaged, loans)`` triple per pass, as
    tuples and a frozenset.
    """
    words = [e.ipa for e in vocab]
    pos_tags = [e.pos for e in vocab]
    n = len(words)
    group = CompiledGroup(words, cfg.ngram_min, cfg.ngram_max)

    def rescore(reference):
        return score_all(extract_all(build_statistics(group, reference), cfg), pos_tags, cfg)

    # pass 0: statistics from the full vocabulary
    probs, _ = rescore(range(n))
    history = [[p] for p in probs]
    loans = {i for i in range(n) if history[i][0] >= cfg.tau}
    passes = [(tuple(h[0] for h in history), tuple(h[0] for h in history), frozenset(loans))]
    converged = False
    t = 1
    while t < cfg.max_iterations and not converged:
        natives = [i for i in range(n) if i not in loans]
        reference = natives if natives else range(n)
        probs, masks = rescore(reference)
        if cfg.pattern_refinement and t >= cfg.pattern_from_iteration:
            native_words = [words[i] for i in natives]
            loan_words = [words[i] for i in sorted(loans)]
            eps = cfg.pattern_smoothing
            for i in range(n):
                like = bf_pattern_likeness(words[i], native_words, loan_words, eps)
                if not masks[i] and like > cfg.pattern_high_cut:
                    probs[i] = probs[i] * cfg.pattern_down_factor
                elif masks[i] and like < cfg.pattern_low_cut:
                    probs[i] = min(probs[i] * cfg.pattern_up_factor, 1.0)
        averaged = []
        for i in range(n):
            history[i].append(probs[i])
            averaged.append(sum(history[i]) / len(history[i]))
        new_loans = {i for i in range(n) if averaged[i] >= cfg.tau}
        delta = len(loans ^ new_loans)
        converged = delta < cfg.convergence_fraction * max(1, len(loans))
        loans = new_loans
        passes.append((tuple(probs), tuple(averaged), frozenset(loans)))
        t += 1
    return passes
