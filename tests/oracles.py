"""Independent brute-force reference implementations used by the tests.

Everything here is written as plainly as possible (nested loops, explicit
recursion, no shared code with the package) so it can serve as an oracle
for the optimized paths.
"""

from __future__ import annotations

import math


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
    lengths = [len(w) for w in words]
    mean = sum(lengths) / len(lengths)
    if len(lengths) < 2:
        return mean, 1.0
    var = sum((x - mean) ** 2 for x in lengths) / len(lengths)
    return mean, math.sqrt(var) if var > 0 else 1.0


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
