# The main detector vs. the stem-diversity comparison system.
#
# The comparison system syllabifies each word, takes the first two
# syllables as a stem, and scores nativeness by how many distinct
# syllables follow that stem across the vocabulary. It rewards
# morphological families: native stems recur with many different endings,
# while borrowed one-off forms have isolated stems. The corpus below is
# built exactly that way: three native stems times five endings each,
# plus one-off foreign borrowings.

from loandetect import RunConfig
from loandetect.baseline import detect_wordlist as baseline_detect, stem_of
from loandetect.evaluation import evaluate_wordlist
from loandetect.refiner import detect_wordlist
from loandetect.wordlist import LexicalEntry, Wordlist, normalize_ipa

STEMS = ["pata", "tiku", "kapa"]
ENDINGS = ["", "ka", "ki", "tu", "ma"]
LOANS = ["zdyʁø", "ʒɛbyd", "ɡyzʁɛ", "byʒdø", "ʁøzɛɡ"]

rows = [(stem + end, 0) for stem in STEMS for end in ENDINGS]
rows += [(loan, 1) for loan in LOANS]

entries = [
    LexicalEntry(text, normalize_ipa(text), "demo", "noun", gold, None)
    for text, gold in rows
]
vocab = Wordlist(entries)
cfg = RunConfig()

_, main_labels, _ = detect_wordlist(vocab, cfg)
probs, uns_labels = baseline_detect(vocab, cfg)

print("stem analysis of a few words:")
for text, _ in rows[:3] + rows[-2:]:
    stem, following = stem_of(normalize_ipa(text))
    print(f"  {text:<8} stem={stem:<6} following={following}")

print()
print(f"{'system':<10} {'P':>6} {'R':>6} {'F1':>6}")
for name, labels in (("autbor", main_labels), ("uns", uns_labels)):
    r = evaluate_wordlist(vocab, labels)
    print(f"{name:<10} {r.precision:>6.2f} {r.recall:>6.2f} {r.f1:>6.2f}")
