# Basic monolingual loanword detection on a tiny hand-written wordlist.
#
# The vocabulary mixes ordinary CV words with a few phonotactically alien
# forms. The detector sees no labels; it scores every word against the
# vocabulary's own statistics and thresholds the running-average
# probability.

from loandetect import RunConfig, detect
from loandetect.wordlist import LexicalEntry, Wordlist, normalize_ipa

ROWS = [
    # orthography, ipa, pos
    ("pata", "pata", "noun"),
    ("tika", "tika", "noun"),
    ("kapu", "kapu", "verb"),
    ("patika", "patika", "noun"),
    ("tipaka", "tipaka", "adjective"),
    ("kita", "kita", "noun"),
    ("pakuti", "pakuti", "verb"),
    ("tupa", "tupa", "noun"),
    ("katipa", "katipa", "noun"),
    ("puka", "puka", "function"),
    # borrowed-looking forms with foreign segments and clusters
    ("zdravo", "zdravø", "noun"),
    ("gyoza", "ɡjøza", "noun"),
    ("strudel", "ʃtrydɛl", "noun"),
]

entries = [
    LexicalEntry(orth, normalize_ipa(ipa), "demo", pos)
    for orth, ipa, pos in ROWS
]
vocab = Wordlist(entries)

cfg = RunConfig()
state = detect(vocab, cfg)

print(f"converged after {state.iteration + 1} pass(es); tau = {cfg.tau}")
print(f"{'word':<10} {'pos':<10} {'P(borrowed)':>12}  label")
for i, entry in enumerate(vocab):
    label = "loan" if i in state.loans else "native"
    print(f"{entry.orthography:<10} {entry.pos:<10} {state.averaged[i]:>12.3f}  {label}")
