# Cross-linguistic scaling: concept-aligned wordlists let the model
# compare each word with its counterparts in other languages.
#
# Three toy languages share fifteen concepts. Native concepts have
# unrelated forms in each language; the last three concepts were borrowed
# (from some unseen fourth language) by all three, so their forms are
# near-identical across the board. Low comparability C marks a word as
# resembling its concept-mates, raising the composite score S over the
# dynamic threshold even where the monolingual probability B is timid.
#
# C needs at least three words per concept to spread: it is min-max
# normalized within the concept, so with only two (symmetric) words both
# get C = 0.

from loandetect import RunConfig, detect_scaled
from loandetect.wordlist import LexicalEntry, Wordlist, normalize_ipa

NATIVES = {
    "aaa": ["pati", "tuka", "kipa", "tapa", "kuti", "pika",
            "tipu", "kata", "puki", "tika", "pata", "kitu"],
    "bbb": ["zold", "mudo", "lozu", "dolm", "zumo", "mold",
            "ludo", "dozu", "mulo", "zodo", "lomu", "duzo"],
    "ccc": ["ʃɛfy", "frɛʃ", "ryʃɛ", "fyrɛ", "ʃyfr", "rɛfy",
            "fʃɛr", "yfrɛ", "ʃyrɛ", "fɛry", "rɛʃy", "fyʃɛ"],
}
# borrowed forms: segments s, o, n, e, g are foreign to every language
LOANS = {
    "sona": {"aaa": "sona", "bbb": "sona", "ccc": "sonag"},
    "gine": {"aaa": "gine", "bbb": "gines", "ccc": "gine"},
    "nego": {"aaa": "nego", "bbb": "nego", "ccc": "negos"},
}

entries = []
for lang, words in NATIVES.items():
    for i, w in enumerate(words):
        entries.append(
            LexicalEntry(w, normalize_ipa(w), lang, "noun", 0, f"c{i:02d}")
        )
for concept, forms in LOANS.items():
    for lang, w in forms.items():
        entries.append(LexicalEntry(w, normalize_ipa(w), lang, "noun", 1, concept))
vocab = Wordlist(entries)

# One of the exposed empirical knobs is adjusted for this miniature corpus:
# the threshold base is lowered so that strong cross-linguistic agreement
# can rescue loans the monolingual model scored timidly (threshold_alpha).
cfg = RunConfig(threshold_alpha=0.35)
result = detect_scaled(vocab, cfg)

print(f"{'concept':<8} {'lang':<5} {'word':<7} {'B':>6} {'C':>6} {'S':>6} "
      f"{'theta':>6}  scaled basic gold")
for i, entry in enumerate(vocab):
    if entry.concept_id not in LOANS and entry.concept_id not in ("c00", "c01"):
        continue  # print two native concepts and the borrowed ones
    c = result.comparability[i]
    print(
        f"{entry.concept_id:<8} {entry.language:<5} {entry.orthography:<7} "
        f"{result.basic[i]:>6.2f} {'  --' if c is None else f'{c:>6.2f}'} "
        f"{result.composite[i]:>6.2f} {result.thresholds[i]:>6.2f}  "
        f"{result.predicted[i]:>6} {result.basic_predicted[i]:>5} "
        f"{entry.gold_label:>4}"
    )

print()
print(result.asymmetry_summary())
loan_hits = sum(
    1 for i, e in enumerate(vocab) if e.gold_label == 1 and result.predicted[i] == 1
)
basic_hits = sum(
    1 for i, e in enumerate(vocab)
    if e.gold_label == 1 and result.basic_predicted[i] == 1
)
print(f"borrowed words found: scaled {loan_hits}/9, basic alone {basic_hits}/9")
