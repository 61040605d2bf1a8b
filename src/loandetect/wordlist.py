"""Wordlist parsing, IPA normalization, and every file the package writes.

Input files are delimiter-separated text (TSV by default, CSV behind a
flag) with a header row, UTF-8 encoded; a leading byte-order mark is
skipped. Expected columns: ``orthography``, ``ipa``, ``language``,
``pos``, plus optional ``label`` and ``concept``, each named once in the
header. TSV cells are read literally, as ``write_table`` writes them;
CSV quoting applies only to CSV. The loader only turns cells into values:
``normalize_ipa`` refuses a blank or all-marker IPA cell, and
``LexicalEntry`` holds every other row rule, for loaded and built entries
alike, so ``synth`` writes only what the loader reads. A ``Wordlist`` is
its entries, in any number of languages with or without concept ids, and
its ``language`` tag is derived from them;
only ``crossling.detect_scaled`` reads concepts, and it alone requires them.
``language_rows`` is the one split of a wordlist by language, which
every per-language detector and the trace writer read.
Every file the package writes is a ``write_table`` table: reports (their
``#`` header echoes the run's configuration), the per-pass traces of
``write_trace``, metric tables and synthetic wordlists. ``write_wordlist``
writes an entry only if its IPA cell loads back as its tokens
(``read_back``), which ``LexicalEntry`` does not check: a token is not
re-tokenized on every loaded row. Detection itself writes nothing; the
command line writes what it returns.
"""

from __future__ import annotations

import csv
import os
import unicodedata
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .ipa import GAP, tokenize
from .records import FrozenRecord, _set

if TYPE_CHECKING:
    from .refiner import DetectionState

POS_CATEGORIES = ("noun", "adjective", "verb", "adverb", "function")

# Length and stress markers removed during normalization: IPA length mark,
# ASCII colon, primary stress, secondary stress; and the separators: syllable
# boundary and the morpheme boundaries (a kept hyphen would be a token equal to
# the alignment gap symbol). Whitespace goes too.
_STRIP_MARKERS = ("ː", ":", "ˈ", "ˌ", ".", "+", "-")

# the input columns, required ones first, in the order _parse_rows reads them
_COLUMNS = ("orthography", "ipa", "language", "pos", "label", "concept")
# an entry's text, which written files echo: none may end a table cell or row
_TEXT_FIELDS = ("orthography", "language", "concept", "IPA")
_BREAKS = frozenset("\t\r\n")
# a label cell's gold label; other text goes to the entry as it is, to be refused
_LABELS = {"": None, "0": 0, "1": 1}


class WordlistError(ValueError):
    """Base class for wordlist validation failures."""


class MalformedRowError(WordlistError):
    """One or more rows failed validation; carries (row_index, reason) pairs."""

    def __init__(self, rows: Sequence[tuple[int, str]]):
        self.rows = list(rows)
        detail = "; ".join(f"row {i}: {r}" for i, r in self.rows[:10])
        more = "" if len(self.rows) <= 10 else f" (+{len(self.rows) - 10} more)"
        super().__init__(f"{len(self.rows)} malformed row(s): {detail}{more}")


class UnknownPOSError(WordlistError):
    """A POS outside ``POS_CATEGORIES``; ``row`` is the loader's 1-based row,
    ``None`` for an entry built directly."""

    def __init__(self, value: str, row: int | None = None):
        self.value = value
        self.row = row
        where = "" if row is None else f"row {row}: "
        super().__init__(f"{where}unknown POS {value!r}")


class EmptyTranscriptionError(WordlistError):
    """IPA without symbols, as built or after markers and separators are stripped."""


class LexicalEntry(FrozenRecord):
    """One wordlist row: a word with its transcription and metadata.

    The package's one set of row rules, checked in this order; the first
    one broken raises a ``WordlistError``: 1. a language that is not blank;
    2. no tab, CR or LF in the orthography, language, concept or an IPA
    token; 3. no leading or trailing whitespace in the orthography,
    language or concept, which the loader would strip; 4. some IPA
    (``EmptyTranscriptionError``); 5. no IPA token that is the aligner's
    gap symbol or empty; 6. a POS of ``POS_CATEGORIES``
    (``UnknownPOSError``); 7. a label of None, int 0 or 1.
    """

    __slots__ = ("orthography", "ipa", "language", "pos", "gold_label", "concept_id")
    orthography: str
    ipa: tuple[str, ...]
    language: str
    pos: str
    gold_label: int | None
    concept_id: str | None

    def __init__(
        self,
        orthography: str,
        ipa: tuple[str, ...],
        language: str,
        pos: str,
        gold_label: int | None = None,
        concept_id: str | None = None,
    ) -> None:
        if not language.strip():
            raise WordlistError("missing language")
        text = (orthography, language, concept_id or "", "".join(ipa))
        joined = "".join(text)
        if "\t" in joined or "\n" in joined or "\r" in joined:  # faster than a set test
            broken = [name for name, t in zip(_TEXT_FIELDS, text) if not _BREAKS.isdisjoint(t)]
            raise WordlistError(f"tab or line break in {', '.join(broken)}")
        concept = text[2]
        # three comparisons: a loop over the fields costs more on every loaded row
        if (orthography != orthography.strip() or language != language.strip()
                or concept != concept.strip()):
            padded = [name for name, t in zip(_TEXT_FIELDS, text[:3]) if t != t.strip()]
            raise WordlistError(f"leading or trailing whitespace in {', '.join(padded)}")
        if not ipa:
            raise EmptyTranscriptionError(f"entry {orthography!r} has an empty IPA transcription")
        # loaded IPA holds neither: every token holds a codepoint, and none is the gap
        if GAP in ipa:
            raise WordlistError(
                f"entry {orthography!r} holds the token {GAP!r}, which the aligner reserves"
            )
        if "" in ipa:
            raise WordlistError(f"entry {orthography!r} holds an empty token")
        if pos not in POS_CATEGORIES:
            raise UnknownPOSError(pos)
        # True or 1.0 would be written as a label cell the loader refuses
        if gold_label not in (None, 0, 1) or type(gold_label) not in (int, type(None)):
            raise WordlistError(f"label must be 0/1, got {gold_label!r}")
        _set(self, "orthography", orthography)
        _set(self, "ipa", ipa)
        _set(self, "language", language)
        _set(self, "pos", pos)
        _set(self, "gold_label", gold_label)
        _set(self, "concept_id", concept_id)

    @property
    def ipa_text(self) -> str:
        return "".join(self.ipa)


class Wordlist(FrozenRecord):
    """A sequence of entries, stored as a tuple; no (language, IPA, concept)
    twice: a repeat is refused naming both 1-based rows."""

    entries: tuple[LexicalEntry, ...]

    def __init__(self, entries: Iterable[LexicalEntry]) -> None:
        entries = tuple(entries)
        seen: dict[tuple[str, tuple[str, ...], str | None], int] = {}
        for row, e in enumerate(entries, start=1):
            first = seen.setdefault((e.language, e.ipa, e.concept_id), row)
            if first != row:
                raise WordlistError(
                    f"duplicate entry {e.language}/{e.ipa_text}/{e.concept_id} "
                    f"at rows {first} and {row}"
                )
        _set(self, "entries", entries)

    @property
    def language(self) -> str:
        """The entries' one language, ``multi`` for several, ``empty`` for none."""
        langs = {e.language for e in self.entries}
        if len(langs) == 1:
            return langs.pop()
        return "multi" if langs else "empty"

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def language_rows(vocab: Wordlist) -> dict[str, list[int]]:
    """Each language of ``vocab``, in sorted order, with its row indices in input order."""
    rows: dict[str, list[int]] = {}
    for i, entry in enumerate(vocab):
        rows.setdefault(entry.language, []).append(i)
    return {lang: rows[lang] for lang in sorted(rows)}


def normalize_ipa(raw: str) -> tuple[str, ...]:
    """Remove length/stress markers, separators and whitespace, then tokenize.

    Separators are the syllable boundary ``.``, the morpheme boundaries
    ``+`` and ``-`` and whitespace anywhere in the string, so
    space-segmented IPA (``"p a t a"``, the CLDF "Segments" form) gives the
    same tokens as ``"pata"``. Raises ``EmptyTranscriptionError`` when
    nothing is left: ``missing IPA`` for a blank ``raw``, otherwise naming
    ``raw``. Idempotent: feeding the joined output back in returns the same
    token sequence.
    """
    text = raw
    for marker in _STRIP_MARKERS:
        text = text.replace(marker, "")
    text = "".join(text.split())
    if not text:
        if not raw.strip():
            raise EmptyTranscriptionError("missing IPA")
        raise EmptyTranscriptionError(
            f"IPA {raw!r} has nothing left after stripping markers and separators"
        )
    return tuple(tokenize(text))


def read_back(ipa: Sequence[str]) -> tuple[str, ...]:
    """The tokens the loader reads from ``ipa`` written as one IPA cell:
    ``normalize_ipa`` of the joined tokens, or ``()`` when nothing is left."""
    try:
        return normalize_ipa("".join(ipa))
    except EmptyTranscriptionError:
        return ()


def show_tokens(text: str) -> Callable[[object], str]:
    """``repr``, or ``ascii`` when ``text`` is not NFC: a token that NFC
    changes looks the same as its read-back unless it is escaped."""
    return repr if unicodedata.is_normalized("NFC", text) else ascii


def load_wordlist(
    path: str | Path,
    *,
    delimiter: str = "\t",
    lenient_pos: bool = False,
) -> Wordlist:
    """Parse a delimited wordlist file into a validated Wordlist.

    The header names the columns ``orthography``, ``ipa``, ``language``,
    ``pos`` and optionally ``label`` and ``concept``, each once; other
    columns are ignored. Tab-delimited cells are read literally; any
    other delimiter reads CSV quoting. The loader only turns cells into
    values: it strips them, lower-cases the POS (an unknown one becomes
    ``function`` under ``lenient_pos``), normalizes the IPA with
    ``normalize_ipa`` and reads the label text ``""``, ``0`` or ``1``.
    ``normalize_ipa`` and ``LexicalEntry`` judge each row; the rows they
    refuse are collected, with the first fault of each, and reported
    together in a ``MalformedRowError``, or in an ``UnknownPOSError`` when
    one unknown POS is the file's only fault. Errors number the non-blank
    lines after the header from 1, so row n is the n-th entry.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        return _parse_rows(path, delimiter, lenient_pos)
    except csv.Error as exc:
        raise WordlistError(f"unparseable delimited file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WordlistError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_rows(path: Path, delimiter: str, lenient_pos: bool) -> Wordlist:
    entries: list[LexicalEntry] = []
    errors: list[tuple[int, str]] = []
    unknown_pos: UnknownPOSError | None = None  # raised alone if it is the one fault
    # a tab-delimited cell is literal, as write_table writes it
    quoting = csv.QUOTE_NONE if delimiter == "\t" else csv.QUOTE_MINIMAL
    # utf-8-sig: a byte-order mark would otherwise glue onto the first column name
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter, quoting=quoting)
        header = next(reader, None)
        if header is None:
            return Wordlist(())
        index: dict[str, int] = {}
        for i, name in enumerate(map(str.strip, header)):
            if index.setdefault(name, i) != i and name in _COLUMNS:
                raise WordlistError(f"column {name!r} appears twice in the header of {path}")
        for name in _COLUMNS[:4]:
            if name not in index:
                raise WordlistError(f"missing required column {name!r} in {path}")

        # each row is cut or padded to one empty cell past the header: a
        # missing trailing cell reads as empty, and an optional column the
        # header lacks reads that extra cell
        width = len(header)
        cells = itemgetter(*(index.get(name, width) for name in _COLUMNS))
        pad = ("",) * (width + 1)
        rownum = 0
        for row in reader:
            # blank lines are skipped before counting: row n is the n-th entry,
            # as crossling.MissingConceptError numbers it
            if not "".join(row).strip():
                continue
            rownum += 1
            row[width:] = pad[min(len(row), width):]
            orthography, raw_ipa, language, pos, label, concept = map(str.strip, cells(row))
            pos = pos.lower()
            if lenient_pos and pos not in POS_CATEGORIES:
                import logging  # here only: a load that maps no POS loads no logging

                logging.getLogger(__name__).warning(
                    "row %d: unknown POS %r mapped to 'function'", rownum, pos
                )
                pos = "function"
            try:
                entries.append(LexicalEntry(
                    orthography, normalize_ipa(raw_ipa), language, pos,
                    _LABELS.get(label, label), concept or None,
                ))
            except WordlistError as exc:
                errors.append((rownum, str(exc)))
                if isinstance(exc, UnknownPOSError):
                    unknown_pos = UnknownPOSError(exc.value, rownum)
    if len(errors) == 1 and unknown_pos is not None:
        raise unknown_pos
    if errors:
        raise MalformedRowError(errors)
    return Wordlist(entries)


# --- Tables -------------------------------------------------------------------


def write_table(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write a table file, all at once or not at all.

    The file holds ``meta`` as sorted ``# key = value`` lines, the
    tab-joined ``header``, then one line per row: a float cell with six
    decimals, ``None`` as an empty cell and any other value by ``str``.
    The text goes to a temporary file in the target's directory, which
    then replaces the target, so a failed write never leaves a partial
    file behind. A failure is raised as an ``OSError`` naming ``path``.
    """
    meta = meta or {}
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    lines.append("\t".join(header))
    for row in rows:
        cells = ["" if v is None else f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]
        lines.append("\t".join(cells))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _write_columns(
    wordlist: Wordlist,
    columns: Mapping[str, Sequence[object]],
    path: str | Path,
    header_meta: Mapping[str, object] | None,
) -> None:
    """A report: one row per word in input order. ``columns`` map names to
    cells between the word and language columns and the gold_label
    column, which is written when any entry carries a gold label."""
    if len(wordlist) == 0:
        raise ValueError("refusing to write an empty report")
    if any(len(cells) != len(wordlist) for cells in columns.values()):
        raise ValueError("report columns do not align with the wordlist")
    columns = {
        "word": [e.ipa_text for e in wordlist],
        "language": [e.language for e in wordlist],
        **columns,
    }
    if any(e.gold_label is not None for e in wordlist):
        columns["gold_label"] = [e.gold_label for e in wordlist]
    write_table(path, list(columns), zip(*columns.values()), header_meta)


def write_report(
    wordlist: Wordlist,
    probabilities: Sequence[float],
    predicted: Sequence[int],
    path: str | Path,
    header_meta: Mapping[str, object] | None = None,
) -> None:
    """Emit the detection report TSV, one row per word in input order.

    Columns: word, language, probability, predicted_label and, when any
    entry carries one, gold_label. ``header_meta`` keys are echoed as
    ``# key = value`` comment lines (sorted) ahead of the column header.
    """
    _write_columns(
        wordlist,
        {"probability": probabilities, "predicted_label": predicted},
        path,
        header_meta,
    )


def write_scaled_report(
    wordlist: Wordlist,
    basic: Sequence[float],
    comparability: Sequence[float | None],
    composite: Sequence[float],
    thresholds: Sequence[float],
    predicted: Sequence[int],
    path: str | Path,
    header_meta: Mapping[str, object] | None = None,
) -> None:
    """Extended report for the cross-linguistic model (B, C, S, theta columns)."""
    _write_columns(
        wordlist,
        {
            "concept": [e.concept_id for e in wordlist],
            "B": basic,
            "C": comparability,
            "S": composite,
            "theta": thresholds,
            "predicted_label": predicted,
        },
        path,
        header_meta,
    )


class ReportRow(NamedTuple):
    word: str
    language: str
    probability: float
    predicted_label: int
    gold_label: int | None


def read_report(path: str | Path) -> list[ReportRow]:
    """Load a detection report back (used by eval and round-trip checks).

    The header must hold ``word``, ``language``, ``predicted_label`` and
    ``probability`` or ``S``. A data line whose cell count differs from the
    header's, a predicted label other than 0/1, or a gold label other than
    empty or 0/1, is a ``WordlistError`` naming the file and the line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    rows: list[ReportRow] = []
    header: list[str] | None = None
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise WordlistError(f"{path} is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if header is None:
            header = parts
            missing = [c for c in ("word", "language", "predicted_label") if c not in header]
            if "probability" not in header and "S" not in header:
                missing.append("probability or S")
            if missing:
                raise WordlistError(f"{path}: report has no column {', '.join(missing)}")
            score = "probability" if "probability" in header else "S"
            continue
        if len(parts) != len(header):
            raise WordlistError(
                f"{path} line {lineno}: {len(parts)} cells, the header has {len(header)}"
            )
        rec = dict(zip(header, parts))
        word, language, predicted = rec["word"], rec["language"], rec["predicted_label"]
        try:
            probability = float(rec[score])
        except ValueError as exc:
            raise WordlistError(f"{path} line {lineno}: {exc}") from None
        gold = rec.get("gold_label", "")
        for name, label, allowed in (("predicted_label", predicted, ("0", "1")),
                                     ("gold_label", gold, _LABELS)):
            if label not in allowed:
                raise WordlistError(f"{path} line {lineno}: {name} must be 0/1, got {label!r}")
        rows.append(ReportRow(word, language, probability, int(predicted), _LABELS[gold]))
    return rows


def write_trace(
    entries: Sequence[LexicalEntry], state: DetectionState, path: str | Path
) -> None:
    """Write one language's detection passes: a row per pass and word, in
    pass order, then in the order of ``entries`` (the group ``state`` was
    detected on)."""
    rows = (
        (snap.iteration, e.ipa_text, snap.probabilities[i], snap.averaged[i],
         int(i in snap.loans))
        for snap in state.snapshots
        for i, e in enumerate(entries)
    )
    write_table(path, ["iteration", "word", "P", "P_avg", "in_B"], rows)


def write_wordlist(wordlist: Wordlist, path: str | Path) -> None:
    """Serialize a wordlist in the standard input format (for synth fixtures).

    Every row must load back as its entry: an entry whose IPA tokens
    ``read_back`` reads as other tokens (a token with a separator or
    whitespace in it, or one that merges with its neighbour or splits) is a
    ``WordlistError`` naming the entry and that reading, and nothing is
    written.
    """
    for e in wordlist:
        read = read_back(e.ipa)
        if read != e.ipa:
            show = show_tokens(e.ipa_text)
            raise WordlistError(
                f"entry {show(e.orthography)} has the IPA tokens {show(e.ipa)}, "
                f"which load back as {show(read)}"
            )
    rows = [(e.orthography, e.ipa_text, e.language, e.pos, e.gold_label, e.concept_id)
            for e in wordlist]
    write_table(path, _COLUMNS, rows)


def strip_gold(wordlist: Wordlist) -> Wordlist:
    """Copy of the wordlist with gold labels removed (for blind runs)."""
    return Wordlist(
        [LexicalEntry(e.orthography, e.ipa, e.language, e.pos, None, e.concept_id)
         for e in wordlist]
    )
