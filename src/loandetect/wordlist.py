"""Wordlist parsing, IPA normalization, and report emission.

Input files are delimiter-separated text (TSV by default, CSV behind a
flag) with a header row, UTF-8 encoded; a leading byte-order mark is
skipped. Expected columns: ``orthography``, ``ipa``, ``language``,
``pos``, plus optional ``label`` and ``concept``.
Reports are TSV with a ``#``-prefixed header block echoing the resolved
configuration of the run that produced them.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .ipa import SymbolInventory, tokenize

log = logging.getLogger(__name__)

POS_CATEGORIES = ("noun", "adjective", "verb", "adverb", "function")

# Length and stress markers removed during normalization: IPA length mark,
# ASCII colon, primary stress, secondary stress.
_STRIP_MARKERS = ("ː", ":", "ˈ", "ˌ")

DEFAULT_SCHEMA: Mapping[str, str] = {
    "orthography": "orthography",
    "ipa": "ipa",
    "language": "language",
    "pos": "pos",
    "label": "label",
    "concept": "concept",
}


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
    def __init__(self, value: str, row: int):
        self.value = value
        self.row = row
        super().__init__(f"row {row}: unknown POS {value!r}")


class EmptyTranscriptionError(WordlistError):
    """IPA string empty after marker stripping."""


@dataclass(frozen=True)
class LexicalEntry:
    """One wordlist row: a word with its transcription and metadata."""

    orthography: str
    ipa: tuple[str, ...]
    language: str
    pos: str
    gold_label: int | None = None
    concept_id: str | None = None

    def __post_init__(self) -> None:
        if not self.ipa:
            raise EmptyTranscriptionError(self.orthography)
        if self.pos not in POS_CATEGORIES:
            raise UnknownPOSError(self.pos, -1)
        if self.gold_label not in (None, 0, 1):
            raise WordlistError(f"gold label must be 0/1, got {self.gold_label!r}")

    @property
    def ipa_text(self) -> str:
        return "".join(self.ipa)


@dataclass(frozen=True)
class Wordlist:
    """An ordered collection of entries from one language (or ``multi``)."""

    entries: tuple[LexicalEntry, ...]
    language: str

    def __post_init__(self) -> None:
        seen: set[tuple[str, tuple[str, ...], str | None]] = set()
        for e in self.entries:
            key = (e.language, e.ipa, e.concept_id)
            if key in seen:
                raise WordlistError(
                    f"duplicate entry {e.language}/{e.ipa_text}/{e.concept_id}"
                )
            seen.add(key)
        if self.language == "multi":
            missing = [i for i, e in enumerate(self.entries) if e.concept_id is None]
            if missing:
                raise MalformedRowError(
                    [(i, "multilingual entry without concept id") for i in missing]
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def languages(self) -> list[str]:
        out: list[str] = []
        for e in self.entries:
            if e.language not in out:
                out.append(e.language)
        return out

    def words(self) -> list[tuple[str, ...]]:
        return [e.ipa for e in self.entries]


def make_wordlist(entries: Sequence[LexicalEntry]) -> Wordlist:
    """Wrap entries in a Wordlist, deriving the language tag."""
    langs = {e.language for e in entries}
    language = langs.pop() if len(langs) == 1 else "multi"
    if not entries:
        language = "empty"
    return Wordlist(entries=tuple(entries), language=language)


def normalize_ipa(
    raw: str, inventory: SymbolInventory | None = None
) -> tuple[str, ...]:
    """Strip length/stress markers and surrounding whitespace, then tokenize.

    Whitespace is stripped after the markers are removed, so none that a
    marker hid survives at either end. Raises ``EmptyTranscriptionError``
    when nothing is left after stripping. Idempotent: feeding the joined
    output back in returns the same token sequence.
    """
    text = raw
    for marker in _STRIP_MARKERS:
        text = text.replace(marker, "")
    text = text.strip()
    if not text:
        raise EmptyTranscriptionError(raw)
    return tuple(tokenize(text, inventory))


def load_wordlist(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
    *,
    delimiter: str = "\t",
    lenient_pos: bool = False,
    inventory: SymbolInventory | None = None,
) -> Wordlist:
    """Parse a delimited wordlist file into a validated Wordlist.

    ``schema`` maps the canonical column names (``orthography``, ``ipa``,
    ``language``, ``pos``, ``label``, ``concept``) onto the file's actual
    header names. Rows with missing or unnormalizable IPA are collected
    and reported together in a ``MalformedRowError``. Unknown POS values
    raise unless ``lenient_pos`` is set, in which case they map to
    ``function``.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)

    try:
        return _parse_rows(path, delimiter, colmap, lenient_pos, inventory)
    except csv.Error as exc:
        raise WordlistError(f"unparseable delimited file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WordlistError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_rows(
    path: Path,
    delimiter: str,
    colmap: Mapping[str, str],
    lenient_pos: bool,
    inventory: SymbolInventory | None,
) -> Wordlist:
    entries: list[LexicalEntry] = []
    errors: list[tuple[int, str]] = []
    # utf-8-sig: a byte-order mark would otherwise glue onto the first column name
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            return make_wordlist([])
        index = {name.strip(): i for i, name in enumerate(header)}
        for canonical in ("orthography", "ipa", "language", "pos"):
            if colmap[canonical] not in index:
                raise WordlistError(
                    f"missing required column {colmap[canonical]!r} in {path}"
                )

        def cell(row: list[str], canonical: str) -> str:
            i = index.get(colmap[canonical])
            if i is None or i >= len(row):
                return ""
            return row[i].strip()

        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            raw_ipa = cell(row, "ipa")
            if not raw_ipa:
                errors.append((rownum, "missing IPA"))
                continue
            try:
                ipa = normalize_ipa(raw_ipa, inventory)
            except EmptyTranscriptionError:
                errors.append((rownum, f"IPA empty after normalization: {raw_ipa!r}"))
                continue
            pos = cell(row, "pos").lower()
            if pos not in POS_CATEGORIES:
                if lenient_pos:
                    log.warning("row %d: unknown POS %r mapped to 'function'", rownum, pos)
                    pos = "function"
                else:
                    raise UnknownPOSError(pos, rownum)
            label_text = cell(row, "label")
            gold: int | None = None
            if label_text != "":
                if label_text not in ("0", "1"):
                    errors.append((rownum, f"label must be 0/1, got {label_text!r}"))
                    continue
                gold = int(label_text)
            concept = cell(row, "concept") or None
            entries.append(
                LexicalEntry(
                    orthography=cell(row, "orthography"),
                    ipa=ipa,
                    language=cell(row, "language"),
                    pos=pos,
                    gold_label=gold,
                    concept_id=concept,
                )
            )
    if errors:
        raise MalformedRowError(errors)
    return make_wordlist(entries)


# --- Reports ------------------------------------------------------------------


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
    if len(wordlist) == 0:
        raise ValueError("refusing to write an empty report")
    if not (len(wordlist) == len(probabilities) == len(predicted)):
        raise ValueError("probabilities/labels do not align with the wordlist")
    has_gold = any(e.gold_label is not None for e in wordlist)
    lines: list[str] = []
    for key in sorted(header_meta or {}):
        lines.append(f"# {key} = {header_meta[key]}")
    columns = ["word", "language", "probability", "predicted_label"]
    if has_gold:
        columns.append("gold_label")
    lines.append("\t".join(columns))
    for entry, prob, label in zip(wordlist, probabilities, predicted):
        row = [entry.ipa_text, entry.language, f"{prob:.6f}", str(int(label))]
        if has_gold:
            row.append("" if entry.gold_label is None else str(entry.gold_label))
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    if len(wordlist) == 0:
        raise ValueError("refusing to write an empty report")
    has_gold = any(e.gold_label is not None for e in wordlist)
    lines: list[str] = []
    for key in sorted(header_meta or {}):
        lines.append(f"# {key} = {header_meta[key]}")
    columns = ["word", "language", "concept", "B", "C", "S", "theta", "predicted_label"]
    if has_gold:
        columns.append("gold_label")
    lines.append("\t".join(columns))
    for i, entry in enumerate(wordlist):
        c = comparability[i]
        row = [
            entry.ipa_text,
            entry.language,
            entry.concept_id or "",
            f"{basic[i]:.6f}",
            "" if c is None else f"{c:.6f}",
            f"{composite[i]:.6f}",
            f"{thresholds[i]:.6f}",
            str(int(predicted[i])),
        ]
        if has_gold:
            row.append("" if entry.gold_label is None else str(entry.gold_label))
        lines.append("\t".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ReportRow:
    word: str
    language: str
    probability: float
    predicted_label: int
    gold_label: int | None


def read_report(path: str | Path) -> list[ReportRow]:
    """Load a detection report back (used by eval and round-trip checks)."""
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
            continue
        rec = dict(zip(header, parts))
        gold = rec.get("gold_label", "")
        try:
            rows.append(
                ReportRow(
                    word=rec["word"],
                    language=rec["language"],
                    probability=float(rec.get("probability", rec.get("S", "0"))),
                    predicted_label=int(rec["predicted_label"]),
                    gold_label=int(gold) if gold not in ("", None) else None,
                )
            )
        except KeyError as exc:
            raise WordlistError(f"{path}: report has no column {exc}") from None
        except ValueError as exc:
            raise WordlistError(f"{path} line {lineno}: {exc}") from None
    return rows


def write_wordlist(wordlist: Wordlist, path: str | Path) -> None:
    """Serialize a wordlist in the standard input format (for synth fixtures)."""
    lines = ["\t".join(["orthography", "ipa", "language", "pos", "label", "concept"])]
    for e in wordlist:
        lines.append(
            "\t".join(
                [
                    e.orthography,
                    e.ipa_text,
                    e.language,
                    e.pos,
                    "" if e.gold_label is None else str(e.gold_label),
                    e.concept_id or "",
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def strip_gold(wordlist: Wordlist) -> Wordlist:
    """Copy of the wordlist with gold labels removed (for blind runs)."""
    return make_wordlist([replace(e, gold_label=None) for e in wordlist])
