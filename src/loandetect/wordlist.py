"""Wordlist parsing, IPA normalization, and report emission.

Input files are delimiter-separated text (TSV by default, CSV behind a
flag) with a header row, UTF-8 encoded; a leading byte-order mark is
skipped. Expected columns: ``orthography``, ``ipa``, ``language``,
``pos``, plus optional ``label`` and ``concept``. A wordlist holds any
number of languages with or without concept ids; only
``crossling.detect_scaled`` reads concepts, and it alone requires them.
Reports are TSV with a ``#``-prefixed header block echoing the resolved
configuration of the run that produced them.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .ipa import tokenize

log = logging.getLogger(__name__)

POS_CATEGORIES = ("noun", "adjective", "verb", "adverb", "function")

# Length and stress markers removed during normalization: IPA length mark,
# ASCII colon, primary stress, secondary stress; and the separators: syllable
# boundary and morpheme boundary. Whitespace goes too.
_STRIP_MARKERS = ("ː", ":", "ˈ", "ˌ", ".", "+")

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
    """Entries from one language (or ``multi``); no (language, IPA, concept) twice."""

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

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def make_wordlist(entries: Sequence[LexicalEntry]) -> Wordlist:
    """Wrap entries in a Wordlist, deriving the language tag."""
    langs = {e.language for e in entries}
    language = langs.pop() if len(langs) == 1 else "multi"
    if not entries:
        language = "empty"
    return Wordlist(entries=tuple(entries), language=language)


def normalize_ipa(raw: str) -> tuple[str, ...]:
    """Remove length/stress markers, separators and whitespace, then tokenize.

    Separators are the syllable boundary ``.``, the morpheme boundary
    ``+`` and whitespace anywhere in the string, so space-segmented IPA
    (``"p a t a"``, the CLDF "Segments" form) gives the same tokens as
    ``"pata"``. Raises ``EmptyTranscriptionError`` when nothing is left.
    Idempotent: feeding the joined output back in returns the same token
    sequence.
    """
    text = raw
    for marker in _STRIP_MARKERS:
        text = text.replace(marker, "")
    text = "".join(text.split())
    if not text:
        raise EmptyTranscriptionError(raw)
    return tuple(tokenize(text))


def load_wordlist(
    path: str | Path,
    schema: Mapping[str, str] | None = None,
    *,
    delimiter: str = "\t",
    lenient_pos: bool = False,
) -> Wordlist:
    """Parse a delimited wordlist file into a validated Wordlist.

    ``schema`` maps the canonical column names (``orthography``, ``ipa``,
    ``language``, ``pos``, ``label``, ``concept``) onto the file's actual
    header names. Rows with missing or unnormalizable IPA are collected
    and reported together in a ``MalformedRowError``. Unknown POS values
    raise unless ``lenient_pos`` is set, in which case they map to
    ``function``. Errors number the non-blank lines after the header
    from 1, so row n is the n-th entry of the wordlist.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    colmap = dict(DEFAULT_SCHEMA)
    if schema:
        colmap.update(schema)

    try:
        return _parse_rows(path, delimiter, colmap, lenient_pos)
    except csv.Error as exc:
        raise WordlistError(f"unparseable delimited file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise WordlistError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_rows(
    path: Path,
    delimiter: str,
    colmap: Mapping[str, str],
    lenient_pos: bool,
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

        # blank lines are skipped before counting: row n is the n-th entry,
        # as crossling.MissingConceptError numbers it
        rows = (row for row in reader if any(c.strip() for c in row))
        for rownum, row in enumerate(rows, start=1):
            raw_ipa = cell(row, "ipa")
            if not raw_ipa:
                errors.append((rownum, "missing IPA"))
                continue
            try:
                ipa = normalize_ipa(raw_ipa)
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


def write_tsv(path: str | Path, lines: Sequence[str]) -> None:
    """Write ``lines`` as a text file, all at once or not at all.

    The text goes to a temporary file in the target's directory, which
    then replaces the target, so a failed write never leaves a partial
    file behind. A failure is raised as an ``OSError`` naming ``path``.
    """
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
    columns: Sequence[tuple[str, Sequence[str]]],
    path: str | Path,
    header_meta: Mapping[str, object] | None,
) -> None:
    """A report: ``header_meta`` as sorted ``# key = value`` lines, then one
    row per word in input order. ``columns`` are (name, formatted cells)
    between the word and language columns and the gold_label column, which
    is written when any entry carries a gold label."""
    if len(wordlist) == 0:
        raise ValueError("refusing to write an empty report")
    if any(len(cells) != len(wordlist) for _, cells in columns):
        raise ValueError("report columns do not align with the wordlist")
    columns = [
        ("word", [e.ipa_text for e in wordlist]),
        ("language", [e.language for e in wordlist]),
        *columns,
    ]
    if any(e.gold_label is not None for e in wordlist):
        columns.append(
            ("gold_label", ["" if e.gold_label is None else str(e.gold_label) for e in wordlist])
        )
    meta = header_meta or {}
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    lines.append("\t".join(name for name, _ in columns))
    lines.extend(map("\t".join, zip(*(cells for _, cells in columns))))
    write_tsv(path, lines)


def _fixed(values: Sequence[float | None]) -> list[str]:
    return ["" if v is None else f"{v:.6f}" for v in values]


def _labels(values: Sequence[int]) -> list[str]:
    return [str(int(v)) for v in values]


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
        [("probability", _fixed(probabilities)), ("predicted_label", _labels(predicted))],
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
        [
            ("concept", [e.concept_id or "" for e in wordlist]),
            ("B", _fixed(basic)),
            ("C", _fixed(comparability)),
            ("S", _fixed(composite)),
            ("theta", _fixed(thresholds)),
            ("predicted_label", _labels(predicted)),
        ],
        path,
        header_meta,
    )


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
        gold = "" if e.gold_label is None else str(e.gold_label)
        cells = [e.orthography, e.ipa_text, e.language, e.pos, gold, e.concept_id or ""]
        lines.append("\t".join(cells))
    write_tsv(path, lines)


def strip_gold(wordlist: Wordlist) -> Wordlist:
    """Copy of the wordlist with gold labels removed (for blind runs)."""
    return make_wordlist([replace(e, gold_label=None) for e in wordlist])
