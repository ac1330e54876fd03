"""Survey data model, CSV ingestion, cleaning and resampling conventions.

A survey row is one rated call: an opinion score (1..5), the call duration,
and a bitvector of problem tokens collected from the end-of-call problem
questionnaire. The questionnaire is never shown for calls rated 5, so a
5-rated call can carry neither tokens nor a submission flag.

A ``SurveyDataset`` is a table of such rows held as columns: call ids,
ratings, durations, submission flags and a boolean token matrix. Those
arrays are the only representation. Construction checks every row against
the survey rules in one vectorized pass, and every transform here slices
the arrays; a per-call predicate is a boolean mask over the columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import closing, nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path
from tempfile import TemporaryFile
from typing import BinaryIO

import csv
import io
import shutil
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError

FIXED_COLUMNS = ("call_id", "rating", "duration_s", "ptq_submitted")
TOKEN_COLUMN_PREFIX = "token_"

POOR_RATING_MAX = 2

# one bit per group in an int64 group-pattern code
MAX_GROUPS = 64

# Default questionnaire: 15 problem tokens covering audio quality, video
# quality, one-way media and reliability (5/5/2/2/1 when grouped).
DEFAULT_TOKENS = (
    "audio.interrupt",
    "audio.distorted",
    "audio.low_volume",
    "audio.echo",
    "audio.noise",
    "video.dark",
    "video.stopped",
    "video.av_sync",
    "video.poor_image",
    "video.freeze",
    "oneway.no_video_recv",
    "oneway.no_video_sent",
    "oneway.no_audio_recv",
    "oneway.no_audio_sent",
    "reliability.drop",
)

_RATINGS = (1, 2, 3, 4, 5)
# CSV rows are parsed and written this many at a time
_BLOCK_ROWS = 4096
# boolean cell text accepted as is; other cells are stripped and lowercased
_BOOL_TEXT = {"0": 0, "1": 1, "false": 0, "true": 1}
_NOT_BOOL = 2
# bytes of a write block's padded call-id field above which it is split
_PAD_BYTES = 1 << 22
# characters that make csv.writer quote a field
_QUOTED_CHARS = b',"\r\n'
# bytes of call ids gathered per step of an index selection; each step
# builds int64 source positions, 8 bytes per byte gathered
_GATHER_BYTES = 1 << 16
# token rows per step of the co-occurrence sum
_GRAM_ROWS = 65_536


@dataclass(frozen=True)
class TokenVocabulary:
    """Ordered problem-token identifiers; column index in a dataset is token id."""

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValidationError("vocabulary must contain at least one token")
        if len(set(names)) != len(names):
            raise ValidationError("token names must be unique")
        if any(not n for n in names):
            raise ValidationError("token names must be non-empty")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown token {name!r}") from None

    def subset(self, keep: Sequence[int]) -> "TokenVocabulary":
        return TokenVocabulary(names=tuple(self.names[i] for i in keep))


def default_vocabulary() -> TokenVocabulary:
    return TokenVocabulary(names=DEFAULT_TOKENS)


def _first_violation(
    ratings: np.ndarray, durations: np.ndarray, ptq: np.ndarray, tokens: np.ndarray
) -> tuple[int, str] | None:
    """Index and message of the first row that breaks a survey rule, or None.

    The message names the first rule that row breaks, in this order: rating
    in 1..5, finite non-negative duration, neither tokens nor a submission
    on a rating of 5, and tokens only with a submission.
    """
    any_token = tokens.any(axis=1)
    five = ratings == 5
    rules = (
        (~np.logical_or.reduce([ratings == r for r in _RATINGS]), "rating"),
        (~((durations >= 0) & (durations < np.inf)), "duration"),
        (five & any_token, "tokens present on rating 5"),
        (five & ptq, "ptq_submitted on rating 5"),
        (any_token & ~ptq, "tokens present without ptq_submitted"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    message = next(message for mask, message in rules if mask[i])
    if message == "rating":
        message = f"rating {ratings[i : i + 1].tolist()[0]!r} outside 1..5"
    elif message == "duration":
        duration = durations[i : i + 1].tolist()[0]
        kind = "negative" if duration < 0 else "non-finite"
        message = f"{kind} duration {duration!r}"
    return i, message


def _column(values, dtype, n: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    if arr.shape != (n,):
        raise ValidationError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """int64 offsets of pieces of ``lengths`` bytes laid end to end, from 0."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False)
class CallIds:
    """Call ids as one UTF-8 byte buffer and int64 offsets: id ``i`` is
    ``data[offsets[i]:offsets[i + 1]]``, and ``offsets[0]`` is 0.

    The analysis never reads an id. ``select`` gathers byte ranges,
    ``write_csv`` writes the bytes and ``load_csv`` cuts them out of the
    file, so an id becomes a ``str`` only when ``tolist()``, iteration or an
    integer index reads it. Both arrays are read-only.

    ``CallIds(data, offsets)`` copies a 1-D ``uint8`` array and a 1-D
    integer array and checks them: the offsets run from 0 to ``len(data)``
    without going down, and the bytes are UTF-8 with every id starting on a
    character. A ``ValidationError`` names the first check that fails.
    """

    data: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        data, offsets = np.asarray(self.data), np.asarray(self.offsets)
        if data.ndim != 1 or data.dtype != np.uint8:
            raise ValidationError(f"call id data must be 1-D uint8, not {data.ndim}-D {data.dtype}")
        if offsets.ndim != 1 or offsets.dtype.kind not in "iu" or not len(offsets):
            raise ValidationError(
                f"call id offsets must be 1-D integers with at least one entry, "
                f"not {offsets.ndim}-D {offsets.dtype} of length {offsets.size}"
            )
        offsets = offsets.astype(np.int64)
        if offsets[0] != 0 or offsets[-1] != len(data) or (np.diff(offsets) < 0).any():
            raise ValidationError(
                f"call id offsets must rise from 0 to {len(data)} without going down"
            )
        try:
            data.tobytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"call ids must be UTF-8 text ({exc.reason})") from None
        # a UTF-8 continuation byte is 0b10xxxxxx
        if (data[offsets[offsets < len(data)]] & 0xC0 == 0x80).any():
            raise ValidationError("call id offsets must not split a UTF-8 character")
        self._freeze(self, data.copy(), offsets)

    @classmethod
    def _adopt(cls, data: np.ndarray, offsets: np.ndarray) -> "CallIds":
        """Ids over a uint8 buffer and int64 offsets that this module built
        and that nothing writes to, such as another ``CallIds``'s read-only
        arrays: no copy and no check."""
        return cls._freeze(object.__new__(cls), data, offsets)

    @staticmethod
    def _freeze(ids: "CallIds", data: np.ndarray, offsets: np.ndarray) -> "CallIds":
        for name, arr in (("data", data), ("offsets", offsets)):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(ids, name, view)
        return ids

    @classmethod
    def from_strings(cls, ids: Iterable[str]) -> "CallIds":
        """The ids of a sequence of strings, encoded in one pass."""
        try:
            ids = list(ids)
            text = np.frombuffer("".join(ids).encode("utf-8"), dtype=np.uint8)
        except TypeError:
            raise ValidationError("call ids must be strings") from None
        except UnicodeEncodeError as exc:
            raise ValidationError(f"call ids must be UTF-8 text ({exc.reason})") from None
        # a character starts at every byte that is not a UTF-8 continuation
        # byte (0b10xxxxxx)
        starts = np.append(np.flatnonzero(text & 0xC0 != 0x80), len(text))
        n_chars = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
        return cls._adopt(text, starts[_offsets(n_chars)])

    @classmethod
    def concat(cls, parts: Sequence["CallIds"]) -> "CallIds":
        data = np.concatenate([np.empty(0, dtype=np.uint8)] + [p.data for p in parts])
        lengths = [np.diff(p.offsets) for p in parts]
        return cls._adopt(data, _offsets(np.concatenate([np.empty(0, dtype=np.int64)] + lengths)))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.tolist())

    def __getitem__(self, key):
        """The id at an integer as a ``str``; the ids of a slice or of an
        index array as ``CallIds``."""
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return self[i : i + 1].tolist()[0]
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                return self._take(np.arange(start, stop, step))
            bounds = self.offsets[start : max(start, stop) + 1]
            return CallIds._adopt(self.data[bounds[0] : bounds[-1]], bounds - bounds[0])
        return self._take(np.asarray(key))

    def tolist(self) -> list[str]:
        """Every id decoded: the one place an id becomes a ``str``."""
        raw = self.data.tobytes()
        bounds = self.offsets.tolist()
        return [raw[a:b].decode("utf-8") for a, b in zip(bounds, bounds[1:])]

    def _take(self, rows: np.ndarray) -> "CallIds":
        starts = self.offsets[:-1][rows]
        lengths = self.offsets[1:][rows] - starts
        offsets = _offsets(lengths)
        data = np.empty(offsets[-1], dtype=np.uint8)
        # each byte's source position, for about _GATHER_BYTES bytes at a
        # time; a cut repeats where one id spans a step
        steps = np.arange(_GATHER_BYTES, offsets[-1], _GATHER_BYTES)
        cuts = np.concatenate(([0], np.searchsorted(offsets, steps), [len(lengths)]))
        for a, b in zip(cuts[:-1], cuts[1:]):
            shift = np.repeat(starts[a:b] - offsets[a:b], lengths[a:b])
            data[offsets[a] : offsets[b]] = self.data[shift + np.arange(offsets[a], offsets[b])]
        return CallIds._adopt(data, offsets)


# masks that keep the k most significant bytes of a uint64, k = 0..8: in a
# little-endian word read from memory, its last k bytes
_HIGH_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _first_duplicate(ids: CallIds) -> tuple[int, int] | None:
    """``(i, j)``: the first row ``i`` whose id is on an earlier row, and the
    first row ``j`` with that id; None when the ids are unique.

    Ids are compared as 8-byte words counted from their ends. One sort of
    every id's last word settles the common case, where no two are equal.
    The rows whose last word is shared are then sorted stably by their class
    so far, their length and their next word, and rows left alone in a
    class drop out, until the words compared cover every id left. Each
    class is then one id, its rows in ascending order.
    """
    starts, ends = ids.offsets[:-1], ids.offsets[1:]
    # words[e] is data[e - 8 : e] as a little-endian uint64, zeros before the
    # data: an unaligned view at every byte of a padded copy
    padded = np.concatenate((np.zeros(8, dtype=np.uint8), ids.data))
    words = np.ndarray((len(ids.data) + 1,), dtype="<u8", buffer=padded, strides=(1,))

    def word(rows, w: int) -> np.ndarray:
        """Word ``w`` from the end of each row's id, its bytes before the id zeroed."""
        end = ends[rows] - 8 * w
        key = words[np.maximum(end, 0)]
        short = end - starts[rows] < 8
        if short.any():
            key[short] &= _HIGH_BYTES[np.clip(end[short] - starts[rows][short], 0, 8)]
        return key

    last = word(slice(None), 0)
    ordered = np.sort(last)
    shared = ordered[1:][ordered[1:] == ordered[:-1]]
    if not len(shared):
        return None
    rows = np.flatnonzero(np.isin(last, shared))
    label = last[rows]
    w = 1
    while True:
        lengths = ends[rows] - starts[rows]
        keys = (word(rows, w), lengths, label)
        order = np.lexsort(keys)
        rows = rows[order]
        keys = [k[order] for k in keys]
        new = np.arange(len(rows)) == 0  # where a class starts
        for k in keys:
            new[1:] |= k[1:] != k[:-1]
        first = np.flatnonzero(new)
        sizes = np.diff(np.append(first, len(rows)))
        keep = np.repeat(sizes > 1, sizes)
        if not keep.any():
            return None
        rows, label = rows[keep], np.cumsum(new)[keep]
        if keys[1][keep].max() <= 8 * (w + 1):
            first = np.flatnonzero(np.diff(label, prepend=-1))
            best = int(np.argmin(rows[first + 1]))
            return int(rows[first[best] + 1]), int(rows[first[best]])
        w += 1


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Immutable columns of rated calls sharing one vocabulary.

    ``call_ids``, ``ratings``, ``durations``, ``ptq_submitted`` (one entry
    per call) and ``token_matrix`` (one row per call, one column per
    vocabulary token) are the data. Construction copies them into read-only
    arrays and rejects the first row that breaks a survey rule. Labels such
    as ``poor_mask`` are always derived, never stored.

    ``call_ids`` is held as ``CallIds``: one UTF-8 byte buffer with int64
    offsets. It is given as ``CallIds``, kept as it is since its arrays are
    read-only copies, or as strings, which are encoded once;
    ``call_ids.tolist()`` or ``call_ids[i]`` decodes them.
    """

    vocabulary: TokenVocabulary
    call_ids: CallIds | Sequence[str]
    ratings: np.ndarray
    durations: np.ndarray
    ptq_submitted: np.ndarray
    token_matrix: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "provenance", tuple(self.provenance))
        raw_ratings = np.asarray(self.ratings)
        n = len(raw_ratings)
        p = len(self.vocabulary)
        call_ids = self.call_ids
        if not isinstance(call_ids, CallIds):
            call_ids = CallIds.from_strings(call_ids)
        if len(call_ids) != n:
            raise ValidationError(f"call_ids has shape ({len(call_ids)},), expected ({n},)")
        durations = _column(self.durations, np.float64, n, "durations")
        ptq = _column(self.ptq_submitted, bool, n, "ptq_submitted")
        tokens = np.array(self.token_matrix, dtype=bool)
        if tokens.shape != (n, p):
            raise ValidationError(
                f"token_matrix has shape {tokens.shape}, expected ({n}, {p})"
            )
        bad = _first_violation(raw_ratings, durations, ptq, tokens)
        if bad is not None:
            i, message = bad
            raise ValidationError(f"record {call_ids[i]!r}: {message}")
        ratings = _column(raw_ratings, np.int64, n, "ratings")
        object.__setattr__(self, "call_ids", call_ids)
        for name, arr in (
            ("ratings", ratings),
            ("durations", durations),
            ("ptq_submitted", ptq),
            ("token_matrix", tokens),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_records(self) -> int:
        return len(self.ratings)

    @property
    def poor_mask(self) -> np.ndarray:
        return self.ratings <= POOR_RATING_MAX

    @cached_property
    def any_token_mask(self) -> np.ndarray:
        """Calls with at least one token; computed once, read-only."""
        mask = self.token_matrix.any(axis=1)
        mask.setflags(write=False)
        return mask

    @cached_property
    def cooccurrence(self) -> np.ndarray:
        """Token co-occurrence counts ``X.T @ X``: the diagonal holds each
        token's count. Float64, which counts exactly below 2**53 rows and,
        unlike int64, goes to BLAS; summed over blocks of ``_GRAM_ROWS``
        rows, so no float copy of the whole matrix is made; computed once,
        read-only."""
        p = len(self.vocabulary)
        gram = np.zeros((p, p))
        for start in range(0, self.n_records, _GRAM_ROWS):
            x = self.token_matrix[start : start + _GRAM_ROWS].astype(np.float64)
            gram += x.T @ x
        gram.setflags(write=False)
        return gram

    def pcr(self) -> float:
        """Poor call rate: share of calls rated 1 or 2."""
        if self.n_records == 0:
            raise ValidationError("PCR undefined on empty dataset")
        return float(self.poor_mask.mean())

    def select(self, indices: Iterable[int], note: str) -> "SurveyDataset":
        """Subset by integer record index, in the order given, repeats kept;
        never invents records. A boolean mask or a non-integer index is a
        ValidationError."""
        if not isinstance(indices, np.ndarray):
            indices = np.asarray(list(indices))
        if indices.size and indices.dtype.kind not in "iu":
            raise ValidationError(f"select takes integer indices, not {indices.dtype} values")
        idx = indices.astype(np.intp, copy=False)
        return self._subset(idx, self.vocabulary, slice(None), note)

    def _subset(self, rows, vocabulary, columns, note: str) -> "SurveyDataset":
        return SurveyDataset(
            vocabulary=vocabulary,
            call_ids=self.call_ids[rows],
            ratings=self.ratings[rows],
            durations=self.durations[rows],
            ptq_submitted=self.ptq_submitted[rows],
            token_matrix=self.token_matrix[rows][:, columns],
            provenance=self.provenance + (note,),
        )


def _parse_bools(cells: Sequence[str]) -> np.ndarray:
    """0/1 flags of boolean cell text; ValueError names the first bad cell.

    The comma-joined text of n cells is read in one ``np.frombuffer`` when
    it has length 2n - 1, a comma at every odd position and only ``0`` or
    ``1`` at every even one: its n - 1 commas are then the separators, so
    each cell is one flag character. Any other text takes the per-cell path.
    """
    n = len(cells)
    text = ",".join(cells)
    if len(text) == 2 * n - 1 and text.isascii() and text[1::2] == "," * (n - 1):
        flags = np.frombuffer(text[::2].encode("ascii"), dtype=np.uint8) - ord("0")
        if flags.max() <= 1:
            return flags.view(bool)
    flags = np.fromiter(
        map(_BOOL_TEXT.get, cells, repeat(_NOT_BOOL)), dtype=np.uint8, count=n
    )
    for i in np.flatnonzero(flags == _NOT_BOOL).tolist():
        value = _BOOL_TEXT.get(cells[i].strip().lower())
        if value is None:
            raise ValueError(cells[i])
        flags[i] = value
    return flags.view(bool)


class _RowError(ValueError):
    """A CSV row check failed; the message names the check."""


def _parse_cells(cells: Sequence[str], parse, dtype, check: str) -> np.ndarray:
    """``parse`` of each cell; _RowError names ``check`` and the first bad cell.
    An integer beyond int64 is kept, in an object array, for the range check."""
    try:
        return np.fromiter(map(parse, cells), dtype=dtype, count=len(cells))
    except (ValueError, OverflowError):
        values = np.empty(len(cells), dtype=object)
    for i, cell in enumerate(cells):
        try:
            values[i] = parse(cell)
        except ValueError:
            raise _RowError(f"{check} {cell!r}") from None
    return values


def _flag_cells(cells: Sequence[str], column: str) -> np.ndarray:
    try:
        return _parse_bools(cells)
    except ValueError as exc:
        raise _RowError(f"bad boolean {exc.args[0]!r} in column {column}") from None


def _empty_columns(p: int, rows: int = 0) -> tuple[np.ndarray, ...]:
    """Ratings, durations, flags and tokens for ``rows`` rows of ``p``
    tokens, their numbers unset."""
    return (
        np.empty(rows, dtype=np.int64),
        np.empty(rows, dtype=np.float64),
        np.empty(rows, dtype=bool),
        np.empty((rows, p), dtype=bool),
    )


def _block_columns(rows: list[list[str]], n_fields: int, token_src, names):
    """Columns of a block of CSV rows.

    The checks run column by column, in this order: field count, rating,
    duration, submission flag, the token columns in vocabulary order, then
    the survey rules. The first that fails raises _RowError naming it; for a
    one-row block the message names that row's cell.
    """
    if set(map(len, rows)) != {n_fields}:
        got = next(len(row) for row in rows if len(row) != n_fields)
        raise _RowError(f"expected {n_fields} fields, got {got}")
    cols = list(zip(*rows))
    ratings = _parse_cells(cols[1], int, np.int64, "bad rating")
    durations = _parse_cells(cols[2], float, np.float64, "bad duration")
    ptq = _flag_cells(cols[3], "ptq_submitted")
    tokens = np.zeros((len(rows), len(names)), dtype=bool)
    for j, (name, src) in enumerate(zip(names, token_src)):
        column = TOKEN_COLUMN_PREFIX + name
        if src is not None:
            tokens[:, j] = _flag_cells(cols[len(FIXED_COLUMNS) + src], column)
        elif ptq.any():
            raise _RowError(f"token column {column} missing but ptq_submitted is true")
    bad = _first_violation(ratings, durations, ptq, tokens)
    if bad is not None:
        raise _RowError(bad[1])
    return CallIds.from_strings(cols[0]), ratings, durations, ptq, tokens


def _line_num(fh: BinaryIO, rows: int | None = None) -> int:
    """csv.reader's count of physical lines after the first ``rows`` rows of
    the file (all of them when None), or at its first error.

    Used on the error path only: the open file is read again from its start
    because a quoted field can hold line breaks. Bytes that are not UTF-8
    are replaced, so they cannot move the error named, which the first pass
    found before them.
    """
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8", errors="replace", newline="")
    try:
        reader = csv.reader(text)
        try:
            for _ in islice(reader, rows):
                pass
        except csv.Error:
            pass
        return reader.line_num
    finally:
        text.detach()


def _first_line(fh: BinaryIO, row: int) -> int:
    """Physical line on which data row ``row`` (from 0) starts."""
    return _line_num(fh, row + 1) + 1  # after the header and earlier rows


def _header_checks(header: list[str] | None, vocabulary: TokenVocabulary | None):
    """The vocabulary of a header row, and the checks ``_block_columns`` and
    ``_plain_columns`` take: the field count, the file column of each
    vocabulary token (None when absent) and the token names."""
    if header is None:
        raise ValidationError("line 1: missing header row")
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise ValidationError(
            f"line 1: header must start with {','.join(FIXED_COLUMNS)}"
        )
    token_cols = header[len(FIXED_COLUMNS) :]
    for c in token_cols:
        if not c.startswith(TOKEN_COLUMN_PREFIX):
            raise ValidationError(f"line 1: unexpected column {c!r}")
    file_slugs = [c[len(TOKEN_COLUMN_PREFIX) :] for c in token_cols]
    if len(set(file_slugs)) != len(file_slugs):
        raise ValidationError("line 1: duplicate token columns")
    if vocabulary is None:
        if file_slugs:
            vocabulary = TokenVocabulary(names=tuple(file_slugs))
        else:
            raise ValidationError("line 1: no token columns and no vocabulary given")
    else:
        unknown = [s for s in file_slugs if s not in vocabulary.names]
        if unknown:
            raise ValidationError(f"line 1: unknown token columns {unknown}")
    pos = {s: i for i, s in enumerate(file_slugs)}
    return vocabulary, (len(header), [pos.get(name) for name in vocabulary.names], vocabulary.names)


def _plain_columns(buf: bytes, n_fields: int, token_src, names):
    """Columns of a block of whole lines, read from its bytes, or None.

    A block is read here when it holds no quote, NUL or lone CR, every line
    has ``n_fields - 1`` commas, every rating is one digit 1..5 and every
    flag one character 0/1, no field is longer than
    ``csv.field_size_limit()``, the block is UTF-8 and every row keeps the
    survey rules. The columns are then those ``_block_columns`` makes of the
    block's csv.reader rows; the call ids are cut out as bytes and never
    decoded one by one. Any other block gives None.
    """
    if b'"' in buf or b"\0" in buf:
        return None
    b = np.frombuffer(buf if buf.endswith(b"\n") else buf + b"\n", dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    if b"\r" in buf and (b[np.flatnonzero(b == ord("\r")) + 1] != ord("\n")).any():
        return None  # a lone CR
    commas = np.flatnonzero(b == ord(","))
    n, m = len(ends), n_fields - 3  # lines, and flags on each line
    if len(commas) != n * (n_fields - 1):
        return None
    # A line is: call id, comma c0, rating, comma c1, duration, and a tail of
    # m commas each before one flag, up to the CR or LF at ``last``. When
    # every row of c has such a tail ending at its line's ``last``, each
    # line holds its own n_fields - 1 commas and every field lies between
    # them. A rating byte other than 1..5 is left to the survey rules.
    c = commas.reshape(n, n_fields - 1)
    starts = np.append(0, ends[:-1] + 1)
    last = ends - (b[ends - 1] == ord("\r"))
    limit = csv.field_size_limit()
    if not (
        (c[:, 2] + 2 * m == last).all()
        and (c[:, 1] == c[:, 0] + 2).all()
        and (c[:, 0] - starts <= limit).all()
        and (c[:, 2] - c[:, 1] <= limit + 1).all()
    ):
        return None
    tail = sliding_window_view(b, 2 * m)[c[:, 2]]
    flags = tail[:, 1::2] - ord("0")  # a byte below "0" wraps above 9
    if not ((tail[:, ::2] == ord(",")).all() and flags.max() <= 1):
        return None
    ratings = b[c[:, 0] + 1].astype(np.int64) - ord("0")
    # each line's bytes in four parts: the call id (1), the commas around the
    # rating, the duration with the comma after it (2), and the flag tail
    id_len = c[:, 0] - starts
    parts = np.column_stack((id_len, np.full(n, 3), c[:, 2] - c[:, 1], ends - c[:, 2]))
    part = np.repeat(np.tile(np.array((1, 0, 2, 0), dtype=np.uint8), n), parts.ravel())
    try:
        if not buf.isascii():
            buf.decode("utf-8")  # checks the ids, which stay bytes
        cells = b[part == 2].tobytes().decode("utf-8").split(",")
        durations = np.fromiter(map(float, cells), dtype=np.float64, count=n)
    except ValueError:  # UnicodeDecodeError too
        return None
    ptq = flags[:, 0].astype(bool)
    tokens = np.zeros((n, len(names)), dtype=bool)
    for j, src in enumerate(token_src):
        if src is not None:
            tokens[:, j] = flags[:, 1 + src]
        elif ptq.any():
            return None
    if _first_violation(ratings, durations, ptq, tokens) is not None:
        return None
    return CallIds._adopt(b[part == 1], _offsets(id_len)), ratings, durations, ptq, tokens


def _csv_blocks(reader) -> Iterator[list[list[str]]]:
    """Rows of a csv.reader, ``_BLOCK_ROWS`` at a time. A csv.Error is raised
    after the rows read before it are yielded, so an earlier bad row is
    named first."""
    while True:
        rows: list[list[str]] = []
        try:
            for row in islice(reader, _BLOCK_ROWS):
                rows.append(row)
        except csv.Error:
            if rows:
                yield rows
            raise
        if not rows:
            return
        yield rows


def _text_blocks(fh: BinaryIO, skip_rows: int = 0) -> Iterator[list[list[str]]]:
    """``_csv_blocks`` of the binary file ``fh`` from its position on, after
    ``skip_rows`` rows."""
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        reader = csv.reader(text)
        next(islice(reader, skip_rows, skip_rows), None)
        yield from _csv_blocks(reader)
    finally:
        text.detach()  # fh stays open, for its owner to close


def _line_blocks(fh: BinaryIO, checks) -> Iterator:
    """Columns of each block of ``_BLOCK_ROWS`` lines that ``_plain_columns``
    reads. From the first block it refuses on, csv.reader rows of the rest
    of the file, as a quoted field may span lines."""
    for buf in iter(lambda: b"".join(islice(fh, _BLOCK_ROWS)), b""):
        columns = _plain_columns(buf, *checks)
        if columns is None:
            fh.seek(fh.tell() - len(buf))
            yield from _text_blocks(fh)
            return
        yield columns


def _checked_columns(blocks: Iterator, fh: BinaryIO, checks) -> Iterator[tuple[np.ndarray, ...]]:
    """Columns of each block: as read from the bytes, or ``_block_columns``
    of csv.reader rows. A block of rows that fails a check is run again one
    row at a time through the same checks, and the first row to fail is
    named with its line."""
    first_row = 0  # data-row index of the block's first row
    for block in blocks:
        if isinstance(block, tuple):  # columns read from the bytes
            first_row += len(block[0])
            yield block
            continue
        try:
            yield _block_columns(block, *checks)
        except _RowError:
            for row_index, row in enumerate(block, first_row):
                try:
                    yield _block_columns([row], *checks)
                except _RowError as exc:
                    line = _first_line(fh, row_index)
                    raise ValidationError(f"line {line}: {exc}") from None
        first_row += len(block)
        del block  # free this block's strings before reading the next


def _read_survey(fh: BinaryIO, path: Path, vocabulary: TokenVocabulary | None) -> SurveyDataset:
    line1 = fh.readline()
    head = [] if b'"' in line1 else list(csv.reader(io.StringIO(line1.decode("utf-8"), newline="")))
    plain = b'"' not in line1 and len(head) <= 1
    if not plain:  # a quote or a lone CR on line 1: csv.reader reads the whole file
        fh.seek(0)
        with closing(_text_blocks(fh)) as rows:
            head = next(rows, [])[:1]
    vocabulary, checks = _header_checks(next(iter(head), None), vocabulary)
    # Each block is copied into columns sized by the file's line count, so
    # no block's arrays outlive it and none are joined at the end. A quoted
    # line break merges lines into one row; a lone CR splits one line into
    # rows and can make the columns grow. The header's line end stands for
    # a last line without one.
    fh.seek(0)
    size = sum(
        np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
        for chunk in iter(lambda: fh.read(1 << 20), b"")
    )
    columns = _empty_columns(len(vocabulary), size)
    id_blocks = []  # joined at the end, as their byte count is not known ahead
    n = 0
    fh.seek(len(line1) if plain else 0)  # _text_blocks skips the header row itself
    blocks = _line_blocks(fh, checks) if plain else _text_blocks(fh, skip_rows=1)
    with closing(blocks):  # lets go of fh before it is closed, on an error too
        for ids, *block in _checked_columns(blocks, fh, checks):
            k = len(ids)
            if n + k > len(columns[0]):
                grown = _empty_columns(len(vocabulary), 2 * (n + k))
                for new, old in zip(grown, columns):
                    new[:n] = old[:n]
                columns = grown
            for column, part in zip(columns, block):
                column[n : n + k] = part
            id_blocks.append(ids)
            n += k
    ratings, durations, ptq, tokens = (column[:n] for column in columns)
    del columns
    call_ids = CallIds.concat(id_blocks)
    del id_blocks

    duplicate = _first_duplicate(call_ids)
    if duplicate is not None:
        i, j = duplicate
        raise ValidationError(
            f"line {_first_line(fh, i)}: duplicate call_id {call_ids[i]!r}, "
            f"first on line {_first_line(fh, j)}"
        )
    return SurveyDataset(
        vocabulary=vocabulary,
        call_ids=call_ids,
        ratings=ratings,
        durations=durations,
        ptq_submitted=ptq,
        token_matrix=tokens,
        provenance=(f"load_csv({path}, rows={len(ratings)})",),
    )


def _undecodable_line(fh: BinaryIO) -> int | None:
    fh.seek(0)
    for line_no, raw in enumerate(fh, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return line_no
    return None


def load_csv(path: str | Path, vocabulary: TokenVocabulary | None = None) -> SurveyDataset:
    """Read a survey CSV.

    Expected header: ``call_id,rating,duration_s,ptq_submitted,token_<slug>...``.
    Unknown token columns are rejected. A token column missing from the file
    is filled false, but only for rows that did not submit the questionnaire.
    Booleans are ``0``/``1`` or ``true``/``false`` in any case, with
    surrounding blanks allowed. Call ids must be unique; they are held as
    ``CallIds``, one UTF-8 byte buffer with offsets, and duplicates are found
    by a sort of 8-byte words of those bytes, so no id is decoded unless an
    error names it.

    The file is read in blocks of ``_BLOCK_ROWS`` lines. A plain block, as
    ``write_csv`` writes for ids without a comma, quote, CR, LF or NUL, is
    read from its bytes in numpy: no quote, NUL or lone CR, a one-digit
    rating 1..5 and one-character ``0``/``1`` flags on every line, and rows
    that keep the survey rules. From the first block that is not plain on,
    ``csv.reader`` reads the rest of the file, as a quoted field may span
    lines. Both give the same dataset and the same errors. Rows
    are checked column-wise a block at a time; a failing block is read again
    row by row through the same checks, and the first invalid row raises
    ``ValidationError`` naming its physical line (right after quoted line
    breaks) and the first check it fails. A row ``csv.reader`` cannot read
    is reported only when no row before it fails a check.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with open(path, "rb") as src, nullcontext(src) if src.seekable() else TemporaryFile() as fh:
        if fh is not src:  # a pipe, copied to a file as the file is read more than once
            shutil.copyfileobj(src, fh)
            fh.seek(0)
        try:
            return _read_survey(fh, path, vocabulary)
        except csv.Error as exc:
            raise ValidationError(f"line {_line_num(fh)}: {exc}") from None
        except UnicodeDecodeError as exc:
            line_no = _undecodable_line(fh)
            where = f"line {line_no}: " if line_no is not None else ""
            raise ValidationError(f"{where}not UTF-8 text ({exc.reason})") from None


def _place(field: np.ndarray, data: np.ndarray, lengths: np.ndarray) -> None:
    """Write ``data``, the concatenated pieces of ``lengths`` bytes, one piece
    to the left of each row of ``field``; the rest of a row keeps its padding."""
    field[np.arange(field.shape[1]) < lengths[:, None]] = data


def _csv_rows(
    ids: CallIds, ratings: np.ndarray, durations: list[float], flags: np.ndarray
) -> np.ndarray:
    """The bytes ``csv.writer`` writes for a block of rows, as one uint8 array.

    Each row is laid out in one row of a matrix: the call id, ``,rating,``,
    the duration's repr with its comma, and ``ptq,t1,...,tp\\r\\n``. The id
    and the repr are left-aligned in fields as wide as their longest in the
    block, padded with 0xFF, a byte that never occurs in UTF-8; one boolean
    compress drops it. The matrix thus holds rows times the longest id; a
    block where that passes ``_PAD_BYTES`` is assembled in halves, so one very
    long id widens only the rows next to it. ``SurveyDataset`` keeps
    ratings in 1..5 and durations finite and non-negative, so a rating is one
    ASCII digit and a repr is ASCII text without a comma.
    """
    text, bounds = ids.data, ids.offsets
    # an id holding one of _QUOTED_CHARS is quoted and its quotes doubled: a
    # quote goes in before each quote and at both ends of each quoted id
    specials = np.flatnonzero(np.isin(text, list(_QUOTED_CHARS)))
    quoted = np.diff(np.searchsorted(specials, bounds)) > 0
    quotes = np.flatnonzero(text == ord('"'))
    id_len = np.diff(bounds) + np.diff(np.searchsorted(quotes, bounds)) + 2 * quoted
    if len(ids) > 1 and id_len.max() * len(ids) > _PAD_BYTES:
        h = len(ids) // 2
        return np.concatenate((
            _csv_rows(ids[:h], ratings[:h], durations[:h], flags[:h]),
            _csv_rows(ids[h:], ratings[h:], durations[h:], flags[h:]),
        ))
    text = np.insert(
        text, np.concatenate((quotes, bounds[:-1][quoted], bounds[1:][quoted])), ord('"')
    )
    reprs = np.frombuffer((",".join(map(repr, durations)) + ",").encode("ascii"), dtype=np.uint8)
    repr_len = np.diff(np.flatnonzero(reprs == ord(",")), prepend=-1)

    w_id, w_repr = id_len.max(), repr_len.max()
    rows = np.full((len(ids), w_id + w_repr + 2 * flags.shape[1] + 4), 0xFF, dtype=np.uint8)
    _place(rows[:, :w_id], text, id_len)
    rows[:, w_id : w_id + 3 : 2] = ord(",")
    rows[:, w_id + 1] = ratings + ord("0")
    _place(rows[:, w_id + 3 : w_id + 3 + w_repr], reprs, repr_len)
    tail = rows[:, w_id + 3 + w_repr :]
    tail[:, 1:-2:2] = ord(",")
    tail[:, :-2:2] = flags + ord("0")
    tail[:, -2:] = (ord("\r"), ord("\n"))
    return rows[rows != 0xFF]


def write_csv(ds: SurveyDataset, path: str | Path) -> None:
    """Write a dataset in the canonical CSV schema (booleans as 0/1).

    The bytes are those ``csv.writer`` writes in its default dialect: rows
    end in ``\\r\\n``, durations are ``repr(float)``, and a call id holding a
    comma, a quote or a line break is quoted. Rows are assembled as bytes in
    numpy, ``_BLOCK_ROWS`` at a time, each block written at once; the call
    ids are copied from their byte buffer, each block's cut at its offsets,
    and never decoded. ``repr(float)`` is the one step taken row by row.
    """
    header = io.StringIO()
    csv.writer(header).writerow(
        list(FIXED_COLUMNS) + [TOKEN_COLUMN_PREFIX + n for n in ds.vocabulary.names]
    )
    flags = np.column_stack([ds.ptq_submitted, ds.token_matrix]).view(np.uint8)
    with open(path, "wb") as fh:
        fh.write(header.getvalue().encode("utf-8"))
        for start in range(0, ds.n_records, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fh.write(_csv_rows(
                ds.call_ids[block],
                ds.ratings[block],
                ds.durations[block].tolist(),
                flags[block],
            ))


def clean_uninformative(
    ds: SurveyDataset, min_positives: int = 10
) -> tuple[SurveyDataset, tuple[str, ...]]:
    """Drop tokens too sparse (or constant) to estimate a latent correlation.

    A token is kept when it is set on at least ``min_positives`` records and
    is not set on every record. The removal list is returned for reporting.
    """
    n = ds.n_records
    counts = np.diagonal(ds.cooccurrence)
    informative = (counts >= min_positives) & ((counts < n) | (n == 0))
    keep = np.flatnonzero(informative).tolist()
    removed = tuple(n for n, ok in zip(ds.vocabulary.names, informative) if not ok)
    if not keep:
        raise ValidationError("no informative tokens")
    if not removed:
        return ds, ()
    note = f"clean_uninformative(min_positives={min_positives}): removed {list(removed)}"
    return ds._subset(slice(None), ds.vocabulary.subset(keep), keep, note), removed


def _downsample(ds: SurveyDataset, keep, pool, size: int, seed: int, note: str):
    """Records ``keep`` and ``size`` drawn without replacement from ``pool``
    (all of it when ``size`` covers it), in record order."""
    if size < len(pool):
        pool = np.random.default_rng(seed).choice(pool, size=size, replace=False)
    return ds.select(np.sort(np.concatenate([keep, pool])), note)


def balance_resample(ds: SurveyDataset, seed: int) -> SurveyDataset:
    """Downsample the majority class so poor and good calls are equal in count."""
    poor = np.flatnonzero(ds.poor_mask)
    good = np.flatnonzero(~ds.poor_mask)
    if len(poor) == 0 or len(good) == 0:
        raise ValidationError("both poor and good calls required to balance")
    minority, majority = (good, poor) if len(poor) > len(good) else (poor, good)
    m = len(minority)
    note = f"balance_resample(seed={seed}): poor={len(poor)}, good={len(good)} -> {m}/{m}"
    return _downsample(ds, minority, majority, m, seed, note)


def restrict_tokened_poor(ds: SurveyDataset, seed: int) -> SurveyDataset:
    """Keep only poor calls with questionnaire feedback, preserving the PCR.

    Good calls are downsampled by the poor-call retention fraction so the
    output PCR equals the input PCR up to one-record rounding.
    """
    poor = ds.poor_mask
    n_poor = int(poor.sum())
    kept_poor = np.flatnonzero(poor & ds.ptq_submitted)
    if len(kept_poor) == 0:
        raise ValidationError("no tokened poor calls")
    good_idx = np.flatnonzero(~poor)
    # at most len(good_idx), as the fraction is at most 1
    n_good_keep = int(round(len(kept_poor) / n_poor * len(good_idx)))
    note = (
        f"restrict_tokened_poor(seed={seed}): poor {n_poor} -> "
        f"{len(kept_poor)}, good {len(good_idx)} -> {n_good_keep}"
    )
    return _downsample(ds, kept_poor, good_idx, n_good_keep, seed, note)


def group_patterns(
    tokens: np.ndarray, members: Sequence[Sequence[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct group-indicator patterns of a token matrix's rows, and each
    row's pattern index.

    The patterns are the ``group_codes`` that occur, in ascending order, as
    ``code_indicators`` rows.
    """
    patterns, row_pattern = np.unique(group_codes(tokens, members), return_inverse=True)
    return code_indicators(patterns, len(members)), row_pattern


def group_codes(tokens: np.ndarray, members: Sequence[Sequence[int]]) -> np.ndarray:
    """Each token row's int64 group-pattern code: bit g is set when any
    token column in ``members[g]`` fires, so at most ``MAX_GROUPS`` groups
    fit."""
    codes = np.zeros(len(tokens), dtype=np.int64)
    for g, cols in enumerate(members):
        codes |= tokens[:, cols].any(axis=1).astype(np.int64) << g
    return codes


def code_indicators(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """float64 group-indicator rows of group-pattern codes."""
    return (codes[:, None] >> np.arange(n_groups) & 1).astype(np.float64)
