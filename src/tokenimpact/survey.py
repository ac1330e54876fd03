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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from pathlib import Path

import csv
import numpy as np

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
# characters that make csv.writer quote a field
_QUOTED_CHARS = (",", '"', "\r", "\n")


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


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Immutable columns of rated calls sharing one vocabulary.

    ``call_ids``, ``ratings``, ``durations``, ``ptq_submitted`` (one entry
    per call) and ``token_matrix`` (one row per call, one column per
    vocabulary token) are the data. Construction copies them into read-only
    arrays and rejects the first row that breaks a survey rule. Labels such
    as ``poor_mask`` are always derived, never stored.
    """

    vocabulary: TokenVocabulary
    call_ids: np.ndarray
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
        call_ids = _column(self.call_ids, object, n, "call_ids")
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
        for name, arr in (
            ("call_ids", call_ids),
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
        unlike int64, goes to BLAS; computed once, read-only."""
        x = self.token_matrix.astype(np.float64)
        gram = x.T @ x
        gram.setflags(write=False)
        return gram

    def pcr(self) -> float:
        """Poor call rate: share of calls rated 1 or 2."""
        if self.n_records == 0:
            raise ValidationError("PCR undefined on empty dataset")
        return float(self.poor_mask.mean())

    def select(self, indices: Iterable[int], note: str) -> "SurveyDataset":
        """Subset by record index, preserving order; never invents records."""
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.intp)
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


def _empty_columns(p: int) -> tuple[np.ndarray, ...]:
    return (
        np.empty(0, dtype=object),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=bool),
        np.empty((0, p), dtype=bool),
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
    return np.array(cols[0], dtype=object), ratings, durations, ptq, tokens


def _first_line(path: Path, row: int) -> int:
    """Physical line on which data row ``row`` (from 0) starts, read again
    from the file because a quoted field can hold line breaks."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(islice(reader, row + 1, row + 1), None)  # the header and earlier rows
        return reader.line_num + 1


def _read_survey(reader, path: Path, vocabulary: TokenVocabulary | None) -> SurveyDataset:
    header = next(reader, None)
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
    # column position of each vocabulary token, None when absent
    pos = {s: i for i, s in enumerate(file_slugs)}
    checks = (len(header), [pos.get(name) for name in vocabulary.names], vocabulary.names)

    blocks = [_empty_columns(len(vocabulary))]
    first_row = 0  # data-row index of the block's first row
    while rows := list(islice(reader, _BLOCK_ROWS)):
        try:
            blocks.append(_block_columns(rows, *checks))
        except _RowError:
            # the same checks, one row at a time: the first row to fail is named
            for row_index, row in enumerate(rows, first_row):
                try:
                    blocks.append(_block_columns([row], *checks))
                except _RowError as exc:
                    line = _first_line(path, row_index)
                    raise ValidationError(f"line {line}: {exc}") from None
        first_row += len(rows)
        del rows  # free this block's strings before reading the next
    call_ids, ratings, durations, ptq, tokens = map(np.concatenate, zip(*blocks))
    del blocks

    if len(set(call_ids.tolist())) < len(call_ids):
        first: dict[str, int] = {}
        for i, call_id in enumerate(call_ids.tolist()):
            j = first.setdefault(call_id, i)
            if j != i:
                raise ValidationError(
                    f"line {_first_line(path, i)}: duplicate call_id {call_id!r}, "
                    f"first on line {_first_line(path, j)}"
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


def _undecodable_line(path: Path) -> int | None:
    with open(path, "rb") as fh:
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
    surrounding blanks allowed. Rows are checked column-wise in blocks; a
    failing block is read again row by row through the same checks, and the
    first invalid row raises ``ValidationError`` naming its physical line
    (right after quoted line breaks) and the first check it fails. Flag cells
    that are exactly ``0`` or ``1``, as ``write_csv`` writes them, are read a
    column at a time in one pass; other cells one by one, with the same flags
    and errors. Call ids must be unique.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return _read_survey(reader, path, vocabulary)
        except csv.Error as exc:
            raise ValidationError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            line_no = _undecodable_line(path)
            where = f"line {line_no}: " if line_no is not None else ""
            raise ValidationError(f"{where}not UTF-8 text ({exc.reason})") from None


def write_csv(ds: SurveyDataset, path: str | Path) -> None:
    """Write a dataset in the canonical CSV schema (booleans as 0/1).

    The bytes are those ``csv.writer`` writes in its default dialect: rows
    end in ``\\r\\n``, durations are ``repr(float)``, and a call id holding a
    comma, a quote or a line break is quoted.
    """
    path = Path(path)
    flags = np.column_stack([ds.ptq_submitted, ds.token_matrix]).view(np.uint8)
    width = 2 * flags.shape[1] - 1
    text = np.full((ds.n_records, width), ord(","), dtype=np.uint8)
    text[:, 0::2] = flags + ord("0")
    flag_text = text.view(f"S{width}").ravel()
    ids = ds.call_ids.tolist()
    all_ids = "".join(ids)
    if any(c in all_ids for c in _QUOTED_CHARS):
        ids = [
            '"' + i.replace('"', '""') + '"' if any(c in i for c in _QUOTED_CHARS) else i
            for i in ids
        ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(
            list(FIXED_COLUMNS)
            + [TOKEN_COLUMN_PREFIX + n for n in ds.vocabulary.names]
        )
        for start in range(0, ds.n_records, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            fh.writelines(
                f"{i},{r},{d!r},{f}\r\n"
                for i, r, d, f in zip(
                    ids[start:stop],
                    ds.ratings[start:stop].tolist(),
                    ds.durations[start:stop].tolist(),
                    flag_text[start:stop].astype(f"U{width}").tolist(),
                )
            )


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

    Bit g of a row's int64 code is set when any token column in
    ``members[g]`` fires, so at most ``MAX_GROUPS`` groups fit. The patterns
    are the codes that occur, in ascending order, as float64 indicator rows.
    """
    codes = np.zeros(len(tokens), dtype=np.int64)
    for g, cols in enumerate(members):
        codes |= tokens[:, cols].any(axis=1).astype(np.int64) << g
    patterns, row_pattern = np.unique(codes, return_inverse=True)
    indicators = (patterns[:, None] >> np.arange(len(members)) & 1).astype(np.float64)
    return indicators, row_pattern
