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
from itertools import chain, islice, repeat
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
    ("audio.interrupt", "We kept interrupting each other"),
    ("audio.distorted", "Speech was not natural or sounded distorted"),
    ("audio.low_volume", "Volume was low"),
    ("audio.echo", "I heard echo in the call"),
    ("audio.noise", "I heard noise in the call"),
    ("video.dark", "The other side was too dark"),
    ("video.stopped", "Video stopped unexpectedly"),
    ("video.av_sync", "Video was ahead or behind audio"),
    ("video.poor_image", "Image quality is poor"),
    ("video.freeze", "Video kept freezing"),
    ("oneway.no_video_recv", "I could not see any video"),
    ("oneway.no_video_sent", "The other side could not see my video"),
    ("oneway.no_audio_recv", "I could not hear any sound"),
    ("oneway.no_audio_sent", "The other side could not hear my sound"),
    ("reliability.drop", "The call ended unexpectedly"),
)

_DEFAULT_DISPLAY = dict(DEFAULT_TOKENS)

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
    display_text: tuple[str, ...] = ()

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if not names:
            raise ValidationError("vocabulary must contain at least one token")
        if len(set(names)) != len(names):
            raise ValidationError("token names must be unique")
        if any(not n for n in names):
            raise ValidationError("token names must be non-empty")
        display = tuple(self.display_text)
        if not display:
            display = tuple(_DEFAULT_DISPLAY.get(n, n) for n in names)
        if len(display) != len(names):
            raise ValidationError("display_text length must match names")
        object.__setattr__(self, "display_text", display)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown token {name!r}") from None

    def subset(self, keep: Sequence[int]) -> "TokenVocabulary":
        return TokenVocabulary(
            names=tuple(self.names[i] for i in keep),
            display_text=tuple(self.display_text[i] for i in keep),
        )


def default_vocabulary() -> TokenVocabulary:
    names, display = zip(*DEFAULT_TOKENS)
    return TokenVocabulary(names=names, display_text=display)


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
    """0/1 flags of boolean cell text; ValueError names the first bad cell."""
    flags = np.fromiter(
        map(_BOOL_TEXT.get, cells, repeat(_NOT_BOOL)), dtype=np.uint8, count=len(cells)
    )
    for i in np.flatnonzero(flags == _NOT_BOOL).tolist():
        value = _BOOL_TEXT.get(cells[i].strip().lower())
        if value is None:
            raise ValueError(cells[i])
        flags[i] = value
    return flags.view(bool)


def _row_error(row: list[str], n_fields: int, token_src, names) -> str | None:
    """Message of the first check that one CSV row fails, or None."""
    if len(row) != n_fields:
        return f"expected {n_fields} fields, got {len(row)}"
    try:
        rating = int(row[1])
    except ValueError:
        return f"bad rating {row[1]!r}"
    try:
        duration = float(row[2])
    except ValueError:
        return f"bad duration {row[2]!r}"
    try:
        ptq = _parse_bools(row[3:4])
    except ValueError:
        return f"bad boolean {row[3]!r} in column ptq_submitted"
    tokens = np.zeros((1, len(names)), dtype=bool)
    for j, (name, src) in enumerate(zip(names, token_src)):
        column = TOKEN_COLUMN_PREFIX + name
        if src is None:
            if ptq[0]:
                return f"token column {column} missing but ptq_submitted is true"
            continue
        text = row[len(FIXED_COLUMNS) + src]
        try:
            tokens[0, j] = _parse_bools([text])[0]
        except ValueError:
            return f"bad boolean {text!r} in column {column}"
    bad = _first_violation(
        np.array([rating], dtype=object), np.array([duration]), ptq, tokens
    )
    return None if bad is None else bad[1]


def _empty_columns(p: int) -> tuple[np.ndarray, ...]:
    return (
        np.empty(0, dtype=object),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=bool),
        np.empty((0, p), dtype=bool),
    )


def _block_columns(rows: list[list[str]], n_fields: int, token_src, p: int):
    """Columns of a block of CSV rows, or None when some row is invalid."""
    if set(map(len, rows)) != {n_fields}:
        return None
    n = len(rows)
    cols = list(zip(*rows))
    try:
        ratings = np.fromiter(map(int, cols[1]), dtype=np.int64, count=n)
        durations = np.fromiter(map(float, cols[2]), dtype=np.float64, count=n)
        ptq = _parse_bools(cols[3])
        file_tokens = _parse_bools(list(chain.from_iterable(cols[len(FIXED_COLUMNS) :])))
    except (ValueError, OverflowError):
        return None
    file_tokens = file_tokens.reshape(-1, n)
    tokens = np.zeros((n, p), dtype=bool)
    for j, src in enumerate(token_src):
        if src is not None:
            tokens[:, j] = file_tokens[src]
        elif ptq.any():
            return None
    if _first_violation(ratings, durations, ptq, tokens) is not None:
        return None
    return np.array(cols[0], dtype=object), ratings, durations, ptq, tokens


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
    token_src = [pos.get(name) for name in vocabulary.names]
    n_fields = len(header)
    p = len(vocabulary)

    blocks = [_empty_columns(p)]
    line_no = 2
    while rows := list(islice(reader, _BLOCK_ROWS)):
        block = _block_columns(rows, n_fields, token_src, p)
        if block is None:
            for offset, row in enumerate(rows):
                message = _row_error(row, n_fields, token_src, vocabulary.names)
                if message is not None:
                    raise ValidationError(f"line {line_no + offset}: {message}")
            raise RuntimeError(f"rows from line {line_no} rejected without a reason")
        blocks.append(block)
        line_no += len(rows)
        del rows, block  # free this block's strings before reading the next
    call_ids, ratings, durations, ptq, tokens = map(np.concatenate, zip(*blocks))
    del blocks

    if len(set(call_ids.tolist())) < len(call_ids):
        first: dict[str, int] = {}
        for i, call_id in enumerate(call_ids.tolist()):
            j = first.setdefault(call_id, i)
            if j != i:
                raise ValidationError(
                    f"line {i + 2}: duplicate call_id {call_id!r}, first on line {j + 2}"
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
    surrounding blanks allowed. Rows are parsed column-wise in blocks; the
    first invalid row raises ``ValidationError`` naming its line and the first
    check it fails. Call ids must be unique.
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


def balance_resample(ds: SurveyDataset, seed: int) -> SurveyDataset:
    """Downsample the majority class so poor and good calls are equal in count."""
    poor = np.flatnonzero(ds.poor_mask)
    good = np.flatnonzero(~ds.poor_mask)
    if len(poor) == 0 or len(good) == 0:
        raise ValidationError("both poor and good calls required to balance")
    rng = np.random.default_rng(seed)
    if len(poor) == len(good):
        keep = np.arange(ds.n_records)
    elif len(poor) > len(good):
        sampled = rng.choice(poor, size=len(good), replace=False)
        keep = np.sort(np.concatenate([sampled, good]))
    else:
        sampled = rng.choice(good, size=len(poor), replace=False)
        keep = np.sort(np.concatenate([poor, sampled]))
    m = min(len(poor), len(good))
    note = f"balance_resample(seed={seed}): poor={len(poor)}, good={len(good)} -> {m}/{m}"
    return ds.select(keep, note)


def restrict_tokened_poor(ds: SurveyDataset, seed: int) -> SurveyDataset:
    """Keep only poor calls with questionnaire feedback, preserving the PCR.

    Good calls are downsampled by the poor-call retention fraction so the
    output PCR equals the input PCR up to one-record rounding.
    """
    poor = ds.poor_mask
    ptq = ds.ptq_submitted
    poor_idx = np.flatnonzero(poor)
    kept_poor = np.flatnonzero(poor & ptq)
    if len(kept_poor) == 0:
        raise ValidationError("no tokened poor calls")
    good_idx = np.flatnonzero(~poor)
    fraction = len(kept_poor) / len(poor_idx)
    n_good_keep = int(round(fraction * len(good_idx)))
    rng = np.random.default_rng(seed)
    if n_good_keep >= len(good_idx):
        kept_good = good_idx
    else:
        kept_good = rng.choice(good_idx, size=n_good_keep, replace=False)
    keep = np.sort(np.concatenate([kept_poor, kept_good]))
    note = (
        f"restrict_tokened_poor(seed={seed}): poor {len(poor_idx)} -> "
        f"{len(kept_poor)}, good {len(good_idx)} -> {len(kept_good)}"
    )
    return ds.select(keep, note)


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
