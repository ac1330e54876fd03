"""Survey data model, CSV ingestion, cleaning and resampling conventions.

A survey row is one rated call: an opinion score (1..5), the call duration,
and a bitvector of problem tokens collected from the end-of-call problem
questionnaire. The questionnaire is never shown for calls rated 5, so a
5-rated record can carry neither tokens nor a submission flag.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import csv
import math
import numpy as np

from .errors import ValidationError

FIXED_COLUMNS = ("call_id", "rating", "duration_s", "ptq_submitted")
TOKEN_COLUMN_PREFIX = "token_"

POOR_RATING_MAX = 2

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


@dataclass(frozen=True)
class CallRecord:
    """One rated call. Invariants are enforced at construction."""

    call_id: str
    rating: int
    duration_s: float
    tokens: tuple[bool, ...]
    ptq_submitted: bool

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(bool(t) for t in self.tokens))
        if self.rating not in (1, 2, 3, 4, 5):
            raise ValidationError(f"rating {self.rating!r} outside 1..5")
        if not 0 <= self.duration_s < math.inf:
            kind = "negative" if self.duration_s < 0 else "non-finite"
            raise ValidationError(f"{kind} duration {self.duration_s!r}")
        if self.rating == 5:
            if any(self.tokens):
                raise ValidationError("tokens present on rating 5")
            if self.ptq_submitted:
                raise ValidationError("ptq_submitted on rating 5")
        if any(self.tokens) and not self.ptq_submitted:
            raise ValidationError("tokens present without ptq_submitted")


def poor_call(record: CallRecord) -> bool:
    """A call is poor when rated 1 or 2."""
    return record.rating <= POOR_RATING_MAX


def any_token_reported(record: CallRecord) -> bool:
    return any(record.tokens)


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Immutable collection of call records sharing one vocabulary.

    Labels such as poor_call are always derived from the record, never
    stored. Columnar views are cached at construction and exposed as
    read-only arrays.
    """

    vocabulary: TokenVocabulary
    records: tuple[CallRecord, ...]
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "provenance", tuple(self.provenance))
        p = len(self.vocabulary)
        for r in records:
            if len(r.tokens) != p:
                raise ValidationError(
                    f"record {r.call_id!r} has {len(r.tokens)} token bits, expected {p}"
                )
        n = len(records)
        tokens = np.zeros((n, p), dtype=bool)
        ratings = np.zeros(n, dtype=np.int64)
        durations = np.zeros(n, dtype=np.float64)
        ptq = np.zeros(n, dtype=bool)
        for i, r in enumerate(records):
            tokens[i] = r.tokens
            ratings[i] = r.rating
            durations[i] = r.duration_s
            ptq[i] = r.ptq_submitted
        for arr in (tokens, ratings, durations, ptq):
            arr.setflags(write=False)
        object.__setattr__(self, "_tokens", tokens)
        object.__setattr__(self, "_ratings", ratings)
        object.__setattr__(self, "_durations", durations)
        object.__setattr__(self, "_ptq", ptq)

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def token_matrix(self) -> np.ndarray:
        """Boolean matrix, one row per record, one column per vocabulary token."""
        return self._tokens

    @property
    def ratings(self) -> np.ndarray:
        return self._ratings

    @property
    def durations(self) -> np.ndarray:
        return self._durations

    @property
    def ptq_submitted(self) -> np.ndarray:
        return self._ptq

    @property
    def poor_mask(self) -> np.ndarray:
        return self._ratings <= POOR_RATING_MAX

    @property
    def any_token_mask(self) -> np.ndarray:
        return self._tokens.any(axis=1)

    def pcr(self) -> float:
        """Poor call rate: share of calls rated 1 or 2."""
        if not self.records:
            raise ValidationError("PCR undefined on empty dataset")
        return float(self.poor_mask.mean())

    def select(self, indices: Iterable[int], note: str) -> "SurveyDataset":
        """Subset by record index, preserving order; never invents records."""
        return SurveyDataset(
            vocabulary=self.vocabulary,
            records=tuple(self.records[i] for i in indices),
            provenance=self.provenance + (note,),
        )


def _parse_bool(text: str, line_no: int, column: str) -> bool:
    v = text.strip().lower()
    if v in ("1", "true"):
        return True
    if v in ("0", "false"):
        return False
    raise ValidationError(f"line {line_no}: bad boolean {text!r} in column {column}")


def load_csv(path: str | Path, vocabulary: TokenVocabulary | None = None) -> SurveyDataset:
    """Read a survey CSV.

    Expected header: ``call_id,rating,duration_s,ptq_submitted,token_<slug>...``.
    Unknown token columns are rejected. A token column missing from the file
    is filled false, but only for rows that did not submit the questionnaire.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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

        records = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != n_fields:
                raise ValidationError(
                    f"line {line_no}: expected {n_fields} fields, got {len(row)}"
                )
            call_id = row[0]
            try:
                rating = int(row[1])
            except ValueError:
                raise ValidationError(f"line {line_no}: bad rating {row[1]!r}") from None
            try:
                duration = float(row[2])
            except ValueError:
                raise ValidationError(
                    f"line {line_no}: bad duration {row[2]!r}"
                ) from None
            ptq = _parse_bool(row[3], line_no, "ptq_submitted")
            raw_tokens = row[len(FIXED_COLUMNS) :]
            bits = []
            for name, src in zip(vocabulary.names, token_src):
                if src is None:
                    if ptq:
                        raise ValidationError(
                            f"line {line_no}: token column "
                            f"{TOKEN_COLUMN_PREFIX}{name} missing but "
                            "ptq_submitted is true"
                        )
                    bits.append(False)
                else:
                    bits.append(
                        _parse_bool(raw_tokens[src], line_no, TOKEN_COLUMN_PREFIX + name)
                    )
            try:
                records.append(
                    CallRecord(
                        call_id=call_id,
                        rating=rating,
                        duration_s=duration,
                        tokens=tuple(bits),
                        ptq_submitted=ptq,
                    )
                )
            except ValidationError as exc:
                raise ValidationError(f"line {line_no}: {exc}") from None

    return SurveyDataset(
        vocabulary=vocabulary,
        records=tuple(records),
        provenance=(f"load_csv({path}, rows={len(records)})",),
    )


def write_csv(ds: SurveyDataset, path: str | Path) -> None:
    """Write a dataset in the canonical CSV schema (booleans as 0/1)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            list(FIXED_COLUMNS)
            + [TOKEN_COLUMN_PREFIX + n for n in ds.vocabulary.names]
        )
        for r in ds.records:
            writer.writerow(
                [r.call_id, r.rating, repr(float(r.duration_s)), int(r.ptq_submitted)]
                + [int(b) for b in r.tokens]
            )


def clean_uninformative(
    ds: SurveyDataset, min_positives: int = 10
) -> tuple[SurveyDataset, tuple[str, ...]]:
    """Drop tokens too sparse (or constant) to estimate a latent correlation.

    A token is kept when it is set on at least ``min_positives`` records and
    is not set on every record. The removal list is returned for reporting.
    """
    n = ds.n_records
    counts = ds.token_matrix.sum(axis=0)
    keep = [
        i
        for i, c in enumerate(counts)
        if c >= min_positives and (n == 0 or c < n)
    ]
    removed = tuple(
        ds.vocabulary.names[i] for i in range(len(ds.vocabulary)) if i not in set(keep)
    )
    if not keep:
        raise ValidationError("no informative tokens")
    if not removed:
        return ds, ()
    vocab = ds.vocabulary.subset(keep)
    records = tuple(
        CallRecord(
            call_id=r.call_id,
            rating=r.rating,
            duration_s=r.duration_s,
            tokens=tuple(r.tokens[i] for i in keep),
            ptq_submitted=r.ptq_submitted,
        )
        for r in ds.records
    )
    note = f"clean_uninformative(min_positives={min_positives}): removed {list(removed)}"
    return (
        SurveyDataset(
            vocabulary=vocab, records=records, provenance=ds.provenance + (note,)
        ),
        removed,
    )


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
    return ds.select(keep.tolist(), note)


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
    return ds.select(keep.tolist(), note)
