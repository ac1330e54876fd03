"""Row-by-row ``csv`` module references for ``survey.write_csv`` and
``survey.load_csv``."""

import csv

from tokenimpact import survey
from tokenimpact.errors import ValidationError
from tokenimpact.survey import FIXED_COLUMNS, TOKEN_COLUMN_PREFIX, SurveyDataset


def write_csv_reference(ds, path) -> None:
    """The canonical schema written one row at a time by ``csv.writer``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            list(FIXED_COLUMNS)
            + [TOKEN_COLUMN_PREFIX + n for n in ds.vocabulary.names]
        )
        rows = zip(
            ds.call_ids.tolist(),
            ds.ratings.tolist(),
            ds.durations.tolist(),
            ds.ptq_submitted.tolist(),
            ds.token_matrix.tolist(),
        )
        for call_id, rating, duration, ptq, tokens in rows:
            writer.writerow(
                [call_id, rating, repr(float(duration)), int(ptq)]
                + [int(b) for b in tokens]
            )


def load_csv_reference(path, vocabulary=None) -> SurveyDataset:
    """Every ``csv.reader`` row of the file through one ``_block_columns`` call.

    When that call fails, the rows are checked one at a time and the first
    to fail is named with the physical line it starts on. A row csv.reader
    cannot read is named after the rows before it, and a duplicate call id
    after every row has passed.
    """
    rows, lines, error = [], [], None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        vocabulary, checks = survey._header_checks(next(reader, None), vocabulary)
        try:
            while True:
                line = reader.line_num + 1
                row = next(reader, None)
                if row is None:
                    break
                rows.append(row)
                lines.append(line)
        except csv.Error as exc:
            error = f"line {reader.line_num}: {exc}"
    columns = (survey.CallIds.from_strings([]), *survey._empty_columns(len(vocabulary)))
    if rows:
        try:
            columns = survey._block_columns(rows, *checks)
        except survey._RowError:
            for row, line in zip(rows, lines):
                try:
                    survey._block_columns([row], *checks)
                except survey._RowError as exc:
                    raise ValidationError(f"line {line}: {exc}") from None
            raise AssertionError("a block failed that no row of it fails") from None
    if error is not None:
        raise ValidationError(error)
    first: dict[str, int] = {}
    for i, call_id in enumerate(columns[0].tolist()):
        j = first.setdefault(call_id, i)
        if j != i:
            raise ValidationError(
                f"line {lines[i]}: duplicate call_id {call_id!r}, first on line {lines[j]}"
            )
    call_ids, ratings, durations, ptq, tokens = columns
    return SurveyDataset(
        vocabulary=vocabulary,
        call_ids=call_ids,
        ratings=ratings,
        durations=durations,
        ptq_submitted=ptq,
        token_matrix=tokens,
        provenance=(f"load_csv({path}, rows={len(rows)})",),
    )
