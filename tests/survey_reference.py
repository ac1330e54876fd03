"""Row-by-row ``csv.writer`` reference for ``survey.write_csv``."""

import csv

from tokenimpact.survey import FIXED_COLUMNS, TOKEN_COLUMN_PREFIX


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
