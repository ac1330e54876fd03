"""Row-by-row ``csv.writer`` reference for ``survey.write_csv``."""

import csv

from tokenimpact.survey import FIXED_COLUMNS, TOKEN_COLUMN_PREFIX


def write_csv_reference(ds, path) -> None:
    """The canonical schema written one record at a time by ``csv.writer``."""
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
