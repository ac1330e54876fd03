import csv
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenimpact import survey
from tokenimpact.errors import ValidationError
from tokenimpact.survey import (
    CallIds,
    SurveyDataset,
    TokenVocabulary,
    balance_resample,
    clean_uninformative,
    default_vocabulary,
    load_csv,
    restrict_tokened_poor,
    write_csv,
)
from tokenimpact.synthetic import default_world_spec, generate

from conftest import make_dataset, make_vocab
from survey_reference import load_csv_reference, write_csv_reference


class TestVocabulary:
    def test_default_has_15_tokens(self):
        vocab = default_vocabulary()
        assert len(vocab) == 15
        assert len(set(vocab.names)) == 15

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            TokenVocabulary(names=("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            TokenVocabulary(names=())
        with pytest.raises(ValidationError):
            TokenVocabulary(names=("a", ""))

    def test_index(self):
        vocab = make_vocab(3)
        assert vocab.index("tok1") == 1
        with pytest.raises(ValidationError):
            vocab.index("nope")


class TestDerivedMasks:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.floats(0, 1000, allow_nan=False),
                st.lists(st.booleans(), min_size=3, max_size=3),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_masks_agree_with_per_record_derivation(self, rows):
        ds = make_dataset([(r, d, bits) for r, d, bits in rows], n_tokens=3)
        brute_poor = [r <= 2 for r, _, _ in rows]
        brute_any = [any(bits) for _, _, bits in rows]
        assert ds.poor_mask.tolist() == brute_poor
        assert ds.any_token_mask.tolist() == brute_any
        # computed once and shared read-only
        assert ds.any_token_mask is ds.any_token_mask
        assert not ds.any_token_mask.flags.writeable

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.lists(st.booleans(), min_size=4, max_size=4)),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_cooccurrence_is_the_exact_token_gram(self, rows):
        ds = make_dataset([(r, 60.0, bits) for r, bits in rows], n_tokens=4)
        x = ds.token_matrix.astype(np.int64)
        assert np.array_equal(ds.cooccurrence, x.T @ x)
        # computed once and shared read-only
        assert ds.cooccurrence is ds.cooccurrence
        assert not ds.cooccurrence.flags.writeable

    def test_cooccurrence_summed_over_row_blocks(self, monkeypatch):
        monkeypatch.setattr(survey, "_GRAM_ROWS", 3)
        rows = [(r % 4 + 1, 1.0, (r % 2, r % 3 == 0, r % 5 == 1)) for r in range(10)]
        ds = make_dataset(rows, n_tokens=3)
        x = ds.token_matrix.astype(np.int64)
        assert np.array_equal(ds.cooccurrence, x.T @ x)
        assert np.array_equal(make_dataset([], n_tokens=3).cooccurrence, np.zeros((3, 3)))

    def test_subsets_get_their_own_cooccurrence(self):
        rows = [(1, 1.0, (1, 1, 0))] * 12 + [(4, 1.0, (0, 1, 0))] * 3 + [(3, 1.0, (1, 0, 0))] * 2
        ds = make_dataset(rows, n_tokens=3)
        full = ds.cooccurrence
        for sub in (ds.select(range(0, 17, 2), "every other"), clean_uninformative(ds)[0]):
            assert len(sub.vocabulary) < 3 or sub.n_records < ds.n_records
            x = sub.token_matrix.astype(np.int64)
            assert np.array_equal(sub.cooccurrence, x.T @ x)
            assert not sub.cooccurrence.flags.writeable
        assert ds.cooccurrence is full


CSV_HEADER = "call_id,rating,duration_s,ptq_submitted,token_a,token_b\n"


def _write(tmp_path, body, name="data.csv"):
    path = tmp_path / name
    path.write_text(CSV_HEADER + body, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_empty_file_is_valid_dataset(self, tmp_path):
        ds = load_csv(_write(tmp_path, ""))
        assert ds.n_records == 0
        assert ds.vocabulary.names == ("a", "b")

    def test_basic_rows(self, tmp_path):
        ds = load_csv(_write(tmp_path, "c1,5,60,false,0,0\nc2,1,30.5,1,1,0\n"))
        assert ds.n_records == 2
        assert ds.ratings.tolist() == [5, 1]
        assert ds.token_matrix.tolist() == [[False, False], [True, False]]
        assert ds.durations[1] == 30.5

    def test_rating5_with_token_rejected(self, tmp_path):
        path = _write(tmp_path, "c2,5,60,true,1,0\n")
        with pytest.raises(ValidationError, match="line 2.*tokens present on rating 5"):
            load_csv(path)

    def test_line_numbers_in_errors(self, tmp_path):
        path = _write(tmp_path, "c1,3,60,0,0,0\nc2,9,60,0,0,0\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_csv(path)
        path = _write(tmp_path, "c1,3,-4,0,0,0\n")
        with pytest.raises(ValidationError, match="line 2.*negative duration"):
            load_csv(path)
        path = _write(tmp_path, "c1,3,60,0,0\n")
        with pytest.raises(ValidationError, match="line 2.*fields"):
            load_csv(path)
        path = _write(tmp_path, "c1,3,60,0,0,maybe\n")
        with pytest.raises(ValidationError, match="line 2.*boolean"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["inf", "nan", "Infinity"])
    def test_non_finite_duration_rejected(self, tmp_path, text):
        path = _write(tmp_path, f"c1,3,60,0,0,0\nc2,3,{text},0,0,0\n")
        with pytest.raises(ValidationError, match="line 3: non-finite duration"):
            load_csv(path)

    def test_unknown_token_column_rejected(self, tmp_path):
        vocab = TokenVocabulary(names=("a",))
        path = _write(tmp_path, "c1,3,60,0,0,0\n")
        with pytest.raises(ValidationError, match="unknown token columns"):
            load_csv(path, vocabulary=vocab)

    def test_missing_token_column_filled_false_without_ptq(self, tmp_path):
        vocab = TokenVocabulary(names=("a", "b", "c"))
        ds = load_csv(_write(tmp_path, "c1,4,60,0,0,0\n"), vocabulary=vocab)
        assert ds.token_matrix.tolist() == [[False, False, False]]

    def test_missing_token_column_with_ptq_rejected(self, tmp_path):
        vocab = TokenVocabulary(names=("a", "b", "c"))
        path = _write(tmp_path, "c1,2,60,1,1,0\n")
        with pytest.raises(ValidationError, match="token_c missing"):
            load_csv(path, vocabulary=vocab)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_header_required(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="header"):
            load_csv(path)

    def test_token_columns_reordered_to_vocabulary(self, tmp_path):
        vocab = TokenVocabulary(names=("b", "a"))
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "c1,2,60,1,1,0\n", encoding="utf-8")
        ds = load_csv(path, vocabulary=vocab)
        # file order is a,b; token columns follow the vocabulary order b,a
        assert ds.token_matrix.tolist() == [[False, True]]

    def test_round_trip_is_field_identical(self, tmp_path):
        body = "c1,5,60.25,0,0,0\nc2,1,30.5,1,1,0\nc3,3,0,1,1,1\nc4,4,99,0,0,0\n"
        ds = load_csv(_write(tmp_path, body))
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        again = load_csv(out)
        assert _columns(again) == _columns(ds)
        assert again.vocabulary.names == ds.vocabulary.names


class TestCleanUninformative:
    def test_never_set_token_removed(self):
        rows = [(1, 1.0, (1, 0))] * 12 + [(3, 1.0, (0, 0))] * 2
        ds = make_dataset(rows, n_tokens=2)
        cleaned, removed = clean_uninformative(ds, min_positives=10)
        assert removed == ("tok1",)
        assert cleaned.vocabulary.names == ("tok0",)
        assert cleaned.token_matrix.shape == (14, 1)

    def test_identity_when_all_informative(self):
        ds = make_dataset([(1, 1.0, (1, 0)), (3, 1.0, (0, 1))] * 10, n_tokens=2)
        cleaned, removed = clean_uninformative(ds, min_positives=10)
        assert removed == ()
        assert cleaned is ds

    def test_threshold_boundary(self):
        rows = [(1, 1.0, (1, 0))] * 9 + [(3, 1.0, (0, 1))] * 11
        ds = make_dataset(rows, n_tokens=2)
        cleaned, removed = clean_uninformative(ds, min_positives=10)
        assert removed == ("tok0",)  # 9 positives = min_positives - 1

    def test_always_set_token_removed_as_zero_variance(self):
        rows = [(1, 1.0, (1, 1))] * 15 + [(3, 1.0, (1, 0))] * 15
        ds = make_dataset(rows, n_tokens=2)
        cleaned, removed = clean_uninformative(ds)
        assert removed == ("tok0",)

    def test_all_removed_is_error(self):
        ds = make_dataset([(3, 1.0, (0, 0))] * 5, n_tokens=2)
        with pytest.raises(ValidationError, match="no informative tokens"):
            clean_uninformative(ds)


class TestBalanceResample:
    def _ds(self, n_good, n_poor):
        rows = [(4, 1.0, (0,)) for _ in range(n_good)]
        rows += [(1, 1.0, (1,)) for _ in range(n_poor)]
        return make_dataset(rows, n_tokens=1)

    def test_downsamples_majority(self):
        out = balance_resample(self._ds(100, 40), seed=7)
        assert int(out.poor_mask.sum()) == 40
        assert int((~out.poor_mask).sum()) == 40

    def test_already_balanced_is_identity(self):
        ds = self._ds(5, 5)
        out = balance_resample(ds, seed=7)
        assert _columns(out) == _columns(ds)

    def test_deterministic(self):
        ds = self._ds(100, 40)
        a = balance_resample(ds, seed=42)
        b = balance_resample(ds, seed=42)
        assert a.call_ids.tolist() == b.call_ids.tolist()

    def test_subset_of_original(self):
        ds = self._ds(30, 10)
        out = balance_resample(ds, seed=0)
        ids = set(ds.call_ids.tolist())
        assert set(out.call_ids.tolist()) <= ids
        assert len(set(out.call_ids.tolist())) == out.n_records

    def test_single_class_is_error(self):
        with pytest.raises(ValidationError):
            balance_resample(self._ds(10, 0), seed=0)


class TestRestrictTokenedPoor:
    def test_arithmetic_example(self):
        # 100 poor (50 with feedback), 200 good -> 50 poor, 100 good
        rows = [(1, 1.0, (1,)) for _ in range(50)]
        rows += [(1, 1.0, (0,), False) for _ in range(50)]
        rows += [(4, 1.0, (0,)) for _ in range(200)]
        ds = make_dataset(rows, n_tokens=1)
        out = restrict_tokened_poor(ds, seed=3)
        assert int(out.poor_mask.sum()) == 50
        assert int((~out.poor_mask).sum()) == 100
        assert out.pcr() == pytest.approx(ds.pcr())

    def test_identity_when_all_poor_tokened(self):
        rows = [(1, 1.0, (1,))] * 4 + [(4, 1.0, (0,))] * 6
        ds = make_dataset(rows, n_tokens=1)
        out = restrict_tokened_poor(ds, seed=1)
        assert _columns(out) == _columns(ds)

    def test_no_tokened_poor_is_error(self):
        rows = [(1, 1.0, (0,), False)] * 3 + [(4, 1.0, (0,))] * 3
        ds = make_dataset(rows, n_tokens=1)
        with pytest.raises(ValidationError, match="no tokened poor"):
            restrict_tokened_poor(ds, seed=1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pcr_preserved_within_rounding(self, seed):
        rng = np.random.default_rng(seed)
        n_poor = int(rng.integers(2, 60))
        n_good = int(rng.integers(2, 120))
        n_tokened = int(rng.integers(1, n_poor + 1))
        rows = [(1, 1.0, (1,)) for _ in range(n_tokened)]
        rows += [(1, 1.0, (0,), False) for _ in range(n_poor - n_tokened)]
        rows += [(4, 1.0, (0,)) for _ in range(n_good)]
        ds = make_dataset(rows, n_tokens=1)
        out = restrict_tokened_poor(ds, seed=seed)
        # at most one record of rounding slack in the preserved rate
        assert abs(out.pcr() - ds.pcr()) <= 1.0 / out.n_records


class TestProvenance:
    def test_transforms_append_notes(self):
        rows = [(1, 1.0, (1,))] * 4 + [(4, 1.0, (0,))] * 6
        ds = make_dataset(rows, n_tokens=1)
        out = balance_resample(ds, seed=9)
        assert any("balance_resample(seed=9)" in note for note in out.provenance)
        out2 = restrict_tokened_poor(out, seed=2)
        assert len(out2.provenance) == 2


def _columns(ds):
    return (
        ds.call_ids.tolist(),
        ds.ratings.tolist(),
        ds.durations.tolist(),
        ds.ptq_submitted.tolist(),
        ds.token_matrix.tolist(),
    )


class TestColumnarDataset:
    def _arrays(self):
        return dict(
            call_ids=["a", "b", "c"],
            ratings=np.array([1, 4, 5]),
            durations=np.array([10.0, 20.5, 0.0]),
            ptq_submitted=np.array([True, False, False]),
            token_matrix=np.array([[True, False], [False, False], [False, False]]),
        )

    def test_arrays_are_read_only_copies(self):
        arrays = self._arrays()
        ds = SurveyDataset(vocabulary=make_vocab(2), **arrays)
        arrays["ratings"][0] = 2
        arrays["token_matrix"][0, 0] = False
        assert ds.ratings.tolist() == [1, 4, 5]
        assert ds.token_matrix[0, 0]
        assert ds.ratings.dtype == np.int64 and isinstance(ds.call_ids, CallIds)
        ids = ds.call_ids
        for arr in (ids.data, ids.offsets, ds.ratings, ds.durations, ds.ptq_submitted, ds.token_matrix):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(ratings=[1, 6, 5]), "record 'b': rating 6 outside 1..5"),
            (dict(ratings=[1, 2.5, 5]), "record 'b': rating 2.5 outside 1..5"),
            (dict(durations=[1.0, -2.0, np.inf]), "record 'b': negative duration -2.0"),
            (dict(durations=[1.0, 2.0, np.nan]), "record 'c': non-finite duration nan"),
            (dict(ptq_submitted=[True, False, True]), "record 'c': ptq_submitted on rating 5"),
            (
                dict(token_matrix=[[True, False], [False, True], [False, False]]),
                "record 'b': tokens present without ptq_submitted",
            ),
            (
                dict(token_matrix=[[True, False], [False, False], [True, False]]),
                "record 'c': tokens present on rating 5",
            ),
            (dict(ratings=[1, np.nan, 5]), "record 'b': rating nan outside 1..5"),
            (dict(ratings=[1, None, 5]), "record 'b': rating None outside 1..5"),
            (dict(ratings=["1", "4", "5"]), "record 'a': rating '1' outside 1..5"),
        ],
    )
    def test_rules_checked_on_arrays(self, change, message):
        arrays = {**self._arrays(), **change}
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SurveyDataset(vocabulary=make_vocab(2), **arrays)

    def test_first_broken_rule_of_first_bad_row_is_named(self):
        # row b breaks the duration and token rules; row c breaks the rating
        arrays = {
            **self._arrays(),
            "ratings": [1, 3, 7],
            "durations": [1.0, -1.0, 1.0],
            "token_matrix": [[True, False], [True, False], [False, False]],
        }
        with pytest.raises(ValidationError, match="^record 'b': negative duration"):
            SurveyDataset(vocabulary=make_vocab(2), **arrays)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(call_ids=["a", "b"]), "call_ids has shape"),
            (dict(durations=[1.0]), "durations has shape"),
            (dict(token_matrix=[[True], [False], [False]]), "token_matrix has shape"),
        ],
    )
    def test_shapes_checked(self, change, message):
        with pytest.raises(ValidationError, match=message):
            SurveyDataset(vocabulary=make_vocab(2), **{**self._arrays(), **change})

    def test_empty_dataset(self):
        ds = make_dataset([], n_tokens=3)
        assert ds.n_records == 0 and ds.token_matrix.shape == (0, 3)
        assert _columns(ds) == ([], [], [], [], [])

    def test_select_slices_every_column(self):
        ds = SurveyDataset(vocabulary=make_vocab(2), **self._arrays())
        out = ds.select(np.array([2, 0, 0]), "pick")
        assert out.call_ids.tolist() == ["c", "a", "a"]
        assert out.ratings.tolist() == [5, 1, 1]
        assert out.durations.tolist() == [0.0, 10.0, 10.0]
        assert out.ptq_submitted.tolist() == [False, True, True]
        assert out.token_matrix.tolist() == [[False, False], [True, False], [True, False]]
        assert out.provenance == ("pick",)
        assert ds.select(iter([1]), "gen").call_ids.tolist() == ["b"]


class TestLoadCsvRowErrors:
    @pytest.fixture(params=[1, 2, 8192])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(survey, "_BLOCK_ROWS", request.param)
        return request.param

    @pytest.mark.parametrize(
        "body, message",
        [
            ("c1,3,60,0,0,0\nc2,4,60,0,0,0\nc3,9,60,0,0,0\n", "line 4: rating 9 outside 1..5"),
            ("c1,3,60,0,0,0\nc2,9,60,0,0,0\nc3,3,60,0,0,bad\n", "line 3: rating 9 outside"),
            ("c1,3,60,0,0,0\nc2,3,60,0,0,bad\nc3,9,60,0,0,0\n", "line 3: bad boolean 'bad'"),
            ("c1,x,-1,0,0,0\n", "line 2: bad rating 'x'"),
            ("c1,3,y,2,0,0\n", "line 2: bad duration 'y'"),
            ("c1,3,1,2,0,0\n", "line 2: bad boolean '2' in column ptq_submitted"),
            ("c1,5,-1,1,1,0\n", "line 2: negative duration -1.0"),
            ("c1,99999999999999999999,1,0,0,0\n", "line 2: rating 99999999999999999999 outside"),
            ("c1,3,1,0,0,0\nc2,3,1\n", "line 3: expected 6 fields, got 3"),
            ("c1,3,1,0,1,0\n", "line 2: tokens present without ptq_submitted"),
            # token cells of 2 and 0 characters: as many characters as two flags
            ("c1,3,60,1,01,\n", "line 2: bad boolean '01' in column token_a"),
            ("c1,3,60,0,0,0\nc2,3,60,1,01,\n", "line 3: bad boolean '01' in column token_a"),
            # line numbers are physical lines: a quoted id spans lines 2-3
            ('"c\n1",3,60,0,0,0\nc2,9,60,0,0,0\n', "line 4: rating 9 outside 1..5"),
            (
                '"c\n1",3,60,0,0,0\nc2,3,60,0,0,0\nc2,3,60,0,0,0\n',
                "line 5: duplicate call_id 'c2', first on line 4$",
            ),
            (
                '"c\n1",3,60,0,0,0\nc2,3,60,0,0,0\n"c3,3,60,0,0,0\n',
                "line 5: expected 6 fields, got 1",
            ),
            # a CRLF and a lone CR inside quotes are one line break each
            (
                '"a\r\nb",3,60,0,0,0\r\n"c\rd",3,60,0,0,0\r\ne,9,60,0,0,0\r\n',
                "line 6: rating 9 outside 1..5",
            ),
        ],
    )
    def test_first_bad_row_and_check_named(self, tmp_path, block_rows, body, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            load_csv(_write(tmp_path, body))

    def test_missing_column_and_bad_boolean_in_vocabulary_order(self, tmp_path, block_rows):
        # the file lacks token_b; with ptq set, the first failing token in
        # vocabulary order is reported
        path = _write(tmp_path, "c1,2,60,1,x,0\n")
        with pytest.raises(ValidationError, match="bad boolean 'x' in column token_a"):
            load_csv(path, vocabulary=TokenVocabulary(names=("a", "c", "b")))
        with pytest.raises(ValidationError, match="token_c missing but ptq_submitted"):
            load_csv(path, vocabulary=TokenVocabulary(names=("c", "a", "b")))

    def test_blocks_concatenate_in_order(self, tmp_path, block_rows):
        body = "".join(f"c{i},{1 + i % 4},{i}.5,{i % 2},{i % 2},0\n" for i in range(7))
        ds = load_csv(_write(tmp_path, body))
        assert ds.call_ids.tolist() == [f"c{i}" for i in range(7)]
        assert ds.ratings.tolist() == [1 + i % 4 for i in range(7)]
        assert ds.durations.tolist() == [i + 0.5 for i in range(7)]
        assert ds.ptq_submitted.tolist() == [bool(i % 2) for i in range(7)]
        assert ds.token_matrix.tolist() == [[bool(i % 2), False] for i in range(7)]

    def test_duplicate_call_id_names_both_lines(self, tmp_path, block_rows):
        path = _write(tmp_path, "c1,3,60,0,0,0\nc2,3,60,0,0,0\nc3,3,1,0,0,0\nc2,4,1,0,0,0\n")
        with pytest.raises(
            ValidationError, match="^line 5: duplicate call_id 'c2', first on line 3$"
        ):
            load_csv(path)


_VALID_ROWS = ("3,60,0,0,0", "5,1.5,0,0,0", "1,30,1,1,0", "2,7,1,0,1", "4,0, TRUE ,true,False")
# one bad row of each kind, after its call id, and the message it earns
_BAD_ROWS = (
    ("9,60,0,0,0", "rating 9 outside 1..5"),
    ("x,-1,0,0,0", "bad rating 'x'"),
    ("3,y,2,0,0", "bad duration 'y'"),
    ("3,1,2,0,0", "bad boolean '2' in column ptq_submitted"),
    ("5,-1,1,1,0", "negative duration -1.0"),
    ("99999999999999999999,1,0,0,0", "rating 99999999999999999999 outside 1..5"),
    ("3,1", "expected 6 fields, got 3"),
    ("3,1,0,1,0", "tokens present without ptq_submitted"),
    ("3,60,1,01,", "bad boolean '01' in column token_a"),
    ("3,60,0,0,bad", "bad boolean 'bad' in column token_b"),
    # two failed checks on one row: the earlier check is named
    ("x,y,2,0,0", "bad rating 'x'"),
    ("3,60,2,x,0", "bad boolean '2' in column ptq_submitted"),
    ("9,60,0,x,0", "bad boolean 'x' in column token_a"),
    ("3,1,0,x,bad", "bad boolean 'x' in column token_a"),
)
# quoted id suffixes and the line breaks each holds
_ID_BREAKS = {"": 0, "\n": 1, "\r\n": 1, "\r": 1, "\n\r": 2}


class TestOneRowChecker:
    @given(
        st.lists(st.tuples(st.sampled_from(_VALID_ROWS), st.sampled_from(list(_ID_BREAKS)))),
        st.sampled_from(_BAD_ROWS),
        st.lists(st.sampled_from(_VALID_ROWS)),
    )
    @example([], ("99999999999999999999,y,0,0,0", "bad duration 'y'"), [])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_planted_row_named_at_every_block_size(self, tmp_path_factory, before, bad, after):
        rows = [f'"c{i}{breaks}",{row}' for i, (row, breaks) in enumerate(before)]
        rows.append(f"bad,{bad[0]}")
        rows += [f"d{i},{row}" for i, row in enumerate(after)]
        path = tmp_path_factory.mktemp("plant") / "p.csv"
        path.write_text(CSV_HEADER + "\r\n".join(rows) + "\r\n", encoding="utf-8", newline="")
        line = 2 + len(before) + sum(_ID_BREAKS[breaks] for _, breaks in before)
        for block_rows in (1, 3, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(survey, "_BLOCK_ROWS", block_rows)
                with pytest.raises(ValidationError) as got:
                    load_csv(path)
            assert str(got.value) == f"line {line}: {bad[1]}"


# valid rows after their call id, each a line the byte path reads
_PLAIN_ROWS = ("3,60,0,0,0", "5,1.5,0,0,0", "1,30.25,1,1,0", "2,7,1,0,1", "4,0.0,1,0,0")
_FIELD_LIMIT = csv.field_size_limit()
# cells planted in place of a plain one, valid in some columns and not in
# others: blanks, a word, a NUL, a non-ASCII digit, an extra comma, a lone
# CR, fields at and over the csv limit, and one-byte and two-byte digits
_PLANTED_CELLS = (
    " 1", "", "true", "\x00", "\u0661", "0,0", "0\r",
    "c" * _FIELD_LIMIT, "c" * (_FIELD_LIMIT + 1), "0" * _FIELD_LIMIT + "1", "1", "2", "9", "10",
)
# planted line ends: a lone CR ends a row for csv.reader, "\n\n" adds an empty line
_PLANTED_ENDS = ("\r", "\n\n")
_QUOTED_HEADER = ",".join(f'"{c}"' for c in CSV_HEADER.strip().split(",")) + "\n"


@st.composite
def unquoted_bodies(draw):
    """Files of plain rows with up to three odd cells or line ends planted."""
    rows = draw(st.lists(st.sampled_from(_PLAIN_ROWS), max_size=12))
    cells = [[f"c{i}", *row.split(",")] for i, row in enumerate(rows)]
    ends = [draw(st.sampled_from(("\n", "\r\n")))] * len(cells)
    for _ in range(draw(st.integers(0, 3)) if cells else 0):
        row = draw(st.integers(0, len(cells) - 1))
        if draw(st.integers(0, 3)):  # a cell three times in four
            cells[row][draw(st.integers(0, 5))] = draw(st.sampled_from(_PLANTED_CELLS))
        else:
            ends[row] = draw(st.sampled_from(_PLANTED_ENDS))
    if cells and draw(st.booleans()):
        ends[-1] = ""  # no final newline
    header = draw(st.sampled_from((CSV_HEADER, CSV_HEADER, CSV_HEADER, _QUOTED_HEADER)))
    return header + "".join(",".join(row) + end for row, end in zip(cells, ends))


class TestPlainBytePath:
    @given(unquoted_bodies())
    @example(CSV_HEADER + "c0,3,60,0,0,0\r\nc1,3,60,0,0,0\rc2,9,60,0,0,0\n")
    # rows split by lone CRs outnumber the file's lines
    @example(CSV_HEADER + "c0,3,60,0,0,0\rc1,4,6,0,0,0\rc2,5,1.5,0,0,0\rc3,2,7,1,0,1\r")
    @example(CSV_HEADER + "c0,\u0661,60,0,0,0\nc1,3,60,0,0,0,0\n")
    @example(CSV_HEADER + "c0,9,60,0,0,0\n" + "c" * (_FIELD_LIMIT + 1) + ",3,60,0,0,0\n")
    @example(CSV_HEADER + "c0,3,60,0,0,0\n" + "c" * (_FIELD_LIMIT + 1) + ",3,60,0,0,0\n")
    @example(CSV_HEADER + "c0,3," + "0" * _FIELD_LIMIT + "1,0,0,0\n")
    # a tail missing a comma beside a head with one too many: the comma count holds
    @example(CSV_HEADER + "c0,3,60,0x0,0\na,5,3,60,0,0,0\n")
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_csv_reader_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("plain") / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = load_csv_reference(path)
        except ValidationError as exc:
            expected = str(exc)
        for block_rows in (1, 3, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(survey, "_BLOCK_ROWS", block_rows)
                try:
                    got = load_csv(path)
                except ValidationError as exc:
                    got = str(exc)
            if isinstance(expected, str):
                assert got == expected
                continue
            assert not isinstance(got, str), got
            assert got.vocabulary == expected.vocabulary
            assert _columns(got) == _columns(expected)
            assert got.durations.tobytes() == expected.durations.tobytes()
            assert got.provenance == expected.provenance

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize(
        "body",
        [
            # a plain block, then a quoted id from which csv.reader reads on
            'c1,3,60,0,0,0\n"q,2",2,7,1,0,1\n',
            # a bad row: its line is found by reading the file again
            'c1,3,60,0,0,0\n"q,2",2,7,1,0,1\nc3,9,60,0,0,0\n',
        ],
    )
    def test_named_pipe_loads_as_its_file(self, tmp_path, body):
        def load(path):
            try:
                return _columns(load_csv(path))
            except ValidationError as exc:
                return str(exc)

        path = _write(tmp_path, body)
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            got = load(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert got == load(path)

    def test_written_rows_never_reach_csv_reader(self, tmp_path, monkeypatch):
        ds, _ = generate(default_world_spec(n=10_000, seed=3), truth_mc_n=1000)
        write_csv(ds, tmp_path / "w.csv")
        monkeypatch.setattr(survey, "_csv_blocks", None)  # a call would fail
        again = load_csv(tmp_path / "w.csv")
        assert _columns(again) == _columns(ds)
        assert again.durations.tobytes() == ds.durations.tobytes()


def _flags_cell_by_cell(cells):
    flags = []
    for cell in cells:
        value = survey._BOOL_TEXT.get(cell.strip().lower())
        if value is None:
            raise ValueError(cell)
        flags.append(bool(value))
    return flags


# cells whose lengths can add up to one character per cell, and text that
# is blank-padded, a word, a non-ASCII digit or a NUL
_ODD_CELLS = st.sampled_from(["01", "", "0,", ",1", " 1", "true", "FALSE", "١", "\x00"])


class TestParseBools:
    @given(
        st.one_of(
            st.lists(st.sampled_from(["0", "1"]), max_size=12),
            st.lists(st.one_of(st.sampled_from(["0", "1"]), _ODD_CELLS), max_size=12),
        )
    )
    @example(["01", ""])
    @example(["", "1"])
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_flags_or_first_bad_cell_as_cell_by_cell(self, cells):
        try:
            expected = _flags_cell_by_cell(cells)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                survey._parse_bools(cells)
            assert got.value.args == exc.args
            return
        flags = survey._parse_bools(cells)
        assert flags.dtype == bool
        assert flags.tolist() == expected


class TestLoadCsvMalformedFile:
    def test_field_over_csv_limit(self, tmp_path):
        path = _write(tmp_path, "c1,3,60,0,0,0\n" + "c" * 200_000 + ",3,60,0,0,0\n")
        with pytest.raises(ValidationError, match="^line 3: field larger than field limit"):
            load_csv(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(CSV_HEADER.encode() + b"c1,3,60,0,0,0\nc\xe9,3,60,0,0,0\n")
        with pytest.raises(ValidationError, match="^line 3: not UTF-8 text"):
            load_csv(path)


class TestBenchmarkDialects:
    """Files written the way other tools write the schema load column for column."""

    def test_lf_endings_two_decimals_and_empty_submissions(self, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_bytes(
            b"call_id,rating,duration_s,ptq_submitted,token_a,token_b\n"
            b"c0000000,1,283.17,1,1,0\n"
            b"c0000001,4,51.00,1,0,0\n"
            b"c0000002,5,300.25,0,0,0\n"
            b"c0000003,2,7.10,1,0,0\n"
            b"c0000004,3,0.00,0,0,0\n"
        )
        ds = load_csv(path)
        assert ds.vocabulary.names == ("a", "b")
        assert ds.call_ids.tolist() == [f"c000000{i}" for i in range(5)]
        assert ds.ratings.tolist() == [1, 4, 5, 2, 3]
        assert ds.durations.tolist() == [283.17, 51.0, 300.25, 7.1, 0.0]
        assert ds.ptq_submitted.tolist() == [True, True, False, True, False]
        assert ds.token_matrix.tolist() == [[True, False]] + [[False, False]] * 4

    def test_crlf_endings_and_padded_word_booleans(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(
            b"call_id,rating,duration_s,ptq_submitted,token_a,token_b\r\n"
            b"x,2,1.5,true,TRUE, FALSE \r\n"
            b"y,4,2,false,0,False\r\n"
            b"z,5,3e1, FALSE ,false,0\r\n"
        )
        ds = load_csv(path)
        assert ds.call_ids.tolist() == ["x", "y", "z"]
        assert ds.ratings.tolist() == [2, 4, 5]
        assert ds.durations.tolist() == [1.5, 2.0, 30.0]
        assert ds.ptq_submitted.tolist() == [True, False, False]
        assert ds.token_matrix.tolist() == [[True, False], [False, False], [False, False]]


_ID_TEXT = st.text(alphabet=st.sampled_from('ab,"\r\n é\t\x00😀'), max_size=6)


@st.composite
def datasets(draw):
    p = draw(st.integers(1, 4))
    ids = draw(st.lists(_ID_TEXT, max_size=25, unique=True))
    ratings, durations, ptq_submitted, token_rows = [], [], [], []
    for _ in ids:
        rating = draw(st.integers(1, 5))
        duration = draw(st.floats(0, 1e12, allow_nan=False, allow_infinity=False))
        if rating == 5:
            tokens, ptq = [False] * p, False
        else:
            tokens = draw(st.lists(st.booleans(), min_size=p, max_size=p))
            ptq = any(tokens) or draw(st.booleans())
        ratings.append(rating)
        durations.append(duration)
        ptq_submitted.append(ptq)
        token_rows.append(tokens)
    return SurveyDataset(
        vocabulary=make_vocab(p),
        call_ids=ids,
        ratings=ratings,
        durations=durations,
        ptq_submitted=ptq_submitted,
        token_matrix=np.array(token_rows, dtype=bool).reshape(-1, p),
    )


def _mixed_dataset(n: int) -> SurveyDataset:
    """n rows whose ids cycle through plain, quoted, non-ASCII and NUL-ending
    forms (the first is empty), and whose durations cycle through each form
    ``repr(float)`` takes, -0.0 among them."""
    forms = ("c{}", "a,{}", 'q"{}', "l\r\n{}", "é{}", "😀{}", "{}\x00", '"{}"', "{}\r")
    durations = (-0.0, 5e-324, 1e-05, 0.1, 1e16, 1e22, 0.1 + 0.2, 61.5)
    i = np.arange(n)
    ratings = i % 5 + 1
    tokens = ((i[:, None] + np.arange(3)) % 4 == 0) & (ratings < 5)[:, None]
    return SurveyDataset(
        vocabulary=make_vocab(3),
        call_ids=[""] + [forms[k % len(forms)].format(k) for k in range(1, n)],
        ratings=ratings,
        durations=[durations[k % len(durations)] for k in range(n)],
        ptq_submitted=tokens.any(axis=1) | ((i % 3 == 0) & (ratings < 5)),
        token_matrix=tokens,
    )


class TestColumnarIo:
    @given(datasets())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_write_then_load_is_identity(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("rt") / "ds.csv"
        write_csv(ds, path)
        again = load_csv(path)
        assert again.vocabulary.names == ds.vocabulary.names
        assert _columns(again) == _columns(ds)
        assert again.durations.tobytes() == ds.durations.tobytes()

    def test_quoted_ids_round_trip(self, tmp_path):
        ds = make_dataset([(3, 1.0, (0,)), (4, 2.0, (0,)), (1, 0.5, (1,))], n_tokens=1)
        ds = SurveyDataset(
            vocabulary=ds.vocabulary,
            call_ids=["a,b", 'q"x', "line\r\nbreak"],
            ratings=ds.ratings,
            durations=ds.durations,
            ptq_submitted=ds.ptq_submitted,
            token_matrix=ds.token_matrix,
        )
        write_csv(ds, tmp_path / "q.csv")
        assert (tmp_path / "q.csv").read_bytes().splitlines()[1] == b'"a,b",3,1.0,0,0'
        assert load_csv(tmp_path / "q.csv").call_ids.tolist() == ["a,b", 'q"x', "line\r\nbreak"]

    @given(datasets())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_bytes_equal_csv_writer_reference(self, tmp_path_factory, ds):
        tmp = tmp_path_factory.mktemp("ref")
        write_csv(ds, tmp / "fast.csv")
        write_csv_reference(ds, tmp / "ref.csv")
        assert (tmp / "fast.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @given(
        st.one_of(
            st.text(alphabet=st.sampled_from('c0159.-,"\r\n xtrueFALSE'), max_size=200),
            st.binary(max_size=200),
        ),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fuzzed_text_raises_only_validation_error(self, tmp_path_factory, body, header):
        path = tmp_path_factory.mktemp("fuzz") / "f.csv"
        prefix = CSV_HEADER.encode() if header else b""
        path.write_bytes(prefix + (body.encode() if isinstance(body, str) else body))
        try:
            ds = load_csv(path)
        except ValidationError:
            return
        assert len(ds.call_ids) == ds.n_records == len(set(ds.call_ids.tolist()))

    @staticmethod
    def _assert_writes_reference_bytes(ds, tmp):
        write_csv(ds, tmp / "fast.csv")
        write_csv_reference(ds, tmp / "ref.csv")
        assert (tmp / "fast.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
        again = load_csv(tmp / "fast.csv")
        assert _columns(again) == _columns(ds)
        assert again.durations.tobytes() == ds.durations.tobytes()

    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_blocks_equal_csv_writer_reference(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(survey, "_BLOCK_ROWS", block_rows)
        # 4097 rows leave a partial last block at 3 and at 4096 rows a block
        self._assert_writes_reference_bytes(_mixed_dataset(4097), tmp_path)

    def test_one_long_id_keeps_write_memory_bounded(self, tmp_path):
        ds, _ = generate(default_world_spec(n=survey._BLOCK_ROWS, seed=3), truth_mc_n=1000)
        ids = ds.call_ids.tolist()
        ids[100] = "x" * 30_000
        ds = SurveyDataset(
            vocabulary=ds.vocabulary,
            call_ids=ids,
            ratings=ds.ratings,
            durations=ds.durations,
            ptq_submitted=ds.ptq_submitted,
            token_matrix=ds.token_matrix,
        )
        tracemalloc.start()
        try:
            write_csv(ds, tmp_path / "fast.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        write_csv_reference(ds, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_default_world_equals_csv_writer_reference(self, tmp_path):
        ds, _ = generate(default_world_spec(n=20_000, seed=3), truth_mc_n=1000)
        assert 4 * survey._BLOCK_ROWS < ds.n_records < 5 * survey._BLOCK_ROWS  # 5 blocks
        self._assert_writes_reference_bytes(ds, tmp_path)


def _first_duplicate_reference(ids):
    """The first row whose id is on an earlier row, and that earlier row."""
    first: dict[str, int] = {}
    for i, call_id in enumerate(ids):
        j = first.setdefault(call_id, i)
        if j != i:
            return i, j
    return None


# short and long ids, of one length and of many, that share prefixes and
# suffixes, and that differ only in NUL bytes or in non-ASCII characters
_DUP_TEXT = st.text(alphabet=st.sampled_from("ab\x00é😀"), max_size=19)


class TestCallIds:
    @pytest.mark.parametrize(
        "ids",
        [
            ["a", "a\x00"],
            ["a\x00", "a"],
            ["\x00a", "a"],
            ["", "\x00", "\x00\x00"],
            ["ab", "abc", "abcd", "a"],
            ["x12345678", "y12345678", "12345678"],
            ["c0000001", "c0000002", "c0000003"],
            ["prefix-shared-0000", "prefix-shared-0001"],
            ["0123456789abcdefX-tail", "0123456789abcdefY-tail"],
            ["A" + "-shared-tail" * 3, "B" + "-shared-tail" * 3],
            ["é", "e\u0301", "😀", "\U0001f601", "é\x00"],
        ],
    )
    def test_distinct_ids_are_not_duplicates(self, ids):
        assert survey._first_duplicate(CallIds.from_strings(ids)) is None

    @pytest.mark.parametrize(
        "ids, found",
        [
            (["a", "b", "a"], (2, 0)),
            (["a\x00", "a", "a\x00"], (2, 0)),
            (["x12345678", "y12345678", "y12345678"], (2, 1)),
            (["0123456789abcdef-tail", "b", "0123456789abcdef-tail", "b"], (2, 0)),
            (["é", "b", "b", "é"], (2, 1)),
            (["", "c", ""], (2, 0)),
            (["z"] * 5, (1, 0)),
        ],
    )
    def test_duplicates_found_with_their_first_row(self, ids, found):
        assert survey._first_duplicate(CallIds.from_strings(ids)) == found

    @given(st.lists(_DUP_TEXT, max_size=40), st.sampled_from(["", "x" * 17, "😀" * 9]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_duplicate_check_equals_a_dict(self, ids, tail):
        """Ids compared over many 8-byte words, a long shared tail among them."""
        ids = [i + tail for i in ids]
        want = _first_duplicate_reference(ids)
        assert survey._first_duplicate(CallIds.from_strings(ids)) == want

    def test_duplicate_lines_after_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(
            CSV_HEADER.encode()
            + b'c,3,1.0,0,0,0\r\n"a\nb",3,1.0,0,0,0\r\n"x\r\ny",4,1.0,0,0,0\r\n'
            b'"a\nb",4,1.0,0,0,0\r\nc,4,1.0,0,0,0\r\n'
        )
        message = "line 7: duplicate call_id 'a\\nb', first on line 3"
        for load in (load_csv, load_csv_reference):
            with pytest.raises(ValidationError) as error:
                load(path)
            assert str(error.value) == message

    def test_from_strings_round_trips(self):
        ids = ["", "a", "é😀", "x\x00", "a,b"]
        call_ids = CallIds.from_strings(ids)
        assert call_ids.tolist() == list(call_ids) == ids
        assert [call_ids[i] for i in range(-5, 5)] == ids + ids
        assert call_ids.offsets.tolist() == [0, 0, 1, 7, 9, 12]
        assert call_ids[1:3].tolist() == ids[1:3] and call_ids[3:1].tolist() == []
        assert call_ids[::-2].tolist() == ids[::-2]

    @pytest.mark.parametrize(
        "ids, message",
        [([1, 2], "call ids must be strings"), (["\ud800"], "call ids must be UTF-8 text")],
    )
    def test_from_strings_rejects_what_is_not_text(self, ids, message):
        with pytest.raises(ValidationError, match=message):
            SurveyDataset(
                vocabulary=make_vocab(1),
                call_ids=ids,
                ratings=[3] * len(ids),
                durations=[1.0] * len(ids),
                ptq_submitted=[False] * len(ids),
                token_matrix=np.zeros((len(ids), 1), dtype=bool),
            )

    def test_constructor_copies_the_callers_arrays(self):
        data = np.frombuffer("abé".encode("utf-8"), dtype=np.uint8).copy()
        offsets = np.array([0, 1, 4])
        ds = SurveyDataset(
            vocabulary=make_vocab(1),
            call_ids=CallIds(data, offsets),
            ratings=[3, 4],
            durations=[1.0, 2.0],
            ptq_submitted=[False, False],
            token_matrix=np.zeros((2, 1), dtype=bool),
        )
        data[:] = ord("z")
        offsets[1] = 2
        assert ds.call_ids.tolist() == ["a", "bé"]
        assert ds.call_ids.offsets.dtype == np.int64
        assert not ds.call_ids.data.flags.writeable and not ds.call_ids.offsets.flags.writeable

    @pytest.mark.parametrize(
        "data, offsets, message",
        [
            (b"aabbcc", [2, 4, 6], "offsets must rise from 0 to 6"),
            (b"aabbcc", [0, 4, 2, 6], "offsets must rise from 0 to 6"),
            (b"aabbcc", [0, 2, 5], "offsets must rise from 0 to 6"),
            (b"ab", [0, 1, 2**64 - 1], "offsets must rise from 0 to 2"),
            (b"a\xffb", [0, 1, 3], "call ids must be UTF-8 text"),
            ("é".encode("utf-8"), [0, 1, 2], "must not split a UTF-8 character"),
            (np.array([97, 98]), [0, 1, 2], "data must be 1-D uint8"),
            (np.zeros((2, 1), dtype=np.uint8), [0, 1, 2], "data must be 1-D uint8"),
            (b"ab", [0.0, 1.0, 2.0], "offsets must be 1-D integers"),
            (b"", [], "offsets must be 1-D integers"),
        ],
    )
    def test_constructor_rejects_inconsistent_arrays(self, data, offsets, message):
        if isinstance(data, bytes):
            data = np.frombuffer(data, dtype=np.uint8)
        offsets = np.array(offsets, dtype=np.uint64 if max(offsets, default=0) >= 2**63 else None)
        with pytest.raises(ValidationError, match=message):
            CallIds(data, offsets)

    @given(
        st.one_of(
            st.lists(_DUP_TEXT, min_size=1, max_size=30),
            st.lists(st.text(alphabet="cd01", min_size=4, max_size=4), min_size=1, max_size=30),
        ),
        st.data(),
        st.sampled_from([1, 5, 1 << 20]),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_select_and_write_equal_an_object_array(
        self, tmp_path_factory, ids, data, gather_bytes
    ):
        """Ids of mixed lengths and of one length, gathered a few bytes at a
        time or all at once, selected in any order, with repeats, or not at
        all."""
        rows = data.draw(st.lists(st.integers(0, len(ids) - 1), max_size=40))
        ds = SurveyDataset(
            vocabulary=make_vocab(1),
            call_ids=ids,
            ratings=[3] * len(ids),
            durations=[float(i) for i in range(len(ids))],
            ptq_submitted=[False] * len(ids),
            token_matrix=np.zeros((len(ids), 1), dtype=bool),
        )
        want = np.array(ids, dtype=object)[np.array(rows, dtype=np.intp)].tolist()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(survey, "_GATHER_BYTES", gather_bytes)
            out = ds.select(np.array(rows, dtype=np.int64), "pick")
        assert out.call_ids.tolist() == want
        assert len(out.call_ids.data) == out.call_ids.offsets[-1]
        reference = SurveyDataset(
            vocabulary=ds.vocabulary,
            call_ids=want,
            ratings=out.ratings,
            durations=out.durations,
            ptq_submitted=out.ptq_submitted,
            token_matrix=out.token_matrix,
        )
        tmp = tmp_path_factory.mktemp("select")
        write_csv(out, tmp / "fast.csv")
        write_csv_reference(reference, tmp / "ref.csv")
        assert (tmp / "fast.csv").read_bytes() == (tmp / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "indices",
        [
            np.array([False, True, False, True]),
            [False, True],
            np.array([1.7, 2.2]),
            [1.0],
            np.array([1, 2], dtype=object),
        ],
    )
    def test_select_refuses_masks_and_non_integer_indices(self, indices):
        ds = make_dataset([(3, 1.0, (0,))] * 4, n_tokens=1)
        with pytest.raises(ValidationError, match="select takes integer indices"):
            ds.select(indices, "pick")

    @pytest.mark.parametrize("indices", [[], np.array([]), np.array([], dtype=bool), iter([])])
    def test_empty_selection(self, indices):
        ds = make_dataset([(3, 1.0, (0,))] * 4, n_tokens=1)
        out = ds.select(indices, "none")
        assert out.n_records == 0 and out.call_ids.tolist() == []

    def test_simulate_to_restricted_csv_never_decodes_an_id(self, tmp_path, monkeypatch):
        ds, _ = generate(default_world_spec(n=3 * survey._BLOCK_ROWS, seed=3), truth_mc_n=1000)
        want = ds.call_ids.tolist()

        def refuse(*args):
            raise AssertionError("a call id was decoded or encoded")

        monkeypatch.setattr(CallIds, "tolist", refuse)
        monkeypatch.setattr(CallIds, "from_strings", refuse)
        generated, _ = generate(default_world_spec(n=3 * survey._BLOCK_ROWS, seed=3), truth_mc_n=1000)
        write_csv(generated, tmp_path / "all.csv")
        restricted = restrict_tokened_poor(load_csv(tmp_path / "all.csv"), seed=1)
        write_csv(restricted, tmp_path / "restricted.csv")
        monkeypatch.undo()

        kept = [want.index(i) for i in restricted.call_ids.tolist()]
        assert 0 < len(kept) < ds.n_records and kept == sorted(kept)
        write_csv_reference(ds.select(kept, "kept"), tmp_path / "ref.csv")
        assert (tmp_path / "restricted.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
