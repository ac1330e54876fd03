import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenimpact import survey
from tokenimpact.errors import ValidationError
from tokenimpact.survey import (
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
from survey_reference import write_csv_reference


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
        assert ds.ratings.dtype == np.int64 and ds.call_ids.dtype == object
        for arr in (ds.call_ids, ds.ratings, ds.durations, ds.ptq_submitted, ds.token_matrix):
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

    def test_default_world_equals_csv_writer_reference(self, tmp_path):
        ds, _ = generate(default_world_spec(n=20_000, seed=3), truth_mc_n=1000)
        assert 4 * survey._BLOCK_ROWS < ds.n_records < 5 * survey._BLOCK_ROWS  # 5 blocks
        self._assert_writes_reference_bytes(ds, tmp_path)
