import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenimpact.errors import ValidationError
from tokenimpact.survey import (
    CallRecord,
    TokenVocabulary,
    any_token_reported,
    balance_resample,
    clean_uninformative,
    default_vocabulary,
    load_csv,
    poor_call,
    restrict_tokened_poor,
    write_csv,
)

from conftest import make_dataset, make_vocab


class TestVocabulary:
    def test_default_has_15_tokens(self):
        vocab = default_vocabulary()
        assert len(vocab) == 15
        assert len(set(vocab.names)) == 15
        assert all(vocab.display_text)

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


class TestCallRecord:
    def test_rating_range(self):
        with pytest.raises(ValidationError):
            CallRecord("c", 0, 1.0, (False,), False)
        with pytest.raises(ValidationError):
            CallRecord("c", 6, 1.0, (False,), False)

    def test_negative_duration(self):
        with pytest.raises(ValidationError):
            CallRecord("c", 3, -1.0, (False,), False)

    def test_rating5_excludes_tokens_and_ptq(self):
        with pytest.raises(ValidationError, match="tokens present on rating 5"):
            CallRecord("c", 5, 1.0, (True,), True)
        with pytest.raises(ValidationError, match="ptq_submitted on rating 5"):
            CallRecord("c", 5, 1.0, (False,), True)

    def test_token_requires_submission(self):
        with pytest.raises(ValidationError, match="without ptq_submitted"):
            CallRecord("c", 2, 1.0, (True,), False)

    def test_derived_labels(self):
        r = CallRecord("c", 2, 1.0, (False, True), True)
        assert poor_call(r) and any_token_reported(r)
        r = CallRecord("c", 3, 1.0, (False, False), False)
        assert not poor_call(r) and not any_token_reported(r)


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
        brute_poor = [poor_call(r) for r in ds.records]
        brute_any = [any_token_reported(r) for r in ds.records]
        assert ds.poor_mask.tolist() == brute_poor
        assert ds.any_token_mask.tolist() == brute_any


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
        assert ds.records[0].rating == 5 and not any(ds.records[0].tokens)
        assert ds.records[1].tokens == (True, False)
        assert ds.records[1].duration_s == 30.5

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
        assert ds.records[0].tokens == (False, False, False)

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
        # file order is a,b; record bits follow the vocabulary order b,a
        assert ds.records[0].tokens == (False, True)

    def test_round_trip_is_field_identical(self, tmp_path):
        body = "c1,5,60.25,0,0,0\nc2,1,30.5,1,1,0\nc3,3,0,1,1,1\nc4,4,99,0,0,0\n"
        ds = load_csv(_write(tmp_path, body))
        out = tmp_path / "copy.csv"
        write_csv(ds, out)
        again = load_csv(out)
        assert again.records == ds.records
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
        assert out.records == ds.records

    def test_deterministic(self):
        ds = self._ds(100, 40)
        a = balance_resample(ds, seed=42)
        b = balance_resample(ds, seed=42)
        assert [r.call_id for r in a.records] == [r.call_id for r in b.records]

    def test_subset_of_original(self):
        ds = self._ds(30, 10)
        out = balance_resample(ds, seed=0)
        ids = {r.call_id for r in ds.records}
        assert all(r.call_id in ids for r in out.records)
        assert len({r.call_id for r in out.records}) == out.n_records

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
        assert out.records == ds.records

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
