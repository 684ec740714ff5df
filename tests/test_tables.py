"""The numpy-backed input reader against the per-row loaders it replaced."""

import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicedp import load_labeled_csv, load_qc_csv
from slicedp.cli import load_dataset
from slicedp.tables import read_int_table

from support import load_dataset_oracle, load_labeled_csv_oracle, load_qc_csv_oracle

BIG = (1 << 63) - 1
WORDS = st.sampled_from(["x", "y", "label", "score", "id", "note"])


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "input.csv"


@st.composite
def rendered(draw, rows, header=None, quotes=True):
    """The text of a file of integer rows in one of the spellings both the
    old and the new loaders accept: an optional header line, blank lines,
    CRLF or LF endings, blanks around cells, quoted cells."""
    cell_styles = ["{}", " {} ", "\t{} "] + (['"{}"', '" {} "'] if quotes else [])
    blank_lines = st.sampled_from(["", "   ", "\t"])
    lines = []
    for row in rows:
        lines += draw(st.lists(blank_lines, max_size=2))
        lines.append(",".join(draw(st.sampled_from(cell_styles)).format(cell)
                              for cell in row))
    lines += draw(st.lists(blank_lines, max_size=2))
    if header is not None:
        lines.insert(0, ",".join(header))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ending = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + ending


@st.composite
def header_cells(draw, width, word_within=None):
    """Header cells with at least one word among the first `word_within`."""
    cells = draw(st.lists(st.one_of(WORDS, st.integers(0, 9).map(str)),
                          min_size=width, max_size=width))
    cells[draw(st.integers(0, (word_within or width) - 1))] = draw(WORDS)
    return cells


@st.composite
def labeled_files(draw):
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, BIG)] * d, st.integers(0, 1)), min_size=1, max_size=10))
    header = draw(st.none() | header_cells(d + 1))
    return draw(rendered(rows, header))


@st.composite
def qc_files(draw):
    """Rise-then-fall scores; rows list every nonzero score and some zero
    ones, in any order, with extra cells after the first two."""
    rise = sorted(draw(st.lists(st.integers(0, BIG), max_size=8)))
    fall = sorted(draw(st.lists(st.integers(0, BIG), max_size=8)), reverse=True)
    scores = rise + fall or [0]
    listed = [y for y, s in enumerate(scores) if s or draw(st.booleans())] or [0]
    extra = st.lists(st.one_of(WORDS, st.integers(-5, BIG).map(str)), max_size=2)
    rows = [[y, scores[y]] + draw(extra) for y in draw(st.permutations(listed))]
    header = draw(st.none() | header_cells(2 + draw(st.integers(0, 2)), word_within=2))
    return draw(rendered(rows, header))


@st.composite
def dataset_files(draw):
    rows = draw(st.lists(st.tuples(st.integers(0, BIG)), max_size=10))
    return draw(rendered(rows, quotes=False))


def write(path, text):
    path.write_bytes(text.encode())
    return path


@settings(max_examples=200, deadline=None)
@given(labeled_files())
def test_labeled_loader_matches_the_row_loop(path, text):
    new, old = load_labeled_csv(write(path, text), 64), load_labeled_csv_oracle(path, 64)
    for a, b in ((new.points, old.points), (new.labels, old.labels)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@settings(max_examples=200, deadline=None)
@given(qc_files())
def test_qc_loader_matches_the_row_loop(path, text):
    new, old = load_qc_csv(write(path, text)), load_qc_csv_oracle(path)
    assert new.scores.dtype == old.scores.dtype
    np.testing.assert_array_equal(new.scores, old.scores)


@settings(max_examples=200, deadline=None)
@given(dataset_files())
def test_dataset_loader_matches_the_line_loop(path, text):
    new, old = load_dataset(write(path, text), 64), load_dataset_oracle(path, 64)
    assert new.dtype == old.dtype
    np.testing.assert_array_equal(new, old)


LABELED = (partial(load_labeled_csv, bit_length=8),
           partial(load_labeled_csv_oracle, bit_length=8))
QC = (load_qc_csv, load_qc_csv_oracle)
DATASET = (partial(load_dataset, bit_length=8), partial(load_dataset_oracle, bit_length=8))

# (loaders, text, 1-based line the new loader names, or None for the whole file)
MALFORMED = {
    "labeled-ragged": (LABELED, "1,2,1\n3,0\n", 2),
    "labeled-bad-label": (LABELED, "x,label\n\n1,2\n", 3),
    "labeled-non-integer": (LABELED, "1,1\n\n  \nfoo,0\n", 4),
    "labeled-width-one": (LABELED, "1\n", 1),
    "labeled-empty": (LABELED, "", None),
    "labeled-header-only": (LABELED, "x,label\n\n", None),
    "labeled-out-of-range": (LABELED, "1,1\n256,0\n", 2),
    "labeled-out-of-range-later-column": (LABELED, "x,y,label\n1,2,1\n3,256,0\n", 3),
    "labeled-out-of-range-later-row": (
        LABELED, "1,2,3,1\n\n4,5,6,0\n7,8,9,1\n1,2,300,0\n\n1,999,2,1\n", 5),
    "qc-non-integer": (QC, "1,2\nx,3\n", 2),
    "qc-empty": (QC, "", None),
    "qc-header-only": (QC, "y,score\n", None),
    "qc-negative-index": (QC, "0,1\n-1,5\n", 2),
    "qc-duplicate-index": (QC, "y,score\n1,5\n0,4\n\n1,6\n", 5),
    "qc-short-row": (QC, "0,1\n1\n", 2),
    "dataset-non-integer": (DATASET, "1\nabc\n", 2),
    "dataset-negative": (DATASET, "5\n\n-4\n", 3),
    "dataset-out-of-range": (DATASET, "5\n300\n", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_files_fail_in_both_loaders(path, case):
    (new, old), text, line = MALFORMED[case]
    write(path, text)
    with pytest.raises(ValueError):
        old(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as caught:
            new(path)
    message = str(caught.value)
    assert message.startswith(f"{path}: ")
    if line is not None:
        assert f"{path}: line {line}: " in message


@pytest.mark.parametrize("text, line, value", [
    ("1,1\n256,0\n", 2, 256),
    ("x,y,label\n1,2,1\n3,256,0\n", 3, 256),
    ("1,2,3,1\n\n4,5,6,0\n7,8,9,1\n1,2,300,0\n\n1,999,2,1\n", 5, 300),
])
def test_out_of_range_coordinate_message(path, text, line, value):
    write(path, text)
    message = (f"{path}: line {line}: coordinate {value} out of range for 8-bit "
               f"domain (must be < 256)")
    with pytest.raises(ValueError) as caught:
        load_labeled_csv(path, 8)
    assert str(caught.value) == message


@pytest.mark.parametrize("text, line, label", [
    ("1,1\n3,2\n", 2, 2),
    # labels are checked first, then coordinates, whichever line comes first
    ("1,1\n256,0\n3,2\n", 3, 2),
    (f"1,1\n2,{1 << 63}\n", 2, 1 << 63),
    (f"1,1\n2,{(1 << 64) - 1}\n", 2, (1 << 64) - 1),
])
def test_bad_label_message(path, text, line, label):
    write(path, text)
    with pytest.raises(ValueError) as caught:
        load_labeled_csv(path, 8)
    assert str(caught.value) == f"{path}: line {line}: label must be 0 or 1, got {label}"


@pytest.mark.parametrize("row", [" , ", '""'])
def test_a_row_of_blank_cells_is_rejected(path, row):
    write(path, f"1,1\n{row}\n2,0\n")
    with pytest.raises(ValueError, match="line 2: "):
        load_labeled_csv(path, 8)
    assert load_labeled_csv_oracle(path, 8).labels.tolist() == [1, 0]


def test_line_one_of_blank_cells_is_a_header(path):
    write(path, " , \n1,1\n2,0\n")
    assert load_labeled_csv(path, 8).labels.tolist() == [1, 0]


def test_python_only_spellings_are_rejected(path):
    write(path, "1,1\n1_000,0\n")
    with pytest.raises(ValueError, match="line 2: non-integer entry '1_000'"):
        load_labeled_csv(path, 16)
    assert load_labeled_csv_oracle(path, 16).points.tolist() == [1, 1000]


def test_comment_marks_are_cells(path):
    write(path, "1,1\n#2,0\n")
    with pytest.raises(ValueError, match="line 2"):
        load_labeled_csv(path, 8)


def test_usecols_ignores_later_cells_and_their_count(path):
    table = read_int_table(write(path, "1,2,x\n3,4\n5,6,7,8\n"), np.int64, usecols=(0, 1))
    assert table.values.tolist() == [[1, 2], [3, 4], [5, 6]]


def test_full_uint64_range(path):
    table = read_int_table(write(path, f"{(1 << 64) - 1}\n{1 << 63}\n"), np.uint64,
                           header=False)
    assert table.values[:, 0].tolist() == [(1 << 64) - 1, 1 << 63]
    write(path, f"{1 << 64}\n")
    with pytest.raises(ValueError, match="line 1: value .* does not fit uint64"):
        read_int_table(path, np.uint64, header=False)
