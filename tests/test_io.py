"""Matrix file format round-trips and diagnostics."""

import tracemalloc

import pytest

from flatkit.catalog import (
    MAX_CATALOG_COLUMNS,
    MAX_TRIAL_COLUMNS,
    ag23,
    ag23_power,
    motzkin,
    random_instance,
    trial_instances,
    uniform,
    uniform_power,
)
from flatkit.errors import MatrixParseError, UsageError
from flatkit.matroid import (
    MAX_FILE_COLUMN_LENGTH,
    MAX_FILE_COLUMNS,
    MAX_FILE_CONDUCTOR,
    Matroid,
    Representation,
    load_matrix,
    parse_matrix,
    representation_from_rows,
    save_matrix,
    write_matrix,
)


def trial_minors():
    """A restriction and a contraction of a trial instance at each of the
    conductors 1, 3 and 4."""
    for conductor in (1, 3, 4):
        _, M = next(trial_instances(4, 1, 5, conductor, (8, 8)))
        yield M.restrict(M.ground[::2]).to_representation()
        yield M.contract(M.closure(M.ground[:2])).to_representation()


def columnless():
    """Matrices with rows but no columns: one built from empty rows and
    the empty restriction of a contraction of AG(2,3)."""
    yield representation_from_rows([[], []], 1)
    M = Matroid(ag23())
    yield M.contract(M.closure(M.ground[:2])).restrict([]).to_representation()


@pytest.mark.parametrize("rep", [
    ag23(), uniform(2, 3), motzkin(),
    random_instance(4, 8, 4, seed=11),
    random_instance(3, 6, 3, seed=2),
    ag23_power(2), uniform_power(2, 3, 3), *trial_minors(), *columnless(),
])
def test_roundtrip_identity(rep):
    text = write_matrix(rep)
    again = parse_matrix(text)
    assert again == rep
    assert write_matrix(again) == text


@pytest.mark.parametrize("label", ["a b", "", " a", "a\tb", "a\nb",
                                   "a\u00a0b"])
def test_unreadable_label_is_refused_before_writing(label, tmp_path):
    """The labels line is read back split on whitespace, so a label that
    is empty or holds whitespace would not round-trip; nothing is
    written for it, not even an empty file."""
    rep = representation_from_rows([[1, 2]], 1, ["p", label])
    with pytest.raises(UsageError, match="empty or holds whitespace"):
        write_matrix(rep)
    path = tmp_path / "m.mat"
    with pytest.raises(UsageError):
        save_matrix(rep, path)
    assert not path.exists()


def test_parse_default_labels():
    rep = parse_matrix("conductor 1\nsize 2 3\n1 0 1\n0 1 1\n")
    assert rep.labels == ("e1", "e2", "e3")


def test_parse_declared_labels():
    rep = parse_matrix("conductor 1\nsize 1 2\nlabels p q\n1 2\n")
    assert rep.labels == ("p", "q")
    rowless = parse_matrix("conductor 1\nsize 0 2\nlabels a b\n")
    assert (rowless.rows, rowless.labels) == (0, ("a", "b"))


def test_parse_errors_carry_location():
    with pytest.raises(MatrixParseError):
        parse_matrix("")
    with pytest.raises(MatrixParseError):
        parse_matrix("conductor x\nsize 1 1\n1\n")
    with pytest.raises(MatrixParseError):
        parse_matrix("conductor 1\nsize 2 2\n1 0\n")  # missing row
    err = None
    try:
        parse_matrix("conductor 3\nsize 1 2\n1 1q\n")
    except MatrixParseError as exc:
        err = exc
    assert err is not None and err.line == 3 and err.column == 2


def test_parse_wrong_entry_count():
    with pytest.raises(MatrixParseError):
        parse_matrix("conductor 1\nsize 1 3\n1 2\n")


def test_parse_label_count_mismatch():
    with pytest.raises(MatrixParseError):
        parse_matrix("conductor 1\nsize 1 2\nlabels a\n1 2\n")


def test_conductor_bound():
    top = parse_matrix(f"conductor {MAX_FILE_CONDUCTOR}\nsize 1 2\n1 z\n")
    assert top.conductor == MAX_FILE_CONDUCTOR
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(f"\nconductor {MAX_FILE_CONDUCTOR + 1}\nsize 1 2\n1 z\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("rows", [0, 1])
def test_huge_declared_column_count_is_refused_before_any_label(rows):
    """A column count above the cap is refused on the size line, before
    any label or row is read."""
    text = f"conductor 1\nsize {rows} {10**11}\n" + "1\n" * rows
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text)
    assert exc.value.line == 2


@pytest.mark.parametrize("conductor, rows, cols", [
    (1, 1, MAX_FILE_COLUMNS + 1),
    (1, MAX_FILE_COLUMN_LENGTH + 1, 1),
    (3, MAX_FILE_COLUMN_LENGTH // 2 + 1, 1),
    (23, MAX_FILE_COLUMN_LENGTH // 22 + 1, 1),
])
def test_file_one_over_a_size_cap_is_refused_on_the_size_line(conductor, rows,
                                                              cols):
    """One column too many, or one row too many for the integers a
    column may hold at the conductor's phi(n), is refused on the size
    line, however well formed the rest of the file is."""
    def text(d, m):
        return (f"conductor {conductor}\nsize {d} {m}\nlabels "
                + " ".join(f"e{j}" for j in range(m)) + "\n"
                + ("1 " * m + "\n") * d)

    fits = parse_matrix(text(rows - 1, cols - 1))
    assert (fits.rows, len(fits.labels)) == (rows - 1, cols - 1)
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix(text(rows, cols))
    assert exc.value.line == 2


def test_over_cap_file_is_refused_before_the_rest_is_read(tmp_path):
    """`load_matrix` reads a file line by line, so a file over a size cap
    is refused on its size line without the rest being read."""
    m = MAX_FILE_COLUMNS + 1
    text = (f"conductor 1\nsize 2 {m}\nlabels "
            + " ".join(f"e{j}" for j in range(m)) + "\n"
            + ("123456789 " * 40_000 + "\n") * 8)
    path = tmp_path / "over.mat"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as whole:
        parse_matrix(text)
    tracemalloc.start()
    try:
        with pytest.raises(MatrixParseError) as lazy:
            load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (str(lazy.value), lazy.value.line) == (str(whole.value), 2)
    assert len(text) > 3_000_000 and peak < 1_000_000


@pytest.mark.parametrize("text", [
    "conductor 3\r\nsize 1 2\r\n\r\n1 z\r\n",
    "conductor 3\rsize 1 2\r1 z",
    "\n\nconductor 1\nsize 2 2\x0c1 0\x0b\n0 1\u2028\n",
    "conductor 1\nsize 2 2\n1 0\x85\n0 q\n",
    "conductor 1\n\n",
    "",
])
def test_load_matrix_splits_lines_as_parse_matrix_does(tmp_path, text):
    """Reading a file line by line gives the matrix, or the error and its
    line, that parsing the file's whole text gives."""
    path = tmp_path / "m.mat"
    path.write_bytes(text.encode())
    with open(path) as fh:
        whole = fh.read()
    try:
        expected = parse_matrix(whole)
    except MatrixParseError as exc:
        with pytest.raises(MatrixParseError) as got:
            load_matrix(path)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert load_matrix(path) == expected


def test_size_caps_admit_every_file_flatkit_writes():
    """A catalog export has at most MAX_CATALOG_COLUMNS columns and a
    trial dump at most MAX_TRIAL_COLUMNS, at phi(n) <= 2 and with no more
    rows than columns; a dump of the largest such shape, 72 x 72 over
    Q(i), reads back."""
    assert MAX_FILE_COLUMNS >= max(MAX_CATALOG_COLUMNS, MAX_TRIAL_COLUMNS)
    m = MAX_TRIAL_COLUMNS
    assert MAX_FILE_COLUMN_LENGTH >= 2 * m
    columns = tuple((j % 5 + 1, tuple((i * 7 + j * 3) % 11 - 5 if i != 2 * j
                                      else 1 for i in range(2 * m)))
                    for j in range(m))
    rep = Representation(4, m, tuple(f"e{j + 1}" for j in range(m)), columns)
    assert parse_matrix(write_matrix(rep)) == rep


def test_columnless_rows_need_no_row_lines():
    """A matrix with no columns writes its rows as blank lines, so its
    row count is read off the size line alone."""
    rep = parse_matrix("conductor 3\nsize 4 0\n")
    assert (rep.conductor, rep.rows, rep.labels, rep.columns) == (3, 4, (), ())
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix("conductor 1\nsize -1 0\nlabels\n")
    assert exc.value.line == 2
