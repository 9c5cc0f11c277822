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
from flatkit.cli import main
from flatkit.errors import MatrixParseError, UsageError
from flatkit.matroid import (
    MAX_FILE_BYTES,
    MAX_FILE_COLUMN_LENGTH,
    MAX_FILE_COLUMNS,
    MAX_FILE_CONDUCTOR,
    MAX_FILE_LABEL,
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


def test_overlong_label_is_refused_before_writing(tmp_path):
    """A label longer than MAX_FILE_LABEL would not read back, so it is
    refused as a label with whitespace is; one at the cap round-trips."""
    top = representation_from_rows([[1, 2]], 1, ["p", "x" * MAX_FILE_LABEL])
    assert parse_matrix(write_matrix(top)) == top
    rep = representation_from_rows([[1, 2]], 1,
                                   ["p", "x" * (MAX_FILE_LABEL + 1)])
    with pytest.raises(UsageError, match=f"the most is {MAX_FILE_LABEL}"):
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
    # a header line over a few hundred characters is refused before its
    # fields are read: int() refuses a conductor of 5,000 digits
    for text, line in [("conductor 0\nsize 1 1\n1\n", 1),
                       ("conductor 1\nsize 2\n1\n", 2),
                       ("conductor 1\nsize a b\n1\n", 2),
                       ("conductor 1\nsize 0 3\n", 2),
                       ("conductor " + "3" * 5000 + "\nsize 1 1\n1\n", 1),
                       ("\nconductor 3\nsize 1 " + "0" * 300 + "1\n1\n", 3),
                       # a line ends at \n, \r\n or \r only: \f is a space
                       ("conductor 1\nsize 1 2\n1 0\f0 1\n", 3),
                       ("conductor 1\nsize 1 2\n\nlabels a "
                        + "b" * (MAX_FILE_LABEL + 1) + "\n1 2\n", 4)]:
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == line
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


# how `load_matrix` refuses a file longer than MAX_FILE_BYTES
OVER_BYTES = (f"file longer than {MAX_FILE_BYTES} bytes", None)


def test_over_cap_file_is_refused_before_the_rest_is_read(tmp_path):
    """`load_matrix` reads at most MAX_FILE_BYTES + 1 bytes, so a longer
    file is refused without the rest being read: one over a size cap,
    which `parse_matrix` refuses on its size line, and one with a valid
    header and a matrix row of 20 MB, of digits or mostly whitespace."""
    m = MAX_FILE_COLUMNS + 1
    text = (f"conductor 1\nsize 2 {m}\nlabels "
            + " ".join(f"e{j}" for j in range(m)) + "\n"
            + ("123456789 " * 40_000 + "\n") * 8)
    path = tmp_path / "over.mat"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as whole:
        parse_matrix(text)
    assert whole.value.line == 2 and len(text) > 3_000_000
    del text
    (tmp_path / "digits.mat").write_text(
        "conductor 1\nsize 1 2\n1 " + "9" * 20_000_000 + "\n")
    (tmp_path / "blank.mat").write_text(
        "conductor 1\nsize 1 2\n1" + " " * 20_000_000 + "2\n")
    for name in ("over.mat", "digits.mat", "blank.mat"):
        tracemalloc.start()
        try:
            with pytest.raises(MatrixParseError) as lazy:
                load_matrix(tmp_path / name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (str(lazy.value), lazy.value.line) == OVER_BYTES, name
        assert peak < 1_000_000, name


def test_long_size_line_is_refused_in_bounded_memory(tmp_path):
    """`load_matrix` reads at most MAX_FILE_BYTES + 1 bytes, so a size
    line of 3 MB is refused without being read whole."""
    path = tmp_path / "long.mat"
    path.write_text("conductor 1\nsize 2 " + "9" * 3_000_000 + "\n1 2\n3 4\n")
    tracemalloc.start()
    try:
        with pytest.raises(MatrixParseError) as exc:
            load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (str(exc.value), exc.value.line) == OVER_BYTES
    assert peak < 1_000_000


# one matrix file, to be written with each of the three line ends
ENDS = "conductor 3\nsize 2 2\n\nlabels p q\n1 z\n\nz -1\n"


@pytest.mark.parametrize("indent", [0, 5000])
def test_long_label_is_refused_in_bounded_memory(tmp_path, indent):
    """`load_matrix` reads at most MAX_FILE_BYTES + 1 bytes, so a label
    of 20 million characters is refused without being read whole;
    parsing the whole text refuses it on its line."""
    text = ("conductor 1\nsize 1 2\n" + " " * indent + "labels a "
            + "b" * 20_000_000 + "\n1 2\n")
    path = tmp_path / "label.mat"
    path.write_text(text)
    with pytest.raises(MatrixParseError) as whole:
        parse_matrix(text)
    del text
    tracemalloc.start()
    try:
        with pytest.raises(MatrixParseError) as lazy:
            load_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert whole.value.line == 3
    assert (str(lazy.value), lazy.value.line) == OVER_BYTES
    assert peak < 1_000_000


@pytest.mark.parametrize("text", [
    "conductor 3\r\nsize 1 2\r\n\r\n1 z\r\n",
    "conductor 3\rsize 1 2\r1 z",
    "\n\nconductor 1\nsize 2 2\x0c1 0\x0b\n0 1\u2028\n",
    "conductor 1\nsize 2 2\n1 0\x85\n0 q\n",
    "conductor 1\n\n",
    "",
    *(ENDS.replace("\n", end) for end in ("\n", "\r\n", "\r")),
])
def test_load_matrix_splits_lines_as_parse_matrix_does(tmp_path, text):
    """Loading a file gives the matrix, or the error and its line, that
    parsing the file's whole text gives; a line ends at \\n, \\r\\n or
    \\r."""
    path = tmp_path / "m.mat"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as fh:
        whole = fh.read()
    try:
        expected = parse_matrix(whole)
    except MatrixParseError as exc:
        with pytest.raises(MatrixParseError) as got:
            load_matrix(path)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert load_matrix(path) == expected
        if text.split() == ENDS.split():
            assert parse_matrix(text) == expected == parse_matrix(ENDS)


def test_size_caps_admit_every_file_flatkit_writes(capsys, tmp_path):
    """A catalog export has at most MAX_CATALOG_COLUMNS columns and a
    trial dump at most MAX_TRIAL_COLUMNS, at phi(n) <= 2 and with no more
    rows than columns; a dump of the largest such shape, 72 x 72 over
    Q(i), reads back.  The longest export, uniform:64,64, is under
    MAX_FILE_BYTES and reads back, and so does that file padded with
    blank lines to MAX_FILE_BYTES; one byte more exits 2."""
    assert MAX_FILE_COLUMNS >= max(MAX_CATALOG_COLUMNS, MAX_TRIAL_COLUMNS)
    m = MAX_TRIAL_COLUMNS
    assert MAX_FILE_COLUMN_LENGTH >= 2 * m
    columns = tuple((j % 5 + 1, tuple((i * 7 + j * 3) % 11 - 5 if i != 2 * j
                                      else 1 for i in range(2 * m)))
                    for j in range(m))
    rep = Representation(4, m, tuple(f"e{j + 1}" for j in range(m)), columns)
    assert parse_matrix(write_matrix(rep)) == rep
    top = uniform(64, 64)
    path = tmp_path / "top.mat"
    save_matrix(top, path)
    assert load_matrix(path) == top
    with open(path, "ab") as fh:
        fh.write(b"\n" * (MAX_FILE_BYTES - path.stat().st_size))
    assert path.stat().st_size == MAX_FILE_BYTES
    assert load_matrix(path) == top
    with open(path, "ab") as fh:
        fh.write(b"\n")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: file longer than {MAX_FILE_BYTES} bytes\n")


def test_export_that_would_not_read_back_is_refused(tmp_path):
    """`write_matrix` refuses a file longer than MAX_FILE_BYTES, which
    `load_matrix` would refuse, so `save_matrix` writes no file.  No CLI
    path reaches the refusal: the longest catalog export, uniform:64,64,
    still exports, and a random one, drawn within the largest bound 10,
    is shorter.  Nor does a trial or search dump: its largest shape,
    72 x 72 over Q(i) with every coordinate as long as one drawn within
    bound 10 prints (-10/3), is under a quarter of the cap."""
    path = tmp_path / "r.mat"
    rep = representation_from_rows([[10 ** 1100] * 64] * 4, 1)
    with pytest.raises(UsageError) as refused:
        save_matrix(rep, path)
    assert str(refused.value) == (
        f"the matrix file would be longer than {MAX_FILE_BYTES} bytes, the "
        "most that is read")
    assert not path.exists()
    assert main(["catalog", "--export", "uniform:64,64", str(path)]) == 0
    assert load_matrix(path) == uniform(64, 64)
    assert len(path.read_bytes()) == 186152
    assert len(write_matrix(random_instance(64, 64, 4))) < 186152
    m = MAX_TRIAL_COLUMNS
    text = write_matrix(Representation(
        4, m, tuple(f"e{j + 1}" for j in range(m)),
        ((3, (-10,) * (2 * m)),) * m))
    assert text.split("\n")[3].split()[0] == "-10/3-10/3z"
    assert 4 * len(text.encode("utf-8")) < MAX_FILE_BYTES


def test_matrix_files_are_utf8(tmp_path):
    """`save_matrix` writes UTF-8, the encoding `load_matrix` reads."""
    rep = representation_from_rows([[1, 2]], 1, ["α", "ζ₃"])
    path = tmp_path / "utf8.mat"
    save_matrix(rep, path)
    assert path.read_bytes() == write_matrix(rep).encode("utf-8")
    assert load_matrix(path) == rep


def test_columnless_rows_need_no_row_lines():
    """A matrix with no columns writes its rows as blank lines, so its
    row count is read off the size line alone."""
    rep = parse_matrix("conductor 3\nsize 4 0\n")
    assert (rep.conductor, rep.rows, rep.labels, rep.columns) == (3, 4, (), ())
    with pytest.raises(MatrixParseError) as exc:
        parse_matrix("conductor 1\nsize -1 0\nlabels\n")
    assert exc.value.line == 2
