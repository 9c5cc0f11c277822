"""Matrix file format round-trips and diagnostics."""

import pytest

from flatkit.catalog import ag23, motzkin, random_instance, uniform
from flatkit.errors import MatrixParseError
from flatkit.matroid import MAX_FILE_CONDUCTOR, parse_matrix, write_matrix


@pytest.mark.parametrize("rep", [
    ag23(), uniform(2, 3), motzkin(),
    random_instance(4, 8, 4, seed=11),
    random_instance(3, 6, 3, seed=2),
])
def test_roundtrip_identity(rep):
    text = write_matrix(rep)
    again = parse_matrix(text)
    assert again == rep
    assert write_matrix(again) == text


def test_parse_default_labels():
    rep = parse_matrix("conductor 1\nsize 2 3\n1 0 1\n0 1 1\n")
    assert rep.labels == ("e1", "e2", "e3")


def test_parse_declared_labels():
    rep = parse_matrix("conductor 1\nsize 1 2\nlabels p q\n1 2\n")
    assert rep.labels == ("p", "q")


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
