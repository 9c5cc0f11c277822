"""Exact-arithmetic search for ordinary and elementary flats of matroids
represented over cyclotomic subfields of the complex numbers."""

from .cyclotomic import CyclotomicNumber, format_scalar, parse_scalar
from .matroid import (
    Flat,
    Matroid,
    Representation,
    direct_sum,
    load_matrix,
    parse_matrix,
    representation_from_rows,
    save_matrix,
    write_matrix,
)
from .search import (
    ConstructionTrace,
    OrdinaryWitness,
    SearchReport,
    find_elementary_flat,
    find_elementary_flat_brute,
    find_ordinary_flat_brute,
    find_ordinary_flat_constructive,
    find_two_point_line,
    is_elementary,
    is_ordinary,
    search_conjecture_counterexample,
)
from .catalog import (
    ENTRIES,
    ag23,
    ag23_power,
    build_ref,
    motzkin,
    random_instance,
    uniform,
    uniform_power,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
