"""The package's record classes against their former dataclass definitions, mirrored in conftest.

The records are plain classes, so that importing the CLI needs no dataclasses;
each must keep the equality, hash and repr its dataclass had.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest as mirror
from primetop import BettiVector, ChainComplex, FiltrationEvent, GraphKind, MorseComplex, SphereVerdict
from primetop.cli import CacheRecord
from primetop.errors import InvalidArgumentError
from primetop.graphs import DIVISIBILITY_KINDS

RECORDS = {
    cls.__name__: cls
    for cls in (GraphKind, SphereVerdict, FiltrationEvent, BettiVector, ChainComplex, MorseComplex, CacheRecord)
}

# small domains, so that two drawn records are often equal
small = st.integers(-1, 1)
maybe = st.none() | small
word = st.sampled_from(["exact", "fast"])
ints = st.lists(small, max_size=2)
columns = st.lists(st.lists(st.dictionaries(small, small, max_size=1), max_size=1), max_size=1)

FIELDS = {
    "GraphKind": ({"name": st.sampled_from(DIVISIBILITY_KINDS[:2]), "param": st.integers(2, 3)}, {}),
    "SphereVerdict": ({"status": word, "dim": maybe, "method": word}, {}),
    "FiltrationEvent": (
        {"n": small, "mu": small, "stable_sphere_dim": maybe, "morse_index": maybe, "ph_index": small, "kind": word},
        {"method": word},
    ),
    "BettiVector": (
        {"b": st.tuples() | st.tuples(small), "field_prime": st.sampled_from([2, 3]), "verified_rational": st.booleans()},
        {},
    ),
    "ChainComplex": ({"shapes": st.lists(st.tuples(small, small), max_size=1), "boundaries": columns}, {}),
    "MorseComplex": ({"cells": st.tuples() | st.tuples(st.tuples(st.tuples(small))), "derivatives": columns}, {}),
    "CacheRecord": (
        {
            "kind": word,
            "n": small,
            "fvector": ints,
            "betti": ints,
            "chi": small,
            "mertens": small,
            "critical_counts": ints,
            "tool_version": word,
            "field_prime": st.sampled_from([2, 3]),
        },
        {},
    ),
}


@st.composite
def record_pairs(draw):
    """A record class and the fields of two of its records."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    required, optional = FIELDS[name]
    first, second = (draw(st.fixed_dictionaries(required, optional=optional)) for _ in range(2))
    return name, first, second


def hash_or_error(record):
    try:
        return hash(record)
    except TypeError as exc:
        return str(exc)


EVENT = {"n": 6, "mu": 1, "stable_sphere_dim": 0, "morse_index": 1, "ph_index": -1, "kind": "critical"}


@settings(max_examples=300, deadline=None)
@given(record_pairs())
@example(("FiltrationEvent", EVENT, {**EVENT, "method": "fast"}))  # events differing only in method
@example(("FiltrationEvent", {**EVENT, "method": "exact"}, EVENT))  # the default method
@example(("CacheRecord", dict.fromkeys(FIELDS["CacheRecord"][0], 0), dict.fromkeys(FIELDS["CacheRecord"][0], 0)))
def test_records_match_their_dataclass_mirrors(pair):
    name, first, second = pair
    new, old = RECORDS[name], getattr(mirror, name)
    a, b, ma, mb = new(**first), new(**second), old(**first), old(**second)
    names = [field.name for field in dataclasses.fields(old)]
    assert new(*(first[name] for name in names if name in first)) == a
    assert (a == b, a != b) == (ma == mb, ma != mb)
    assert (repr(a), repr(b)) == (repr(ma), repr(mb))
    assert hash_or_error(a) == hash_or_error(ma)
    for name in names:
        assert getattr(a, name) == getattr(ma, name)
    if name == "FiltrationEvent":
        assert repr(a.replace(**second)) == repr(dataclasses.replace(ma, **second))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from([*DIVISIBILITY_KINDS, "Prime", "", "graph"]), param=st.integers(-2, 4))
def test_graph_kind_rejects_what_its_dataclass_rejected(name, param):
    outcomes = []
    for cls in (GraphKind, mirror.GraphKind):
        try:
            outcomes.append(repr(cls(name, param)))
        except InvalidArgumentError as exc:
            outcomes.append(f"InvalidArgumentError: {exc}")
    assert outcomes[0] == outcomes[1]
