"""What the record classes keep: equality and hashing by their fields,
fields that cannot be reassigned, the parameter checks of `make_params`,
and a certificate dict of its own for each semisimplicity decision."""

import numpy as np
import pytest
from conftest import BEYOND_INSTANCES, INSTANCES

from tsring.blocks import SemisimplicityDecision
from tsring.errors import BadOrder, NotPrime, TwoBlocked
from tsring.exactarith import GF, QQ, ScalarRing, SnfResult
from tsring.model import AutCoset, ModelParams, NonProj, ProjPair, build_basis, make_params

RECORDS = [
    (ProjPair(0, 1), ProjPair(0, 1), ProjPair(1, 0), (0, 1)),
    (NonProj(1, 2, 0), NonProj(1, 2, 0), NonProj(1, 2, 1), (1, 2, 0)),
    (AutCoset(2, 4), AutCoset(2, 4), AutCoset(2, 5), (2, 4)),
    (make_params(3, 2, 2), make_params(3, 2, 2), make_params(3, 2, 1), (3, 2, 2)),
    (GF(5), GF(5), GF(7), ("F5", 5, True)),
]
RECORD_IDS = ["ProjPair", "NonProj", "AutCoset", "ModelParams", "ScalarRing"]
FIELD_NAMES = {
    ProjPair: ("lam", "mu"),
    NonProj: ("level", "alpha", "lam"),
    AutCoset: ("level", "rep"),
    ModelParams: ("p", "n", "e"),
    ScalarRing: ("name", "characteristic", "is_field"),
}


@pytest.mark.parametrize("record,same,other,fields", RECORDS, ids=RECORD_IDS)
def test_record_equality_and_hash_follow_the_fields(record, same, other, fields):
    # a frozen record hashes the tuple of its fields, so dict and set
    # orders keyed by records do not depend on how the record is built
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("record,same,other,fields", RECORDS, ids=RECORD_IDS)
def test_record_fields_cannot_be_reassigned(record, same, other, fields):
    names = FIELD_NAMES[type(record)]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert tuple(getattr(record, name) for name in names) == fields


def test_value_records_keep_no_instance_dict():
    # one per basis class and per coset: a dict each would cost memory
    for record in (ProjPair(0, 1), NonProj(1, 2, 0), AutCoset(2, 4), QQ):
        assert not hasattr(record, "__dict__")


def test_model_params_cache_their_sizes():
    params = make_params(3, 2, 2)
    assert (params.pn, params.group_order, params.multiplicity) == (9, 18, 4)
    assert {"pn", "group_order", "multiplicity"} <= set(vars(params))
    assert make_params(3, 2, 2) == params  # the cached sizes take no part


@pytest.mark.parametrize(
    "pne,error,message",
    [
        ((4, 1, 1), NotPrime, "p = 4 is not prime"),
        ((4, 0, 1), NotPrime, "p = 4 is not prime"),
        ((3, 0, 1), BadOrder, "n = 0 must be positive"),
        ((2, 2, 2), TwoBlocked, "p = 2 forces a trivial inertial subgroup"),
        ((3, 2, 4), BadOrder, "e = 4 does not divide p - 1 = 2"),
        ((7, 1, 0), BadOrder, "e = 0 does not divide p - 1 = 6"),
    ],
    ids=["p", "p-before-n", "n", "two", "e", "e-zero"],
)
def test_make_params_refuses_with_its_messages(pne, error, message):
    with pytest.raises(error) as raised:
        make_params(*pne)
    assert str(raised.value) == message


def test_decisions_without_a_certificate_do_not_share_one():
    first = SemisimplicityDecision("semisimple", "injected")
    second = SemisimplicityDecision(verdict="inconclusive", method="none")
    first.certificate["gram_rank"] = 3
    assert first.certificate is not second.certificate
    assert second.certificate == {}
    given = {"support": []}
    assert SemisimplicityDecision("not_semisimple", "x", given).certificate is given


def test_smith_certificates_compare_by_identity():
    d = u = v = np.eye(2, dtype=np.int64)
    first = SnfResult(d, u, v)
    assert first == first and first != SnfResult(d, u, v)


@pytest.mark.parametrize("pne", INSTANCES + BEYOND_INSTANCES, ids=str)
def test_basis_records_are_distinct(pne):
    p, n, e = pne
    assert len(set(build_basis(make_params(*pne)))) == e * e + p**n - 1
