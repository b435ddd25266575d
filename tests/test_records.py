"""The value records: built without dataclass code at import, and each one
immutable, validated, equal and hashed by value, and picklable."""

import dataclasses
import pickle
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import qalg.cli  # noqa: F401  imports every module of the package
from qalg import (AgileSpec, DomainError, IntegerPolynomial, JacobiCharacter,
                  PeriodicCoeffs, PrecisionContext, RecognitionResult, Residual,
                  TaylorInput, ThetaSpec, harness, make_nome, represent_theta)
from qalg.recognize import QUANTITIES

RECORDS = {
    "PrecisionContext": lambda: PrecisionContext(40),
    "Nome": lambda: make_nome(2, PrecisionContext(40)),
    "AgileSpec": lambda: AgileSpec(1, 5),
    "ThetaSpec": lambda: ThetaSpec("5/2", "1/2"),
    "Residual": lambda: Residual(mp.mpf(1), mp.mpf(2), "note"),
    "JacobiCharacter": lambda: JacobiCharacter(40),
    "TaylorInput": lambda: TaylorInput([1, "1/2", 3]),
    "PeriodicCoeffs": lambda: PeriodicCoeffs([1, -1, -1, 1, 0]),
    "ThetaRepresentation": lambda: represent_theta(PeriodicCoeffs([1, -1, -1, 1, 0])),
    "IntegerPolynomial": lambda: IntegerPolynomial((4, 0, -2)),
    "RecognitionResult": lambda: RecognitionResult(
        IntegerPolynomial((-2, 0, 1)), mp.mpf("1e-100"), None, 100, "recognized"),
    "Quantity": lambda: QUANTITIES["agile_star_ki"],
    "CheckOutcome": lambda: harness.CheckOutcome("lhs", "rhs", 0, 1),
    "IdentityReport": lambda: harness.IdentityReport(
        "x", "1", "1", "0", "1", "pass", 0.5),
}


def test_one_dataclass_left():
    # every other record is a tuple, so no dataclass code runs at import
    classes = {f"{v.__module__}.{v.__qualname__}"
               for name, mod in list(sys.modules.items())
               if name == "qalg" or name.startswith("qalg.")
               for v in vars(mod).values()
               if isinstance(v, type) and v.__module__ == name
               and hasattr(v, "__dataclass_fields__")}
    assert classes == {"qalg.harness.IdentityCheck"}


def test_replaced_check_runs(monkeypatch):
    """dataclasses.replace swaps a registry entry's run, as perfbench does."""
    check = harness.REGISTRY["eq05.modulus-theta.r1"]
    seen = []

    def run(ctx):
        seen.append(ctx)
        return check.run(ctx)

    swapped = dataclasses.replace(check, run=run)
    assert swapped.id == check.id and swapped.kind == check.kind
    monkeypatch.setitem(harness.REGISTRY, check.id, swapped)
    report = harness._execute_check(check.id, 60)
    assert report.verdict == "pass" and seen == [PrecisionContext(60)]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_identity_check_is_frozen():
    check = harness.REGISTRY["eq05.modulus-theta.r1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.id = "other"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_pickle_round_trip(name):
    record = RECORDS[name]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_precision_context_value_semantics():
    ctx = PrecisionContext(120)
    assert ctx == PrecisionContext(120, 20) and hash(ctx) == hash(PrecisionContext(120, 20))
    assert ctx != PrecisionContext(120, 10) and ctx != PrecisionContext(121)
    assert {ctx: 1}[PrecisionContext(digits=120, guard=20)] == 1
    # an equal context is the same lru_cache key
    assert make_nome(3, ctx) is make_nome(3, PrecisionContext(120))


def test_normalised_fields():
    assert AgileSpec(1, "5") == (Fraction(1), Fraction(5))
    assert all(type(v) is Fraction for v in AgileSpec(1, "5") + ThetaSpec("5/2", 0))
    assert IntegerPolynomial((4, 0, -2, 0)).coefficients == (-2, 0, 1)
    assert IntegerPolynomial((-3, 6)).coefficients == (-1, 2)
    pc = PeriodicCoeffs([1, -1, -1, 1, 0])
    assert pc.period == 5 and pc.A == Fraction(1, 5)
    assert JacobiCharacter(40)[1:] == (3, 5)
    assert QUANTITIES["k"].defaults is None
    assert QUANTITIES["j"].complete({"r": "2"}) == {"via": "modulus", "r": "2"}


@pytest.mark.parametrize("build, message", [
    (lambda: PrecisionContext(29), "digits must be >= 30, got 29"),
    (lambda: PrecisionContext(40, -1), "guard must be >= 0, got -1"),
    (lambda: AgileSpec(5, 5), "need 0 < a < p, got a=5, p=5"),
    (lambda: AgileSpec(0, 5), "need 0 < a < p, got a=0, p=5"),
    (lambda: ThetaSpec(0, 1), "quadratic coefficient must be positive, got 0"),
    (lambda: IntegerPolynomial((0, 0)), "the zero polynomial is not allowed"),
    (lambda: JacobiCharacter(2), "modulus 2 has exactly one factor of 2"),
    (lambda: TaylorInput([]), "need at least one coefficient"),
    (lambda: TaylorInput([0.5]), "coefficients must be exact rationals, got 0.5"),
    (lambda: PeriodicCoeffs([1, 2, 0]), "a period must end in a_T = 0 and mirror"),
])
def test_validation_errors(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value).startswith(message)
