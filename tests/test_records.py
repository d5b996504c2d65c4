"""The value records: construction, validation, equality, hashing, repr,
immutability and copying, for every record class in the package.

Each record is described here by its field names, written out rather
than read from the class, so these tests pin the contract whatever
machinery implements it.
"""

import copy
import os
import pickle
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import gpfree
from gpfree.checks import CheckResult
from gpfree.cli import _Grammar
from gpfree.counting import NormCount
from gpfree.density import AnnuliSpec, DensityEstimate
from gpfree.freegroup import Word
from gpfree.greedy import GreedyReport, build_greedy
from gpfree.quaternion import ONE, HurwitzInt, ModelledFactorization

ANNULI = ((48, 45), (40, 36), (32, 27), (24, 12), (9, 8), (4, 1))

FIELDS = {
    CheckResult: ("name", "ok", "detail", "seconds"),
    _Grammar: ("options", "exclusive", "subparsers", "commands", "handler"),
    NormCount: ("max_norm", "per_norm", "cumulative"),
    AnnuliSpec: ("interval_ratios",),
    DensityEstimate: ("value", "truncation"),
    Word: ("leading", "length"),
    GreedyReport: ("max_norm", "included", "excluded", "shell_ends"),
    ModelledFactorization: ("prime_norms", "factors"),
}

# (instance, its exact repr); a repr of None is checked only for its field order.
SAMPLES = [
    (CheckResult("bounds", True, "ok", 0.25),
     "CheckResult(name='bounds', ok=True, detail='ok', seconds=0.25)"),
    (_Grammar({}), "_Grammar(options={}, exclusive=(), subparsers=None, commands=None, handler=None)"),
    (_Grammar({"--n": None}, commands={}),
     "_Grammar(options={'--n': None}, exclusive=(), subparsers=None, commands={}, handler=None)"),
    (NormCount.build(3),
     "NormCount(max_norm=3, per_norm=_ByNorm(max_norm=3), cumulative=_ByNorm(max_norm=3))"),
    (AnnuliSpec(), f"AnnuliSpec(interval_ratios={ANNULI!r})"),
    (AnnuliSpec(((3, 2),)), "AnnuliSpec(interval_ratios=((3, 2),))"),
    (DensityEstimate(Decimal("0.75"), (100, 12)),
     "DensityEstimate(value=Decimal('0.75'), truncation=(100, 12))"),
    (Word("x", 3), "Word(leading='x', length=3)"),
    (Word(None, 0), "Word(leading=None, length=0)"),
    (GreedyReport(1, (ONE,), (), ((0, 0), (1, 0))),
     "GreedyReport(max_norm=1, included=(HurwitzInt(2, 0, 0, 0),), excluded=(), "
     "shell_ends=((0, 0), (1, 0)))"),
    (build_greedy(4), None),
    (ModelledFactorization((2,), (HurwitzInt(2, 2, 0, 0),)),
     "ModelledFactorization(prime_norms=(2,), factors=(HurwitzInt(2, 2, 0, 0),))"),
]


def fields(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def sample_id(sample):
    return repr(sample[0])[:40]


@pytest.fixture(params=SAMPLES, ids=sample_id)
def sample(request):
    return request.param


def test_every_record_has_a_sample():
    assert {type(record) for record, _ in SAMPLES} == set(FIELDS)


def test_repr(sample):
    record, text = sample
    if text is None:
        names = FIELDS[type(record)]
        text = f"{type(record).__name__}(" + ", ".join(
            f"{name}={getattr(record, name)!r}" for name in names) + ")"
    assert repr(record) == text


def test_positional_and_keyword_construction(sample):
    record, _ = sample
    cls = type(record)
    values = fields(record)
    assert cls(*values) == record
    assert cls(**dict(zip(FIELDS[cls], values))) == record


def test_defaults():
    assert AnnuliSpec().interval_ratios == ANNULI
    assert fields(_Grammar({"-x": None})) == ({"-x": None}, (), None, None, None)
    with pytest.raises(TypeError):
        Word("x")
    with pytest.raises(TypeError):
        Word("x", 1, 2)


def test_assignment_and_deletion_refused(sample):
    record, _ = sample
    for field in FIELDS[type(record)]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


def test_equality_is_per_class(sample):
    record, _ = sample
    values = fields(record)

    class Lookalike:
        pass

    class Subclass(type(record)):
        pass

    other = Lookalike()
    for name, value in zip(FIELDS[type(record)], values):
        setattr(other, name, value)
    assert record == type(record)(*values)
    for different in (other, Subclass(*values), values):
        assert record != different
        assert different != record


def test_hash_is_field_tuple_hash(sample):
    record, _ = sample
    try:
        expected = hash(fields(record))
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copy_and_pickle_round_trip(sample, clone):
    record, _ = sample
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert fields(twin) == fields(record)


def test_unequal_fields_compare_unequal():
    assert Word("x", 3) != Word("y", 3)
    assert AnnuliSpec() != AnnuliSpec(((3, 2),))
    assert CheckResult("a", True, "", 0.0) != CheckResult("a", False, "", 0.0)


@pytest.mark.parametrize("args, message", [
    (("x", -1), "length must be nonnegative, got -1"),
    ((None, 2), "leading None inconsistent with length 2"),
    (("x", 0), "leading 'x' inconsistent with length 0"),
    (("z", 1), "leading letter must be 'x' or 'y', got 'z'"),
])
def test_word_validation(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Word(*args)


@pytest.mark.parametrize("ratios, message", [
    ((), "interval_ratios must hold at least one (lo, hi) pair"),
    (((2, 3),), "interval ratio (2, 3) is not a pair of ints lo > hi >= 1"),
    (((2, 1), [3, 1]), "interval ratio [3, 1] is not a pair of ints lo > hi >= 1"),
    (((2, 1.0),), "interval ratio (2, 1.0) is not a pair of ints lo > hi >= 1"),
    (((2, 1, 0),), "interval ratio (2, 1, 0) is not a pair of ints lo > hi >= 1"),
    (((1, 0),), "interval ratio (1, 0) is not a pair of ints lo > hi >= 1"),
])
def test_annuli_validation(ratios, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnnuliSpec(ratios)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnnuliSpec(interval_ratios=ratios)


@pytest.mark.parametrize("value", ["-0.1", "1.5", "2"])
def test_density_estimate_validation(value):
    with pytest.raises(ValueError, match=f"^{re.escape(f'density {value} outside [0, 1]')}$"):
        DensityEstimate(Decimal(value), (10, 3))


def test_monotone_direction_is_a_class_constant():
    assert DensityEstimate.monotone_direction == "over"
    assert DensityEstimate(Decimal(1), (3, 2)).monotone_direction == "over"
    assert "monotone_direction" not in FIELDS[DensityEstimate]
    assert repr(DensityEstimate(Decimal(0), (3, 2))) == "DensityEstimate(value=Decimal('0'), truncation=(3, 2))"


def test_cli_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis; a fresh `gpfree` process
    # pays for every module that importing the CLI loads.  -S leaves out
    # whatever the interpreter's site packages import at start-up.
    code = ("import gpfree.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(gpfree.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    assert result.stdout == "[]\n"
