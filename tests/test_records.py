"""Records that hold arrays compare and hash by identity, and a member that is
its own iterated rearrangement is not rearranged into a second record."""

import numpy as np
import pytest

import agf.verify
from agf import (CorpusSpec, Member, decreasing_rearrangement, default_corpus, generate_corpus,
                 gagliardo_sums, make_grid_function, modulus_curve,
                 verify_rearrangement_modulus)
from agf.corpus import MDEC_FAMILIES
from agf.verify import LimitTrace


def _pairs():
    """Two equal-valued instances of each array-holding record."""
    def grid():
        return make_grid_function([1.0, 2.0, 0.5], 0.5)

    def trace():
        return LimitTrace("t", "f", "m", np.arange(3.0), np.ones(3), 1.0)

    return {
        "GridFunction": (grid(), grid()),
        "ModulusCurve": (modulus_curve(grid(), 0, 1.0), modulus_curve(grid(), 0, 1.0)),
        "GagliardoSums": (gagliardo_sums(grid(), 1.0), gagliardo_sums(grid(), 1.0)),
        "StepFunction": (decreasing_rearrangement(grid()), decreasing_rearrangement(grid())),
        "LimitTrace": (trace(), trace()),
    }


@pytest.mark.parametrize("name", list(_pairs()))
def test_array_records_compare_and_hash_by_identity(name):
    a, b = _pairs()[name]
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and hash(a) != hash(b)
    assert len({a, b, a}) == 2
    assert {a: 1}[a] == 1


def test_monotone_member_is_its_own_iterated_rearrangement():
    corpus = list(default_corpus(7))
    for fid, f in corpus:
        m = Member(f, fid)
        for order in (tuple(range(f.dims)), tuple(reversed(range(f.dims)))):
            got = m.iterated(order)
            if fid.rsplit("-", 2)[0] in MDEC_FAMILIES:
                assert got is m
            else:
                assert got is not m and got.function_id == fid
            assert np.array_equal(got.f.values, agf.iterated_rearrangement(f, order).values)
            assert m.iterated(order) is got
        # the record keeps a marker for itself, never a reference to itself
        assert all(v is not m for v in m._items.values())


def test_a_full_space_or_shifted_member_is_rearranged():
    vals = np.array([[3.0, 1.0], [2.0, 0.5]])
    for f in (make_grid_function(vals, (0.5, 0.5)),
              make_grid_function(vals, (0.5, 0.5), origin=(0.5, 0.0), halfspace=True)):
        m = Member(f)
        got = m.iterated((0, 1))
        assert got is not m and got.f.halfspace and got.f.origin == (0.0, 0.0)


def test_interval_curve_of_a_nonincreasing_member_is_built_once(monkeypatch):
    built = []
    build = agf.verify.interval_curve_1d

    def counted(f, p):
        built.append(f)
        return build(f, p)

    monkeypatch.setattr(agf.verify, "interval_curve_1d", counted)
    deltas = (0.5, 0.125, 1 / 32)
    for family, curves in (("random-mdec", 1), ("random-general", 2)):
        (fid, f), = generate_corpus(CorpusSpec(family, (16,), (1 / 16,), 3))
        built.clear()
        rows = verify_rearrangement_modulus(Member(f, fid), 2.0, deltas)
        assert len(built) == curves
        # g* read from the curve of the decreasing rearrangement, built directly
        star = build(make_grid_function(np.sort(f.values)[::-1], f.cell_sizes), 2.0)
        assert [r.lhs for r in rows] == [star(d) for d in deltas]
        g_curve = build(make_grid_function(f.values, f.cell_sizes), 2.0)
        assert [r.rhs for r in rows] == [g_curve(d) for d in deltas]
