"""The operator identities decided exactly in Z/PZ (``referee``), at two
draws, ell 1-3, k 1-2, caps 1-6 and window min(cap, 4) (a smaller window
compares a subset of its entries); a defect planted one unit off mod P
leaves a nonzero entry in every check that reads it."""

import pytest

import referee


@pytest.mark.parametrize("cap", range(1, 7))
@pytest.mark.parametrize("name", list(referee.CHECKS))
def test_holds_exactly(name, cap):
    # the labels a check reads: none, ell, or both
    ks = (1, 2) if name == "composite-exchange" else (1,)
    ells = (1,) if name in ("defining-relation", "screening", "screening-mirror") else (1, 2, 3)
    for seed in (0, 1):
        for ell, k in ((ell, k) for ell in ells for k in ks):
            assert referee.reading(name, ell, k, cap, min(cap, 4), seed) == "holds exactly", (seed, ell, k)


def _plant(monkeypatch, name, defect):
    real = getattr(referee, name)
    monkeypatch.setattr(referee, name, lambda *args: defect(real, *args))


def _structure_coefficient(structure, *args):
    g = structure(*args)
    g[3] += 1
    return g


# defect -> (what it wraps, the wrapper, the checks that read it)
PLANTED = {
    "central-term": ("central", lambda central, pt, n: central(pt, n) + (n == 1), {"defining-relation"}),
    "delta-constant": (
        "_exchange",
        lambda exchange, pt, x, y, g, twist, terms, *args: exchange(
            pt, x, y, g, twist, [(terms[0][0] + 1, *terms[0][1:]), *terms[1:]], *args
        ),
        set(referee.RECORDS) - {"defining-relation"},
    ),
    "structure-coefficient": (
        "structure", _structure_coefficient, set(referee.RECORDS) - {"screening", "screening-mirror"}
    ),
}


@pytest.mark.parametrize("labels", [(2, 1), (3, 2)])
@pytest.mark.parametrize("defect", list(PLANTED))
def test_planted_defects_fail_exactly(monkeypatch, defect, labels):
    name, wrapper, reads = PLANTED[defect]
    _plant(monkeypatch, name, wrapper)
    for check in referee.CHECKS:
        got = referee.reading(check, *labels, 3, 2)
        assert got.startswith("fails exactly at ") == (check in reads), (check, got)


def test_degenerate_lines_and_poles(monkeypatch):
    # on t = q^2 the composite exchange's second support meets a pole of its
    # mirror factor at every draw; on t = q^{1/2} the exchange rewrite's
    # support meets one of its own factor, where the library's check is
    # inconclusive ("product form has a pole")
    pt = referee.draw(5, (2, 2), line="2")
    assert pt.t(1) == pt.q(2) != pt.q(1)
    assert referee.reading("composite-exchange", 2, 2, 3, 3, line="2") == "pole at f_k at c_2"
    assert referee.reading("exchange-rewrite", 2, 1, 3, 3, line="1/2") == "pole at support value"
    assert referee.reading("vertex-exchange", 2, 2, 3, 3, line="2") == "holds exactly"
    # a pole at one draw only is a chance zero: the next draw decides
    seen = []

    def chance_zero(draw, seed, *args):
        # q = t = 1: every mode rule's denominator vanishes
        seen.append(seed)
        return referee.Point(1, 1, 2, 2) if len(seen) == 1 else draw(seed, *args)

    _plant(monkeypatch, "draw", chance_zero)
    assert referee.reading("screening", 1, 1, 2, 2) == "holds exactly"
    assert seen == [0, 1]
