"""The route table: every family builds, runs exactly and checks its
structure, and a network runs through its own `.evaluate`."""

import random
from dataclasses import replace

import pytest
from util import SMALL_ROUTES

from permdec.ledger import CostLedger
from permdec.network import evaluate_network
from permdec.slots import SlotVector
from permdec.verify import ROUTES, checked_run


def _family(name: str) -> str:
    return name.split("-")[0]


def test_small_routes_cover_every_family():
    assert {_family(name) for name in SMALL_ROUTES} == set(ROUTES)


@pytest.mark.parametrize("name", SMALL_ROUTES)
def test_every_family_is_exact_and_structured(name):
    rng = random.Random(name)
    route = SMALL_ROUTES[name](rng)
    vals = route.draw(rng)
    ok, led, out = checked_run(route, vals)
    assert ok and led.ops and out.n == route.obj.n
    # the oracle decides: a wrong one fails the same run
    wrong = replace(route, want=lambda vals: [x + 1 for x in vals])
    assert not checked_run(wrong, vals)[0]
    # only padded chains and networks have no factor product to check
    if _family(name) in ("gamma", "xi", "network"):
        assert route.structure is None
    else:
        assert route.structure()
    # padded chains draw their inputs on their support alone
    support = route.support if route.support is not None else range(out.n)
    assert all(s in support for s, x in enumerate(vals) if x)


@pytest.mark.parametrize("name", ["network-raw", "network-reduced",
                                  "network-collapsed"])
def test_network_evaluate_is_evaluate_network(name):
    rng = random.Random(name)
    net = SMALL_ROUTES[name](rng).obj
    vals = [rng.randint(-9, 9) for _ in range(net.n)]
    with CostLedger() as method:
        got = net.evaluate(SlotVector.from_list(vals))
    with CostLedger() as function:
        want = evaluate_network(net, SlotVector.from_list(vals))
    assert method.ops == function.ops and method.ops
    assert got.to_list() == want.to_list()
