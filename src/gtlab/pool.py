"""One call for the jet requests of many evaluators (``jets``, read as ``kernel.jets``).

A request is (evaluator, args, multis), answered with the table its ``partials`` gives.
An evaluator with a ``pool`` is the first of its parts minus the others, each part a
``Batch`` (a kernel placed on argument slots that answers a list of orders in one call) or
an evaluator answering through its own ``partial_fn``; ``jets`` answers every ``Batch`` of
one kernel over all the requests from one call on their columns concatenated, asking the
union of their orders (the batch evaluation of Deconinck et al., Math. Comp. 73, 2004).
This module reads an evaluator only through its ``pool``, ``partial_fn`` and the request
checks and table filling it shares with ``partials``, so it imports nothing of the kernel.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .errors import GTLabError


class Batch:
    """A kernel that answers a list of orders in one call, placed on an evaluator's argument
    slots, as its ``partial_fn``: ``answer(xs, orders)`` gives one entry per order (all
    zeros for the value) over the kernel's own variables xs, which ``pick`` reads from the
    arguments, as it reads the orders from a multi-index; a partial in a slot the kernel
    does not read is 0."""

    def __init__(self, answer: Callable, pick: Callable):
        self.answer, self.pick = answer, pick

    def __call__(self, args, multis):
        return _batched(self.answer, [(self, args, multis)])[0]


def _batched(answer: Callable, asks: Sequence) -> list[list]:
    """The entries of each ask (a ``Batch`` of ``answer``, its argument columns, its
    multi-indices) from one ``answer`` call over the variables of all the asks, each column
    concatenated over them, asking the union of the orders they read."""
    segments = []
    for batch, args, multis in asks:
        orders = [batch.pick(multi) for multi in multis]
        live = [sum(o) == sum(multi) for o, multi in zip(orders, multis)]
        segments.append((batch.pick(args), orders, live))
    union = list(dict.fromkeys(o for _, orders, live in segments
                               for o, ok in zip(orders, live) if ok))
    if len(segments) == 1:  # its entries whole, so one ask may also be a point
        xs, cuts = segments[0][0], [lambda v: v]
    else:
        xs = tuple(map(np.concatenate, zip(*(x for x, _, _ in segments))))
        stops = np.cumsum([len(x[0]) for x, _, _ in segments]).tolist()
        cuts = [itemgetter(slice(a, b)) for a, b in zip([0, *stops], stops)]
    vals = dict(zip(union, answer(xs, union))) if union else {}
    return [[cut(vals[o]) if ok else 0.0 + 0.0j for o, ok in zip(orders, live)]
            for (_, orders, live), cut in zip(segments, cuts)]


def jets(requests: Sequence[tuple]) -> list:
    """Each (evaluator, args, multis) request's table, as its ``partials`` gives it.  The
    requests whose evaluator has a ``pool`` are answered together: every ``Batch`` of one
    kernel among their parts from one call over all their columns, each other part by its
    own ``partial_fn``, and a request's entries its first part's minus the others'.  Any
    other request goes to its ``partials``.  A pooled call that raises a package or
    arithmetic error asks every request alone, in order, so that each error is the one
    its own request raises, naming a point by its place in that request's columns."""
    requests = list(requests)
    pooled = [i for i, (e, _, _) in enumerate(requests) if e.pool is not None]
    try:
        tables = dict(zip(pooled, _pooled([requests[i] for i in pooled])))
    except (GTLabError, ArithmeticError):
        tables = {}  # each request alone, below
    return [tables[i] if i in tables else e.partials(args, multis)
            for i, (e, args, multis) in enumerate(requests)]


def _pooled(requests: Sequence[tuple]) -> list:
    """``jets`` over requests whose evaluators all have a ``pool``."""
    asked = [(e, *e._columns(args, multis), multis) for e, args, multis in requests]
    groups: dict[Callable, list] = {}  # answer -> its asks, in request order
    for e, cols, _, multis in asked:
        for part in e.pool:
            if isinstance(part, Batch):
                groups.setdefault(part.answer, []).append((part, tuple(cols), multis))
    with np.errstate(all="ignore"):
        answered = {answer: iter(_batched(answer, asks)) for answer, asks in groups.items()}
        entries = [[next(answered[part.answer]) if isinstance(part, Batch)
                    else list(part.partial_fn(tuple(cols), multis)) for part in e.pool]
                   for e, cols, _, multis in asked]
    tables = []
    for (e, cols, point, multis), (out, *rest) in zip(asked, entries):
        for other in rest:
            out = [x - y for x, y in zip(out, other)]
        tables.append(e._table(cols, multis, out, point))
    return tables
