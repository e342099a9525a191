"""Cost of one exact scalar operation at the field orders the workloads produce.

Operands are fixed: they come from a constant seed, not from the benchmark
seed, so the figures compare across runs.  For an order N the multiplication
pairs are one third same-order, one third N against the largest proper
divisor order whose field is not Q (so one operand is embedded first; a
rational when there is no such divisor), and one third N against a rational.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

from hopfcheck.cyclotomic import Cyc, euler_phi
from speed import Speedometer

MUL_ORDERS = (1, 4, 12, 18)
INVERSE_ORDERS = (4, 12, 18)
PAIRS_PER_KIND = 8
REPEATS = 9
MIN_BATCH_S = 0.03


def _scalar(rng: random.Random, order: int) -> Cyc:
    """A random scalar of exactly this order (order 1: a rational)."""
    while True:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(euler_phi(order))]
        c = Cyc(order, coeffs)
        if c.order == order:
            return c


def _per_op_us(batch, ops: int) -> float:
    """Median over REPEATS of the time per operation, in microseconds at
    reference speed (speed.py)."""
    loops = 1
    while True:
        t0 = perf_counter()
        for _ in range(loops):
            batch()
        if perf_counter() - t0 >= MIN_BATCH_S:
            break
        loops *= 2
    times = []
    for _ in range(REPEATS):
        with Speedometer() as speed:
            spent = speed.spent[0]
            t0 = perf_counter()
            for _ in range(loops):
                batch()
            elapsed = perf_counter() - t0 - (speed.spent[0] - spent)
        times.append(speed.rescale(elapsed, 0.0)[0] / (loops * ops))
    return statistics.median(times) * 1e6


def scalar_costs() -> dict:
    """Metric name -> microseconds per operation."""
    rng = random.Random(20070817)
    out = {}
    for order in MUL_ORDERS:
        divisors = [d for d in range(2, order) if order % d == 0 and euler_phi(d) > 1]
        partners = [order, divisors[-1] if divisors else 1, 1]
        pairs = [(_scalar(rng, order), _scalar(rng, p))
                 for p in partners for _ in range(PAIRS_PER_KIND)]

        def mul_all(pairs=pairs):
            for a, b in pairs:
                a * b
        out[f"cyclotomic.mul_us.o{order}"] = _per_op_us(mul_all, len(pairs))
    for order in INVERSE_ORDERS:
        scalars = [_scalar(rng, order) for _ in range(3 * PAIRS_PER_KIND)]

        def inverse_all(scalars=scalars):
            for a in scalars:
                a.inverse()
        out[f"cyclotomic.inverse_us.o{order}"] = _per_op_us(inverse_all, len(scalars))
    return out
