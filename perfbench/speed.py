"""The machine-speed probes that timings are rescaled by.

The benchmark's machine shares its cores with other tenants, and the same
code runs up to 1.6 times slower from one minute to the next.  A probe is
a fixed piece of pure Python that runs no ``dynsys`` code: a change to the
package moves a rescaled time as much as the time as measured, while a
slower machine slows the probe too.  Standard library only, so a probe can
run before ``import dynsys`` is timed.

Two probes, each matched to the stretches it rescales (measured on this
benchmark's runs, see README.md):

- ``loop_ms``, a tight arithmetic loop run by the driver around each CLI
  subprocess and set-up sample, whose time is mostly interpreter start-up;
- ``walk_ms``, a recursive walk over a tuple tree run inside the
  ``germ_compose`` interpreter around its blocks of operations, which are
  call-heavy like the walk.
"""

import statistics
import time

# each probe's time at the reference speed that timings are rescaled to
REF_LOOP_MS = 1.4
REF_WALK_MS = 1.5


def _median_ms(body, repeats: int = 5) -> float:
    """Median of five timings of body(); ignores a single interruption."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def _tree(depth: int, leaves: list):
    if depth == 0:
        leaves.append(len(leaves) % 7 / 8.0 + 0.125)
        return leaves[-1]
    return ("+" if depth % 2 else "*", _tree(depth - 1, leaves), _tree(depth - 1, leaves))


_TREE = _tree(11, [])


def _walk(node) -> float:
    if type(node) is float:
        return node
    op, left, right = node
    a, b = _walk(left), _walk(right)
    return a + b if op == "+" else a * b


def loop_ms() -> float:
    return _median_ms(_loop)


def walk_ms() -> float:
    return _median_ms(lambda: [_walk(_TREE) for _ in range(4)])


def scale(before_ms: float, after_ms: float, ref_ms: float) -> float:
    """Factor that turns seconds measured between two probes into seconds
    at the reference speed."""
    return 2 * ref_ms / (before_ms + after_ms)


def at_reference_speed(fn, *args):
    """Run fn between two loop probes: (its result, the factor for its time)."""
    before = loop_ms()
    got = fn(*args)
    return got, scale(before, loop_ms(), REF_LOOP_MS)
