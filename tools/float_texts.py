"""Gauge of the report's float kernel: does ``cli._float_texts`` write
``"%.17g"`` of every double, bit for bit?

Run from any checkout: ``python3 tools/float_texts.py``.  It takes no options.

It formats 10**7 doubles from fixed seeds, in batches of ``BATCH``, and
compares each text with ``format(x, ".17g")``.  The families are:

- ``bits``: random 64-bit patterns over the whole range (non-finite ones
  dropped);
- ``near-range``: random patterns with a binary exponent from -21 to 57, in
  and around the kernel's range (1e-6, 1e17);
- ``scaled-normal``: normal draws times 10**k, k from -9 to 19;
- ``ties``: (2M + 1) / 2**s for s = 1..5, exact halves at the last digit;
- ``near-powers``: the 200 doubles on each side of each power of ten from
  1e-8 to 1e18, and those powers;
- ``integers``: integers below 2**53 and beyond it.

Every value is formatted with both signs.  stdout gets one line per family
with its count; the first mismatch prints the value and both texts, and the
exit code is 1 if there is one, else 0.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
from jetkcc.cli import _float_texts  # noqa: E402

BATCH = 100_000


def _bits(rng, size):
    bits = rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    return bits[np.isfinite(bits)]


def _near_range(rng, size):
    bits = rng.integers(0, 2**52, size, dtype=np.uint64)
    exponent = rng.integers(1023 - 21, 1023 + 58, size).astype(np.uint64)
    return (bits | exponent << np.uint64(52)).view(np.float64)


def _scaled_normal(rng, size):
    return rng.standard_normal(size) * 10.0 ** rng.integers(-9, 20, size)


def _ties(rng, size):
    odd = 2 * rng.integers(0, 2**52, size) + 1
    return odd / 2.0 ** rng.integers(1, 6, size)


def _near_powers(rng, size):
    values = []
    for j in range(-8, 19):
        low = high = 10.0**j
        values.append(low)
        for _ in range(size):
            low, high = np.nextafter(low, 0.0), np.nextafter(high, np.inf)
            values += [low, high]
    return np.array(values)


def _integers(rng, size):
    return rng.integers(0, 2**63 - 1, size) >> rng.integers(0, 63, size)


# name -> (draw(rng, size), size): each family's values before the sign is doubled
FAMILIES = {
    "bits": (_bits, 1_000_000),
    "near-range": (_near_range, 2_000_000),
    "scaled-normal": (_scaled_normal, 1_000_000),
    "ties": (_ties, 500_000),
    "near-powers": (_near_powers, 200),
    "integers": (_integers, 500_000),
}


def main() -> int:
    total = 0
    for seed, (name, (draw, size)) in enumerate(FAMILIES.items()):
        rng = np.random.default_rng(seed)
        values = draw(rng, size).astype(np.float64)
        values = np.concatenate([values, -values])
        for start in range(0, values.size, BATCH):
            batch = values[start : start + BATCH]
            for x, got in zip(batch.tolist(), _float_texts(batch)):
                if got != format(x, ".17g"):
                    print(f"mismatch in {name}: {x!r} -> {got!r}, want {x:.17g}")
                    return 1
        print(f"{name}: {values.size} values, no mismatch", flush=True)
        total += values.size
    print(f"all: {total} values, no mismatch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
