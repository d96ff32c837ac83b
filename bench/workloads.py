"""Benchmark workloads: generated circle-mixture CSVs and the `ilrgp fit` flags.

Every workload uses the three-class unit-circle mixture with ``mix_sd=0.5``
from ``ilrgp.data.gen_circle_mixture``, drawn from the benchmark seed and
written with ``ilrgp.data.save_table``. The program sees only that CSV and
the ``--set`` flags below.
"""

from dataclasses import dataclass

NUM_CLASSES = 3
MIX_SD = 0.5


@dataclass(frozen=True)
class Workload:
    """One workload: CSV size, ``ilrgp fit`` flags, and the smoke-size variant.

    ``datasets`` is how many draws of the seed an untraced run cycles
    through. Exact fits stop after a data-dependent number of steps, so their
    runs take the median over more draws; the collapsed fit always runs to
    its step cap.
    """

    name: str
    rows: int
    datasets: int
    sets: tuple
    smoke_rows: int
    smoke_sets: tuple

    def size(self, smoke: bool):
        """``(rows, fit --set flags)`` at full or smoke size."""
        if smoke:
            return self.smoke_rows, self.sets + self.smoke_sets
        return self.rows, self.sets


# The smoke sizes keep every code path (exact or collapsed, ILR or GPD) but
# shrink rows, steps and Monte-Carlo samples so all three run in seconds.
_SMOKE_EXACT = ("max_iters=5", "mc_samples=50")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-ilr",
            500, 5, (), 60, _SMOKE_EXACT,
        ),
        Workload(
            "exact-gpd",
            500, 5, ("model=gpd",), 60, _SMOKE_EXACT,
        ),
        Workload(
            "collapsed-large",
            20000, 4,
            ("split_train=0.5", "split_val=0.02", "split_test=0.48",
             "backend=collapsed", "num_inducing=64", "max_iters=20"),
            400, ("num_inducing=8", "max_iters=3", "mc_samples=50"),
        ),
    )
}


def split_sizes(rows: int, sets) -> tuple:
    """``(train, val, test)`` row counts, by the rule ilrgp documents for fractions."""
    frac = {"split_train": 0.72, "split_val": 0.08, "split_test": 0.2}
    for item in sets:
        key, value = item.split("=", 1)
        if key in frac:
            frac[key] = float(value)
    n_train = int(frac["split_train"] * rows + 1e-9)
    n_val = int(frac["split_val"] * rows + 1e-9)
    return n_train, n_val, rows - n_train - n_val


def write_csv(path, rows: int, seed):
    """Draw the workload's dataset from ``seed`` (any numpy seed) and write it as an ilrgp CSV."""
    from ilrgp.data import gen_circle_mixture, save_table

    save_table(gen_circle_mixture(NUM_CLASSES, rows, MIX_SD, seed), path)
