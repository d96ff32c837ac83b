import errno
import os

import pytest

# One BLAS thread, set before numpy loads, as ilrgp.cli does: the matrices
# here are small, and on a shared box extra BLAS threads slow the timed
# acceptance criteria. Child processes inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Child processes started by the tests import ilrgp from this checkout, as
# the suite itself does (pyproject.toml puts src on the path).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


class _FailingOs:
    """``os`` as seen by ilrgp's file writer, with a write that fails part way.

    The first ``write`` puts half of its bytes on disk; the next one raises
    ``OSError(ENOSPC)``.
    """

    def __init__(self):
        self.writes = 0

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return os.write(fd, data[: len(data) // 2])


@pytest.fixture
def failing_writes(monkeypatch):
    """Make every file ilrgp writes fail after half of its first write."""
    import ilrgp.data

    fake = _FailingOs()
    monkeypatch.setattr(ilrgp.data, "os", fake)
    return fake
