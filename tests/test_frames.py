"""Frame ranges and the machine frame pool."""

import copy
import pickle

import pytest

from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.frames import FramePool, FrameRange, unchecked


# ----------------------------------------------------------------------
# FrameRange
# ----------------------------------------------------------------------

def test_range_basics():
    r = FrameRange(10, 5)
    assert r.end == 15
    assert r.overlaps(FrameRange(14, 2))
    assert not r.overlaps(FrameRange(15, 2))


def test_range_validation():
    with pytest.raises(AllocationError):
        FrameRange(-1, 5)
    with pytest.raises(AllocationError):
        FrameRange(0, 0)


def test_range_split():
    head, tail = FrameRange(10, 5).split(2)
    assert head == FrameRange(10, 2)
    assert tail == FrameRange(12, 3)
    with pytest.raises(AllocationError):
        FrameRange(10, 5).split(5)
    with pytest.raises(AllocationError):
        FrameRange(10, 5).split(0)


def test_unchecked_builds_the_same_range():
    built = unchecked((7, 3))
    assert built == FrameRange(7, 3)
    assert type(built) is FrameRange
    assert hash(built) == hash(FrameRange(7, 3))
    assert (built.start, built.count, built.end) == (7, 3, 10)


def test_range_is_immutable():
    r = FrameRange(10, 5)
    with pytest.raises(AttributeError):
        r.start = 11
    with pytest.raises(AttributeError):
        r.count = 1
    with pytest.raises(AttributeError):
        r.owner = "x"
    assert r == FrameRange(10, 5)


def test_range_pickles_and_copies_to_an_equal_range():
    r = FrameRange(10, 5)
    for copied in (
        pickle.loads(pickle.dumps(r)),
        copy.deepcopy(r),
        copy.copy(r),
    ):
        assert copied == r
        assert type(copied) is FrameRange
    # The rebuild validates, as the constructor does.
    with pytest.raises(AllocationError):
        copy.deepcopy(unchecked((4, 0)))


def test_range_repr_names_its_fields():
    assert repr(FrameRange(10, 5)) == "FrameRange(start=10, count=5)"


# ----------------------------------------------------------------------
# FramePool
# ----------------------------------------------------------------------

def test_pool_first_fit_allocation():
    pool = FramePool(0, 100)
    a = pool.allocate(40)
    b = pool.allocate(30)
    assert a.start == 0 and b.start == 40
    assert pool.free_frames == 30
    assert pool.allocated_frames == 70


def test_pool_contiguous_exhaustion():
    pool = FramePool(0, 100)
    a = pool.allocate(40)
    pool.allocate(30)
    pool.free(a)  # free list: [0,40) and [70,100)
    with pytest.raises(OutOfMemoryError):
        pool.allocate(50)  # 70 free but not contiguous
    assert pool.free_frames == 70


def test_pool_scattered_allocation_spans_holes():
    pool = FramePool(0, 100)
    a = pool.allocate(40)
    pool.allocate(30)
    pool.free(a)
    ranges = pool.allocate_scattered(50)
    assert sum(r.count for r in ranges) == 50
    assert pool.free_frames == 20
    pool.check_invariants()


def test_pool_scattered_raises_without_side_effects():
    pool = FramePool(0, 50)
    pool.allocate(30)
    with pytest.raises(OutOfMemoryError):
        pool.allocate_scattered(30)
    assert pool.free_frames == 20


def test_pool_free_coalesces():
    pool = FramePool(0, 100)
    a = pool.allocate(30)
    b = pool.allocate(30)
    c = pool.allocate(40)
    pool.free(a)
    pool.free(c)
    pool.free(b)  # merges everything back into one span
    assert pool.free_frames == 100
    pool.check_invariants()
    full = pool.allocate(100)
    assert full.count == 100


def test_pool_double_free_detected():
    pool = FramePool(0, 100)
    a = pool.allocate(10)
    pool.free(a)
    with pytest.raises(AllocationError):
        pool.free(a)


def test_pool_foreign_range_rejected():
    pool = FramePool(0, 100)
    with pytest.raises(AllocationError):
        pool.free(FrameRange(200, 10))


def test_pool_zero_allocation_rejected():
    pool = FramePool(0, 100)
    with pytest.raises(AllocationError):
        pool.allocate(0)
    with pytest.raises(AllocationError):
        pool.allocate_scattered(-1)


def test_pool_base_offset():
    pool = FramePool(1000, 50, name="offset")
    r = pool.allocate(10)
    assert r.start == 1000
    pool.free(r)
    pool.check_invariants()
