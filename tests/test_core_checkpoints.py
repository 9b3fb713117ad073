"""Checkpoint-repair storage tests."""

from dataclasses import replace

import pytest

from repro.core.clusters import CheckpointStore
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.errors import ConfigError
from tests.helpers import run_asm


def test_acquire_free_when_capacity_available():
    store = CheckpointStore(2)
    assert store.acquire(10) == 10
    store.commit(50)
    assert store.acquire(11) == 11
    store.commit(60)


def test_acquire_stalls_when_full():
    store = CheckpointStore(2)
    store.acquire(0)
    store.commit(50)
    store.acquire(0)
    store.commit(60)
    # Both checkpoints live; the next branch waits for the oldest.
    assert store.acquire(10) == 50
    store.commit(70)
    # and the one after for the next oldest
    assert store.acquire(10) == 60


def test_resolved_checkpoints_reclaim():
    store = CheckpointStore(1)
    store.acquire(0)
    store.commit(5)
    # By cycle 6 the single checkpoint is free again, but not by 4.
    assert store.acquire(6) == 6
    store.commit(9)
    assert store.acquire(4) == 9


def test_reclaim_is_in_allocation_order():
    """A circular buffer: a checkpoint cannot free before its
    predecessors even if its branch resolved earlier."""
    store = CheckpointStore(2)
    store.acquire(0)
    store.commit(100)      # old branch resolves late
    store.acquire(0)
    store.commit(20)       # younger branch resolves early ...
    # ... but its slot is behind the older one:
    assert store.acquire(0) == 100


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(max_checkpoints=0)


BRANCHY = """
main:
    li   $t9, 400
loop:
    andi $t1, $t0, 3
    beq  $t1, $zero, a
a:  andi $t2, $t0, 5
    beq  $t2, $zero, b
b:  addi $t0, $t0, 1
    blt  $t0, $t9, loop
    halt
"""


def test_scarce_checkpoints_throttle_pipeline():
    _, trace = run_asm(BRANCHY)
    plenty = Engine(SimConfig.tiny()).run(trace, "t", "r")
    scarce = Engine(replace(SimConfig.tiny(),
                                   max_checkpoints=2)).run(trace, "t", "r")
    assert scarce.cycles >= plenty.cycles
    assert scarce.ipc <= plenty.ipc


def test_more_checkpoints_never_hurt():
    _, trace = run_asm(BRANCHY)
    cycles = []
    for capacity in (1, 4, 64):
        model = Engine(replace(SimConfig.tiny(),
                                      max_checkpoints=capacity))
        cycles.append(model.run(trace, "t", "r").cycles)
    assert cycles[0] >= cycles[1] >= cycles[2]


def test_stall_counter_visible():
    _, trace = run_asm(BRANCHY)
    model = Engine(replace(SimConfig.tiny(), max_checkpoints=1))
    result = model.run(trace, "t", "r")
    assert result.telemetry["rename.checkpoint.stalls"] > 0
