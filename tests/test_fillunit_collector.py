"""Fill collector tests: segment boundary rules."""

from repro.branch.bias import BiasTable
from repro.fillunit.collector import FillCollector
from tests.helpers import run_asm


def collect_all(trace, collector):
    segments = []
    for record in trace:
        segments.extend(collector.add(record))
    return segments


def test_straight_line_packs_sixteen():
    _, trace = run_asm("main:\n" + "    addi $t0, $t0, 1\n" * 40 + "    halt\n")
    collector = FillCollector(BiasTable(64))
    segments = collect_all(trace, collector)
    assert [len(s) for s in segments] == [16, 16, 9]
    # contiguity: each segment's records are consecutive pcs
    for seg in segments:
        pcs = [r.pc for r in seg.records]
        assert pcs == list(range(pcs[0], pcs[0] + 4 * len(pcs), 4))


def test_terminator_ends_segment():
    _, trace = run_asm("""
    main:
        jal f
        halt
    f:
        addi $t0, $t0, 1
        ret
    """)
    collector = FillCollector(BiasTable(64))
    segments = collect_all(trace, collector)
    # jal does NOT terminate; ret (jr $ra) does; halt does.
    assert len(segments) == 2
    assert segments[0].records[-1].instr.is_return()
    assert segments[1].records[-1].instr.op.value == "halt"


def test_call_does_not_terminate():
    _, trace = run_asm("""
    main:
        addi $t0, $t0, 1
        jal f
        halt
    f:
        addi $t0, $t0, 1
        ret
    """)
    collector = FillCollector(BiasTable(64))
    segments = collect_all(trace, collector)
    first = segments[0]
    ops = [r.instr.op.value for r in first.records]
    assert "jal" in ops and ops[-1] == "jr"
    # the call opens a new flow region but not a checkpoint block
    assert first.region_ids() == ([0, 0, 0, 0], [0, 0, 1, 1])


def test_fourth_branch_splits_segment():
    src = "main:\n"
    for i in range(5):
        src += f"    beq $zero, $t9, skip{i}\nskip{i}:\n"
    src += "    halt\n"
    _, trace = run_asm(src)
    collector = FillCollector(BiasTable(64), max_cond_branches=3)
    segments = collect_all(trace, collector)
    assert all(
        sum(1 for b in s.branches if not b.promoted) <= 3
        for s in segments)
    assert len(segments[0]) == 3   # three not-taken branches, cut before 4th


def test_promoted_branches_do_not_count_toward_limit():
    src = "main:\n"
    for i in range(6):
        src += f"    beq $zero, $t9, skip{i}\nskip{i}:\n"
    src += "    halt\n"
    _, trace = run_asm(src)
    bias = BiasTable(64, threshold=1)
    for record in trace:      # pre-promote every branch
        if record.instr.is_cond_branch():
            bias.record(record.pc, record.taken)
            bias.record(record.pc, record.taken)
    collector = FillCollector(bias, max_cond_branches=3)
    segments = collect_all(trace, collector)
    assert len(segments[0]) == 7   # all six branches + halt pack together


def test_block_ids_increment_after_conditional_branches():
    _, trace = run_asm("""
    main:
        addi $t0, $t0, 1
        beq  $zero, $t9, next
    next:
        addi $t0, $t0, 1
        halt
    """)
    collector = FillCollector(BiasTable(64))
    segments = collect_all(trace, collector)
    block_ids, flow_ids = segments[0].region_ids()
    assert block_ids == [0, 0, 1, 1]
    assert flow_ids == [0, 0, 1, 1]


def test_flow_ids_increment_after_any_transfer():
    _, trace = run_asm("""
    main:
        addi $t0, $t0, 1
        j next
    next:
        addi $t0, $t0, 1
        halt
    """)
    collector = FillCollector(BiasTable(64))
    block_ids, flow_ids = collect_all(trace, collector)[0].region_ids()
    # unconditional jump advances flow but NOT checkpoint block
    assert flow_ids == [0, 0, 1, 1]
    assert block_ids == [0, 0, 0, 0]


def test_miss_alignment_cuts_segment():
    _, trace = run_asm("main:\n" + "    addi $t0, $t0, 1\n" * 20 + "    halt\n")
    collector = FillCollector(BiasTable(64))
    align_pc = trace[5].pc
    collector.note_fetch_miss(align_pc)
    segments = collect_all(trace, collector)
    assert segments[0].records[-1].pc == align_pc - 4
    assert segments[1].start_pc == align_pc


def test_block_granular_mode_keeps_whole_blocks():
    src = "main:\n"
    for i in range(4):
        src += "    addi $t0, $t0, 1\n" * 5
        src += f"    beq $zero, $t9, n{i}\nn{i}:\n"
    src += "    halt\n"
    _, trace = run_asm(src)
    collector = FillCollector(BiasTable(64), trace_packing=False)
    segments = collect_all(trace, collector)
    # blocks are 6 instructions; two fit (12), a third would overflow 16
    assert len(segments[0]) == 12
    assert segments[0].records[-1].instr.is_cond_branch()


def test_flush_returns_partial_segment():
    _, trace = run_asm("main:\n" + "    addi $t0, $t0, 1\n" * 3 + "    halt\n")
    collector = FillCollector(BiasTable(64))
    segments = collect_all(trace, collector)
    assert segments and segments[-1].records[-1].instr.op.value == "halt"
    assert collector.flush() == []  # nothing pending after halt cut


def test_path_key_and_start_pc():
    _, trace = run_asm("main:\n    addi $t0, $t0, 1\n    halt\n")
    collector = FillCollector(BiasTable(64))
    seg = collect_all(trace, collector)[0]
    assert seg.start_pc == trace[0].pc
    assert seg.path_key == (trace[0].pc, trace[1].pc)
