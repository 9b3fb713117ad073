"""Property tests of the structural models against simple references:
the sparse memory against a plain dict, the set-associative cache
against a brute-force LRU list, and segment invariants over random
committed streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.bias import BiasTable
from repro.cache.setassoc import SetAssocCache
from repro.fillunit.collector import FillCollector
from repro.machine.memory import Memory


# --- memory vs dict reference ------------------------------------------------

mem_ops = st.lists(
    st.tuples(
        st.booleans(),                                      # is_store
        st.integers(min_value=0, max_value=1 << 20),        # word index
        st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
    ),
    min_size=1, max_size=200)


@given(mem_ops)
@settings(max_examples=200)
def test_memory_matches_dict_reference(ops):
    memory = Memory()
    reference: dict = {}
    for is_store, word, value in ops:
        addr = word * 4
        if is_store:
            memory.store_word(addr, value)
            reference[addr] = value & 0xFFFFFFFF
        else:
            loaded = memory.load(addr, 4, signed=False)
            assert loaded == reference.get(addr, 0)


@given(st.lists(st.tuples(st.integers(0, 1 << 16),
                          st.integers(-(2 ** 7), 2 ** 7 - 1)),
                min_size=1, max_size=100))
@settings(max_examples=100)
def test_memory_bytes_match_reference(ops):
    memory = Memory()
    reference: dict = {}
    for addr, value in ops:
        memory.store(addr, value, 1)
        reference[addr] = value & 0xFF
    for addr, expected in reference.items():
        assert memory.load(addr, 1, signed=False) == expected


# --- cache vs brute-force LRU --------------------------------------------------

class ReferenceLRU:
    """Brute-force fully-explicit LRU model of one cache."""

    def __init__(self, num_sets, assoc, line_shift):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_shift = line_shift
        self.sets = [[] for _ in range(num_sets)]   # MRU at end

    def access(self, addr):
        line = addr >> self.line_shift
        entries = self.sets[line % self.num_sets]
        if line in entries:
            entries.remove(line)
            entries.append(line)
            return True
        if len(entries) >= self.assoc:
            entries.pop(0)
        entries.append(line)
        return False


@given(st.lists(st.integers(min_value=0, max_value=4095),
                min_size=1, max_size=400))
@settings(max_examples=150)
def test_cache_matches_reference_lru(addresses):
    cache = SetAssocCache(size_bytes=256, assoc=2, line_size=16)
    reference = ReferenceLRU(num_sets=8, assoc=2, line_shift=4)
    for addr in addresses:
        assert cache.access(addr) == reference.access(addr), addr


# --- bias table vs reference ---------------------------------------------------

@given(st.lists(st.booleans(), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=150)
def test_bias_promotion_matches_run_length_reference(outcomes, threshold):
    bias = BiasTable(64, threshold=threshold)
    run = 0
    last = None
    for outcome in outcomes:
        bias.record(0x1000, outcome)
        run = run + 1 if outcome == last else 1
        last = outcome
        assert bias.is_promoted(0x1000) == (run >= threshold)


# --- collector invariants over random streams -----------------------------------

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.machine.tracing import CommittedInstr


@st.composite
def committed_streams(draw):
    """A random committed stream with contiguous pcs and arbitrary
    branch/terminator mix."""
    length = draw(st.integers(min_value=1, max_value=120))
    records = []
    for idx in range(length):
        pc = 0x1000 + 4 * idx
        kind = draw(st.sampled_from(
            ["alu", "alu", "alu", "branch", "jump", "call", "ret",
             "syscall"]))
        if kind == "alu":
            instr = Instruction(Op.ADDI, rd=8, rs=9, imm=1, pc=pc)
        elif kind == "branch":
            instr = Instruction(Op.BNE, rs=0, rt=0, imm=8, pc=pc)
        elif kind == "jump":
            instr = Instruction(Op.J, imm=pc + 4, pc=pc)
        elif kind == "call":
            instr = Instruction(Op.JAL, imm=pc + 4, pc=pc)
        elif kind == "ret":
            instr = Instruction(Op.JR, rs=31, pc=pc)
        else:
            instr = Instruction(Op.SYSCALL, pc=pc)
        records.append(CommittedInstr(idx, pc, instr, pc + 4,
                                      taken=draw(st.booleans())
                                      if kind == "branch" else False))
    return records


@given(committed_streams(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_collector_segments_respect_invariants(records, packing):
    bias = BiasTable(64)
    collector = FillCollector(bias, max_instrs=16, max_cond_branches=3,
                              trace_packing=packing)
    segments = []
    for record in records:
        segments.extend(collector.add(record))
    segments.extend(collector.flush())
    # 1. conservation: every record in exactly one segment, in order
    flattened = [r for seg in segments for r in seg.records]
    assert [r.seq for r in flattened] == [r.seq for r in records]
    for seg in segments:
        # 2. structural limits
        assert 1 <= len(seg) <= 16
        assert sum(1 for b in seg.branches if not b.promoted) <= 3
        # 3. terminators only at the end
        for record in seg.records[:-1]:
            assert not record.instr.terminates_segment()
        # 4. block and flow ids normalized, monotone; a new
        #    checkpoint block is also a new flow region
        block_ids, flow_ids = seg.region_ids()
        assert block_ids[0] == 0 and flow_ids[0] == 0
        for ids in (block_ids, flow_ids):
            assert all(b - a in (0, 1) for a, b in zip(ids, ids[1:]))
        assert all(f2 - f1 >= b2 - b1 for b1, b2, f1, f2 in zip(
            block_ids, block_ids[1:], flow_ids, flow_ids[1:]))
