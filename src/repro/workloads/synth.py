"""Reusable assembly fragments for the synthetic benchmarks.

Each ``emit_*`` function appends one assembly *function* to an
:class:`~repro.workloads.builder.AsmBuilder`. Calling conventions
follow the MIPS ABI subset the loader establishes: arguments in
``$a0-$a3``, result in ``$v0``, ``$t*``/``$a*``/``$v*`` caller-saved,
``$s*`` preserved (the fragments below never touch them), ``$sp`` /
``$ra`` as usual.

The fragments are the idiom palette from which the fifteen benchmark
stand-ins are composed — each one concentrates a particular
optimization opportunity the paper's Table 2 attributes to the real
benchmarks:

=====================  ==============================================
fragment               dominant idiom
=====================  ==============================================
array_sum_scaled       shift+add array indexing (scaled adds)
multichain_sum         independent dependence chains (placement)
hash_loop              long-shift mixing + table update (compress)
list_walk              pointer chasing with register moves (li)
struct_chain           cross-block ADDI field offsets (m88ksim)
dispatch_loop          indirect-jump interpreter (perl/python/li)
recursive_walk         call-heavy recursion with moves (go/chess)
matrix_kernel          2-D indexing + parallel accumulators (ijpeg)
bitmix                 long serial ALU chains, few memory ops (pgp)
poly_eval              multiply-accumulate with moves (gnuplot)
=====================  ==============================================
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.workloads.builder import AsmBuilder


def emit_array_sum_scaled(b: AsmBuilder, fname: str, arr_label: str,
                          count: int) -> None:
    """``v0 = sum(arr[0:count])`` with classic sll/lwx indexing.

    Every element access is a shift-by-2 feeding an indexed load: the
    scaled-add pass collapses each pair, shortening the address chain.
    """
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        f"    la   $t9, {arr_label}",
        "    move $t0, $zero",
        "    move $v0, $zero",
        f"{loop}:",
        "    sll  $t1, $t0, 2",
        "    lwx  $t2, $t1, $t9",
        "    add  $v0, $v0, $t2",
        "    addi $t0, $t0, 1",
        f"    blt  $t0, $a0, {loop}",
        "    ret",
    )


def emit_multichain_sum(b: AsmBuilder, fname: str, arr_label: str) -> None:
    """Four independent accumulate chains over one array.

    The chains are interleaved in program order, so the baseline's
    sequential slot assignment scatters each chain across clusters;
    the placement pass re-gathers them (Figure 6's effect).
    ``a0`` = element count (multiple of 4).
    """
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        f"    la   $t9, {arr_label}",
        "    move $t0, $zero",
        "    move $t4, $zero",
        "    move $t5, $zero",
        "    move $t6, $zero",
        "    move $t7, $zero",
        f"{loop}:",
        "    sll  $t1, $t0, 2",
        "    lwx  $t2, $t1, $t9",
        "    add  $t4, $t4, $t2",
        "    xor  $t4, $t4, $t2",
        "    add  $t5, $t5, $t1",
        "    xor  $t5, $t5, $t1",
        "    add  $t6, $t6, $t0",
        "    xor  $t6, $t6, $t0",
        "    add  $t7, $t7, $t2",
        "    sub  $t7, $t7, $t0",
        "    addi $t0, $t0, 1",
        f"    blt  $t0, $a0, {loop}",
        "    add  $v0, $t4, $t5",
        "    add  $v0, $v0, $t6",
        "    add  $v0, $v0, $t7",
        "    ret",
    )


def emit_hash_loop(b: AsmBuilder, fname: str, table_label: str,
                   mask: int, feedback: bool = False) -> None:
    """compress-style hashing: mix a key with long shifts (too long to
    scale), probe and update a table, branch on a data-dependent bit.

    With ``feedback`` the probed value folds back into the key — LZW's
    dictionary-walk behaviour — which puts the scaled table probe on
    the loop-carried chain instead of off to the side.

    ``a0`` = iteration count, ``a1`` = seed.
    """
    loop = b.label(f"{fname}_loop")
    skip = b.label(f"{fname}_skip")
    b.func(fname)
    b.emit(
        f"    la   $t9, {table_label}",
        "    move $t0, $a1",
        "    move $t3, $zero",
        f"{loop}:",
        "    srl  $t1, $t0, 5",
        "    xor  $t0, $t0, $t1",
        "    sll  $t1, $t0, 7",
        "    xor  $t0, $t0, $t1",
        f"    andi $t2, $t0, {mask}",
        "    sll  $t6, $t2, 2",
        "    lwx  $t4, $t6, $t9",
        "    addi $t4, $t4, 1",
        "    swx  $t4, $t6, $t9",
    )
    if feedback:
        b.emit("    xor  $t0, $t0, $t4")   # dictionary-walk feedback
    b.emit(
        "    andi $t5, $t0, 1",
        f"    beq  $t5, $zero, {skip}",
        "    addi $t0, $t0, 17",
        f"{skip}:",
        "    addi $t3, $t3, 1",
        f"    blt  $t3, $a0, {loop}",
        "    move $v0, $t0",
        "    ret",
    )


def emit_list_walk(b: AsmBuilder, fname: str, head_label: str) -> None:
    """li-style pointer chase: ``node = [value, next]`` cells.

    The cursor advance is the register-move idiom *on the pointer-chase
    critical path* — eliminating it in rename (the paper's §4.2) cuts a
    cycle from every hop, which is why li is among the biggest
    register-move winners in Figure 3. ``v0`` = sum of values.
    """
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        f"    la   $t0, {head_label}",
        "    move $v0, $zero",
        f"{loop}:",
        "    lw   $t1, 0($t0)",
        "    add  $v0, $v0, $t1",
        "    lw   $t2, 4($t0)",
        "    xor  $t4, $t1, $t2",
        "    add  $v0, $v0, $t4",
        "    move $t0, $t2",         # advance cursor (critical move)
        f"    bne  $t0, $zero, {loop}",
        "    ret",
    )


def emit_struct_chain(b: AsmBuilder, fname: str) -> None:
    """m88ksim-style device-model access: a base pointer flows through
    chains of small constant offsets that *cross conditional branches*,
    which is exactly the cross-block reassociation opportunity the
    compiler cannot (and the fill unit can) exploit.

    ``a0`` = struct pointer (already offset by the caller: the
    caller-side ``addi`` makes the pair cross a procedure boundary too);
    ``v0`` = accumulated field sum.
    """
    alt = b.label(f"{fname}_alt")
    join = b.label(f"{fname}_join")
    tail = b.label(f"{fname}_tail")
    b.func(fname)
    b.emit(
        "    move $v0, $zero",
        "    addi $t0, $a0, 4",       # &s->f1
        "    lw   $t1, 0($t0)",
        f"    bltz $t1, {alt}",       # fields are non-negative: biased
        "    addi $t3, $t0, 4",       # &s->f2  (cross-block: a0+8)
        "    lw   $t4, 0($t3)",
        "    add  $v0, $v0, $t4",
        f"    j    {join}",
        f"{alt}:",
        "    addi $t3, $t0, 8",       # &s->f3  (cross-block: a0+12)
        "    lw   $t4, 0($t3)",
        "    sub  $v0, $v0, $t4",
        f"{join}:",
        "    addi $t5, $t3, 4",       # cross-block again
        "    lw   $t6, 0($t5)",
        "    add  $v0, $v0, $t6",
        f"    bltz $t6, {tail}",      # biased not-taken
        "    addi $t8, $t5, 4",       # and again
        "    lw   $t7, 0($t8)",
        "    add  $v0, $v0, $t7",
        f"{tail}:",
        "    add  $v0, $v0, $t1",
        "    ret",
    )


def emit_field_chain(b: AsmBuilder, fname: str, depth: int = 5) -> None:
    """A *deep* constant-offset pointer chain spanning one conditional
    branch per level — the concentrated form of m88ksim's register-file
    and device-state access pattern that reassociation collapses.

    Without the fill unit, level ``k``'s address waits for level
    ``k-1``'s ``ADDI``: a serial chain of height *depth*. After
    reassociation every level addresses straight off ``a0``, and the
    loads issue in parallel. The guard branches test loaded values that
    the workload data keeps non-negative, so they are strongly biased
    (promotable) — matching the well-predicted control the real
    m88ksim/dhrystone run exhibits.

    ``a0`` = struct pointer; ``v0`` = field checksum.
    """
    escape = b.label(f"{fname}_escape")
    done = b.label(f"{fname}_done")
    b.func(fname)
    b.emit(
        "    move $t5, $zero",
        "    move $t6, $zero",
        "    move $t7, $zero",
        "    move $t0, $a0",
    )
    # Field values accumulate into rotating registers so the ADDI
    # address chain — not the accumulation — is the call's critical
    # recurrence; that is the dependence height reassociation removes.
    accumulators = ("$t5", "$t6", "$t7")
    for level in range(depth):
        # Thread the pointer through alternating temporaries (a move
        # would let the move pass collapse the chain instead of the
        # reassociation pass; real compiled chains use fresh registers).
        src = "$t0" if level % 2 == 0 else "$t3"
        dst = "$t3" if level % 2 == 0 else "$t0"
        acc = accumulators[level % len(accumulators)]
        b.emit(
            f"    addi {dst}, {src}, 8",
            f"    lw   $t2, 0({dst})",
            f"    add  {acc}, {acc}, $t2",
            f"    bltz $t2, {escape}",    # biased not-taken
        )
    b.emit(
        f"{escape}:",
        "    add  $v0, $t5, $t6",
        "    add  $v0, $v0, $t7",
        f"    j    {done}",
        f"{done}:",
        "    ret",
    )


def emit_index_chase(b: AsmBuilder, fname: str, arr_label: str) -> None:
    """Index-chained array walk: ``i = A[i]`` — the address arithmetic
    *is* the loop-carried dependence, so the sll is on the critical
    recurrence and collapsing it into a scaled load (paper §4.4) saves
    a cycle per iteration. This is the tight form of go's board-chain
    scanning and TeX's node-list traversal.

    ``a0`` = iteration count, ``a1`` = start index; ``v0`` = final index.
    """
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        f"    la   $t9, {arr_label}",
        "    move $t0, $a1",
        "    move $t2, $zero",
        f"{loop}:",
        "    sll  $t1, $t0, 2",
        "    lwx  $t0, $t1, $t9",      # i = A[i]  (scaled-critical)
        "    addi $t2, $t2, 1",
        f"    blt  $t2, $a0, {loop}",
        "    move $v0, $t0",
        "    ret",
    )


def emit_dispatch_loop(b: AsmBuilder, fname: str, code_label: str,
                       handler_count: int = 4) -> None:
    """Interpreter inner loop: fetch a bytecode, jump through a handler
    table (``jr`` — an indirect jump that terminates trace segments),
    execute a short handler rich in stack-cell moves, repeat.

    ``a0`` = bytecode count. The handler table is emitted alongside.
    """
    table_label = b.label(f"{fname}_handlers")
    handlers = [b.label(f"{fname}_h{i}") for i in range(handler_count)]
    loop = b.label(f"{fname}_loop")
    next_l = b.label(f"{fname}_next")
    done = b.label(f"{fname}_done")
    b.data_words(table_label, [f"{h}" for h in handlers])
    b.func(fname)
    b.emit(
        f"    la   $t9, {code_label}",
        f"    la   $t8, {table_label}",
        "    move $t0, $zero",         # instruction counter
        "    move $v0, $zero",         # acc ~ interpreter TOS
        "    move $t6, $zero",         # second stack cell
        f"{loop}:",
        "    lw   $t2, 0($t9)",        # opcode via the ip pointer
        "    addi $t9, $t9, 4",
        "    sll  $t3, $t2, 2",
        "    lwx  $t4, $t3, $t8",      # handler address (scaled pair)
        "    jr   $t4",
    )
    # Handlers: realistic interpreter bodies shuffle the virtual stack
    # (moves), do a little arithmetic, then fall back to the dispatcher.
    bodies = [
        ["    move $t5, $v0",           # push TOS
         "    addi $v0, $t2, 3",
         "    xor  $v0, $v0, $t5",
         "    add  $v0, $v0, $t6",
         "    sub  $t6, $t5, $t2"],
        ["    add  $v0, $v0, $t6",
         "    sll  $t7, $v0, 4",
         "    xor  $v0, $v0, $t7",
         "    move $t6, $v0",           # dup
         "    addi $t6, $t6, 1"],
        ["    sll  $t5, $v0, 1",
         "    sub  $v0, $t5, $t6",
         "    and  $t6, $t5, $v0",
         "    xor  $t6, $t6, $t2",
         "    addi $v0, $v0, 5"],
        ["    xor  $v0, $v0, $t6",
         "    move $t5, $v0",           # swap halves
         "    srl  $v0, $t5, 9",
         "    xor  $v0, $v0, $t5",
         "    or   $t6, $t5, $t2"],
    ]
    for idx, handler in enumerate(handlers):
        b.emit(f"{handler}:")
        b.emit(*bodies[idx % len(bodies)])
        b.emit(f"    j    {next_l}")
    b.emit(
        f"{next_l}:",
        "    addi $t0, $t0, 1",
        f"    blt  $t0, $a0, {loop}",
        f"    j    {done}",
        f"{done}:",
        "    ret",
    )


def emit_recursive_walk(b: AsmBuilder, fname: str) -> None:
    """Game-tree recursion (go / chess): binary recursion to depth
    ``a0``, argument and result shuffling through register moves, a
    data-dependent pruning branch. ``a1`` = position value seed.
    """
    base = b.label(f"{fname}_base")
    prune = b.label(f"{fname}_prune")
    b.func(fname)
    b.emit(
        f"    blez $a0, {base}",
        "    addi $sp, $sp, -16",
        "    sw   $ra, 0($sp)",
        "    sw   $a0, 4($sp)",
        "    sw   $a1, 8($sp)",
        # left child
        "    addi $a0, $a0, -1",
        "    sll  $t0, $a1, 1",
        "    addi $a1, $t0, 1",
        f"    jal  {fname}",
        "    sw   $v0, 12($sp)",
        # prune right child when the left value is even (data dependent)
        "    andi $t1, $v0, 2",
        f"    beq  $t1, $zero, {prune}",
        "    lw   $a0, 4($sp)",
        "    lw   $a1, 8($sp)",
        "    addi $a0, $a0, -1",
        "    sll  $t0, $a1, 1",
        "    move $a1, $t0",
        f"    jal  {fname}",
        "    lw   $t2, 12($sp)",
        "    add  $v0, $v0, $t2",
        f"    j    {fname}_out",
        f"{prune}:",
        "    lw   $v0, 12($sp)",
        "    addi $v0, $v0, 1",
        f"{fname}_out:",
        "    lw   $ra, 0($sp)",
        "    addi $sp, $sp, 16",
        "    ret",
        f"{base}:",
        "    move $v0, $a1",
        "    ret",
    )


def emit_matrix_kernel(b: AsmBuilder, fname: str, img_label: str,
                       width: int) -> None:
    """ijpeg-style 2-D kernel: row*width+col addressing (scaled adds on
    the column index), four parallel pixel accumulators (placement),
    ``a0`` = rows, ``a1`` = cols (multiple of 2).
    """
    rloop = b.label(f"{fname}_row")
    closs = b.label(f"{fname}_col")
    b.func(fname)
    b.emit(
        f"    la   $t9, {img_label}",
        "    move $t0, $zero",          # row
        "    move $v0, $zero",
        "    move $t5, $zero",
        "    move $t6, $zero",
        "    move $t7, $zero",
        f"{rloop}:",
        f"    li   $t8, {width}",
        "    mult $t1, $t0, $t8",       # row base (multiply: long op)
        "    sll  $t1, $t1, 2",
        "    move $t2, $zero",          # col
        f"{closs}:",
        "    sll  $t3, $t2, 2",
        "    add  $t4, $t1, $t3",       # scaled add (col<<2 + rowbase)
        "    lwx  $t3, $t4, $t9",
        "    add  $v0, $v0, $t3",
        "    xor  $t5, $t5, $t3",
        "    add  $t6, $t6, $t4",
        "    sub  $t7, $t7, $t3",
        "    addi $t2, $t2, 1",
        f"    blt  $t2, $a1, {closs}",
        "    addi $t0, $t0, 1",
        f"    blt  $t0, $a0, {rloop}",
        "    add  $v0, $v0, $t5",
        "    add  $v0, $v0, $t6",
        "    add  $v0, $v0, $t7",
        "    ret",
    )


def emit_bitmix(b: AsmBuilder, fname: str) -> None:
    """pgp-style block cipher round: long serial ALU chains over
    registers, almost no memory traffic, moves between half-rounds.
    ``a0`` = rounds, ``a1`` = block. ``v0`` = mixed block.
    """
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        "    move $t0, $a1",
        "    move $t1, $zero",
        f"{loop}:",
        "    sll  $t2, $t0, 13",
        "    xor  $t0, $t0, $t2",
        "    srl  $t2, $t0, 17",
        "    xor  $t0, $t0, $t2",
        "    sll  $t2, $t0, 5",
        "    xor  $t0, $t0, $t2",
        "    move $t3, $t0",           # half-round boundary copy
        "    addi $t4, $t3, 9743",     # round constant (fits imm16)
        "    add  $t0, $t0, $t4",
        "    addi $t1, $t1, 1",
        f"    blt  $t1, $a0, {loop}",
        "    move $v0, $t0",
        "    ret",
    )


def emit_poly_eval(b: AsmBuilder, fname: str, coeff_label: str,
                   degree: int) -> None:
    """gnuplot-style curve evaluation: Horner's rule with a multiply
    per step and move-heavy register shuffling. ``a0`` = x value."""
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        f"    la   $t9, {coeff_label}",
        f"    li   $t0, {degree}",
        "    lw   $v0, 0($t9)",
        f"{loop}:",
        "    addi $t9, $t9, 4",
        "    lw   $t1, 0($t9)",
        "    mult $t2, $v0, $a0",
        "    move $v0, $t2",            # accumulate via move
        "    add  $v0, $v0, $t1",
        "    addi $t0, $t0, -1",
        f"    bgtz $t0, {loop}",
        "    ret",
    )


def emit_copy_loop(b: AsmBuilder, fname: str, src_label: str,
                   dst_label: str) -> None:
    """Word-granular memory copy with running checksum: pointer
    bump-and-load loops with *no* optimization opportunities — the
    diluting idiom every real program is full of. ``a0`` = word count."""
    loop = b.label(f"{fname}_loop")
    b.func(fname)
    b.emit(
        f"    la   $t0, {src_label}",
        f"    la   $t1, {dst_label}",
        "    move $t2, $zero",
        "    move $v0, $zero",
        f"{loop}:",
        "    lw   $t3, 0($t0)",
        "    sw   $t3, 0($t1)",
        "    add  $v0, $v0, $t3",
        "    addi $t0, $t0, 4",
        "    addi $t1, $t1, 4",
        "    addi $t2, $t2, 1",
        f"    blt  $t2, $a0, {loop}",
        "    ret",
    )


def emit_main_driver(b: AsmBuilder, phases: list, outer_iters: int) -> None:
    """The benchmark ``main``: repeats the phase list *outer_iters*
    times. Each phase is ``(callee, arg_lines, post_lines)`` —
    *arg_lines* set up ``$a0``/``$a1`` (often with the caller-side
    ``addi`` that gives cross-procedure reassociation), *post_lines*
    consume ``$v0`` (typically a move into a saved register — the
    common-subexpression / argument-passing move idiom).

    Raises:
        ConfigError: when *outer_iters* does not fit the signed 32-bit
            register the loop compares it in.
    """
    if outer_iters > 0x7FFFFFFF:
        raise ConfigError(f"its main loop count {outer_iters} does not "
                          f"fit a signed 32-bit register")
    outer = b.label("main_outer")
    b.func("main")
    b.emit(
        f"    li   $s0, {outer_iters}",
        "    move $s1, $zero",
        "    move $s2, $zero",
        f"{outer}:",
    )
    for callee, arg_lines, post_lines in phases:
        b.emit(*arg_lines)
        b.emit(f"    jal  {callee}")
        b.emit(*post_lines)
    b.emit(
        "    addi $s1, $s1, 1",
        f"    blt  $s1, $s0, {outer}",
        "    move $a0, $s2",
        "    li   $v0, 1",
        "    syscall",                  # report the checksum
        "    halt",
    )


def linked_list_words(node_count: int, base_label_addr_of,
                      value_seed: int = 7) -> list:
    """Initializer words for a singly linked list laid out contiguously
    as ``[value, next]`` cells. *base_label_addr_of* maps a cell index
    to its absolute address string (resolved by the assembler via
    ``label+offset`` expressions)."""
    words = []
    for idx in range(node_count):
        value = (value_seed * (idx + 1) * 2654435761) % 4096
        next_ref = base_label_addr_of(idx + 1) if idx + 1 < node_count \
            else "0"
        words.extend([value, next_ref])
    return words


__all__ = [
    "emit_array_sum_scaled",
    "emit_multichain_sum",
    "emit_hash_loop",
    "emit_list_walk",
    "emit_struct_chain",
    "emit_dispatch_loop",
    "emit_recursive_walk",
    "emit_matrix_kernel",
    "emit_bitmix",
    "emit_poly_eval",
    "emit_field_chain",
    "emit_index_chase",
    "emit_copy_loop",
    "emit_main_driver",
    "linked_list_words",
]
