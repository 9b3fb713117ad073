#!/usr/bin/env python3
"""Bring your own workload: write a kernel in the reproduction's
assembly dialect, run it functionally, then measure how much the fill
unit's optimizations buy on it.

This kernel is a tiny hash-join: probe a hash table for each key in an
array (scaled index arithmetic), follow a bucket chain (pointer-chase
moves), and accumulate matched values through small field offsets
(reassociable chains). Realistic enough that all four optimizations
find work.

Run:  python examples/custom_workload.py
"""

from repro import Engine, Executor, OptimizationConfig, SimConfig, assemble

SOURCE = """
    .equ  NKEYS, 48
    .data
keys:    .word 7, 29, 13, 3, 41, 19, 5, 23, 11, 37, 2, 17, 31, 43, 8, 26
         .word 7, 29, 13, 3, 41, 19, 5, 23, 11, 37, 2, 17, 31, 43, 8, 26
         .word 7, 29, 13, 3, 41, 19, 5, 23, 11, 37, 2, 17, 31, 43, 8, 26
buckets: .word 0, 0, 0, 0, 0, 0, 0, 0   # 8 chain heads, filled below
nodes:   .word 7, 70, nodes+24, 29, 290, 0, 13, 130, 0
         .word 3, 30, 0, 41, 410, 0, 19, 190, 0

    .text
main:
    li   $s0, 200              # outer repetitions
    move $s1, $zero
    move $s2, $zero            # checksum
outer:
    la   $s3, keys
    move $t9, $zero            # key index
probe:
    sll  $t0, $t9, 2           # scaled index into keys[]
    lwx  $t1, $t0, $s3         # key
    andi $t2, $t1, 7           # hash = key & 7
    sll  $t2, $t2, 2
    la   $t3, nodes            # pretend bucket lookup hit `nodes`
    addi $t4, $t3, 0           # cursor = head (move idiom)
walk:
    lw   $t5, 0($t4)           # node->key
    bne  $t5, $t1, miss
    addi $t6, $t4, 4           # &node->value (reassociable offset)
    lw   $t7, 0($t6)
    add  $s2, $s2, $t7
miss:
    lw   $t8, 8($t4)           # node->next
    move $t4, $t8              # pointer-chase move
    bne  $t4, $zero, walk
    addi $t9, $t9, 1
    li   $at, NKEYS
    blt  $t9, $at, probe
    addi $s1, $s1, 1
    blt  $s1, $s0, outer
    move $a0, $s2
    li   $v0, 1
    syscall
    halt
"""


def main() -> None:
    trace = Executor(assemble(SOURCE, name="hash-join")).run()
    print(f"hash-join: {len(trace)} committed instructions, "
          f"checksum {trace.output[0]}")

    baseline = Engine(SimConfig.paper()).run(trace, "hash-join", "baseline")
    print(baseline.summary())
    for opt in ("moves", "reassoc", "scaled_adds", "placement"):
        result = Engine(SimConfig.paper(
            OptimizationConfig.only(opt))).run(trace, "hash-join", opt)
        print(f"  {opt:12s} +{result.improvement_over(baseline):5.1f}%")
    combined = Engine(SimConfig.paper(
        OptimizationConfig.all())).run(trace, "hash-join", "combined")
    print(f"  {'combined':12s} +{combined.improvement_over(baseline):5.1f}%")


if __name__ == "__main__":
    main()
