# program: s-strided
# code_base: 0x0  data_base: 0x100000  entry: 0
    .data
data:
    .word 0, 3, 6, 9, 12, 15, 18, 21
    .word 24, 27, 30, 33, 36, 39, 42, 45
    .word 48, 51, 54, 57, 60, 63, 2, 5
    .word 8, 11, 14, 17, 20, 23, 26, 29
    .word 32, 35, 38, 41, 44, 47, 50, 53
    .word 56, 59, 62, 1, 4, 7, 10, 13
    .word 16, 19, 22, 25, 28, 31, 34, 37
    .word 40, 43, 46, 49, 52, 55, 58, 61
    .word 0, 3, 6, 9, 12, 15, 18, 21
    .word 24, 27, 30, 33, 36, 39, 42, 45
    .word 48, 51, 54, 57, 60, 63, 2, 5
    .word 8, 11, 14, 17, 20, 23, 26, 29
    .word 32, 35, 38, 41, 44, 47, 50, 53
    .word 56, 59, 62, 1, 4, 7, 10, 13
    .word 16, 19, 22, 25, 28, 31, 34, 37
    .word 40, 43, 46, 49, 52, 55, 58, 61
    .word 0, 3, 6, 9, 12, 15, 18, 21
    .word 24, 27, 30, 33, 36, 39, 42, 45
    .word 48, 51, 54, 57, 60, 63, 2, 5
    .word 8, 11, 14, 17, 20, 23, 26, 29
    .word 32, 35, 38, 41, 44, 47, 50, 53
    .word 56, 59, 62, 1, 4, 7, 10, 13
    .word 16, 19, 22, 25, 28, 31, 34, 37
    .word 40, 43, 46, 49, 52, 55, 58, 61
    .word 0, 3, 6, 9, 12, 15, 18, 21
    .word 24, 27, 30, 33, 36, 39, 42, 45
    .word 48, 51, 54, 57, 60, 63, 2, 5
    .word 8, 11, 14, 17, 20, 23, 26, 29
    .word 32, 35, 38, 41, 44, 47, 50, 53
    .word 56, 59, 62, 1, 4, 7, 10, 13
    .word 16, 19, 22, 25, 28, 31, 34, 37
    .word 40, 43, 46, 49, 52, 55, 58, 61
    .text
    lui s0, 64    # s0 = &data (footprint base)
    lui s2, 64    # s2 = footprint end
    ori s2, s2, 1024
    fcvtif f0, zero
    addi t0, zero, 1
    fcvtif f1, t0
__outer1:
    or s1, s0, zero
    addi s6, zero, 64
__loop2:
    fadd f3, f6, f2
    fadd f4, f8, f7
    lw t3, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 14
    or s1, s0, zero
__wrap3:
    andi t8, t6, 1
    beq t8, zero, 17
    addi t9, t9, 1
__syn4:
    addi t4, t3, 1
    sw t4, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 22
    or s1, s0, zero
__wrap5:
    addi t5, t6, 1
    lw t6, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 27
    or s1, s0, zero
__wrap6:
    addi t7, t0, 1
    addi t0, t5, 1
    lw t1, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 33
    or s1, s0, zero
__wrap7:
    lw t2, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 37
    or s1, s0, zero
__wrap8:
    andi t8, t2, 1
    beq t8, zero, 40
    addi t9, t9, 1
__syn9:
    lw t3, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 44
    or s1, s0, zero
__wrap10:
    lw t4, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 48
    or s1, s0, zero
__wrap11:
    lw t5, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 52
    or s1, s0, zero
__wrap12:
    fadd f2, f3, f4
    andi t8, t2, 1
    beq t8, zero, 56
    addi t9, t9, 1
__syn13:
    fadd f3, f8, f4
    lw t0, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 61
    or s1, s0, zero
__wrap14:
    addi t1, t0, 1
    addi t2, t4, 1
    sw t2, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 67
    or s1, s0, zero
__wrap15:
    lw t3, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 71
    or s1, s0, zero
__wrap16:
    lw t4, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 75
    or s1, s0, zero
__wrap17:
    addi t5, t3, 1
    addi t6, t5, 1
    addi t7, t0, 1
    lw t0, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 82
    or s1, s0, zero
__wrap18:
    lw t1, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 86
    or s1, s0, zero
__wrap19:
    addi t2, t0, 1
    addi t3, t1, 1
    lw t4, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 92
    or s1, s0, zero
__wrap20:
    addi t5, t7, 1
    lw t6, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 97
    or s1, s0, zero
__wrap21:
    lw t7, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 101
    or s1, s0, zero
__wrap22:
    sw t3, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 105
    or s1, s0, zero
__wrap23:
    addi t0, t7, 1
    lw t1, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 110
    or s1, s0, zero
__wrap24:
    lw t2, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 114
    or s1, s0, zero
__wrap25:
    lw t3, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 118
    or s1, s0, zero
__wrap26:
    addi t4, t3, 1
    addi t5, t3, 1
    lw t6, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 124
    or s1, s0, zero
__wrap27:
    addi t7, t6, 1
    addi t0, t7, 1
    fadd f8, f3, f3
    addi t2, t3, 1
    sw t2, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 132
    or s1, s0, zero
__wrap28:
    lw t3, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 136
    or s1, s0, zero
__wrap29:
    sw t4, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 140
    or s1, s0, zero
__wrap30:
    addi t4, t3, 1
    addi t5, t4, 1
    lw t6, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 146
    or s1, s0, zero
__wrap31:
    addi t7, t6, 1
    lw t0, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 151
    or s1, s0, zero
__wrap32:
    lw t1, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 155
    or s1, s0, zero
__wrap33:
    lw t2, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 159
    or s1, s0, zero
__wrap34:
    addi t3, t2, 1
    addi t4, t3, 1
    fadd f6, f2, f3
    addi t6, t5, 1
    lw t7, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 167
    or s1, s0, zero
__wrap35:
    lw t0, 0(s1)
    addi s1, s1, 20
    blt s1, s2, 171
    or s1, s0, zero
__wrap36:
    addi s6, s6, -1
    bgtz s6, 8
    j 6
    halt
