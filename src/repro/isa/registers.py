"""Architected register namespace.

The simulated ISA has 32 integer and 32 floating-point architected
registers, numbered in a single flat space so rename structures can be
indexed directly: integer registers are ``0..31`` and FP registers are
``32..63``. Register 0 is a hard-wired zero (never renamed, always ready),
as in MIPS.
"""

from __future__ import annotations

NUM_INT_REGS = 32
NUM_FP_REGS = 32
NUM_ARCH_REGS = NUM_INT_REGS + NUM_FP_REGS

INT_REG_BASE = 0
FP_REG_BASE = NUM_INT_REGS

#: The hard-wired zero register: writes are discarded, reads always ready.
ZERO_REG = 0

