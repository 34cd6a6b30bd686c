"""Plain per-packet, per-state soft Viterbi oracle.

:meth:`repro.phy.coding.convolutional.ConvolutionalCode.decode` is
``decode_batch`` on a batch of one, so comparing the two checks the kernel
against itself.  The oracle here shares nothing with the kernel: it
derives the trellis from the generator polynomials, runs the
add-compare-select recursion one packet and one state at a time in Python
floats, keeps a full survivor list per step, and walks it back.

Conventions match the encoder: the state holds the last ``K - 1`` input
bits with the newest in its top bit, a branch's output bits are the
parities of ``register & poly``, and the branch metric is the sum, in
output order, of the LLR for an output 0 and its negation for an output 1
(larger is better).  Of a state's two predecessors the one with the lower
state number wins a tie, the same first-index rule as ``argmax``.
"""

from __future__ import annotations

import numpy as np


def viterbi_reference(
    constraint_length: int,
    polynomials: tuple[int, ...],
    llrs: np.ndarray,
    terminated: bool = True,
    strip_tail: bool = True,
) -> np.ndarray:
    """Decode every row of a ``(n_packets, n_llrs)`` LLR block, one by one."""
    memory = constraint_length - 1
    n_states = 1 << memory
    n_out = len(polynomials)
    # predecessors[s] = ((prev, outputs), (prev, outputs)), lower prev first.
    predecessors: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n_states)]
    for prev in range(n_states):
        for bit in (0, 1):
            register = (bit << memory) | prev
            outputs = tuple(bin(register & poly).count("1") & 1 for poly in polynomials)
            predecessors[register >> 1].append((prev, outputs))
    for entries in predecessors:
        entries.sort()

    llrs = np.asarray(llrs, dtype=np.float64)
    n_steps = llrs.shape[1] // n_out
    decoded = []
    for row in llrs:
        metrics = [0.0] + [-1e18] * (n_states - 1)
        survivors: list[list[int]] = []
        for step in range(n_steps):
            step_llrs = [float(x) for x in row[step * n_out : (step + 1) * n_out]]
            new_metrics = []
            choices = []
            for state in range(n_states):
                best_metric = None
                best_choice = 0
                for choice, (prev, outputs) in enumerate(predecessors[state]):
                    branch = 0.0
                    for o, (llr, bit) in enumerate(zip(step_llrs, outputs)):
                        term = -llr if bit else llr
                        branch = term if o == 0 else branch + term
                    metric = metrics[prev] + branch
                    if best_metric is None or metric > best_metric:
                        best_metric, best_choice = metric, choice
                new_metrics.append(best_metric)
                choices.append(best_choice)
            metrics = new_metrics
            survivors.append(choices)
        if terminated:
            state = 0
        else:
            state = max(range(n_states), key=lambda s: metrics[s])
        bits = [0] * n_steps
        for step in range(n_steps - 1, -1, -1):
            bits[step] = state >> (memory - 1)
            state = predecessors[state][survivors[step][state]][0]
        if terminated and strip_tail:
            bits = bits[: max(n_steps - memory, 0)]
        decoded.append(bits)
    return np.array(decoded, dtype=np.uint8).reshape(llrs.shape[0], -1)
