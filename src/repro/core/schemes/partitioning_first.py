"""Partitioning-First (PF) scheme — Algorithm 1 of the paper.

Two steps per replacement:

1. **Partition Selection (PS)** — among the partitions present in the
   candidate list, pick the one whose actual size most exceeds its target
   (``max N_A - N_T``; undersized partitions can still be picked when every
   candidate partition is undersized, exactly as Algorithm 1's ``max_over``
   starts at minus infinity).
2. **Victim Identification (VI)** — evict the candidate from the chosen
   partition with the largest futility.

PF sizes precisely (MAD below one line, Fig. 5) but collapses associativity
as the number of partitions grows, because the VI step sees only the
candidates of one partition: with N >= R partitions the VI list degenerates
to a single line and the associativity CDF approaches the diagonal
(AEF -> 0.5, Fig. 2a).

On an exact key-ordered ranking (LRU, LFU, OPT, Random) the compiled
access kernel runs this victim choice inline
(:meth:`~repro.cache.cache.PartitionedCache._build_access`);
:meth:`PartitioningFirstScheme.choose_victim` is what the generic kernel,
and every other ranking, calls.
"""

from __future__ import annotations

from typing import List

from . import kernels
from .base import PartitioningScheme, register_scheme

__all__ = ["PartitioningFirstScheme"]


@register_scheme
class PartitioningFirstScheme(PartitioningScheme):
    """Algorithm 1: strict sizing first, associativity second."""

    name = "pf"

    def choose_victim(self, candidates: List[int], incoming_part: int) -> int:
        cache = self.cache
        if cache._resident != cache.num_lines:
            invalid = kernels.first_invalid(cache, candidates)
            if invalid is not None:
                return invalid
        # PS + VI fused into one pass over the candidate indices.
        return kernels.choose_pf(cache, candidates)
