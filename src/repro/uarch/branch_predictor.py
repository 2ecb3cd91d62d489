"""Combining branch predictor with BTB (paper Table 4, SimpleScalar style).

Components:

* a **bimodal** predictor: 2-bit saturating counters indexed by PC;
* a **two-level** predictor: a first-level table of per-PC history
  registers feeding a second-level pattern history table of 2-bit
  counters;
* a **combining (meta) predictor**: 2-bit counters that select which
  component to trust, trained whenever the components disagree;
* a **branch target buffer**: set-associative, LRU, providing targets
  for predicted-taken branches.

A branch is mispredicted when the direction is wrong, or when it is
taken and the BTB cannot supply the correct target.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.processor import ProcessorConfig


def _counter_update(counter: int, taken: bool) -> int:
    """2-bit saturating counter update."""
    if taken:
        return counter + 1 if counter < 3 else 3
    return counter - 1 if counter > 0 else 0


@dataclass
class BranchStats:
    """Prediction outcome counts."""

    lookups: int = 0
    direction_mispredicts: int = 0
    btb_target_misses: int = 0

    @property
    def mispredicts(self) -> int:
        """Total mispredictions (direction plus taken-with-bad-target)."""
        return self.direction_mispredicts + self.btb_target_misses

    @property
    def accuracy(self) -> float:
        """Fraction of lookups predicted correctly."""
        if not self.lookups:
            return 1.0
        return 1.0 - self.mispredicts / self.lookups


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement."""

    def __init__(self, sets: int, ways: int) -> None:
        if sets < 1 or ways < 1:
            raise ValueError("BTB sets and ways must be positive")
        self.sets = sets
        self.ways = ways

    def __getattr__(self, name: str):
        # Per set: list of (tag, target), most recently used last.
        # Allocated on first touch: the native loop keeps its own BTB.
        if name != "_table":
            raise AttributeError(name)
        self._table: list[list[tuple[int, int]]] = [[] for _ in range(self.sets)]
        return self._table

    def lookup(self, pc: int) -> int | None:
        """Return the stored target for ``pc``, or None on a miss.

        Indexed by word address (pc >> 2): instruction addresses are
        4-byte aligned, so byte indexing would leave 3/4 of the sets
        unused.
        """
        word = pc >> 2
        entry_set = self._table[word % self.sets]
        tag = word // self.sets
        for i, (stored_tag, target) in enumerate(entry_set):
            if stored_tag == tag:
                # Move to MRU position.
                entry_set.append(entry_set.pop(i))
                return target
        return None

    def update(self, pc: int, target: int) -> None:
        """Install/refresh the target for ``pc``."""
        word = pc >> 2
        entry_set = self._table[word % self.sets]
        tag = word // self.sets
        for i, (stored_tag, _) in enumerate(entry_set):
            if stored_tag == tag:
                entry_set.pop(i)
                break
        entry_set.append((tag, target))
        if len(entry_set) > self.ways:
            entry_set.pop(0)


#: Each predictor table: (its size field in ProcessorConfig, its initial
#: counter).  ``_hotpath.c`` initialises its copies the same way.
_TABLES = {
    "_history": ("bpred_l1_entries", 0),
    "_l2": ("bpred_l2_entries", 1),
    "_bimodal": ("bpred_bimodal_entries", 1),
    "_meta": ("bpred_combining_entries", 2),
}


class CombiningBranchPredictor:
    """The ``comb`` predictor of Table 4.

    Parameters come from :class:`ProcessorConfig`; all tables start in
    weakly-not-taken / no-history state, with the meta counters weakly
    favouring the two-level component.
    """

    def __init__(self, config: ProcessorConfig) -> None:
        self.config = config
        self._history_mask = (1 << config.bpred_history_bits) - 1
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
        self.stats = BranchStats()

    def __getattr__(self, name: str):
        # Tables are allocated on first touch: the native loop keeps
        # its own, so a core that runs natively never builds them.
        if name not in _TABLES:
            raise AttributeError(name)
        size_field, initial = _TABLES[name]
        table = [initial] * getattr(self.config, size_field)
        setattr(self, name, table)
        return table

    # --- prediction ----------------------------------------------------------
    def predict_direction(self, pc: int) -> tuple[bool, bool, bool]:
        """Predict ``pc``; returns (prediction, two_level_pred, bimodal_pred).

        All tables are indexed by word address (pc >> 2); byte indexing
        would alias 4-byte-aligned instructions onto a quarter of each
        table.
        """
        word = pc >> 2
        history = self._history[word % len(self._history)]
        l2_index = (history ^ word) % len(self._l2)
        two_level = self._l2[l2_index] >= 2
        bimodal = self._bimodal[word % len(self._bimodal)] >= 2
        use_two_level = self._meta[word % len(self._meta)] >= 2
        prediction = two_level if use_two_level else bimodal
        return prediction, two_level, bimodal

    def access(self, pc: int, taken: bool, target: int) -> bool:
        """Predict, train, and return whether the branch mispredicted.

        ``taken``/``target`` are the trace's actual outcome; training
        happens immediately (trace-driven approximation of
        update-at-resolve).
        """
        self.stats.lookups += 1
        prediction, two_level, bimodal = self.predict_direction(pc)

        mispredicted = prediction != taken
        if mispredicted:
            self.stats.direction_mispredicts += 1
        elif taken:
            btb_target = self.btb.lookup(pc)
            if btb_target != target:
                self.stats.btb_target_misses += 1
                mispredicted = True

        self._train(pc, taken, two_level, bimodal)
        if taken:
            self.btb.update(pc, target)
        return mispredicted

    # --- training ------------------------------------------------------------
    def _train(self, pc: int, taken: bool, two_level: bool, bimodal: bool) -> None:
        word = pc >> 2
        history_index = word % len(self._history)
        history = self._history[history_index]
        l2_index = (history ^ word) % len(self._l2)
        self._l2[l2_index] = _counter_update(self._l2[l2_index], taken)
        bim_index = word % len(self._bimodal)
        self._bimodal[bim_index] = _counter_update(self._bimodal[bim_index], taken)
        if two_level != bimodal:
            meta_index = word % len(self._meta)
            self._meta[meta_index] = _counter_update(
                self._meta[meta_index], two_level == taken
            )
        self._history[history_index] = ((history << 1) | int(taken)) & self._history_mask
