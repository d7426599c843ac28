"""Pipeline assembly and record-driven execution.

A :class:`Pipeline` is one or two timestamp-ordered sources feeding a
linear chain of operators (the shape of every evaluation query once
fan-in joins are the head). Execution merges the sources by timestamp,
drives each record through the chain, and advances the watermark to the
maximum timestamp seen minus an allowed lateness — firing window
triggers along the way. A final ``+inf`` watermark flushes all state.

The result carries every operator's record counters and state-access
statistics, measured on real records. They are reported, not fed back:
the per-record unit costs the placement layer consumes are chosen
constants (DESIGN.md §1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.operators import Operator, OperatorStats, Record, WindowJoinOperator
from repro.runtime.state import StateStats

_END_OF_TIME = 2**62


@dataclass
class PipelineResult:
    """Outputs and per-operator statistics of one pipeline run."""

    outputs: List[Record]
    operator_stats: Dict[str, OperatorStats]
    state_stats: Dict[str, StateStats]
    records_ingested: int

    def output_values(self) -> List[Any]:
        return [record.value for record in self.outputs]

    def selectivity(self, operator: str) -> float:
        try:
            return self.operator_stats[operator].selectivity
        except KeyError:
            known = ", ".join(sorted(self.operator_stats))
            raise KeyError(f"unknown operator {operator!r}; known: {known}") from None

    def io_bytes_per_record(self, operator: str) -> float:
        """Measured state-access bytes per input record of an operator."""
        stats = self.operator_stats[operator]
        if stats.records_in == 0:
            return 0.0
        return self.state_stats[operator].io_bytes / stats.records_in


def check_chain_shape(source_count: int, operators: Sequence[Operator]) -> None:
    """Reject chains the executors cannot run.

    A chain needs a source and an operator; a join head takes exactly
    two sources, any other head exactly one, and a join may only be the
    head.
    """
    if not source_count:
        raise ValueError("pipeline has no source")
    if not operators:
        raise ValueError("pipeline has no operators")
    if isinstance(operators[0], WindowJoinOperator):
        if source_count != 2:
            raise ValueError("a join pipeline needs exactly two sources")
    elif source_count != 1:
        raise ValueError("a single-input pipeline needs exactly one source")
    if any(isinstance(op, WindowJoinOperator) for op in operators[1:]):
        raise ValueError("a join operator must be the chain head")


class Pipeline:
    """One or two sources feeding a linear operator chain."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._sources: List[Tuple[str, Iterable[Record]]] = []
        self._operators: List[Operator] = []

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def add_source(self, records: Iterable[Record], tag: str = "main") -> "Pipeline":
        """Add a timestamp-ordered source; ``tag`` routes join sides."""
        if len(self._sources) >= 2:
            raise ValueError("a pipeline supports at most two sources")
        if any(existing_tag == tag for existing_tag, _ in self._sources):
            raise ValueError(f"duplicate source tag {tag!r}")
        self._sources.append((tag, records))
        return self

    def then(self, operator: Operator) -> "Pipeline":
        """Append an operator to the chain."""
        if any(op.name == operator.name for op in self._operators):
            raise ValueError(f"duplicate operator name {operator.name!r}")
        self._operators.append(operator)
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> PipelineResult:
        """Execute to completion and return outputs plus statistics."""
        check_chain_shape(len(self._sources), self._operators)
        head = self._operators[0]
        outputs: List[Record] = []
        ingested = 0
        watermark = -(2**62)

        def push(stage: int, records: List[Record]) -> None:
            if stage >= len(self._operators):
                outputs.extend(records)
                return
            operator = self._operators[stage]
            for record in records:
                push(stage + 1, operator.process(record))

        def advance_watermark(new_watermark: int) -> None:
            nonlocal watermark
            if new_watermark <= watermark:
                return
            watermark = new_watermark
            for stage, operator in enumerate(self._operators):
                fired = operator.on_watermark(watermark)
                if fired:
                    push(stage + 1, fired)

        for timestamp, tag, record in _merge_sources(self._sources):
            ingested += 1
            if isinstance(head, WindowJoinOperator):
                side = (
                    WindowJoinOperator.LEFT
                    if tag == self._sources[0][0]
                    else WindowJoinOperator.RIGHT
                )
                push(1, head.process_side(side, record))
            else:
                push(1, head.process(record))
            advance_watermark(timestamp)

        advance_watermark(_END_OF_TIME)

        return PipelineResult(
            outputs=outputs,
            operator_stats={op.name: op.stats for op in self._operators},
            state_stats={op.name: op.state_stats() for op in self._operators},
            records_ingested=ingested,
        )


def _merge_sources(
    sources: Sequence[Tuple[str, Iterable[Record]]]
) -> Iterable[Tuple[int, str, Record]]:
    """Merge sources by timestamp (stable across sources)."""

    def tagged(order: int, tag: str, records: Iterable[Record]):
        # bound through arguments: a bare generator expression in the
        # loop would capture the loop variables by reference and tag
        # every stream with the last source's values
        for seq, record in enumerate(records):
            yield (record.timestamp_ms, order, seq, tag, record)

    streams = [
        tagged(order, tag, records)
        for order, (tag, records) in enumerate(sources)
    ]
    for timestamp, _order, _seq, tag, record in heapq.merge(*streams):
        yield timestamp, tag, record
