"""Result recording and pretty-printing for the benchmark harness."""
from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field
from typing import Any
from typing import Iterable
from typing import Sequence

__all__ = ['ResultTable', 'format_table', 'mean', 'stdev']


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for fewer than two samples)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return (sum((v - mu) ** 2 for v in values) / len(values)) ** 0.5


@dataclass
class ResultTable:
    """A labelled collection of result rows (one per experimental cell).

    Attributes:
        title: which table/figure of the paper this reproduces.
        columns: ordered column names.
        rows: list of dicts keyed by column name (missing values allowed).
        notes: free-form annotations (parameters, substitutions, caveats).
    """

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order (missing entries skipped)."""
        return [row[name] for row in self.rows if name in row]

    def filter(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows matching every ``column=value`` criterion."""
        return [
            row
            for row in self.rows
            if all(row.get(col) == val for col, val in criteria.items())
        ]

    def value(self, value_column: str, **criteria: Any) -> Any:
        """The single value of ``value_column`` in the row matching ``criteria``."""
        matches = self.filter(**criteria)
        if len(matches) != 1:
            raise KeyError(
                f'expected exactly one row matching {criteria!r}, found {len(matches)}',
            )
        return matches[0][value_column]

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return format_table(self)


def _format_cell(value: Any) -> str:
    if value is None:
        return '--'
    if isinstance(value, float):
        if value == 0:
            return '0'
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f'{value:.3e}'
        return f'{value:.4g}'
    return str(value)


def format_table(table: ResultTable, *, max_rows: int | None = None) -> str:
    """Render ``table`` as a fixed-width text table (like the paper's tables)."""
    columns = table.columns
    rows = table.rows if max_rows is None else table.rows[:max_rows]
    cells = [[_format_cell(row.get(col)) for col in columns] for row in rows]
    widths = [
        max([len(col)] + [len(row[i]) for row in cells]) for i, col in enumerate(columns)
    ]
    lines = [f'== {table.title} ==']
    header = ' | '.join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append('-+-'.join('-' * w for w in widths))
    for row in cells:
        lines.append(' | '.join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if max_rows is not None and len(table.rows) > max_rows:
        lines.append(f'... ({len(table.rows) - max_rows} more rows)')
    for note in table.notes:
        lines.append(f'note: {note}')
    return '\n'.join(lines)
