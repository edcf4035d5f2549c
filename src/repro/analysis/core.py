"""The checker framework: findings, registry, suppressions, runner.

A :class:`Checker` inspects parsed modules and yields :class:`Finding`\\ s.
Checkers register themselves in a process-global registry via
:func:`register_checker`; :func:`run_analysis` walks a source tree, parses
every ``*.py`` file once, runs each selected checker, and filters the raw
findings through the one suppression mechanism: a ``# repro: ignore[RP004]``
comment (optionally ``# repro: ignore[RP001,RP003] - reason``) on the
flagged line — or on a standalone comment line directly above it —
silences the named rules there.

Everything here is dependency-free standard library so the analyzer can
run in any environment the test suite runs in.
"""
from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass
from dataclasses import field
from pathlib import Path
from typing import Callable
from typing import Iterable
from typing import Iterator
from typing import Sequence

__all__ = [
    'AnalysisReport',
    'Checker',
    'Finding',
    'Module',
    'Project',
    'all_checkers',
    'register_checker',
    'run_analysis',
]

#: ``# repro: ignore[RP001]`` / ``# repro: ignore[RP001,RP004] - reason``.
_SUPPRESSION = re.compile(
    r'#\s*repro:\s*ignore\[(?P<rules>[A-Z0-9,\s*]+)\]',
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0
    context: str = ''

    def render(self) -> str:
        """Human-readable one-line form (``path:line:col RP00x message``)."""
        return f'{self.path}:{self.line}:{self.col} {self.rule} {self.message}'


class Module:
    """One parsed source file handed to every checker."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        self.suppressions = _collect_suppressions(source)

    def line_text(self, lineno: int) -> str:
        """The 1-indexed source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ''

    def finding(
        self,
        rule: str,
        message: str,
        node: ast.AST | int,
        col: int | None = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` (or a line number)."""
        if isinstance(node, int):
            line, column = node, col or 0
        else:
            line = getattr(node, 'lineno', 1)
            column = col if col is not None else getattr(node, 'col_offset', 0)
        return Finding(
            rule=rule,
            message=message,
            path=self.relpath,
            line=line,
            col=column,
            context=self.line_text(line),
        )

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is suppressed on ``line`` (or ``*`` is)."""
        rules = self.suppressions.get(line)
        return rules is not None and (rule in rules or '*' in rules)


def _collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rules suppressed there, from real comments only.

    Tokenizing (rather than regexing raw lines) means a suppression
    marker inside a string literal is not honoured — only comments count.
    """
    suppressions: dict[int, set[str]] = {}
    raw_lines = source.splitlines()
    lines = iter(source.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, '')):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESSION.search(token.string)
            if match is None:
                continue
            rules = {r.strip() for r in match.group('rules').split(',') if r.strip()}
            lineno = token.start[0]
            # A standalone comment line suppresses the next *code* line —
            # the readable form when the suppression carries a reason
            # (possibly continued across several comment lines).
            if raw_lines[lineno - 1].lstrip().startswith('#'):
                lineno += 1
                while (
                    lineno <= len(raw_lines)
                    and raw_lines[lineno - 1].lstrip().startswith('#')
                ):
                    lineno += 1
            suppressions.setdefault(lineno, set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - unterminated source
        pass
    return suppressions


class Project:
    """All parsed modules of one analysis run, plus resolved paths."""

    def __init__(self, root: Path, modules: Sequence[Module]) -> None:
        self.root = root
        self.modules = list(modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`rule`/:attr:`name`/:attr:`description`, narrow
    :attr:`paths` when the rule only applies to part of the tree, and
    implement :meth:`check_module` (per file) and/or :meth:`finish`
    (cross-file, called once after every module was visited).
    """

    rule: str = 'RP000'
    name: str = 'unnamed'
    description: str = ''
    #: Repo-relative path prefixes the rule applies to (``None`` = all).
    paths: tuple[str, ...] | None = None

    def applies_to(self, module: Module) -> bool:
        """True when ``module`` falls under this rule's path scope."""
        if self.paths is None:
            return True
        return any(module.relpath.startswith(prefix) for prefix in self.paths)

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Yield findings for one parsed module."""
        return ()

    def finish(self, project: Project) -> Iterable[Finding]:
        """Yield cross-module findings once every module was visited."""
        return ()


_REGISTRY: dict[str, type[Checker]] = {}


def register_checker(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the default rule set."""
    existing = _REGISTRY.get(cls.rule)
    if existing is not None and existing is not cls:
        raise ValueError(f'rule {cls.rule} already registered by {existing!r}')
    _REGISTRY[cls.rule] = cls
    return cls


def all_checkers() -> dict[str, type[Checker]]:
    """The registered rule set (imports the built-in rule modules)."""
    import repro.analysis.checkers  # noqa: F401  (self-registration)

    return dict(sorted(_REGISTRY.items()))


@dataclass
class AnalysisReport:
    """The outcome of one :func:`run_analysis` call."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """True when no finding survived suppression."""
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        """Surviving finding count per rule id."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> dict:
        """JSON-friendly structure for ``--json`` output and tooling."""
        return {
            'files_checked': self.files_checked,
            'rules_run': list(self.rules_run),
            'counts': self.counts_by_rule(),
            'suppressed': len(self.suppressed),
            'findings': [
                {
                    'rule': f.rule,
                    'message': f.message,
                    'path': f.path,
                    'line': f.line,
                    'col': f.col,
                    'context': f.context.strip(),
                }
                for f in self.findings
            ],
        }


def _iter_sources(root: Path, paths: Sequence[Path]) -> Iterator[Path]:
    for base in paths:
        if base.is_file():
            yield base
        else:
            yield from sorted(base.rglob('*.py'))


def run_analysis(
    root: Path,
    paths: Sequence[Path] | None = None,
    *,
    select: Sequence[str] | None = None,
    checker_factory: Callable[[type[Checker]], Checker] | None = None,
) -> AnalysisReport:
    """Run the (selected) rule set over ``paths`` and filter the findings.

    Args:
        root: repository root; findings carry paths relative to it and
            path-scoped rules match against those relative paths.
        paths: files or directories to analyze (default: ``root/src/repro``).
        select: rule ids to run (default: every registered rule).
        checker_factory: hook for constructing checkers with custom
            configuration (used by tests; default constructs with no args).
    """
    root = root.resolve()
    if paths is None:
        paths = [root / 'src' / 'repro']
    registry = all_checkers()
    if select is not None:
        unknown = sorted(set(select) - set(registry))
        if unknown:
            raise ValueError(f'unknown rule id(s): {", ".join(unknown)}')
        registry = {rule: registry[rule] for rule in select}
    make = checker_factory or (lambda cls: cls())
    checkers = [make(cls) for cls in registry.values()]

    modules = []
    for source_path in _iter_sources(root, paths):
        try:
            relpath = source_path.resolve().relative_to(root).as_posix()
        except ValueError:
            relpath = source_path.as_posix()
        modules.append(Module(source_path, relpath, source_path.read_text()))
    project = Project(root, modules)

    raw: list[Finding] = []
    for checker in checkers:
        for module in project:
            if checker.applies_to(module):
                raw.extend(checker.check_module(module))
        raw.extend(checker.finish(project))
    raw.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    by_path = {module.relpath: module for module in project}
    report = AnalysisReport(
        files_checked=len(modules),
        rules_run=tuple(registry),
    )
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding.rule, finding.line):
            report.suppressed.append(finding)
            continue
        report.findings.append(finding)
    return report
