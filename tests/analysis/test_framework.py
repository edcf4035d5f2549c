"""Framework behaviour: suppressions, CLI, reports."""
from __future__ import annotations

import json

from repro.analysis import run_analysis
from repro.analysis.__main__ import main

SILENT = '''
def pump():
    try:
        step()
    except Exception:
        pass
'''


def _write(tmp_path, relpath, text):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


# -- suppressions ---------------------------------------------------------- #

def test_same_line_suppression(tmp_path):
    _write(tmp_path, 'src/repro/stream/x.py', SILENT.replace(
        'except Exception:',
        'except Exception:  # repro: ignore[RP004] - demo',
    ))
    report = run_analysis(tmp_path, select=['RP004'])
    assert report.clean
    assert len(report.suppressed) == 1


def test_standalone_comment_above_suppresses(tmp_path):
    _write(tmp_path, 'src/repro/stream/x.py', '''
def pump():
    try:
        step()
    # repro: ignore[RP004] - reason spanning
    # several comment lines still lands on the except
    except Exception:
        pass
''')
    report = run_analysis(tmp_path, select=['RP004'])
    assert report.clean
    assert len(report.suppressed) == 1


def test_suppression_is_rule_specific(tmp_path):
    _write(tmp_path, 'src/repro/stream/x.py', SILENT.replace(
        'except Exception:',
        'except Exception:  # repro: ignore[RP001]',
    ))
    report = run_analysis(tmp_path, select=['RP004'])
    assert [f.rule for f in report.findings] == ['RP004']


def test_star_suppresses_every_rule(tmp_path):
    _write(tmp_path, 'src/repro/stream/x.py', SILENT.replace(
        'except Exception:',
        'except Exception:  # repro: ignore[*]',
    ))
    report = run_analysis(tmp_path, select=['RP004'])
    assert report.clean


def test_marker_inside_string_is_not_a_suppression(tmp_path):
    _write(tmp_path, 'src/repro/stream/x.py', '''
def pump():
    try:
        step()
    except Exception:
        return "# repro: ignore[RP004]"
''')
    report = run_analysis(tmp_path, select=['RP004'])
    assert [f.rule for f in report.findings] == ['RP004']


def test_unknown_rule_id_is_an_error(tmp_path):
    _write(tmp_path, 'src/repro/stream/x.py', 'x = 1\n')
    try:
        run_analysis(tmp_path, select=['RP999'])
    except ValueError as e:
        assert 'RP999' in str(e)
    else:
        raise AssertionError('expected ValueError for unknown rule id')


# -- CLI ------------------------------------------------------------------- #

def test_cli_strict_exit_codes(tmp_path, capsys):
    _write(tmp_path, 'src/repro/stream/x.py', SILENT)
    assert main(['--root', str(tmp_path), '--select', 'RP004']) == 0
    assert main(['--root', str(tmp_path), '--select', 'RP004', '--strict']) == 1
    out = capsys.readouterr().out
    assert 'RP004' in out


def test_cli_json_output(tmp_path, capsys):
    _write(tmp_path, 'src/repro/stream/x.py', SILENT)
    assert main(['--root', str(tmp_path), '--select', 'RP004', '--json']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['counts'] == {'RP004': 1}
    assert payload['findings'][0]['rule'] == 'RP004'


def test_cli_list_rules(capsys):
    assert main(['--list-rules']) == 0
    out = capsys.readouterr().out
    for rule in ('RP001', 'RP002', 'RP003', 'RP004', 'RP005', 'RP006'):
        assert rule in out


def test_cli_unknown_rule_exits_2(tmp_path, capsys):
    _write(tmp_path, 'src/repro/stream/x.py', 'x = 1\n')
    assert main(['--root', str(tmp_path), '--select', 'RP999']) == 2
