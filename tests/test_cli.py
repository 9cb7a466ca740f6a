"""The parser that ``main`` builds for one command behaves as the full one."""

import pytest

from fedtrend import cli

COMMANDS = [name for name, *_ in cli.COMMANDS]


def _outcome(parse, argv, capsys):
    """Exit code, stdout and stderr of ``parse(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["--help"], ["bogus"], ["ru", "--seed", "0"],
        ["run", "--bogus"], ["run", "--seed", "0", "--bogus"],
        ["check"], ["check", "--seed", "x"], ["check", "--seed", "0", "extra"],
        ["aggregate", "--seed", "0"], ["rank", "--agg", "median"],
        *([name, "--help"] for name in COMMANDS),
    ],
    ids=" ".join,
)
def test_main_parses_as_the_full_parser(argv, capsys, monkeypatch):
    """Help, usage lines, error messages and exit codes are the full
    parser's, whichever parser ``main`` builds."""
    monkeypatch.setenv("COLUMNS", "80")
    full = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert _outcome(cli.main, argv, capsys) == full
    assert full[0] in (0, 2) and full[1] + full[2]


@pytest.mark.parametrize("command", COMMANDS)
def test_single_command_parser_keeps_the_full_usage_line(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full_usage = cli.build_parser().format_usage()
    assert cli.build_parser(command).format_usage() == full_usage


@pytest.mark.parametrize("word", [None, "-h", "--help", "bogus", "RUN"])
def test_a_word_that_is_no_command_builds_every_command(word, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser(word).format_help() == cli.build_parser().format_help()


def test_build_parser_for_run_creates_only_run(capsys):
    parser = cli.build_parser("run")
    assert parser.parse_args(["run", "--seed", "3"]).func is cli._cmd_run
    for other in COMMANDS[1:]:
        code, _, err = _outcome(parser.parse_args, [other, "--seed", "0"], capsys)
        assert code == 2 and f"invalid choice: '{other}' (choose from 'run')" in err
