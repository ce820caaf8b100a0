"""Byte-for-byte pins of the CLI's help, usage-error and unknown-command output.

Recorded with COLUMNS=80 under Python 3.11, whose argparse wording and line
wrapping these are; other Python versions word some of these messages
differently.
"""

import sys

import pytest

from margo import cli

pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="argparse help and error wording differ between "
                                       "Python versions")

# `margo --help` (key "") and `margo SUBCOMMAND --help` for all ten subcommands.
HELP = {
    '': """\
usage: margo [-h]
             {matrix,moves,kernel-basis,verify-markov,degree-bound,neighborly,collapse,mi,density,tableau}
             ...

Marginal polytopes, Markov moves, and fiber checks

positional arguments:
  {matrix,moves,kernel-basis,verify-markov,degree-bound,neighborly,collapse,mi,density,tableau}
    matrix              emit the marginal matrix of a complex
    moves               emit the interval moves of an interval-complement
                        model
    kernel-basis        emit the character kernel basis of a complex
    verify-markov       verify a move set connects all bounded fibers
    degree-bound        minimal binomial degree vs the 2^(g-1) bound
    neighborly          exact LP-certified neighborliness sweep
    collapse            collapse a table to binary and check the lemmas
    mi                  multiinformation of a density
    density             exponential family density for a parameter vector
    tableau             pretty-print a table as its configuration multiset

options:
  -h, --help            show this help message and exit
""",
    'matrix': """\
usage: margo matrix [-h] --complex FILE --space SPACE [--out FILE]

options:
  -h, --help      show this help message and exit
  --complex FILE
  --space SPACE
  --out FILE      write output to FILE instead of stdout
""",
    'moves': """\
usage: margo moves [-h] --space SPACE --G I,J,... [--out FILE]

options:
  -h, --help     show this help message and exit
  --space SPACE
  --G I,J,...
  --out FILE     write output to FILE instead of stdout
""",
    'kernel-basis': """\
usage: margo kernel-basis [-h] --complex FILE [--out FILE]

options:
  -h, --help      show this help message and exit
  --complex FILE
  --out FILE      write output to FILE instead of stdout
""",
    'verify-markov': """\
usage: margo verify-markov [-h] [--complex FILE] --space SPACE [--G I,J,...]
                           [--moves FILE] [--drop-move I] --degree-limit T
                           [--ceiling CEILING] [--kv] [--out FILE]

options:
  -h, --help         show this help message and exit
  --complex FILE
  --space SPACE
  --G I,J,...
  --moves FILE       move set in matrix text format
  --drop-move I      remove move I before verifying
  --degree-limit T
  --ceiling CEILING
  --kv               emit key=value lines
  --out FILE         write output to FILE instead of stdout
""",
    'degree-bound': """\
usage: margo degree-bound [-h] [--complex FILE] --space SPACE [--G I,J,...]
                          [--kmax KMAX] [--ceiling CEILING] [--kv]
                          [--out FILE]

options:
  -h, --help         show this help message and exit
  --complex FILE
  --space SPACE
  --G I,J,...
  --kmax KMAX
  --ceiling CEILING
  --kv               emit key=value lines
  --out FILE         write output to FILE instead of stdout
""",
    'neighborly': """\
usage: margo neighborly [-h] [--complex FILE] --space SPACE [--G I,J,...]
                        [--kmax KMAX] [--ceiling CEILING] [--kv] [--out FILE]

options:
  -h, --help         show this help message and exit
  --complex FILE
  --space SPACE
  --G I,J,...
  --kmax KMAX
  --ceiling CEILING
  --kv               emit key=value lines
  --out FILE         write output to FILE instead of stdout
""",
    'collapse': """\
usage: margo collapse [-h] --space SPACE --map FILE --table FILE [--kv]
                      [--out FILE]

options:
  -h, --help     show this help message and exit
  --space SPACE
  --map FILE
  --table FILE
  --kv           emit key=value lines
  --out FILE     write output to FILE instead of stdout
""",
    'mi': """\
usage: margo mi [-h] --space SPACE --density FILE [--kv] [--out FILE]

options:
  -h, --help      show this help message and exit
  --space SPACE
  --density FILE
  --kv            emit key=value lines
  --out FILE      write output to FILE instead of stdout
""",
    'density': """\
usage: margo density [-h] --complex FILE --space SPACE --theta FILE [--kv]
                     [--out FILE]

options:
  -h, --help      show this help message and exit
  --complex FILE
  --space SPACE
  --theta FILE
  --kv            emit key=value lines
  --out FILE      write output to FILE instead of stdout
""",
    'tableau': """\
usage: margo tableau [-h] --table FILE [--out FILE]

options:
  -h, --help    show this help message and exit
  --table FILE
  --out FILE    write output to FILE instead of stdout
""",
}

# No subcommand, an unknown one, an option before it, a missing required flag,
# an unrecognized flag.
ERRORS = [
    ([],
     'margo: usage error: the following arguments are required: subcommand\n'),
    (['frobnicate'],
     "margo: usage error: argument subcommand: invalid choice: 'frobnicate' (choose from 'matrix', 'moves', 'kernel-basis', 'verify-markov', 'degree-bound', 'neighborly', 'collapse', 'mi', 'density', 'tableau')\n"),
    (['--kv', 'matrix', '--complex', 'ind.cx', '--space', '2,2'],
     'margo: usage error: unrecognized arguments: --kv\n'),
    (['matrix', '--space', '2,2'],
     'margo: usage error: the following arguments are required: --complex\n'),
    (['matrix', '--complex', 'ind.cx', '--space', '2,2', '--bogus'],
     'margo: usage error: unrecognized arguments: --bogus\n'),
]


@pytest.fixture(autouse=True)
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("subcommand", HELP)
def test_help_bytes(capsys, subcommand):
    argv = [subcommand, "--help"] if subcommand else ["--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out == HELP[subcommand]
    assert out.err == ""


@pytest.mark.parametrize("argv, err", ERRORS)
def test_usage_error_bytes(capsys, argv, err):
    assert cli.main(argv) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == err
