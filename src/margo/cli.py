"""Command-line surface: reproducible, scriptable verification runs.

Exit codes: 0 success or PASS, 1 theorem-check counterexample, 2 resource
ceiling hit, 64 usage error, 70 internal error (a bug, never a verdict).
Reports are plain text with a stable schema; identical inputs and flags
produce byte-identical reports.

The command table `_COMMANDS` (with the flag table `_FLAGS`) is the one
place that lists the subcommands, their handlers and their flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import characters, collapse, complexes, expfam, fiber, polytope, spaces
from .guards import ResourceCeilingError, resolve_ceiling


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _checked(build, *args):
    """build(*args), where build makes or checks an input: a ValueError it
    raises is a usage error.  The CLI validates every input this way before
    it computes, so any other exception is a bug (exit 70)."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated list of integers: {text!r}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _load_complex(args, space: spaces.ConfigSpace | None = None
                  ) -> complexes.SimplicialComplex:
    """--complex, else the interval complement of --G on `space`.

    Every subcommand that takes --G parses --space first and passes it in.
    """
    if getattr(args, "complex", None):
        return _checked(complexes.parse_complex, _read(args.complex))
    if getattr(args, "G", None):
        return _checked(complexes.interval_complement, space.n, _parse_int_list(args.G, "--G"))
    raise UsageError("a complex is required (--complex FILE or --G)")


def _load_space(args) -> spaces.ConfigSpace:
    sizes = _parse_int_list(args.space or "", "--space")
    if not sizes:
        raise UsageError("--space q1,q2,... is required")
    return _checked(spaces.ConfigSpace, sizes)


def _layout(cx: complexes.SimplicialComplex, space: spaces.ConfigSpace) -> spaces.MarginalLayout:
    """The model's layout, which checks that the complex and space agree on n."""
    return _checked(spaces.layout, cx, space)


def _ceiling(args) -> int:
    """--ceiling, else MARGO_CEILING, else the default, checked."""
    return _checked(resolve_ceiling, args.ceiling)


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split()]


def _emit(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _render(args, pairs: list[tuple[str, str]]) -> str:
    if args.kv:
        return "".join(f"{k}={v}\n" for k, v in pairs)
    return "".join(f"{k}: {v}\n" for k, v in pairs)


def _complex_str(cx: complexes.SimplicialComplex) -> str:
    facets = " ".join("{" + ",".join(str(i) for i in sorted(f)) + "}" for f in cx.facets)
    return f"{cx.n} ; {facets}" if facets else f"{cx.n} ; (no facets)"


def _space_str(space: spaces.ConfigSpace) -> str:
    return " ".join(str(q) for q in space.cardinalities)


def _configs_str(configs, space) -> str:
    return " ".join(spaces.config_str(x, space) for x in configs)


def _g_and_bound(cx) -> tuple[int | None, int | None]:
    try:
        g = cx.min_nonface_cardinality()
    except ValueError:
        return None, None
    return g, (2 ** (g - 1) if g >= 1 else None)


def _kmax(args, default: int) -> int:
    if args.kmax is None:
        return default
    if args.kmax < 1:
        raise UsageError(f"--kmax must be at least 1, got {args.kmax}")
    return args.kmax


# ---------------------------------------------------------------- subcommands

def _cmd_matrix(args) -> int:
    cx = _load_complex(args)
    space = _load_space(args)
    matrix = _layout(cx, space).matrix()
    _emit(args, spaces.format_matrix(matrix.rows))
    return 0


def _cmd_moves(args) -> int:
    space = _load_space(args)
    if not space.is_binary:
        raise UsageError("interval moves are defined on binary spaces")
    if not args.G:
        raise UsageError("--G i,j,... is required")
    members = _parse_int_list(args.G, "--G")
    moves = _checked(characters.interval_moves, space.n, members)
    _emit(args, spaces.format_matrix([m.vector for m in moves]))
    return 0


def _cmd_kernel_basis(args) -> int:
    cx = _load_complex(args)
    basis = characters.kernel_basis(cx)
    rows = [e.values for e in basis]
    if not rows:
        _emit(args, f"0 {2 ** cx.n}\n")
        return 0
    _emit(args, spaces.format_matrix(rows))
    return 0


def _cmd_verify_markov(args) -> int:
    space = _load_space(args)
    cx = _load_complex(args, space)
    if args.moves:
        rows = _checked(spaces.parse_matrix, _read(args.moves))
        moves = [_checked(characters.Move, space, tuple(r)) for r in rows]
    else:
        if not args.G:
            raise UsageError("without --moves, --G is required to build the interval moves")
        if not space.is_binary:
            raise UsageError("interval moves need a binary space; pass --moves instead")
        moves = list(_checked(characters.interval_moves, space.n, _parse_int_list(args.G, "--G")))
    if args.drop_move is not None:
        if not 0 <= args.drop_move < len(moves):
            raise UsageError(f"--drop-move index out of range 0..{len(moves) - 1}")
        del moves[args.drop_move]
    inputs = _checked(fiber._markov_inputs, cx, space, moves, args.degree_limit)
    report = fiber._verify_markov(*inputs, _ceiling(args))
    pairs = [
        ("command", "verify-markov"),
        ("complex", _complex_str(cx)),
        ("space", _space_str(space)),
        ("moves", str(len(moves))),
        ("degree-limit", str(report.degree_limit)),
        ("method", "fibers"),
        ("fibers-checked", str(report.fibers_checked)),
    ]
    if report.passed:
        pairs.append(("status", "PASS"))
        pairs.append(("note", f"all fibers of degree <= {report.degree_limit} connected; "
                              "evidence up to the stated bound, not a proof beyond it"))
    else:
        bad = report.witness
        u, v = bad.report.witness
        lay_blocks = bad.fiber.marginal.blocks
        rendered = " ; ".join(
            "{" + ",".join(str(i) for i in sorted(f)) + "}: "
            + " ".join(str(e) for e in bad.fiber.marginal.block(k))
            for k, (f, _) in enumerate(lay_blocks)
        )
        pairs.extend([
            ("status", "FAIL"),
            ("witness-degree", str(bad.fiber.marginal.degree)),
            ("witness-marginal", rendered),
            ("witness-fiber-size", str(bad.fiber.size)),
            ("witness-components", str(bad.report.components)),
            ("witness-u", " ".join(fiber.tableau(u).splitlines())),
            ("witness-v", " ".join(fiber.tableau(v).splitlines())),
        ])
    _emit(args, _render(args, pairs))
    return 0 if report.passed else 1


def _cmd_degree_bound(args) -> int:
    space = _load_space(args)
    cx = _load_complex(args, space)
    _checked(spaces._check_model, cx, space)
    g, bound = _g_and_bound(cx)
    if g is None:
        raise UsageError("complex is the full power set: kernel is zero, no binomials exist")
    kmax = _kmax(args, bound if bound else 1)
    found = fiber.min_binomial_degree(cx, space, kmax, ceiling=_ceiling(args))
    pairs = [
        ("command", "degree-bound"),
        ("complex", _complex_str(cx)),
        ("space", _space_str(space)),
        ("g", str(g)),
        ("bound", str(bound) if bound else "none"),
        ("kmax", str(kmax)),
    ]
    passed = True
    if found is None:
        pairs.append(("witness-degree", f"none (no binomial of degree <= {kmax})"))
    else:
        k, move = found
        pos, neg, _ = characters.move_supports(move)
        # always yes by the support bound; read off the witness as a re-check
        square_free = all(abs(v) <= 1 for v in move.vector)
        pairs.extend([
            ("witness-degree", str(k)),
            ("witness-positive", _configs_str(pos, space)),
            ("witness-negative", _configs_str(neg, space)),
            ("square-free", "yes" if square_free else "no"),
        ])
        if bound is not None and k < bound:
            passed = False
    pairs.append(("status", "PASS" if passed else "FAIL"))
    _emit(args, _render(args, pairs))
    return 0 if passed else 1


def _cmd_neighborly(args) -> int:
    space = _load_space(args)
    cx = _load_complex(args, space)
    _checked(spaces._check_model, cx, space)
    g, bound = _g_and_bound(cx)
    # by default one past the guaranteed neighborliness, to probe sharpness
    kmax = _kmax(args, bound if bound is not None else space.size)
    report = polytope.neighborliness(cx, space, kmax, ceiling=_ceiling(args))
    pairs = [
        ("command", "neighborly"),
        ("complex", _complex_str(cx)),
        ("space", _space_str(space)),
        ("g", str(g) if g is not None else "none"),
        ("bound", str(bound - 1) if bound is not None else "none"),
        ("kmax", str(kmax)),
        ("k", str(report.k)),
    ]
    if report.witness is not None:
        cert = report.witness
        nonzero = [(x, w) for x, w in zip(space.configs(), cert.combination) if w]
        pairs.extend([
            ("witness-size", str(len(cert.members))),
            ("witness", _configs_str(cert.members, space)),
            ("certificate", " ".join(f"{spaces.config_str(x, space)}={w}" for x, w in nonzero)),
            ("outside-mass", str(cert.outside_mass)),
        ])
    # a run capped below the bound without a witness found no counterexample
    capped = report.witness is None and bound is not None and kmax < bound - 1
    passed = capped or bound is None or report.k >= bound - 1
    pairs.append(("status", "PASS" if passed else "FAIL"))
    if capped:
        pairs.append(("note", f"every set of <= {kmax} configurations spans a face; "
                              "the verdict holds up to kmax only, below the bound"))
    _emit(args, _render(args, pairs))
    return 0 if passed else 1


def _cmd_collapse(args) -> int:
    space = _load_space(args)
    cmap = _checked(collapse.parse_collapsing, _read(args.map))
    if cmap.source != space:
        raise UsageError("collapsing map does not match --space")
    table = _checked(spaces.parse_table, _read(args.table))
    if table.space != space:
        raise UsageError("table does not match --space")
    collapsed = collapse.collapse_table(cmap, table)
    checks = 0
    failure = None
    for members in complexes.subsets(space.n):
        left, right = collapse._phi_sides(cmap, table, collapsed, members)
        bad = [z for z, a, b in zip(left.space.configs(), left.counts, right.counts) if a != b]
        if bad:
            failure = (members, bad[0])
            break
        checks += len(left.counts)
    pairs = [
        ("command", "collapse"),
        ("space", _space_str(space)),
        ("degree", str(table.degree)),
        ("collapsed-degree", str(collapsed.degree)),
        ("phi-identity", f"OK ({checks} checks)" if failure is None else
         f"FAILED at B={{{ ','.join(map(str, sorted(failure[0]))) }}} z={failure[1]}"),
    ]
    text = _render(args, pairs) + "collapsed-table:\n" + spaces.format_table(collapsed)
    _emit(args, text)
    return 0 if failure is None else 1


def _cmd_mi(args) -> int:
    space = _load_space(args)
    values = _checked(_floats, _read(args.density))
    p = _checked(expfam.Density, space, tuple(values))
    pairs = [
        ("command", "mi"),
        ("space", _space_str(space)),
        ("mi", f"{expfam.multiinformation(p):.12g}"),
    ]
    _emit(args, _render(args, pairs))
    return 0


def _cmd_density(args) -> int:
    space = _load_space(args)
    cx = _load_complex(args)
    lay = _layout(cx, space)
    theta = _checked(_floats, _read(args.theta))
    _checked(expfam._check_theta, lay, theta)
    p = expfam.density(cx, space, theta)
    pairs = [
        ("command", "density"),
        ("complex", _complex_str(cx)),
        ("space", _space_str(space)),
        ("density", " ".join(f"{v:.12g}" for v in p.probabilities)),
    ]
    _emit(args, _render(args, pairs))
    return 0


def _cmd_tableau(args) -> int:
    table = _checked(spaces.parse_table, _read(args.table))
    _emit(args, fiber.tableau(table))
    return 0


# ------------------------------------------------------------------- parsing

# Each flag's add_argument keywords, declared once.
_FLAGS = {
    "--complex": {"metavar": "FILE"},
    "--space": {},
    "--G": {"metavar": "I,J,..."},
    "--moves": {"metavar": "FILE", "help": "move set in matrix text format"},
    "--drop-move": {"type": int, "metavar": "I", "help": "remove move I before verifying"},
    "--degree-limit": {"type": int, "metavar": "T"},
    "--kmax": {"type": int},
    "--ceiling": {"type": int},
    "--map": {"metavar": "FILE"},
    "--table": {"metavar": "FILE"},
    "--density": {"metavar": "FILE"},
    "--theta": {"metavar": "FILE"},
    "--kv": {"action": "store_true", "help": "emit key=value lines"},
    "--out": {"metavar": "FILE", "help": "write output to FILE instead of stdout"},
}

# Subcommand -> (handler, help, flags in usage order; "!" marks a required
# flag).  Every subcommand also takes --out.
_COMMANDS = {
    "matrix": (_cmd_matrix, "emit the marginal matrix of a complex",
               "--complex! --space!"),
    "moves": (_cmd_moves, "emit the interval moves of an interval-complement model",
              "--space! --G!"),
    "kernel-basis": (_cmd_kernel_basis, "emit the character kernel basis of a complex",
                     "--complex!"),
    "verify-markov": (_cmd_verify_markov, "verify a move set connects all bounded fibers",
                      "--complex --space! --G --moves --drop-move --degree-limit! "
                      "--ceiling --kv"),
    "degree-bound": (_cmd_degree_bound, "minimal binomial degree vs the 2^(g-1) bound",
                     "--complex --space! --G --kmax --ceiling --kv"),
    "neighborly": (_cmd_neighborly, "exact LP-certified neighborliness sweep",
                   "--complex --space! --G --kmax --ceiling --kv"),
    "collapse": (_cmd_collapse, "collapse a table to binary and check the lemmas",
                 "--space! --map! --table! --kv"),
    "mi": (_cmd_mi, "multiinformation of a density", "--space! --density! --kv"),
    "density": (_cmd_density, "exponential family density for a parameter vector",
                "--complex! --space! --theta! --kv"),
    "tableau": (_cmd_tableau, "pretty-print a table as its configuration multiset",
                "--table!"),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`: only the named subcommand, with its flags.

    When the first argument names no subcommand, which only help and error
    paths do, every subcommand is added with its flags.
    """
    parser = _Parser(prog="margo",
                     description="Marginal polytopes, Markov moves, and fiber checks")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = _COMMANDS
    if argv[:1] and argv[0] in _COMMANDS:
        commands = {argv[0]: _COMMANDS[argv[0]]}
    for name, (handler, help_text, flags) in commands.items():
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        for flag in flags.split() + ["--out"]:
            option = flag.rstrip("!")
            sp.add_argument(option, required=flag.endswith("!"), **_FLAGS[option])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"margo: usage error: {exc}", file=sys.stderr)
        return 64
    except ResourceCeilingError as exc:
        print(f"margo: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - keep exit 1 for counterexamples only
        print(f"margo: internal error: {exc!r}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
