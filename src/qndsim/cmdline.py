"""A table-driven argv parser for a group of subcommands.

Each command declares its parameters once, as `Param` rows; `_parse` reads
argv from that table and `Program.help_text` renders `--help` from it.  The
rules are click's, and so are the messages:

* an option that takes a value consumes the next token verbatim
  (`--input -0.5,0,1`);
* `--opt=value` and `-T0.5` also work;
* options and positionals interleave;
* the last occurrence of an option wins, except for `multiple` ones, which
  collect every occurrence;
* `--` ends option parsing;
* any other token that starts with `-` (but is not `-` itself) must name an
  option.

Exit codes: 0 success, 1 runtime error or Ctrl-C, 2 usage error.  A usage
error writes nothing on stdout and `Error: <message>` on stderr.  A runtime
error is a `ValueError`, or an `OSError` other than a broken pipe, raised by
a command; it writes `error: <message>` on stderr.
"""

from __future__ import annotations

import io
import os
import sys
from typing import Any, Callable, NamedTuple


class UsageError(Exception):
    """A bad command line: `Error: <message>` on stderr, exit code 2."""


class Type(NamedTuple):
    """How a parameter's text becomes its value.

    `convert` raises ValueError whose message says why the text is refused.
    """

    metavar: str
    convert: Callable[[str], Any]
    choices: tuple[str, ...] = ()


def _number(name: str, cast: Callable[[str], Any]) -> Type:
    def convert(text: str):
        try:
            return cast(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid {name}.") from None
    return Type(name.upper(), convert)


def choice(*choices: str) -> Type:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
        return text
    return Type(f"[{'|'.join(choices)}]", convert, choices)


def _existing_file(text: str) -> str:
    if not os.path.exists(text):
        raise ValueError(f"File {text!r} does not exist.")
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    if not os.access(text, os.R_OK):
        raise ValueError(f"File {text!r} is not readable.")
    return text


def _writable_file(text: str) -> str:
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise ValueError(f"File {text!r} is not writable.")
    parent = os.path.dirname(text) or os.curdir
    if not os.path.isdir(parent):
        raise ValueError(f"File {text!r}: {parent!r} is not a directory.")
    return text


TEXT = Type("TEXT", str)
FLOAT = _number("float", float)
INTEGER = _number("integer", int)
PATH = Type("PATH", _existing_file)  # a file to read
FILE = Type("FILE", _writable_file)  # a file to write


class Param(NamedTuple):
    """An option (its names start with `-`) or a positional argument.

    A positional's one name is what usage lines and error messages call it.
    Positionals are required; an absent option takes `default`, or `()` if
    it is `multiple`.  `--help` shows a default that is not None.
    """

    names: tuple[str, ...]
    dest: str
    type: Type = TEXT
    default: Any = None
    help: str = ""
    required: bool = False
    multiple: bool = False

    @property
    def is_option(self) -> bool:
        return self.names[0].startswith("-")

    @property
    def hint(self) -> str:
        return " / ".join(f"'{n}'" for n in self.names)


_HELP = Param(("--help",), "help", help="Show this message and exit.")


class Command(NamedTuple):
    name: str
    run: Callable[..., None]
    params: tuple[Param, ...]
    options: dict[str, Param]
    positionals: tuple[Param, ...]

    @property
    def summary(self) -> str:
        return self.run.__doc__.strip().splitlines()[0]


def _no_such(kind: str, name: str, possibilities) -> str:
    from difflib import get_close_matches  # only an error pays for the import

    close = sorted(get_close_matches(name, possibilities))
    quoted = ", ".join(map(repr, close))
    if len(close) > 1:
        return f"No such {kind} {name!r}. (Did you mean one of: {quoted}?)"
    return f"No such {kind} {name!r}." + (f" Did you mean {quoted}?" if close else "")


def _no_such_option(tok: str, options) -> str:
    """A long option is named up to any `=`, and close long names suggested."""
    if tok.startswith("--"):
        return _no_such("option", tok.partition("=")[0], [n for n in options if n[:2] == "--"])
    return _no_such("option", tok[:2], ())


def _parse(cmd: Command, argv: list[str]) -> dict[str, Any] | None:
    """Keyword arguments for `cmd.run` from argv; None when `--help` asks for help.

    Values are converted, and required parameters checked, in the order
    options first appear, then the positionals, then the rest as declared,
    so the first error reported is the one click reported.
    """
    texts: dict[Param, Any] = {}  # the last text, or every text if `multiple`
    positional: list[str] = []
    wants_help = False
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--":
            positional.extend(tokens)
            break
        if tok[:1] != "-" or tok == "-":
            positional.append(tok)
            continue
        if tok.startswith("--"):
            name, eq, value = tok.partition("=")
            glued = bool(eq)
        else:  # a short option's value may be glued on: -T0.5
            name, value = tok[:2], tok[2:]
            glued = bool(value)
        param = cmd.options.get(name)
        if param is None:
            raise UsageError(_no_such_option(tok, cmd.options))
        if param is _HELP:
            if glued:
                raise UsageError(f"Option {name!r} does not take a value.")
            wants_help = True
            continue
        if not glued:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"Option {name!r} requires an argument.")
        if param.multiple:
            texts.setdefault(param, []).append(value)
        else:
            texts[param] = value
    if wants_help:
        return None

    texts.update(zip(cmd.positionals, positional))
    values = {}
    for p in [*texts, *(p for p in cmd.params if p not in texts)]:
        if p in texts:
            text = texts[p]
            try:
                values[p.dest] = (tuple(map(p.type.convert, text)) if p.multiple
                                  else p.type.convert(text))
            except ValueError as exc:
                raise UsageError(f"Invalid value for {p.hint}: {exc}") from None
        elif p.required or not p.is_option:
            message = f"Missing {'option' if p.is_option else 'argument'} {p.hint}."
            if p.type.choices:
                message += " Choose from:\n\t" + ",\n\t".join(p.type.choices)
            raise UsageError(message)
        else:
            values[p.dest] = () if p.multiple else p.default
    extra = positional[len(cmd.positionals):]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return values


def _usage(prog: str, cmd: Command | None) -> str:
    if cmd is None:
        return f"Usage: {prog} [OPTIONS] COMMAND [ARGS]..."
    return " ".join([f"Usage: {prog} {cmd.name} [OPTIONS]", *(p.names[0] for p in cmd.positionals)])


class Program:
    """A group of subcommands, run as `program()` on `sys.argv` or
    `program.main(args=[...])` on a list.

    Every run ends in SystemExit: 0 on success, 2 on a usage error, and 1 on
    a runtime error, which a command raises as `ValueError` or `OSError` and
    `main` reports as `error: <message>`.  Output goes to whatever
    `sys.stdout`/`sys.stderr` are.
    """

    def __init__(self, name: str, description: str):
        self.name = name
        self.description = description
        self.commands: dict[str, Command] = {}

    def command(self, name: str, *params: Param):
        """Register the decorated function as subcommand `name` with `params`."""
        def register(fn):
            options = {n: p for p in (*params, _HELP) if p.is_option for n in p.names}
            positionals = tuple(p for p in params if not p.is_option)
            self.commands[name] = Command(name, fn, params, options, positionals)
            return fn
        return register

    def help_text(self, prog: str, cmd: Command | None) -> str:
        """Usage, description, then one line per option (or command)."""
        if cmd is None:
            description = self.description
            sections = [("Options", [("--help", _HELP.help)]),
                        ("Commands", [(n, c.summary) for n, c in sorted(self.commands.items())])]
        else:
            description = cmd.summary
            rows = []
            for p in (*cmd.params, _HELP):
                if not p.is_option:
                    continue
                names = sorted(p.names, key=lambda n: len(n) - len(n.lstrip("-")))
                flag = ", ".join(names) + ("" if p is _HELP else f" {p.type.metavar}")
                notes = [p.help] if p.help else []
                if p.default is not None:
                    notes.append(f"[default: {p.default}]")
                if p.required:
                    notes.append("[required]")
                rows.append((flag, "  ".join(notes)))
            sections = [("Options", rows)]
        lines = [_usage(prog, cmd), "", f"  {description}"]
        for title, entries in sections:
            width = max(len(left) for left, _ in entries) + 2
            lines += ["", f"{title}:"]
            lines += [f"  {left.ljust(width)}{right}".rstrip() for left, right in entries]
        return "\n".join(lines) + "\n"

    def _dispatch(self, argv: list[str], prog: str) -> None:
        """Run one command line; usage errors exit 2."""
        cmd = None
        try:
            rest = list(argv)
            # the group's options precede the command name; --help is its only one
            while rest and rest[0][:1] == "-" and rest[0] != "-":
                tok = rest.pop(0)
                if tok == "--":
                    break
                if tok != "--help":
                    raise UsageError(_no_such_option(tok, ["--help"]))
                sys.stdout.write(self.help_text(prog, None))
                return
            if not rest:  # no command: the help, as a usage error
                sys.stderr.write(self.help_text(prog, None))
                sys.exit(2)
            cmd = self.commands.get(rest[0])
            if cmd is None:
                raise UsageError(_no_such("command", rest[0], list(self.commands)))
            values = _parse(cmd, rest[1:])
            if values is None:
                sys.stdout.write(self.help_text(prog, cmd))
            else:
                cmd.run(**values)
        except UsageError as exc:
            name = f" {cmd.name}" if cmd else ""
            sys.stderr.write(f"{_usage(prog, cmd)}\nTry '{prog}{name} --help' for help.\n\n"
                             f"Error: {exc}\n")
            sys.exit(2)

    def main(self, args: list[str] | None = None, prog_name: str | None = None) -> None:
        try:
            try:
                self._dispatch(sys.argv[1:] if args is None else list(args),
                               prog_name or self.name)
            finally:
                sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        except KeyboardInterrupt:
            sys.stderr.write("\nAborted!\n")
            sys.exit(1)
        except BrokenPipeError:
            # The reader has gone.  Meant for the console-script process: the
            # flush at exit then meets an in-memory sink, not the broken
            # stream, and raises no second error.  File descriptor 1 is left
            # as it is.
            sys.stdout = io.StringIO()
            sys.exit(1)
        except (ValueError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            sys.exit(1)
        sys.exit(0)

    def __call__(self) -> None:
        self.main()
