"""The command line's text output: ``--format text`` tables and ``-h`` help.

Only a request that writes one of them runs this module; ``cli`` reaches it
through the package's lazily registered module, so a JSON request does not
compile it. Nothing here imports ``cli``: under ``python -m weylkit.cli``
that module runs as ``__main__``, and importing it by name would compile it
a second time. An option whose default is ``...`` must be given.
"""

import json

# what an option's help line says besides its choices and default
HINTS = {
    "input": 'path to {"matrix": [[...]]} JSON, or - for stdin',
    "--transpose": "transpose the input (for the opposite pairing convention)",
    "--cap": "count |W| a second way only up to this order (default weyl.DEFAULT_CAP)",
    "--type": "catalog type label, e.g. G2 or A1+A1",
    "--weight": "coroot coordinates, e.g. -2,1",
    "--word": "1-based letters, e.g. 1,2,1",
    "--p": "a prime",
    "--file": "path to a p-morphism's JSON, or - for stdin",
}


def render(doc: dict, indent: str = "") -> str:
    """The document as ``key: value`` lines, a tuple written as an array and
    a list of dicts as a table, one row per dict."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value and all(isinstance(x, dict) for x in value):
            lines.append(f"{indent}{key}:")
            cols = sorted({k for item in value for k in item})
            rows = [[_cell(item.get(c)) for c in cols] for item in value]
            # the last column is not padded, so no line ends in a space
            widths = [max(len(c), *(len(r[i]) for r in rows))
                      for i, c in enumerate(cols[:-1])] + [0]
            lines.append(indent + "  " + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                lines.append(indent + "  " + "  ".join(x.ljust(w) for x, w in zip(r, widths)))
        elif isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render(value, indent + "  ").rstrip("\n"))
        else:
            lines.append(f"{indent}{key}: {_cell(value)}")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def help_text(prog: str, entry) -> str:
    """The help text of a ``cli._COMMANDS`` entry: its words, or its leaf's
    options."""
    if isinstance(entry, dict):
        rows = [(word, line) for word, (line, _) in entry.items()]
    else:
        rows = []
        for name, (kind, default) in entry[3].items():
            notes = [HINTS.get(name, "")]
            if isinstance(kind, tuple):
                notes.append("{%s}" % ",".join(kind))
            if default is ...:
                notes.append("(required)")
            elif kind is not bool and default is not None:
                notes.append(f"(default {default})")
            rows.append((name, " ".join(notes).strip()))
    rows.append(("-h, --help", "show this help"))
    return f"usage: {prog} ...\n\n" + "".join(f"  {left:14}{right}\n" for left, right in rows)
