"""Compare two outputs of ``tools/report_matrix.py`` number by number.

Usage, from anywhere:

    python tools/compare_reports.py A.txt B.txt

Each report's stdout is read as JSON, or else as the CLI's text layout
(``key: value`` lines nested by two-space indents).  The script exits 1
and names the first difference when the two outputs run different
commands, or a command differs in its exit code, its stderr or any token
of its stdout that is not a number: a key, a string, a boolean, a list
length.  Otherwise it exits 0 and prints the byte-identical commands,
then, for each key path with list indices left out (``steps.left_torsion``),
the largest absolute and relative change of any number under it, over
all commands.  A number in a list is measured relative to the largest
number of that list, so a complex number [re, im] relative to its
modulus (to within a factor sqrt(2)); any other number relative to
itself.
"""

import json
import re
import sys
from collections import defaultdict

HEADER = "$ torsionworks "
BLOCK = re.compile(r"exit: (-?\d+)\n--- stdout\n(.*)--- stderr\n(.*)\n\Z", re.S)


class Mismatch(Exception):
    pass


def blocks(text):
    """``(command, exit code, stdout, stderr)`` of each command of an output."""
    out = []
    for chunk in text.split(HEADER)[1:]:
        command, _, rest = chunk.partition("\n")
        match = BLOCK.match(rest)
        if match is None:
            raise Mismatch(f"cannot read the block of {command!r}")
        out.append((command, int(match[1]), match[2], match[3]))
    return out


def text_layout(stdout):
    """The CLI's text report as ``{key path: value}``; a line that does not
    read as ``key: value`` is kept whole as a string leaf."""
    doc, stack = {}, []
    for n, line in enumerate(stdout.splitlines()):
        content = line.lstrip(" ")
        depth = (len(line) - len(content)) // 2
        stack = stack[:depth]
        if content.endswith(":"):
            stack.append(content[:-1])
            continue
        key, _, value = content.partition(": ")
        try:
            doc[tuple(stack) + (key,)] = json.loads(value)
        except ValueError:  # not a ``key: value`` line
            doc[tuple(stack) + (f"line {n}",)] = content
    return doc


def leaves(node, path=()):
    """``(path, leaf)`` for every leaf under ``node``, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key if isinstance(key, tuple) else (key,)))
    elif isinstance(node, list):
        yield path + (len(node),), "length"
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def parse(stdout):
    try:
        doc = json.loads(stdout) if stdout else {}
    except ValueError:
        doc = text_layout(stdout)
    return list(leaves(doc))


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def key_of(path):
    """The path's keys without list indices or lengths, dotted."""
    return ".".join(str(k) for k in path if not isinstance(k, int) and not k.isdigit())


def compare(a_text, b_text):
    a_blocks, b_blocks = blocks(a_text), blocks(b_text)
    if [blk[0] for blk in a_blocks] != [blk[0] for blk in b_blocks]:
        raise Mismatch("the two outputs run different commands")
    identical = []
    changes = defaultdict(lambda: [0.0, 0.0])
    for (command, a_code, a_out, a_err), (_, b_code, b_out, b_err) in zip(a_blocks, b_blocks):
        if a_code != b_code:
            raise Mismatch(f"{command}: exit code {a_code} != {b_code}")
        if a_err != b_err:
            raise Mismatch(f"{command}: stderr differs")
        if a_out == b_out:
            identical.append(command)
        a_leaves, b_leaves = parse(a_out), parse(b_out)
        if len(a_leaves) != len(b_leaves):
            raise Mismatch(f"{command}: the reports have different shapes")
        # a number's relative change is taken against the largest number of
        # its innermost list in either report, so [re, im] against its modulus
        scales = defaultdict(float)
        for path, value in a_leaves + b_leaves:
            if is_number(value):
                scales[path[:-1]] = max(scales[path[:-1]], abs(value))
        for (a_path, a), (b_path, b) in zip(a_leaves, b_leaves):
            if a_path != b_path:
                raise Mismatch(f"{command}: key {key_of(a_path)!r} != {key_of(b_path)!r}")
            if not (is_number(a) and is_number(b)):
                if a != b or type(a) is not type(b):
                    raise Mismatch(f"{command}: {key_of(a_path)} reads {a!r} != {b!r}")
                continue
            diff = abs(a - b)
            scale = scales[a_path[:-1]] if isinstance(a_path[-1], int) else max(abs(a), abs(b))
            keys = [k for k in a_path if not isinstance(k, int) and not k.isdigit()]
            for depth in range(1, len(keys) + 1):
                worst = changes[".".join(keys[:depth])]
                worst[0] = max(worst[0], diff)
                worst[1] = max(worst[1], diff / scale if scale else 0.0)
    return len(a_blocks), identical, changes


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: compare_reports.py A B\n")
        return 2
    texts = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    try:
        total, identical, changes = compare(*texts)
    except Mismatch as exc:
        sys.stderr.write(f"differ: {exc}\n")
        return 1
    print(f"{len(identical)} of {total} commands byte-identical:")
    for command in identical:
        print(f"  {command}")
    print("largest change of a number under each key (absolute, relative):")
    for key in sorted(changes):
        absolute, relative = changes[key]
        print(f"  {key}: {absolute:.3g} {relative:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
