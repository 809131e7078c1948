"""Which code of ``src/hbcycles`` no digest case reaches.

Runs every case of ``test_output_digests.cases()`` under ``sys.settrace``,
tracing only frames whose code lies in ``src/hbcycles``, and prints, as
``file:line``:

- each function (comprehensions and lambdas included) that no case enters;
- each statement that no case reaches inside a function some case enters.

A statement is a line that the compiler maps an instruction to, other than
a function's ``def`` line.  Module and class bodies run at import and are
not listed.  Standard library only, besides what the cases import:

    PYTHONPATH=src python tests/reach_inventory.py
"""

import inspect
import sys
import tempfile
import types
from pathlib import Path

import test_output_digests

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hbcycles"


def functions(path: Path) -> list[types.CodeType]:
    """Every function code object compiled from ``path``, nested ones too."""
    found, todo = [], [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:
            found.append(code)
    return found


def statements(code: types.CodeType) -> set[int]:
    """The lines of ``code``'s own instructions, without its ``def`` line."""
    return {line for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def trace_cases(cases: dict) -> tuple[set, set]:
    """(file, first line, name) of every function entered and (file, line)
    of every line reached in ``src/hbcycles`` over ``cases``."""
    entered, reached, inside = set(), set(), {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == SRC
        if not inside[name]:
            return None
        entered.add((name, code.co_firstlineno, code.co_name))
        return local

    for argv in cases.values():
        with tempfile.TemporaryDirectory() as directory:
            sys.settrace(on_call)
            try:
                test_output_digests.run_case(argv, Path(directory))
            finally:
                sys.settrace(None)
    resolve = {name: str(Path(name).resolve()) for name in inside}
    return ({(resolve[f], line, name) for f, line, name in entered},
            {(resolve[f], line) for f, line in reached})


def main() -> int:
    cases = test_output_digests.cases()
    entered, reached = trace_cases(cases)
    n_functions = n_entered = n_statements = n_reached = 0
    for path in sorted(SRC.glob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        for code in sorted(functions(path), key=lambda code: code.co_firstlineno):
            lines = statements(code)
            n_functions += 1
            if (str(path), code.co_firstlineno, code.co_name) not in entered:
                print(f"{where}:{code.co_firstlineno}: {code.co_name} never entered")
                continue
            n_entered += 1
            n_statements += len(lines)
            missed = sorted(line for line in lines if (str(path), line) not in reached)
            n_reached += len(lines) - len(missed)
            for line in missed:
                print(f"{where}:{line}: not reached in {code.co_name}")
    print(f"{len(cases)} cases: {n_entered} of {n_functions} functions entered; "
          f"{n_reached} of {n_statements} statements reached in them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
