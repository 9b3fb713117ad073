"""Line tokenizer for the assembler.

The grammar is line-oriented: ``[label:] [mnemonic [operands]]`` with
``#`` or ``;`` comments. Operands are registers (``$t0``), integers
(decimal, hex, negative, character literals), symbols, and symbol±offset
expressions; memory operands use the ``imm(reg)`` shape.
"""

from __future__ import annotations

from dataclasses import dataclass
import re
from typing import Optional, Tuple

from repro.errors import AssemblerError

_LABEL_RE = re.compile(r"^\s*([A-Za-z_.$][\w.$]*)\s*:")
_COMMENT_RE = re.compile(r"[#;].*$")
_MEM_RE = re.compile(r"^(?P<disp>[^()]*)\((?P<base>[^()]+)\)$")
_SYM_OFF_RE = re.compile(
    r"^(?P<sym>[A-Za-z_.][\w.]*)\s*(?P<sign>[+-])\s*(?P<off>\w+)$")
_INT_RE = re.compile(r"^[+-]?(0[xX][0-9a-fA-F]+|\d+)$")


@dataclass
class SourceLine:
    """One logical source line after comment/label stripping."""

    number: int               # 1-based line number in the original source
    label: Optional[str]      # label defined on this line, if any
    mnemonic: Optional[str]   # directive (with leading '.') or opcode
    operands: list            # raw operand strings, comma-split


def split_operands(text: str, line: int) -> list:
    """Split an operand string on top-level commas.

    Parentheses (memory operands) never nest, so a flat scan suffices;
    quoting is supported for character literals like ``','``.
    """
    parts = []
    depth = 0
    current = []
    in_quote = False
    for char in text:
        if in_quote:
            current.append(char)
            if char == "'":
                in_quote = False
            continue
        if char == "'":
            in_quote = True
            current.append(char)
        elif char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise AssemblerError("unbalanced ')'", line)
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise AssemblerError("unbalanced '('", line)
    if in_quote:
        raise AssemblerError("unterminated character literal", line)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    if any(not part for part in parts):
        raise AssemblerError("empty operand", line)
    return parts


def tokenize(source: str) -> list:
    """Tokenize assembly *source* into :class:`SourceLine` records.

    Lines that are blank after comment removal produce records only when
    they carry a label (a label may stand alone on its own line).
    """
    lines = []
    for number, raw in enumerate(source.splitlines(), start=1):
        text = _COMMENT_RE.sub("", raw).strip()
        label = None
        match = _LABEL_RE.match(text)
        if match:
            label = match.group(1)
            text = text[match.end():].strip()
        if not text and label is None:
            continue
        mnemonic = None
        operands: list = []
        if text:
            head, _, rest = text.partition(" ")
            mnemonic = head.strip().lower()
            if rest.strip():
                operands = split_operands(rest.strip(), number)
        lines.append(SourceLine(number, label, mnemonic, operands))
    return lines


def parse_int(text: str, line: int) -> int:
    """Parse an integer literal (decimal, hex, or character)."""
    text = text.strip()
    if len(text) == 3 and text[0] == "'" and text[2] == "'":
        return ord(text[1])
    if _INT_RE.match(text):
        try:
            return int(text, 0)
        except ValueError:
            pass    # e.g. "0123": a leading zero is not a base prefix
    raise AssemblerError(f"invalid integer literal {text!r}", line)


def parse_mem_operand(text: str, line: int) -> Tuple[str, str]:
    """Parse an ``disp(base)`` memory operand into (disp_text, base_text).

    The displacement may be empty (meaning zero), an integer, or a
    symbol expression; resolution happens in the assembler's second pass.
    """
    match = _MEM_RE.match(text.strip())
    if not match:
        raise AssemblerError(f"invalid memory operand {text!r}", line)
    disp = match.group("disp").strip() or "0"
    return disp, match.group("base").strip()


def parse_symbol_expr(text: str) -> Optional[Tuple[str, int, str]]:
    """Split ``sym``, ``sym+off`` or ``sym-off`` into (symbol, offset_text).

    Returns ``None`` if *text* is not symbol-shaped (e.g. pure integer).
    """
    text = text.strip()
    match = _SYM_OFF_RE.match(text)
    if match:
        sign = -1 if match.group("sign") == "-" else 1
        return match.group("sym"), sign, match.group("off")
    if re.match(r"^[A-Za-z_.][\w.]*$", text):
        return text, 1, "0"
    return None


__all__ = [
    "SourceLine",
    "tokenize",
    "split_operands",
    "parse_int",
    "parse_mem_operand",
    "parse_symbol_expr",
]
