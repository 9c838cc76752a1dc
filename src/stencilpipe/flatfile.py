"""Flat text files: one entry per line, ``#`` starts a comment, blank lines
are skipped.  Run configs and machine/network models are ``key = value``
lines; rankfiles are ``rank host port`` lines."""


def flat_lines(text: str):
    """(line number, content) of every line that is not blank once its
    comment is stripped."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_flat(text: str, error=ValueError, convert=None) -> dict:
    """``key = value`` lines as a dict of ``convert(key, value)`` (the value
    string without ``convert``).  A line without ``=``, or a value that
    ``convert`` refuses with ValueError, raises ``error`` naming its line
    number, and the key for a refused value."""
    out = {}
    for lineno, line in flat_lines(text):
        key, eq, val = (part.strip() for part in line.partition("="))
        if not eq:
            raise error(f"line {lineno}: expected 'key = value'")
        try:
            out[key] = convert(key, val) if convert else val
        except ValueError as exc:
            raise error(f"line {lineno}: {key}: {exc}") from None
    return out
