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


def parse_flat(text: str, error=ValueError) -> dict:
    """``key = value`` lines as a dict of strings; a line without ``=``
    raises ``error`` naming its line number."""
    out = {}
    for lineno, line in flat_lines(text):
        key, eq, val = line.partition("=")
        if not eq:
            raise error(f"line {lineno}: expected 'key = value'")
        out[key.strip()] = val.strip()
    return out
