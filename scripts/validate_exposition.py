#!/usr/bin/env python3
"""Validates a /metrics scrape against the exposition grammar psmgen serves.

Usage:
  validate_exposition.py SCRAPE [--openmetrics] [--require-exemplar]
                         [--require TEXT ...]

Every non-empty line must be a `# HELP`/`# TYPE` comment or a sample
`name{label="value",...} number`. A classic (text format 0.0.4) scrape
must carry no exemplar and no `# EOF`: classic Prometheus parsers reject
both. With --openmetrics, bucket samples may carry an exemplar suffix
` # {event_id="N"} value timestamp` and the last line must be `# EOF`.
--require-exemplar additionally demands at least one exemplar, and each
--require TEXT (repeatable) must appear somewhere in the scrape, e.g. a
metric family name. Exits 0 when the scrape passes, 1 with the first
violation otherwise.
"""

import argparse
import re
import sys

NAME = r'[a-zA-Z_:][a-zA-Z0-9_:]*'
LABEL_VALUE = r'"(?:[^"\\\n]|\\\\|\\"|\\n)*"'
LABELS = rf'(\{{{NAME}={LABEL_VALUE}(?:,{NAME}={LABEL_VALUE})*\}})?'
NUMBER = r'[0-9eE+.i\-afnNI]+'
EXEMPLAR = r' # \{event_id="[0-9]+"\} [0-9eE+.\-]+ [0-9eE+.\-]+'
COMMENT = re.compile(rf'^# ((HELP|TYPE) {NAME}( .*)?|EOF)$')


def sample_pattern(openmetrics):
    suffix = f'({EXEMPLAR})?' if openmetrics else ''
    return re.compile(rf'^{NAME}{LABELS} {NUMBER}{suffix}$')


def validate(text, openmetrics, require_exemplar, required):
    """Returns the first violation as a string, or None."""
    lines = text.splitlines()
    if not lines:
        return 'empty scrape'
    sample = sample_pattern(openmetrics)
    for line in lines:
        if not line:
            continue
        matcher = COMMENT if line.startswith('#') else sample
        if not matcher.match(line):
            return f'invalid exposition line: {line!r}'
    if openmetrics:
        if lines[-1] != '# EOF':
            return 'OpenMetrics scrape must end with # EOF'
        if require_exemplar and not re.search(EXEMPLAR, text):
            return 'OpenMetrics scrape carries no exemplar'
    else:
        if ' # {' in text:
            return '0.0.4 scrape must not contain exemplar syntax'
        if '# EOF' in text:
            return '0.0.4 scrape must not contain the OpenMetrics terminator'
    for needle in required:
        if needle not in text:
            return f'missing {needle!r}'
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('scrape', help='file holding one /metrics body')
    parser.add_argument('--openmetrics', action='store_true',
                        help='the scrape negotiated OpenMetrics')
    parser.add_argument('--require-exemplar', action='store_true',
                        help='with --openmetrics: at least one exemplar')
    parser.add_argument('--require', action='append', default=[],
                        metavar='TEXT', help='text the scrape must contain')
    args = parser.parse_args()
    if args.require_exemplar and not args.openmetrics:
        parser.error('--require-exemplar needs --openmetrics')
    with open(args.scrape, encoding='utf-8') as f:
        text = f.read()
    violation = validate(text, args.openmetrics, args.require_exemplar,
                         args.require)
    if violation is not None:
        print(f'{args.scrape}: {violation}', file=sys.stderr)
        return 1
    kind = 'openmetrics' if args.openmetrics else '0.0.4'
    print(f'{args.scrape}: valid {kind} exposition, '
          f'{len(text.splitlines())} lines')
    return 0


if __name__ == '__main__':
    sys.exit(main())
