#!/usr/bin/env python3
"""The workspace's public surface: every `pub fn` and `pub` field in
crates/*/src, and whether another crate's code names it.

    scripts/surface.py [--list] [--narrow]

Prints, per crate, how many `pub fn`s and `pub` fields there are and how
many of them no other crate's non-test code names. The consumers are the
other crates' sources (their `#[cfg(test)]` modules stripped), each
`src/bin/*.rs` (a crate of its own), `examples/`, the facade's `src/` and
`bench/src`. An unnamed item is a candidate for `pub(crate)`; it is kept
`pub` when a test outside its crate reads it (`own-test`: the crate's own
`tests/`; `cross-test`: another crate's tests, unit or integration, or
`tests/`, `bench/tests`) or when its doc line names an open item or a
paper section as its consumer.

`--list` prints each unnamed item with its class and the tests that name
it. `--narrow` rewrites every unnamed item to `pub(crate)` in place (run
it on a scratch copy), so that

    cargo check --workspace --lib --bins --examples

reports as dead code each item only tests or nothing use. The match is by
name, so a common name can hide an item, and struct-update syntax
(`..Default::default()`) uses fields the scan cannot see: the compiler
has the last word.
"""
import collections
import os
import re
import sys

repo = os.path.join(os.path.dirname(os.path.abspath(__file__)), '..')
TEST_MOD = re.compile(r'#\[cfg\(test\)\]\s*(pub(\(crate\))?\s+)?mod\s+\w+\s*\{')
FN = re.compile(r'^\s*pub\s+(?:const\s+)?fn\s+(\w+)', re.M)
FIELD = re.compile(r'^\s*pub\s+(\w+)\s*:\s*[^:]', re.M)
KEYWORDS = {'fn', 'const', 'struct', 'enum', 'mod', 'use', 'type', 'trait', 'static', 'crate'}


def split_tests(text):
    """(code, tests): `text` with its test modules blanked, line for line,
    and the test modules alone."""
    code, tests, i = [], [], 0
    while m := TEST_MOD.search(text, i):
        code.append(text[i:m.start()])
        depth, j = 1, m.end()
        while depth and j < len(text):
            depth += {'{': 1, '}': -1}.get(text[j], 0)
            j += 1
        tests.append(text[m.start():j])
        code.append('\n' * text[m.start():j].count('\n'))
        i = j
    code.append(text[i:])
    return ''.join(code), ''.join(tests)


def sources(d):
    for root, _, files in os.walk(os.path.join(repo, d)):
        if 'target' not in root.split(os.sep):
            yield from (os.path.join(root, f) for f in sorted(files) if f.endswith('.rs'))


code, tests = [], []  # (owner, path, text)
crates = sorted(os.listdir(os.path.join(repo, 'crates')))
for c in crates:
    for p in sources(f'crates/{c}/src'):
        body, unit = split_tests(open(p).read())
        code.append((c + '/bin' if '/src/bin/' in p else c, p, body))
        tests.append((c + '/unit', p, unit))
    tests += [(c, p, open(p).read()) for p in sources(f'crates/{c}/tests')]
for d in ('examples', 'src', 'bench/src'):
    code += [(d, p, open(p).read()) for p in sources(d)]
for d in ('tests', 'bench/tests'):
    tests += [(d, p, open(p).read()) for p in sources(d)]

counts = collections.defaultdict(collections.Counter)
unnamed = []
for owner, path, text in code:
    if owner not in crates:
        continue
    for kind, rx in (('fn', FN), ('field', FIELD)):
        for m in rx.finditer(text):
            name = m.group(1)
            if name in KEYWORDS:
                continue
            counts[owner][kind] += 1
            word = re.compile(r'\b' + name + r'\b')
            if any(o != owner and word.search(t) for o, _, t in code):
                continue
            counts[owner][kind + ' unnamed'] += 1
            own = [p for o, p, t in tests if o == owner and word.search(t)]
            cross = [p for o, p, t in tests if o not in (owner, owner + '/unit') and word.search(t)]
            cls = 'cross-test' if cross else 'own-test' if own else 'none'
            line = text.count('\n', 0, m.start()) + 1
            unnamed.append((path, line, owner, kind, name, cls, cross + own))

for c in crates + ['total']:
    n = counts[c] if c != 'total' else sum(counts.values(), collections.Counter())
    print(f"{c:10}  pub fn {n['fn']:4}, unnamed {n['fn unnamed']:3}"
          f"   pub field {n['field']:4}, unnamed {n['field unnamed']:3}")
if '--list' in sys.argv:
    for path, line, owner, kind, name, cls, by in unnamed:
        by = ' '.join(os.path.relpath(p, repo) for p in by[:3])
        print(f'{os.path.relpath(path, repo)}:{line} {kind} {name} {cls} {by}')
if '--narrow' in sys.argv:
    for path in {u[0] for u in unnamed}:
        lines = open(path).read().split('\n')
        for p, line, *_ in unnamed:
            if p == path:
                lines[line - 1] = lines[line - 1].replace('pub ', 'pub(crate) ', 1)
        open(path, 'w').write('\n'.join(lines))
    print(f'narrowed {len(unnamed)} items')
