"""A tour of the command line interface.

Everything in the library is reachable from the `adlv` console script.
Elements are passed as JSON objects with a 1-based reduced word for the
finite part and integer coordinates for the translation part.  Each call
prints one line of JSON (DOT for a graph), and `scan` streams its array
one row per line; rational output is printed as "p/q" strings and
polynomials as coefficient lists, lowest degree first.
"""

from adlv.cli import main

X = '{"w": [1], "mu": [1]}'

for argv in (
    ['datum', 'validate', '--datum', 'sl2'],
    ['lp', '--datum', 'sl2', '--x', X],
    ['newton', '--datum', 'sl2', '--x', X],
    ['classpoly', '--datum', 'sl2', '--x', X],
    ['tree', '--datum', 'sl2', '--x', X, '--format', 'dot'],
    ['qbg', 'weight', '--datum', 'sl3', '--source', '[1,2,1]',
     '--target', '[]'],
    ['pct', 'classify', '--datum', 'gl3', '--x', '{"w": [1], "mu": [0,0,0]}'],
    ['pct', 'report', '--datum', 'sl2', '--x', X],
    ['scan', '--datum', 'sl2', '--max-length', '2', '--mu-bound', '1'],
):
    print('$ adlv ' + ' '.join(argv))
    code = main(argv)
    assert code == 0
    print()
