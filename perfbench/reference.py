"""Reference work for host-speed correction; uses no cylpart code.

Run as a fresh process next to each CLI job and each block of round-trip
operations.  It enumerates the integer partitions of 1..32 with tuples,
generators and a dict, the same kind of pure-Python work as cylpart's, so
its time tracks the speed the host gives that work at that moment.  It
never changes, so it takes the same time on every revision of cylpart.
"""

from __future__ import annotations


def partitions(n: int, largest: int):
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def main():
    heads: dict[tuple[int, ...], int] = {}
    for n in range(1, 33):
        for p in partitions(n, n):
            heads[p[:3]] = heads.get(p[:3], 0) + len(p)
    return len(heads)


if __name__ == "__main__":
    main()
