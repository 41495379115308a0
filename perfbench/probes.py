"""Fixed reference loops that time how fast the machine runs each kind of work.

Each kind of timed call is normalized by the loop most like its own code,
because other load on a shared host slows different code by different
amounts.  The loops are the benchmark's own frozen code: no change to the
library moves them.
"""

from __future__ import annotations

import time

clock = time.perf_counter


def _small_dicts(rounds: int) -> None:
    seen: dict[int, int] = {}
    x = 12345
    for _ in range(rounds):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = hash(bytes((x >> 24, x & 7))) & 1023
        seen[key] = seen.get(key, 0) + 1


_MASKS4 = tuple((1 << i, sum(1 << x for x in range(16) if not x >> i & 1))
                for i in range(4))
_WORDS4 = (0x6996, 0x1EE1, 0x8117, 0xCAFE, 0x7E81, 0x35AC, 0x0F0F, 0xB00B)
_MEMO: dict[int, int] = {}


def _closures(rounds: int) -> None:
    # the subfunction closure of binary 4-ary tables, as the scans compute
    # it, plus updates of a large memo
    if not _MEMO:
        _MEMO.update((w, w & 31) for w in range(1 << 16))
    x = 7
    for r in range(rounds):
        seen: dict[int, int] = {}
        stack = [_WORDS4[r % len(_WORDS4)]]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            ess = 0
            for s, lo in _MASKS4:
                if (cur ^ (cur >> s)) & lo:
                    ess |= s
                    for h in (cur & lo, (cur >> s) & lo):
                        sub = h | (h << s)
                        if sub not in seen:
                            stack.append(sub)
            seen[cur] = ess
        for _ in range(40):
            x = (x * 1103515245 + 12345) & 0xFFFF
            _MEMO[x] += 1


_PERM = [(i * 2654435761) % 4099 % 4096 for i in range(4096)]


def _union_find(rounds: int) -> None:
    # union-find over a fixed pairing, as the orbit partition runs it
    for _ in range(rounds):
        parent = list(range(4096))
        size = [1] * 4096

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(4096):
            ra, rb = find(a), find(_PERM[a])
            if ra != rb:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]


# kind -> (loop, warm-up rounds, timed rounds, reference seconds); the
# reference is about what the timed rounds take on a quiet 2.0 GHz Xeon vCPU
LOOPS = {
    "closures": (_closures, 2, 12, 0.001),
    "union_find": (_union_find, 1, 1, 0.002),
    "small_dicts": (_small_dicts, 200, 1500, 0.001),
}


def time_loop(kind: str) -> float:
    """Seconds of the timed rounds of one loop, after its warm-up rounds.

    The warm-up refills the caches the timed library calls used.
    """
    loop, warm, rounds, _ = LOOPS[kind]
    loop(warm)
    start = clock()
    loop(rounds)
    return clock() - start


def reference(kind: str) -> float:
    return LOOPS[kind][3]
