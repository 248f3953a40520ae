"""Ground truth the checks compare against, written down from the paper.

Nothing here is computed by the program under test. Table 1 and the §5.2
false-positive breakdown are the paper's numbers; the bug-set composition
is the public set's (33 of 49 detectable) as the corpus lays it out.
"""

from __future__ import annotations

#: Table 1, one row per application, in the paper's order. Each row holds
#: (real, false-positive) pairs for BMOC-C, BMOC-M, forget-unlock,
#: double-lock, conflicting-lock, struct-field race and fatal-goroutine,
#: then the GFix fixes per strategy (I buffer, II defer, III stop).
COLUMNS = (
    "bmoc-chan",
    "bmoc-mutex",
    "forget-unlock",
    "double-lock",
    "conflict-lock",
    "struct-race",
    "fatal-goroutine",
)
_Z = (0, 0)
TABLE1 = {
    "Go": ((21, 2), (1, 1), (8, 3), (0, 2), (1, 0), (2, 5), (3, 0), (12, 0, 2)),
    "Kubernetes": ((14, 5), (1, 0), (1, 0), (1, 0), _Z, (5, 6), (10, 0), (8, 0, 0)),
    "Docker": ((49, 8), _Z, (1, 1), (2, 3), (1, 0), (3, 1), _Z, (40, 1, 6)),
    "HUGO": (_Z, _Z, (2, 0), (0, 1), _Z, (2, 1), _Z, (0, 0, 0)),
    "Gin": (_Z, _Z, _Z, _Z, _Z, _Z, _Z, (0, 0, 0)),
    "frp": (_Z, _Z, (1, 0), _Z, _Z, _Z, _Z, (0, 0, 0)),
    "Gogs": (_Z, _Z, _Z, _Z, _Z, _Z, _Z, (0, 0, 0)),
    "Syncthing": ((0, 1), _Z, (3, 1), _Z, _Z, (1, 2), _Z, (0, 0, 0)),
    "etcd": ((39, 8), _Z, (6, 1), (1, 2), (0, 1), (7, 2), (4, 0), (24, 1, 9)),
    "v2ray-core": (_Z, (0, 1), _Z, (2, 1), (2, 1), (3, 0), _Z, (0, 0, 0)),
    "Prometheus": ((2, 1), _Z, (1, 1), (1, 1), (0, 2), (0, 2), _Z, (2, 0, 0)),
    "fzf": (_Z, _Z, (0, 1), _Z, _Z, _Z, _Z, (0, 0, 0)),
    "traefik": (_Z, _Z, _Z, _Z, _Z, _Z, _Z, (0, 0, 0)),
    "Caddy": (_Z, _Z, _Z, _Z, _Z, _Z, _Z, (0, 0, 0)),
    "Go-Ethereum": ((9, 19), (0, 3), (4, 1), (9, 1), _Z, (6, 7), (3, 0), (6, 0, 2)),
    "Beego": (_Z, _Z, _Z, _Z, _Z, (3, 0), _Z, (0, 0, 0)),
    "mkcert": (_Z, _Z, _Z, _Z, _Z, _Z, _Z, (0, 0, 0)),
    "TiDB": ((1, 0), _Z, (0, 6), (3, 0), (2, 0), (0, 2), _Z, (1, 0, 0)),
    "CockroachDB": ((4, 2), _Z, (5, 0), (0, 4), (2, 1), (0, 3), _Z, (1, 2, 0)),
    "gRPC": ((6, 0), _Z, _Z, (0, 1), (1, 0), (1, 0), (2, 0), (4, 0, 1)),
    "bbolt": ((2, 0), _Z, _Z, _Z, _Z, _Z, (4, 0), (1, 0, 1)),
}

#: §5.2: the 51 BMOC false positives by cause
FP_CAUSES = {"infeasible-path": 20, "alias-analysis": 17, "call-graph": 14}

#: GFix totals over Table 1 (strategies I / II / III)
FIX_TOTALS = (99, 4, 21)

#: the 49-case coverage set: Set00..Set32 are detectable, Miss00..Miss15
#: are not; GFix patches the 28 cases Set00..Set27, of which Set23..Set27
#: are the Strategy-III loop shape whose validation exceeds the explorer's
#: 512-run bound and falls back to seeded sampling
BUGSET_CASES = 49
BUGSET_DETECTABLE = 33
BUGSET_PATCHED = 28
LOOP_CASES = ("Set23", "Set24", "Set25", "Set26", "Set27")


def bugset_expectation(case_id: str):
    """(detectable, patched) for one case of the coverage set."""
    if case_id.startswith("Set"):
        number = int(case_id[3:])
        return True, number < BUGSET_PATCHED
    return False, False


assert sum(row[0][0] for row in TABLE1.values()) == 147
assert sum(row[0][1] + row[1][1] for row in TABLE1.values()) == sum(FP_CAUSES.values())
assert tuple(sum(row[7][i] for row in TABLE1.values()) for i in range(3)) == FIX_TOTALS
