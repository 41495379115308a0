"""The three workloads: seeded inputs, the timed calls and the output checks.

One job of a workload runs in one fresh interpreter (see worker.py).  Its
inputs come only from (seed, job index); the library receives the generated
inputs.  `measure` is the timed region: it makes every timed library call
through `bench.call(tag, items, fn, *args)` (see worker.py).  `check` runs
afterwards and counts every wrong or failed operation.
"""

from __future__ import annotations

import itertools
import random

from fnclass import classify, diagrams, groups, scan5, separability, spform
from fnclass import bitops
from fnclass.groups import GroupDescriptor
from fnclass.kfun import KFunction

# ---------------------------------------------------------------------------
# the paper's pinned numbers (copied here so the checks do not depend on the
# library's own fixtures)
# ---------------------------------------------------------------------------

RELATIONS = ("imp", "sub", "sep")
# class counts (t_imp, t_sub, t_sep) of P_2^3 and P_2^4
CLASS_COUNTS = {3: (13, 11, 5), 4: (104, 74, 11)}
# orbit counts on (P_2^3, P_2^4) per group
FIGURE4 = {"s": (80, 3984), "lg": (20, 92), "a": (10, 32), "ge": (14, 222),
           "lf": (32, 4096), "rag": (3, 8), "axa1": (6, 18), "g": (22, 402)}
# the sep vectors (sep_1..sep_5) of the 38 sep classes of P_2^5
TABLE5_VECTORS = frozenset({
    (0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (3, 2, 1, 0, 0),
    (3, 3, 1, 0, 0), (4, 5, 2, 1, 0), (4, 4, 3, 1, 0), (4, 5, 3, 1, 0),
    (4, 4, 4, 1, 0), (4, 5, 4, 1, 0), (4, 6, 4, 1, 0), (5, 9, 7, 2, 1),
    (5, 7, 5, 3, 1), (5, 8, 5, 3, 1), (5, 6, 6, 3, 1), (5, 7, 6, 3, 1),
    (5, 8, 6, 3, 1), (5, 7, 7, 3, 1), (5, 8, 7, 3, 1), (5, 9, 7, 3, 1),
    (5, 6, 6, 4, 1), (5, 7, 7, 4, 1), (5, 8, 7, 4, 1), (5, 9, 7, 4, 1),
    (5, 7, 8, 4, 1), (5, 8, 8, 4, 1), (5, 9, 8, 4, 1), (5, 9, 7, 5, 1),
    (5, 8, 8, 5, 1), (5, 9, 8, 5, 1), (5, 10, 8, 5, 1), (5, 7, 9, 5, 1),
    (5, 8, 9, 5, 1), (5, 9, 9, 5, 1), (5, 10, 9, 5, 1), (5, 8, 10, 5, 1),
    (5, 9, 10, 5, 1), (5, 10, 10, 5, 1),
})

# job sizes: one job is the unit of work run in one fresh interpreter
SAMPLE5_BATCHES = 300    # space_scan: P_2^5 sep-profile batches per job
SAMPLE5_BATCH = 20       # functions per sample_sep_profiles call
CANON_PER_JOB = 4        # orbit_scan: P_2^5 canonical forms per job
REQUESTS_PER_JOB = 996   # analyze_stream: requests per job (83 per kind)
ANALYZE_MIX = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3))


def job_rng(seed: int, job: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{job}:{stream}")


# ---------------------------------------------------------------------------
# space_scan: classify all of P_2^4, then sep profiles of a P_2^5 sample
# ---------------------------------------------------------------------------

def space_scan_inputs(seed: int, job: int) -> dict:
    rng = job_rng(seed, job, "sample5")
    return {"sample_seeds": [rng.getrandbits(63) for _ in range(SAMPLE5_BATCHES)]}


def space_scan_measure(inputs: dict, bench) -> dict:
    def sample(seeds):
        return [bench.call("sample5", SAMPLE5_BATCH, scan5.sample_sep_profiles,
                           count=SAMPLE5_BATCH, seed=s) for s in seeds]

    # the sample batches go on both sides of the scan, so the speed probes
    # taken between them bracket it
    seeds = inputs["sample_seeds"]
    profiles = sample(seeds[:len(seeds) // 2])
    reports = bench.call("scan", 1 << 16, classify.scan_space, 2, 4, RELATIONS)
    profiles += sample(seeds[len(seeds) // 2:])
    return {"reports": reports, "profiles": profiles}


def space_scan_check(inputs: dict, out: dict) -> tuple[int, int]:
    attempted = failed = 0
    got4 = tuple(out["reports"][rel].class_count() for rel in RELATIONS)
    reports3 = classify.scan_space(2, 3, RELATIONS)
    got3 = tuple(reports3[rel].class_count() for rel in RELATIONS)
    for got, n in ((got3, 3), (got4, 4)):
        attempted += 1
        failed += got != CLASS_COUNTS[n]
    for prof in out["profiles"]:
        attempted += SAMPLE5_BATCH
        wrong = sum(cnt for vec, cnt in prof.items() if vec not in TABLE5_VECTORS)
        failed += wrong + abs(SAMPLE5_BATCH - sum(prof.values()))
    return attempted, failed


# ---------------------------------------------------------------------------
# orbit_scan: orbit counts of the Figure 4 groups, then P_2^5 canonical forms
# ---------------------------------------------------------------------------

def orbit_scan_inputs(seed: int, job: int) -> dict:
    rng = job_rng(seed, job, "canon")
    words, images = [], []
    for _ in range(CANON_PER_JOB):
        words.append(rng.getrandbits(32))
        perm = list(range(1, 6))
        rng.shuffle(perm)
        shift = [rng.randrange(2) for _ in range(5)]
        images.append((perm, shift, rng.randrange(2)))
    return {"words": words, "images": images}


def orbit_scan_measure(inputs: dict, bench) -> dict:
    counts = {}
    for n in (3, 4):
        for name in FIGURE4:
            # one orbit label per function of the space
            counts[name, n] = bench.call("count_orbits", 2 ** (2 ** n),
                                         groups.count_orbits,
                                         GroupDescriptor(name, 2, n))
    ge5 = GroupDescriptor("ge", 2, 5)
    forms = [bench.call("canonical_form", 1, groups.canonical_form,
                        KFunction.from_word(w, 5), ge5)
             for w in inputs["words"]]
    return {"counts": counts, "forms": forms}


def orbit_scan_check(inputs: dict, out: dict) -> tuple[int, int]:
    attempted = failed = 0
    for (name, n), got in out["counts"].items():
        attempted += 1
        failed += got != FIGURE4[name][n - 3]
    ge5 = GroupDescriptor("ge", 2, 5)
    for w, (perm, shift, d), form in zip(inputs["words"], inputs["images"],
                                         out["forms"]):
        attempted += 1
        t = (groups.output_translate(2, 5, d) @ groups.var_perm(2, 5, perm)
             @ groups.arg_translate(2, 5, shift))
        image = t.apply(KFunction.from_word(w, 5))
        failed += groups.canonical_form(image, ge5) != form
    return attempted, failed


# ---------------------------------------------------------------------------
# analyze_stream: single-function requests, as `fnclass analyze --set` plus
# `fnclass diagram` would serve them
# ---------------------------------------------------------------------------

def _random_sp(rng: random.Random, k: int, n: int) -> tuple[str, bytes]:
    """A random SP expression and its table, evaluated here independently."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        coeff = rng.randrange(1, k)
        factors = []
        for i in rng.sample(range(1, n + 1), rng.randint(1, n)):
            factors.append((i, rng.randrange(k) if rng.random() < 0.7 else None))
        terms.append((coeff, factors))
    text = " + ".join(
        "*".join(([str(c)] if c != 1 else [])
                 + [f"x{i}" if a is None else f"x{i}^{a}" for i, a in fs])
        for c, fs in terms)
    values = bytearray(k ** n)
    for idx, point in enumerate(itertools.product(range(k), repeat=n)):
        point = point[::-1]  # variable 1 is the least significant digit
        total = 0
        for c, fs in terms:
            prod = c
            for i, a in fs:
                x = point[i - 1]
                prod *= x if a is None else int(x == a)
            total += prod
        values[idx] = total % k
    return text, bytes(values)


def analyze_inputs(seed: int, job: int) -> dict:
    rng = job_rng(seed, job, "analyze")
    # every (k, n) and arrival form gets the same share of each job, so the
    # job's mean cost does not depend on how the draws fell
    kinds = [(k, n, as_sp) for k, n in ANALYZE_MIX for as_sp in (True, False)]
    kinds *= REQUESTS_PER_JOB // len(kinds)
    rng.shuffle(kinds)
    requests = []
    for k, n, as_sp in kinds:
        if as_sp:
            expr, values = _random_sp(rng, k, n)
            table = None
        else:
            expr = None
            values = bytes(rng.randrange(k) for _ in range(k ** n))
            if k == 2:
                word = sum(1 << i for i, v in enumerate(values) if v)
                table = format(word, f"0{max(1, (1 << n) // 4)}x")
            else:
                table = ",".join(map(str, values))
        ordering = list(range(1, n + 1))
        rng.shuffle(ordering)
        requests.append({"k": k, "n": n, "expr": expr, "table": table,
                         "values": values, "ordering": tuple(ordering),
                         "pick": (rng.getrandbits(16), rng.getrandbits(16))})
    return {"requests": requests}


def _pick_pair(ess: list[int], pick: tuple[int, int]) -> frozenset[int]:
    i = pick[0] % len(ess)
    j = (i + 1 + pick[1] % (len(ess) - 1)) % len(ess)
    return frozenset((ess[i], ess[j]))


def analyze_request(req: dict) -> dict:
    k, n = req["k"], req["n"]
    if req["expr"] is not None:
        f = spform.parse(req["expr"], k, arity=n)
    elif k == 2:
        f = KFunction.from_hex(req["table"], n)
    else:
        f = KFunction.from_digits(req["table"], k, n)
    profile = classify.compute_profile(f)
    back = spform.parse(spform.to_sp(f), k, arity=n)
    ess = f.essential_set()
    f.strongly_essential_set()
    seps = separability.separable_sets(f)
    out = {"f": f, "profile": profile, "back": back, "seps": seps}
    if len(ess) >= 2:
        m = _pick_pair(sorted(ess), req["pick"])
        dis = separability.distributive_sets(m, f)
        out.update(m=m, dis=dis, separable=separability.is_separable(f, m),
                   systems=separability.s_systems(dis))
    d = diagrams.reduce(diagrams.build_odt(f, req["ordering"]))
    diagrams.depth(d)
    diagrams.path_count(d)
    diagrams.to_dot(d)
    out["diagram"] = d
    return out


def analyze_measure(inputs: dict, bench) -> dict:
    results = []
    for req in inputs["requests"]:
        try:
            results.append(bench.call("request", 1, analyze_request, req))
        except Exception as exc:  # a failed request is counted, not fatal
            results.append(exc)
    return {"results": results}


def _request_ok(req: dict, res) -> bool:
    if isinstance(res, Exception):
        return False
    k, n, values = req["k"], req["n"], req["values"]
    f, d = res["f"], res["diagram"]
    if f != KFunction(k, n, values) or res["back"] != f:
        return False
    for idx, point in enumerate(itertools.product(range(k), repeat=n)):
        if d.eval(point[::-1]) != values[idx]:
            return False
    sep = [0] * n
    for m in res["seps"]:
        sep[len(m) - 1] += 1
    if tuple(sep) != res["profile"].sep:
        return False
    if "m" in res:
        member = res["m"] in res["seps"]
        if res["separable"] != member or bool(res["dis"]) == member:
            return False
    return True


def analyze_check(inputs: dict, out: dict) -> tuple[int, int]:
    reqs = inputs["requests"]
    failed = sum(not _request_ok(req, res)
                 for req, res in zip(reqs, out["results"]))
    return len(reqs), failed


# ---------------------------------------------------------------------------
# registry, count bases and trace targets
# ---------------------------------------------------------------------------

def orbit_union_work(inputs: dict, out: dict) -> dict:
    return {"union_work": sum(
        2 ** (2 ** n) * len(groups.group_generators(GroupDescriptor(name, 2, n)))
        for name, n in out["counts"])}


def analyze_binary_requests(inputs: dict, out: dict) -> dict:
    return {"binary_requests": sum(req["k"] == 2 for req in inputs["requests"])}


# call tag -> the probes.py loop whose speed scales its time
PROBE_KIND = {"scan": "closures", "sample5": "closures",
              "count_orbits": "union_find", "canonical_form": "small_dicts",
              "request": "small_dicts"}

# name -> (inputs, measure, check, headline tag, unit tag, count bases)
WORKLOADS = {
    "space_scan": (space_scan_inputs, space_scan_measure, space_scan_check,
                   "scan", "sample5", None),
    "orbit_scan": (orbit_scan_inputs, orbit_scan_measure, orbit_scan_check,
                   "count_orbits", "canonical_form", orbit_union_work),
    "analyze_stream": (analyze_inputs, analyze_measure, analyze_check,
                       "request", "request", analyze_binary_requests),
}


def _closure_tables(tr, args, result):
    tr.count("bitops.sub_closure.tables", len(result))


def _classes(tr, args, result):
    tr.count("classify.classes", sum(r.class_count() for r in result.values()))


def _odt_nodes(tr, args, result):
    tr.count("diagrams.odt_nodes", result.node_count())


def _odd_nodes(tr, args, result):
    tr.count("diagrams.odd_nodes", result.node_count())


def _parse_chars(tr, args, result):
    tr.count("spform.parse.chars", len(args[0]))


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name, count hook) for every traced call."""
    return [
        (bitops, "sub_closure_word", "bitops.sub_closure", _closure_tables),
        (bitops, "essential_mask", "bitops.essential_mask", None),
        (bitops, "sep_profile_word", "bitops.sep_profile", None),
        (classify, "scan_space", "classify.scan_space", _classes),
        (diagrams, "imp_count", "diagrams.imp_count", None),
        (diagrams, "imp_count_word", "diagrams.imp_count", None),
        (diagrams, "implementations", "diagrams.implementations", None),
        (diagrams, "build_odt", "diagrams.build_odt", _odt_nodes),
        (diagrams, "reduce", "diagrams.reduce", _odd_nodes),
        (diagrams, "to_dot", "diagrams.to_dot", None),
        (separability, "sub_vector", "separability.sub_vector", None),
        (separability, "sep_vector", "separability.sep_vector", None),
        (separability, "separable_sets", "separability.separable_sets", None),
        (separability, "distributive_sets", "separability.distributive_sets", None),
        (separability, "is_separable", "separability.is_separable", None),
        (separability, "s_systems", "separability.s_systems", None),
        (KFunction, "cofactor", "kfun.cofactor", None),
        (KFunction, "essential_set", "kfun.essential_set", None),
        (KFunction, "strongly_essential_set", "kfun.strongly_essential_set", None),
        (spform, "parse", "spform.parse", _parse_chars),
        (spform, "to_sp", "spform.to_sp", None),
        (groups, "orbit_partition", "groups.orbit_partition", None),
        (groups, "canonical_form", "groups.canonical_form", None),
        (groups.Transformation, "apply", "groups.apply", None),
        (scan5, "sample_sep_profiles", "scan5.sample", None),
    ]
