"""The three workloads: their seeded inputs, how each op runs, how it is checked.

An op is one ``pimsner`` subcommand invocation (through ``pimsner.cli.main``)
or one batch of ring products through the library API.  ``build_ops`` makes
the op list of one pass from the seed; the same seed gives the same ops.
Each op has an ``execute`` step, which is timed, and a ``check`` step, which
is not.  Checks read results by meaning, not by report layout: K-groups are
compared by isomorphism type, group words by the partition into equal
classes, and ``verify`` by its exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

from pimsner import cli, leavitt, ringcore, selfsim

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "data", "pool.json")

# Per-op deadlines in seconds, by op kind.  A pv op on a matrix of size 30
# or less takes milliseconds unless its torsion defeats trial division.
DEADLINES = {"verify": 60.0, "kgroups": 30.0, "pv": 1.0, "selfsim": 60.0,
             "leavitt": 60.0, "groupring": 60.0}

# verify: quivers drawn from the acceptance family (1-4 vertices, 1-6
# edges, endpoints uniform), keeping those no larger than rose2 in Toeplitz
# words and in Fock dimension (see ``quiver_size``), so that a pass lasts
# seconds rather than minutes.  Each pass checks VERIFY_QUIVERS of them,
# then rose3.
VERIFY_FOCK_DEPTH = 6
VERIFY_WORD_BOUND = 3
VERIFY_QUIVERS = 120
VERIFY_BLOCK = 125
ROSE3 = "vertices: v\nedges:\n  e0: v -> v\n  e1: v -> v\n  e2: v -> v\n"

# kgroups: quivers per vertex class with their coefficient rings, and pv
# matrices per size class, drawn from the pinned pool.
KGROUPS_QUIVERS = {"q20-40": ["z", "fp:2", "fp:3", "fp:5"] * 4,
                   "q64": ["z", "fp:3"] * 8,
                   "q110": ["z", "fp:3", "fp:5"],
                   "q150": ["fp:5"],
                   "q200": ["z"]}
KGROUPS_PV = {"pv5-10": 27, "pv11-16": 27, "pv17-23": 27, "pv24-30": 27,
              "pv-large": 2}

# algebra: Leavitt associativity batches, group-ring batches per group,
# and the selfsim pipeline at equality depths 12-16.
LEAVITT_OPS = 47
LEAVITT_QUIVERS = 4
LEAVITT_TRIPLES = 15
LEAVITT_BLOCK = 5
GROUPRING_OPS = {"grigorchuk": 15, "basilica": 15, "odometer": 38}
GROUPRING_WORDS = 120
GROUPRING_TRIPLES = 2
SELFSIM_RUNS = [("odometer", 12), ("odometer", 14), ("odometer", 16),
                ("basilica", 12), ("basilica", 13), ("basilica", 14),
                ("grigorchuk", 12), ("grigorchuk", 13)]

WORKLOADS = ("verify", "kgroups", "algebra")


def load_pool(path=POOL_PATH):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Op:
    """One timed operation: ``execute()`` returns raw output for ``check``."""

    __slots__ = ("kind", "label", "execute", "check")

    def __init__(self, kind, label, execute, check):
        self.kind = kind
        self.label = label
        self.execute = execute
        self.check = check

    @property
    def deadline(self):
        return DEADLINES[self.kind]


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Abelian groups by isomorphism type
# ---------------------------------------------------------------------------

def invariant_factors(orders):
    """The chain d_1 | d_2 | ... of a sum of cyclic groups, 1s dropped."""
    chain = sorted(d for d in orders if d >= 2)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = math.gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return [d for d in chain if d >= 2]


def parse_group_text(text):
    """Read notation such as ``Z^2 x Z/2 x Z/12`` or ``0``."""
    rank, orders = 0, []
    for part in text.replace(" ", "").split("x"):
        if part in ("", "0"):
            continue
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif part.startswith("Z/"):
            orders.append(int(part[2:]))
        else:
            raise ValueError(f"unreadable group {text!r}")
    return rank, orders


def isomorphism_type(node):
    """(free rank, invariant factors) of a group as a report states it."""
    if isinstance(node, str):
        rank, orders = parse_group_text(node)
    elif isinstance(node, dict) and "free_rank" in node and "torsion" in node:
        rank, orders = node["free_rank"], node["torsion"]
    elif isinstance(node, dict) and "repr" in node:
        rank, orders = parse_group_text(node["repr"])
    else:
        raise ValueError(f"no group in {node!r}")
    return int(rank), invariant_factors(int(d) for d in orders)


def _find_degrees(tree):
    """The first mapping under a key naming degrees, keyed by "0" and "1"."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            for key, value in node.items():
                if "degree" in str(key) and isinstance(value, dict) \
                        and "0" in value and "1" in value:
                    return value
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    raise ValueError("report names no degrees")


def reported_k_groups(report):
    """{"0": type, "1": type} from the assembled group of each degree."""
    degrees = _find_degrees(report)
    out = {}
    for n in ("0", "1"):
        entry = degrees[n]
        node = next(v for k, v in entry.items() if "assembled" in str(k))
        out[n] = isomorphism_type(node)
    return out


def check_k_groups(raw, expected):
    code, text = raw
    if code != 0:
        return False, ("exit", code)
    got = reported_k_groups(json.loads(text))
    want = {n: (rank, invariant_factors(orders))
            for n, (rank, orders) in expected.items()}
    return got == want, tuple(sorted(got.items()))


def same_partition(a, b):
    """Whether two label lists split their positions into the same classes."""
    if len(a) != len(b):
        return False
    forward, backward = {}, {}
    for x, y in zip(a, b):
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return False
    return True


def spread_sample(rng, items, k, key=None):
    """k of ``items``: sort them by ``key`` (a cost proxy), cut the order
    into k equal runs and take one at random from each.  Every item is about
    as likely to be chosen as in a plain draw, but the picks cover the cost
    range evenly, so that seeds differ in which items a pass holds, not in
    how costly it is.  The picks come back in key order."""
    ordered = sorted(items, key=key)
    n = len(ordered)
    return [ordered[rng.randrange(i * n // k, (i + 1) * n // k)]
            for i in range(k)]


def spread_draw(rng, draw, k, block, key):
    """k results of ``draw(random.Random(s))``, spread by ``key`` over
    k * block candidates as in ``spread_sample``.  Each candidate has its
    own seed s and only its key is kept, then the picks are drawn again, so
    that the candidates do not add to the peak memory."""
    base = rng.randrange(2 ** 32)
    keyed = [(key(draw(random.Random(base + i))), i)
             for i in range(k * block)]
    return [draw(random.Random(base + i))
            for _key, i in spread_sample(rng, keyed, k)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _paths_ending(vertices, edges, max_len):
    """counts[l][v]: number of paths of length l ending at v."""
    counts = [{v: 1 for v in vertices}]
    for _ in range(max_len):
        prev = counts[-1]
        cur = {v: 0 for v in vertices}
        for _name, s, r in edges:
            cur[r] += prev[s]
        counts.append(cur)
    return counts


def quiver_size(vertices, edges):
    """(Toeplitz words p q* with 1 <= |p|+|q| <= bound, Fock dimension)."""
    counts = _paths_ending(vertices, edges, VERIFY_FOCK_DEPTH)
    words = 0
    for v in vertices:
        for a in range(VERIFY_WORD_BOUND + 1):
            for b in range(VERIFY_WORD_BOUND + 1 - a):
                if a + b:
                    words += counts[a][v] * counts[b][v]
    fock_dim = sum(sum(c.values()) for c in counts)
    return words, fock_dim


def quiver_text(vertices, edges):
    lines = ["vertices: " + " ".join(vertices), "edges:"]
    lines += [f"  {name}: {s} -> {r}" for name, s, r in edges]
    return "\n".join(lines) + "\n"


ROSE2_SIZE = quiver_size(["v"], [("e0", "v", "v"), ("e1", "v", "v")])


def family_quiver(rng):
    """One quiver of the family no larger than rose2."""
    while True:
        vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
        edges = [(f"x{j}", rng.choice(vertices), rng.choice(vertices))
                 for j in range(rng.randint(1, 6))]
        words, fock_dim = quiver_size(vertices, edges)
        if words <= ROSE2_SIZE[0] and fock_dim <= ROSE2_SIZE[1]:
            return words, fock_dim, vertices, edges


def _verify_quivers(rng):
    """VERIFY_QUIVERS family quivers spread by (words, Fock dimension,
    edges), then rose3."""
    quivers = spread_draw(rng, family_quiver, VERIFY_QUIVERS, VERIFY_BLOCK,
                          key=lambda q: (q[0], q[1], len(q[3])))
    chosen = [(f"w{words}-f{fock_dim}", quiver_text(vertices, edges))
              for words, fock_dim, vertices, edges in quivers]
    chosen.append(("rose3", ROSE3))
    return chosen


def _verify_ops(rng, workdir, _pool):
    ops = []
    for i, (cls, text) in enumerate(_verify_quivers(rng)):
        path = os.path.join(workdir, f"verify{i}.quiver")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        argv = ["verify", path, "--fock-depth", str(VERIFY_FOCK_DEPTH),
                "--word-bound", str(VERIFY_WORD_BOUND),
                "--seed", str(rng.randrange(10 ** 6))]
        ops.append(Op("verify", cls, lambda argv=argv: call_cli(argv),
                      _check_verify))
    return ops


def _check_verify(raw):
    """No failed identity: exit 0, or 3 when some checks were out of budget."""
    code, _text = raw
    return code in (0, 3), ("exit", code)


# ---------------------------------------------------------------------------
# kgroups
# ---------------------------------------------------------------------------

def _kgroups_ops(rng, workdir, pool):
    ops = []
    by_class = {}
    for entry in pool["quivers"]:
        by_class.setdefault(entry["class"], []).append(entry)
    for cls, coeffs in KGROUPS_QUIVERS.items():
        picks = spread_sample(rng, by_class[cls], len(coeffs),
                              key=lambda e: e["vertices"])
        for j, (entry, coeff) in enumerate(zip(picks, coeffs)):
            n = entry["vertices"]
            flat = entry["edges"]
            edges = [(f"e{k}", f"v{s}", f"v{r}")
                     for k, (s, r) in enumerate(zip(flat[0::2], flat[1::2]))]
            path = os.path.join(workdir, f"{cls}-{j}.quiver")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(quiver_text([f"v{i}" for i in range(n)], edges))
            argv = ["kgroups", path, "--coeff", coeff]
            expected = entry["expected"][coeff]
            ops.append(Op("kgroups", cls, lambda argv=argv: call_cli(argv),
                          lambda raw, e=expected: check_k_groups(raw, e)))
    by_class = {}
    for entry in pool["pv"]:
        by_class.setdefault(entry["class"], []).append(entry)
    for cls, count in KGROUPS_PV.items():
        for entry in spread_sample(rng, by_class[cls], count,
                                   key=lambda e: e["size"]):
            argv = ["pv", "--matrix", entry["matrix"]]
            ops.append(Op("pv", cls, lambda argv=argv: call_cli(argv),
                          lambda raw, e=entry["expected"]:
                          check_k_groups(raw, e)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def _paths_from(edges, v, length):
    paths = [((), v)]
    for _ in range(length):
        paths = [(p + (name,), r) for p, end in paths
                 for name, s, r in edges if s == end]
    return paths


def _leavitt_spec(rng):
    """A quiver like acceptance criterion 9 and random p q* element terms."""
    nv = rng.randint(1, 4)
    ne = rng.randint(1, 6)
    vertices = [f"v{i}" for i in range(nv)]
    edges = [(f"x{j}", rng.choice(vertices), rng.choice(vertices))
             for j in range(ne)]

    def element():
        terms = []
        for _ in range(3):
            v = rng.choice(vertices)
            paths = _paths_from(edges, v, rng.randint(0, 2))
            if not paths:
                continue
            p, end = rng.choice(paths)
            ghosts = [g for w in vertices
                      for g, g_end in _paths_from(edges, w, rng.randint(0, 2))
                      if g_end == end]
            if not ghosts:
                continue
            terms.append((p, rng.choice(ghosts), end, rng.randint(-2, 2)))
        return terms

    triples = [(element(), element(), element())
               for _ in range(LEAVITT_TRIPLES)]
    return vertices, edges, triples


def _term_products(spec):
    """Term products one spec's triples make: the cost proxy of a spec."""
    return sum(len(a) * len(b) * len(c) for a, b, c in spec[2])


def _leavitt_execute(vertices, edges, triples):
    ring = leavitt.LeavittRing(leavitt.Quiver(vertices, edges))

    def build(terms):
        out = ring.zero()
        for p, q, end, coeff in terms:
            mono = ring.monomial_pq(p, q) if (p or q) else ring.vertex(end)
            out = out + mono.scale(coeff)
        return out

    results = []
    for spec in triples:
        a, b, c = (build(t) for t in spec)
        results.append((a * b) * c == a * (b * c))
    return results


def _check_all_true(raw):
    return all(raw), tuple(raw)


def _parse_word(text):
    return tuple((ch.lower(), 1 if ch.islower() else -1) for ch in text)


def _groupring_execute(group_text, words, triples):
    group = selfsim.parse_selfsim(group_text)
    reps = [group.canonical(w) for w in words]
    ring = group.group_ring()
    results = []
    for spec in triples:
        a, b, c = (ringcore.RingElement(
            ring, {group.canonical(words[i]): coeff for i, coeff in terms})
            for terms in spec)
        results.append((a * b) * c == a * (b * c))
    return reps, results


def _check_groupring(raw, classes):
    reps, results = raw
    ok = same_partition(reps, classes) and all(results)
    index = {}
    partition = tuple(index.setdefault(r, len(index)) for r in reps)
    return ok, (partition, tuple(results))


def _algebra_ops(rng, workdir, pool):
    ops = []
    # Specs spread by term products, then dealt so that each batch holds
    # one from each LEAVITT_QUIVERS-quantile of that cost proxy.
    specs = spread_draw(rng, _leavitt_spec, LEAVITT_OPS * LEAVITT_QUIVERS,
                        LEAVITT_BLOCK, key=_term_products)
    for j in range(LEAVITT_OPS):
        batch = specs[j::LEAVITT_OPS]
        ops.append(Op("leavitt", "leavitt",
                      lambda batch=batch: [ok for spec in batch
                                           for ok in _leavitt_execute(*spec)],
                      _check_all_true))
    for name, count in GROUPRING_OPS.items():
        data = pool["groups"][name]
        for _ in range(count):
            picks = rng.sample(range(len(data["words"])), GROUPRING_WORDS)
            words = [_parse_word(data["words"][i]) for i in picks]
            classes = [data["classes"][i] for i in picks]
            triples = [tuple([(rng.randrange(GROUPRING_WORDS),
                               rng.choice((-2, -1, 1, 2))) for _ in range(2)]
                             for _ in range(3))
                       for _ in range(GROUPRING_TRIPLES)]
            ops.append(Op(
                "groupring", name,
                lambda t=data["text"], w=words, tr=triples:
                _groupring_execute(t, w, tr),
                lambda raw, c=classes: _check_groupring(raw, c)))
    for name, depth in SELFSIM_RUNS:
        path = os.path.join(workdir, f"{name}.selfsim")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(pool["groups"][name]["text"])
        argv = ["selfsim", path, "--depth", str(depth),
                "--seed", str(rng.randrange(10 ** 6))]
        ops.append(Op("selfsim", f"{name}-{depth}",
                      lambda argv=argv: call_cli(argv),
                      lambda raw: (raw[0] == 0, ("exit", raw[0]))))
    rng.shuffle(ops)
    return ops


_WORKLOAD_OPS = {"verify": _verify_ops, "kgroups": _kgroups_ops,
             "algebra": _algebra_ops}


def build_ops(workload, seed, workdir, pool=None):
    """The ops of one pass of ``workload``; input files go to ``workdir``.
    ``verify`` needs no pool; the others load it when none is given."""
    if pool is None and workload != "verify":
        pool = load_pool()
    rng = random.Random(f"{workload}:{seed}")
    return _WORKLOAD_OPS[workload](rng, workdir, pool)
