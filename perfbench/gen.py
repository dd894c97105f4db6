"""Seeded input generators for the benchmark workloads.

Every input the programs under test receive is produced here from the
``--seed`` argument: the section-5 knowledge base and its request pools
for the served workloads, and the instance files for the one-shot CLI
workload.  A seed changes names, constants, default signs, the shape
of the isa forest and the order of facts; object, constant, reader and
instance counts are fixed, and so is the shape of every view a models
read or a replica read touches, so run-to-run cost stays comparable
across seeds.
"""

import random

# Workload sizes.  BENCHMARK.json records the same numbers per workload.
KB_TREES = 3            # roots of the isa forest
KB_OBJECTS = 24         # objects in the forest (roots included)
KB_PROPS = 6            # default properties every root decides
KB_MAX_DEPTH = 4        # levels below and including a root
READ_LITS_PER_OBJ = 70  # query/explain literals drawn per object
WRITE_POOL = 48         # distinct add_rule candidates in kb-write-mix

CHAIN_DEPTH = 8         # kb_chain d for cli-cold models
WIN_MOVE_N = 14         # raw win_move n for cli-cold models
EVEN_LOOPS = 6          # even negative loops (2^k stable models)
ANCESTOR_N = 40         # ancestor chain for least/query
EXPLAIN_N = 34          # ancestor chain for explain


class KB:
    """A section-5 knowledge base: objects in an isa forest, root
    defaults overruled by lower objects, and objects with two
    incomparable parents whose conflicting defaults defeat each other
    (the paper's Fig. 2)."""

    def __init__(self, seed):
        rnd = random.Random(seed * 7919 + 1)
        tag = "%03d" % rnd.randrange(1000)
        self.props = ["p%d_%s" % (k, tag) for k in range(KB_PROPS)]
        self.member = "in_" + tag
        self.objs = []        # names in definition order
        self.parents = {}     # name -> [parent names]
        self.depth = {}
        self.tree = {}        # name -> index of the root it descends from
        self.rules = {}       # name -> [rule source]
        self.const = {}       # name -> its individual constant
        self.sign = {}        # (name, prop) -> effective default sign
        self.named = []       # rule names usable by set_preference
        self.counter = 0
        self.joins = []       # the multi-parent objects, tree 0/1 first
        # roots first, then grow the forest at random to the depth cap
        for t in range(KB_TREES):
            self._add_root(rnd, t)
        # every root gets two children first: the depth-2 parents of the
        # joins, and with the roots the replica readers' viewpoints
        self.first = {}
        for t in range(KB_TREES):
            self.first[t] = [self._add_child(rnd, [self.objs[t]])
                             for _ in range(2)]
        while len(self.objs) < KB_OBJECTS:
            cands = [o for o in self.objs if self.depth[o] < KB_MAX_DEPTH]
            par = rnd.choice(cands)
            self._add_child(rnd, [par])
        # two multi-parent objects join trees 0/1 and 1/2 (Fig. 2 defeat);
        # they replace the two newest single-parent leaves so the object
        # count stays fixed
        for _ in range(2):
            self._drop(self.objs[-1])
        for a, b in ((0, 1), (1, 2)):
            self._add_join(rnd, a, b)

    def _name(self, rnd):
        self.counter += 1
        return "o%02d_%d" % (self.counter, rnd.randrange(100))

    def _add_root(self, rnd, t):
        o = self._name(rnd)
        self.objs.append(o)
        self.parents[o] = []
        self.depth[o] = 1
        self.tree[o] = t
        self.const[o] = "c%s" % o[1:]
        rs = ["%s(%s)." % (self.member, self.const[o])]
        for k, p in enumerate(self.props):
            # neighbouring trees always disagree on the first property,
            # which no exception overrules: the joins' defeated property
            s = t % 2 == 0 if k == 0 else rnd.random() < 0.5
            self.sign[(o, p)] = s
            name = "d%s_%d" % (o[1:], k)
            self.named.append(name)
            rs.append("%s : %s%s(X) :- %s(X)." %
                      (name, "" if s else "-", p, self.member))
        self.rules[o] = rs

    def _add_child(self, rnd, parents):
        o = self._new(rnd, parents)
        # an exception: overrule one inherited default
        p = rnd.choice(self.props[1:])
        s = not self.sign[(o, p)]
        self.sign[(o, p)] = s
        name = "x%s" % o[1:]
        self.named.append(name)
        self.rules[o].append("%s : %s%s(X) :- %s(X)." %
                             (name, "" if s else "-", p, self.member))
        return o

    def _add_join(self, rnd, a, b):
        """Fig. 2: two incomparable parents from neighbouring trees,
        which always disagree on the first property.  The join settles
        every other property with a rule of its own (an exception
        inherited along one branch would otherwise meet the other
        branch's default as a second defeat), so exactly that property
        stays defeated.  Both parents sit at depth 2: the join sees
        five constants whatever the seed, and a models miss on it
        searches 3^5 leaves."""
        x = rnd.choice(self.first[a])
        y = rnd.choice(self.first[b])
        o = self._new(rnd, [x, y])
        self.joins.append(o)
        for p in self.props[1:]:
            self.rules[o].append("%s%s(X) :- %s(X)." %
                                 ("" if self.sign[(x, p)] else "-", p,
                                  self.member))

    def _new(self, rnd, parents):
        o = self._name(rnd)
        self.objs.append(o)
        self.parents[o] = parents
        self.depth[o] = 1 + max(self.depth[p] for p in parents)
        self.tree[o] = self.tree[parents[0]]
        self.const[o] = "c%s" % o[1:]
        self.rules[o] = ["%s(%s)." % (self.member, self.const[o])]
        for p in self.props:
            self.sign[(o, p)] = self.sign[(parents[0], p)]
        return o

    def _drop(self, o):
        self.objs.remove(o)
        for d in (self.parents, self.depth, self.tree, self.rules,
                  self.const):
            del d[o]
        for p in self.props:
            self.sign.pop((o, p), None)
        self.named = [n for n in self.named if n != "x%s" % o[1:]]

    def cone(self, o):
        """o and its transitive isa parents: the objects o's view sees."""
        seen, todo = set(), [o]
        while todo:
            x = todo.pop()
            if x not in seen:
                seen.add(x)
                todo.extend(self.parents[x])
        return seen

    def source(self):
        out = []
        for o in self.objs:
            ext = (" extends " + ", ".join(self.parents[o])
                   if self.parents[o] else "")
            out.append("component %s%s {\n  %s\n}" %
                       (o, ext, "\n  ".join(self.rules[o])))
        return "\n".join(out) + "\n"

    def literals(self, rnd, o):
        """Ground literals over o's view: properties and membership of
        every constant o can see, both signs, sampled without
        replacement up to READ_LITS_PER_OBJ."""
        consts = sorted(self.const[x] for x in self.cone(o))
        lits = []
        for c in consts:
            for p in self.props + [self.member]:
                lits.append("%s(%s)" % (p, c))
                lits.append("-%s(%s)" % (p, c))
        rnd.shuffle(lits)
        return lits[:READ_LITS_PER_OBJ]


def read_keys(kb, rnd, objs):
    """The distinct read requests over ``objs``, grouped by verb."""
    q, m, e = [], [], []
    for o in objs:
        lits = kb.literals(rnd, o)
        for l in lits:
            q.append({"op": "query", "obj": o, "lit": l})
        for l in lits:
            e.append({"op": "explain", "obj": o, "lit": l})
        m.append({"op": "models", "obj": o, "kind": "stable"})
        m.append({"op": "models", "obj": o, "kind": "stable",
                  "search": "compiled"})
    return {"query": q, "models": m, "explain": e}


# read mix: query ~60%, models ~25% (half compiled), explain ~15%
READ_MIX = (("query", 0.60), ("models", 0.25), ("explain", 0.15))


def read_stream(keys, rnd, n):
    out = []
    for _ in range(n):
        r = rnd.random()
        acc = 0.0
        for verb, share in READ_MIX:
            acc += share
            if r < acc:
                break
        out.append(rnd.choice(keys[verb]))
    return out


# ---------------------------------------------------------------------
# kb-write-mix: replica-read viewpoints and the writer's pool
# ---------------------------------------------------------------------

def mix_inputs(kb, rnd):
    """Replica-read viewpoints, the in-cone / out-of-cone split of the
    other objects, and the writer's candidate pool."""
    # readers: the roots of trees 0 and 1, their first children and the
    # tree-0/1 join — the same shapes (views of one, two and five
    # constants) whatever the seed.  Their cones are exactly these seven
    # objects; every other object is outside every reader's isa-cone.
    readers = [kb.objs[0], kb.objs[1]] + kb.first[0] + kb.first[1] \
        + [kb.joins[0]]
    readers = sorted(readers, key=kb.objs.index)
    inside = list(readers)
    outside = [o for o in kb.objs if o not in inside]
    pool = []
    for j in range(WRITE_POOL):
        w = "w%d_%s" % (j, kb.member[3:])
        p = rnd.choice(kb.props)
        if j % 4 != 0:
            o = rnd.choice(outside)
            rule = "%s(X) :- %s(X), %s(X)." % (w, kb.member, p)
            pool.append({"obj": o, "rule": rule, "cone": "out"})
        elif j % 16 == 0:
            # a fresh constant: the reader's Herbrand universe changes
            o = rnd.choice(inside)
            rule = "%s(z%d_%s)." % (kb.member, j, kb.member[3:])
            pool.append({"obj": o, "rule": rule, "cone": "in-fresh"})
        else:
            o = rnd.choice(inside)
            rule = "%s(X) :- %s(X), %s(X)." % (w, kb.member, p)
            pool.append({"obj": o, "rule": rule, "cone": "in"})
    return readers, pool


PREF_SHARE = 0.2  # share of writer pairs that set then clear a preference


def write_pairs(kb, pool, rnd, n):
    """n writer pairs: add_rule then remove_rule of one pool rule, or
    set_preference then clear_preference of two named rules; the KB
    returns to its loaded state after every pair."""
    out = []
    for _ in range(n):
        if rnd.random() < PREF_SHARE:
            a, b = rnd.sample(kb.named, 2)
            out.append(({"op": "set_preference", "rule": a, "over": b},
                        {"op": "clear_preference", "rule": a, "over": b},
                        None))
        else:
            w = rnd.randrange(len(pool))
            c = pool[w]
            out.append(({"op": "add_rule", "obj": c["obj"], "rule": c["rule"]},
                        {"op": "remove_rule", "obj": c["obj"],
                         "rule": c["rule"]},
                        w))
    return out


# ---------------------------------------------------------------------
# cli-cold instances
# ---------------------------------------------------------------------

def _tag(rnd):
    return "%03d" % rnd.randrange(1000)


def kb_chain(rnd, d):
    """The section-5 inheritance chain (bench B5): d objects, each
    overruling the flag default of the one above it.  Exactly one
    stable model, given by ``kb_chain_model``."""
    t = _tag(rnd)
    items = ["a" + t, "b" + t]
    facts = ["item(%s)." % items[0], "item(%s)." % items[1],
             "relevant(%s)." % items[0]]
    rnd.shuffle(facts)
    out = ["component base%s { %s }" % (t, " ".join(facts))]
    for i in range(d):
        if i == 0:
            tog = "flag(X) :- item(X)."
        elif i % 2 == 0:
            tog = "flag(X) :- item(X), relevant(X)."
        else:
            tog = "-flag(X) :- item(X)."
        par = "base" + t if i == 0 else "v%d_%s" % (i - 1, t)
        out.append("component v%d_%s extends %s { %s stamp(%d). }"
                   % (i, t, par, tog, i))
    model = {"item(%s)" % x for x in items} | {"relevant(%s)" % items[0]}
    model |= {"stamp(%d)" % i for i in range(d)}
    for x in items:
        for i in range(d - 1, -1, -1):
            if i == 0:
                model.add("flag(%s)" % x)
                break
            if i % 2 == 1:
                model.add("-flag(%s)" % x)
                break
            if x == items[0]:  # relevant
                model.add("flag(%s)" % x)
                break
    return "\n".join(out) + "\n", [model]


def win_move(rnd, n):
    """Raw win/move game graph (bench B6, no OV wrapper): nothing
    derives -win, so the one stable model is the move facts."""
    base = rnd.randrange(100, 900)
    moves = []
    for i in range(n - 1):
        moves.append((base + i, base + i + 1))
        if i % 2 == 0 and i + 2 < n:
            moves.append((base + i, base + i + 2))
    facts = ["move(%d, %d)." % m for m in moves]
    rnd.shuffle(facts)
    src = ("component main {\nwin(X) :- move(X, Y), -win(Y).\n%s\n}\n"
           % "\n".join(facts))
    return src, [{"move(%d, %d)" % m for m in moves}]


def ancestor(rnd, n):
    """Ancestor over a parent chain of n nodes (bench B2): the least
    model is the chain plus its transitive closure."""
    base = rnd.randrange(100, 900)
    facts = ["parent(%d, %d)." % (base + i, base + i + 1) for i in range(n - 1)]
    rnd.shuffle(facts)
    src = ("component main {\nanc(X, Y) :- parent(X, Y).\n"
           "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n%s\n}\n" % "\n".join(facts))
    model = {"parent(%d, %d)" % (base + i, base + i + 1) for i in range(n - 1)}
    model |= {"anc(%d, %d)" % (base + i, base + j)
              for i in range(n) for j in range(i + 1, n)}
    return src, model, base


def even_loops(rnd, k):
    t = _tag(rnd)
    rules = []
    for i in range(k):
        p, q = "p%d_%s" % (i, t), "q%d_%s" % (i, t)
        rules += ["%s :- -%s." % (p, q), "%s :- -%s." % (q, p)]
    rnd.shuffle(rules)
    return "component main {\n%s\n}\n" % "\n".join(rules)


def prioritized_defaults(rnd):
    """Prioritized defaults in the compiled-preference style of
    cs/0003028: birds fly, penguins do not, and the penguin rule is
    preferred inside one object."""
    t = _tag(rnd)
    birds = ["tw%d_%s" % (i, t) for i in range(3)]
    facts = ["b%d : bird(%s)." % (i, x) for i, x in enumerate(birds)]
    facts.append("pg : penguin(%s)." % birds[0])
    facts.append("ab : abnormal(%s)." % birds[1])
    rules = ["f : fly(X) :- bird(X).",
             "nf : -fly(X) :- penguin(X).",
             "na : -fly(X) :- abnormal(X).",
             "w : walk(X) :- -fly(X).",
             "nw : -walk(X) :- bird(X)."]
    body = facts + rules
    rnd.shuffle(body)
    prefs = ["prefer nf > f.", "prefer na > f.", "prefer w > nw."]
    return "\n".join(body + prefs) + "\n"


def p5_shape(rnd):
    """test/cli.t/p5.olp renamed: stable models {-a,b,c} and {a,-b,c}."""
    t = _tag(rnd)
    a, b, c = "a" + t, "b" + t, "c" + t
    return ("component top%s { %s. %s. %s. }\n"
            "component bot%s extends top%s { -%s :- %s, %s. -%s :- %s. "
            "-%s :- -%s. }\n" % (t, a, b, c, t, t, a, b, c, b, a, b, b))
