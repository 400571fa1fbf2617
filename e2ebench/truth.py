"""Ground truth for the benchmark, computed without the validator.

Batch runs are checked against the generator's recorded verdicts
(`truth.tsv`): a person is invalid exactly when it was given a local
violation, and every node that is not a person conforms to nothing.

The edit stream is checked against the harness's own copy of the graph
(`Model`), which it edits alongside the daemon.  A person conforms to
the Person schema when its neighbourhood is locally valid (one
xsd:integer age, at least one xsd:string name, nothing else but
foaf:knows arcs) and every foaf:knows target conforms: the greatest
fixpoint of that rule, computed here by refinement over the part of
the graph a question can reach.
"""

import re
from collections import defaultdict

FOAF = "http://xmlns.com/foaf/0.1/"
AGE = f"<{FOAF}age>"
NAME = f"<{FOAF}name>"
KNOWS = f"<{FOAF}knows>"
XSD = "http://www.w3.org/2001/XMLSchema#"

_TRIPLE = re.compile(r'^(<[^>]*>) (<[^>]*>) (.*) \.$')
_INTEGER = re.compile(r'^"[+-]?[0-9]+"\^\^<' + re.escape(XSD) + r'integer>$')
_STRING = re.compile(r'^"(?:[^"\\]|\\.)*"(?:\^\^<' + re.escape(XSD) + r'string>)?$')


def read_truth(path):
    """The generator's verdict per person node, as `{"<iri>": bool}`."""
    truth = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            node, verdict = line.rstrip("\n").split("\t")
            truth[node] = verdict == "1"
    return truth


class Model:
    """A copy of the graph: subject -> list of (predicate, object), all
    terms in their N-Triples spelling."""

    def __init__(self, ntriples_path):
        self.out = defaultdict(list)
        self.rev = defaultdict(set)  # knows target -> subjects
        with open(ntriples_path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                m = _TRIPLE.match(line)
                if not m:
                    raise ValueError(f"unexpected N-Triples line: {line!r}")
                self.insert(*m.groups())

    def insert(self, s, p, o):
        """Add a triple; False when it was already present."""
        if (p, o) in self.out[s]:
            return False
        self.out[s].append((p, o))
        if p == KNOWS:
            self.rev[o].add(s)
        return True

    def delete(self, s, p, o):
        """Remove a triple; False when it was absent."""
        if (p, o) not in self.out[s]:
            return False
        self.out[s].remove((p, o))
        if p == KNOWS:
            self.rev[o].discard(s)
        return True

    def objects(self, s, p):
        return [o for (q, o) in self.out.get(s, ()) if q == p]

    def locally_valid(self, s):
        ages = names = 0
        for p, o in self.out.get(s, ()):
            if p == AGE:
                if not _INTEGER.match(o):
                    return False
                ages += 1
            elif p == NAME:
                if not _STRING.match(o):
                    return False
                names += 1
            elif p == KNOWS:
                if not o.startswith("<"):
                    return False
            else:
                return False
        return ages == 1 and names >= 1

    def verdicts(self, nodes):
        """Greatest-fixpoint verdicts of `nodes` and of everything they
        reach through foaf:knows: `{node: bool}`."""
        reach, todo = set(nodes), list(nodes)
        while todo:
            for o in self.objects(todo.pop(), KNOWS):
                if o not in reach:
                    reach.add(o)
                    todo.append(o)
        valid = {n for n in reach if self.locally_valid(n)}
        todo = [n for n in reach if n not in valid]
        while todo:
            bad = todo.pop()
            for s in self.rev.get(bad, ()):
                if s in valid:
                    valid.discard(s)
                    todo.append(s)
        return {n: n in valid for n in reach}

    def dependents(self, nodes):
        """`nodes` and every node that reaches one of them through
        foaf:knows: the only verdicts an edit of `nodes` can change."""
        seen, todo = set(nodes), list(nodes)
        while todo:
            for s in self.rev.get(todo.pop(), ()):
                if s not in seen:
                    seen.add(s)
                    todo.append(s)
        return seen
