"""EDP instance model: normalization, augmented graph, text format, verification.

The instance, solution and multicolored-clique formats share one line
reader (`_lines`): every line splits into whitespace-separated fields, a
blank line or one whose first field starts with "c" is a comment, and every
fault is a ParseError that names its line (see `parse_instance`).  An
edp file laid out as `write_instance` writes it is read in bulk first
(`_read_plain_edp`), which raises nothing: any file it does not accept goes
to the line reader.  Pair order is semantic: solution files refer to pairs
by position.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import eq
from typing import Iterable, Iterator, Sequence

from edpkit.graph import Multigraph, vertex_id


@dataclass(frozen=True)
class TerminalPair:
    s: int
    t: int

    def __post_init__(self) -> None:
        if self.s == self.t:
            raise ValueError(f"terminal pair with equal endpoints: {self.s}")

    def members(self) -> tuple[int, int]:
        return (self.s, self.t)


@dataclass(frozen=True)
class EdpInstance:
    """Undirected graph plus ordered terminal pairs.

    ``normalized`` is derived at construction: it is True iff every terminal
    occurs in exactly one pair, has degree exactly one, and no two terminals
    are adjacent.
    """

    g: Multigraph
    pairs: tuple[TerminalPair, ...]
    normalized: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.g.directed:
            raise ValueError("EDP instances are undirected")
        for p in self.pairs:
            for v in p.members():
                if not (1 <= vertex_id(v) <= self.g.n):
                    raise ValueError(f"terminal {v} out of range")
        object.__setattr__(self, "normalized", not self._violators())

    def _violators(self) -> set[int]:
        """The terminals that break a standing assumption: they occur more
        than once in the pairs, have degree other than one, or have a
        terminal neighbour.  Reads only the terminals' incidence lists."""
        edges, incident = self.g.edges, self.g._incident
        terminals = [v for p in self.pairs for v in p.members()]
        seen = set(terminals)
        # v is an end of its one edge, so both ends are terminals exactly
        # when its neighbour is one.
        bad = {v for v in seen if len(incident[v]) != 1 or seen.issuperset(edges[incident[v][0]])}
        if len(seen) < len(terminals):
            bad.update(v for v, count in Counter(terminals).items() if count > 1)
        return bad

    @cached_property
    def _normal_form(self) -> EdpInstance:
        """normalize_instance's rewrite of a non-normalized instance, kept in
        the instance's __dict__: not a field, so ==, hash and repr ignore it."""
        g = self.g
        bad = self._violators()
        new_edges = list(g.edges)
        new_pairs: list[TerminalPair] = []
        next_id = g.n
        for p in self.pairs:
            ends = []
            for v in p.members():
                if v in bad:
                    next_id += 1
                    new_edges.append((v, next_id))
                    ends.append(next_id)
                else:
                    ends.append(v)
            new_pairs.append(TerminalPair(ends[0], ends[1]))
        result = EdpInstance(Multigraph._from_checked(next_id, new_edges), tuple(new_pairs))
        assert result.normalized, "normalization must reach a fixed point in one pass"
        return result

    @property
    def terminals(self) -> set[int]:
        return {v for p in self.pairs for v in p.members()}


@dataclass(frozen=True)
class MultiDemandInstance:
    """Graph (directed or undirected) with (source, sink, multiplicity) triples."""

    g: Multigraph
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for s, t, n in self.triples:
            if not (1 <= s <= self.g.n and 1 <= t <= self.g.n):
                raise ValueError(f"demand endpoint out of range: ({s}, {t})")
            if n < 0:
                raise ValueError("demand multiplicity must be non-negative")


@dataclass(frozen=True)
class PathSet:
    """One path per terminal pair, each a tuple of edge indices."""

    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SolveResult:
    """What every engine returns.  status is "yes" or "no", or one of four
    refusals: "budget" when a brute-force oracle ran out of nodes,
    "fvs-exceeded" when sedp found no single feedback vertex,
    "width-exceeded" when twdp's decomposition is wider than its target,
    and "modulator-exceeded" when the fracture pipeline found no modulator
    within its bound.  paths is the verified solution on yes."""

    status: str
    paths: PathSet | None = None

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str | None = None


class CertificateError(RuntimeError):
    """A solver's own path set failed verification: an internal fault."""


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of every line that is neither blank nor a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and fields[0][0] != "c":
            yield line_no, fields


def _malformed(line_no: int, what: str, fields: list[str]) -> ParseError:
    return ParseError(line_no, f"malformed {what}: {' '.join(fields)!r}")


def _ints(line_no: int, what: str, fields: list[str], want: int, start: int = 1) -> list[int]:
    """fields[start:] as ints, on a line of exactly `want` fields; any other
    line is a malformed `what`."""
    if len(fields) == want:
        try:
            return [int(x) for x in fields[start:]]
        except ValueError:
            pass
    raise _malformed(line_no, what, fields)


def _out_of_range(line_no: int, *ids: int) -> ParseError:
    return ParseError(line_no, f"vertex id out of range: ({', '.join(map(str, ids))})")


def _headed(text: str, kinds: tuple[str, ...]) -> tuple[str, int, int, int, Iterator[tuple[int, list[str]]]]:
    """The kind and the three counts of the header "p <kind> <a> <b> <c>",
    which must come before every other line, and the lines after it."""
    lines = _lines(text)
    for line_no, fields in lines:
        if fields[0] != "p":
            raise ParseError(line_no, f"{fields[0]!r} line before header")
        a, b, c = _ints(line_no, "header", fields, 5, start=2)
        if fields[1] not in kinds:
            raise _malformed(line_no, "header", fields)
        if a < 0 or b < 0 or c < 0:
            raise ParseError(line_no, "negative count in header")
        return fields[1], a, b, c, lines
    raise ParseError(1, "missing header")


def parse_instance(text: str) -> EdpInstance | MultiDemandInstance:
    """Parse the line-oriented instance format.

    Format (ASCII, 1-based vertex ids):
      - comment lines start with "c"
      - header: "p edp <n> <m> <p>", or "p mdedp <n> <m> <l>" (directed) /
        "p muedp <n> <m> <l>" for multi-demand instances
      - m edge lines "e <u> <v>" (read as arcs u->v for mdedp)
      - demand lines: "t <a> <b>" for edp, "t <s> <t> <n>" for mdedp/muedp

    A valid edp file laid out as `write_instance` writes it is read in
    bulk; every other file goes through the line reader, which alone
    raises ParseError.  Both give the same instance.
    """
    inst = _read_plain_edp(text)
    return inst if inst is not None else _read_lines(text)


# The characters of a plain edp file's body: its tokens' and their separators.
_PLAIN_BODY = str.maketrans("", "", "0123456789et \n")


def _read_plain_edp(text: str) -> EdpInstance | None:
    """The instance of a valid edp file laid out as `write_instance` writes
    it, or None for any other file.

    Such a file is the header "p edp <n> <m> <p>" in plain decimals, then
    m lines "e <u> <v>" and p lines "t <a> <b>", each ended by a newline.
    The body holds only digits, "e", "t", spaces and newlines, so its lines
    and fields are the line reader's.  The fields are read in one split:
    every field at a position 3i must be a tag and every other one an int,
    and every line starts with a tag, so every line starts at a position
    3i.  With 3 fields per line in all, each line has exactly 3.  The
    ranges are checked on whole columns; any fault returns None, and the
    line reader reports it.
    """
    head, _, body = text.partition("\n")
    fields = head.split(" ")
    if len(fields) != 5 or fields[0] != "p" or fields[1] != "edp" or not text.endswith("\n"):
        return None
    try:
        n, m, p = map(int, fields[2:])
    except ValueError:
        return None
    lines = m + p
    starts = "\n" + body  # each line, the first too, after a newline
    if (
        min(n, m, p) < 0
        or head != f"p edp {n} {m} {p}"
        or body.translate(_PLAIN_BODY)
        or body.count("\n") != lines
        or starts.count("\ne ") + starts.count("\nt ") != lines
    ):
        return None
    tokens = body.split()
    if len(tokens) != 3 * lines or tokens[0 : 3 * m : 3].count("e") != m or tokens[3 * m :: 3].count("t") != p:
        return None
    try:
        us, vs = list(map(int, tokens[1 : 3 * m : 3])), list(map(int, tokens[2 : 3 * m : 3]))
        ss, ts = list(map(int, tokens[3 * m + 1 :: 3])), list(map(int, tokens[3 * m + 2 :: 3]))
    except ValueError:
        return None
    for column in (us, vs, ss, ts):
        if column and (min(column) < 1 or max(column) > n):
            return None
    if any(map(eq, us, vs)) or any(map(eq, ss, ts)):
        return None
    g = Multigraph._from_checked(n, list(zip(us, vs)))
    return EdpInstance(g, tuple(map(TerminalPair, ss, ts)))


def _read_lines(text: str) -> EdpInstance | MultiDemandInstance:
    """parse_instance's line reader: one line at a time, for every file."""
    kind, n, m, p, lines = _headed(text, ("edp", "mdedp", "muedp"))
    edges: list[tuple[int, int]] = []
    pairs: list[TerminalPair] = []
    triples: list[tuple[int, int, int]] = []
    for line_no, fields in lines:
        tag = fields[0]
        if tag == "e":
            # Edge lines are most of a file: checked inline, with no call per line.
            try:
                _, a, b = fields
                u, v = int(a), int(b)
            except ValueError:
                raise _malformed(line_no, "edge line", fields) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise _out_of_range(line_no, u, v)
            if u == v:
                raise ParseError(line_no, f"self-loop rejected: ({u}, {v})")
            edges.append((u, v))
        elif tag == "t":
            nums = _ints(line_no, "demand line", fields, 3 if kind == "edp" else 4)
            if not (1 <= nums[0] <= n and 1 <= nums[1] <= n):
                raise _out_of_range(line_no, nums[0], nums[1])
            if kind == "edp":
                if nums[0] == nums[1]:
                    raise ParseError(line_no, "terminal pair with equal endpoints")
                pairs.append(TerminalPair(nums[0], nums[1]))
            else:
                if nums[2] < 0:
                    raise ParseError(line_no, "negative demand multiplicity")
                triples.append((nums[0], nums[1], nums[2]))
        elif tag == "p":
            raise ParseError(line_no, "duplicate header")
        else:
            raise ParseError(line_no, f"unknown line tag: {tag!r}")
    if len(edges) != m:
        raise ParseError(len(text.splitlines()), f"edge count mismatch: header says {m}, found {len(edges)}")
    demands = len(pairs) if kind == "edp" else len(triples)
    if demands != p:
        raise ParseError(len(text.splitlines()), f"demand count mismatch: header says {p}, found {demands}")
    # Every edge line was checked above, so the graph skips the checks.
    g = Multigraph._from_checked(n, edges, directed=(kind == "mdedp"))
    if kind == "edp":
        return EdpInstance(g, tuple(pairs))
    return MultiDemandInstance(g, tuple(triples))


def parse_solution(text: str) -> tuple[str, PathSet]:
    """Parse a solution file: "s yes" or "s no", then on yes one line
    "path <i>: <edge> ..." per pair, in pair order, with 1-based edge indices.
    A "no" file has no path lines."""
    verdict = ""
    verdict_line = path_line = 1  # where a bad verdict or a first path line sits
    paths: list[tuple[int, ...]] = []
    for line_no, fields in _lines(text):
        if fields[0] == "s":
            if verdict:
                raise ParseError(line_no, "duplicate verdict line")
            if len(fields) != 2:
                raise _malformed(line_no, "verdict line", fields)
            verdict, verdict_line = fields[1], line_no
        elif fields[0] == "path":
            head, _, body = " ".join(fields[1:]).partition(":")
            try:
                idx = int(head)
                edges = tuple(int(tok) - 1 for tok in body.split())
            except ValueError:
                raise _malformed(line_no, "path line", fields) from None
            if idx != len(paths) + 1:
                raise ParseError(line_no, f"paths out of order (got {idx})")
            if not paths:
                path_line = line_no
            paths.append(edges)
        else:
            raise ParseError(line_no, f"unknown solution line: {' '.join(fields)!r}")
    if verdict not in ("yes", "no"):
        raise ParseError(verdict_line, "missing or malformed verdict line")
    if verdict == "no" and paths:
        raise ParseError(path_line, 'path line in a "no" solution')
    return verdict, PathSet(tuple(paths))


def write_instance(inst: EdpInstance | MultiDemandInstance) -> str:
    """Serialize an instance; `parse_instance` round-trips it exactly."""
    lines: list[str] = []
    g = inst.g
    if isinstance(inst, EdpInstance):
        lines.append(f"p edp {g.n} {g.m} {len(inst.pairs)}")
        lines.extend(f"e {u} {v}" for u, v in g.edges)
        lines.extend(f"t {p.s} {p.t}" for p in inst.pairs)
    else:
        kind = "mdedp" if g.directed else "muedp"
        lines.append(f"p {kind} {g.n} {g.m} {len(inst.triples)}")
        lines.extend(f"e {u} {v}" for u, v in g.edges)
        lines.extend(f"t {s} {t} {n}" for s, t, n in inst.triples)
    return "\n".join(lines) + "\n"


def normalize_instance(inst: EdpInstance) -> EdpInstance:
    """Rewrite the instance so the standing terminal assumptions hold.

    Every terminal occurrence violating an assumption (occurs in more than
    one pair, degree differing from one, or adjacent to another terminal)
    is replaced by a fresh leaf attached to it.  Fresh leaves get ids
    n+1, n+2, ... in pair order, s before t.  The yes/no answer is
    preserved, and the operation is idempotent.  Each instance builds its
    normal form once and keeps it, so every engine that normalizes it gets
    the same object.
    """
    return inst if inst.normalized else inst._normal_form


def augmented_graph(inst: EdpInstance) -> Multigraph:
    """The instance graph with one extra edge per terminal pair, in pair order."""
    # The instance checked its edges, and a pair's ends are in range and
    # distinct, so the constructor's checks would find nothing.
    edges = list(inst.g.edges)
    edges.extend(p.members() for p in inst.pairs)
    return Multigraph._from_checked(inst.g.n, edges)


def walk_endpoints(g: Multigraph, path: Iterable[int], start: int) -> int | None:
    """Follow edge indices from `start`; return the final vertex or None if
    the sequence is not incident-consecutive."""
    cur = start
    for e in path:
        u, v = g.edges[e]
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return None
    return cur


def verify_solution(inst: EdpInstance, sol: PathSet) -> Verdict:
    """Check a path set: endpoints per pair, consecutive incidence, global
    edge-disjointness.  Edge-simple walks are accepted; the first violated
    condition is reported, naming an edge e as solution files do (e + 1).
    """
    if len(sol.paths) != len(inst.pairs):
        return Verdict(False, f"expected {len(inst.pairs)} paths, got {len(sol.paths)}")
    used: set[int] = set()
    for i, (pair, path) in enumerate(zip(inst.pairs, sol.paths), start=1):
        for e in path:
            if not (0 <= e < inst.g.m):
                return Verdict(False, f"path {i}: edge index {e + 1} out of range")
        for e in path:
            if e in used:
                return Verdict(False, f"edge reused: {e + 1}")
            used.add(e)
        if not path:
            return Verdict(False, f"path {i}: empty path for pair ({pair.s}, {pair.t})")
        end = walk_endpoints(inst.g, path, pair.s)
        if end is None:
            return Verdict(False, f"path {i}: edges not consecutive")
        if end != pair.t:
            return Verdict(False, f"path {i}: wrong endpoint (reached {end}, wanted {pair.t})")
    return Verdict(True)


def certify(engine: str, inst: EdpInstance, walks: Iterable[Sequence[int]]) -> PathSet:
    """Turn an engine's walks into a verified solution of inst; every
    plain-EDP "yes" is built here.  walks holds one edge-simple walk per
    pair, in pair order, from the pair's s on the engine's graph: inst or
    a rewrite that keeps every edge e of inst at index e and appends the
    edges it adds.  normalize_instance appends one leaf edge per moved
    terminal; sedp's preparation appends leaf edges and, per x-edge it
    moves onto a fresh leaf, the edge from the forest end to that leaf.
    Each index at or past inst.g.m is dropped, which leaves walks on inst;
    they are shortcut and verified once, on inst.  A failure raises
    CertificateError, which `python -O` keeps."""
    # A negative index past the edge list, an edge that does not continue
    # its walk, or a walk count other than the pair count stops the
    # shortcut; verify_solution checks the rest.
    m = inst.g.m
    try:
        sol = PathSet(
            tuple(
                shortcut_walk(inst.g, [e for e in w if e < m], p.s)
                for w, p in zip(walks, inst.pairs, strict=True)
            )
        )
    except IndexError:
        raise CertificateError(f"{engine} produced an invalid certificate: edge index out of range") from None
    except ValueError as exc:
        raise CertificateError(f"{engine} produced an invalid certificate: {exc}") from None
    verdict = verify_solution(inst, sol)
    if not verdict.ok:
        raise CertificateError(f"{engine} produced an invalid certificate: {verdict.reason}")
    return sol


def shortcut_walk(g: Multigraph, path: Sequence[int], start: int) -> tuple[int, ...]:
    """Shortcut an edge-simple walk to a vertex-simple path with the same
    endpoints, using a subset of its edges, in one pass: each loop is cut
    as the walk closes it."""
    edges: list[int] = []
    position = {start: 0}  # path vertex -> edges before it, in path order
    cur = start
    for e in path:
        cur = g.other_end(e, cur)
        i = position.get(cur)
        if i is None:
            edges.append(e)
            position[cur] = len(edges)
        else:  # back at the loop's first vertex: the loop's vertices were inserted last
            del edges[i:]
            while len(position) > i + 1:
                position.popitem()
    return tuple(edges)
