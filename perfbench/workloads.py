"""The four benchmark workloads.

Each workload runs in the benchmark's own process with one client in a
closed loop: the next operation starts when the previous one has finished
and been checked.  A workload prepares its inputs from the seed, then runs
*jobs* until the measuring time is up:

- ``enumerate``: a job is one ``enumerate_mat_labelings_complete(7)``;
- ``agreement``: a job is one ``mat_sc_agreement(6)``;
- ``structure``: a job is a fixed set of single constructions
  (``construct``) and seeded single conversions (``convert``), shuffled;
- ``cli``: a job is one pass over six ``matvines`` commands, each run as
  its own process.

Every operation yields an ``Outcome``.  An operation that raises, or that
passes the fixed per-operation deadline, is a failure; one whose result
fails its check is wrong.  Neither stops the run.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

# Per-call deadline of the structure operations, in seconds: a guard against
# runaway searches, not a latency filter.  Some construct calls on 9-10
# vertices run for over 30 s, so no deadline a run can afford lies above
# every call; at 3 s two calls of the fixed construct set pass it, and the
# slowest call that completes (about 1.9 s) has room to slow by half.
DEADLINE_S = 3.0
# per-process deadline of one CLI command, seconds
PROCESS_DEADLINE_S = 60.0

ENUMERATE_DIMENSION = 7
ENUMERATE_CLASSES = 560
AGREEMENT_VERTICES = 6
AGREEMENT_GRAPHS = 1 << 15
AGREEMENT_LABELABLE = 18034


@dataclass(frozen=True)
class Outcome:
    """One operation: its class, a label naming call and input, latency,
    and status ``ok``, ``failed``, ``timeout`` or ``wrong``."""

    cls: str
    op: str
    seconds: float
    status: str
    detail: str = ""


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside an operation that overruns.

    A ``BaseException`` so that no ``except Exception`` in the code under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(cls: str, op: str, call: Callable[[], object],
           check: Callable[[object], str | None],
           deadline: float | None = DEADLINE_S,
           checking=contextlib.nullcontext) -> Outcome:
    """Time ``call`` under the deadline, if any, then check its result
    untimed, inside the ``checking`` context."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        try:
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    except DeadlineExceeded:
        return Outcome(cls, op, time.perf_counter() - start, "timeout",
                       f"over the {deadline:g} s deadline")
    except Exception as exc:  # any library error is a failed operation
        return Outcome(cls, op, time.perf_counter() - start, "failed",
                       f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    try:
        with checking():
            problem = check(result)
    except Exception as exc:  # a crash while checking is a wrong result
        problem = f"check raised {type(exc).__name__}: {exc}"
    if problem:
        return Outcome(cls, op, elapsed, "wrong", problem)
    return Outcome(cls, op, elapsed, "ok")


class Enumerate:
    """Exhaustive enumeration of the complete-graph labelings at d=7.

    Almost all of its time is the canonical key over 28,240 towers; it
    barely touches ``_bits`` or the structure layer, and has no random input.
    """

    # whose peak memory counts: this process
    rusage = resource.RUSAGE_SELF
    # context results are checked in; a traced run pauses tracing there
    checking = contextlib.nullcontext

    def __init__(self, mv) -> None:
        self.mv = mv

    def prepare(self, seed: int) -> None:
        self.mv.enumerate_mat_labelings_complete(5, jobs=1)

    def run_job(self, index: int, outcomes: list[Outcome]) -> None:
        mv = self.mv

        def check(report) -> str | None:
            expected = mv.e_formula(ENUMERATE_DIMENSION)
            if not report.class_count == report.formula_count == expected == ENUMERATE_CLASSES:
                return (f"class_count {report.class_count}, formula "
                        f"{report.formula_count}, e_formula {expected}")
            return None

        # a whole job has no deadline: the run's own time limit bounds it
        outcomes.append(run_op(
            "enumerate", f"enumerate_mat_labelings_complete({ENUMERATE_DIMENSION})",
            lambda: mv.enumerate_mat_labelings_complete(ENUMERATE_DIMENSION, jobs=1),
            check, deadline=None, checking=self.checking))


class Agreement:
    """Labelability against strong chordality over all 32,768 graphs on
    six vertices: the ``_bits`` kernels, with no canonical key and no
    structure layer."""

    # whose peak memory counts: this process
    rusage = resource.RUSAGE_SELF
    # context results are checked in; a traced run pauses tracing there
    checking = contextlib.nullcontext

    def __init__(self, mv) -> None:
        self.mv = mv

    def prepare(self, seed: int) -> None:
        self.mv.mat_sc_agreement(4)

    def run_job(self, index: int, outcomes: list[Outcome]) -> None:
        def check(report) -> str | None:
            if (report.graph_count != AGREEMENT_GRAPHS or report.discrepancies
                    or not report.strongly_chordal_count == report.labelable_count
                    == AGREEMENT_LABELABLE):
                return json.dumps(report.to_json())
            return None

        outcomes.append(run_op(
            "agreement", f"mat_sc_agreement({AGREEMENT_VERTICES})",
            lambda: self.mv.mat_sc_agreement(AGREEMENT_VERTICES), check, deadline=None,
            checking=self.checking))


# --------------------------------------------------------------------------
# structure


STANDARD_KINDS = ("d_vine", "c_vine", "root_poset_a")
# The construct calls are one fixed set, drawn from this seed in every run;
# the run's seed draws the convert inputs and the order of each job.
# Construct latency has exponential cliffs at 9-10 vertices (ROADMAP item
# 5): resampling 80 measured groups of fresh draws, the tail of a run (the
# mean of its ten slowest construct calls) spread 0.42 of its median across
# seeds, so no tail bound could hold.  Over a fixed set the tail is the same
# calls in every run, and a change to the cliffs moves it.
CONSTRUCT_SEED = 0
# Groups in the construct set: each has extend, embed and merge at 6-10
# vertices and find_mat_labeling at 8-12; glue adds one call per group.
CONSTRUCT_GROUPS = 4
# convert passes in one job: with one, convert and construct latencies are
# about as many, and the median of the job fell between their two modes
CONVERT_PASSES = 2
# jobs prepared per seed; a run uses one or two
STRUCTURE_JOBS = 4


def _edge_map(edges) -> dict[frozenset, int]:
    return {frozenset((u, v)): k for u, v, k in edges}


def canonical_form_problem(text: str, n: int, edges) -> str | None:
    """What is wrong with ``text`` as the canonical form of a graph on n
    vertices with these labeled edges: it must list every vertex pair once
    and carry the graph's labels."""
    head, _, body = text.partition(":")
    values = [int(x) for x in body.split(",")] if body else []
    if head != str(n) or len(values) != n * (n - 1) // 2:
        return f"malformed canonical form {text[:40]!r}"
    if sorted(x for x in values if x) != sorted(k for _, _, k in edges):
        return "canonical form changes the labels"
    return None


class Structure:
    """Single in-process operations on one layer, used two ways.

    ``convert``: ``check_mat_labeling``, ``psi``, ``roundtrip_check`` and
    ``canonical_form`` on MAT graphs with 8-12 vertices; ``omega``,
    ``roundtrip_check``, ``classify`` and ``join_and_paths`` on their vines;
    and ``classify``, ``omega`` and ``roundtrip_check`` on ``d_vine``,
    ``c_vine`` and ``root_poset_a`` at one random dimension in 4-11 and at
    dimension 12.

    ``construct``: ``extend_to_complete``, ``embed_in_r_vine`` and
    ``merge_complete`` on instances with 6-10 vertices, ``glue`` on two
    graphs of 4-6 vertices, and ``find_mat_labeling`` on
    ``random_chordal_graph`` inputs with 8-12 vertices.

    A job is the whole construct set and ``CONVERT_PASSES`` convert passes,
    shuffled.  Each operation builds its input objects from plain data
    inside the timed call, so no cached property carries over between
    operations.
    """

    # whose peak memory counts: this process
    rusage = resource.RUSAGE_SELF
    # context results are checked in; a traced run pauses tracing there
    checking = contextlib.nullcontext

    def __init__(self, mv) -> None:
        self.mv = mv
        self.jobs: list[list[tuple[str, str, Callable, Callable]]] = []

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        construct = self.construct_set()
        self.jobs = []
        for _ in range(STRUCTURE_JOBS):
            ops = list(construct)
            for _ in range(CONVERT_PASSES):
                ops += self.convert_pass(rng)
            rng.shuffle(ops)
            self.jobs.append(ops)
        for cls, op, call, check in self._warm_up_ops(random.Random(seed)):
            run_op(cls, op, call, check)

    def run_job(self, index: int, outcomes: list[Outcome]) -> None:
        for cls, op, call, check in self.jobs[index % len(self.jobs)]:
            outcomes.append(run_op(cls, op, call, check, checking=self.checking))

    def _warm_up_ops(self, rng: random.Random):
        """One small instance of every call, so that first-call costs stay
        out of the measurement."""
        ideal = inputs.random_ideal(rng, inputs.random_tower(rng, 6), 0.7)
        return (self._graph_ops(ideal) + self._vine_ops(rng, ideal)
                + self._standard_ops("d_vine", 4) + self._construct_ops(rng, 6)
                + [self._find_labeling_op(rng, 6),
                   self._glue_op(inputs.random_glue_pair(rng, 4, 4, 0.7))])

    # -- one job -----------------------------------------------------------

    def convert_pass(self, rng: random.Random) -> list[tuple[str, str, Callable, Callable]]:
        ops = []
        for n in range(8, 13):
            ideal = inputs.random_ideal(rng, inputs.random_tower(rng, n),
                                        rng.uniform(0.5, 0.9))
            ops += self._graph_ops(ideal)
            ops += self._vine_ops(rng, ideal)
        for kind in STANDARD_KINDS:
            for dim in (rng.randint(4, 11), 12):
                ops += self._standard_ops(kind, dim)
        return ops

    def construct_set(self) -> list[tuple[str, str, Callable, Callable]]:
        rng = random.Random(CONSTRUCT_SEED)
        ops = []
        for _ in range(CONSTRUCT_GROUPS):
            for n in range(6, 11):
                ops += self._construct_ops(rng, n)
            for n in range(8, 13):
                ops.append(self._find_labeling_op(rng, n))
        for _ in range(CONSTRUCT_GROUPS):
            n1, n2 = rng.randint(4, 6), rng.randint(4, 6)
            ops.append(self._glue_op(inputs.random_glue_pair(rng, n1, n2,
                                                             rng.uniform(0.5, 0.9))))
        return ops

    def _graph_ops(self, ideal: inputs.Ideal):
        mv = self.mv
        verts, edges, n = ideal.vertices, ideal.labeled_edges, ideal.n

        def build():
            return mv.LabeledGraph.build(verts, edges)

        def check_verdict(verdict):
            return None if verdict.ok else f"valid graph rejected: {verdict.violation}"

        def check_psi(p):
            if len(p.nodes) != n + len(edges) or set(p.minimals) != set(verts):
                return f"vine has {len(p.nodes)} nodes for {n} vertices, {len(edges)} edges"
            kind = mv.classify(p).kind
            return None if kind >= mv.VineClass.LR_VINE else f"vine classified {kind.name}"

        def check_roundtrip(res):
            return None if res.verdict.ok else f"roundtrip failed: {res.verdict.violation}"

        def check_canon(key: bytes):
            return canonical_form_problem(key.decode("ascii"), n, edges)

        return [
            ("convert", f"check_mat_labeling n={n}",
             lambda: mv.check_mat_labeling(build()), check_verdict),
            ("convert", f"psi n={n}", lambda: mv.psi(build()), check_psi),
            ("convert", f"roundtrip_check graph n={n}",
             lambda: mv.roundtrip_check(build()), check_roundtrip),
            ("convert", f"canonical_form n={n}",
             lambda: mv.canonical_form(build()), check_canon),
        ]

    def _vine_ops(self, rng: random.Random, ideal: inputs.Ideal):
        mv = self.mv
        items, n = ideal.vine_items, ideal.n
        expected = _edge_map(ideal.labeled_edges)
        kind = mv.VineClass.R_VINE if ideal.complete else mv.VineClass.LR_VINE
        i, j = rng.sample(ideal.vertices, 2)

        def build():
            return mv.VinePoset.build(items)

        def check_omega(g):
            got = {frozenset(e): k for e, k in g.labels.items()}
            return None if got == expected else "omega does not give the vine's graph"

        def check_roundtrip(res):
            return None if res.verdict.ok else f"roundtrip failed: {res.verdict.violation}"

        def check_classify(c):
            return None if c.kind == kind else f"classified {c.kind.name}, expected {kind.name}"

        def join(p):
            found = mv.join_and_paths(p, i, j)
            return found, (None if found is None else p.rank_of[found.join])

        def check_join(res):
            found, rank = res
            label = expected.get(frozenset((i, j)))
            if (found is None) != (label is None):
                return f"join of {i},{j} is {found} for edge label {label}"
            if label is not None and rank != label + 1:
                return f"join of {i},{j} has rank {rank}, edge label {label}"
            return None

        return [
            ("convert", f"omega vine n={n}", lambda: mv.omega(build()), check_omega),
            ("convert", f"roundtrip_check vine n={n}",
             lambda: mv.roundtrip_check(build()), check_roundtrip),
            ("convert", f"classify vine n={n}", lambda: mv.classify(build()), check_classify),
            ("convert", f"join_and_paths vine n={n}", lambda: join(build()), check_join),
        ]

    def _standard_ops(self, kind: str, dim: int):
        mv = self.mv

        def build():
            return mv.build_standard(kind, dim)

        def check_classify(c):
            return None if c.kind == mv.VineClass.R_VINE else f"classified {c.kind.name}"

        def check_omega(g):
            if len(g.vertices) != dim or not g.is_complete():
                return f"omega gives {len(g.vertices)} vertices, complete={g.is_complete()}"
            verdict = mv.check_mat_labeling(g)
            return None if verdict.ok else f"omega gives an invalid labeling: {verdict.violation}"

        def check_roundtrip(res):
            return None if res.verdict.ok else f"roundtrip failed: {res.verdict.violation}"

        return [
            ("convert", f"classify {kind}({dim})", lambda: mv.classify(build()), check_classify),
            ("convert", f"omega {kind}({dim})", lambda: mv.omega(build()), check_omega),
            ("convert", f"roundtrip_check {kind}({dim})",
             lambda: mv.roundtrip_check(build()), check_roundtrip),
        ]

    def _construct_ops(self, rng: random.Random, n: int):
        mv = self.mv
        graph = inputs.random_ideal(rng, inputs.random_tower(rng, n), rng.uniform(0.5, 0.9))
        vine = inputs.random_ideal(rng, inputs.random_tower(rng, n), rng.uniform(0.5, 0.9))
        pair = inputs.random_merge_pair(rng, n, rng.randint(max(2, n - 6), n - 2))
        given = _edge_map(graph.labeled_edges)

        def check_complete(g, restricts_to: list[dict[frozenset, int]]):
            if not g.is_complete():
                return "result is not complete"
            labels = {frozenset(e): k for e, k in g.labels.items()}
            for part in restricts_to:
                if any(labels.get(e) != k for e, k in part.items()):
                    return "result does not restrict to the input"
            verdict = mv.check_mat_labeling(g)
            if not verdict.ok:
                return f"invalid result: {verdict.violation}"
            kind = mv.classify(mv.psi(g)).kind
            return None if kind == mv.VineClass.R_VINE else f"vine of the result is {kind.name}"

        def check_embed(res):
            target, morphism = res
            if mv.classify(target).kind != mv.VineClass.R_VINE:
                return f"target classified {mv.classify(target).kind.name}"
            if len(target.minimals) != n or len(morphism.mapping) != len(vine.vine_items):
                return "embedding has the wrong size"
            return check_complete(mv.omega(target), [])

        first = _edge_map(pair.first[1])
        second = _edge_map(pair.second[1])
        return [
            ("construct", f"extend_to_complete n={n}",
             lambda: mv.extend_to_complete(mv.LabeledGraph.build(graph.vertices,
                                                                 graph.labeled_edges)),
             lambda g: check_complete(g, [given])),
            ("construct", f"embed_in_r_vine n={n}",
             lambda: mv.embed_in_r_vine(mv.VinePoset.build(vine.vine_items)), check_embed),
            ("construct", f"merge_complete n={n}",
             lambda: mv.merge_complete(mv.LabeledGraph.build(*pair.first),
                                       mv.LabeledGraph.build(*pair.second)),
             lambda g: check_complete(g, [first, second])),
        ]

    def _find_labeling_op(self, rng: random.Random, n: int):
        mv = self.mv
        graph = mv.random_chordal_graph(rng, n)
        verts, edges = graph.vertices, graph.edges

        def check(found):
            plain = mv.Graph.build(verts, edges)
            strongly = mv.is_strongly_chordal(plain).ok
            if found is None:
                return "strongly chordal graph left unlabeled" if strongly else None
            if not strongly:
                return "labeling found for a graph that is not strongly chordal"
            if set(found.edges) != set(plain.edges):
                return "labeling changes the edges"
            verdict = mv.check_mat_labeling(found)
            return None if verdict.ok else f"invalid labeling: {verdict.violation}"

        return ("construct", f"find_mat_labeling n={n}",
                lambda: mv.find_mat_labeling(mv.Graph.build(verts, edges)), check)

    def _glue_op(self, pair: inputs.GraphPair):
        mv = self.mv
        expected = _edge_map(pair.first[1]) | _edge_map(pair.second[1])
        n = len(set(pair.first[0]) | set(pair.second[0]))

        def check(g):
            got = {frozenset(e): k for e, k in g.labels.items()}
            if got != expected or len(g.vertices) != n:
                return "glued graph is not the union of the pieces"
            verdict = mv.check_mat_labeling(g)
            return None if verdict.ok else f"invalid result: {verdict.violation}"

        return ("construct", f"glue n={n}",
                lambda: mv.glue(mv.LabeledGraph.build(*pair.first),
                                mv.LabeledGraph.build(*pair.second)), check)


# --------------------------------------------------------------------------
# cli

CLI_FILE_SETS = 4
CLI_LAUNCH = "from matvines.cli import entry_point; entry_point()"


def _graph_doc(ideal: inputs.Ideal) -> dict:
    return {"format": "mat-graph/v1", "vertices": list(ideal.vertices),
            "edges": [[u, v, k] for u, v, k in ideal.labeled_edges]}


def _vine_doc(ideal: inputs.Ideal) -> dict:
    return {"format": "vine/v1",
            "nodes": [{"id": i, "rank": r, "covers": list(c)} for i, r, c in ideal.vine_items]}


class Cli:
    """``matvines`` commands as separate processes, one at a time: the only
    workload that pays for interpreter start, ``import matvines`` and the
    ``io``/``cli`` front end."""

    # whose peak memory counts: the largest command process
    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.work = work
        self.shim: Path | None = None
        self.span_files: list[Path] = []
        self.sets: list[dict] = []

    def prepare(self, seed: int) -> None:
        rng = random.Random(seed)
        self.work.mkdir(parents=True, exist_ok=True)
        self.sets = []
        for s in range(CLI_FILE_SETS):
            graph = inputs.random_ideal(rng, inputs.random_tower(rng, rng.randint(7, 9)),
                                        rng.uniform(0.5, 0.9))
            vine = inputs.random_ideal(rng, inputs.random_tower(rng, rng.randint(6, 8)),
                                       rng.uniform(0.5, 0.9))
            small = inputs.random_ideal(rng, inputs.random_tower(rng, 5), rng.uniform(0.5, 0.9))
            files = {"graph": f"graph{s}.json", "vine": f"vine{s}.json",
                     "small": f"small{s}.json"}
            (self.work / files["graph"]).write_text(json.dumps(_graph_doc(graph)) + "\n")
            (self.work / files["vine"]).write_text(json.dumps(_vine_doc(vine)) + "\n")
            (self.work / files["small"]).write_text(json.dumps(_vine_doc(small)) + "\n")
            self.sets.append({"files": files, "graph": graph, "vine": vine})
        self._command(["enumerate", "3"], lambda doc: None)

    def run_job(self, index: int, outcomes: list[Outcome]) -> None:
        entry = self.sets[index % len(self.sets)]
        files, graph, vine = entry["files"], entry["graph"], entry["vine"]
        psi_out, omega_out = "psi_out.json", "omega_out.json"
        n = graph.n
        expected_omega = _edge_map(vine.labeled_edges)

        def check_check(doc):
            return None if doc.get("ok") is True else f"check says {doc}"

        def check_psi(doc):
            if doc.get("roundtrip", {}).get("ok") is not True:
                return f"roundtrip verdict {doc.get('roundtrip')}"
            out = json.loads((self.work / psi_out).read_text())
            if out.get("format") != "vine/v1" or len(out["nodes"]) != n + len(graph.labeled_edges):
                return "psi output is not the expected vine"
            return None

        def check_omega(doc):
            out = json.loads((self.work / omega_out).read_text())
            got = {frozenset((u, v)): k for u, v, k in out.get("edges", [])}
            return None if got == expected_omega else "omega output is not the vine's graph"

        def check_canon(doc):
            return canonical_form_problem(doc["canonical"], n, graph.labeled_edges)

        def check_ideals(doc):
            a, f = doc.get("all"), doc.get("full_support")
            if not (isinstance(a, int) and isinstance(f, int) and a >= f >= 1):
                return f"ideal counts {doc}"
            return None

        def check_enumerate(doc):
            if doc.get("class_count") != 6 or doc.get("formula_count") != 6:
                return f"enumerate 5 says {doc}"
            return None

        commands = [
            (["check", files["graph"]], check_check),
            (["convert", "--psi", files["graph"], "--out", psi_out, "--roundtrip"], check_psi),
            (["convert", "--omega", files["vine"], "--out", omega_out], check_omega),
            (["canon", files["graph"]], check_canon),
            (["count-ideals", files["small"]], check_ideals),
            (["enumerate", "5"], check_enumerate),
        ]
        for argv, check in commands:
            outcomes.append(self._command(argv, check))

    def _command(self, argv: list[str], check) -> Outcome:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if self.shim is None:
            cmd = [sys.executable, "-c", CLI_LAUNCH, *argv]
        else:
            spans = self.work / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            cmd = [sys.executable, str(self.shim), str(spans), *argv]
        label = "matvines " + " ".join(argv)
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=env, capture_output=True,
                                  text=True, timeout=PROCESS_DEADLINE_S)
        except subprocess.TimeoutExpired:
            return Outcome("proc", label, time.perf_counter() - start, "timeout",
                           f"over the {PROCESS_DEADLINE_S:g} s deadline")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            return Outcome("proc", label, elapsed, "failed",
                           f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            return Outcome("proc", label, elapsed, "wrong", f"stdout is not JSON: {exc}")
        try:
            problem = check(doc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"output check raised {type(exc).__name__}: {exc}"
        return Outcome("proc", label, elapsed, "wrong" if problem else "ok", problem or "")
