package repro.perfbench

import scala.collection.mutable
import repro.cdd.{Rule, ValueEq}
import repro.core._
import repro.impute.{Imputer, Repo}
import repro.index.{CDDIndex, DRIndex, ERGrid}

/** Layers the traced replay attributes time to. Each span's self time is
  * its duration minus the time of the spans it encloses, so the self times
  * of all layers sum exactly to the traced total.
  */
object Layer {
  val Step         = 0 // root span of one timestamp; self = replay bookkeeping
  val Evict        = 1
  val GridRemove   = 2
  val CddSelect    = 3
  val Retrieve     = 4
  val Expand       = 5
  val Assemble     = 6
  val Sketch       = 7
  val GridScan     = 8
  val Enum         = 9
  val Bounds       = 10
  val Refine       = 11
  val GridInsert   = 12
  val Count        = 13

  /** Metric name of each layer's self time. */
  val metric: Vector[String] = Vector(
    "trace.other_ns", "window.evict_ns", "ergrid.remove_ns", "cddindex.select_ns", "retrieve.ns",
    "impute.expand_ns", "impute.assemble_ns", "sketch.ns", "ergrid.scan_ns", "enum.ns", "bounds.ns",
    "refine.ns", "ergrid.insert_ns")

  /** Turning a raw record into a sketch (Eqs. 3–4, §5.2 aggregates). */
  val imputeSide: Seq[Int] = Seq(CddSelect, Retrieve, Expand, Assemble, Sketch)

  /** Window maintenance, candidate enumeration, pruning and refinement. */
  val erSide: Seq[Int] = Seq(Evict, GridRemove, GridScan, Enum, Bounds, Refine, GridInsert)
}

/** Span recorder: a stack of open spans, per-layer self-time accumulators,
  * and one row per root span (the timestamp; its arrivals share it as their
  * request identifier) holding that step's per-layer self times.
  */
final class Tracer {
  val selfNs: Array[Long]       = new Array[Long](Layer.Count)
  private val start             = new Array[Long](64)
  private val layer             = new Array[Int](64)
  private val child             = new Array[Long](64)
  private var depth             = 0
  private var rootSelf0         = new Array[Long](Layer.Count)
  val steps: mutable.ArrayBuffer[(Long, Long, Long, Array[Long])] = mutable.ArrayBuffer.empty

  def begin(l: Int): Unit = {
    if (depth == 0) rootSelf0 = selfNs.clone()
    layer(depth) = l
    child(depth) = 0L
    start(depth) = System.nanoTime()
    depth += 1
  }

  /** Close the innermost span; returns its end time. */
  def end(): Long = {
    val t = System.nanoTime()
    depth -= 1
    val dur = t - start(depth)
    selfNs(layer(depth)) += dur - child(depth)
    if (depth > 0) child(depth - 1) += dur
    t
  }

  /** Close a root span and log it as the span of timestamp `ts`. */
  def endStep(ts: Long): Unit = {
    val s = start(0)
    val e = end()
    steps += ((ts, s, e, Array.tabulate(Layer.Count)(i => selfNs(i) - rootSelf0(i))))
  }

  def totalNs: Long = selfNs.sum
}

/** Work counters of the traced replay: `RunStats`' pair outcomes plus one
  * set of counters per layer.
  */
final class ReplayCounters {
  var steps, pairsTotal, prunedKeyword, prunedSimUB, prunedProbUB, prunedInstancePair,
      refinedFull, matchedPairs, instancePairsChecked: Long = 0
  var cddCalls, cddRulesSelected, cddLeaves: Long                    = 0
  var retrieveCalls, retrieveIndexCalls, samplesReturned, drLeaves: Long = 0
  var imputed, instances, capHits, sketchCalls: Long                 = 0
  var cellsVisited, cellsPruned, cellsDirtied, cellsRebuilt, membersVisited: Long = 0
  var refineCalls, refineEarly, refineMatched: Long                  = 0

  /** The counters `RunStats` also keeps, in `RunStats` order. */
  def pairOutcomes: Vector[Long] = Vector(pairsTotal, prunedKeyword, prunedSimUB, prunedProbUB,
    prunedInstancePair, refinedFull, matchedPairs, instancePairsChecked)
}

object ReplayCounters {
  def pairOutcomes(s: RunStats): Vector[Long] = Vector(s.pairsTotal, s.prunedKeyword, s.prunedSimUB,
    s.prunedProbUB, s.prunedInstancePair, s.refinedFull, s.matchedPairs, s.instancePairsChecked)
}

/** A bench-side replay of `Engine.step` in its TER-iDS configuration
  * (CDD-index, DR-index, ER-grid, all prunings), built only from the public
  * calls of each layer, with a span and counters around every call. It must
  * reproduce the engine's match set and pair-outcome counters exactly.
  */
final class TracedReplay(d: Int, rules: Seq[Rule], repo: Repo, pivots: Pivots,
                         vocab: Set[String], params: Params, val tr: Tracer) {
  import Layer._

  val c = new ReplayCounters

  private val cddIndex = new CDDIndex(rules, pivots, d)
  private val drIndex  = new DRIndex(repo, pivots, vocab)
  private val grid     = new ERGrid(d, TracedReplay.CellsPerDim)
  private val useIndex = repo.size >= Engine.DrIndexMinRepo

  /** Per-stream windows of (record, sketch, number of grid cells it occupies). */
  private val windows   = mutable.Map.empty[Int, mutable.ArrayDeque[(Record, TupleSketch, Int)]]
  private val es        = mutable.LinkedHashSet.empty[(Long, Long)]
  private val adjacency = mutable.Map.empty[Long, mutable.Set[Long]]
  private val allEver   = mutable.LinkedHashSet.empty[(Long, Long)]
  /** Last aggregate seen per cell (keyed by the cell's member buffer). */
  private val lastAgg   = new java.util.IdentityHashMap[AnyRef, AnyRef]()

  def allMatches: Set[(Long, Long)] = allEver.toSet

  private def pairKey(a: Long, b: Long): (Long, Long) = if (a < b) (a, b) else (b, a)

  private def addMatch(a: Long, b: Long): Unit = {
    val k = pairKey(a, b)
    if (es.add(k)) {
      adjacency.getOrElseUpdate(a, mutable.Set.empty) += b
      adjacency.getOrElseUpdate(b, mutable.Set.empty) += a
      c.matchedPairs += 1
    }
    allEver += k
  }

  private def evict(sid: Int): Unit = {
    val q = windows.getOrElseUpdate(sid, mutable.ArrayDeque.empty)
    tr.begin(Evict)
    while (q.size >= params.w) {
      val (rec, sk, nCells) = q.removeHead()
      tr.begin(GridRemove); grid.remove(sk); tr.end()
      c.cellsDirtied += nCells
      adjacency.remove(rec.rid).foreach { partners =>
        partners.foreach { p =>
          es.remove(pairKey(rec.rid, p))
          adjacency.get(p).foreach(_ -= rec.rid)
        }
      }
    }
    tr.end()
  }

  /** Times one finder call; the returned iterator is drained inside
    * `valueDistribution`, so verifying samples stays in `impute.expand`.
    */
  private def timedFinder(f: Imputer.SampleFinder, index: Boolean): Imputer.SampleFinder = (rule, rec) => {
    tr.begin(Retrieve)
    val it = f(rule, rec)
    tr.end()
    c.retrieveCalls += 1
    if (index) { c.retrieveIndexCalls += 1; c.drLeaves += drIndex.lastLeavesVisited }
    val k = it.knownSize
    if (k >= 0) { c.samplesReturned += k; it }
    else it.map { i => c.samplesReturned += 1; i }
  }

  private def impute(r: Record): ImputedTuple = {
    if (r.isComplete) {
      tr.begin(Assemble)
      val t = Imputer.imputeComplete(r)
      tr.end()
      return t
    }
    c.imputed += 1
    val selected = r.missing.map { j =>
      tr.begin(CddSelect)
      val rs = cddIndex.select(r, j)
      tr.end()
      c.cddCalls += 1
      c.cddRulesSelected += rs.size
      c.cddLeaves += cddIndex.lastLeavesVisited
      j -> rs
    }.toMap
    val scan = timedFinder(Imputer.allSamples(repo), index = false)
    val finder: Imputer.SampleFinder =
      if (useIndex) {
        tr.begin(Retrieve)
        val ixf = timedFinder(drIndex.finderFor(r), index = true)
        tr.end()
        (rule, rec) =>
          if (rule.det.valuesIterator.exists(_.isInstanceOf[ValueEq])) ixf(rule, rec) else scan(rule, rec)
      } else scan
    val dists = r.attrs.indices.map { j =>
      r.attrs(j) match {
        case Some(v) => Vector((v, 1.0))
        case None =>
          tr.begin(Expand)
          val dist = Imputer.valueDistribution(r, j, selected(j), repo, finder, cached = true)
          tr.end()
          dist
      }
    }.toVector
    tr.begin(Assemble)
    val inst = Imputer.assembleInstances(dists)
    tr.end()
    c.instances += inst.size
    if (dists.iterator.map(_.size.toLong).product > Imputer.MaxInstances) c.capHits += 1
    ImputedTuple(r.rid, r.sid, r.ts, dists, inst)
  }

  private def tupleLevel(q: TupleSketch, qHasKw: Boolean, cand: TupleSketch): Unit = {
    val k     = params.keywords
    val gamma = params.gamma
    val alpha = params.alpha
    c.pairsTotal += 1
    tr.begin(Bounds)
    if (!qHasKw && !cand.hasAnyKeyword(k)) { tr.end(); c.prunedKeyword += 1; return }
    if (Pruning.ubSimBySize(q, cand) <= gamma || Pruning.ubSimByPivot(q, cand) <= gamma) {
      tr.end(); c.prunedSimUB += 1; return
    }
    if (Pruning.probUpperBound(q, cand, gamma) <= alpha) { tr.end(); c.prunedProbUB += 1; return }
    tr.end()
    tr.begin(Refine)
    val r = Pruning.refine(q.t, cand.t, k, gamma, alpha)
    tr.end()
    c.refineCalls += 1
    c.instancePairsChecked += r.pairsChecked
    if (r.earlyStopped) c.refineEarly += 1
    if (r.matched) { c.refineMatched += 1; addMatch(q.rid, cand.rid) }
    else if (r.earlyStopped) c.prunedInstancePair += 1
    else c.refinedFull += 1
  }

  /** The engine's cell-level similarity bound (Lemmas 4.1–4.2 against a
    * cell aggregate), restated from the public per-attribute terms.
    */
  private def cellSimUB(q: TupleSketch, agg: ERGrid.CellAgg): Double = {
    var bySize = 0.0
    var byPiv  = 0.0
    var j      = 0
    while (j < d) {
      val a = q.attrs(j)
      bySize += Pruning.ubSimSizeAttr(a.sizeMin, a.sizeMax, agg.sizeMin(j), agg.sizeMax(j))
      val nPiv = math.min(a.distLo.size, agg.lo(j).length)
      var gap  = 0.0
      var p    = 0
      while (p < nPiv) {
        val g = Pruning.minDistGap(a.distLo(p), a.distHi(p), agg.lo(j)(p), agg.hi(j)(p))
        if (g > gap) gap = g
        p += 1
      }
      byPiv += 1.0 - gap
      j += 1
    }
    math.min(bySize, byPiv)
  }

  private def matchArrival(q: TupleSketch): Unit = {
    val k      = params.keywords
    val qHasKw = q.hasAnyKeyword(k)
    val visited = mutable.HashSet.empty[Long]
    tr.begin(Enum)
    val cells = grid.nonEmptyCells
    var more  = true
    while (more) {
      tr.begin(GridScan)
      more = cells.hasNext
      val cell = if (more) cells.next() else null
      tr.end()
      if (more) {
        val (agg, members) = cell
        c.cellsVisited += 1
        if (lastAgg.put(members, agg) ne agg) c.cellsRebuilt += 1
        tr.begin(Bounds)
        val cellKwPruned  = !qHasKw && !agg.hasAnyKeyword(k)
        val cellSimPruned = !cellKwPruned && cellSimUB(q, agg) <= params.gamma
        tr.end()
        if (cellKwPruned || cellSimPruned) c.cellsPruned += 1
        var i = 0
        while (i < members.length) {
          val e = members(i)
          c.membersVisited += 1
          if (e.sk.sid != q.sid && (!e.multiCell || visited.add(e.sk.rid))) {
            if (cellKwPruned) { c.pairsTotal += 1; c.prunedKeyword += 1 }
            else if (cellSimPruned) { c.pairsTotal += 1; c.prunedSimUB += 1 }
            else tupleLevel(q, qHasKw, e.sk)
          }
          i += 1
        }
      }
    }
    tr.end()
  }

  /** One timestamp, exactly as `Engine.step` orders it. */
  def step(arrivals: Seq[Record]): Unit = {
    tr.begin(Step)
    c.steps += 1
    arrivals.foreach(r => evict(r.sid))
    arrivals.foreach { r =>
      val imputed = impute(r)
      tr.begin(Sketch)
      val sk = TupleSketch.of(imputed, pivots, vocab)
      tr.end()
      c.sketchCalls += 1
      matchArrival(sk)
      val nCells = grid.cellIdsOf(sk).size
      windows.getOrElseUpdate(r.sid, mutable.ArrayDeque.empty) += ((r, sk, nCells))
      tr.begin(GridInsert); grid.insert(sk); tr.end()
      c.cellsDirtied += nCells
    }
    tr.endStep(arrivals.head.ts)
  }
}

object TracedReplay {
  /** `Engine`'s default grid resolution, which `Harness` builds with. */
  val CellsPerDim = 5
}
