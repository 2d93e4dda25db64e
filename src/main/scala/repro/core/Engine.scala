package repro.core

import scala.collection.mutable
import repro.cdd.Rule
import repro.impute.{Imputer, Repo}
import repro.index.{CDDIndex, DRIndex, ERGrid}

/** TER-iDS query parameters (problem statement, §2.3 + Table 5). */
final case class Params(keywords: Set[String], gamma: Double, alpha: Double, w: Int)

/** Which imputation method a configuration uses (§6.1 baselines). */
sealed trait ImputeKind
case object UseCDD  extends ImputeKind // CDD rules [19, 41]
case object UseDD   extends ImputeKind // DD rules [35]
case object UseEdit extends ImputeKind // editing rules [12]
case object UseCon  extends ImputeKind // constraint/window-based [43], no repository

/** Per-run counters: pruning power (Fig. 4), break-up cost (Fig. 6), and
  * wall-clock accounting (Figs. 5b, 7–10, 16–17). The pair counters are
  * written only by [[record]], so every decided pair lands in exactly one
  * outcome and the outcomes sum to [[pairsTotal]].
  */
final class RunStats {
  var steps: Long          = 0
  var cddSelectNanos: Long = 0
  var imputeNanos: Long    = 0
  var erNanos: Long        = 0

  private var nKeyword, nSim, nProb, nEarly, nFull, nMatched, nChecked: Long = 0

  def record(o: Pruning.Outcome): Unit = o match {
    case Pruning.KeywordPruned => nKeyword += 1
    case Pruning.SimPruned     => nSim += 1
    case Pruning.ProbPruned    => nProb += 1
    case r: Pruning.Refined =>
      nChecked += r.pairsChecked
      if (r.matched) nMatched += 1
      else if (r.earlyStopped) nEarly += 1
      else nFull += 1
  }

  def prunedKeyword: Long        = nKeyword
  def prunedSimUB: Long          = nSim
  def prunedProbUB: Long         = nProb
  def prunedInstancePair: Long   = nEarly
  def refinedFull: Long          = nFull
  def matchedPairs: Long         = nMatched
  def instancePairsChecked: Long = nChecked
  def pairsTotal: Long           = nKeyword + nSim + nProb + nEarly + nFull + nMatched

  def totalNanos: Long = cddSelectNanos + imputeNanos + erNanos
  def msPerStep: Double = if (steps == 0) 0 else totalNanos / 1e6 / steps
  def pruningPower: Map[String, Double] = {
    val t = math.max(1L, pairsTotal).toDouble
    Map(
      "keyword"       -> prunedKeyword / t,
      "simUB"         -> prunedSimUB / t,
      "probUB"        -> prunedProbUB / t,
      "instancePair"  -> prunedInstancePair / t,
    )
  }
}

/** The TER-iDS engine (Algorithms 1–2) and, via feature flags, every
  * baseline of §6.1:
  *
  *  - TER-iDS    = CDD-index + DR-index + ER-grid + all prunings (index join)
  *  - I_j + G_ER = CDD-index + linear repository scan + ER-grid + prunings
  *  - CDD + ER   = linear rule scan + linear repository + naive ER
  *  - DD + ER    = DD rules, otherwise naive
  *  - er + ER    = editing rules, otherwise naive
  *  - con + ER   = window-based imputation (no repository), naive ER
  *
  * `step(arrivals)` advances one timestamp: evicts expired tuples from each
  * stream's count-based window (Def. 2), imputes each arrival, finds its
  * matching candidates, prunes, refines, and maintains the entity set ES.
  */
final class Engine(
    val d: Int,
    rules: Seq[Rule],
    repoOpt: Option[Repo],
    pivots: Pivots,
    vocab: Set[String],
    val params: Params,
    useCddIndex: Boolean,
    useDrIndex: Boolean,
    useGrid: Boolean,
    usePruning: Boolean,
    imputeKind: ImputeKind,
    cellsPerDim: Int = 5,
) {
  require(imputeKind == UseCon || repoOpt.isDefined, "rule-based imputation needs a repository")

  val stats = new RunStats

  private val cddIndex: Option[CDDIndex] =
    if (useCddIndex) Some(new CDDIndex(rules, pivots, d)) else None
  private val drIndex: Option[DRIndex] =
    if (useDrIndex) repoOpt.map(new DRIndex(_, pivots, vocab)) else None
  private val grid: Option[ERGrid] =
    if (useGrid) Some(new ERGrid(d, cellsPerDim)) else None

  /** Per-stream sliding windows of (raw record, imputed sketch). */
  private val windows = mutable.Map.empty[Int, mutable.ArrayDeque[(Record, TupleSketch)]]

  /** Current entity set ES (pairs keyed (min rid, max rid)) + adjacency for
    * O(deg) removal on expiry, and the append-only union for the F-score.
    */
  private val es        = mutable.LinkedHashSet.empty[(Long, Long)]
  private val adjacency = mutable.Map.empty[Long, mutable.Set[Long]]
  private val allEver   = mutable.LinkedHashSet.empty[(Long, Long)]

  def currentES: Set[(Long, Long)] = es.toSet
  def allMatches: Set[(Long, Long)] = allEver.toSet
  def windowSize(sid: Int): Int    = windows.get(sid).map(_.size).getOrElse(0)

  private def pairKey(a: Long, b: Long): (Long, Long) = if (a < b) (a, b) else (b, a)

  private def addMatch(a: Long, b: Long): Unit = {
    val k = pairKey(a, b)
    if (es.add(k)) {
      adjacency.getOrElseUpdate(a, mutable.Set.empty) += b
      adjacency.getOrElseUpdate(b, mutable.Set.empty) += a
    }
    allEver += k
  }

  private def evict(sid: Int): Unit = {
    val q = windows.getOrElseUpdate(sid, mutable.ArrayDeque.empty)
    while (q.size >= params.w) {
      val (rec, sk) = q.removeHead()
      grid.foreach(_.remove(sk))
      adjacency.remove(rec.rid).foreach { partners =>
        partners.foreach { p =>
          es.remove(pairKey(rec.rid, p))
          adjacency.get(p).foreach(_ -= rec.rid)
        }
      }
    }
  }

  /** Select the rules applicable to missing attribute j of r. */
  private def selectRules(r: Record, j: Int): Seq[Rule] = cddIndex match {
    case Some(idx) => idx.select(r, j)
    case None      => rules.filter(rule => rule.dep == j && rule.applicableTo(r))
  }

  private def imputeRecord(r: Record): ImputedTuple = {
    if (r.isComplete) return Imputer.imputeComplete(r)
    imputeKind match {
      case UseCon =>
        val complete = windows.get(r.sid).iterator.flatten
          .collect { case (rec, _) if rec.isComplete => (rec.ts, rec.attrs.map(_.get)) }
          .toVector
        Imputer.imputeFromWindow(r, complete)
      case _ =>
        val repo = repoOpt.get
        val t0   = System.nanoTime()
        val selected = r.missing.flatMap(j => selectRules(r, j))
        stats.cddSelectNanos += System.nanoTime() - t0
        // Index join: route each rule through the DR-index when its
        // constraints are selective there (constant constraints become
        // point queries); pure wide-range rules — and repositories small
        // enough that a sequential verify beats any tree traversal — fall
        // back to the scan. The paper's DR-index win materializes at its
        // |R| ~ 10^5 scale; the adaptive cutover keeps the index join from
        // being pure overhead at reproduction scale (see EXPERIMENTS.md).
        val finder: Imputer.SampleFinder = drIndex match {
          case Some(idx) if repo.size >= Engine.DrIndexMinRepo =>
            val ixf  = idx.finderFor(r)
            val scan = Imputer.allSamples(repo)
            (rule, rec) =>
              if (rule.det.valuesIterator.exists(_.isInstanceOf[repro.cdd.ValueEq])) ixf(rule, rec)
              else scan(rule, rec)
          case _ => Imputer.allSamples(repo)
        }
        // The neighbor memo table belongs to the index infrastructure;
        // naive baselines rescan the domain like the straightforward
        // method (§2.3).
        Imputer.impute(r, selected, repo, finder, cached = usePruning)
    }
  }

  /** Candidate matching for one arrival against the current windows. */
  private def matchArrival(q: TupleSketch): Unit = {
    val k     = params.keywords
    val gamma = params.gamma
    val alpha = params.alpha

    def tupleLevel(c: TupleSketch): Unit = {
      val o =
        if (usePruning) Pruning.decide(q, c, k, gamma, alpha)
        else {
          // The straightforward method: exact Eq. 2, no bound, no early stop.
          val (pr, checked) = Pruning.prExact(q.t, c.t, k, gamma)
          Pruning.Refined(pr > alpha, earlyStopped = false, checked, pr)
        }
      stats.record(o)
      if (o.matched) addMatch(q.rid, c.rid)
    }

    grid match {
      case Some(g) if usePruning =>
        val qHasKw = q.hasAnyKeyword(k)
        // Only tuples spanning several cells need dedup; point tuples
        // (complete on every attribute) live in exactly one cell.
        val visited = mutable.HashSet.empty[Long]
        g.nonEmptyCells.foreach { case (agg, members) =>
          // Cell-level prunes: aggregates bound every member, so a pruned
          // cell prunes all its members (soundness argued in DESIGN.md).
          val cellKwPruned  = !qHasKw && !agg.hasAnyKeyword(k)
          val cellSimPruned = !cellKwPruned && cellSimUB(q, agg) <= gamma
          var i = 0
          while (i < members.length) {
            val e = members(i)
            if (e.sk.sid != q.sid && (!e.multiCell || visited.add(e.sk.rid))) {
              if (cellKwPruned) stats.record(Pruning.KeywordPruned)
              else if (cellSimPruned) stats.record(Pruning.SimPruned)
              else tupleLevel(e.sk)
            }
            i += 1
          }
        }
      case _ =>
        windows.valuesIterator.flatten.foreach { case (_, c) =>
          if (c.sid != q.sid) tupleLevel(c)
        }
    }
  }

  /** Cell-level similarity upper bound: min of Lemma 4.1 (size intervals)
    * and Lemma 4.2 (pivot-distance intervals) against the cell aggregate.
    */
  private def cellSimUB(q: TupleSketch, agg: ERGrid.CellAgg): Double = {
    var bySize = 0.0
    var byPiv  = 0.0
    var j      = 0
    while (j < d) {
      val a = q.attrs(j)
      bySize += Pruning.ubSimSizeAttr(a.sizeMin, a.sizeMax, agg.sizeMin(j), agg.sizeMax(j))
      byPiv += Pruning.ubSimPivotAttr(a.distLo, a.distHi, agg.lo(j), agg.hi(j))
      j += 1
    }
    math.min(bySize, byPiv)
  }

  /** Advance one timestamp with one arrival per (subset of) stream(s). */
  def step(arrivals: Seq[Record]): Unit = {
    stats.steps += 1
    arrivals.foreach(r => evict(r.sid))
    arrivals.foreach { r =>
      val cddBefore = stats.cddSelectNanos
      val t0 = System.nanoTime()
      val imputed = imputeRecord(r)
      val sk      = TupleSketch.of(imputed, pivots, vocab)
      // imputeRecord internally charges rule selection to cddSelectNanos;
      // keep the two break-up buckets disjoint (Fig. 6).
      stats.imputeNanos += (System.nanoTime() - t0) - (stats.cddSelectNanos - cddBefore)
      val t1 = System.nanoTime()
      matchArrival(sk)
      stats.erNanos += System.nanoTime() - t1
      windows.getOrElseUpdate(r.sid, mutable.ArrayDeque.empty) += ((r, sk))
      grid.foreach(_.insert(sk))
    }
  }

  /** Run a full interleaved stream (one record per stream per timestamp). */
  def run(streams: Seq[Seq[Record]], maxSteps: Int = Int.MaxValue): Unit = {
    val n = math.min(streams.map(_.size).max, maxSteps)
    var t = 0
    while (t < n) {
      step(streams.flatMap(s => if (t < s.size) Some(s(t)) else None))
      t += 1
    }
  }
}

object Engine {
  /** Below this repository size a verified sequential scan beats any tree
    * traversal, so the index join routes sample retrieval to the scan.
    */
  val DrIndexMinRepo = 1500
}
