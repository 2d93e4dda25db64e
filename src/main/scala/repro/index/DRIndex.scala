package repro.index

import repro.cdd.{DistRange, Rule, ValueEq}
import repro.core.{Pivots, Record, Text}
import repro.impute.Repo

/** DR-index `I_R` (§5.1, Fig. 3): an aR-tree over the repository, each
  * sample converted to a d-dimensional point of main-pivot Jaccard
  * distances. Node aggregates carry (1) the keyword/topic set present under
  * the node, (2) per-attribute distance intervals to every pivot (main +
  * auxiliary), and (3) per-attribute token-set size intervals.
  *
  * `finderFor(r)` returns a finder of candidate sample indices for imputing
  * `r`, using triangle-inequality node pruning; candidates may contain false
  * positives (the imputer re-verifies) but never miss a satisfying sample.
  */
final class DRIndex(repo: Repo, pivots: Pivots, vocab: Set[String]) {
  import DRIndex._

  val d: Int = repo.d

  private val samplePoints: Array[Array[Double]] =
    Array.tabulate(repo.size) { i =>
      Array.tabulate(d)(x => Text.jdist(repo.tokenRows(i)(x), pivots.mainTokens(x)))
    }

  private def aggOf(i: Int): Agg = {
    val kw = repo.tokenRows(i).iterator.flatten.filter(vocab.contains).toSet
    val lo = Array.tabulate(d)(x =>
      Array.tabulate(pivots.nPivots(x))(a => Text.jdist(repo.tokenRows(i)(x), pivots.tokenSets(x)(a))))
    val hi = lo.map(_.clone())
    val sz = Array.tabulate(d)(x => repo.tokenRows(i)(x).size)
    Agg(kw, lo, hi, sz.clone(), sz)
  }

  val tree: ARTree[Int, Agg] =
    ARTree.build(d, repo.rows.indices.map(i => (MBR.point(samplePoints(i)), i)))(aggOf, mergeAgg)

  /** Leaf-visit count of the last query (complexity counter of §5.1). */
  @volatile var lastLeavesVisited: Int = 0

  /** Pivot distances of constant constraints are static per rule — memoize. */
  private val eqCache = new java.util.concurrent.ConcurrentHashMap[(Int, String), Array[Double]]()

  /** Imputation sample finder for record `r0`: prune nodes that cannot
    * contain any sample satisfying a rule's determinant constraints w.r.t.
    * the record (per-attribute pivot distances computed once, shared by
    * every rule application).
    */
  def finderFor(r0: Record): repro.impute.Imputer.SampleFinder = {
    val recDists: Array[Array[Double]] = Array.tabulate(d) { x =>
      r0.attrs(x) match {
        case Some(v) =>
          val rt = Text.tokens(v)
          Array.tabulate(pivots.nPivots(x))(a => Text.jdist(rt, pivots.tokenSets(x)(a)))
        case None => null
      }
    }
    (rule: Rule, r: Record) => {
      val checks: Seq[(Int, Constraint2)] = rule.det.toSeq.map {
        case (x, DistRange(lo, hi)) =>
          (x, RangeCheck(lo, hi, recDists(x)))
        case (x, v: ValueEq) =>
          val pd = eqCache.computeIfAbsent((x, v.v), { _ =>
            Array.tabulate(pivots.nPivots(x))(a => Text.jdist(v.tokens, pivots.tokenSets(x)(a)))
          })
          (x, EqCheck(pd))
      }
    val out = Vector.newBuilder[Int]
    lastLeavesVisited = tree.search(
      keepNode = (mbr, agg) => checks.forall {
        case (x, RangeCheck(lo, hi, pd)) =>
          // Samples s with lo ≤ dist(r[x], s[x]) ≤ hi must, for every pivot
          // a, have dist(s,piv_a) ∈ [pd(a)-hi, pd(a)+hi]; and reachable
          // distance max pd(a)+agg.hi must reach lo.
          (0 until pd.length).forall { a =>
            val (nLo, nHi) = if (a == 0) (mbr.lo(x), mbr.hi(x)) else (agg.lo(x)(a), agg.hi(x)(a))
            nHi >= pd(a) - hi - 1e-9 && nLo <= pd(a) + hi + 1e-9 && pd(a) + nHi >= lo - 1e-9
          }
        case (x, EqCheck(pd)) =>
          // Samples with s[x] = v have exactly dist(v, piv_a) on every pivot.
          (0 until pd.length).forall { a =>
            val (nLo, nHi) = if (a == 0) (mbr.lo(x), mbr.hi(x)) else (agg.lo(x)(a), agg.hi(x)(a))
            nLo <= pd(a) + 1e-9 && nHi >= pd(a) - 1e-9
          }
      },
      keepEntry = (_, _) => true,
    )(out += _)
    out.result().iterator
    }
  }
}

object DRIndex {
  /** Node aggregate: keyword set, per-attr per-pivot distance intervals,
    * per-attr token size intervals.
    */
  final case class Agg(
      kw: Set[String],
      lo: Array[Array[Double]],
      hi: Array[Array[Double]],
      sizeMin: Array[Int],
      sizeMax: Array[Int],
  )

  def mergeAgg(a: Agg, b: Agg): Agg = Agg(
    a.kw ++ b.kw,
    Array.tabulate(a.lo.length)(x => Array.tabulate(a.lo(x).length)(p => math.min(a.lo(x)(p), b.lo(x)(p)))),
    Array.tabulate(a.hi.length)(x => Array.tabulate(a.hi(x).length)(p => math.max(a.hi(x)(p), b.hi(x)(p)))),
    Array.tabulate(a.sizeMin.length)(x => math.min(a.sizeMin(x), b.sizeMin(x))),
    Array.tabulate(a.sizeMax.length)(x => math.max(a.sizeMax(x), b.sizeMax(x))),
  )

  private sealed trait Constraint2
  private final case class RangeCheck(lo: Double, hi: Double, pivDists: Array[Double]) extends Constraint2
  private final case class EqCheck(pivDists: Array[Double])                            extends Constraint2
}
