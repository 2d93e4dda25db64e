package repro.impute

import repro.cdd.Rule
import repro.core.{ImputedTuple, Instance, Record, Text}

/** CDD-based imputation of incomplete tuples (§3, Eqs. 3–4), plus the
  * window-based imputer used by the `con+ER` baseline [43].
  *
  * For each missing attribute `A_j`, every applicable rule `X → A_j`
  * contributes, for every repository sample `s` satisfying its determinant
  * constraints w.r.t. `r`, the candidate set `cand(s[A_j])` = domain values
  * within the rule's dependent interval of `s[A_j]`. Candidate frequencies
  * are summed over all rules (Eq. 4) and normalized into existence
  * probabilities.
  *
  * Each imputed arrival keeps one `DetDistances` table, shared by
  * its missing attributes: a determinant distance `dist(r[A_x], s[A_x])`
  * depends only on the sample's domain value, so it is computed once per
  * (attribute, domain value) instead of once per (rule, sample).
  *
  * Deviation (documented in DESIGN.md §3, item 5): the per-attribute distribution
  * keeps the top [[Imputer.MaxValuesPerAttr]] values and the instance cross
  * product keeps the top [[Imputer.MaxInstances]] instances, both in
  * deterministic (-p, value) order, so `Σ p ≤ 1` (Def. 4) holds.
  */
object Imputer {
  val MaxValuesPerAttr = 8
  val MaxInstances     = 16

  /** Candidate sample indices for (rule, record) — the DR-index plugs in
    * here; the naive engines pass every index. The imputer re-verifies each
    * candidate, so finders may return false positives but must not miss any
    * truly satisfying sample.
    */
  type SampleFinder = (Rule, Record) => Iterator[Int]

  def allSamples(repo: Repo): SampleFinder = (_, _) => repo.rows.indices.iterator

  private def recordTokens(r: Record): Int => Set[String] = {
    val ts = r.attrs.map(_.map(Text.tokens).getOrElse(Set.empty[String]))
    j => ts(j)
  }

  /** Determinant distances of one arrival: `apply(x, si)` is
    * `dist(r[A_x], s_si[A_x])`, looked up by the sample's domain index and
    * computed from `domTokens` the first time that value is checked (NaN
    * marks "not computed"; `Text.jdist` never returns NaN). The domain
    * value's token set is the sample's, so every distance is the one the
    * per-sample Jaccard would give, bit for bit. Lives as long as the
    * arrival's imputation.
    */
  private final class DetDistances(rTok: Int => Set[String], repo: Repo) {
    private val byAttr = new Array[Array[Double]](repo.d)

    def apply(x: Int, si: Int): Double = {
      var t = byAttr(x)
      if (t == null) {
        t = Array.fill(repo.doms(x).size)(Double.NaN)
        byAttr(x) = t
      }
      val di = repo.rowDom(x)(si)
      var dd = t(di)
      if (java.lang.Double.isNaN(dd)) {
        dd = Text.jdist(rTok(x), repo.domTokens(x)(di))
        t(di) = dd
      }
      dd
    }
  }

  /** Imputed value distribution for missing attribute j of r (Eq. 4).
    * `cached = false` recomputes every `cand(s[A_j])` domain scan and every
    * determinant Jaccard — the straightforward method's behavior (the memo
    * table and the distance table are part of our index/synopsis
    * infrastructure, withheld from the naive baselines).
    */
  def valueDistribution(r: Record, j: Int, rules: Seq[Rule], repo: Repo,
                        finder: SampleFinder, cached: Boolean = true): Vector[(String, Double)] = {
    val rTok = recordTokens(r)
    distribution(r, j, rules, repo, finder, rTok, if (cached) new DetDistances(rTok, repo) else null)
  }

  /** Eq. 4 for attribute j; `table == null` selects the uncached path. */
  private def distribution(r: Record, j: Int, rules: Seq[Rule], repo: Repo, finder: SampleFinder,
                           rTok: Int => Set[String], table: DetDistances): Vector[(String, Double)] = {
    val freq = new Array[Long](repo.doms(j).size) // Eq. 4 multiset over dom(A_j)
    rules.iterator.filter(rule => rule.dep == j && rule.applicableTo(r)).foreach { rule =>
      finder(rule, r).foreach { si =>
        val sTok = repo.tokenRows(si)
        val ok =
          if (table == null) rule.satisfiedBy(rTok, sTok)
          else rule.satisfiedBy(rTok, sTok, x => table(x, si))
        if (ok) {
          if (rule.depHi <= 1e-12) {
            // Editing-rule semantics: copy the sample's dependent value.
            freq(repo.rowDom(j)(si)) += 1L
          } else {
            val cand =
              if (table != null) repo.candidates(j, repo.rows(si)(j), rule.depLo, rule.depHi)
              else repo.candidatesUncached(j, repo.rows(si)(j), rule.depLo, rule.depHi)
            var c = 0
            while (c < cand.length) { freq(cand(c)) += 1L; c += 1 }
          }
        }
      }
    }
    normalize(freq, repo, r.rid, j)
  }

  /** When no rule/sample can impute an attribute, the paper's tuple simply
    * has no usable value there. A unique per-(tuple, attribute) sentinel
    * token keeps that semantics: it matches nothing (two failed imputations
    * must not look identical, which empty strings would — `J(∅,∅)=1`).
    */
  def missSentinel(rid: Long, j: Int): String = s"xmiss${rid}a$j"

  private def normalize(freq: Array[Long], repo: Repo, rid: Long, j: Int): Vector[(String, Double)] = {
    var total = 0L
    var i     = 0
    while (i < freq.length) { total += freq(i); i += 1 }
    if (total == 0L) Vector((missSentinel(rid, j), 1.0))
    else {
      val b = Vector.newBuilder[(String, Double)]
      i = 0
      while (i < freq.length) {
        if (freq(i) > 0) b += ((repo.doms(j)(i), freq(i).toDouble / total))
        i += 1
      }
      b.result()
        .sortBy { case (v, p) => (-p, v) }
        .take(MaxValuesPerAttr)
    }
  }

  /** Cross product of per-attribute distributions, capped deterministically. */
  def assembleInstances(attrDists: Vector[Vector[(String, Double)]]): Vector[Instance] = {
    var combos: Vector[(Vector[String], Double)] = Vector((Vector.empty, 1.0))
    attrDists.foreach { dist =>
      combos = for ((pre, p) <- combos; (v, vp) <- dist) yield (pre :+ v, p * vp)
      // Keep the cap bounded between attributes too; sound because we only
      // ever drop (never re-weight) instances, preserving Σp ≤ 1.
      if (combos.size > MaxInstances * MaxValuesPerAttr)
        combos = combos.sortBy { case (vs, p) => (-p, vs.mkString("")) }.take(MaxInstances * MaxValuesPerAttr)
    }
    combos
      .sortBy { case (vs, p) => (-p, vs.mkString("")) }
      .take(MaxInstances)
      .map { case (vs, p) => Instance(vs, p) }
  }

  /** Full imputation of a record: each missing attribute draws on the
    * applicable rules among `rules` that impute it ([[valueDistribution]]).
    */
  def impute(r: Record, rules: Seq[Rule], repo: Repo, finder: SampleFinder,
             cached: Boolean = true): ImputedTuple = {
    val rTok  = recordTokens(r)
    val table = if (cached) new DetDistances(rTok, repo) else null // shared by every missing attribute
    val dists = r.attrs.indices.map { j =>
      r.attrs(j) match {
        case Some(v) => Vector((v, 1.0))
        case None    => distribution(r, j, rules, repo, finder, rTok, table)
      }
    }.toVector
    ImputedTuple(r.rid, r.sid, r.ts, dists, assembleInstances(dists))
  }

  /** A complete record is its own single-instance imputed tuple. */
  def imputeComplete(r: Record): ImputedTuple = {
    require(r.isComplete, s"record ${r.rid} has missing attributes")
    val dists = r.attrs.map(v => Vector((v.get, 1.0)))
    ImputedTuple(r.rid, r.sid, r.ts, dists, Vector(Instance(r.attrs.map(_.get), 1.0)))
  }

  /** `con+ER` imputation [43]: the cited constraint-based cleaner repairs a
    * value from its *sequential* neighbors under distance constraints; on
    * textual streams that amounts to copying from the most recent complete
    * tuple of the same stream — no repository access and, per the paper's
    * observation, no semantic association between attribute values (hence
    * its constant cost and worst accuracy in Fig. 5).
    */
  def imputeFromWindow(r: Record, windowComplete: Iterable[(Long, Vector[String])]): ImputedTuple = {
    var best: Vector[String] = null
    var bestTs               = Long.MinValue
    windowComplete.foreach { case (ts, cand) =>
      if (ts >= bestTs) { bestTs = ts; best = cand }
    }
    val dists = r.attrs.indices.map { j =>
      r.attrs(j) match {
        case Some(v)              => Vector((v, 1.0))
        case None if best != null => Vector((best(j), 1.0))
        case None                 => Vector((missSentinel(r.rid, j), 1.0))
      }
    }.toVector
    ImputedTuple(r.rid, r.sid, r.ts, dists, assembleInstances(dists))
  }
}
