package repro.spark

import scala.collection.mutable
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.functions.{abs => sqlAbs}
import repro.cdd.Rule
import repro.core._
import repro.impute.{Imputer, Repo}

/** Row types crossing the Catalyst boundary. A `null` attribute element
  * encodes a missing value ("–" in the paper).
  */
final case class RecordRow(rid: Long, sid: Int, ts: Long, attrs: Seq[String]) {
  def toRecord: Record = Record(rid, sid, ts, attrs.map(Option(_)).toVector)
}
object RecordRow {
  def of(r: Record): RecordRow = RecordRow(r.rid, r.sid, r.ts, r.attrs.map(_.orNull))
}

final case class InstanceRow(attrs: Seq[String], p: Double)
final case class AttrAggRow(sizeMin: Int, sizeMax: Int,
                            distLo: Seq[Double], distHi: Seq[Double], distE: Seq[Double])

/** The window-state row: an imputed tuple plus every aggregate the pruning
  * filters read (§5.2 aggregates), Catalyst-encodable.
  */
final case class SketchRow(rid: Long, sid: Int, ts: Long, hasKw: Boolean,
                           kw: Seq[String], attrs: Seq[AttrAggRow], instances: Seq[InstanceRow]) {
  def toSketch: TupleSketch = {
    val inst  = instances.map(i => Instance(i.attrs.toVector, i.p)).toVector
    // attrDists are only needed for aggregate building, which already
    // happened — reconstruct a placeholder carrying the right arity.
    val dists = attrs.indices.map(j => Vector((inst.headOption.map(_.attrs(j)).getOrElse(""), 1.0))).toVector
    val t     = ImputedTuple(rid, sid, ts, dists, inst)
    TupleSketch(t, kw.toSet,
      attrs.map(a => AttrSketch(a.sizeMin, a.sizeMax, a.distLo.toArray, a.distHi.toArray, a.distE.toArray)).toVector)
  }
}

/** Pure per-row / per-pair functions shared between executor closures; they
  * capture only serializable inputs (rules, repository, pivots), never the
  * SparkSession.
  */
object SparkTER {

  /** Impute one record (Eqs. 3–4, linear rule/sample application — the same
    * frequency multiset the indexed engine verifies to) and sketch it.
    */
  def sketchRowOf(row: RecordRow, d: Int, rules: Seq[Rule], repo: Repo,
                  pivots: Pivots, vocab: Set[String], keywords: Set[String]): SketchRow = {
    val r = row.toRecord
    val imputed =
      if (r.isComplete) Imputer.imputeComplete(r)
      else Imputer.impute(r, rules, repo, Imputer.allSamples(repo))
    val sk = TupleSketch.of(imputed, pivots, vocab)
    SketchRow(
      r.rid, r.sid, r.ts,
      sk.hasAnyKeyword(keywords),
      sk.kw.toSeq.sorted,
      sk.attrs.map(a =>
        AttrAggRow(a.sizeMin, a.sizeMax, a.distLo.toIndexedSeq, a.distHi.toIndexedSeq, a.distE.toIndexedSeq)),
      imputed.instances.map(i => InstanceRow(i.attrs, i.p)),
    )
  }
}

/** Micro-batch TER-iDS as Spark dataflow (DESIGN.md "Layering note"):
  *
  *  - **imputation**: a map over the arriving micro-batch against the
  *    broadcast repository + rules (each task imputes its partition);
  *  - **matching**: a stateful theta-join of the micro-batch against the
  *    sliding-window state Dataset (different stream, both sides inside the
  *    other's count-based window, each pair evaluated once at the later
  *    arrival), with the keyword filter pushed down as a column predicate
  *    and the engine's pair decision, `Pruning.decide`, as a typed filter;
  *  - **state**: per-stream w most recent tuples, maintained across batches.
  *
  * The driver keeps the (small) window state materialized between batches —
  * the standard foreachBatch pattern for state that built-in stream-stream
  * joins cannot express (count-based windows + self-eviction).
  */
final class SparkTER(
    spark: SparkSession,
    d: Int,
    rules: Seq[Rule],
    repo: Repo,
    pivots: Pivots,
    vocab: Set[String],
    params: Params,
) {
  import spark.implicits._

  private var state: Array[SketchRow]        = Array.empty
  private val all                            = mutable.LinkedHashSet.empty[(Long, Long)]

  def windowState: Seq[SketchRow]   = state.toSeq
  def allMatches: Set[(Long, Long)] = all.toSet

  /** Process one micro-batch of arrivals; returns the new matching pairs. */
  def processBatch(records: Seq[RecordRow]): Set[(Long, Long)] = {
    if (records.isEmpty) return Set.empty
    val (rulesL, repoL, pivotsL, vocabL, kwL, dL) = (rules, repo, pivots, vocab, params.keywords, d)
    val (gammaL, alphaL, wL)                      = (params.gamma, params.alpha, params.w)

    val batchDS: Dataset[SketchRow] = spark
      .createDataset(records)
      .map(r => SparkTER.sketchRowOf(r, dL, rulesL, repoL, pivotsL, vocabL, kwL))
    val stateAll: Dataset[SketchRow] = spark.createDataset(state.toSeq).union(batchDS)

    // Each pair is evaluated once, when its later member arrives (q = the
    // later arrival); both members must be within w arrivals of each other
    // (count-based window, streams advancing in lockstep).
    val joined = batchDS
      .joinWith(
        stateAll,
        batchDS("sid") =!= stateAll("sid") &&
          (batchDS("hasKw") || stateAll("hasKw")) &&
          sqlAbs(batchDS("ts") - stateAll("ts")) < wL &&
          (stateAll("ts") < batchDS("ts") ||
            (stateAll("ts") === batchDS("ts") && stateAll("sid") < batchDS("sid"))),
        "inner",
      )
    val matched = joined
      .filter { qc: (SketchRow, SketchRow) =>
        Pruning.decide(qc._1.toSketch, qc._2.toSketch, kwL, gammaL, alphaL).matched
      }
      .map(qc => (math.min(qc._1.rid, qc._2.rid), math.max(qc._1.rid, qc._2.rid)))
      .collect()
      .toSet

    all ++= matched
    // New state: per-stream w most recent tuples.
    state = stateAll
      .groupByKey(_.sid)
      .flatMapGroups((_: Int, it: Iterator[SketchRow]) => it.toSeq.sortBy(-_.ts).take(wL).iterator)
      .collect()
      .sortBy(s => (s.sid, s.ts))
    matched
  }

  /** Drive equal-length interleaved streams in micro-batches of `batchTs`
    * timestamps each (one record per stream per timestamp).
    */
  def runStreams(streams: Seq[Seq[Record]], batchTs: Int): Set[(Long, Long)] = {
    val n = streams.map(_.size).max
    var t = 0
    while (t < n) {
      val hi    = math.min(n, t + batchTs)
      val batch = (t until hi).flatMap(ts => streams.flatMap(s => if (ts < s.size) Some(RecordRow.of(s(ts))) else None))
      processBatch(batch)
      t = hi
    }
    allMatches
  }
}
