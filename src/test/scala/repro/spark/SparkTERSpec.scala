package repro.spark

import repro.SparkSpec
import repro.core._
import repro.data.ERSynth
import repro.eval._
import repro.impute.Imputer

/** The Spark dataflow pipeline must produce exactly the same entity set as
  * the single-node engine — imputation shares the core code, the window
  * join implements the same count-based semantics, and all pruning filters
  * are the same sound theorems.
  */
class SparkTERSpec extends SparkSpec {

  private val cfg   = ExpConfig(ERSynth.Citations, w = 80, maxSteps = 150)
  private lazy val b = Harness.base(cfg.profile)

  private def mkSparkTer(): SparkTER = {
    val params = Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w)
    new SparkTER(spark, b.profile.d,
      Harness.rules(cfg.profile, cfg.eta, UseCDD),
      Harness.repo(cfg.profile, cfg.eta),
      Harness.pivots(cfg.profile, cfg.eta),
      b.topicVocab, params)
  }

  private lazy val streams = {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    Seq(sa.take(cfg.maxSteps), sb.take(cfg.maxSteps))
  }

  private lazy val coreFound = {
    val eng = Harness.engineFor(TERiDS, cfg)
    eng.run(streams, cfg.maxSteps)
    eng.allMatches
  }

  test("micro-batch Spark pipeline equals the core engine (batch = 1 timestamp)") {
    val ter = mkSparkTer()
    assert(ter.runStreams(streams, batchTs = 75) == coreFound)
  }

  test("batch size does not change the result (stateful join is window-exact)") {
    val t1 = mkSparkTer()
    val r1 = t1.runStreams(streams, batchTs = 10)
    val t2 = mkSparkTer()
    val r2 = t2.runStreams(streams, batchTs = 37)
    assert(r1 == r2)
    assert(r1 == coreFound)
  }

  test("window state never exceeds w per stream") {
    val ter = mkSparkTer()
    ter.runStreams(streams, batchTs = 50)
    val bySid = ter.windowState.groupBy(_.sid)
    bySid.values.foreach(s => assert(s.size <= cfg.w))
  }

  test("sketch rows round-trip the pruning aggregates") {
    val ter = mkSparkTer()
    ter.runStreams(streams.map(_.take(30)), batchTs = 30)
    ter.windowState.foreach { row =>
      val sk = row.toSketch
      assert(sk.d == b.profile.d)
      assert(sk.rid == row.rid && sk.sid == row.sid)
      (0 until sk.d).foreach { j =>
        assert(sk.attrs(j).distLo(0) <= sk.attrs(j).distHi(0) + 1e-12)
      }
    }
  }

  test("RecordRow round-trips missing attributes as nulls") {
    val r  = Record(7, 1, 3, Vector(Some("a"), None, Some("c"), None))
    val rr = RecordRow.of(r)
    assert(rr.attrs == Seq("a", null, "c", null))
    assert(rr.toRecord == r)
  }

  // SparkTER once had its own pair decision, pairMatches; Spark now calls
  // Pruning.decide on SketchRows, so this checks decide on round-tripped rows.
  test("pairMatches agrees with the engine's tuple-level decision path") {
    val rules  = Harness.rules(cfg.profile, cfg.eta, UseCDD)
    val repo   = Harness.repo(cfg.profile, cfg.eta)
    val pivots = Harness.pivots(cfg.profile, cfg.eta)
    val kws    = ERSynth.defaultKeywords(b)
    val (sa, sb) = ERSynth.mask(b, 0.4, 1)
    // (the engine's sketch, the Spark row) per record.
    val both = (sa.take(40) ++ sb.take(40)).map { r =>
      val t = if (r.isComplete) Imputer.imputeComplete(r) else Imputer.impute(r, rules, repo, Imputer.allSamples(repo))
      (TupleSketch.of(t, pivots, b.topicVocab),
        SparkTER.sketchRowOf(RecordRow.of(r), 4, rules, repo, pivots, b.topicVocab, kws))
    }
    val byStream = both.groupBy(_._1.sid)
    val outcomes = for ((qs, qa) <- byStream(0).take(20); (cs, cb) <- byStream(1).take(20)) yield {
      val o = Pruning.decide(qa.toSketch, cb.toSketch, kws, cfg.gamma, cfg.alpha)
      assert(o == Pruning.decide(qs, cs, kws, cfg.gamma, cfg.alpha))
      o
    }
    assert(outcomes.exists(_.isInstanceOf[Pruning.Refined]))
  }
}
