package repro.stream

import repro.SparkSpec
import repro.core._
import repro.data.ERSynth
import repro.eval._
import repro.spark.RecordRow

/** Structured Streaming front-end: feeding arrivals through MemoryStream +
  * foreachBatch must yield exactly the micro-batch pipeline's (and hence
  * the core engine's) result set.
  */
class StreamingTERSpec extends SparkSpec {

  private val cfg    = ExpConfig(ERSynth.Citations, w = 50, maxSteps = 80)
  private lazy val b = Harness.base(cfg.profile)

  private def args = (spark, b.profile.d,
    Harness.rules(cfg.profile, cfg.eta, UseCDD),
    Harness.repo(cfg.profile, cfg.eta),
    Harness.pivots(cfg.profile, cfg.eta),
    b.topicVocab,
    Params(ERSynth.defaultKeywords(b), cfg.gamma, cfg.alpha, cfg.w))

  test("streaming result equals the micro-batch pipeline and the core engine") {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    val streams  = Seq(sa.take(cfg.maxSteps), sb.take(cfg.maxSteps))

    val eng = Harness.engineFor(TERiDS, cfg)
    eng.run(streams, cfg.maxSteps)

    val a  = args
    val st = new StreamingTER(a._1, a._2, a._3, a._4, a._5, a._6, a._7)
    try {
      // Feed in 4 uneven chunks of interleaved arrivals.
      val rows = (0 until cfg.maxSteps).flatMap(t => streams.map(s => RecordRow.of(s(t))))
      rows.grouped(45).foreach(ch => st.feed(ch))
      assert(st.allMatches == eng.allMatches)
      assert(st.allMatches.nonEmpty)
    } finally st.stop()
  }

  test("feeding nothing yields nothing; incremental feeds accumulate") {
    val (sa, sb) = ERSynth.mask(b, cfg.xi, cfg.m)
    val a  = args
    val st = new StreamingTER(a._1, a._2, a._3, a._4, a._5, a._6, a._7)
    try {
      st.feed(Seq.empty)
      assert(st.allMatches.isEmpty)
      val rows = (0 until 30).flatMap(t => Seq(RecordRow.of(sa(t)), RecordRow.of(sb(t))))
      st.feed(rows)
      val after30 = st.allMatches
      val more = (30 until 60).flatMap(t => Seq(RecordRow.of(sa(t)), RecordRow.of(sb(t))))
      st.feed(more)
      assert(after30.subsetOf(st.allMatches))
    } finally st.stop()
  }
}
