package repro.perfbench

import java.io.File
import scala.collection.mutable
import scala.util.Try
import repro.stream.StreamingTER

/** The Spark workload: micro-batches through `StreamingTER.feed` on a local
  * master, gated against the naive core engine and the core TER-iDS engine.
  */
object SparkBench {
  import Bench._

  /** Micro-batches fed untimed before measuring (Catalyst codegen, JIT). */
  val WarmBatches = 2

  /** Open-loop passes of an untraced run; latencies are floors over them. */
  val OpenPasses = 2

  /** Fewest closed-loop passes of an untraced run; batch times are floors over them. */
  val MinClosed = 3

  def run(in: Inputs, seconds: Int, trace: Boolean, gate: Gate, rec: mutable.Map[String, Double],
          info: mutable.Map[String, Any], out: File): Unit = {
    val t0 = System.nanoTime()
    val (spark, sessionS) = timeS(SparkLayer.session(Env.sparkMaster, Env.shufflePartitions, Env.localDir))
    info("spark_session_s") = sessionS
    try {
      val layer = new SparkLayer(spark, in)
      if (!trace) {
        val setups = (1 to SetupReps).map { _ =>
          val t0    = System.nanoTime()
          val built = in.coldBuild()
          val st    = new StreamingTER(spark, in.d, built.rules, built.repo, built.pivots, in.base.topicVocab, in.params)
          val s     = (System.nanoTime() - t0) / 1e9
          st.stop()
          s
        }
        rec("setup_s") = median(setups)
        info("setup_s_samples") = setups
      }

      val warm = layer.fresh()
      try layer.batches.take(WarmBatches).foreach(b => warm.feed(b._2)) finally warm.stop()
      info("warmup_s") = (System.nanoTime() - t0) / 1e9

      // The measured phase, about `seconds` long. Untraced runs interleave
      // OpenPasses open-loop passes with closed-loop passes (one before
      // each), then make closed-loop passes until the deadline and at least
      // MinClosed in all; batch times and latencies are floors over the
      // passes (Stats.floor). Traced runs make one open-loop and one
      // closed-loop pass, then a traced pass. Outputs are checked after the
      // phase.
      val deadline = System.nanoTime() + seconds * 1000000000L
      val closeds  = mutable.ArrayBuffer.empty[Try[SparkLayer.Closed]]
      var heap     = Double.NaN
      def closed(): Unit = closeds += Try(layer.closed(_ => if (heap.isNaN) heap = JvmProbe.retainedHeapMiB()))
      val opens = (1 to (if (trace) 1 else OpenPasses)).map { _ =>
        if (!trace) closed()
        Try(layer.open(in.wl.offeredPerS))
      }
      do closed()
      while (!trace && (closeds.size < MinClosed || System.nanoTime() - deadline < 0))
      val traced = if (trace) Some(Try(layer.traced())) else None
      info("measured_s") = (System.nanoTime() - deadline) / 1e9 + seconds

      // The references, then the core TER-iDS engine on the prefix, timed
      // alone as the single-threaded baseline. The micro-batch prefix holds
      // too few true pairs for a steady F-score, so f_score comes from the
      // core engine's whole-stream runs in the references; the gates below
      // make Spark's matches equal to the core engine's on the prefix.
      val (refs, refS) = timeS(References.of(in, wholeStreams = !trace))
      info("references_s") = refS
      val core = Try(Passes.closed(in.terids(), in.timed))
      info("reference_pairs") = refs.naive.size
      info("timed_batches_per_pass") = layer.batches.size
      gate("core engine", in.timedArrivals)(core.get)(c => Gate.sameMatches(c.matches, refs.naive))
      refs.whole.foreach { w =>
        gate("core full-stream passes", 2 * in.steps.map(_.size).sum)(w.get) { case (m, m2) =>
          rec("f_score") = pooledF(Seq(m, m2), in.truth)
          info("truth_pairs") = in.truth.size
          Gate.sameMatches(in.within(m, in.wl.timedSteps), refs.naive)
        }
      }
      val okOpens = opens.flatMap { o =>
        gate("open-loop pass", layer.batches.size)(o.get)(o => Gate.sameMatches(o.matches, refs.naive))
      }
      rec ++= Passes.openMetrics(okOpens, in.wl.offeredPerS, info)
      val passes = closeds.toSeq.flatMap { c =>
        gate("closed-loop pass", layer.batches.size)(c.get)(p => Gate.sameMatches(p.matches, refs.naive))
      }
      info("closed_passes") = passes.size

      traced.foreach { t =>
        gate("traced pass", layer.batches.size)(t.get) { case (c, _) =>
          Gate.sameMatches(c.matches, refs.naive)
        }.foreach { case (c, m) =>
          rec ++= m
          rec("spark.state_rows")     = c.stateRows.toDouble
          core.foreach(b => rec("spark.core_baseline_ns") = b.nanos.toDouble)
          passes.headOption.foreach(u => rec("trace.overhead_ratio") = c.nanos.toDouble / u.nanos)
        }
        // Core layers on the same input, from the traced replay.
        val coreLayers = CoreBench.layerMetrics(in, CoreBench.layerPasses(in, System.nanoTime()), refs.naive,
          gate, info, out)
        rec ++= coreLayers - "trace.overhead_ratio"
        coreLayers.get("trace.overhead_ratio").foreach(info("core_trace_overhead_ratio") = _)
      }
      if (!trace && passes.nonEmpty) {
        val batch = Stats.floor(passes.map(_.batchMs))
        rec("arrivals_per_s")   = passes.head.arrivals / (batch.sum / 1e3)
        rec("batch_p50_ms")     = Stats.percentile(batch, 0.5)
        rec("heap_retained_mb") = heap
        info("batch_ms_samples") = passes.map(_.batchMs.toSeq)
      }
      rec("ok_share") = 1.0 - gate.failed.toDouble / math.max(1L, gate.attempted)
    } finally spark.stop()
  }
}
