package repro.perfbench

import java.io.File
import java.lang.ref.Reference
import scala.collection.mutable
import scala.util.Try
import repro.core.{Engine, RunStats}
import repro.impute.Repo

/** The core-engine workloads: `Engine.step` driven closed-loop, open-loop,
  * and (traced runs) side by side with the traced replay.
  */
object CoreBench {
  import Bench._

  /** Untimed closed-loop passes before the measured phase (JIT only). */
  val WarmPasses = 1

  /** Open-loop passes of an untraced run; latencies are floors over them. */
  val OpenPasses = 2

  /** Fewest closed-loop passes of an untraced run; timings are floors over them. */
  val MinClosed = 4

  def run(in: Inputs, seconds: Int, trace: Boolean, gate: Gate, rec: mutable.Map[String, Double],
          info: mutable.Map[String, Any], out: File): Unit = {
    val wl = in.wl
    val t0 = System.nanoTime()
    if (!trace) {
      val setups = (1 to SetupReps).map { _ =>
        val (built, s) = timeS(in.coldBuild())
        Reference.reachabilityFence(built)
        s
      }
      rec("setup_s") = median(setups)
      info("setup_s_samples") = setups
    }

    // Untimed warm-up, which only warms the JIT: closed-loop passes over
    // the timed prefix. Every pass gets a fresh engine and Repo.
    (1 to WarmPasses).foreach(_ => Passes.closed(in.terids(), in.timed))
    info("warmup_s") = (System.nanoTime() - t0) / 1e9

    // The measured phase, about `seconds` long. Untraced runs interleave
    // OpenPasses open-loop passes with closed-loop passes (MinClosed /
    // (OpenPasses + 1) before each), then make closed-loop passes until the
    // deadline and at least MinClosed in all, so the passes sample the whole
    // phase; they report floors over them (Stats.floor). Traced runs make
    // one open-loop pass (for the generator's figures), then pair untraced
    // passes with traced replays until the deadline. Outputs are checked
    // after the phase.
    val deadline  = System.nanoTime() + seconds * 1000000000L
    val openSteps = in.timed.take(wl.w + Passes.OpenSteps)
    val closeds   = mutable.ArrayBuffer.empty[Try[Passes.Closed]]
    var eng: Engine = null
    def closed(): Unit = {
      eng = in.terids()
      closeds += Try(Passes.closed(eng, in.timed))
    }
    val opens = (1 to (if (trace) 1 else OpenPasses)).map { _ =>
      if (!trace) (1 to MinClosed / (OpenPasses + 1)).foreach(_ => closed())
      Try(Passes.open(in.terids(), openSteps, wl.offeredPerS, prefill = wl.w))
    }
    val layers = if (trace) layerPasses(in, deadline) else Vector.empty
    if (!trace) {
      while (closeds.size < MinClosed || System.nanoTime() - deadline < 0) closed()
      // Measured after the last pass, with its engine still reachable, so
      // the full collection cannot disturb a later timed pass.
      rec("heap_retained_mb") = JvmProbe.retainedHeapMiB()
      Reference.reachabilityFence(eng)
    }
    info("measured_s") = (System.nanoTime() - deadline) / 1e9 + seconds

    val (refs, refS) = timeS(References.of(in, wholeStreams = !trace))
    info("references_s") = refS
    info("reference_pairs") = refs.naive.size
    info("timed_arrivals_per_pass") = in.timedArrivals
    refs.whole.foreach { w =>
      gate("full-stream passes", 2 * in.steps.map(_.size).sum)(w.get) { case (m, m2) =>
        rec("f_score") = pooledF(Seq(m, m2), in.truth)
        info("truth_pairs") = in.truth.size
        info("found_pairs") = Seq(m.size, m2.size)
        Gate.sameMatches(in.within(m, wl.timedSteps), refs.naive)
      }
    }
    val okOpens = opens.flatMap { o =>
      gate("open-loop pass", openSteps.map(_.size).sum)(o.get) { o =>
        Gate.sameMatches(o.matches, in.within(refs.naive, openSteps.size))
      }
    }
    rec ++= Passes.openMetrics(okOpens, wl.offeredPerS, info)
    if (trace) {
      rec ++= layerMetrics(in, layers, refs.naive, gate, info, out)
      rec ++= MetricDefs.sparkOnly.map(_ -> 0.0)
    } else {
      val ok = closeds.toSeq.flatMap { c =>
        gate("closed-loop pass", in.timedArrivals)(c.get)(p => Gate.sameMatches(p.matches, refs.naive))
      }
      if (ok.nonEmpty) {
        val step = Stats.floor(ok.map(_.stepNanos))
        rec("arrivals_per_s") = in.timedArrivals / (step.sum / 1e9)
        rec("batch_p50_ms")   = Stats.percentile(step, 0.5) / 1e6
        info("closed_passes") = ok.size
        info("arrivals_per_s_per_pass") = ok.map(_.arrivalsPerS)
      }
    }
    rec("ok_share") = 1.0 - gate.failed.toDouble / math.max(1L, gate.attempted)
  }

  /** An untraced engine pass over the timed prefix and a traced replay of it. */
  final case class LayerPass(untraced: Try[Passes.Closed], stats: RunStats, traced: Try[TracedReplay])

  /** Untraced passes and traced replays of the timed prefix, in pairs until
    * `deadline` (nanoTime; at least one pair).
    */
  def layerPasses(in: Inputs, deadline: Long): Vector[LayerPass] = {
    val passes = Vector.newBuilder[LayerPass]
    do {
      val eng: Engine = in.terids()
      val untraced = Try(Passes.closed(eng, in.timed))
      val traced = Try {
        val r = new TracedReplay(in.d, in.rules, new Repo(in.repoRows), in.pivots, in.base.topicVocab,
          in.params, new Tracer)
        JvmProbe.settle()
        in.timed.foreach(r.step)
        r
      }
      passes += LayerPass(untraced, eng.stats, traced)
    } while (System.nanoTime() - deadline < 0)
    passes.result()
  }

  /** Checks the layer passes against `refMatches` (the replay must also
    * reproduce `RunStats`' pair outcomes) and summarizes them. Times are
    * medians over the pairs; counters are identical in every pair.
    */
  def layerMetrics(in: Inputs, passes: Vector[LayerPass], refMatches: Set[(Long, Long)], gate: Gate,
                   info: mutable.Map[String, Any], out: File): Map[String, Double] = {
    val untraced = mutable.ArrayBuffer.empty[(Passes.Closed, RunStats)]
    val traced   = mutable.ArrayBuffer.empty[TracedReplay]
    passes.foreach { p =>
      gate("untraced pass", in.timedArrivals)(p.untraced.get) { c =>
        Gate.sameMatches(c.matches, refMatches)
      }.foreach(c => untraced += ((c, p.stats)))
      gate("traced replay", in.timedArrivals)(p.traced.get) { r =>
        Gate.sameMatches(r.allMatches, refMatches).orElse {
          val want = ReplayCounters.pairOutcomes(p.stats)
          if (r.c.pairOutcomes == want) None
          else Some(s"replay pair outcomes ${r.c.pairOutcomes} differ from RunStats $want")
        }
      }.foreach(traced += _)
    }
    if (untraced.isEmpty || traced.isEmpty) return Map.empty

    def med(f: TracedReplay => Double): Double = median(traced.map(f).toSeq)
    val last  = traced.last
    val c     = last.c
    val total = med(_.tr.totalNs.toDouble)
    val s     = untraced.last._2
    val layerNs = Layer.metric.indices.map(l => Layer.metric(l) -> med(_.tr.selfNs(l).toDouble)).toMap
    def share(ls: Seq[Int]): Double = med(r => ls.map(r.tr.selfNs(_)).sum.toDouble / r.tr.totalNs)
    val m = layerNs ++ Map(
      "engine.cdd_ns"                 -> median(untraced.map(_._2.cddSelectNanos.toDouble).toSeq),
      "engine.impute_ns"              -> median(untraced.map(_._2.imputeNanos.toDouble).toSeq),
      "engine.er_ns"                  -> median(untraced.map(_._2.erNanos.toDouble).toSeq),
      "engine.pairs_total"            -> s.pairsTotal.toDouble,
      "engine.pruned_keyword"         -> s.prunedKeyword.toDouble,
      "engine.pruned_sim_ub"          -> s.prunedSimUB.toDouble,
      "engine.pruned_prob_ub"         -> s.prunedProbUB.toDouble,
      "engine.pruned_instance_pair"   -> s.prunedInstancePair.toDouble,
      "engine.refined_full"           -> s.refinedFull.toDouble,
      "engine.instance_pairs_checked" -> s.instancePairsChecked.toDouble,
      "cddindex.calls"                -> c.cddCalls.toDouble,
      "cddindex.rules_selected"       -> c.cddRulesSelected.toDouble,
      "cddindex.leaves_visited"       -> c.cddLeaves.toDouble,
      "retrieve.calls"                -> c.retrieveCalls.toDouble,
      "retrieve.index_share"          -> c.retrieveIndexCalls.toDouble / math.max(1L, c.retrieveCalls),
      "retrieve.samples_returned"     -> c.samplesReturned.toDouble,
      "drindex.leaves_visited"        -> c.drLeaves.toDouble,
      "impute.instances_mean"         -> c.instances.toDouble / math.max(1L, c.imputed),
      "impute.instance_cap_hits"      -> c.capHits.toDouble,
      "sketch.calls"                  -> c.sketchCalls.toDouble,
      "ergrid.cells_visited"          -> c.cellsVisited.toDouble,
      "ergrid.cells_pruned"           -> c.cellsPruned.toDouble,
      "ergrid.cells_dirtied"          -> c.cellsDirtied.toDouble,
      "ergrid.cells_rebuilt"          -> c.cellsRebuilt.toDouble,
      "enum.members_visited"          -> c.membersVisited.toDouble,
      "bounds.pruned_ratio"           -> (c.prunedKeyword + c.prunedSimUB + c.prunedProbUB).toDouble / math.max(1L, c.pairsTotal),
      "refine.calls"                  -> c.refineCalls.toDouble,
      "refine.instance_pairs"         -> c.instancePairsChecked.toDouble,
      "refine.early_stopped"          -> c.refineEarly.toDouble,
      "refine.match_ratio"            -> c.refineMatched.toDouble / math.max(1L, c.refineCalls),
      "jvm.gc_ns"                     -> median(untraced.map(_._1.gcNanos.toDouble).toSeq),
      "jvm.alloc_bytes"               -> median(untraced.map(_._1.allocBytes.toDouble).toSeq),
      "trace.total_ns"                -> total,
      "trace.er_share"                -> share(Layer.erSide),
      "trace.impute_share"            -> share(Layer.imputeSide),
      "trace.overhead_ratio"          -> total / median(untraced.map(_._1.nanos.toDouble).toSeq),
    )
    info("traced_pairs") = traced.size
    info("dominant_layer") = dominance(in.wl.name, m)
    writeSpans(new File(out, s"${in.wl.name}-seed${in.seed}-data${in.dataSeed}-spans.jsonl"), last.tr)
    m
  }

  /** What each core workload was chosen for, as measured by the trace. */
  def dominance(workload: String, m: Map[String, Double]): Map[String, Any] = workload match {
    case "impute-heavy" => Map("impute_side_over_half" -> (m("trace.impute_share") > 0.5),
                               "index_share_positive" -> (m("retrieve.index_share") > 0.0))
    case _ => Map.empty
  }

  /** One JSON line per timestamp: its span and per-layer self times. */
  def writeSpans(f: File, tr: Tracer): Unit = {
    f.getParentFile.mkdirs()
    val sb = new StringBuilder
    tr.steps.foreach { case (ts, s, e, self) =>
      sb.append(Json.render(Map("ts" -> ts, "start_ns" -> s, "end_ns" -> e,
        "self_ns" -> Layer.metric.indices.map(l => Layer.metric(l) -> self(l)).toMap))).append('\n')
    }
    Bench.write(f, sb.toString)
  }
}
