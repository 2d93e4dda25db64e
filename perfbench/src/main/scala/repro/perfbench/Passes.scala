package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.locks.LockSupport
import scala.jdk.CollectionConverters._
import repro.core.{Engine, Record}

/** Order statistics over measured samples. */
object Stats {
  /** The middle value, or the mean of the two middle values. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile (`p` in (0, 1]). */
  def percentile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }

  /** Element-wise minimum of equally long sample arrays: for each step (or
    * arrival, or batch) its fastest time over the run's passes. Other
    * tenants of the host slow the machine in bursts of a fraction of a
    * second to a few seconds; a step's fastest time over passes spread
    * across the run is its cost with the burst filtered out, while a
    * slower program is slower in every pass.
    */
  def floor(passes: Seq[Array[Double]]): Array[Double] = {
    require(passes.nonEmpty && passes.forall(_.length == passes.head.length), "passes differ in length")
    Array.tabulate(passes.head.length)(i => passes.iterator.map(_(i)).min)
  }
}

/** JVM counters read through the platform MXBeans, for the bench thread. */
object JvmProbe {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcNanos: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum * 1000000L

  def allocatedBytes: Long = threads.getCurrentThreadAllocatedBytes

  /** A full collection before each timed pass, so no pass pays for the
    * garbage of the one before it.
    */
  def settle(): Unit = System.gc()

  /** Heap in use after an explicit full collection, in MiB. */
  def retainedHeapMiB(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}

/** Timed replays of a workload's timestamps through `Engine.step`. */
object Passes {

  /** Closed loop: each step starts when the previous one returns. */
  final case class Closed(nanos: Long, stepNanos: Array[Double], arrivals: Int,
                          matches: Set[(Long, Long)], gcNanos: Long, allocBytes: Long) {
    def arrivalsPerS: Double = arrivals / (nanos / 1e9)
    def stepP50Ms: Double    = Stats.percentile(stepNanos, 0.5) / 1e6
  }

  def closed(eng: Engine, steps: IndexedSeq[Seq[Record]]): Closed = {
    JvmProbe.settle()
    val stepNs = new Array[Double](steps.size)
    val gc0    = JvmProbe.gcNanos
    val al0    = JvmProbe.allocatedBytes
    val t0     = System.nanoTime()
    var prev   = t0
    var i      = 0
    while (i < steps.size) {
      eng.step(steps(i))
      val now = System.nanoTime()
      stepNs(i) = (now - prev).toDouble
      prev = now
      i += 1
    }
    Closed(prev - t0, stepNs, steps.map(_.size).sum, eng.allMatches,
      JvmProbe.gcNanos - gc0, JvmProbe.allocatedBytes - al0)
  }

  /** Open loop: the generator (same thread) releases timestamp t at
    * `start + t · period` whatever the engine's progress, so a slow step
    * delays every later arrival. Each arrival's latency runs from its
    * scheduled time to the return of the step that put its matches in ES.
    * The first `prefill` timestamps fill the windows closed-loop and
    * untimed, so latency is measured with full windows, as a long-running
    * monitor sees it.
    */
  final case class Open(latencyMs: Array[Double], backlogMax: Int, lagMaxMs: Double,
                        matches: Set[(Long, Long)])

  /** `detect_p50_ms` and `detect_p99_ms` over the per-arrival floors of
    * `opens` (equally long passes over the same schedule), and the
    * generator's figures; nothing when no pass succeeded.
    */
  def openMetrics(opens: Seq[Open], offeredPerS: Double, info: collection.mutable.Map[String, Any]): Map[String, Double] =
    if (opens.isEmpty) Map.empty
    else {
      val lat = Stats.floor(opens.map(_.latencyMs))
      info("detect_samples") = lat.length
      info("open_passes") = opens.size
      Map(
        "detect_p50_ms"     -> Stats.percentile(lat, 0.5),
        "detect_p99_ms"     -> Stats.percentile(lat, 0.99),
        "gen.offered_per_s" -> offeredPerS,
        "gen.backlog_max"   -> opens.map(_.backlogMax).max.toDouble,
        "gen.lag_max_ms"    -> opens.map(_.lagMaxMs).max,
      )
    }

  /** Sleep until `deadline` (nanoTime), spinning for the last stretch. */
  def waitUntil(deadline: Long): Unit = {
    var left = deadline - System.nanoTime()
    while (left > 200000L) { LockSupport.parkNanos(left - 100000L); left = deadline - System.nanoTime() }
    while (System.nanoTime() - deadline < 0) Thread.onSpinWait()
  }

  /** Timestamps an open-loop pass measures after its prefill. */
  val OpenSteps = 500

  def open(eng: Engine, steps: IndexedSeq[Seq[Record]], offeredPerS: Double, prefill: Int): Open = {
    JvmProbe.settle()
    steps.take(prefill).foreach(eng.step)
    val live    = steps.drop(prefill)
    val perStep = live.head.size
    val period  = math.round(perStep / offeredPerS * 1e9)
    val lat     = Array.newBuilder[Double]
    var backlog = 0
    var lagMax  = 0.0
    val start   = System.nanoTime() + 1000000L
    var t       = 0
    while (t < live.size) {
      val due = start + t * period
      waitUntil(due)
      lagMax = math.max(lagMax, (System.nanoTime() - due) / 1e6)
      eng.step(live(t))
      val end = System.nanoTime()
      live(t).foreach(_ => lat += (end - due) / 1e6)
      // Arrivals released by now but not yet processed.
      val released = math.min(live.size.toLong, (end - start) / period + 1)
      backlog = math.max(backlog, ((released - t - 1) * perStep).toInt)
      t += 1
    }
    Open(lat.result(), backlog, lagMax, eng.allMatches)
  }
}
