package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.streaming.StreamingQueryListener
import repro.core.Record
import repro.impute.Repo
import repro.spark.RecordRow
import repro.stream.StreamingTER

/** Spark-layer passes: micro-batches of [[Workloads.BatchTs]] timestamps fed
  * through `StreamingTER.feed`, which returns once `processAllAvailable`
  * does.
  */
final class SparkLayer(val spark: SparkSession, in: Inputs) {

  /** The timed prefix cut into micro-batches, in (ts, sid) order. */
  val batches: Vector[(Seq[Record], Seq[RecordRow])] =
    in.timed.grouped(Workloads.BatchTs).map { g =>
      val recs = g.flatten
      (recs, recs.map(RecordRow.of))
    }.toVector

  /** A fresh StreamingTER over a fresh Repo (cold neighbor memo). */
  def fresh(): StreamingTER =
    new StreamingTER(spark, in.d, in.rules, new Repo(in.repoRows), in.pivots, in.base.topicVocab, in.params)

  /** Closed loop: each batch is fed when the previous feed returns. `hold`
    * runs with the StreamingTER still reachable, before it is stopped.
    */
  def closed(hold: StreamingTER => Unit = _ => ()): SparkLayer.Closed = {
    val st = fresh()
    JvmProbe.settle()
    try {
      val ms = new Array[Double](batches.size)
      val t0 = System.nanoTime()
      var prev = t0
      batches.indices.foreach { i =>
        st.feed(batches(i)._2)
        val now = System.nanoTime()
        ms(i) = (now - prev) / 1e6
        prev = now
      }
      val res = SparkLayer.Closed(prev - t0, ms, batches.map(_._2.size).sum, st.ter.windowState.size, st.allMatches)
      hold(st)
      res
    } finally st.stop()
  }

  /** Open loop: arrivals are due at the offered rate; a batch is fed when
    * its last arrival is due (or when the previous feed returns, if later).
    * Each arrival's latency runs from its due time to the return of the
    * feed that put its matches in the match set, so it includes the wait for
    * its batch to fill.
    */
  def open(offeredPerS: Double): Passes.Open = {
    val st = fresh()
    JvmProbe.settle()
    try {
      val perStep = in.timed.head.size
      val period  = math.round(perStep / offeredPerS * 1e9)
      val lat     = Array.newBuilder[Double]
      var backlog = 0
      var lagMax  = 0.0
      val start   = System.nanoTime() + 1000000L
      var t0      = 0 // first timestamp of the batch
      batches.foreach { case (recs, rows) =>
        val nTs = recs.map(_.ts).distinct.size
        val due = start + (t0 + nTs - 1) * period
        Passes.waitUntil(due)
        lagMax = math.max(lagMax, (System.nanoTime() - due) / 1e6)
        st.feed(rows)
        val end = System.nanoTime()
        recs.foreach(r => lat += (end - (start + r.ts * period)) / 1e6)
        t0 += nTs
        val released = math.min(in.timed.size.toLong, (end - start) / period + 1)
        backlog = math.max(backlog, ((released - t0) * perStep).toInt)
      }
      Passes.Open(lat.result(), backlog, lagMax, st.allMatches)
    } finally st.stop()
  }

  /** A closed pass with a SparkListener and a StreamingQueryListener
    * attached: job, task and executor counters, and the per-trigger
    * durations Structured Streaming reports.
    */
  def traced(): (SparkLayer.Closed, Map[String, Double]) = {
    val tasks = new TaskCounters
    val prog  = new ProgressCollector
    spark.sparkContext.addSparkListener(tasks)
    spark.streams.addListener(prog)
    try {
      tasks.sync(spark)
      tasks.reset()
      prog.reset()
      val c = closed()
      tasks.sync(spark)
      prog.await(batches.size)
      (c, tasks.metrics ++ prog.metrics)
    } finally {
      spark.streams.removeListener(prog)
      spark.sparkContext.removeSparkListener(tasks)
    }
  }
}

object SparkLayer {
  final case class Closed(nanos: Long, batchMs: Array[Double], arrivals: Int, stateRows: Int,
                          matches: Set[(Long, Long)]) {
    def arrivalsPerS: Double = arrivals / (nanos / 1e9)
  }

  def session(master: String, shufflePartitions: Int, localDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(master)
      .appName("ter-ids-perfbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", localDir + "/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}

/** Job/task counters. Listener events arrive asynchronously, so [[sync]]
  * runs a marker job and waits for its end event: every event posted before
  * it has then been delivered. Marker jobs are not counted.
  */
final class TaskCounters extends SparkListener {
  private val Marker = "perfbench-sync"
  private val jobs, tasks, runNs, cpuNs, shuffleBytes, resultBytes = new AtomicLong
  private val markerJobs   = mutable.Set.empty[Int]
  private val markerStages = mutable.Set.empty[Int]
  @volatile private var latch: CountDownLatch = new CountDownLatch(0)

  def reset(): Unit = Seq(jobs, tasks, runNs, cpuNs, shuffleBytes, resultBytes).foreach(_.set(0))

  def sync(spark: SparkSession): Unit = {
    latch = new CountDownLatch(1)
    spark.sparkContext.setJobDescription(Marker)
    try spark.sparkContext.parallelize(Seq(1), 1).count()
    finally spark.sparkContext.setJobDescription(null)
    require(latch.await(30, TimeUnit.SECONDS), "Spark listener bus did not drain")
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    if (Option(e.properties).exists(p => p.getProperty("spark.job.description") == Marker)) {
      markerJobs += e.jobId
      markerStages ++= e.stageIds
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (markerJobs.remove(e.jobId)) latch.countDown() else jobs.incrementAndGet()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    if (!markerStages.contains(e.stageId) && e.taskMetrics != null) {
      val m = e.taskMetrics
      tasks.incrementAndGet()
      runNs.addAndGet(m.executorRunTime * 1000000L)
      cpuNs.addAndGet(m.executorCpuTime)
      shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      resultBytes.addAndGet(m.resultSize)
    }
  }

  def metrics: Map[String, Double] = Map(
    "spark.jobs"                -> jobs.get.toDouble,
    "spark.tasks"               -> tasks.get.toDouble,
    "spark.executor_run_ns"     -> runNs.get.toDouble,
    "spark.executor_cpu_ns"     -> cpuNs.get.toDouble,
    "spark.shuffle_write_bytes" -> shuffleBytes.get.toDouble,
    "spark.result_bytes"        -> resultBytes.get.toDouble,
  )
}

/** Per-trigger durations from Structured Streaming progress events. */
final class ProgressCollector extends StreamingQueryListener {
  private val addBatch, trigger = mutable.ArrayBuffer.empty[Double]

  def reset(): Unit = synchronized { addBatch.clear(); trigger.clear() }

  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = synchronized {
    val p = e.progress
    if (p.numInputRows > 0) {
      Option(p.durationMs.get("addBatch")).foreach(v => addBatch += v.doubleValue)
      Option(p.durationMs.get("triggerExecution")).foreach(v => trigger += v.doubleValue)
    }
  }

  /** Wait (bounded) until `n` data-carrying triggers have reported. */
  def await(n: Int): Unit = {
    val deadline = System.nanoTime() + 30000000000L
    while (synchronized(trigger.size) < n && System.nanoTime() < deadline) Thread.sleep(20)
    require(synchronized(trigger.size) >= n, s"only ${trigger.size} of $n progress events arrived")
  }

  def metrics: Map[String, Double] = synchronized(Map(
    "stream.add_batch_ms" -> Stats.median(addBatch.toSeq),
    "stream.trigger_ms"   -> Stats.median(trigger.toSeq),
  ))
}
