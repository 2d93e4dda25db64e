package repro.perfbench

import java.io.{File, PrintWriter}
import java.nio.charset.StandardCharsets
import scala.collection.mutable

/** Counts attempted and failed work and keeps the reason of each failure.
  * A failure is an exception or a correctness-gate mismatch; either way
  * every arrival (or batch) of the pass counts as failed.
  */
final class Gate {
  var attempted = 0L
  var failed    = 0L
  val problems: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def apply[A](label: String, units: Int)(body: => A)(check: A => Option[String]): Option[A] = {
    attempted += units
    val res =
      try Right(body)
      catch { case e: Exception => Left(s"$label threw ${e.getClass.getSimpleName}: ${e.getMessage}") }
    res.flatMap(a => check(a).map(m => s"$label: $m").toLeft(a)) match {
      case Right(a) => Some(a)
      case Left(m)  => failed += units; problems += m; None
    }
  }

  def ok: Boolean = problems.isEmpty
}

object Gate {
  def sameMatches(found: Set[(Long, Long)], want: Set[(Long, Long)]): Option[String] =
    if (found == want) None
    else Some(s"${(found -- want).size} extra and ${(want -- found).size} missing pairs of ${want.size}")
}

/** Runs `body` on its own thread (the reference runs overlap). */
final class Background[A](name: String)(body: => A) {
  @volatile private var result: Either[Throwable, A] = _
  private val thread = new Thread(() => result = try Right(body) catch { case t: Throwable => Left(t) }, name)
  thread.setDaemon(true)
  thread.start()
  def get: A = { thread.join(); result.fold(t => throw t, identity) }
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--data-seed <n>] [--out <dir>]`. Prints diagnostics, then as its last line one JSON
  * object with `correct`, `attempted`, `failed` and `metrics`.
  */
object Bench {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val wl = Workloads.byName(need("workload")).getOrElse(usage(s"unknown workload ${need("workload")}"))
    val seed    = need("seed").toLong
    val seconds = need("seconds").toInt
    val trace   = need("trace") match { case "0" => false; case "1" => true; case t => usage(s"bad --trace $t") }
    val out     = new File(opts.getOrElse("out", "."))
    val data    = opts.get("data-seed").map(_.toLong).getOrElse(wl.profile.seed)

    val gate = new Gate
    val rec  = mutable.LinkedHashMap.empty[String, Double]
    val info = mutable.LinkedHashMap[String, Any](
      "workload" -> wl.name, "seed" -> seed, "data_seed" -> data, "seconds" -> seconds, "trace" -> trace) ++
      Env.describe
    val t0 = System.nanoTime()
    val in = new Inputs(wl, seed, data)
    if (wl.spark) SparkBench.run(in, seconds, trace, gate, rec, info, out)
    else CoreBench.run(in, seconds, trace, gate, rec, info, out)
    info("wall_s") = (System.nanoTime() - t0) / 1e9
    info("problems") = gate.problems.toVector

    // A failed pass may leave metrics unmeasured; they read 0 in a result
    // that is marked incorrect anyway.
    val defs    = if (trace) MetricDefs.perLayer else MetricDefs.endToEnd
    val missing = defs.map(_._1).filterNot(rec.contains)
    require(missing.isEmpty || !gate.ok, s"metrics not measured: ${missing.mkString(", ")}")
    val metrics = defs.map { case (n, unit) => n -> Map("value" -> rec.getOrElse(n, 0.0), "unit" -> unit) }
    val result  = mutable.LinkedHashMap[String, Any](
      "correct" -> gate.ok, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> mutable.LinkedHashMap(metrics: _*))

    out.mkdirs()
    val file = new File(out, s"${wl.name}-seed$seed-data$data-trace${if (trace) 1 else 0}.json")
    write(file, Json.render(Map("info" -> info, "result" -> result)) + "\n")
    Console.out.println(Json.render(Map("info" -> info)))
    Console.out.println(Json.render(result))
    Console.out.flush()
    sys.exit(if (gate.ok) 0 else 1)
  }

  def write(f: File, s: String): Unit = {
    val w = new PrintWriter(f, StandardCharsets.UTF_8)
    try w.write(s) finally w.close()
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    System.err.println(s"usage: --workload <${Workloads.all.map(_.name).mkString("|")}> --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>] [--out <dir>]")
    sys.exit(2)
  }

  def median(xs: Seq[Double]): Double = Stats.median(xs)

  /** Seconds `body` takes. */
  def timeS[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** F-score pooled over runs on differently masked streams of the same
    * data: true positives, found pairs and true pairs summed over the runs.
    */
  def pooledF(found: Seq[Set[(Long, Long)]], truth: Set[(Long, Long)]): Double = {
    val tp        = found.map(_.count(truth.contains)).sum.toDouble
    val n         = found.map(_.size).sum
    val precision = if (n == 0) 1.0 else tp / n
    val recall    = if (truth.isEmpty) 1.0 else tp / (truth.size * found.size)
    if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
  }

  /** Cold builds a run repeats to report the median set-up time. */
  val SetupReps = 9
}

/** Environment every output records; the benchmark command pins these. */
object Env {
  def describe: Map[String, Any] = Map(
    "git_sha"            -> sys.props.getOrElse("perfbench.git_sha", "unknown"),
    "source_sha256"      -> sys.props.getOrElse("perfbench.source_sha256", "unknown"),
    "jvm"                -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
    "nproc"              -> Runtime.getRuntime.availableProcessors,
    "heap_max_mib"       -> Runtime.getRuntime.maxMemory / 1048576,
    "spark_driver_mem"   -> sys.props.getOrElse("perfbench.spark_driver_mem", "unknown"),
    "spark_master"       -> sparkMaster,
    "shuffle_partitions" -> shufflePartitions,
  )

  def sparkMaster: String     = sys.props.getOrElse("perfbench.spark_master", "local[2]")
  def shufflePartitions: Int  = sys.props.getOrElse("perfbench.shuffle_partitions", "4").toInt
  def localDir: String        = sys.props.getOrElse("perfbench.local_dir", sys.props("java.io.tmpdir"))
}
