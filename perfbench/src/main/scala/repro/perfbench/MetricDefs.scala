package repro.perfbench

/** Names and units of every metric the benchmark reports; BENCHMARK.json
  * lists the same names (a test keeps the two in step).
  */
object MetricDefs {
  val endToEnd: Vector[(String, String)] = Vector(
    "arrivals_per_s"   -> "1/s",
    "detect_p50_ms"    -> "ms",
    "detect_p99_ms"    -> "ms",
    "batch_p50_ms"     -> "ms",
    "f_score"          -> "ratio",
    "ok_share"         -> "ratio",
    "setup_s"          -> "s",
    "heap_retained_mb" -> "MiB",
  )

  val perLayer: Vector[(String, String)] = Vector(
    "engine.cdd_ns" -> "ns", "engine.impute_ns" -> "ns", "engine.er_ns" -> "ns",
    "engine.pairs_total" -> "count", "engine.pruned_keyword" -> "count", "engine.pruned_sim_ub" -> "count",
    "engine.pruned_prob_ub" -> "count", "engine.pruned_instance_pair" -> "count",
    "engine.refined_full" -> "count", "engine.instance_pairs_checked" -> "count",
    "cddindex.select_ns" -> "ns", "cddindex.calls" -> "count", "cddindex.rules_selected" -> "count",
    "cddindex.leaves_visited" -> "count",
    "retrieve.ns" -> "ns", "retrieve.calls" -> "count", "retrieve.index_share" -> "ratio",
    "retrieve.samples_returned" -> "count", "drindex.leaves_visited" -> "count",
    "impute.expand_ns" -> "ns", "impute.assemble_ns" -> "ns", "impute.instances_mean" -> "count",
    "impute.instance_cap_hits" -> "count",
    "sketch.ns" -> "ns", "sketch.calls" -> "count",
    "ergrid.insert_ns" -> "ns", "ergrid.remove_ns" -> "ns", "ergrid.scan_ns" -> "ns",
    "ergrid.cells_visited" -> "count", "ergrid.cells_pruned" -> "count", "ergrid.cells_dirtied" -> "count",
    "ergrid.cells_rebuilt" -> "count",
    "window.evict_ns" -> "ns", "enum.members_visited" -> "count", "enum.ns" -> "ns",
    "bounds.ns" -> "ns", "bounds.pruned_ratio" -> "ratio",
    "refine.ns" -> "ns", "refine.calls" -> "count", "refine.instance_pairs" -> "count",
    "refine.early_stopped" -> "count", "refine.match_ratio" -> "ratio",
    "jvm.gc_ns" -> "ns", "jvm.alloc_bytes" -> "bytes",
    "gen.offered_per_s" -> "1/s", "gen.backlog_max" -> "count", "gen.lag_max_ms" -> "ms",
    "stream.add_batch_ms" -> "ms", "stream.trigger_ms" -> "ms", "spark.jobs" -> "count",
    "spark.tasks" -> "count", "spark.executor_run_ns" -> "ns", "spark.executor_cpu_ns" -> "ns",
    "spark.shuffle_write_bytes" -> "bytes", "spark.result_bytes" -> "bytes", "spark.state_rows" -> "count",
    "spark.core_baseline_ns" -> "ns",
    "trace.total_ns" -> "ns", "trace.other_ns" -> "ns", "trace.er_share" -> "ratio",
    "trace.impute_share" -> "ratio", "trace.overhead_ratio" -> "ratio",
  )

  /** Spark-layer metrics; zero on workloads that do not start Spark. */
  val sparkOnly: Vector[String] = perLayer.map(_._1).filter(n => n.startsWith("spark.") || n.startsWith("stream."))
}
