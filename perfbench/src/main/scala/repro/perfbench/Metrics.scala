package repro.perfbench

/** A reported metric. `moves` names, for a per-layer metric, the
  * end-to-end metric and workload it should move; for an end-to-end
  * metric, what it measures.
  */
final case class MetricDef(name: String, unit: String, better: String, moves: String)

object Metrics {
  private def m(name: String, unit: String, better: String, moves: String) =
    MetricDef(name, unit, better, moves)

  val endToEnd: Seq[MetricDef] = Seq(
    m("latency_p50_ms", "ms", "lower", "Zidian read, Zidian.answer until rows collected; median"),
    m("latency_tail_ms", "ms", "lower", "11th-slowest Zidian read (percentile and count in the report)"),
    m("ops_per_s", "1/s", "higher", "Zidian reads per second of Zidian time"),
    m("setup_s", "s", "lower", "generate + TaaVStore.build + BaaVStore.build; median of 3"),
    m("gets_per_query", "count", "lower", "#get per Zidian read (exact)"),
    m("data_cells_per_query", "count", "lower", "#data per Zidian read (exact)"),
    m("comm_cells_per_query", "count", "lower", "comm cells per Zidian read (exact)"),
    m("space_amp", "ratio", "lower", "BaaV cells stored / relational cells"),
    m("cache_mb", "MB", "lower", "Spark storage memory held by the stores after set-up"),
    m("ok_ops_frac", "ratio", "higher", "share of operations that returned the right answer"),
  )

  private val bp = "bounded_point"
  private val as = "analytic_scan"
  private val both = s"$bp, $as"

  val perLayer: Seq[MetricDef] = Seq(
    m("plan.decide_ms", "ms", "lower", s"latency_p50_ms on $bp"),
    m("plan.decide_share", "ratio", "lower", s"latency_p50_ms on $bp (share of read latency)"),
    m("plan.scanfree_share", "ratio", "higher", s"data_cells_per_query on $as"),
    m("exec.answer_ms", "ms", "lower", s"latency_p50_ms, ops_per_s on $bp"),
    m("exec.spark_jobs", "count", "lower", s"latency_p50_ms, ops_per_s on $bp"),
    m("exec.spark_tasks", "count", "lower", s"latency_p50_ms, ops_per_s on $bp"),
    m("exec.collect_ms", "ms", "lower", s"ops_per_s on $as"),
    m("exec.rows_out", "count", "higher", s"ops_per_s on $as"),
    m("exec.cells_per_row", "count", "lower", s"ops_per_s on $as"),
    m("exec.first_ms", "ms", "lower", s"setup_s on $both"),
    m("exec.cache_growth_mb", "MB", "lower", s"latency_tail_ms on $both"),
    m("jvm.gc_ms_per_op", "ms", "lower", s"latency_tail_ms on $both"),
    m("kv.scans", "count", "lower", s"data_cells_per_query on $as"),
    m("kv.taav_build_s", "s", "lower", s"setup_s, space_amp, cache_mb on $both"),
    m("kv.baav_build_s", "s", "lower", s"setup_s, space_amp, cache_mb on $both"),
    m("kv.baav_cells", "count", "lower", s"space_amp, cache_mb on $both"),
    m("kv.degree_max", "count", "lower", s"setup_s, space_amp on $both"),
    m("kv.insert_ms", "ms", "lower", s"kv.visible_ms on $both"),
    m("kv.delete_ms", "ms", "lower", s"kv.visible_ms on $both"),
    m("kv.keys_affected", "count", "lower", s"kv.visible_ms on $both"),
    m("kv.visible_ms", "ms", "lower", "insert/delete call until a read of an affected key returns; median"),
    m("baseline.latency_ms", "ms", "lower", "SqlOverNoSql.answer + collect on the same reads; median"),
    m("baseline.answer_ms", "ms", "lower", s"baseline.latency_ms on $both"),
    m("baseline.collect_ms", "ms", "lower", s"baseline.latency_ms on $both"),
    m("baseline.spark_jobs", "count", "lower", s"baseline.latency_ms on $both"),
    m("baseline.data_cells", "count", "lower", s"baseline.latency_ms on $both"),
    m("baseline.data_reduction", "ratio", "higher", s"data_cells_per_query on $both (baseline #data / Zidian #data)"),
    m("data.generate_s", "s", "lower", s"setup_s on $both"),
    m("trace.overhead_pct", "%", "lower", "traced vs untraced read latency in this run"),
    m("drift.round_ratio", "ratio", "lower", s"latency_tail_ms on $both (last / first round time)"),
    m("drift.gc_ms_delta", "ms", "lower", s"latency_tail_ms on $both (last - first round GC)"),
  )
}
