package repro.perfbench

import java.nio.file.Path
import org.apache.spark.sql.SparkSession
import repro.core.query.Query
import repro.data.Workloads
import scala.collection.mutable.ArrayBuffer

final case class RunArgs(workload: String, seed: Long, seconds: Int, trace: Boolean,
                         settings: SparkSettings, spans: Path)

/** What one run reports: the metrics of its mode, the exact counts that
  * every run of the same seed must repeat, and a readable report.
  */
final case class Result(attempted: Int, failures: Seq[String], metrics: Seq[(MetricDef, Double)],
                        exact: Seq[(String, Long)], report: Seq[String])

/** One run of a workload: set-up (three times), warm-up rounds, the
  * measured rounds, the baseline on the same reads, store statistics, the
  * write phase (traced runs), and the checks. Every Zidian answer is
  * compared with the baseline's outside the timed regions.
  */
object Run {
  def apply(a: RunArgs): Result = {
    val spark = Session.start(a.settings)
    try body(a, spark) finally spark.stop()
  }

  private final case class Window(from: Int, to: Int) {
    def has(s: Span): Boolean = s.op > from && s.op <= to
  }

  private val started = System.nanoTime

  /** Progress on stderr, with seconds since start. */
  private def phase(msg: String): Unit =
    Console.err.println(f"[perfbench ${(System.nanoTime - started) / 1e9}%7.1f s] $msg")

  private def body(a: RunArgs, spark: SparkSession): Result = {
    phase("spark session up")
    val probes = new Probes(spark, JobCounter.attach(spark))
    val tracer = new Tracer(a.trace, probes)
    val w = Workload.named(a.workload, a.seed)
    val keys = new Inputs.KeyStream(a.seed)

    // Set-up, three times: the first runs on a cold JVM, so setup_s is the median.
    val (mot, setups) = Setup.repeated(spark, Workloads.mot, 3, tracer)
    val cacheMb = probes.storageMb
    phase("set-up done")
    val sizes = mot.ds.catalog.relations.map(r => s"${r.name}=${mot.taav.rowCount(r.name)}")
    for ((rel, n) <- Inputs.domainRows)
      require(mot.taav.rowCount(rel) == n, s"$rel has ${mot.taav.rowCount(rel)} rows, expected $n")
    def zread(q: Query, traced: Boolean): ZRead = {
      if (traced) tracer.nextOp()
      Reads.zidian(ReadOp(mot, q, mot.baav, mot.taav, traced), spark, tracer)
    }

    // Warm-up: untraced rounds covering every template, which also compute
    // the stores' lazy statistics on first use.
    val warm = (1 to w.warmupRounds).flatMap(_ => w.round(keys).map(q => zread(q, traced = false)))
    val roundSize = warm.size / w.warmupRounds
    phase("warm-up done")

    // Measured rounds. With tracing, reads alternate between traced and
    // untraced, so each template has both and the overhead is measured.
    val nRounds = w.rounds(a.seconds, roundSize)
    val gc0 = probes.gcMs
    val mem0 = probes.storageMb
    val readWin0 = tracer.opCount
    val roundStats = ArrayBuffer.empty[(Double, Double)]
    val reads = (0 until nRounds).flatMap { r =>
      val g = probes.gcMs
      val t0 = System.nanoTime
      val out = w.round(keys).zipWithIndex.map { case (q, i) =>
        zread(q, traced = a.trace && (r + i) % 2 == 0)
      }
      roundStats += (((System.nanoTime - t0) / 1e6, probes.gcMs - g))
      out
    }
    val gcMeasured = probes.gcMs - gc0
    val cacheGrowth = probes.storageMb - mem0
    val readWin = Window(readWin0, tracer.opCount)
    phase("measured reads done")

    // The baseline, in its own phase, warmed up on the warm-up reads and
    // measured on the same reads as Zidian.
    val warmBase = warm.map(z => Reads.baseline(z.op, spark, tracer))
    val baseWin0 = tracer.opCount
    val base = reads.map { z =>
      if (z.op.traced) tracer.nextOp()
      Reads.baseline(z.op, spark, tracer)
    }
    val baseWin = Window(baseWin0, tracer.opCount)
    phase("baseline done")

    // Store statistics, after the timed phases: their Spark jobs would
    // otherwise disturb the measured reads.
    val baavCells = mot.baavCells
    val relCells = mot.relationalCells
    val degreeMax = if (a.trace) mot.baav.degree else 0L

    // The write phase, in traced runs only (see README.md).
    val batches = if (a.trace) Writes.batches(mot, w.writeBatches, a.seed, keys) else Nil
    val wo = Writes.run(mot, batches, w.writeReads, keys, spark, tracer)
    val writeBase = wo.reads.map(z => Reads.baseline(z.op.copy(traced = false), spark, tracer))
    if (a.trace) phase("write phase done")

    // Checks.
    val pairs = (warm zip warmBase) ++ (reads zip base) ++ (wo.reads zip writeBase)
    val failures = pairs.flatMap { case (z, b) => Reads.mismatch(z, b).map(m => s"${z.op.q.name}: $m") } ++
      wo.rebuildFailures
    val attempted = pairs.size + wo.calls.size + wo.rebuildChecks
    phase("checks done")

    // End-to-end metrics.
    val lat = reads.map(_.ms)
    val (tail, tailPct) = Stats.tail(lat)
    val n = reads.size.toDouble
    def perRead(f: ZRead => Long): Double = reads.map(f).sum / n
    val e2e = Map(
      "latency_p50_ms" -> Stats.median(lat),
      "latency_tail_ms" -> tail,
      "ops_per_s" -> n / (lat.sum / 1000),
      "setup_s" -> Stats.median(setups.map(_.total)),
      "gets_per_query" -> perRead(_.gets),
      "data_cells_per_query" -> perRead(_.dataCells),
      "comm_cells_per_query" -> perRead(_.commCells),
      "space_amp" -> baavCells.toDouble / relCells,
      "cache_mb" -> cacheMb,
      "ok_ops_frac" -> (1.0 - failures.size.toDouble / attempted),
    )

    // Per-layer metrics, from the spans of the traced operations: one map
    // from span name to span per operation.
    def ops(win: Window): Seq[Map[String, Span]] =
      tracer.all.filter(win.has).groupBy(_.op).toSeq.sortBy(_._1).map(_._2.map(s => s.name -> s).toMap)
    val tReads = ops(readWin)
    val tBase = ops(baseWin)
    def count(ss: Map[String, Span], names: Seq[String], k: String): Double = names.map(ss(_).counts(k)).sum
    def execCount(k: String): Seq[Double] = tReads.map(count(_, Seq("exec.answer", "exec.collect"), k))
    val layer: Map[String, Double] = if (!a.trace) Map.empty else {
      val (traced, untraced) = reads.partition(_.op.traced)
      def ms(name: String) = Stats.median(tracer.named(name).map(_.ms))
      val rows = reads.map(_.rows.size.toDouble)
      Map(
        "plan.decide_ms" -> Stats.median(tReads.map(_("plan.decide").ms)),
        "plan.decide_share" -> tReads.map(_("plan.decide").ms).sum / tReads.map(_("read").ms).sum,
        "plan.scanfree_share" -> reads.map(_.scanFreeAliases).sum.toDouble / reads.map(_.aliases).sum,
        "exec.answer_ms" -> Stats.median(tReads.map(s => s("exec.answer").ms - s("plan.decide").ms)),
        "exec.spark_jobs" -> Stats.mean(execCount("spark_jobs")),
        "exec.spark_tasks" -> Stats.mean(execCount("spark_tasks")),
        "exec.collect_ms" -> Stats.median(tReads.map(_("exec.collect").ms)),
        "exec.rows_out" -> Stats.mean(rows),
        "exec.cells_per_row" -> reads.map(_.dataCells).sum / math.max(1.0, rows.sum),
        "exec.first_ms" -> Stats.median(warm.take(roundSize).map(_.ms)),
        "exec.cache_growth_mb" -> cacheGrowth,
        "jvm.gc_ms_per_op" -> gcMeasured / n,
        "kv.scans" -> perRead(_.scans),
        "kv.taav_build_s" -> Stats.median(setups.map(_.taav)),
        "kv.baav_build_s" -> Stats.median(setups.map(_.baav)),
        "kv.baav_cells" -> baavCells.toDouble,
        "kv.degree_max" -> degreeMax.toDouble,
        "kv.insert_ms" -> ms("kv.insert"),
        "kv.delete_ms" -> ms("kv.delete"),
        "kv.keys_affected" -> Stats.mean(wo.calls.map(_.keysAffected.toDouble)),
        "kv.visible_ms" -> Stats.median(wo.visibleMs),
        "baseline.latency_ms" -> Stats.median(base.map(_.ms)),
        "baseline.answer_ms" -> Stats.median(tBase.map(_("baseline.answer").ms)),
        "baseline.collect_ms" -> Stats.median(tBase.map(_("baseline.collect").ms)),
        "baseline.spark_jobs" -> Stats.mean(tBase.map(count(_, Seq("baseline"), "spark_jobs"))),
        "baseline.data_cells" -> base.map(_.dataCells).sum / n,
        "baseline.data_reduction" -> base.map(_.dataCells).sum.toDouble / reads.map(_.dataCells).sum,
        "data.generate_s" -> Stats.median(setups.map(_.generate)),
        "trace.overhead_pct" ->
          100 * (Stats.median(traced.map(_.ms)) / Stats.median(untraced.map(_.ms)) - 1),
        "drift.round_ratio" -> roundStats.last._1 / roundStats.head._1,
        "drift.gc_ms_delta" -> (roundStats.last._2 - roundStats.head._2),
      )
    }

    val all = (warm ++ reads ++ wo.reads)
    val exact = Seq(
      "operations" -> attempted.toLong,
      "gets" -> all.map(_.gets).sum,
      "data_cells" -> all.map(_.dataCells).sum,
      "comm_cells" -> all.map(_.commCells).sum,
      "rows" -> all.map(_.rows.size.toLong).sum,
      "baseline_data_cells" -> (warmBase ++ base ++ writeBase).map(_.dataCells).sum,
    ) ++ (if (!a.trace) Nil
          else Seq("exec.spark_jobs" -> execCount("spark_jobs").sum.toLong,
                   "exec.spark_tasks" -> execCount("spark_tasks").sum.toLong))

    val chosen = if (a.trace) Metrics.perLayer.map(d => d -> layer(d.name))
                 else Metrics.endToEnd.map(d => d -> e2e(d.name))
    if (a.trace) tracer.write(a.spans)

    val report = Seq(
      s"perfbench ${w.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}: ${a.settings.describe}",
      s"closed loop, 1 client; ${mot.ds.name} at scale factor ${Inputs.Sf}: ${sizes.mkString(" ")}") ++
      setups.zipWithIndex.map { case (s, i) =>
        f"  setup ${i + 1}: ${s.total}%.3f s (generate ${s.generate}%.3f, taav ${s.taav}%.3f, baav ${s.baav}%.3f)"
      } ++ Seq(
      s"warm-up: ${warm.size} reads; measured: $nRounds rounds x ${reads.size / nRounds} reads; " +
        (if (a.trace) s"write phase: ${batches.size} batches (${wo.calls.size} writes, ${wo.reads.size} reads)"
         else "write phase: traced runs only")) ++
      roundStats.zipWithIndex.map { case ((t, g), i) => f"  round ${i + 1}: $t%.0f ms, gc $g%.0f ms" } ++
      Seq(f"latency_tail_ms is p$tailPct%.1f of ${reads.size} reads (10 beyond it); " +
          f"baseline median ${Stats.median(base.map(_.ms))}%.1f ms on the same reads") ++
      chosen.map { case (d, v) => f"  ${d.name}%-26s $v%14.4f ${d.unit}%-6s ${d.moves}" } ++
      failures.take(20).map("FAILED " + _)

    Result(attempted, failures, chosen, exact, report)
  }
}
