package repro.benchutil

import org.apache.spark.sql.SparkSession
import repro.data.{Workloads, WorkQuery}
import repro.kv.Backend

/** Shared logic producing the paper's evaluation tables (Tables 2 and 3);
  * used by both `jobs/` entrypoints and the `bench/` suites.
  */
object Tables {

  // ------------------------------------------------------------- Table 2

  /** Paper Table 2 (case study Q1, 128 GB TPC-H, 8 workers). */
  val paperTable2: Map[String, Map[String, Double]] = Map(
    "time" -> Map("SoH" -> 1.3e2, "SoHZidian" -> 12.4, "SoK" -> 40.5,
                  "SoKZidian" -> 5.4, "SoC" -> 88.1, "SoCZidian" -> 9.9),
    "#data" -> Map("SoH" -> 5.2e8, "SoHZidian" -> 8.4e6, "SoK" -> 5.2e8,
                   "SoKZidian" -> 8.4e6, "SoC" -> 5.2e8, "SoCZidian" -> 8.4e6),
    "#get" -> Map("SoH" -> 1.0e8, "SoHZidian" -> 5.2e4, "SoK" -> 1.0e8,
                  "SoKZidian" -> 5.2e4, "SoC" -> 1.0e8, "SoCZidian" -> 5.2e4),
    "comm(MB)" -> Map("SoH" -> 4.6e2, "SoHZidian" -> 16.7, "SoK" -> 4.5e2,
                      "SoKZidian" -> 15.4, "SoC" -> 4.5e2, "SoCZidian" -> 15.7),
  )

  /** Run the Table-2 case study (Q1 of Example 3) at scale factor `sf`.
    * One untimed warm-up evaluation absorbs first-run codegen/JIT cost so
    * the measured wall time reflects steady-state execution (the paper's
    * cluster also reports warm runs — averages of 3).
    */
  def table2(spark: SparkSession, sf: Double): (QueryRun, QueryRun) = {
    val env = Harness.buildEnv(Workloads.tpch, spark, sf)
    try Harness.runBoth(env, Workloads.tpchQueries.head, warm = true)
    finally env.close()
  }

  def renderTable2(base: QueryRun, zid: QueryRun, sf: Double): String = {
    val sb = new StringBuilder
    sb ++= s"Table 2 -- case study Q1 (TPC-H-lite SF=$sf, simulated ${Backend.DefaultWorkers} workers)\n"
    val header = Seq("metric") ++ Backend.all.flatMap(b => Seq(b.name, s"${b.name}Zidian")) ++ Seq("paper(SoH)", "paper(SoHZ)")
    val w = Seq(10) ++ Seq.fill(header.size - 1)(12)
    sb ++= Harness.fmtRow(header, w) += '\n'
    def row(metric: String, f: (QueryRun, Backend) => String,
            paperB: Double, paperZ: Double): Unit = {
      val cells = Seq(metric) ++ Backend.all.flatMap(b => Seq(f(base, b), f(zid, b))) ++
        Seq(Harness.sci(paperB), Harness.sci(paperZ))
      sb ++= Harness.fmtRow(cells, w) += '\n'
    }
    row("time(s)", (r, b) => Harness.fmtSec(r.totalSec(b)),
        paperTable2("time")("SoH"), paperTable2("time")("SoHZidian"))
    // The measured Spark wall seconds inside time(s), the same for every backend.
    sb ++= Harness.fmtRow(Seq("wall(s)") ++ Backend.all.flatMap(_ =>
      Seq(f"${base.wallSec}%.3f", f"${zid.wallSec}%.3f")) ++ Seq("-", "-"), w) += '\n'
    row("#data", (r, _) => Harness.sci(r.values.toDouble),
        paperTable2("#data")("SoH"), paperTable2("#data")("SoHZidian"))
    row("#get", (r, _) => Harness.sci(r.gets.toDouble),
        paperTable2("#get")("SoH"), paperTable2("#get")("SoHZidian"))
    row("comm(MB)", (r, _) => Harness.fmtSec(r.commMB),
        paperTable2("comm(MB)")("SoH"), paperTable2("comm(MB)")("SoHZidian"))
    sb.result()
  }

  // ------------------------------------------------------------- Table 3

  /** Paper Table 3 — average time (s), 128 GB, 8 workers. */
  val paperTable3: Map[String, Map[String, Double]] = Map(
    "MOT"   -> Map("SoH" -> 3.3e3, "SoHZidian" -> 1.4, "SoK" -> 4.3e2,
                   "SoKZidian" -> 0.3, "SoC" -> 7.6e2, "SoCZidian" -> 0.3),
    "AIRCA" -> Map("SoH" -> 1.0e3, "SoHZidian" -> 1.1, "SoK" -> 1.2e2,
                   "SoKZidian" -> 0.4, "SoC" -> 1.8e3, "SoCZidian" -> 0.4),
    "TPC-H" -> Map("SoH" -> 1.5e3, "SoHZidian" -> 96.1, "SoK" -> 1.9e2,
                   "SoKZidian" -> 52.2, "SoC" -> 3.1e2, "SoCZidian" -> 1.2e2),
  )

  /** Run every workload query of every dataset in both modes. */
  def table3(spark: SparkSession, sf: Double): Map[String, Seq[(WorkQuery, QueryRun, QueryRun)]] =
    Workloads.all.map { ds =>
      val env = Harness.buildEnv(ds, spark, sf)
      try ds.name -> ds.queries.map { wq =>
        val (b, z) = Harness.runBoth(env, wq, warm = true)
        (wq, b, z)
      }
      finally env.close()
    }.toMap

  def renderTable3(results: Map[String, Seq[(WorkQuery, QueryRun, QueryRun)]],
                   sf: Double): String = {
    val sb = new StringBuilder
    sb ++= s"Table 3 -- average time (s) per dataset (SF=$sf, simulated ${Backend.DefaultWorkers} workers)\n"
    val header = Seq("dataset") ++ Backend.all.flatMap(b => Seq(b.name, s"${b.name}Zidian")) ++
      Seq("paper(SoH)", "paper(SoHZ)")
    val w = Seq(8) ++ Seq.fill(header.size - 1)(12)
    sb ++= Harness.fmtRow(header, w) += '\n'
    for (ds <- Workloads.all.map(_.name)) {
      val rs = results(ds)
      def avg(f: (WorkQuery, QueryRun, QueryRun) => Double): Double =
        rs.map(f.tupled).sum / rs.size
      val cells = Seq(ds) ++ Backend.all.flatMap { b =>
        Seq(Harness.fmtSec(avg((_, base, _) => base.totalSec(b))),
            Harness.fmtSec(avg((_, _, zid) => zid.totalSec(b))))
      } ++ Seq(Harness.sci(paperTable3(ds)("SoH")), Harness.sci(paperTable3(ds)("SoHZidian")))
      sb ++= Harness.fmtRow(cells, w) += '\n'
    }
    sb ++= "\nPer-query detail (SoH total seconds):\n"
    for (ds <- Workloads.all.map(_.name); (wq, b, z) <- results(ds)) {
      val cls = if (wq.scanFree) (if (wq.bounded) "s.f.+bnd" else "s.f.") else "non-s.f."
      sb ++= f"  ${ds}%-6s ${wq.q.name}%-10s $cls%-9s " +
        f"base=${b.totalSec(repro.kv.Backend.SoH)}%9.2fs zidian=${z.totalSec(repro.kv.Backend.SoH)}%8.2fs " +
        f"wall ${b.wallSec}%6.3f->${z.wallSec}%6.3fs  " +
        f"gets ${b.gets}%9d->${z.gets}%7d  #data ${b.values}%10d->${z.values}%9d  " +
        f"comm ${b.commMB}%8.2f->${z.commMB}%6.2fMB scans ${b.scans}%d->${z.scans}%d\n"
    }
    sb.result()
  }
}
