package repro.bench

import repro.SparkSpec
import repro.benchutil.{QueryRun, Tables}
import repro.data.Workloads
import repro.kv.Backend

/** Reproduces paper Table 3: average query time on MOT / AIRCA / TPC-H for
  * SoH/SoK/SoC with and without Zidian, at SF=0.1 over the 12+12+8 query
  * workload (q1–q6 scan-free per dataset, per §9).
  *
  * Shape assertions: Zidian wins on average per dataset and backend; the
  * scan-free speedup exceeds the non-scan-free speedup on the real-life
  * datasets; TPC-H gains are the most modest (the paper's uniform-data
  * observation).
  */
class Table3Bench extends SparkSpec {
  private val Sf = 0.1

  private lazy val results = Tables.table3(spark, Sf)

  /** One side of a query's (baseline, Zidian) pair of runs. */
  private type Side = (QueryRun, QueryRun) => QueryRun
  private val base: Side = (b, _) => b
  private val zidian: Side = (_, z) => z

  private def avg(ds: String, side: Side, b: Backend,
                  pred: repro.data.WorkQuery => Boolean = _ => true): Double = {
    val rs = results(ds).filter { case (wq, _, _) => pred(wq) }
    val ts = rs.map { case (_, bq, zq) => side(bq, zq).totalSec(b) }
    ts.sum / ts.size
  }

  test("Table 3: print paper vs measured") {
    println()
    println(Tables.renderTable3(results, Sf))
  }

  test("Table 3 shape: Zidian wins on average for every dataset and backend") {
    for (ds <- Workloads.all.map(_.name); b <- Backend.all) {
      assert(avg(ds, zidian, b) < avg(ds, base, b), s"$ds/${b.name}")
    }
  }

  test("Table 3 shape: scan-free queries speed up more than non-scan-free (MOT)") {
    val b = Backend.SoH
    val sfSpeed  = avg("MOT", base, b, _.scanFree) / avg("MOT", zidian, b, _.scanFree)
    val nsfSpeed = avg("MOT", base, b, !_.scanFree) / avg("MOT", zidian, b, !_.scanFree)
    assert(sfSpeed > nsfSpeed, f"scan-free $sfSpeed%.1fx vs non $nsfSpeed%.1fx")
  }

  test("Table 3 shape: scan-free queries never scan and access strictly less data") {
    for (ds <- Workloads.all.map(_.name); (wq, base, zid) <- results(ds) if wq.scanFree) {
      assert(zid.scans == 0, s"$ds ${wq.q.name}")
      assert(zid.values < base.values, s"$ds ${wq.q.name} #data")
      // Bounded (point-seeded) queries cut #data by orders of magnitude;
      // uniform TPC-H chains fetch larger fractions (the paper's §9
      // observation on skew-free data).
      if (wq.bounded)
        assert(zid.values <= 64 || zid.values * 1000 <= base.values,
               s"$ds ${wq.q.name} bounded #data: ${zid.values} vs ${base.values}")
    }
  }

  test("Table 3 shape: Zidian reduces communication on every query") {
    for (ds <- Workloads.all.map(_.name); (wq, base, zid) <- results(ds)) {
      assert(zid.commMB <= base.commMB + 1e-9, s"$ds ${wq.q.name}")
    }
  }

  test("Table 3 shape: SoH storage-cost cut on real-life data beats TPC-H (paper §9 Exp-1)") {
    // Compare deterministic storage seconds of the scan-free class: the
    // paper's real-life speedups (10^3x) dwarf the TPC-H ones (10^1-10^2x)
    // because MOT/AIRCA scan-free queries are point-seeded.
    def storage(ds: String, side: Side): Double = {
      val rs = results(ds).filter { case (wq, _, _) => wq.scanFree }
      rs.map { case (_, bq, zq) =>
        val r = side(bq, zq)
        Backend.SoH.getOverheadUs * r.gets + Backend.SoH.perValueUs * r.values
      }.sum
    }
    val motCut  = storage("MOT", base) / math.max(storage("MOT", zidian), 1e-9)
    val tpchCut = storage("TPC-H", base) / math.max(storage("TPC-H", zidian), 1e-9)
    assert(motCut > tpchCut, f"MOT $motCut%.1fx vs TPC-H $tpchCut%.1fx")
  }

  test("Table 3 shape: results agree between Zidian and the baseline (row counts)") {
    for (ds <- Workloads.all.map(_.name); (wq, base, zid) <- results(ds)) {
      assert(base.rows == zid.rows, s"$ds ${wq.q.name}")
    }
  }
}
