package repro.bench

import repro.SparkSpec
import repro.benchutil.{Env, Harness}
import repro.data.{WorkQuery, Workloads}
import repro.kv.Backend

/** Exp-2 / Exp-3 (text + Figures 3–4, figures themselves out of scope):
  * bounded queries are answered with a constant amount of data and
  * communication as |D| grows, while the baseline grows linearly.
  */
class BoundedScalingBench extends SparkSpec {
  private val Sfs = Seq(0.02, 0.04, 0.08)

  private val WarmRuns = 5

  private lazy val measured = Sfs.map { sf =>
    val env = Harness.buildEnv(Workloads.mot, spark, sf)
    try {
      val bounded = Workloads.mot.queries.find(_.q.name == "mot_q3").get
      val unbounded = Workloads.mot.queries.find(_.q.name == "mot_q7").get
      val w = warmWall(env, bounded)
      (sf, Harness.runBoth(env, bounded), Harness.runBoth(env, unbounded), w, jobsPerRead(env, bounded))
    } finally env.close()
  }

  private lazy val runs = measured.map { case (sf, b, u, _, _) => (sf, b, u) }

  /** Per SF, the (Zidian, baseline) median wall seconds of `mot_q3` over
    * `WarmRuns` runs, after as many untimed runs: the first SF is measured
    * in a cold JVM.
    */
  private lazy val walls = measured.map { case (sf, _, _, w, _) => (sf, w) }

  /** Per SF, the Spark jobs of one warm Zidian read of `mot_q3`. */
  private lazy val jobs = measured.map { case (sf, _, _, _, j) => (sf, j) }

  private def warmWall(env: Env, wq: WorkQuery): (Double, Double) = {
    (1 to WarmRuns).foreach(_ => Harness.runBoth(env, wq))
    val timed = (1 to WarmRuns).map(_ => Harness.runBoth(env, wq))
    def median(xs: Seq[Double]) = xs.sorted.apply(xs.size / 2)
    (median(timed.map(_._2.wallSec)), median(timed.map(_._1.wallSec)))
  }

  /** The Spark jobs one Zidian read of `wq` launches: answer and collect. */
  private def jobsPerRead(env: Env, wq: WorkQuery): Int =
    jobsOf(env.zidian.answer(wq.q, env.baav, env.taav, spark).df.collect()).size

  test("Exp-2: print bounded-query scaling") {
    println()
    println("Exp-2 -- bounded query (mot_q3) and full-scan query (mot_q7) vs |D|")
    println(f"${"SF"}%6s ${"bounded #data Z"}%16s ${"bounded comm Z"}%15s " +
            f"${"bounded #data base"}%19s ${"scan #data Z"}%13s")
    for ((sf, (bb, bz), (_, uz)) <- runs) {
      println(f"$sf%6.2f ${bz.values}%16d ${bz.commMB}%15.4f ${bb.values}%19d ${uz.values}%13d")
    }
    println(s"mot_q3 warm wall time, median of $WarmRuns runs")
    println(f"${"SF"}%6s ${"Zidian (s)"}%11s ${"baseline (s)"}%13s")
    for ((sf, (z, b)) <- walls) println(f"$sf%6.2f $z%11.3f $b%13.3f")
    println("Spark jobs per warm mot_q3 read (answer + collect)")
    for ((sf, j) <- jobs) println(f"$sf%6.2f $j%5d")
  }

  test("Exp-2 shape: bounded-query #data is flat in |D| (paper: 0.7s at 1GB and 16GB)") {
    val vals = runs.map { case (_, (_, z), _) => z.values }
    assert(vals.distinct.size == 1, s"bounded #data not flat: $vals")
    val gets = runs.map { case (_, (_, z), _) => z.gets }
    assert(gets.distinct.size == 1, s"bounded #get not flat: $gets")
  }

  test("Exp-2 wall: bounded-query warm wall time is flat in |D| (within 2x across SFs)") {
    val zs = walls.map { case (_, (z, _)) => z }
    assert(zs.max <= 2 * zs.min, s"mot_q3 warm wall seconds not flat: $zs")
  }

  test("Exp-2 jobs: a warm bounded read runs no Spark job at any |D|") {
    assert(jobs.forall(_._2 == 0), s"Spark jobs per warm mot_q3 read: $jobs")
  }

  test("Exp-2 shape: the baseline for the same query grows linearly") {
    val vals = runs.map { case (_, (b, _), _) => b.values }
    assert(vals(1) > vals(0) * 1.5 && vals(2) > vals(1) * 1.5, s"baseline not growing: $vals")
  }

  test("Exp-2 shape: non-scan-free Zidian #data grows with |D|") {
    val vals = runs.map { case (_, _, (z, _)) => z }.map(_.values)
    assert(vals(2) > vals(0), s"scan query #data should grow: $vals")
  }

  test("Exp-2 shape: bounded-query simulated time is indifferent to |D|") {
    val ts = runs.map { case (_, (_, z), _) => Backend.SoH.storageSeconds(z.metrics, 8) }
    assert(ts.max - ts.min < 1e-6, s"bounded storage time not flat: $ts")
  }
}
