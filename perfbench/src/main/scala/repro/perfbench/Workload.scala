package repro.perfbench

import repro.core.query.Query
import repro.data.Workloads
import scala.util.Random

/** A closed-loop workload over MOT: the reads of one round (drawn from the
  * seed), the reads that follow each write, and the estimated length of a
  * round, which turns `--seconds` into a fixed number of rounds.
  */
final case class Workload(
    name: String,
    round: Inputs.KeyStream => Seq[Query],
    writeReads: WriteReads,
    roundSeconds: Double,
    warmupRounds: Int,
    writeBatches: Int,
) {
  /** Rounds of `size` reads measured for a run of `seconds`: a function of
    * the arguments only, never of the clock, so every run of a seed does
    * the same work. At least [[Workload.MinReads]] reads are measured.
    */
  def rounds(seconds: Int, size: Int): Int =
    math.max((Workload.MinReads + size - 1) / size, math.round(seconds / roundSeconds).toInt)
}

object Workload {
  /** Reads measured at least: enough for a tail with ten reads beyond it. */
  val MinReads = 24

  private def motQ(name: String): Query = Workloads.mot.queries.find(_.q.name == name).get.q

  private def keyed(t: Query, k: Int): Query = Inputs.instantiate(t, k, s"${t.name}@$k")

  /** MOT q1–q6 in a seeded order kept for every round; each read gets the
    * next unused key of its domain, so no key repeats within a run.
    */
  def boundedPoint(seed: Long): Workload = {
    val order = new Random(seed).shuffle(Inputs.boundedTemplates(Workloads.mot.queries))
    Workload("bounded_point",
      keys => order.map(t => keyed(t, keys.take(Inputs.domainOf(t)))),
      WriteReads(
        afterInsert = b => keyed(motQ("mot_q2"), b.insertedTestKey),
        afterDelete = b => keyed(motQ("mot_q2"), b.deletedTestKey),
        unaffected = k => keyed(motQ("mot_q6"), k)),
      roundSeconds = 6.0, warmupRounds = 1, writeBatches = 1)
  }

  /** MOT q7–q12 in a seeded order repeated unchanged every round. */
  def analyticScan(seed: Long): Workload = {
    val order = new Random(seed).shuffle(Inputs.scanTemplates(Workloads.mot.queries))
    Workload("analytic_scan", _ => order,
      WriteReads(
        afterInsert = _ => motQ("mot_q10"),
        afterDelete = _ => motQ("mot_q10"),
        unaffected = _ => motQ("mot_q8")),
      roundSeconds = 1.0, warmupRounds = 2, writeBatches = 1)
  }

  def named(name: String, seed: Long): Workload = name match {
    case "bounded_point" => boundedPoint(seed)
    case "analytic_scan" => analyticScan(seed)
    case other => throw new IllegalArgumentException(s"unknown workload $other")
  }
}
