package repro.perfbench

import repro.core.query.{EqConst, Query}
import repro.data.WorkQuery
import scala.util.Random

/** A key domain of MOT at the benchmark's scale factor: the `k`-th key
  * (0-based) of `column` is the constant `k + 1`.
  */
final case class KeyDomain(column: String, size: Int)

object Inputs {
  /** Scale factor of every workload. */
  val Sf = 0.05

  // Sizes follow MOT's per-SF row counts (checked after set-up against
  // the built stores).
  val NVehicles: Int = (400000 * Sf).toInt
  val NTests: Int = (1200000 * Sf).toInt

  val vehicles = KeyDomain("v_id", NVehicles)
  val tests = KeyDomain("t_id", NTests)

  /** Expected row count of each relation whose keys the domains draw. */
  val domainRows: Map[String, Int] = Map("vehicle" -> NVehicles, "test" -> NTests)

  /** The key domain of a bounded template: the one its key constant comes from. */
  def domainOf(q: Query): KeyDomain = {
    val ds = q.preds.collect { case EqConst(a, _) => a.col }.flatMap(c => Seq(vehicles, tests).find(_.column == c))
    require(ds.size == 1, s"${q.name}: expected one key constant, found ${ds.map(_.column)}")
    ds.head
  }

  /** `q` with its key constant replaced by key `k` of its domain. */
  def instantiate(q: Query, k: Int, name: String): Query = {
    val col = domainOf(q).column
    q.copy(name = name, preds = q.preds.map {
      case EqConst(a, _) if a.col == col => EqConst(a, (k + 1).toString)
      case p                             => p
    })
  }

  /** A seeded stream of distinct keys per domain: each domain is a seeded
    * permutation consumed front to back, so no key repeats within a run.
    */
  final class KeyStream(seed: Long) {
    private val next = scala.collection.mutable.Map.empty[String, Iterator[Int]]
    def take(d: KeyDomain): Int = {
      val it = next.getOrElseUpdate(d.column,
        new Random(seed * 1000003L + d.column.hashCode).shuffle((0 until d.size).toVector).iterator)
      require(it.hasNext, s"key domain ${d.column} exhausted")
      it.next()
    }
  }

  def boundedTemplates(qs: Seq[WorkQuery]): Seq[Query] = qs.filter(_.bounded).map(_.q)
  def scanTemplates(qs: Seq[WorkQuery]): Seq[Query] = qs.filterNot(_.bounded).map(_.q)
}
