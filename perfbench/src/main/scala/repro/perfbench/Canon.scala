package repro.perfbench

import org.apache.spark.sql.Row

/** Order-independent canonical form of a result, for comparing Zidian's
  * answer with the baseline's: columns sorted by name, numerics rounded to
  * six decimals, rows sorted.
  */
object Canon {
  def apply(columns: Seq[String], rows: Array[Row]): Vector[String] = {
    val order = columns.zipWithIndex.sortBy(_._1).map(_._2)
    rows.iterator.map { r =>
      order.map { i =>
        r.get(i) match {
          case null                      => "∅"
          case d: Double                 => f"$d%.6f"
          case f: Float                  => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal  => f"${bd.doubleValue}%.6f"
          case x                         => x.toString
        }
      }.mkString("|")
    }.toVector.sorted
  }
}
