package repro.perfbench

/** Order statistics of timing samples. */
object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it: the
    * eleventh-largest sample, with the percentile it stands at. Needs at
    * least 20 samples so that it lies above the median.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    require(xs.size >= 20, s"tail needs >= 20 samples, got ${xs.size}")
    val s = xs.sorted
    val n = s.size
    (s(n - 11), 100.0 * (n - 10) / n)
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}
