package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

/** Entry point: runs one workload and writes its result as JSON.
  *
  * {{{
  * Main --workload bounded_point --seed 1 --seconds 15 --trace 0 \
  *      --out result.json --spans spans.jsonl --cores 4 --local-dir tmp
  * }}}
  */
object Main {
  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val args = RunArgs(
      workload = opt("workload"),
      seed = opt("seed").toLong,
      seconds = opt("seconds").toInt,
      trace = opt("trace") == "1",
      settings = SparkSettings(opt("cores").toInt, opt("local-dir")),
      spans = Paths.get(opt("spans")),
    )
    val r = Run(args)
    r.report.foreach(println)
    Files.write(Paths.get(opt("out")), json(r).getBytes(StandardCharsets.UTF_8))
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  def json(r: Result): String = {
    val metrics = r.metrics.map { case (d, v) =>
      s"${str(d.name)}: {\"value\": ${num(v)}, \"unit\": ${str(d.unit)}}"
    }.mkString(", ")
    val exact = r.exact.map { case (k, v) => s"${str(k)}: $v" }.mkString(", ")
    s"""{"attempted": ${r.attempted}, "failed": ${r.failures.size}, "metrics": {$metrics}, """ +
      s""""exact": {$exact}, "failures": [${r.failures.map(str).mkString(", ")}]}"""
  }
}
