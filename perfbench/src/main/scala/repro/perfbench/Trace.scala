package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One span: a timed call into a layer, with its parent and the counts
  * recorded at the same boundary.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String,
                      startNs: Long, endNs: Long, counts: Map[String, Double]) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Counters sampled at span boundaries: Spark jobs and tasks (exact, after
  * draining the listener bus) and JVM garbage-collection time.
  */
final class Probes(spark: SparkSession, jobs: JobCounter) {
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def gcMs: Double = gcBeans.map(_.getCollectionTime.max(0L)).sum.toDouble

  /** Spark storage memory held by cached data, in MB. */
  def storageMb: Double =
    spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / 1e6

  def sample(): Map[String, Double] = {
    val (j, t) = jobs.exact(spark)
    Map("spark_jobs" -> j.toDouble, "spark_tasks" -> t.toDouble, "gc_ms" -> gcMs)
  }
}

/** In-memory span recorder. Spans are kept until [[write]] at the end of
  * the run; a disabled tracer records nothing and samples no counters.
  */
final class Tracer(val enabled: Boolean, p: Probes) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack = List(0)
  private var op = 0

  /** Start a new traced operation (spans of one operation share its id). */
  def nextOp(): Unit = op += 1

  /** Id of the latest operation. */
  def opCount: Int = op

  /** Run `body` inside span `name`; the span's counts are the differences
    * of the probes across it.
    */
  def span[A](name: String)(body: => A): A = spanWith(name)(body)(_ => Map.empty)

  /** As [[span]], adding the counts `extra` derives from the result. */
  def spanWith[A](name: String)(body: => A)(extra: A => Map[String, Double]): A =
    if (!enabled) body
    else {
      val id = spans.size + 1
      val parent = stack.head
      stack = id :: stack
      val before = p.sample()
      val t0 = System.nanoTime
      val out = try body finally stack = stack.tail
      val t1 = System.nanoTime
      val after = p.sample()
      val diff = after.map { case (k, v) => k -> (v - before(k)) }
      spans += Span(id, parent, op, name, t0, t1, diff ++ extra(out))
      out
    }

  def all: Seq[Span] = spans.toSeq
  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  def write(path: Path): Unit = {
    val lines = spans.map { s =>
      val counts = s.counts.map { case (k, v) => s"\"$k\":$v" }.mkString(",")
      s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"name":"${s.name}",""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"counts":{$counts}}"""
    }
    Files.createDirectories(path.getParent)
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}
