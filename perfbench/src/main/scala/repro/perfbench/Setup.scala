package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.baseline.SqlOverNoSql
import repro.data.Dataset
import repro.kv.{BaaVStore, TaaVStore}
import repro.zidian.Zidian

/** One dataset with both stores built, and the two evaluation stacks. */
final class Loaded(val ds: Dataset, val taav: TaaVStore, val baav: BaaVStore, spark: SparkSession) {
  val zidian = new Zidian(ds.catalog, ds.baavSchema, Setup.BoundedDegree)
  val baseline = new SqlOverNoSql(ds.catalog, spark)

  /** Drop the stores' cached data, so that the next set-up builds anew. */
  def release(): Unit = {
    taav.relations.values.foreach(_.unpersist(true))
    baav.instances.values.foreach(_.blocked.unpersist(true))
  }

  /** Cells of the relational database. */
  def relationalCells: Long = ds.catalog.relations.map(r => taav.cells(r.name)).sum

  /** Cells stored in the BaaV store. */
  def baavCells: Long = baav.instances.values.map(_.cells).sum
}

/** Times of one set-up and of its parts, in seconds. */
final case class SetupTiming(total: Double, generate: Double, taav: Double, baav: Double)

object Setup {
  /** Degree threshold for the boundedness decision, as in the repository's
    * benches: it covers MOT's fixed per-key ratios (3 tests per vehicle,
    * 2 items per test) and excludes the blocks that grow with |D|.
    */
  val BoundedDegree = 100L

  /** Generate the dataset and build its TaaV and BaaV stores. With
    * tracing on, generation is forced on its own (a no-op write of every
    * generated table) so that its time is separate from the builds.
    */
  def once(spark: SparkSession, ds: Dataset, tracer: Tracer): (Loaded, SetupTiming) = {
    val t0 = System.nanoTime
    val data = tracer.span("data.generate") {
      val d = ds.dataAt(spark, Inputs.Sf)
      if (tracer.enabled) d.values.foreach(_.write.format("noop").mode("overwrite").save())
      d
    }
    val t1 = System.nanoTime
    val taav = tracer.span("kv.taav_build")(TaaVStore.build(ds.catalog, data))
    val t2 = System.nanoTime
    val baav = tracer.span("kv.baav_build")(BaaVStore.build(ds.baavSchema, data))
    val s = (from: Long, to: Long) => (to - from) / 1e9
    (new Loaded(ds, taav, baav, spark),
     SetupTiming(s(t0, System.nanoTime), s(t0, t1), s(t1, t2), s(t2, System.nanoTime)))
  }

  /** Set up `reps` times, releasing every set-up but the last. */
  def repeated(spark: SparkSession, ds: Dataset, reps: Int, tracer: Tracer): (Loaded, Seq[SetupTiming]) = {
    val runs = (1 to reps).map { i =>
      val r = tracer.span("setup")(once(spark, ds, tracer))
      if (i < reps) r._1.release()
      r
    }
    (runs.last._1, runs.map(_._2))
  }
}
