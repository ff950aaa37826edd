package repro.perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession, functions => F}
import org.apache.spark.sql.catalyst.expressions.GenericRowWithSchema
import repro.core.model.BaaVSchema
import repro.core.query.Query
import repro.kv.{BaaVStore, KVInstance, TaaVStore}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** One seeded Δ batch on MOT's `item` relation: two new items for an
  * existing test, and the deletion of one existing item of another test.
  * Keys are 0-based indexes into the test domain.
  */
final case class Batch(insertedTestKey: Int, items: Seq[Row], deletedTestKey: Int, deletedItem: Row)

/** The reads that follow each batch: one after the insert, one after the
  * delete (each of a key its write affects), and one of an unaffected key.
  */
final case class WriteReads(afterInsert: Batch => Query, afterDelete: Batch => Query,
                            unaffected: Int => Query)

/** One call of `BaaVStore.insert` or `.delete`, with the number of
  * (instance, key) blocks its Δ touches.
  */
final case class WriteCall(kind: String, keysAffected: Int)

/** What the write phase measured. */
final case class WriteOutcome(calls: Seq[WriteCall], visibleMs: Seq[Double], reads: Seq[ZRead],
                              rebuildChecks: Int, rebuildFailures: Seq[String])

object Writes {
  private def ms(t0: Long): Double = (System.nanoTime - t0) / 1e6

  private val Rel = "item"

  /** Draw `n` batches. Deleted items are read from the built TaaV store,
    * so every delete removes a tuple that exists.
    */
  def batches(mot: Loaded, n: Int, seed: Long, keys: Inputs.KeyStream): Seq[Batch] = {
    val rnd = new Random(seed * 7919L + 17)
    val schema = mot.taav.relation(Rel).schema
    def pick[A](xs: Seq[A]): A = xs(rnd.nextInt(xs.size))
    val drawn = (1 to n).map { _ =>
      val t = keys.take(Inputs.tests)
      val items = (1 to 2).map { _ =>
        val m = Map[String, Any](
          "it_tid" -> (t + 1).toLong, "it_rfr" -> (1 + rnd.nextInt(200)),
          "it_severity" -> pick(Seq("MINOR", "MAJOR", "DANGEROUS")),
          "it_loc" -> pick(Seq("FRONT", "REAR", "NEARSIDE", "OFFSIDE", "CENTRE", "ALL")))
        new GenericRowWithSchema(schema.fieldNames.map(m), schema): Row
      }
      (t, items, keys.take(Inputs.tests))
    }
    val existing = mot.taav.relation(Rel)
      .where(F.col("it_tid").isin(drawn.map(_._3 + 1L): _*)).collect()
      .groupBy(_.getAs[Long]("it_tid"))
      .map { case (tid, rows) => tid -> rows.minBy(_.toString) }
    drawn.map { case (t, items, d) => Batch(t, items, d, existing(d + 1L)) }
  }

  private def frame(spark: SparkSession, like: DataFrame, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava, like.schema)

  /** Distinct keys `rows` touch, summed over the KV instances of `rel`. */
  private def keysAffected(schema: BaaVSchema, rel: String, rows: Seq[Row]): Int =
    schema.forRel(rel).map(kv => rows.map(r => kv.key.map(r.getAs[Any])).distinct.size).sum

  /** Apply each batch to the built store, each write followed by a read of
    * a key it affects, then a read of an unaffected key. Batches do not
    * accumulate: every write makes the maintained instance's plan refer
    * twice to the previous one, so a read after k writes to an instance
    * evaluates 2^k copies of it, and cumulative batches would outgrow any
    * fixed run.
    */
  def run(mot: Loaded, batches: Seq[Batch], reads: WriteReads, keys: Inputs.KeyStream,
          spark: SparkSession, tracer: Tracer): WriteOutcome = {
    val schema = mot.ds.baavSchema
    val items = mot.taav.relation(Rel)
    val calls = Seq.newBuilder[WriteCall]
    val visible = Seq.newBuilder[Double]
    val done = Seq.newBuilder[ZRead]

    def write(kind: String, rows: Seq[Row])(f: => BaaVStore): BaaVStore = {
      calls += WriteCall(kind, keysAffected(schema, Rel, rows))
      tracer.span(s"kv.$kind")(f)
    }
    def read(q: Query, baav: BaaVStore, taav: TaaVStore): ZRead = {
      tracer.nextOp()
      Reads.zidian(ReadOp(mot, q, baav, taav, tracer.enabled), spark, tracer)
    }
    def withItems(df: DataFrame) = new TaaVStore(mot.taav.cat, mot.taav.relations.updated(Rel, df))

    var last: Option[Batch] = None
    for (b <- batches) {
      val dIns = frame(spark, items, b.items)
      val dDel = frame(spark, items, Seq(b.deletedItem))
      val taavIns = withItems(items.unionByName(dIns))
      val taavDel = withItems(items.exceptAll(dDel))

      val t0 = System.nanoTime
      val inserted = write("insert", b.items)(mot.baav.insert(Rel, dIns))
      done += read(reads.afterInsert(b), inserted, taavIns)
      visible += ms(t0)

      val t1 = System.nanoTime
      val deleted = write("delete", Seq(b.deletedItem))(mot.baav.delete(Rel, dDel))
      done += read(reads.afterDelete(b), deleted, taavDel)
      visible += ms(t1)

      done += read(reads.unaffected(keys.take(Inputs.tests)), inserted, taavIns)
      last = Some(b)
    }

    // After the last batch, the store maintained through both of its
    // writes must equal the store built anew over D∪Δ.
    val failures = last.toSeq.flatMap { b =>
      val dIns = frame(spark, items, b.items)
      val dDel = frame(spark, items, Seq(b.deletedItem))
      matchesRebuild(mot, mot.baav.insert(Rel, dIns).delete(Rel, dDel),
                     items.unionByName(dIns).exceptAll(dDel))
    }
    WriteOutcome(calls.result(), visible.result(), done.result(), last.size, failures)
  }

  /** Blocks, tuples and an order-independent hash of the (key, tuple)
    * pairs of an instance, in one job.
    */
  private def fingerprint(inst: KVInstance): Row = {
    val key = inst.schema.key.map(F.col)
    val tupleHash = F.aggregate(
      F.transform(F.col(KVInstance.BLOCK), t => F.pmod(F.xxhash64(key :+ t: _*), F.lit(1L << 31))),
      F.lit(0L), (acc, h) => acc + h)
    inst.blocked.agg(F.count(F.lit(1)), F.sum(F.size(F.col(KVInstance.BLOCK))), F.sum(tupleHash)).head()
  }

  /** The incrementally maintained store must equal `BaaVStore.build` over
    * the updated relation: the same blocks, tuples and tuple hashes on
    * every instance of it, and every other instance left as it was.
    */
  private def matchesRebuild(mot: Loaded, maintained: BaaVStore, updated: DataFrame): Option[String] = {
    val kvs = mot.ds.baavSchema.forRel(Rel)
    val rebuilt = BaaVStore.build(BaaVSchema(kvs), Map(Rel -> updated))
    try {
      val differ = kvs.map(_.name).filterNot(n => fingerprint(maintained(n)) == fingerprint(rebuilt(n)))
      val moved = mot.baav.instances.keys.filter(n => !kvs.exists(_.name == n) && !(maintained(n) eq mot.baav(n)))
      val bad = differ ++ moved
      if (bad.isEmpty) None else Some(s"maintained store differs from rebuild on ${bad.mkString(", ")}")
    } finally rebuilt.instances.values.foreach(_.blocked.unpersist(true))
  }
}
