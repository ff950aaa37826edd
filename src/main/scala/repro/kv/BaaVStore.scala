package repro.kv

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.types.{ArrayType, StructField, StructType}
import repro.core.model.{BaaVSchema, KVSchema}

/** A KV instance of `~R⟨X,Y⟩` (§4.1), physically a DataFrame with the key
  * columns plus a `__block` column `array<struct<Y>>` — literally "block
  * as a value". Blocks keep bag multiplicity (`collect_list`) so KBA
  * evaluation agrees with SQL bag semantics.
  *
  * Oversized blocks are split into segments sharing the key (§8.2): rows
  * with the same key values form one *logical* keyed block; `degree` and
  * `numBlocks` are computed over logical blocks.
  */
final class KVInstance private[kv] (val schema: KVSchema, val blocked: DataFrame) {
  import KVInstance.BLOCK

  /** Number of logical keyed blocks (distinct keys). */
  def numBlocks: Long = stats._1

  /** Number of tuples across all blocks. */
  def numTuples: Long = stats._2

  /** deg(~D): maximum logical block size (§4.1). */
  def degree: Long = stats._3

  /** (numBlocks, numTuples, degree), by one aggregation over the logical
    * blocks; each is 0 for an empty instance.
    */
  private lazy val stats: (Long, Long, Long) = {
    val sizes = blocked.groupBy(schema.key.map(F.col): _*).agg(F.sum(F.size(F.col(BLOCK))).as("__sz"))
    val r = sizes.agg(F.count(F.lit(1)), F.coalesce(F.sum("__sz"), F.lit(0L)),
                      F.coalesce(F.max("__sz"), F.lit(0L))).head()
    (r.getLong(0), r.getLong(1), r.getLong(2))
  }

  /** Key → the blocks stored under it, one per segment: the point-access
    * index of §7.2, held in memory. Built by one job over `blocked` on
    * first use, so a lookup then reads only the blocks its key names. An
    * instance made by `insert`/`delete` is a new object with its own index.
    */
  lazy val blocksByKey: BlockIndex = BlockIndex.build(blocked, schema.key, BLOCK)

  /** The key columns, in `schema.key` order. */
  def keyFields: Seq[StructField] = schema.key.map(blocked.schema(_))

  /** The fields of a block's tuples, in `schema.value` order. */
  def valueFields: Seq[StructField] = {
    val ArrayType(tuple: StructType, _) = (blocked.schema(BLOCK).dataType: @unchecked)
    schema.value.map(tuple(_))
  }

  /** Total cells stored (key cells once per block + value cells per tuple). */
  lazy val cells: Long = numBlocks * schema.key.size + numTuples * schema.value.size

  /** The relational version of the instance (§4.1): flatten every block. */
  def flatten: DataFrame = {
    val exploded = blocked.withColumn("__t", F.explode(F.col(BLOCK)))
    exploded.select(
      schema.key.map(F.col) ++ schema.value.map(v => F.col(s"__t.$v").as(v)): _*)
  }
}

object KVInstance {
  val BLOCK = "__block"

  /** Map a relation onto `~R⟨X,Y⟩`: project on XY, then group by X (§4.1).
    * `maxBlockSize` splits blocks larger than the threshold into segments
    * with the same key (§8.2).
    */
  def fromRelation(df: DataFrame, schema: KVSchema, maxBlockSize: Option[Int] = None): KVInstance = {
    require(schema.value.nonEmpty, s"KV instance ${schema.name} needs value attributes")
    val proj = df.select(schema.attrs.map(F.col): _*)
    val withSeg = maxBlockSize match {
      case Some(s) =>
        import org.apache.spark.sql.expressions.Window
        val w = Window.partitionBy(schema.key.map(F.col): _*).orderBy(schema.value.map(F.col): _*)
        proj.withColumn("__seg", F.floor((F.row_number().over(w) - 1) / s))
      case None => proj.withColumn("__seg", F.lit(0))
    }
    val grouped = withSeg
      .groupBy((schema.key :+ "__seg").map(F.col): _*)
      .agg(F.collect_list(F.struct(schema.value.map(F.col): _*)).as(BLOCK))
      .drop("__seg")
    new KVInstance(schema, grouped)
  }
}

/** A BaaV store `~D` of a BaaV schema `~R` (§4.1): one KV instance per KV
  * schema, plus incremental maintenance (§8.2: `O(|Δ|·deg)` — only blocks
  * whose keys appear in the update are rebuilt).
  */
final class BaaVStore(val schema: BaaVSchema, val instances: Map[String, KVInstance]) {

  def apply(name: String): KVInstance =
    instances.getOrElse(name, throw new NoSuchElementException(s"unknown KV instance $name"))

  /** deg(~D): maximum degree across instances. */
  def degree: Long = if (instances.isEmpty) 0L else instances.values.map(_.degree).max

  /** Insert `delta` tuples of relation `rel`; only affected blocks change. */
  def insert(rel: String, delta: DataFrame): BaaVStore = maintain(rel, delta)(_.unionByName(_))

  /** Delete `delta` tuples of relation `rel` (bag difference per block). */
  def delete(rel: String, delta: DataFrame): BaaVStore = maintain(rel, delta)(_.exceptAll(_))

  /** The store with each instance of `rel` rebuilt only under the keys
    * `delta` names: the tuples stored under them, combined with `delta` by
    * `combine`, make the new blocks of those keys; every other block is
    * kept as it is.
    */
  private def maintain(rel: String, delta: DataFrame)(combine: (DataFrame, DataFrame) => DataFrame): BaaVStore =
    new BaaVStore(schema, instances.map {
      case (n, inst) if inst.schema.rel == rel =>
        val s = inst.schema
        val proj = delta.select(s.attrs.map(F.col): _*)
        val affKeys = proj.select(s.key.map(F.col): _*).distinct()
        val rebuilt = KVInstance.fromRelation(combine(inst.flatten.join(affKeys, s.key), proj), s)
        val untouched = inst.blocked.join(affKeys, s.key, "left_anti")
        n -> new KVInstance(s, untouched.unionByName(rebuilt.blocked))
      case other => other
    })
}

object BaaVStore {

  /** Map a database `D` onto `~R` (§4.1), materializing every instance. */
  def build(
      schema: BaaVSchema,
      data: Map[String, DataFrame],
      maxBlockSize: Option[Int] = None,
  ): BaaVStore = {
    val insts = schema.kvs.map { kv =>
      val df = data.getOrElse(kv.rel, throw new NoSuchElementException(s"no data for ${kv.rel}"))
      val inst = KVInstance.fromRelation(df, kv, maxBlockSize)
      val cached = new KVInstance(kv, inst.blocked.cache())
      cached.blocked.count()
      kv.name -> cached
    }.toMap
    new BaaVStore(schema, insts)
  }
}
