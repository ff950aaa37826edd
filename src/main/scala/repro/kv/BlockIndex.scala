package repro.kv

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.UnsafeRow
import org.apache.spark.sql.types.{ArrayType, StructType}
import org.apache.spark.unsafe.Platform

/** The point-access index of a KV instance (§7.2): key → the blocks stored
  * under it, one per segment.
  *
  * The instance's rows are kept in Spark's binary row format, packed end to
  * end in one byte array and ordered by the hash of their key, with an
  * offset and a key hash per row beside it. So the index is three arrays of
  * primitives whatever the number of keys and tuples: the garbage collector
  * has nothing in it to trace, and at most three arrays to copy (G1 places
  * arrays of half a region or more outside the young generation), so
  * holding the index does not lengthen the pauses of later reads. A lookup
  * finds its key by binary search over the hashes and decodes only the
  * blocks it names, as the Catalyst internal values the rows hold.
  */
final class BlockIndex private (
    schema: StructType,
    keyAt: Seq[Int],
    blockAt: Int,
    hashes: Array[Int],
    offsets: Array[Int],
    data: Array[Byte],
) {
  import BlockIndex._

  private val keyOf = keyReader(schema, keyAt)
  private val ArrayType(tuple: StructType, _) = (schema(blockAt).dataType: @unchecked)
  private val tupleTypes = tuple.fields.map(_.dataType).toVector

  /** Number of stored rows (segments). */
  def size: Int = hashes.length

  /** The blocks stored under `key` (internal values of the key columns,
    * in key order), one per segment in stored order, each a bag of tuples
    * in the block's field order; `None` if the key has none.
    */
  def get(key: Seq[Any]): Option[Seq[Seq[Vector[Any]]]] = {
    val h = key.##
    val segments = Vector.newBuilder[Seq[Vector[Any]]]
    var i = firstAtLeast(hashes, h)
    while (i < hashes.length && hashes(i) == h) {
      val r = row(i)
      if (keyOf(r) == key) segments += block(r)
      i += 1
    }
    Some(segments.result()).filter(_.nonEmpty)
  }

  private def row(i: Int): UnsafeRow = {
    val r = new UnsafeRow(schema.size)
    r.pointTo(data, Platform.BYTE_ARRAY_OFFSET + offsets(i).toLong, offsets(i + 1) - offsets(i))
    r
  }

  private def block(r: UnsafeRow): Seq[Vector[Any]] = {
    val tuples = r.getArray(blockAt)
    (0 until tuples.numElements).map { j =>
      val t = tuples.getStruct(j, tupleTypes.size)
      tupleTypes.indices.map(f => t.get(f, tupleTypes(f))).toVector
    }
  }
}

object BlockIndex {

  /** Index `blocked` (key columns `key` plus the block column `blockCol`)
    * by one job that collects its rows.
    */
  def build(blocked: DataFrame, key: Seq[String], blockCol: String): BlockIndex = {
    val schema = blocked.schema
    val keyAt = key.map(schema.fieldIndex)
    val keyOf = keyReader(schema, keyAt)
    val rows = blocked.queryExecution.executedPlan.executeCollect().map(_.asInstanceOf[UnsafeRow])
    // Order rows by key hash, then by collected order, so the segments of
    // one key stay in stored order: (hash, row) packed in one long.
    val order = Array.tabulate(rows.length)(i => (keyOf(rows(i)).##.toLong << 32) | i)
    java.util.Arrays.sort(order)
    val total = rows.iterator.map(_.getSizeInBytes.toLong).sum
    require(total <= MaxBytes, s"a block index holds at most $MaxBytes bytes, not $total")
    val hashes = new Array[Int](rows.length)
    val offsets = new Array[Int](rows.length + 1)
    val data = new Array[Byte](total.toInt)
    order.indices.foreach { n =>
      val r = rows((order(n) & 0xffffffffL).toInt)
      hashes(n) = (order(n) >> 32).toInt
      r.writeToMemory(data, Platform.BYTE_ARRAY_OFFSET + offsets(n).toLong)
      offsets(n + 1) = offsets(n) + r.getSizeInBytes
    }
    new BlockIndex(schema, keyAt, schema.fieldIndex(blockCol), hashes, offsets, data)
  }

  private val MaxBytes = Int.MaxValue - 16

  /** The key of a stored row, as internal values of the key columns. */
  private def keyReader(schema: StructType, keyAt: Seq[Int]): UnsafeRow => Vector[Any] =
    r => keyAt.map(i => r.get(i, schema(i).dataType)).toVector

  /** The first index of a sorted array whose value is at least `h`. */
  private def firstAtLeast(sorted: Array[Int], h: Int): Int = {
    var lo = 0
    var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sorted(mid) < h) lo = mid + 1 else hi = mid
    }
    lo
  }
}
